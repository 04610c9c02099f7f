"""
Hardware circuits and the state-parameter sweep
===============================================

Every context exports as a standalone OpenQASM 2.0 circuit: state
preparation, a Clifford basis change that maps every observable in the
context to a Z-string, and computational-basis readout.  The readout
record of that circuit is exactly the fine record the simulation uses.
The second half of the script sweeps the two state angles to map the
witness M across the whole family, including the uniform state where
the fine-record M turns positive.
"""

import tempfile
from pathlib import Path

from entroctx import (
    StatePrepSpec,
    exact_m,
    export_qasm_suite,
    prepare_state,
    preset_config,
    resolve_observables,
    sweep,
    sweep_summary,
)

# Export the full suite for the s1 preset.  Seven contexts need only
# per-qubit rotations; the ZZ,XX pair conflicts on both qubits and gets a
# CNOT and an H, after which the first record bit reads ZZ and the second
# reads XX.
with tempfile.TemporaryDirectory() as tmp:
    out_dir = Path(tmp)
    written = export_qasm_suite(preset_config("s1"), out_dir / "s1")
    print(f"s1 preset: {len(written)} circuits written")
    print("\n" + (out_dir / "s1" / "pair_x1x2_ZZ_XX.qasm").read_text())

    # Every table2 pair conflicts on both qubits, so each pair circuit is
    # entangling; the same routine writes all five next to the three singles.
    written = export_qasm_suite(preset_config("s2"), out_dir / "s2")
    print(f"s2 preset: {len(written)} circuits written")
    print("\n" + (out_dir / "s2" / "pair_x1x2_ZZ_YX.qasm").read_text())

# Sweep the s1 family over both angles.  The ideal coarse M never turns
# positive anywhere on the grid, and the LP stays feasible.
rows = sweep("s1", [i * 0.2 for i in range(16)], [i * 0.2 for i in range(16)])
summary = sweep_summary(rows)
print(f"\nsweep over {len(rows)} grid points:")
for convention in ("coarse", "fine"):
    best = summary[f"max_m_{convention}"]
    print(f"  max {convention} M = {best['m']:+.6f} "
          f"at alpha = {best['alpha']:.1f}, beta = {best['beta']:.1f}")
print(f"  any coarse M > 0: {summary['any_positive_coarse']}")
print(f"  any fine M > 0:   {summary['any_positive_fine']}")

# The fine-record witness is NOT bounded by zero even without noise.
# At alpha = 0, beta = pi/2 the s1 family is the uniform superposition;
# every fine record of a pair context then carries two full bits while
# the coarse signs still satisfy the cycle bound.
uniform = prepare_state(StatePrepSpec(family="s1", alpha=0.0, beta=1.5707963267948966))
observables = resolve_observables("table1")
print(f"\nuniform state: coarse M = {exact_m(uniform, observables, 'coarse'):+.6f}, "
      f"fine M = {exact_m(uniform, observables, 'fine'):+.6f}")
print("The extra record bits are outside the cycle's constraint structure,")
print("so a positive fine M does not witness contextuality by itself.")
