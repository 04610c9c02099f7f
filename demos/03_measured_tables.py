"""
Reconciling the bundled measured entropies
==========================================

The package ships two measured entropy tables from superconducting
hardware runs (8192 shots per context).  This script recomputes the
witness M from the stored entries, compares it with the M value printed
alongside each table, and puts both next to the exact simulation of the
same state and observables.
"""

from entroctx import (
    REFERENCE_RUNS,
    evaluate_m_cycle,
    format_reconciliation,
    reproduce_reference,
)

# The raw stored entries: three interior single-observable entropies and
# five adjacent-pair entropies per run.
for name, run in REFERENCE_RUNS.items():
    print(f"run {name} ({run.observable_set}):")
    for i, h in run.h_singles.items():
        print(f"  H(X{i}) = {h:.11f}")
    for (i, j), h in run.h_pairs.items():
        print(f"  H(X{i}X{j}) = {h:.11f}")
    m = evaluate_m_cycle(dict(run.h_pairs), dict(run.h_singles), 5)
    print(f"  recomputed M = {m:+.11f}   (printed alongside: {run.reported_m})")
    print()

# reproduce_reference() automates the comparison and adds the ideal
# (noise-free) simulation in both conventions.  For one of the two runs
# the recomputed M does not match the printed value at 1e-5; the
# reconciliation flags this and reports both numbers without picking one.
print(format_reconciliation(reproduce_reference()))

# Note what the comparison shows: the measured M values are positive,
# but the ideal simulation of the same states and observables gives
# strictly negative M in both conventions.  The positivity of the
# measured tables is therefore a property of hardware noise and of the
# fine-grained outcome records, not of the ideal quantum statistics.
