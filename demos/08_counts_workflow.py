"""
From counts files to a verdict
==============================

Measured data enters the package as one JSON counts file per context.
This script generates such files by sampling the exact simulation,
ingests them back as if they came from hardware, and walks the result
through entropies, the witness M, and the LP feasibility check with a
shot-aware tolerance.
"""

import json
import tempfile
from dataclasses import replace
from pathlib import Path

from entroctx import (
    ingest_counts_files,
    lp_tolerance_for,
    preset_config,
    run_experiment,
    write_sampled_counts,
)

# write_sampled_counts produces one file per context; each records the
# context observables, the shot count, and the label -> count table.
config = replace(preset_config("s1"), shots=8192, seed=42)
with tempfile.TemporaryDirectory() as tmp:
    paths = write_sampled_counts(config, Path(tmp) / "counts")
    print(f"{len(paths)} counts files written to a temporary counts/ directory")
    example = json.loads(paths[0].read_text())
    print(f"example ({paths[0].name}): context = {example['context']}, "
          f"shots = {example['shots']}")
    print(f"  counts = {example['counts']}")

    # Ingestion only needs the files and the observable-set name: contexts
    # are matched by their recorded observables, the convention is inferred
    # from the labels, and missing files are reported by context.
    result = ingest_counts_files([str(p) for p in paths], "table1")
report = result.report
print(f"\ningested M = {report.m_value:+.6f} [{report.convention} convention]")

# The same seeded sampling inside run_experiment must agree exactly.
direct = run_experiment(config)
print(f"direct   M = {direct.report.m_value:+.6f} (same seed, same shots)")
print(f"agreement: {abs(direct.report.m_value - report.m_value):.2e}")

# Sampled marginals are never exactly consistent, so the LP tolerance
# widens with shot noise: (4n + 1) / sqrt(shots) instead of 1e-9.
tolerance = lp_tolerance_for(5, 8192)
print(f"\nLP tolerance at 8192 shots: {tolerance:.4f}")
print(f"LP feasible: {result.feasibility.feasible} "
      f"(total violation {result.feasibility.total_violation:.4f})")
