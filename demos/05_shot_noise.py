"""
Shot noise: sampled counts and entropy estimates
================================================

Real runs estimate every probability from a finite number of shots.
This script samples multinomial counts from the exact distributions,
watches the plug-in entropy estimator converge, and shows the small
positive bias that a Miller-Madow correction removes.
"""

import numpy as np

from entroctx import (
    cycle_contexts,
    estimate_entropy,
    evaluate_m_cycle,
    joint_distribution_fine,
    prepare_state,
    preset_config,
    resolve_observables,
    sample_counts,
    shannon_entropy,
)

config = preset_config("s1")
observables = resolve_observables(config.observable_set)
state = prepare_state(config.state)
entries = [
    (kind, key, joint_distribution_fine(state, ctx))
    for kind, key, ctx in cycle_contexts(observables, "fine")
]

# One context up close: the X1X2 pair.  Counts are seeded and therefore
# exactly reproducible.
dist = next(d for kind, key, d in entries if key == (1, 2))
counts = sample_counts(dist, 8192, seed=11)
print("X1X2 counts at 8192 shots:", dict(sorted(counts.counts.items())))
print(f"exact H = {shannon_entropy(dist):.6f}")
print(f"plug-in estimate      = {estimate_entropy(counts):.6f}")
print(f"Miller-Madow estimate = {estimate_entropy(counts, bias_correction=True):.6f}")

# The witness M inherits the per-context estimation error.  Averaged
# over seeds, the error shrinks roughly like 1/sqrt(shots).
m_exact = evaluate_m_cycle(
    {key: shannon_entropy(d) for kind, key, d in entries if kind == "pair"},
    {key: shannon_entropy(d) for kind, key, d in entries if kind == "single"},
    5,
)
print(f"\nexact fine M = {m_exact:+.6f}")
print("shots    mean |M_hat - M|   (30 seeds)")
for shots in (2**13, 2**16, 2**19):
    errors = []
    for seed in range(30):
        h_singles, h_pairs = {}, {}
        for index, (kind, key, d) in enumerate(entries):
            c = sample_counts(d, shots, seed=1000 * seed + index)
            (h_singles if kind == "single" else h_pairs)[key] = estimate_entropy(c)
        errors.append(abs(evaluate_m_cycle(h_pairs, h_singles, 5) - m_exact))
    print(f"{shots:6d}   {np.mean(errors):.5f}")
