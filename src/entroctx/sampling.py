"""Finite-shot sampling, distribution-level noise, and noise fitting.

Noise acts on outcome distributions, not on states: per-qubit readout
confusion first, then depolarizing mixing toward uniform. Sampling is a
seeded multinomial draw, so every counts table is reproducible from
(distribution, shots, seed).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .contexts import OutcomeDistribution

_IDENTITY_FLIP = ((1.0, 0.0), (0.0, 1.0))


def _integer(what: str, value, minimum: int) -> int:
    """operator.index(value), at least `minimum`; a bool, float or string is
    refused, not truncated, with an error naming `what` and the value."""
    try:
        number = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        number = None
    if number is None or number < minimum:
        raise ValueError(f"{what} must be an integer >= {minimum}, not {value!r}")
    return number


@dataclass(frozen=True)
class CountsRecord:
    """Integer shot counts per outcome label for one context."""

    shots: int
    counts: dict

    def __post_init__(self) -> None:
        object.__setattr__(self, "shots", _integer("shots", self.shots, 1))
        counts = {k: _integer(f"count of {k!r}", v, 0) for k, v in self.counts.items()}
        object.__setattr__(self, "counts", counts)
        total = sum(counts.values())
        if total != self.shots:
            raise ValueError(f"counts sum to {total}, expected {self.shots}")


@dataclass(frozen=True)
class NoiseModel:
    """Depolarizing weight plus one 2x2 readout-confusion matrix.

    readout_flip[a][b] is the probability of reading bit b when the true
    bit is a; the same matrix applies to every qubit independently.
    """

    depolarizing_epsilon: float = 0.0
    readout_flip: tuple[tuple[float, float], tuple[float, float]] | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.depolarizing_epsilon <= 1.0:
            raise ValueError("epsilon must lie in [0, 1]")
        if self.readout_flip is not None:
            flip = np.asarray(self.readout_flip, dtype=float)
            if flip.shape != (2, 2):
                raise ValueError("readout_flip must be 2x2")
            if flip.min() < 0.0 or np.abs(flip.sum(axis=1) - 1.0).max() > 1e-9:
                raise ValueError("readout_flip rows must be probabilities")
            object.__setattr__(
                self, "readout_flip", tuple(tuple(row) for row in flip)
            )


def sample_counts(dist: OutcomeDistribution, shots: int, seed: int) -> CountsRecord:
    """Multinomial draw; identical (dist, shots, seed) gives identical counts."""
    if shots < 1:
        raise ValueError("shots must be positive")
    probs = dist.probs / dist.probs.sum()
    rng = np.random.default_rng(seed)
    drawn = rng.multinomial(shots, probs)
    counts = {label: int(k) for label, k in zip(dist.labels, drawn)}
    return CountsRecord(shots, counts)


def _apply_readout(dist: OutcomeDistribution, flip: np.ndarray) -> OutcomeDistribution:
    labels = dist.labels
    if not all(
        isinstance(lb, str) and set(lb) <= {"0", "1"} for lb in labels
    ):
        raise ValueError("readout confusion needs bit-string labels")
    width = len(labels[0])
    if any(len(lb) != width for lb in labels) or len(labels) != 2**width:
        raise ValueError("readout confusion needs the full bit-string record")
    order = [int(lb, 2) for lb in labels]
    p = np.zeros(2**width)
    p[order] = dist.probs
    tensor = p.reshape([2] * width)
    for axis in range(width):
        tensor = np.moveaxis(
            np.tensordot(tensor, flip, axes=([axis], [0])), -1, axis
        )
    return OutcomeDistribution(labels, tensor.reshape(-1)[order])


def apply_noise(dist: OutcomeDistribution, noise: NoiseModel) -> OutcomeDistribution:
    """Readout confusion per qubit, then p -> (1-eps) p + eps/K."""
    out = dist
    if noise.readout_flip is not None and noise.readout_flip != _IDENTITY_FLIP:
        out = _apply_readout(out, np.asarray(noise.readout_flip))
    eps = noise.depolarizing_epsilon
    if eps > 0.0:
        k = len(out.labels)
        probs = (1.0 - eps) * out.probs + eps / k
        out = OutcomeDistribution(out.labels, probs / probs.sum())
    return out


@dataclass(frozen=True)
class DepolarizingFit:
    epsilon: float
    residual: float


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _entropy_mismatch(
    probs: list[np.ndarray], targets: list[float], eps: np.ndarray
) -> np.ndarray:
    """Sum over distributions of (H((1-eps) p + eps/K) - target)^2 for every
    weight in the array eps at once, with 0 log 0 = 0. Distributions of one
    size K are scored as one stack; padding or reordering the outcome axis
    would change numpy's summation order, so neither is done."""
    errors: list = [None] * len(probs)
    for k in dict.fromkeys(p.size for p in probs):
        group = [j for j, p in enumerate(probs) if p.size == k]
        noisy = (1.0 - eps)[:, None, None] * np.array([probs[j] for j in group])
        noisy += (eps / k)[:, None, None]
        noisy /= noisy.sum(axis=2, keepdims=True)
        logs = np.log2(noisy, out=np.zeros_like(noisy), where=noisy > 0.0)
        h = -(noisy * logs).sum(axis=2)
        for column, j in enumerate(group):
            errors[j] = (h[:, column] - targets[j]) ** 2
    return sum(errors, np.zeros(eps.shape))


def fit_depolarizing(
    dists: list[OutcomeDistribution], target_entropies: list[float]
) -> DepolarizingFit:
    """Depolarizing weight whose entropies best match the targets.

    Least-squares in entropy space: a 1e-3 grid scan, evaluated as one
    array, brackets the global minimum (no monotonicity assumed), then
    golden-section search narrows the bracket to 1e-4. Returns the weight
    and the residual sum of squares; with underdetermined targets the
    residual is the honest measure of fit quality.
    """
    if not dists or len(dists) != len(target_entropies):
        raise ValueError("need matching distributions and target entropies")
    probs = [dist.probs for dist in dists]
    targets = [float(t) for t in target_entropies]
    for position, target in enumerate(targets):
        if not math.isfinite(target):
            raise ValueError(f"target entropy {position} is not finite: {target}")

    def score(eps: float) -> float:
        return float(_entropy_mismatch(probs, targets, np.array([eps]))[0])

    grid = np.linspace(0.0, 1.0, 1001)
    center = int(np.argmin(_entropy_mismatch(probs, targets, grid)))
    a, b = grid[max(center - 1, 0)], grid[min(center + 1, len(grid) - 1)]
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = score(c), score(d)
    while b - a > 1e-4:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = score(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = score(d)
    best = float(0.5 * (a + b))
    return DepolarizingFit(best, score(best))
