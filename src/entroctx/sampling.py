"""Finite-shot sampling, noise on probability rows, and noise fitting.

Noise acts on (batch, K) probability rows, not on states: one readout
confusion matrix, then depolarizing mixing toward uniform, one map for runs,
`apply_noise` and the fit. Sampling is a seeded multinomial draw, so every
counts table is reproducible from (distribution, shots, seed).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .contexts import OutcomeDistribution, _is_real

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


def _texts(what: str, value) -> tuple[str, ...]:
    """A list of strings as a tuple, or an error naming `what` and the value."""
    if not isinstance(value, list) or not all(isinstance(t, str) for t in value):
        raise ValueError(f"{what} must be a list of strings, not {value!r}")
    return tuple(value)


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
        eps = self.depolarizing_epsilon
        if not (_is_real(eps) and 0.0 <= eps <= 1.0):
            raise ValueError(f"epsilon must be a number in [0, 1], not {eps!r}")
        if self.readout_flip is not None:
            try:
                flip = np.asarray(self.readout_flip, dtype=float)
            except (TypeError, ValueError):  # ragged, or not numbers
                flip = np.array(None)
            if flip.shape != (2, 2):
                raise ValueError(f"readout_flip must be 2x2, not {self.readout_flip!r}")
            if not np.isfinite(flip).all():
                message = f"readout_flip must be finite, not {self.readout_flip!r}"
                raise ValueError(message)
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


def _row_sums(rows: np.ndarray) -> np.ndarray:
    """rows.sum(axis=-1, keepdims=True), bit for bit: numpy adds fewer than 8
    terms left to right from 0, here as whole columns once rows are many
    (from 256 entries, the fewest at which column adds measured faster)."""
    if rows.shape[-1] >= 8 or rows.size < 256:
        return rows.sum(axis=-1, keepdims=True)
    return sum(rows[..., j : j + 1] for j in range(rows.shape[-1]))


def _depolarized(rows: np.ndarray, eps) -> np.ndarray:
    """(1 - eps) p + eps/K renormalized over the last axis; eps broadcasts."""
    noisy = (1.0 - eps) * rows + eps / rows.shape[-1]
    noisy /= _row_sums(noisy)
    return noisy


def _noisy_rows(rows: np.ndarray, noise: NoiseModel, labels: tuple) -> np.ndarray:
    """Readout confusion, then depolarizing, on (batch, K) rows over `labels`.
    Readout is one (K, K) matrix, the 2x2 flip's Kronecker power in the labels'
    order: [a, b] = prod over bits q of flip[a_q][b_q], reading b from record a."""
    flip = noise.readout_flip
    if flip is not None and flip != _IDENTITY_FLIP:
        if not all(isinstance(lb, str) and set(lb) <= {"0", "1"} for lb in labels):
            raise ValueError("readout confusion needs bit-string labels")
        width = len(labels[0])
        if any(len(lb) != width for lb in labels) or len(set(labels)) != 2**width:
            raise ValueError("readout confusion needs the full bit-string record")
        bits = np.array([[int(b) for b in lb] for lb in labels])
        rows = rows @ np.prod(np.asarray(flip)[bits[:, None], bits[None, :]], axis=-1)
    if noise.depolarizing_epsilon > 0.0:
        rows = _depolarized(rows, noise.depolarizing_epsilon)
    return rows


def apply_noise(dist: OutcomeDistribution, noise: NoiseModel) -> OutcomeDistribution:
    """Readout confusion per qubit, then p -> (1-eps) p + eps/K."""
    rows = _noisy_rows(dist.probs[None, :], noise, dist.labels)
    return OutcomeDistribution(dist.labels, rows[0])


@dataclass(frozen=True)
class DepolarizingFit:
    epsilon: float
    residual: float


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _distinct_rows(probs: list[np.ndarray]) -> tuple[list[np.ndarray], list[int]]:
    """One (D, K) stack of the distinct rows per outcome count K, and each
    distribution's column among all stacks' rows in turn (bytes fix K)."""
    groups: dict = {}
    for p in probs:
        groups.setdefault(p.size, {})[p.tobytes()] = p
    column = {row: c for c, row in enumerate(r for g in groups.values() for r in g)}
    stacks = [np.array(list(rows.values())) for rows in groups.values()]
    return stacks, [column[p.tobytes()] for p in probs]


def _entropy_mismatch(rows: tuple, targets: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """Sum over distributions of (H((1-eps) p + eps/K) - target)^2 for every
    weight in the array eps at once, with 0 log 0 = 0, added left to right in
    distribution order. `rows` is their _distinct_rows, so each distinct row is
    scored once; no outcome axis is padded or reordered, which would change
    numpy's summation order, and the (E, D, K) temporaries die with the call."""
    stacks, columns = rows
    h = []
    for stack in stacks:
        noisy = _depolarized(stack, eps[:, None, None])
        noisy *= np.log2(noisy, out=np.zeros_like(noisy), where=noisy > 0.0)
        h.append(-_row_sums(noisy)[..., 0])
    errors = (np.concatenate(h, axis=1)[:, columns] - targets) ** 2
    return np.cumsum(errors, axis=1)[:, -1]


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
    for j, target in enumerate(target_entropies):
        if not _is_real(target):
            raise ValueError(f"target entropy {j} must be a number, not {target!r}")
        if not math.isfinite(target):
            raise ValueError(f"target entropy {j} is not finite: {target}")
        if target < 0.0:
            raise ValueError(f"target entropy {j} is negative: {target}")
    targets = np.array(target_entropies, dtype=float)
    rows = _distinct_rows([dist.probs for dist in dists])

    def score(eps: float) -> float:
        return float(_entropy_mismatch(rows, targets, np.array([eps]))[0])

    grid = np.linspace(0.0, 1.0, 1001)
    center = int(np.argmin(_entropy_mismatch(rows, targets, grid)))
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
