"""Shannon-entropy calculus and the cyclic inequality evaluator.

All entropies are base-2. The witness for an n-cycle of observables is

    M_n = H(X_n X_1) - sum_{i=1}^{n-1} H(X_i X_{i+1}) + sum_{i=2}^{n-1} H(X_i)

and M_n <= 0 for any statistics that arise as marginals of one global
joint distribution; a positive value rules such a model out.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .contexts import OutcomeDistribution
from .sampling import _integer

PairKey = tuple[int, int]


def _prob_vector(dist) -> np.ndarray:
    if isinstance(dist, OutcomeDistribution):
        return dist.probs
    p = np.asarray(dist, dtype=float)
    if p.ndim != 1:
        raise ValueError("expected a 1-D probability vector")
    if not np.isfinite(p).all():
        raise ValueError(f"probability vector must be finite, not {p.tolist()}")
    if p.min() < -1e-8:
        raise ValueError(f"negative probability {p.min()}")
    if abs(p.sum() - 1.0) > 1e-8:
        raise ValueError(f"probabilities sum to {p.sum()}")
    return np.clip(p, 0.0, None)


def entropy_rows(p: np.ndarray) -> np.ndarray:
    """-sum p log2 p (0 log 0 := 0) per row of a C-ordered (..., K) array, one
    dot product a row: a row's entropy does not depend on the batch around it."""
    logs = np.log2(p, out=np.zeros_like(p), where=p > 0.0)
    return -(p[..., None, :] @ logs[..., :, None])[..., 0, 0]


def shannon_entropy(dist) -> float:
    """entropy_rows of one distribution or probability vector."""
    return float(entropy_rows(_prob_vector(dist)))


def _single_key(key) -> int:
    """An int, numpy integer or integer string; a float is refused, not cut."""
    try:
        return int(key) if isinstance(key, str) else operator.index(key)
    except (TypeError, ValueError):
        raise ValueError(f'bad single key {key!r}; use i or "i"') from None


def _pair_key(key) -> PairKey:
    try:
        i, j = key.split("-") if isinstance(key, str) else key
        return _single_key(i), _single_key(j)
    except (TypeError, ValueError):
        raise ValueError(f'bad pair key {key!r}; use (i, j) or "i-j"') from None


def cycle_pair_keys(n: int) -> tuple[PairKey, ...]:
    return tuple((i, i % n + 1) for i in range(1, n + 1))


def cycle_single_keys(n: int) -> tuple[int, ...]:
    return tuple(range(2, n))


def _rekey(table: Mapping, normalize) -> dict:
    """Re-key a table by normalized key; two keys for one entry are refused."""
    index, named = {}, {}
    for raw, value in table.items():
        key = normalize(raw)
        if key in index:
            raise ValueError(f"keys {named[key]!r} and {raw!r} name one entry")
        index[key], named[key] = value, raw
    return index


def _lookup(index: dict, key, kind: str) -> float:
    if key not in index:
        raise ValueError(f"missing entropy entry for {kind}")
    value = np.asarray(index[key], dtype=float)
    if not np.isfinite(value).all():
        raise ValueError(f"non-finite entropy for {kind}")
    return float(value) if value.ndim == 0 else value


def evaluate_m_cycle(h_pairs: Mapping, h_singles: Mapping, n: int) -> float:
    """Signed entropy combination M_n; keys (i, j) / "i-j" and i / "i".
    Entries may be (batch,) arrays, giving M per row."""
    if n < 3:
        raise ValueError("cycle needs at least 3 observables")
    pair_index = _rekey(h_pairs, _pair_key)
    single_index = _rekey(h_singles, _single_key)
    pairs = {
        key: _lookup(pair_index, key, f"pair X{key[0]}X{key[1]}")
        for key in cycle_pair_keys(n)
    }
    singles = {
        key: _lookup(single_index, key, f"single X{key}")
        for key in cycle_single_keys(n)
    }
    return _m_sum(list(pairs.values()), list(singles.values()))


def _m_sum(pairs, singles):
    """wrap - chain + singles, sums left to right from 0, over floats or array
    rows in cycle order: pairs (1, 2), ..., (n, 1), then singles 2..n-1."""
    return pairs[-1] - sum(pairs[:-1]) + sum(singles)


@dataclass(frozen=True)
class EntropyReport:
    """The eight entropies that enter M, plus the evaluated witness."""

    h_singles: dict[int, float]
    h_pairs: dict[PairKey, float]
    m_value: float
    convention: str
    n_observables: int = 5
    flags: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.convention not in ("coarse", "fine"):
            raise ValueError(f"unknown convention {self.convention!r}")
        singles = {k: float(v) for k, v in _rekey(self.h_singles, _single_key).items()}
        pairs = {k: float(v) for k, v in _rekey(self.h_pairs, _pair_key).items()}
        object.__setattr__(self, "h_singles", singles)
        object.__setattr__(self, "h_pairs", pairs)
        for name, value in [*singles.items(), *pairs.items()]:
            if value < -1e-12:
                raise ValueError(f"negative entropy for {name}")
        recomputed = evaluate_m_cycle(pairs, singles, self.n_observables)
        if abs(recomputed - self.m_value) > 1e-12:
            raise ValueError(
                f"m_value {self.m_value} does not recompute from entries "
                f"({recomputed})"
            )

    @classmethod
    def from_entropies(
        cls,
        h_singles: Mapping,
        h_pairs: Mapping,
        convention: str,
        n: int = 5,
        flags: tuple[str, ...] = (),
    ) -> "EntropyReport":
        m = evaluate_m_cycle(h_pairs, h_singles, n)
        return cls(h_singles, h_pairs, m, convention, n, tuple(flags))


def _sorted_labels(labels) -> list:
    # bit-strings sort lexicographically; eigenvalue tuples sort +1 first
    if all(isinstance(lb, tuple) for lb in labels):
        return sorted(labels, key=lambda lb: tuple(-v for v in lb))
    return sorted(labels, key=str)


def _count_table(counts) -> dict:
    """A CountsRecord's counts, or a plain mapping's checked as CountsRecord
    checks them: a bool, float or string count is refused, naming its label."""
    if hasattr(counts, "counts"):
        return counts.counts
    return {k: _integer(f"count of {k!r}", v, 0) for k, v in dict(counts).items()}


def entropies_from_counts(counts) -> OutcomeDistribution:
    """Maximum-likelihood distribution p = count/shots from raw counts.

    Accepts a CountsRecord or a plain label -> count mapping. No smoothing:
    zero-count outcomes stay at probability zero.
    """
    table = _count_table(counts)
    total = sum(table.values())
    if total <= 0:
        raise ValueError("zero total count")
    labels = _sorted_labels(table.keys())
    probs = np.array([table[lb] for lb in labels], dtype=float) / total
    return OutcomeDistribution(tuple(labels), probs)


def estimate_entropy(counts: Mapping, bias_correction: bool = False) -> float:
    """Plug-in entropy of raw counts; optional Miller-Madow correction.

    The correction adds (m - 1) / (2 N ln 2) with m the number of occupied
    outcomes. Off by default: reference reconciliation uses the plain
    maximum-likelihood estimate.
    """
    values = np.array([float(v) for v in _count_table(counts).values()])
    total = values.sum()
    if total <= 0:
        raise ValueError("zero total count")
    h = shannon_entropy(values / total)
    if bias_correction:
        occupied = int((values > 0).sum())
        h += (occupied - 1) / (2.0 * total * math.log(2.0))
    return h
