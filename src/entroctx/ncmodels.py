"""Classical side of the comparison: noncontextual hidden-variable models.

A model is a probability mixture over deterministic +/-1 assignments to the
n cycle observables. Mixtures can never push the entropy witness M above
zero, and a set of pairwise distributions arises from some mixture exactly
when a small linear program is feasible; both facts are implemented here so
each can check the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

import numpy as np

from .contexts import OutcomeDistribution, coarse_labels
from .entropy import _pair_key, _rekey, cycle_pair_keys, cycle_single_keys
from .entropy import entropy_rows, evaluate_m_cycle, shannon_entropy

# The LP tableau is (4n + 1) x (2^n + 8n + 3): one solve takes 2-5 s at n = 13
# and about 12 s at n = 14 on a 2-vCPU x86 machine.
MAX_OBSERVABLES = 13
_PAIR_LABELS = coarse_labels(2)


def value_matrix(n: int) -> np.ndarray:
    """(2^n, n) array of all assignment values in canonical order: binary
    counting with bit 0 meaning +1 and the first observable the most
    significant bit, so for n = 2 the rows are (+,+), (+,-), (-,+), (-,-)."""
    k = np.arange(2**n)[:, None]
    bits = (k >> (n - 1 - np.arange(n))) & 1
    return 1 - 2 * bits


@dataclass(frozen=True)
class NCModel:
    """Probability weights over the canonical assignment enumeration."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or (w.size & (w.size - 1)) != 0 or w.size < 2:
            raise ValueError("weights must cover all 2^n assignments")
        if w.min() < 0.0:
            raise ValueError(f"negative weight {w.min()}")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {w.sum()}")
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return int(self.weights.size).bit_length() - 1

    @classmethod
    def uniform(cls, n: int) -> "NCModel":
        return cls(np.full(2**n, 1.0 / 2**n))

    @classmethod
    def point(cls, values: tuple[int, ...]) -> "NCModel":
        """The deterministic model giving X_{k+1} the value values[k]."""
        if not values or any(v not in (-1, 1) for v in values):
            raise ValueError("assignment values must be +1 or -1")
        index = 0
        for v in values:
            index = (index << 1) | (0 if v == 1 else 1)
        w = np.zeros(2 ** len(values))
        w[index] = 1.0
        return cls(w)


@dataclass(frozen=True)
class CycleMarginals:
    """Coarse single and adjacent-pair distributions of one model."""

    singles: dict[int, OutcomeDistribution]
    pairs: dict[tuple[int, int], OutcomeDistribution]


def model_marginals(model: NCModel, n: int | None = None) -> CycleMarginals:
    """Exact marginals of the mixture for each single and adjacent pair."""
    n = model.n if n is None else n
    if 2**n != model.weights.size:
        raise ValueError("model size does not match n")
    values = value_matrix(n)
    w = model.weights
    singles = {}
    for i in range(1, n + 1):
        probs = [float(w[values[:, i - 1] == a].sum()) for a in (+1, -1)]
        singles[i] = OutcomeDistribution(coarse_labels(1), np.array(probs))
    pairs = {}
    for i, j in cycle_pair_keys(n):
        probs = [
            float(w[(values[:, i - 1] == a) & (values[:, j - 1] == b)].sum())
            for a, b in coarse_labels(2)
        ]
        pairs[(i, j)] = OutcomeDistribution(coarse_labels(2), np.array(probs))
    return CycleMarginals(singles, pairs)


def m_of_model(model: NCModel, n: int | None = None) -> float:
    """Witness value of the model's own marginals; always <= 0 up to 1e-9."""
    n = model.n if n is None else n
    marg = model_marginals(model, n)
    h_pairs = {key: shannon_entropy(d) for key, d in marg.pairs.items()}
    h_singles = {i: shannon_entropy(marg.singles[i]) for i in cycle_single_keys(n)}
    return evaluate_m_cycle(h_pairs, h_singles, n)


def m_of_models_batch(weights: np.ndarray, n: int) -> np.ndarray:
    """Vectorized m_of_model over a (batch, 2^n) weight matrix, for large
    property runs; agrees with the scalar path row by row."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 2 or w.shape[1] != 2**n:
        raise ValueError("weights must be (batch, 2^n)")
    pairs = (w @ _pair_constraints(n)[:-1].T).reshape(len(w), n, 2, 2)
    h_pairs = dict(zip(cycle_pair_keys(n), entropy_rows(pairs.reshape(len(w), n, 4)).T))
    firsts = entropy_rows(pairs.sum(axis=3)).T[1:]  # X_2, X_3, ... off pairs (i, i+1)
    return evaluate_m_cycle(h_pairs, dict(zip(cycle_single_keys(n), firsts)), n)


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    witness: NCModel | None
    max_constraint_violation: float
    total_violation: float


_PIVOT_EPS = 1e-12


def _simplex_min_violation(a0: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """min sum(u + v) s.t. a0 @ w + u - v = b, all variables >= 0.

    Dense tableau simplex, Bland's rule throughout (lowest eligible index
    enters; among tied ratios the lowest basis index leaves), so the solve
    is deterministic and cannot cycle. The optimum is the least total
    marginal violation any mixture can achieve.
    """
    m, n_w = a0.shape
    tableau = np.hstack([a0, np.eye(m), -np.eye(m), b.reshape(-1, 1)])
    cost = np.concatenate([np.zeros(n_w), np.ones(2 * m)])
    basis = list(range(n_w, n_w + m))  # u_i = b_i >= 0 is a valid start
    n_cols = n_w + 2 * m
    while True:
        reduced = cost - cost[basis] @ tableau[:, :n_cols]
        eligible = reduced < -_PIVOT_EPS
        entering = int(eligible.argmax())  # Bland: the lowest eligible index
        if not eligible[entering]:
            break
        # Bland's ratio test with epsilon ties is sequential: Python floats
        column = tableau[:, entering].tolist()
        rhs = tableau[:, -1].tolist()
        leaving = -1
        best_ratio = np.inf
        for i in range(m):
            if column[i] > _PIVOT_EPS:
                ratio = rhs[i] / column[i]
                if ratio < best_ratio - _PIVOT_EPS or (
                    abs(ratio - best_ratio) <= _PIVOT_EPS
                    and (leaving < 0 or basis[i] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = i
        if leaving < 0:
            raise RuntimeError("violation LP reported unbounded")
        # per entry the same multiply and subtract as row-by-row elimination
        pivot_row = tableau[leaving] / tableau[leaving, entering]
        tableau -= tableau[:, entering, None] * pivot_row
        tableau[leaving] = pivot_row
        basis[leaving] = entering
    solution = np.zeros(n_cols)
    solution[basis] = np.clip(tableau[:, -1], 0.0, None)
    return solution[:n_w], float(cost @ solution)


def _pair_rows(pair_dists, n: int) -> np.ndarray:
    """The (n, 4) array lp_feasibility reads, from either of its input forms;
    two mapping keys for one pair are refused."""
    if isinstance(pair_dists, Mapping):
        keyed, listed = _rekey(pair_dists, _pair_key), []
        for i, j in cycle_pair_keys(n):
            if (i, j) not in keyed:
                raise ValueError(f"missing pair distribution for X{i}X{j}")
            dist = keyed[(i, j)]
            if not isinstance(dist, OutcomeDistribution):
                probs = np.array([float(p) for p in dist.values()])
                dist = OutcomeDistribution(tuple(dist), probs)
            table = dist.as_dict()
            for label in _PAIR_LABELS:
                if label not in table:
                    raise ValueError(f"pair X{i}X{j} lacks coarse outcome {label}")
            listed.append([table[label] for label in _PAIR_LABELS])
        pair_dists = listed
    rows = np.asarray(pair_dists, dtype=float)
    if rows.shape != (n, 4):
        raise ValueError(f"pair rows have shape {rows.shape}, not ({n}, 4)")
    if not (np.isfinite(rows) & (rows >= 0.0)).all():
        raise ValueError(
            f"pair rows of shape {rows.shape} hold a negative or non-finite value"
        )
    return rows


@lru_cache(maxsize=None)
def _pair_constraints(n: int) -> np.ndarray:
    """Read-only (4n + 1, 2^n) 0/1 rows: pair outcomes, then normalization."""
    if n > MAX_OBSERVABLES:
        raise ValueError(f"n = {n} too large (limit {MAX_OBSERVABLES})")
    values = value_matrix(n)
    rows = [
        (values[:, i - 1] == a) & (values[:, j - 1] == b)
        for i, j in cycle_pair_keys(n)
        for a, b in _PAIR_LABELS
    ]
    a0 = np.vstack([np.array(rows, dtype=float), np.ones(2**n)])
    a0.setflags(write=False)
    return a0


def lp_feasibility(
    pair_dists, n: int, tolerance: float = 1e-9
) -> FeasibilityResult:
    """Does a mixture of assignments reproduce all adjacent-pair marginals?

    Marginal matching is folded into the objective (minimum total absolute
    violation); feasible means that minimum is at most `tolerance`, which
    lets inconsistent-but-close sampled marginals pass at a loose tolerance
    while exact inputs are held to 1e-9. Inconsistencies between contexts
    (for example two pairs implying different singles) surface as
    infeasibility, never as an exception.

    `pair_dists` is an (n, 4) array of coarse pair rows, in cycle order
    (1, 2), ..., (n, 1) and columns (+,+), (+,-), (-,+), (-,-), or a mapping
    from pair keys (i, j) or "i-j" to coarse pair distributions or mappings.
    """
    if n < 3:
        raise ValueError("cycle needs at least 3 observables")
    a0 = _pair_constraints(n)
    b = np.append(_pair_rows(pair_dists, n), 1.0)
    w, total = _simplex_min_violation(a0, b)
    residual = a0 @ w - b
    max_violation = float(np.abs(residual).max())
    feasible = total <= tolerance
    witness = None
    if feasible:
        w = np.clip(w, 0.0, None)
        norm = w.sum()
        witness = NCModel(w / norm) if norm > 0 else NCModel.uniform(n)
    return FeasibilityResult(feasible, witness, max_violation, total)
