"""Classical side of the comparison: noncontextual hidden-variable models.

A model is a probability mixture over deterministic +/-1 assignments to the
n cycle observables. Mixtures can never push the entropy witness M above
zero, and a set of pairwise distributions arises from some mixture exactly
when a small linear program is feasible; both facts are implemented here so
each can check the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

import numpy as np

from .contexts import OutcomeDistribution, _is_real, coarse_labels
from .entropy import _pair_key, _rekey, cycle_pair_keys, cycle_single_keys
from .entropy import entropy_rows, evaluate_m_cycle, shannon_entropy

# One random-model LP takes about 11 ms and 60 pivots at n = 13, 16 ms at n = 14
# (2-vCPU x86), and an 8x8 sweep's 64 lock-step rows at n = 13 about 0.3 s;
# pricing reads all 2^n columns per pivot. Raising the limit is a logged decision.
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
        total = w.sum()  # NaN or infinite if a weight is
        if not math.isfinite(total):
            raise ValueError(f"weights must be finite, not summing to {total}")
        if w.min() < 0.0:
            raise ValueError(f"negative weight {w.min()}")
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {total}")
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
# Rows per lock-step batch: this many m x (m + 1) [binv | xb] blocks, m = 4n + 1,
# 0.24 MB at n = 5 and 1.5 MB at n = 13, and a (2^n + 2m)-wide reduced-cost row
# each, whatever the grid's size.
_BATCH_ROWS = 64


def _bland_leaving(column, rhs, basis) -> int:
    """Bland's ratio test with epsilon ties, in sequence over Python floats:
    the row of the least rhs / column over column > eps, where a ratio within
    eps of the best so far wins on a lower basis index; -1 when no row has
    column > eps."""
    leaving = -1
    best_ratio = np.inf
    for i in range(len(column)):
        if column[i] > _PIVOT_EPS:
            ratio = rhs[i] / column[i]
            if ratio < best_ratio - _PIVOT_EPS or (
                abs(ratio - best_ratio) <= _PIVOT_EPS
                and (leaving < 0 or basis[i] < basis[leaving])
            ):
                best_ratio = ratio
                leaving = i
    return leaving


def _optimum(rhs: np.ndarray, basis, cost: np.ndarray, n_w: int) -> tuple:
    """Weights and objective of a final tableau's basic solution."""
    solution = np.zeros(cost.size)
    solution[basis] = np.clip(rhs, 0.0, None)
    return solution[:n_w], float(cost @ solution)


def _simplex_min_violation(a0: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """min sum(u + v) s.t. a0 @ w + u - v = b, all variables >= 0.

    Revised simplex on [binv | xb], the basis inverse and basic values, priced
    from y = cost[basis] @ binv: reduced costs -y a0 for w, 1 - y for u and
    1 + y for v, in that order. The most negative one enters, ties to the
    lowest index: a random model takes a median of 21 pivots at n = 5, 38 at
    n = 9 and 60 at n = 13, where the lowest eligible index took 27, 244 and
    2716. After m degenerate pivots in a row (step <= eps) the lowest eligible
    index enters instead (Bland) until a step moves: Bland's rule ends from any
    basis and a moving step lowers the objective, so the solve cannot cycle.
    Among tied ratios the lowest basis index leaves. The optimum is the least
    total violation.
    """
    m, n_w = a0.shape
    tableau = np.hstack([np.eye(m), b.reshape(-1, 1)])  # from the basis u = b >= 0
    binv, xb, basis = tableau[:, :m], tableau[:, -1], np.arange(n_w, n_w + m)
    cost = np.concatenate([np.zeros(n_w), np.ones(2 * m)])
    stalled = 0  # degenerate pivots in a row
    while True:
        y = cost[basis] @ binv
        reduced = np.concatenate([-(y @ a0), 1.0 - y, 1.0 + y])
        if stalled < m:
            entering = int(reduced.argmin())
        else:  # Bland: the lowest eligible index
            entering = int((reduced < -_PIVOT_EPS).argmax())
        if not reduced[entering] < -_PIVOT_EPS:
            break
        side, k = divmod(entering - n_w, m)  # side < 0: a w column; 0: u_k; 1: v_k
        column = binv @ a0[:, entering] if side < 0 else binv[:, k] * (1.0, -1.0)[side]
        leaving = _bland_leaving(column.tolist(), xb.tolist(), basis.tolist())
        if leaving < 0:
            raise RuntimeError("violation LP reported unbounded")
        # per entry the same multiply and subtract as row-by-row elimination
        pivot_row = tableau[leaving] / column[leaving]
        stalled = stalled + 1 if pivot_row[-1] <= _PIVOT_EPS else 0
        tableau -= column[:, None] * pivot_row
        tableau[leaving] = pivot_row
        basis[leaving] = entering
    return _optimum(xb, basis, cost, n_w)


def _batch_leaving(column: np.ndarray, rhs: np.ndarray, basis: np.ndarray):
    """_bland_leaving on each row of (B, m) arrays. When a row's ratios within
    4 eps of its least all lie within eps / 2 of it, the sequential test ends
    on the lowest basis index among them, so array operations decide; other
    rows (near ties spread wider, no candidate) run the sequential test."""
    ratio = np.full(column.shape, np.inf)
    np.divide(rhs, column, out=ratio, where=column > _PIVOT_EPS)
    least = ratio.min(axis=1)
    near = ratio <= (least + 4 * _PIVOT_EPS)[:, None]
    leaving = np.where(near, basis, np.inf).argmin(axis=1)
    widest = np.where(near, ratio, -np.inf).max(axis=1)
    for k in np.flatnonzero((widest > least + 0.5 * _PIVOT_EPS) | np.isinf(least)):
        column_k, rhs_k = column[k].tolist(), rhs[k].tolist()
        leaving[k] = _bland_leaving(column_k, rhs_k, basis[k].tolist())
    return leaving


def _simplex_min_violation_batch(a0: np.ndarray, b: np.ndarray, tolerance):
    """Is the violation LP's optimum at most `tolerance`, for each row of a
    (B, m) right-hand side? One lock step takes _simplex_min_violation's next
    pivot on every unfinished row, each with its own [binv | xb] block and
    degenerate-pivot count, in the same arithmetic. A row leaves feasible once
    its objective, the sum of its clipped basic slack values, is _PIVOT_EPS
    under `tolerance` (it never rises but by rounding), or at its optimum
    with _optimum's total."""
    (size, m), n_w = b.shape, a0.shape[1]
    tableau = np.zeros((size, m, m + 1))
    tableau[:, :, :m] = np.eye(m)
    tableau[:, :, -1] = b
    columns = np.hstack([a0, np.eye(m), -np.eye(m)]).T  # [a0 | I | -I][:, j]
    cost = np.concatenate([np.zeros(n_w), np.ones(2 * m)])
    basis = np.tile(np.arange(n_w, n_w + m), (size, 1))
    stalled = np.zeros(size, dtype=int)  # degenerate pivots in a row, per row
    index = np.arange(size)  # batch row -> row of b
    verdicts, rows = np.zeros(size, dtype=bool), np.arange(size)
    while True:
        binv, xb, basic_cost = tableau[:, :, :m], tableau[:, :, -1], cost[basis]
        slack = np.maximum(xb, 0.0)
        reached = np.einsum("bi,bi->b", basic_cost, slack) <= tolerance - _PIVOT_EPS
        y = np.matmul(basic_cost[:, None], binv)[:, 0]
        reduced = np.concatenate([-(y @ a0), 1.0 - y, 1.0 + y], axis=1)
        eligible = reduced < -_PIVOT_EPS
        bland = eligible.argmax(axis=1)  # the lowest eligible index
        entering = np.where(stalled < m, reduced.argmin(axis=1), bland)
        going = eligible[rows, entering] & ~reached
        if not going.all():
            verdicts[index[reached]] = True
            for k in np.flatnonzero(~going & ~reached):
                verdicts[index[k]] = _optimum(xb[k], basis[k], cost, n_w)[1] <= tolerance
            tableau, basis, stalled = tableau[going], basis[going], stalled[going]
            entering, index, rows = entering[going], index[going], rows[: going.sum()]
            if not index.size:
                return verdicts
        column = np.matmul(tableau[:, :, :m], columns[entering, :, None])[:, :, 0]
        leaving = _batch_leaving(column, tableau[:, :, -1], basis)
        if (leaving < 0).any():
            raise RuntimeError("violation LP reported unbounded")
        pivot_row = tableau[rows, leaving] / column[rows, leaving, None]
        stalled = np.where(pivot_row[:, -1] <= _PIVOT_EPS, stalled + 1, 0)
        tableau -= column[:, :, None] * pivot_row[:, None]
        tableau[rows, leaving] = pivot_row
        basis[rows, leaving] = entering


def _pair_rows(pair_dists, n: int) -> np.ndarray:
    """The (n, 4) array lp_feasibility reads, from either of its input forms;
    two mapping keys for one pair are refused."""
    if isinstance(pair_dists, Mapping):
        keyed, listed = _rekey(pair_dists, _pair_key), []
        for i, j in cycle_pair_keys(n):
            if (i, j) not in keyed:
                raise ValueError(f"missing pair distribution for X{i}X{j}")
            dist = keyed[(i, j)]
            if isinstance(dist, OutcomeDistribution) and dist.labels == _PAIR_LABELS:
                listed.append(dist.probs)  # as_dict() in label order, unparsed
                continue
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
    return _checked_rows(rows, rows.shape, n)


def _checked_rows(rows: np.ndarray, shape: tuple, n: int) -> np.ndarray:
    """`rows`, whose pair-row blocks have `shape`, once that is (n, 4) and
    every value is finite and non-negative."""
    if shape != (n, 4):
        raise ValueError(f"pair rows have shape {shape}, not ({n}, 4)")
    if not (np.isfinite(rows) & (rows >= 0.0)).all():
        raise ValueError(
            f"pair rows of shape {shape} hold a negative or non-finite value"
        )
    return rows


@lru_cache(maxsize=None)
def _pair_constraints(n: int) -> np.ndarray:
    """Read-only (4n + 1, 2^n) 0/1 rows: pair outcomes, then normalization."""
    if n < 3:
        raise ValueError("cycle needs at least 3 observables")
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


def _checked_tolerance(tolerance):
    if not (_is_real(tolerance) and 0.0 <= tolerance < np.inf):  # also false for nan
        raise ValueError(f"tolerance must be a finite number >= 0, not {tolerance!r}")
    return tolerance


def lp_feasibility(
    pair_dists, n: int, tolerance: float = 1e-9
) -> FeasibilityResult:
    """Does a mixture of assignments reproduce all adjacent-pair marginals?

    Marginal matching is folded into the objective (minimum total absolute
    violation); feasible means that minimum is at most `tolerance`: loose for
    inconsistent-but-close sampled marginals, 1e-9 for exact inputs, and under
    about 1e-12 decided by rounding (exact data can reach an optimum of 1e-16).
    Inconsistencies between contexts (for example two pairs implying different
    singles) surface as infeasibility, never as an exception.

    `pair_dists` is an (n, 4) array of coarse pair rows, in cycle order
    (1, 2), ..., (n, 1) and columns (+,+), (+,-), (-,+), (-,-), or a mapping
    from pair keys (i, j) or "i-j" to coarse pair distributions or mappings.
    """
    a0, tolerance = _pair_constraints(n), _checked_tolerance(tolerance)
    b = np.append(_pair_rows(pair_dists, n), 1.0)
    w, total = _simplex_min_violation(a0, b)
    max_violation = float(np.abs(a0 @ w - b).max())
    feasible = bool(total <= tolerance)
    witness = None
    if feasible:  # _optimum's weights are clipped at 0
        norm = w.sum()
        witness = NCModel(w / norm) if norm > 0 else NCModel.uniform(n)
    return FeasibilityResult(feasible, witness, max_violation, total)


def _feasible_rows(rows, n: int, tolerance: float) -> list[bool]:
    """lp_feasibility(block, n, tolerance).feasible, a Python bool, for each
    (n, 4) block of a (B, n, 4) array, with the same checks; solved in
    lock-step chunks of _BATCH_ROWS rows."""
    rows = np.asarray(rows, dtype=float)
    a0, tolerance = _pair_constraints(n), _checked_tolerance(tolerance)
    _checked_rows(rows, rows.shape[1:], n)
    b = np.hstack([rows.reshape(len(rows), 4 * n), np.ones((len(rows), 1))])
    chunks = np.split(b, range(_BATCH_ROWS, len(b), _BATCH_ROWS))
    verdicts = [_simplex_min_violation_batch(a0, chunk, tolerance) for chunk in chunks]
    return np.concatenate(verdicts).tolist()
