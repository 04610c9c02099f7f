import functools
import itertools
import json

import numpy as np
import pytest

from entroctx import ncmodels
from entroctx.contexts import (
    OutcomeDistribution,
    coarse_labels,
    coarsen,
    joint_distribution_fine,
)
from entroctx.entropy import (
    cycle_pair_keys,
    cycle_single_keys,
    evaluate_m_cycle,
    shannon_entropy,
)
from entroctx.ncmodels import (
    MAX_OBSERVABLES,
    NCModel,
    lp_feasibility,
    m_of_model,
    m_of_models_batch,
    model_marginals,
    value_matrix,
)
from entroctx.pipeline import (
    cycle_contexts,
    lp_tolerance_for,
    preset_config,
    resolve_observables,
    run_experiment,
)
from entroctx.sampling import NoiseModel, apply_noise
from entroctx.statevec import prepare_state

RNG = np.random.default_rng(20260825)


def assignments(n):
    """All +/-1 value tuples in canonical order: binary counting, +1 first."""
    return list(itertools.product((1, -1), repeat=n))


def test_enumeration_counts_and_order():
    assert value_matrix(1).tolist() == [[1], [-1]]
    assert value_matrix(2).tolist() == [[1, 1], [1, -1], [-1, 1], [-1, -1]]
    assert value_matrix(5).shape == (32, 5)


def test_value_matrix_matches_enumeration():
    values = value_matrix(5)
    listed = np.array(assignments(5))
    assert np.array_equal(values, listed)


def test_assignment_validation():
    for values in ((1, 0, -1), ()):
        with pytest.raises(ValueError, match=r"assignment values must be \+1 or -1"):
            NCModel.point(values)
    # (+1, -1, +1) is binary 010 in the canonical order
    assert np.array_equal(NCModel.point((1, -1, 1)).weights, np.eye(8)[2])


def test_model_validation():
    with pytest.raises(ValueError):
        NCModel(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        NCModel(np.array([1.5, -0.5]))
    assert NCModel.uniform(5).n == 5


def test_point_model_marginals_deterministic():
    values = assignments(5)[7]
    marg = model_marginals(NCModel.point(values))
    for i, dist in marg.singles.items():
        assert dist.as_dict()[(values[i - 1],)] == pytest.approx(1.0)
    for (i, j), dist in marg.pairs.items():
        key = (values[i - 1], values[j - 1])
        assert dist.as_dict()[key] == pytest.approx(1.0)


def test_uniform_model_marginals_uniform():
    marg = model_marginals(NCModel.uniform(5))
    for dist in marg.singles.values():
        assert np.allclose(dist.probs, 0.5, atol=1e-15)
    for dist in marg.pairs.values():
        assert np.allclose(dist.probs, 0.25, atol=1e-15)


def test_ghz_style_mixture_marginals():
    # 50/50 mixture of all-plus and all-minus assignments
    w = np.zeros(32)
    w[0] = w[31] = 0.5
    marg = model_marginals(NCModel(w))
    for dist in marg.pairs.values():
        table = dist.as_dict()
        assert table[(+1, +1)] == pytest.approx(0.5)
        assert table[(-1, -1)] == pytest.approx(0.5)
        assert table[(+1, -1)] == pytest.approx(0.0)


def test_deterministic_assignments_give_exactly_zero():
    for values in assignments(5):
        assert m_of_model(NCModel.point(values)) == 0.0


def test_uniform_model_value():
    # every pair uniform over 4 (2 bits), every single 1 bit:
    # M = 2 - 4*2 + 3*1 = -3
    assert m_of_model(NCModel.uniform(5)) == pytest.approx(-3.0, abs=1e-12)


def test_random_mixtures_never_positive():
    weights = RNG.dirichlet(np.ones(32), size=2000)
    batch = m_of_models_batch(weights, 5)
    assert batch.max() <= 1e-9
    # scalar path agrees with the vectorized one
    for row in range(0, 2000, 400):
        scalar = m_of_model(NCModel(weights[row]))
        assert batch[row] == pytest.approx(scalar, abs=1e-12)


def test_batch_shape_validation():
    with pytest.raises(ValueError):
        m_of_models_batch(np.ones((4, 31)) / 31, 5)


def test_lp_recovers_model_marginals():
    for _ in range(25):
        model = NCModel(RNG.dirichlet(np.ones(32)))
        marg = model_marginals(model)
        result = lp_feasibility(marg.pairs, 5)
        assert result.feasible
        assert result.max_constraint_violation <= 1e-9
        witness_marg = model_marginals(result.witness)
        for key, dist in marg.pairs.items():
            assert np.allclose(
                witness_marg.pairs[key].probs, dist.probs, atol=1e-9
            )


def test_lp_feasible_for_ideal_preset():
    result = run_experiment(preset_config("s1", convention="coarse"))
    assert result.feasibility.feasible is True
    assert result.feasibility.max_constraint_violation <= 1e-9
    rows = np.array([result.coarse_pairs[key].probs for key in cycle_pair_keys(5)])
    # a numpy tolerance still gives a bool verdict, which JSON can write
    lp = lp_feasibility(rows, 5, np.float64(1e-9))
    assert lp.feasible is True
    assert json.dumps(lp.feasible) == "true"
    assert lp_feasibility(rows, 5, np.array(1e-9)).feasible is True  # 0-d array
    # a string or a bool is refused by name, not compared or cast
    for bad in (-1e-9, np.nan, np.inf, "1e-9", None, True, [1e-9], np.array([1e-9])):
        for solve in (lp_feasibility, ncmodels._feasible_rows):
            block = rows if solve is lp_feasibility else np.stack([rows, rows])
            with pytest.raises(ValueError, match="tolerance must be a finite number"):
                solve(block, 5, bad)


def test_lp_rejects_inconsistent_singles_as_infeasible():
    # pair (1,2) says X2 is always +1; pair (2,3) says X2 is always -1
    labels = coarse_labels(2)
    from entroctx.contexts import OutcomeDistribution

    def point(pair_value):
        probs = [1.0 if lb == pair_value else 0.0 for lb in labels]
        return OutcomeDistribution(labels, np.array(probs))

    pairs = {
        (1, 2): point((+1, +1)),
        (2, 3): point((-1, -1)),
        (3, 4): point((-1, +1)),
        (4, 5): point((+1, +1)),
        (5, 1): point((+1, +1)),
    }
    result = lp_feasibility(pairs, 5)
    assert not result.feasible
    assert result.max_constraint_violation > 0.1
    assert result.witness is None


def test_lp_missing_pair_named():
    marg = model_marginals(NCModel.uniform(5))
    pairs = dict(marg.pairs)
    del pairs[(3, 4)]
    with pytest.raises(ValueError, match="X3X4"):
        lp_feasibility(pairs, 5)


def test_lp_accepts_string_keys():
    marg = model_marginals(NCModel.uniform(5))
    pairs = {f"{i}-{j}": d for (i, j), d in marg.pairs.items()}
    assert lp_feasibility(pairs, 5).feasible


@pytest.mark.parametrize(
    "bad", ("12", "1-2-3", "a-b", 12), ids=("no-dash", "three-parts", "letters", "int")
)
def test_lp_names_a_malformed_pair_key(bad):
    pairs = dict(model_marginals(NCModel.uniform(5)).pairs)
    pairs[bad] = pairs[(1, 2)]
    with pytest.raises(ValueError) as caught:
        lp_feasibility(pairs, 5)
    assert str(caught.value) == f'bad pair key {bad!r}; use (i, j) or "i-j"'


@pytest.mark.parametrize("bad", ((1.7, 2), (1, 2.0)), ids=("float", "float-second"))
def test_lp_refuses_a_non_integer_pair_key(bad):
    # the pair keyed (1.7, 2) used to be read as pair (1, 2)
    pairs = dict(model_marginals(NCModel.uniform(5)).pairs)
    pairs[bad] = pairs.pop((1, 2))
    with pytest.raises(ValueError) as caught:
        lp_feasibility(pairs, 5)
    assert str(caught.value) == f'bad pair key {bad!r}; use (i, j) or "i-j"'


def test_lp_accepts_plain_mappings():
    marg = model_marginals(NCModel.uniform(5))
    pairs = {key: dict(d.as_dict()) for key, d in marg.pairs.items()}
    result = lp_feasibility(pairs, 5)
    assert result.feasible
    assert result.max_constraint_violation <= 1e-9


def test_lp_verdict_independent_of_input_order():
    model = NCModel(RNG.dirichlet(np.ones(32)))
    marg = model_marginals(model)
    forward = lp_feasibility(dict(marg.pairs), 5)
    reversed_pairs = dict(reversed(list(marg.pairs.items())))
    backward = lp_feasibility(reversed_pairs, 5)
    assert forward.feasible == backward.feasible
    assert np.allclose(
        forward.witness.weights, backward.witness.weights, atol=1e-12
    )


def test_positive_m_sets_are_infeasible():
    # deterministic chain pairs with a uniform wraparound pair: M = +2
    from entroctx.contexts import OutcomeDistribution

    labels = coarse_labels(2)
    point = OutcomeDistribution(
        labels, np.array([1.0, 0.0, 0.0, 0.0])
    )
    uniform = OutcomeDistribution(labels, np.full(4, 0.25))
    pairs = {key: point for key in cycle_pair_keys(5)}
    pairs[(5, 1)] = uniform
    h_pairs = {k: shannon_entropy(d) for k, d in pairs.items()}
    # each single read off the pair in which it comes first
    h_singles = {
        i: shannon_entropy(pairs[(i, i + 1)].probs.reshape(2, 2).sum(axis=1))
        for i in cycle_single_keys(5)
    }
    m = evaluate_m_cycle(h_pairs, h_singles, 5)
    assert m == pytest.approx(2.0, abs=1e-12)
    assert not lp_feasibility(pairs, 5).feasible


def test_lp_size_limit_checked_before_building(monkeypatch):
    def fail(n):
        raise AssertionError("constraint matrix built for an oversized cycle")

    monkeypatch.setattr(ncmodels, "value_matrix", fail)
    with pytest.raises(ValueError, match="too large"):
        lp_feasibility({}, MAX_OBSERVABLES + 1)


def test_lp_rejects_cycles_shorter_than_three():
    for n in (0, 1, 2):
        with pytest.raises(ValueError, match="cycle needs at least 3 observables"):
            lp_feasibility({}, n)
    with pytest.raises(ValueError, match="cycle needs at least 3 observables"):
        lp_feasibility(np.full((2, 4), 0.25), 2)


def each_solve(rows):
    """lp_feasibility on (n, 4) rows, and the batch helper on a stack of
    three blocks whose middle one is those rows."""
    good = np.full(rows.shape, 0.25)
    yield lambda n: lp_feasibility(rows, n)
    yield lambda n: ncmodels._feasible_rows(np.stack([good, rows, good]), n, 1e-9)


def test_lp_rejects_pair_rows_of_the_wrong_shape():
    for shape in ((5, 3), (4, 4), (6, 4), (20,), (1, 5, 4)):
        for solve in each_solve(np.full(shape, 0.25)):
            with pytest.raises(ValueError, match=rf"shape \({shape[0]},"):
                solve(5)


def test_lp_rejects_non_finite_pair_rows():
    for bad in (np.nan, np.inf, -np.inf):
        rows = np.full((5, 4), 0.25)
        rows[2, 1] = bad
        for solve in each_solve(rows):
            with pytest.raises(ValueError, match=r"shape \(5, 4\) hold .*non-finite"):
                solve(5)


def test_lp_rejects_negative_pair_rows():
    # the simplex starts from the basis u = b, which needs b >= 0
    rows = np.full((5, 4), 0.25)
    rows[0] = [-0.1, 0.6, 0.25, 0.25]
    for solve in each_solve(rows):
        with pytest.raises(ValueError, match=r"shape \(5, 4\) hold a negative"):
            solve(5)


def reference_ratio_test(column, rhs, basis):
    """Bland's ratio test with epsilon ties, written out."""
    eps = ncmodels._PIVOT_EPS
    leaving = -1
    best_ratio = np.inf
    for i in range(len(column)):
        if column[i] > eps:
            ratio = rhs[i] / column[i]
            if ratio < best_ratio - eps or (
                abs(ratio - best_ratio) <= eps
                and (leaving < 0 or basis[i] < basis[leaving])
            ):
                best_ratio = ratio
                leaving = i
    if leaving < 0:
        raise RuntimeError("violation LP reported unbounded")
    return leaving


def reference_first_eligible(reduced):
    for j in range(reduced.size):
        if reduced[j] < -ncmodels._PIVOT_EPS:
            return j
    return -1


def reference_simplex_min_violation(a0, b):
    """The loop-based dense tableau simplex: weights, total and the basis at
    the start and after each pivot."""
    m, n_w = a0.shape
    full = np.hstack([a0, np.eye(m), -np.eye(m)])
    cost = np.concatenate([np.zeros(n_w), np.ones(2 * m)])
    tableau = np.hstack([full, b.reshape(-1, 1)])
    basis = list(range(n_w, n_w + m))  # u_i = b_i >= 0 is a valid start
    bases = [tuple(basis)]
    n_cols = full.shape[1]
    while True:
        reduced = cost - cost[basis] @ tableau[:, :n_cols]
        entering = reference_first_eligible(reduced)
        if entering < 0:
            break
        leaving = reference_ratio_test(tableau[:, entering], tableau[:, -1], basis)
        tableau[leaving] /= tableau[leaving, entering]
        for i in range(m):
            if i != leaving:
                tableau[i] -= tableau[i, entering] * tableau[leaving]
        basis[leaving] = entering
        bases.append(tuple(basis))
    solution = np.zeros(n_cols)
    solution[basis] = np.clip(tableau[:, -1], 0.0, None)
    return solution[:n_w], float(cost @ solution), bases


def reference_most_negative(reduced):
    """The most negative reduced cost under -eps, the lowest index on ties."""
    entering, best = -1, -ncmodels._PIVOT_EPS
    for j in range(reduced.size):
        if reduced[j] < best:
            entering, best = j, reduced[j]
    return entering


def reference_revised_simplex(a0, b):
    """The loop-based revised simplex the vectorized one must match bit for
    bit: [binv | xb] eliminated row by row, columns priced from
    y = cost[basis] @ binv in the order w, u, v. The most negative reduced
    cost enters; after m degenerate pivots in a row (step <= eps) the lowest
    eligible index does, until a step moves. Also returns how many pivots
    that fallback made on another column than the most negative."""
    m, n_w = a0.shape
    cost = np.concatenate([np.zeros(n_w), np.ones(2 * m)])
    tableau = np.hstack([np.eye(m), b.reshape(-1, 1)])
    binv = tableau[:, :m]
    basis = list(range(n_w, n_w + m))
    bases = [tuple(basis)]
    stalled = fallbacks = 0
    while True:
        y = cost[basis] @ binv
        reduced = np.concatenate([0.0 - y @ a0, 1.0 - y, 1.0 - (-y)])
        if stalled < m:
            entering = reference_most_negative(reduced)
        else:
            entering = reference_first_eligible(reduced)
            fallbacks += entering != reference_most_negative(reduced)
        if entering < 0:
            break
        if entering < n_w:
            column = binv @ a0[:, entering]
        elif entering < n_w + m:
            column = binv[:, entering - n_w].copy()
        else:
            column = -binv[:, entering - n_w - m]
        leaving = reference_ratio_test(column, tableau[:, -1], basis)
        pivot_row = tableau[leaving] / column[leaving]
        stalled = stalled + 1 if pivot_row[-1] <= ncmodels._PIVOT_EPS else 0
        for i in range(m):
            if i != leaving:
                tableau[i] -= column[i] * pivot_row
        tableau[leaving] = pivot_row
        basis[leaving] = entering
        bases.append(tuple(basis))
    solution = np.zeros(cost.size)
    solution[basis] = np.clip(tableau[:, -1], 0.0, None)
    return solution[:n_w], float(cost @ solution), bases, fallbacks


def traced_simplex(monkeypatch, a0, b):
    """ncmodels._simplex_min_violation's weights and total, and the basis it
    held at each ratio test and at its optimum."""
    bases = []
    bland, optimum = ncmodels._bland_leaving, ncmodels._optimum

    def spy_bland(column, rhs, basis):
        bases.append(tuple(basis))
        return bland(column, rhs, basis)

    def spy_optimum(rhs, basis, cost, n_w):
        bases.append(tuple(basis))
        return optimum(rhs, basis, cost, n_w)

    with monkeypatch.context() as patch:
        patch.setattr(ncmodels, "_bland_leaving", spy_bland)
        patch.setattr(ncmodels, "_optimum", spy_optimum)
        weights, total = ncmodels._simplex_min_violation(a0, b)
    return weights, total, bases


def pair_indicators(n):
    """(4n, 2^n) rows: assignment k gives pair (i, i+1) the outcome (a, b)."""
    values = value_matrix(n)
    return np.array(
        [
            (values[:, i - 1] == a) & (values[:, j - 1] == b)
            for i, j in cycle_pair_keys(n)
            for a, b in coarse_labels(2)
        ],
        dtype=float,
    )


def odd_signs(n, rng):
    gamma = np.ones(n)
    flips = rng.choice(n, size=2 * int(rng.integers((n + 1) // 2)) + 1, replace=False)
    gamma[flips] = -1.0
    return gamma


def odd_cycle_pairs(n, rng, c):
    """Unbiased singles, correlators gamma_i * c with an odd number of -1s."""
    ab = np.array([1.0, -1.0, -1.0, 1.0])
    return np.concatenate([(1.0 + ab * g * c) / 4.0 for g in odd_signs(n, rng)])


def sampled_pairs(true, rng, shots=8192):
    """Multinomial pair marginals within the LP's sampled-data tolerance."""
    tol = lp_tolerance_for(true.size // 4, shots)
    while True:
        drawn = np.concatenate(
            [
                rng.multinomial(shots, true[r : r + 4] / true[r : r + 4].sum())
                for r in range(0, true.size, 4)
            ]
        ) / shots
        if np.abs(drawn - true).sum() <= tol:
            return drawn


def crushed_preset_pairs(family, rng):
    """Readout-crushed preset contexts with a depolarized closing pair."""
    config = preset_config(family)
    state = prepare_state(config.state)
    observables = resolve_observables(config.observable_set)
    q = rng.uniform(0.0, 0.3)
    crush = NoiseModel(readout_flip=((1.0, 0.0), (1.0 - q, q)))
    wrap = NoiseModel(depolarizing_epsilon=rng.uniform(0.6, 1.0))
    probs = []
    for kind, key, ctx in cycle_contexts(observables, "fine"):
        if kind == "pair":
            noise = wrap if key == (5, 1) else crush
            fine = apply_noise(joint_distribution_fine(state, ctx), noise)
            probs.append(coarsen(fine, ctx).probs)
    return np.concatenate(probs)


def disagreeing_pairs(n, rng):
    """Model marginals with mass moved inside one pair, so that its second
    single disagrees with the one the next pair implies."""
    p = pair_indicators(n) @ rng.dirichlet(np.ones(2**n))
    r = 4 * int(rng.integers(n))
    src = r + (1 if p[r + 1] >= p[r + 3] else 3)
    delta = 0.5 * p[src]
    p[src] -= delta
    p[src - 1] += delta
    return p


def pivot_instances(n, rng):
    """Marginal vectors from each oracle construction plus tie-heavy cases."""
    ind = pair_indicators(n)
    yield "dirichlet", ind @ rng.dirichlet(np.ones(2**n))
    yield "sampled", sampled_pairs(ind @ rng.dirichlet(np.ones(2**n)), rng)
    if n == 5:
        for family in ("s1", "s2"):
            yield "crushed", crushed_preset_pairs(family, rng)
    yield "odd_cycle", odd_cycle_pairs(n, rng, rng.uniform(0.8, 1.0))
    yield "disagree", disagreeing_pairs(n, rng)
    yield "point", ind[:, int(rng.integers(2**n))]
    yield "uniform", ind @ NCModel.uniform(n).weights
    yield "odd_cycle_c1", odd_cycle_pairs(n, rng, 1.0)
    yield "three_points", ind[:, rng.choice(2**n, 3, replace=False)].mean(axis=1)


@functools.lru_cache(maxsize=None)
def dense_solved_instances(n):
    """(kind, b, dense reference result) for each pivot instance at n."""
    a0 = np.vstack([pair_indicators(n), np.ones(2**n)])
    rng = np.random.default_rng([20260825, n])
    solved = []
    for _ in range(3 if n <= 7 else 1):
        for kind, p in pivot_instances(n, rng):
            b = np.append(p, 1.0)
            solved.append((kind, b, reference_simplex_min_violation(a0, b)))
    return a0, solved


@pytest.mark.parametrize("n", range(3, 10))
def test_simplex_pivots_match_loop_reference(n, monkeypatch):
    a0, solved = dense_solved_instances(n)
    assert np.array_equal(ncmodels._pair_constraints(n), a0)
    rhs, totals = [], []
    for kind, b, _ in solved:
        weights, total, bases = traced_simplex(monkeypatch, a0, b)
        ref_weights, ref_total, ref_bases, _ = reference_revised_simplex(a0, b)
        assert bases == ref_bases, kind
        assert np.array_equal(weights, ref_weights), kind
        assert total == ref_total, kind
        rhs.append(b)
        totals.append(total)
    # every instance in one lock-step batch gives _simplex_min_violation's
    # verdict, whose pivots and arithmetic the batch keeps, at fixed
    # tolerances and at tolerances one ulp and 1e-9 either side of an
    # optimum, so some rows sit just above and some just below it
    optima = sorted(set(totals) - {0.0})[:: 1 if n <= 7 else 3]
    assert optima
    tolerances = [0.0, 1e-12, 1e-9, 1e-6, 0.05, 0.232]
    for total in optima:
        tolerances += [total, np.nextafter(total, 0.0), np.nextafter(total, 1.0)]
        tolerances += [total * (1 - 1e-9), total * (1 + 1e-9)]
    for tolerance in tolerances:
        got = ncmodels._simplex_min_violation_batch(a0, np.array(rhs), tolerance)
        assert got.tolist() == [total <= tolerance for total in totals], tolerance


@pytest.mark.parametrize("n", range(3, 10))
def test_revised_simplex_takes_the_dense_reference_pivots(n, monkeypatch):
    # the entering rules differ (most negative reduced cost against the
    # lowest eligible index), so the two solves take other pivots and may end
    # on another vertex of a degenerate optimum; the optimum and the verdict
    # are the same
    a0, solved = dense_solved_instances(n)
    for kind, b, (_, ref_total, _) in solved:
        _, total = ncmodels._simplex_min_violation(a0, b)
        assert abs(total - ref_total) <= 1e-12, kind
        for tolerance in (1e-9, lp_tolerance_for(n, 8192)):
            result = lp_feasibility(b[:-1].reshape(n, 4), n, tolerance)
            assert result.feasible == (ref_total <= tolerance), (kind, tolerance)


def test_degenerate_solves_fall_back_to_bland_and_reach_the_optimum(monkeypatch):
    # point models, the uniform model, odd cycles of correlator 1 and
    # mixtures of three points stall on degenerate pivots; the mixtures at
    # n = 8 and 9 stall m times in a row, and the lowest eligible index then
    # enters where it is not the most negative
    fallbacks = 0
    for n in range(3, 10):
        a0, solved = dense_solved_instances(n)
        for kind, b, (_, dense_total, _) in solved:
            if kind not in ("point", "uniform", "odd_cycle_c1", "three_points"):
                continue
            _, total, bases = traced_simplex(monkeypatch, a0, b)
            _, ref_total, ref_bases, ref_fallbacks = reference_revised_simplex(a0, b)
            assert bases == ref_bases and total == ref_total, (n, kind)
            assert abs(total - dense_total) <= 1e-12, (n, kind)
            fallbacks += ref_fallbacks
    assert fallbacks > 0


def test_lp_solves_an_eleven_cycle_model_in_few_pivots(monkeypatch):
    # 49 pivots; the lowest-eligible-index rule takes 691 here
    rng = np.random.default_rng(20261021)
    b = np.append(pair_indicators(11) @ rng.dirichlet(np.ones(2**11)), 1.0)
    _, total, bases = traced_simplex(monkeypatch, ncmodels._pair_constraints(11), b)
    assert total <= 1e-9
    assert len(bases) - 1 < 200


def assert_lp_solves_a_random_model_to_its_marginals(n, seed):
    rng = np.random.default_rng(seed)
    model = NCModel(rng.dirichlet(np.ones(2**n)))
    pairs = model_marginals(model).pairs
    result = lp_feasibility(pairs, n)
    assert result.feasible
    assert result.total_violation <= 1e-9
    assert result.max_constraint_violation <= 1e-9
    witness = model_marginals(result.witness).pairs
    residual = max(np.abs(witness[key].probs - pairs[key].probs).max() for key in pairs)
    assert residual <= 1e-9


def test_lp_solves_an_eleven_cycle_model_to_its_marginals():
    assert_lp_solves_a_random_model_to_its_marginals(11, 20261020)


def test_lp_solves_a_model_at_the_observable_limit():
    assert_lp_solves_a_random_model_to_its_marginals(MAX_OBSERVABLES, 20261022)


def test_batch_ratio_test_matches_the_sequential_one(monkeypatch):
    # ratios tied exactly, spread inside and outside the eps / 2 the array
    # form decides on, at large magnitude, and a row with no candidate
    eps = ncmodels._PIVOT_EPS
    rng = np.random.default_rng(20260828)
    columns, rhs, bases = [], [], []
    for base in (0.0, 0.25, 3e12):
        for gap in (0.0, 0.3 * eps, 0.5 * eps, 0.9 * eps, 1.5 * eps, 3.9 * eps, 1e-6):
            for _ in range(12):
                column = rng.choice([0.0, -1.0, 0.5 * eps, 0.5, 1.0, 3.0], 9)
                ratio = base + gap * rng.integers(0, 3, 9) + rng.choice([0.0, 0.4], 9)
                columns.append(column)
                rhs.append(ratio * column)
                bases.append(rng.permutation(60)[:9])
    columns.append(np.zeros(9))
    rhs.append(np.ones(9))
    bases.append(np.arange(9))
    sequential = ncmodels._bland_leaving
    expected = [
        sequential(c.tolist(), r.tolist(), b.tolist())
        for c, r, b in zip(columns, rhs, bases)
    ]
    scanned = []
    monkeypatch.setattr(
        ncmodels, "_bland_leaving", lambda *args: scanned.append(1) or sequential(*args)
    )
    got = ncmodels._batch_leaving(np.array(columns), np.array(rhs), np.array(bases))
    assert got.tolist() == expected
    assert -1 in expected
    assert 0 < len(scanned) < len(expected)


def test_lp_agrees_with_closed_form_cycle_facets():
    # For no-disturbance data the n-cycle polytope's nontrivial facets are
    # sum_i gamma_i E_i <= n - 2 over signs gamma with an odd number of -1s
    # (Araujo et al., PRA 88, 022118 (2013)).
    rng = np.random.default_rng(20260826)
    ab = np.array([1.0, -1.0, -1.0, 1.0])
    a_sign = np.array([1.0, 1.0, -1.0, -1.0])
    b_sign = np.array([1.0, -1.0, 1.0, -1.0])
    for n in range(3, 12):
        signs = value_matrix(n)
        odd = signs[(signs < 0).sum(axis=1) % 2 == 1]
        verdicts = set()
        for k in range(24 if n <= 7 else 8 if n <= 9 else 4):
            if k % 2 == 0:
                # anywhere in the pair polytopes: mostly feasible
                m = rng.uniform(-0.3, 0.3, n)
                mi, mj = m, np.roll(m, -1)
                corr = rng.uniform(-1.0 + np.abs(mi + mj), 1.0 - np.abs(mi - mj))
            else:
                # odd cycles 1e-5 to 1e-2 inside or outside their facet
                m = rng.uniform(-0.03, 0.03, n)
                mi, mj = m, np.roll(m, -1)
                gap = (-1) ** (k // 2) * 10 ** rng.uniform(-5, -2)
                jitter = rng.uniform(-0.05, 0.05, n)
                c = (n - 2 + gap) / n + jitter - jitter.mean()
                corr = odd_signs(n, rng) * c
            facet = float((odd @ corr).max())
            if abs(facet - (n - 2)) <= 1e-6:
                continue
            pairs = {
                key: OutcomeDistribution(
                    coarse_labels(2),
                    (1.0 + a_sign * mi[i] + b_sign * mj[i] + ab * corr[i]) / 4.0,
                )
                for i, key in enumerate(cycle_pair_keys(n))
            }
            feasible = lp_feasibility(pairs, n).feasible
            assert feasible == (facet <= n - 2), (n, k, facet)
            verdicts.add(feasible)
        assert verdicts == {True, False}, n


def assert_input_forms_agree(rows, n, tolerance, mapping=None):
    """lp_feasibility on (n, 4) rows and on the same rows keyed by pair."""
    if mapping is None:
        mapping = {
            key: OutcomeDistribution(coarse_labels(2), row)
            for key, row in zip(cycle_pair_keys(n), rows)
        }
    by_rows = lp_feasibility(rows, n, tolerance)
    by_mapping = lp_feasibility(mapping, n, tolerance)
    assert by_rows.feasible == by_mapping.feasible
    assert by_rows.total_violation == by_mapping.total_violation
    assert by_rows.max_constraint_violation == by_mapping.max_constraint_violation
    if by_rows.witness is None:
        assert by_mapping.witness is None
    else:
        assert np.array_equal(by_rows.witness.weights, by_mapping.witness.weights)
    return by_rows


def test_lp_array_and_mapping_forms_agree_bit_for_bit():
    keys5 = cycle_pair_keys(5)
    for family, convention, shots in itertools.product(
        ("s1", "s2"), ("coarse", "fine"), ("exact", 8192)
    ):
        run = run_experiment(preset_config(family, convention=convention, shots=shots))
        rows = np.array([run.coarse_pairs[key].probs for key in keys5])
        result = assert_input_forms_agree(
            rows, 5, lp_tolerance_for(5, shots), run.coarse_pairs
        )
        assert result.total_violation == run.feasibility.total_violation
    rng = np.random.default_rng(20260827)
    verdicts = set()
    for n in range(3, 10):
        pairs = model_marginals(NCModel(rng.dirichlet(np.ones(2**n)))).pairs
        rows = np.array([pairs[key].probs for key in cycle_pair_keys(n)])
        assert_input_forms_agree(rows, n, 1e-9, pairs)
        plain = {f"{i}-{j}": d.as_dict() for (i, j), d in pairs.items()}
        assert_input_forms_agree(rows, n, 1e-9, plain)
        for p in (
            disagreeing_pairs(n, rng),
            odd_cycle_pairs(n, rng, rng.uniform(0.8, 1.0)),
        ):
            verdicts.add(assert_input_forms_agree(p.reshape(n, 4), n, 1e-9).feasible)
    for family in ("s1", "s2"):
        p = crushed_preset_pairs(family, rng)
        verdicts.add(assert_input_forms_agree(p.reshape(5, 4), 5, 1e-9).feasible)
    assert verdicts == {False}
