import numpy as np
import pytest

from entroctx.contexts import (
    OutcomeDistribution,
    joint_distribution_coarse,
    joint_distribution_fine,
)
from entroctx.entropy import entropies_from_counts, shannon_entropy
from entroctx.pipeline import cycle_contexts, resolve_observables
from entroctx.refdata import REFERENCE_RUNS
from entroctx.reports import counts_from_dict
from entroctx.sampling import (
    CountsRecord,
    _entropy_mismatch,
    NoiseModel,
    apply_noise,
    fit_depolarizing,
    sample_counts,
)
from entroctx.statevec import PRESET_S1, PRESET_S2, StatePrepSpec, prepare_state

RNG = np.random.default_rng(20260825)


def bit_dist(probs) -> OutcomeDistribution:
    n = int(np.log2(len(probs)))
    labels = tuple(format(k, f"0{n}b") for k in range(len(probs)))
    return OutcomeDistribution(labels, np.asarray(probs, dtype=float))


def test_counts_record_validation():
    with pytest.raises(ValueError):
        CountsRecord(10, {"00": 6, "11": 5})
    with pytest.raises(ValueError):
        CountsRecord(0, {})
    with pytest.raises(ValueError):
        CountsRecord(1, {"00": -1, "11": 2})


@pytest.mark.parametrize(
    "data, message",
    [
        ({"shots": 10.9, "counts": {"00": 5, "11": 5}}, "shots must be an integer >= 1, not 10.9"),
        ({"shots": 10, "counts": {"00": 5.9, "11": 4.1}},
         "count of '00' must be an integer >= 0, not 5.9"),
        ({"shots": 1, "counts": {"00": True}}, "count of '00' must be an integer >= 0, not True"),
        ({"shots": 10, "counts": {"00": "10"}}, "count of '00' must be an integer >= 0, not '10'"),
    ],
    ids=("float-shots", "float-count", "bool-count", "string-count"),
)
def test_counts_files_refuse_what_is_not_a_whole_count(data, message):
    # 10.9 shots with a count of 5.9 used to read as 10 and 5
    with pytest.raises(ValueError) as caught:
        counts_from_dict({"context": ["ZZ", "XX"], **data})
    assert str(caught.value) == message


def test_point_mass_sampling():
    record = sample_counts(bit_dist([1.0, 0.0]), 8192, seed=1)
    assert record.counts["0"] == 8192
    assert record.counts["1"] == 0


def test_sampling_deterministic_per_seed():
    dist = bit_dist([0.3, 0.2, 0.4, 0.1])
    a = sample_counts(dist, 4096, seed=42)
    b = sample_counts(dist, 4096, seed=42)
    c = sample_counts(dist, 4096, seed=43)
    assert a.counts == b.counts
    assert a.counts != c.counts


def test_sampling_within_binomial_band():
    # fair coin over 200 seeds: at least 195 within the 3-sigma band
    dist = bit_dist([0.5, 0.5])
    inside = 0
    band = 3 * 0.5 / np.sqrt(8192)
    for seed in range(200):
        record = sample_counts(dist, 8192, seed=seed)
        if abs(record.counts["0"] / 8192 - 0.5) <= band:
            inside += 1
    assert inside >= 195


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(depolarizing_epsilon=1.5)
    with pytest.raises(ValueError):
        NoiseModel(readout_flip=((0.9, 0.2), (0.1, 0.9)))


def test_noise_identity_cases():
    dist = bit_dist([0.4, 0.1, 0.3, 0.2])
    same = apply_noise(dist, NoiseModel())
    assert np.allclose(same.probs, dist.probs, atol=1e-15)
    uniform = apply_noise(dist, NoiseModel(depolarizing_epsilon=1.0))
    assert np.allclose(uniform.probs, 0.25, atol=1e-12)


def test_depolarizing_point_mass_example():
    dist = bit_dist([1.0, 0.0, 0.0, 0.0])
    noisy = apply_noise(dist, NoiseModel(depolarizing_epsilon=0.5))
    assert np.allclose(noisy.probs, [0.625, 0.125, 0.125, 0.125], atol=1e-12)


def test_readout_flip_acts_per_qubit():
    flip = ((0.9, 0.1), (0.2, 0.8))
    dist = bit_dist([1.0, 0.0, 0.0, 0.0])
    noisy = apply_noise(dist, NoiseModel(readout_flip=flip)).as_dict()
    assert noisy["00"] == pytest.approx(0.81, abs=1e-12)
    assert noisy["01"] == pytest.approx(0.09, abs=1e-12)
    assert noisy["10"] == pytest.approx(0.09, abs=1e-12)
    assert noisy["11"] == pytest.approx(0.01, abs=1e-12)


def test_readout_flip_requires_bit_labels():
    coarse = OutcomeDistribution(((+1,), (-1,)), np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="bit-string"):
        apply_noise(coarse, NoiseModel(readout_flip=((1.0, 0.0), (0.5, 0.5))))


def test_noise_preserves_normalization_and_positivity():
    for _ in range(200):
        dist = bit_dist(RNG.dirichlet(np.ones(4)))
        noise = NoiseModel(
            depolarizing_epsilon=float(RNG.uniform()),
            readout_flip=tuple(
                tuple(row) for row in RNG.dirichlet(np.ones(2), size=2)
            ),
        )
        noisy = apply_noise(dist, noise)
        assert noisy.probs.min() >= 0.0
        assert noisy.probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_depolarizing_never_decreases_entropy():
    for _ in range(500):
        dist = bit_dist(RNG.dirichlet(np.ones(4)))
        eps = float(RNG.uniform())
        noisy = apply_noise(dist, NoiseModel(depolarizing_epsilon=eps))
        assert shannon_entropy(noisy) >= shannon_entropy(dist) - 1e-12


def test_fit_zero_when_target_is_ideal():
    dists = [bit_dist(RNG.dirichlet(np.ones(4))) for _ in range(4)]
    targets = [shannon_entropy(d) for d in dists]
    fit = fit_depolarizing(dists, targets)
    assert fit.epsilon == pytest.approx(0.0, abs=1e-4)
    # epsilon is located to ~1e-4, so the residual floor is quadratic in that
    assert fit.residual == pytest.approx(0.0, abs=1e-6)
    # both fields are Python floats, as DepolarizingFit declares
    assert type(fit.epsilon) is float and type(fit.residual) is float


def test_fit_one_when_target_is_maximal():
    dists = [bit_dist([0.9, 0.05, 0.03, 0.02]) for _ in range(3)]
    fit = fit_depolarizing(dists, [2.0, 2.0, 2.0])
    assert fit.epsilon == pytest.approx(1.0, abs=1e-4)


def test_fit_validation():
    with pytest.raises(ValueError):
        fit_depolarizing([], [])
    dists = [bit_dist([0.5, 0.5]), bit_dist([0.25, 0.25, 0.25, 0.25])]
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match=f"target entropy 1 is not finite: {bad}"):
            fit_depolarizing(dists, [1.0, bad])


def _reference_fit(name: str):
    from entroctx.contexts import joint_distribution_fine

    run = REFERENCE_RUNS[name]
    observables = resolve_observables(run.observable_set)
    state = prepare_state(run.state)
    dists, targets = [], []
    for kind, key, ctx in cycle_contexts(observables, "fine"):
        dists.append(joint_distribution_fine(state, ctx))
        targets.append(
            run.h_singles[key] if kind == "single" else run.h_pairs[key]
        )
    return fit_depolarizing(dists, targets)


def test_reference_fit_regression():
    # frozen at build time; a single depolarizing weight cannot reproduce
    # the measured tables, so the residual stays large and is reported
    fit_s1 = _reference_fit("s1")
    assert fit_s1.epsilon == pytest.approx(0.152021, abs=2e-4)
    assert fit_s1.residual == pytest.approx(0.876739, abs=1e-3)
    fit_s2 = _reference_fit("s2")
    assert fit_s2.epsilon == pytest.approx(0.058618, abs=2e-4)
    assert fit_s2.residual == pytest.approx(4.579364, abs=1e-3)


def _loop_fit(dists, targets):
    """The per-weight loop the vectorized fit replaced, kept as its reference:
    one noisy distribution and one entropy per weight and distribution."""

    def mismatch(eps):
        noise = NoiseModel(depolarizing_epsilon=eps)
        return sum(
            (shannon_entropy(apply_noise(d, noise)) - t) ** 2
            for d, t in zip(dists, targets)
        )

    grid = np.linspace(0.0, 1.0, 1001)
    center = int(np.argmin([mismatch(e) for e in grid]))
    a, b = grid[max(center - 1, 0)], grid[min(center + 1, len(grid) - 1)]
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
    fc, fd = mismatch(c), mismatch(d)
    while b - a > 1e-4:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = mismatch(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = mismatch(d)
    best = 0.5 * (a + b)
    return best, mismatch(best)


def _exact_dists(observable_set, spec, convention):
    joint = {"coarse": joint_distribution_coarse, "fine": joint_distribution_fine}
    state = prepare_state(spec)
    return [
        joint[convention](state, ctx)
        for _, _, ctx in cycle_contexts(resolve_observables(observable_set), convention)
    ]


CYCLE3 = (
    ("XXI", "YYZ", "ZZI"),
    StatePrepSpec("explicit", explicit_amplitudes=(0.5, 0.5, 0.5j, 0, 0.5, 0, 0, 0)),
)

# unsorted outcome counts 4, 2, 8, 2, 4 with zero entries: the fit stacks
# distributions of one size and must still add errors in this order
MIXED_SIZES = [
    bit_dist([0.47, 0.0, 0.31, 0.22]),
    bit_dist([0.0, 1.0]),
    bit_dist([0.13, 0.0, 0.21, 0.07, 0.0, 0.29, 0.17, 0.13]),
    bit_dist([0.71, 0.29]),
    bit_dist([0.19, 0.23, 0.41, 0.17]),
]

PRESET_FITS = [
    ("table1", PRESET_S1, "coarse"),
    ("table1", PRESET_S1, "fine"),
    ("table2", PRESET_S2, "coarse"),
    ("table2", PRESET_S2, "fine"),
]


def _assert_fit_matches_loop(dists, targets):
    fit = fit_depolarizing(dists, targets)
    eps, residual = _loop_fit(dists, targets)
    assert abs(fit.epsilon - eps) <= 1e-12
    assert abs(fit.residual - residual) <= 1e-12
    return fit


@pytest.mark.parametrize(
    "observable_set, spec, convention",
    [*PRESET_FITS, (*CYCLE3, "fine"), pytest.param(None, None, None, id="mixed-sizes")],
)
def test_vectorized_fit_matches_the_per_weight_loop(observable_set, spec, convention):
    if spec is None:
        dists = MIXED_SIZES
    else:
        dists = _exact_dists(observable_set, spec, convention)
    rng = np.random.default_rng(sum(map(ord, f"{observable_set}{convention}")))
    for eps in rng.uniform(0.0, 0.5, 2):
        noise = NoiseModel(depolarizing_epsilon=eps)
        targets = [
            shannon_entropy(apply_noise(d, noise)) + rng.normal(0.0, 0.02)
            for d in dists
        ]
        _assert_fit_matches_loop(dists, targets)


@pytest.mark.parametrize("observable_set, spec", [("table1", PRESET_S1), CYCLE3])
def test_vectorized_fit_matches_the_loop_at_zero_and_full_noise(observable_set, spec):
    # exact targets pull the fit to eps = 0, maximal entropies to eps = 1,
    # where zero probabilities meet 0 log 0 and the bracket sits on the edge
    dists = _exact_dists(observable_set, spec, "coarse")
    exact = [shannon_entropy(d) for d in dists]
    assert _assert_fit_matches_loop(dists, exact).epsilon < 1e-4
    maximal = [np.log2(len(d.labels)) for d in dists]
    assert _assert_fit_matches_loop(dists, maximal).epsilon > 1.0 - 1e-4


def _loop_mismatch(probs, targets, eps):
    """The per-distribution objective the size-stacked one replaced."""
    total = np.zeros(eps.shape)
    for p, target in zip(probs, targets):
        noisy = (1.0 - eps)[:, None] * p + (eps / p.size)[:, None]
        noisy /= noisy.sum(axis=1, keepdims=True)
        logs = np.log2(noisy, out=np.zeros_like(noisy), where=noisy > 0.0)
        total += (-(noisy * logs).sum(axis=1) - target) ** 2
    return total


@pytest.mark.parametrize(
    "observable_set, spec, convention",
    [*PRESET_FITS, pytest.param(None, None, None, id="mixed-sizes")],
)
def test_stacked_objective_equals_the_per_distribution_loop(
    observable_set, spec, convention
):
    # same arithmetic in the same order, so the grid scores are equal, not close
    if spec is None:
        probs, targets = [d.probs for d in MIXED_SIZES], [1.0, 0.5, 2.0, 0.9, 1.5]
    else:
        probs = [d.probs for d in _exact_dists(observable_set, spec, convention)]
        run = REFERENCE_RUNS["s1" if observable_set == "table1" else "s2"]
        contexts = cycle_contexts(resolve_observables(observable_set))
        targets = [
            run.h_singles[key] if kind == "single" else run.h_pairs[key]
            for kind, key, _ in contexts
        ]
    grid = np.linspace(0.0, 1.0, 1001)
    stacked = _entropy_mismatch(probs, targets, grid)
    assert np.array_equal(stacked, _loop_mismatch(probs, targets, grid))


def test_sampled_entropy_tracks_exact():
    dist = bit_dist([0.4, 0.3, 0.2, 0.1])
    exact = shannon_entropy(dist)
    errs = []
    for seed in range(50):
        record = sample_counts(dist, 8192, seed=seed)
        errs.append(abs(shannon_entropy(entropies_from_counts(record)) - exact))
    assert np.mean(errs) <= 0.02
