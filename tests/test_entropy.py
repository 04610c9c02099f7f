import numpy as np
import pytest

from entroctx.contexts import OutcomeDistribution
from entroctx.entropy import (
    EntropyReport,
    cycle_pair_keys,
    cycle_single_keys,
    entropies_from_counts,
    estimate_entropy,
    evaluate_m_cycle,
    shannon_entropy,
)
from entroctx.ncmodels import lp_feasibility
from entroctx.refdata import REFERENCE_RUNS

RNG = np.random.default_rng(20260825)


def random_joint(rows: int, cols: int) -> OutcomeDistribution:
    probs = RNG.dirichlet(np.ones(rows * cols))
    labels = tuple((a, b) for a in range(rows) for b in range(cols))
    return OutcomeDistribution(labels, probs)


def test_shannon_entropy_examples():
    assert shannon_entropy([0.5, 0.5]) == pytest.approx(1.0, abs=1e-15)
    assert shannon_entropy([0.25] * 4) == pytest.approx(2.0, abs=1e-15)
    assert shannon_entropy([1.0, 0.0, 0.0, 0.0]) == 0.0


def test_shannon_entropy_validation():
    with pytest.raises(ValueError):
        shannon_entropy([0.7, 0.7])
    with pytest.raises(ValueError):
        shannon_entropy([1.5, -0.5])


def test_chain_rule_and_axioms_on_random_joints():
    for _ in range(300):
        joint = random_joint(2, 2)
        p = joint.probs.reshape(2, 2)  # p[a, b]
        h_joint = shannon_entropy(joint)
        h_a = shannon_entropy(p.sum(axis=1))
        h_b = shannon_entropy(p.sum(axis=0))
        # H(A|B) as the p(b)-weighted entropy of the conditional slices
        h_a_given_b = sum(
            p[:, b].sum() * shannon_entropy(p[:, b] / p[:, b].sum()) for b in range(2)
        )
        assert h_joint == pytest.approx(h_a_given_b + h_b, abs=1e-12)
        assert h_joint <= h_a + h_b + 1e-12
        assert h_a <= h_joint + 1e-12
        assert h_b <= h_joint + 1e-12
        assert h_a_given_b <= h_a + 1e-12


def test_evaluate_m_reference_s2():
    run = REFERENCE_RUNS["s2"]
    m = evaluate_m_cycle(dict(run.h_pairs), dict(run.h_singles), 5)
    assert m == pytest.approx(0.12597, abs=1e-5)


def test_evaluate_m_reference_s1_recomputation():
    run = REFERENCE_RUNS["s1"]
    m = evaluate_m_cycle(dict(run.h_pairs), dict(run.h_singles), 5)
    assert m == pytest.approx(0.31593, abs=1e-4)
    assert m != pytest.approx(run.reported_m, abs=1e-4)


def test_evaluate_m_all_zero():
    pairs = {k: 0.0 for k in cycle_pair_keys(5)}
    singles = {k: 0.0 for k in cycle_single_keys(5)}
    assert evaluate_m_cycle(pairs, singles, 5) == 0.0


def test_evaluate_m_accepts_string_keys():
    run = REFERENCE_RUNS["s2"]
    pairs = {f"{i}-{j}": v for (i, j), v in run.h_pairs.items()}
    singles = {str(k): v for k, v in run.h_singles.items()}
    assert evaluate_m_cycle(pairs, singles, 5) == pytest.approx(0.12597, abs=1e-5)


def test_evaluate_m_missing_entry_named():
    run = REFERENCE_RUNS["s2"]
    pairs = dict(run.h_pairs)
    del pairs[(2, 3)]
    with pytest.raises(ValueError, match="X2X3"):
        evaluate_m_cycle(pairs, dict(run.h_singles), 5)
    singles = dict(run.h_singles)
    del singles[3]
    with pytest.raises(ValueError, match="single X3"):
        evaluate_m_cycle(dict(run.h_pairs), singles, 5)


@pytest.mark.parametrize(
    "bad", ("12", "1-2-3", "a-b", 12), ids=("no-dash", "three-parts", "letters", "int")
)
def test_evaluate_m_names_a_malformed_pair_key(bad):
    pairs = {bad: 1.0, **{k: 1.0 for k in cycle_pair_keys(5)}}
    message = f'bad pair key {bad!r}; use (i, j) or "i-j"'
    with pytest.raises(ValueError) as caught:
        evaluate_m_cycle(pairs, {2: 1.0, 3: 1.0, 4: 1.0}, 5)
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "kind, bad, message",
    (
        ("pair", (1.7, 2), 'bad pair key (1.7, 2); use (i, j) or "i-j"'),
        ("pair", (1, 2.0), 'bad pair key (1, 2.0); use (i, j) or "i-j"'),
        ("single", 2.9, 'bad single key 2.9; use i or "i"'),
        ("single", "2.9", "bad single key '2.9'; use i or \"i\""),
    ),
    ids=("float-pair", "float-in-pair", "float-single", "float-string-single"),
)
def test_non_integer_keys_are_refused_not_truncated(kind, bad, message):
    # (1.7, 2) and 2.9 used to be read as (1, 2) and 2, giving the same M
    run = REFERENCE_RUNS["s2"]
    pairs, singles = dict(run.h_pairs), dict(run.h_singles)
    if kind == "pair":
        pairs[bad] = pairs.pop((1, 2))
    else:
        singles[bad] = singles.pop(2)
    for build in (
        lambda: evaluate_m_cycle(pairs, singles, 5),
        lambda: EntropyReport.from_entropies(singles, pairs, "coarse"),
        lambda: EntropyReport(singles, pairs, 0.0, "coarse"),
    ):
        with pytest.raises(ValueError) as caught:
            build()
        assert str(caught.value) == message


def test_numpy_integer_keys_give_the_same_m():
    run = REFERENCE_RUNS["s2"]
    pairs = {(np.int64(i), np.int32(j)): v for (i, j), v in run.h_pairs.items()}
    singles = {np.int64(k): v for k, v in run.h_singles.items()}
    m = evaluate_m_cycle(dict(run.h_pairs), dict(run.h_singles), 5)
    assert evaluate_m_cycle(pairs, singles, 5) == m
    report = EntropyReport.from_entropies(singles, pairs, "coarse")
    assert report.m_value == m
    assert set(report.h_pairs) == set(cycle_pair_keys(5))
    assert all(type(k) is int for k in report.h_singles)


def test_evaluate_m_rejects_non_finite():
    pairs = {k: 1.0 for k in cycle_pair_keys(5)}
    singles = {2: 1.0, 3: float("nan"), 4: 1.0}
    with pytest.raises(ValueError, match="non-finite"):
        evaluate_m_cycle(pairs, singles, 5)


def test_evaluate_m_cycle_small_cases():
    # n = 3, all variables the same fair bit
    assert evaluate_m_cycle({(1, 2): 1, (2, 3): 1, (3, 1): 1}, {2: 1}, 3) == 0.0
    # n = 5, independent fair bits: 2 - 4*2 + 3*1
    pairs = {k: 2.0 for k in cycle_pair_keys(5)}
    singles = {k: 1.0 for k in cycle_single_keys(5)}
    assert evaluate_m_cycle(pairs, singles, 5) == pytest.approx(-3.0, abs=1e-15)
    with pytest.raises(ValueError):
        evaluate_m_cycle({}, {}, 2)


def test_duplicate_entropy_keys_are_refused():
    # "1-2" and (1, 2) name one entry: whichever comes first, the table is
    # refused with both keys named, by the evaluator, by a report built from
    # the same tables and by the LP's mapping form
    pairs = {k: 2.0 for k in cycle_pair_keys(5)}
    singles = {k: 1.0 for k in cycle_single_keys(5)}
    first_str = {"1-2": 1.5, **pairs}
    first_tuple = {**pairs, "1-2": 1.5}
    with pytest.raises(ValueError, match=r"keys '1-2' and \(1, 2\) name one entry"):
        evaluate_m_cycle(first_str, singles, 5)
    with pytest.raises(ValueError, match=r"keys \(1, 2\) and '1-2' name one entry"):
        evaluate_m_cycle(first_tuple, singles, 5)
    doubled = {"3": 0.5, **singles}
    with pytest.raises(ValueError, match="keys '3' and 3 name one entry"):
        evaluate_m_cycle(pairs, doubled, 5)
    with pytest.raises(ValueError, match="name one entry"):
        EntropyReport.from_entropies(singles, first_str, "coarse")
    with pytest.raises(ValueError, match="name one entry"):
        EntropyReport(doubled, pairs, -3.0, "coarse")
    uniform = {(a, b): 0.25 for a in (1, -1) for b in (1, -1)}
    with pytest.raises(ValueError, match=r"keys \(1, 2\) and '1-2' name one entry"):
        lp_feasibility({**{k: uniform for k in pairs}, "1-2": uniform}, 5)


def test_evaluate_m_is_linear():
    for _ in range(50):
        p1 = {k: float(v) for k, v in zip(cycle_pair_keys(5), RNG.uniform(0, 2, 5))}
        p2 = {k: float(v) for k, v in zip(cycle_pair_keys(5), RNG.uniform(0, 2, 5))}
        s1 = {k: float(v) for k, v in zip(cycle_single_keys(5), RNG.uniform(0, 1, 3))}
        s2 = {k: float(v) for k, v in zip(cycle_single_keys(5), RNG.uniform(0, 1, 3))}
        lam = float(RNG.uniform())
        mixed_p = {k: lam * p1[k] + (1 - lam) * p2[k] for k in p1}
        mixed_s = {k: lam * s1[k] + (1 - lam) * s2[k] for k in s1}
        direct = evaluate_m_cycle(mixed_p, mixed_s, 5)
        combo = lam * evaluate_m_cycle(p1, s1, 5)
        combo += (1 - lam) * evaluate_m_cycle(p2, s2, 5)
        assert direct == pytest.approx(combo, abs=1e-12)


def test_entropies_from_counts_examples():
    point = entropies_from_counts({"00": 8192})
    assert shannon_entropy(point) == 0.0
    half = entropies_from_counts({"00": 4096, "11": 4096})
    assert shannon_entropy(half) == pytest.approx(1.0, abs=1e-15)
    uniform = entropies_from_counts(
        {"00": 2048, "01": 2048, "10": 2048, "11": 2048}
    )
    assert shannon_entropy(uniform) == pytest.approx(2.0, abs=1e-15)
    with pytest.raises(ValueError, match="zero total"):
        entropies_from_counts({"00": 0})


def test_estimate_entropy_bias_correction():
    counts = {"00": 500, "01": 300, "10": 150, "11": 50}
    plain = estimate_entropy(counts)
    corrected = estimate_entropy(counts, bias_correction=True)
    assert corrected > plain
    assert corrected - plain == pytest.approx(3 / (2 * 1000 * np.log(2)), abs=1e-12)


@pytest.mark.parametrize("estimate", [entropies_from_counts, estimate_entropy])
def test_plain_count_mappings_are_checked_as_counts_records_are(estimate):
    # 2.7 was cut to 2 (probabilities 2/3 and 1/3), and estimate_entropy took
    # True and 1.5 for counts
    for bad, label in (({"00": 2.7, "01": 1}, "'00'"), ({"0": 1, "1": True}, "'1'")):
        with pytest.raises(ValueError, match=f"^count of {label} must be an integer"):
            estimate(bad)
    with pytest.raises(ValueError, match="^count of '1' must be an integer >= 0, not 1.5$"):
        estimate({"0": 2, "1": 1.5})
    with pytest.raises(ValueError, match="^count of '1' must be an integer >= 0, not -1$"):
        estimate({"0": 2, "1": -1})
    got, want = estimate({"0": np.int64(3), "1": 1}), estimate({"0": 3, "1": 1})
    assert np.array_equal(getattr(got, "probs", got), getattr(want, "probs", want))


def test_report_recomputes_m():
    run = REFERENCE_RUNS["s2"]
    report = EntropyReport.from_entropies(
        dict(run.h_singles), dict(run.h_pairs), "fine"
    )
    assert report.m_value == pytest.approx(0.12597, abs=1e-5)
    with pytest.raises(ValueError, match="recompute"):
        EntropyReport(
            dict(run.h_singles), dict(run.h_pairs), report.m_value + 1e-6, "fine"
        )
