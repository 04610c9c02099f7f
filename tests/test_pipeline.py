import inspect
import json
import re
from dataclasses import replace

import numpy as np
import pytest

from entroctx import contexts, pipeline
from entroctx.contexts import OutcomeDistribution, coarsen, joint_distribution_fine
from entroctx.pipeline import (
    EXACT,
    ExperimentConfig,
    config_from_dict,
    config_to_dict,
    context_file_stem,
    cycle_contexts,
    exact_m,
    export_qasm_suite,
    format_reconciliation,
    ingest_counts,
    ingest_counts_files,
    load_config,
    preset_config,
    reproduce_reference,
    resolve_observables,
    run_experiment,
    sweep,
    sweep_summary,
    write_sampled_counts,
)
from entroctx.refdata import REFERENCE_RUNS
from entroctx.reports import (
    counts_from_dict,
    read_counts,
    read_report,
    read_sweep_csv,
    report_to_dict,
    write_report,
    write_sweep_csv,
)
from entroctx.sampling import NoiseModel, sample_counts
from entroctx.statevec import (
    PRESET_S1,
    GateOp,
    QuantumState,
    StatePrepSpec,
    apply_circuit,
    prepare_state,
)

S1_COARSE_M = -2.490998900332338
S2_COARSE_M = -2.321121317385921
S1_FINE_M = -0.6156375515616723
S2_FINE_M = -1.4862276556310503


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(convention="medium")
    with pytest.raises(ValueError):
        ExperimentConfig(shots=0)
    with pytest.raises(ValueError):
        preset_config("s3")


def test_resolve_observables():
    assert len(resolve_observables("table1")) == 5
    with pytest.raises(ValueError, match="unknown observable set"):
        resolve_observables("table9")
    custom = resolve_observables(("ZZ", "XX", "XI", "XZ", "IZ"))
    assert [str(o) for o in custom] == ["ZZ", "XX", "XI", "XZ", "IZ"]
    with pytest.raises(ValueError, match="failing adjacent pairs"):
        resolve_observables(("ZZ", "XI", "IZ"))


def test_exact_run_values_frozen():
    assert run_experiment(
        preset_config("s1", convention="coarse")
    ).report.m_value == pytest.approx(S1_COARSE_M, abs=1e-12)
    assert run_experiment(
        preset_config("s2", convention="coarse")
    ).report.m_value == pytest.approx(S2_COARSE_M, abs=1e-12)
    assert run_experiment(preset_config("s1")).report.m_value == pytest.approx(
        S1_FINE_M, abs=1e-12
    )
    assert run_experiment(preset_config("s2")).report.m_value == pytest.approx(
        S2_FINE_M, abs=1e-12
    )


def test_exact_run_ignores_seed():
    a = run_experiment(preset_config("s1", seed=1))
    b = run_experiment(preset_config("s1", seed=999))
    assert a.report.m_value == b.report.m_value
    assert a.report.h_pairs == b.report.h_pairs


def test_sampled_run_reproducible_and_near_exact():
    config = preset_config("s1", shots=8192, seed=2026)
    result = run_experiment(config)
    again = run_experiment(config)
    assert result.report.m_value == again.report.m_value
    # golden value frozen at build time for this exact configuration
    assert result.report.m_value == pytest.approx(-0.6106867765878619, abs=1e-12)
    assert abs(result.report.m_value - S1_FINE_M) < 0.1
    assert result.counts is not None
    assert all(r.shots == 8192 for r in result.counts.values())


def test_fine_three_qubit_cycle_reads_records_without_fallback():
    # valid 3-qubit cycle; pairs (XXI, ZZI) and (ZZX, XXX) have no local
    # basis, yet every context reads a 3-bit record and no flag is raised
    config = ExperimentConfig(
        observable_set=("XXI", "ZZI", "IIX", "ZZX", "XXX"),
        state=StatePrepSpec(
            family="explicit",
            explicit_amplitudes=tuple(np.full(8, 1 / np.sqrt(8))),
        ),
        convention="fine",
    )
    result = run_experiment(config)
    assert result.report.flags == ()
    for dist in [*result.single_dists.values(), *result.pair_dists.values()]:
        assert dist.labels == tuple(format(b, "03b") for b in range(8))
    coarse = run_experiment(replace(config, convention="coarse"))
    for key, dist in coarse.coarse_pairs.items():
        assert np.abs(dist.probs - result.coarse_pairs[key].probs).max() <= 1e-12


def test_report_file_round_trip_bit_for_bit(tmp_path):
    path = tmp_path / "report.json"
    result = run_experiment(preset_config("s1"))
    payload = write_report(path, result.report, result.feasibility.feasible)
    report, feasible = read_report(path)
    rewritten = report_to_dict(report, feasible)
    assert rewritten == payload
    assert report.m_value == payload["m_value"]
    assert feasible is True


def test_run_experiment_writes_no_file(tmp_path, monkeypatch):
    # `outputs` is the CLI's report path; the run itself does no I/O
    monkeypatch.chdir(tmp_path)
    for shots in (EXACT, 8192):
        config = preset_config("s1", shots=shots, outputs="report.json")
        run_experiment(config)
        run_experiment(replace(config, outputs=str(tmp_path / "abs.json")))
    assert list(tmp_path.iterdir()) == []


def test_sweep_writes_no_file(tmp_path, monkeypatch):
    # the CLI writes the sweep CSV; sweep itself takes no path and returns rows
    monkeypatch.chdir(tmp_path)
    parameters = list(inspect.signature(sweep).parameters)
    assert parameters == ["family", "alphas", "betas", "observable_set"]
    assert len(sweep("s1", [0.5, 1.0], [0.5], "table1")) == 2
    assert list(tmp_path.iterdir()) == []


def test_routes_never_call_the_per_context_helpers(tmp_path, monkeypatch):
    # every route reads the one kernel; the per-context helpers are
    # references for tests and demos only
    def forbidden(*args, **kwargs):
        raise AssertionError("a route called a per-context helper")

    for module in (contexts, pipeline):
        for name in ("joint_distribution_fine", "joint_distribution_coarse", "coarsen"):
            monkeypatch.setattr(module, name, forbidden, raising=False)
    for preset in ("s1", "s2"):
        for convention in ("coarse", "fine"):
            flip = ((0.97, 0.03), (0.04, 0.96)) if convention == "fine" else None
            for shots in (EXACT, 8192):
                for noise in (None, NoiseModel(0.05, flip)):
                    config = preset_config(
                        preset, convention=convention, shots=shots, noise=noise
                    )
                    run_experiment(config)
            config = preset_config(
                preset, convention=convention, shots=8192, noise=NoiseModel(0.05, flip)
            )
            paths = write_sampled_counts(config, tmp_path / f"{preset}_{convention}")
            ingest_counts_files(paths, config.observable_set)
        state = prepare_state(preset_config(preset).state)
        observables = resolve_observables(preset_config(preset).observable_set)
        for convention in ("coarse", "fine"):
            exact_m(state, observables, convention)
        sweep(preset, [0.1, 0.2], [0.3, 0.4], preset_config(preset).observable_set)
    reproduce_reference()


def test_report_payload_m_matches_snapped_entries():
    result = run_experiment(preset_config("s2"))
    payload = report_to_dict(result.report, True)
    recomputed = (
        payload["h_pairs"]["5-1"]
        - sum(payload["h_pairs"][k] for k in ("1-2", "2-3", "3-4", "4-5"))
        + sum(payload["h_singles"].values())
    )
    assert abs(recomputed - payload["m_value"]) < 1e-12


def test_counts_files_round_trip(tmp_path):
    # a sampled run and the ingest of its written counts go through one
    # analysis stage, so they agree exactly, noise or not
    for preset in ("s1", "s2"):
        for convention in ("coarse", "fine"):
            flip = ((0.97, 0.03), (0.04, 0.96)) if convention == "fine" else None
            config = preset_config(
                preset,
                convention=convention,
                shots=2048,
                seed=11,
                noise=NoiseModel(0.05, flip),
            )
            out = tmp_path / f"{preset}_{convention}"
            paths = write_sampled_counts(config, out)
            assert len(paths) == 8
            texts, record = read_counts(paths[0])
            assert record.shots == 2048
            result = ingest_counts_files(paths, config.observable_set)
            direct = run_experiment(config)
            # the reports hold every entropy, M and the convention
            assert result.report == direct.report
            lp, direct_lp = result.feasibility, direct.feasibility
            assert lp.feasible == direct_lp.feasible
            assert lp.total_violation == direct_lp.total_violation
            assert lp.max_constraint_violation == direct_lp.max_constraint_violation


def _assert_same_result(a, b):
    """Two RunResults equal field by field, distributions bit for bit."""
    assert a.report == b.report
    assert (a.feasibility.feasible, a.feasibility.total_violation) == (
        b.feasibility.feasible,
        b.feasibility.total_violation,
    )
    assert a.feasibility.max_constraint_violation == b.feasibility.max_constraint_violation
    for name in ("single_dists", "pair_dists", "coarse_pairs"):
        mine, theirs = getattr(a, name), getattr(b, name)
        assert list(mine) == list(theirs), name
        for key, dist in mine.items():
            assert dist.labels == theirs[key].labels, (name, key)
            assert dist.probs.tobytes() == theirs[key].probs.tobytes(), (name, key)
    assert a.counts == b.counts


@pytest.mark.parametrize("preset", ["s1", "s2"])
@pytest.mark.parametrize("convention", ["coarse", "fine"])
def test_ingesting_a_runs_counts_files_gives_the_run(tmp_path, preset, convention):
    # one counts -> result step: the ingest of a sampled run's own files is
    # that run, every field, the counts keyed by context key included
    flip = ((0.97, 0.03), (0.04, 0.96)) if convention == "fine" else None
    config = preset_config(
        preset, convention=convention, shots=8192, seed=5, noise=NoiseModel(0.05, flip)
    )
    paths = write_sampled_counts(config, tmp_path)
    ingested = ingest_counts_files(paths, config.observable_set)
    _assert_same_result(ingested, run_experiment(config))
    contexts = cycle_contexts(resolve_observables(config.observable_set))
    assert list(ingested.counts) == [key for _, key, _ in contexts]


@pytest.mark.parametrize("shots", [EXACT, 8192])
@pytest.mark.parametrize("convention", ["coarse", "fine"])
def test_a_noise_model_without_noise_leaves_the_run_as_it_is(shots, convention):
    config = preset_config("s2", convention=convention, shots=shots)
    for noise in (NoiseModel(), NoiseModel(0.0, ((1.0, 0.0), (0.0, 1.0)))):
        _assert_same_result(run_experiment(replace(config, noise=noise)), run_experiment(config))


@pytest.mark.parametrize("preset", ["s1", "s2"])
@pytest.mark.parametrize("convention", ["coarse", "fine"])
def test_write_sampled_counts_solves_no_lp_and_writes_no_report(
    tmp_path, monkeypatch, preset, convention
):
    # sampling stops at the counts: no LP, and a configured report path
    # stays untouched; the records are exactly the run's draws
    flip = ((0.97, 0.03), (0.04, 0.96)) if convention == "fine" else None
    report = tmp_path / "report.json"
    config = preset_config(
        preset,
        convention=convention,
        shots=8192,
        seed=11,
        noise=NoiseModel(0.05, flip),
        outputs=str(report),
    )
    expected = run_experiment(replace(config, outputs=None)).counts

    def no_lp(*args, **kwargs):
        raise AssertionError("write_sampled_counts solved an LP")

    monkeypatch.setattr(pipeline, "lp_feasibility", no_lp)
    paths = write_sampled_counts(config, tmp_path / "counts")
    assert not report.exists()
    contexts = cycle_contexts(resolve_observables(config.observable_set), convention)
    assert len(paths) == len(contexts) == 8
    for (_, key, ctx), path in zip(contexts, paths):
        assert read_counts(path) == (tuple(map(str, ctx.observables)), expected[key])


def test_ingest_missing_context_named(tmp_path):
    config = preset_config("s1", shots=2048, seed=11)
    paths = write_sampled_counts(config, tmp_path / "counts")
    kept = [p for p in paths if "pair_x2x3" not in p.name]
    with pytest.raises(ValueError, match=r"missing counts for context.*XX,XI"):
        ingest_counts_files(kept, "table1")


def test_ingest_synthetic_rounded_counts():
    # counts proportional to the exact probabilities recover M to ~0.01
    from entroctx.contexts import joint_distribution_fine
    from entroctx.sampling import CountsRecord

    observables = resolve_observables("table1")
    state = prepare_state(PRESET_S1)
    records = []
    for kind, key, ctx in cycle_contexts(observables, "fine"):
        dist = joint_distribution_fine(state, ctx)
        counts = {lb: round(8192 * p) for lb, p in dist.as_dict().items()}
        shots = sum(counts.values())
        texts = tuple(str(o) for o in ctx.observables)
        records.append((texts, CountsRecord(shots, counts)))
    result = ingest_counts(records, "table1")
    assert result.report.m_value == pytest.approx(S1_FINE_M, abs=0.01)


def test_ingest_point_mass_counts_gives_zero():
    from entroctx.sampling import CountsRecord

    observables = resolve_observables("table1")
    records = []
    for kind, key, ctx in cycle_contexts(observables, "fine"):
        texts = tuple(str(o) for o in ctx.observables)
        counts = {"00": 8192, "01": 0, "10": 0, "11": 0}
        records.append((texts, CountsRecord(8192, counts)))
    result = ingest_counts(records, "table1")
    assert result.report.m_value == 0.0


def test_reconciliation_structure():
    result = reproduce_reference()
    s1 = result["runs"]["s1"]
    s2 = result["runs"]["s2"]
    assert not s1["consistent"]
    assert s2["consistent"]
    assert any(f.startswith("DISCREPANCY") for f in result["flags"])
    for entry in (s1, s2):
        assert entry["ideal_m"]["coarse"] < 0
        assert entry["ideal_m"]["fine"] < 0
        assert (
            entry["classification"]
            == "no ideal violation; measured positivity consistent with noise/convention"
        )
    text = format_reconciliation(result)
    assert "DISCREPANCY" in text
    assert "0.31593045534" in text


def test_reproduce_reference_solves_no_lp(monkeypatch):
    # the ideal M values come from the exact analysis stage alone, bit for
    # bit what a full run reports
    expected = {
        (name, conv): run_experiment(
            ExperimentConfig(run.observable_set, run.state, conv)
        ).report.m_value
        for name, run in REFERENCE_RUNS.items()
        for conv in ("coarse", "fine")
    }

    def no_lp(*args, **kwargs):
        raise AssertionError("reproduce_reference solved an LP")

    monkeypatch.setattr(pipeline, "lp_feasibility", no_lp)
    result = reproduce_reference()
    for (name, conv), m in expected.items():
        assert result["runs"][name]["ideal_m"][conv] == m


def test_sweep_single_point_matches_run(tmp_path):
    rows = sweep("s1", [2.9306], [2.9306], "table1")
    write_sweep_csv(tmp_path / "s.csv", rows)
    assert len(rows) == 1
    alpha, beta, m_coarse, m_fine, feasible = rows[0]
    assert m_coarse == pytest.approx(S1_COARSE_M, abs=1e-12)
    assert m_fine == pytest.approx(S1_FINE_M, abs=1e-12)
    assert feasible
    parsed = read_sweep_csv(tmp_path / "s.csv")
    assert parsed[0][2] == pytest.approx(m_coarse, abs=0)

    # the sweep row and run_experiment go through the same analysis stage,
    # so they agree bit for bit in both conventions and on the LP verdict
    for preset, observable_set in (("s1", "table1"), ("s2", "table2")):
        spec = preset_config(preset).state
        row = sweep(preset, [spec.alpha], [spec.beta], observable_set)[0]
        runs = {
            conv: run_experiment(preset_config(preset, convention=conv))
            for conv in ("coarse", "fine")
        }
        assert row[2] == runs["coarse"].report.m_value
        assert row[3] == runs["fine"].report.m_value
        assert row[4] == runs["coarse"].feasibility.feasible
        assert row[4] == runs["fine"].feasibility.feasible


def test_sweep_periodicity_on_diagonal():
    # advancing both angles by pi flips the global sign of the state
    rows = sweep("s1", [0.7, 0.7 + np.pi], [0.7, 0.7 + np.pi], "table1")
    first = rows[0]
    last = rows[3]
    assert (first[0], first[1]) == (0.7, 0.7)
    assert first[2] == pytest.approx(last[2], abs=1e-10)
    assert first[3] == pytest.approx(last[3], abs=1e-10)


def test_sweep_summary_breaks_near_ties_by_grid_order():
    # M values 1e-16 apart tie; the first row in (alpha, beta) order is
    # reported whatever the row order and whichever M is larger
    m = 1e-3
    rows = [
        (0.5, 0.1, m - 1e-9, m - 1e-9, True),
        (0.2, 0.9, m + 1e-16, m, True),
        (0.2, 0.3, m, m + 1e-16, True),
    ]
    summary = sweep_summary(rows)
    for convention in ("coarse", "fine"):
        best = summary[f"max_m_{convention}"]
        assert (best["alpha"], best["beta"]) == (0.2, 0.3)
    assert summary["max_m_fine"]["m"] == m + 1e-16
    rows.append((0.6, 0.0, m + 1e-9, m + 1e-9, True))
    assert sweep_summary(rows)["max_m_coarse"]["alpha"] == 0.6


def test_sweep_rejects_degenerate_points():
    # alpha = pi/2, beta = 0 is the null vector for family s1
    point = r"\(alpha, beta\) = \(1.5707963267948966, 0.0\)"
    with pytest.raises(ValueError, match=f"family s1 .*null vector at {point}"):
        sweep("s1", [0.0, np.pi / 2], [0.0], "table1")
    assert len(sweep("s1", [0.0, np.pi / 3], [0.0], "table1")) == 2


def test_sweep_rejects_an_empty_axis():
    for alphas, betas, axis in (([], [0.1], "alpha"), ([0.1], [], "beta")):
        with pytest.raises(ValueError, match=f"sweep {axis} axis is empty"):
            sweep("s1", alphas, betas, "table1")


def test_non_finite_state_parameters_are_rejected():
    # nan fails every comparison, so such states once passed the norm checks
    # and surfaced as an unbounded LP
    nan_alpha = config_from_dict({"state": {"family": "s1", "alpha": float("nan")}})
    message = r"family s1 parameters are not finite at \(alpha, beta\) = \(nan, 0.0\)"
    with pytest.raises(ValueError, match=message):
        run_experiment(nan_alpha)
    # the first offending point in (alpha, beta) order is named
    message = r"family s2 parameters are not finite at \(alpha, beta\) = \(0.3, inf\)"
    with pytest.raises(ValueError, match=message):
        sweep("s2", [0.3, np.nan], [0.1, np.inf], "table2")
    amps = (np.nan, 0.5, 0.5, 0.5)
    with pytest.raises(ValueError, match="family explicit amplitudes .* not finite"):
        prepare_state(StatePrepSpec(family="explicit", explicit_amplitudes=amps))
    with pytest.raises(ValueError, match="not normalized"):
        QuantumState(np.array([np.nan, 1.0]))


def test_sweep_of_a_violating_cycle_matches_facets_and_runs():
    # (ZY, IY, XY, YZ) reaches 2 sqrt(2) > n - 2 on some states, so this grid
    # holds both verdicts. Exact data satisfy no disturbance, where the LP
    # verdict is the closed-form n-cycle facets' (Araujo et al., PRA 88,
    # 022118 (2013)): max over odd sign vectors of sum_i gamma_i E_i <= n - 2.
    cycle = ("ZY", "IY", "XY", "YZ")
    grid = np.linspace(-np.pi, np.pi, 9) + 0.01
    rows = sweep("s1", grid, grid, cycle)
    assert len(rows) == 81
    assert {row[4] for row in rows} == {True, False}
    for alpha, beta, m_coarse, m_fine, feasible in rows:
        state = StatePrepSpec("s1", alpha, beta)
        runs = {
            conv: run_experiment(ExperimentConfig(cycle, state, conv))
            for conv in ("coarse", "fine")
        }
        assert m_coarse == pytest.approx(runs["coarse"].report.m_value, abs=1e-12)
        assert m_fine == pytest.approx(runs["fine"].report.m_value, abs=1e-12)
        pairs = runs["coarse"].coarse_pairs.values()
        corr = np.array([d.probs @ [1.0, -1.0, -1.0, 1.0] for d in pairs])
        facet = np.abs(corr).sum()
        if (corr < 0).sum() % 2 == 0:
            facet -= 2 * np.abs(corr).min()
        # 20 of the 81 points lie on a facet, up to 1e-13 of rounding
        assert feasible == (facet <= len(cycle) - 2 + 1e-9), (alpha, beta, facet)


def test_export_suite_counts(tmp_path):
    written = export_qasm_suite(preset_config("s1"), tmp_path / "q1")
    assert len(written) == 8
    text = (tmp_path / "q1").joinpath(written[0].name).read_text()
    assert text.startswith("OPENQASM 2.0;")
    written2 = export_qasm_suite(preset_config("s2"), tmp_path / "q2")
    assert len(written2) == 8
    pairs = [p.name for p in written2 if p.name.startswith("pair_")]
    assert pairs == [
        "pair_x1x2_ZZ_YX.qasm",
        "pair_x2x3_YX_XZ.qasm",
        "pair_x3x4_XZ_ZX.qasm",
        "pair_x4x5_ZX_XY.qasm",
        "pair_x5x1_XY_ZZ.qasm",
    ]
    for name in pairs:
        assert "cx q[0], q[1];" in (tmp_path / "q2" / name).read_text()


def _gates_from_qasm(section: str, n: int) -> list:
    gates = []
    for kind, params, regs in re.findall(
        r"^(u3|h|sdg|cx)(?:\(([^)]*)\))? (q\[\d+\](?:, q\[\d+\])?);$", section, re.M
    ):
        # hardware register q[k] is letter index n - 1 - k
        qubits = tuple(n - 1 - int(k) for k in re.findall(r"q\[(\d+)\]", regs))
        values = tuple(float(x) for x in params.split(",")) if params else ()
        gates.append(GateOp("cnot" if kind == "cx" else kind, qubits, values))
    return gates


def _run_qasm(text: str) -> tuple:
    """(prepared state, readout distribution) of an exported circuit."""
    n = int(re.search(r"qreg q\[(\d+)\];", text).group(1))
    prep, rest = text.split("// state preparation")[1].split("// basis change")
    basis, readout = rest.split("// readout")
    measures = [f"measure q[{k}] -> c[{k}];" for k in range(n)]
    assert readout.strip().splitlines() == measures
    zero = QuantumState(np.eye(2**n, dtype=complex)[0])
    psi = apply_circuit(zero, _gates_from_qasm(prep, n))
    out = apply_circuit(psi, _gates_from_qasm(basis, n))
    return psi, {format(b, f"0{n}b"): abs(a) ** 2 for b, a in enumerate(out.amplitudes)}


def _product_state(rng, n: int) -> tuple:
    amps = np.ones(1, dtype=complex)
    for _ in range(n):
        qubit = rng.normal(size=2) + 1j * rng.normal(size=2)
        amps = np.kron(amps, qubit / np.linalg.norm(qubit))
    return tuple(amps)


@pytest.mark.parametrize("name", ["s1", "s2", "cycle3"])
def test_exported_circuit_readout_matches_fine_records(tmp_path, name):
    # hardware counts of the exported circuits must be read by the same
    # record map the simulation uses, context by context
    if name == "cycle3":
        amps = _product_state(np.random.default_rng(5), 3)
        config = ExperimentConfig(
            observable_set=("XXI", "YYZ", "ZZI"),
            state=StatePrepSpec(family="explicit", explicit_amplitudes=amps),
        )
    else:
        config = preset_config(name)
    exported = {p.name: p for p in export_qasm_suite(config, tmp_path)}
    run = run_experiment(config)
    records = []
    for position, (kind, key, ctx) in enumerate(
        cycle_contexts(resolve_observables(config.observable_set))
    ):
        texts = [str(o) for o in ctx.observables]
        path = exported[f"{context_file_stem(kind, key)}_{'_'.join(texts)}.qasm"]
        # the u3 angles are printed at round-trip precision, so the circuit
        # prepares the simulated state and reads out its records to rounding
        psi, readout = _run_qasm(path.read_text())
        exact = prepare_state(config.state)
        assert abs(abs(np.vdot(psi.amplitudes, exact.amplitudes)) - 1.0) <= 1e-12
        fine = joint_distribution_fine(exact, ctx)
        assert list(readout) == list(fine.labels)
        assert np.abs(np.array(list(readout.values())) - fine.probs).max() <= 1e-12
        drawn = OutcomeDistribution(fine.labels, np.array(list(readout.values())))
        record = sample_counts(drawn, 8192, config.seed + position)
        records.append((texts, record))
    ingested = ingest_counts(records, config.observable_set)
    for kind, key, ctx in cycle_contexts(resolve_observables(config.observable_set)):
        if kind == "pair":
            measured = coarsen(ingested.pair_dists[key], ctx).probs
            assert np.abs(measured - run.coarse_pairs[key].probs).max() <= 0.03


def test_config_json_round_trip(tmp_path):
    config = ExperimentConfig(
        observable_set="table2",
        state=StatePrepSpec(family="s2", alpha=1.0, beta=-2.0),
        convention="coarse",
        shots=4096,
        seed=77,
        noise=NoiseModel(
            depolarizing_epsilon=0.25, readout_flip=((0.95, 0.05), (0.1, 0.9))
        ),
        outputs="out.json",
    )
    data = config_to_dict(config)
    assert set(data) == {
        "observable_set", "state", "convention", "shots", "seed", "noise", "outputs"
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    loaded = load_config(path)
    assert loaded == config


def test_config_defaults_and_exact():
    config = config_from_dict({"observable_set": "table1", "state": {"family": "s1"}})
    assert config.shots == EXACT
    assert config.noise is None


def test_noisy_run_inflates_entropies():
    clean = run_experiment(preset_config("s1"))
    noisy = run_experiment(
        preset_config("s1", noise=NoiseModel(depolarizing_epsilon=0.15))
    )
    for key in clean.report.h_pairs:
        assert noisy.report.h_pairs[key] >= clean.report.h_pairs[key] - 1e-12


def test_exact_m_helper_agrees():
    state = prepare_state(PRESET_S1)
    observables = resolve_observables("table1")
    assert exact_m(state, observables, "coarse") == pytest.approx(
        S1_COARSE_M, abs=1e-12
    )
    cycle3 = StatePrepSpec(
        "explicit", explicit_amplitudes=(0.5, 0.5, 0.5j, 0, 0.5, 0, 0, 0)
    )
    cases = (("table1", PRESET_S1), (("XXI", "YYZ", "ZZI"), cycle3))
    for observable_set, spec in cases:
        state = prepare_state(spec)
        observables = resolve_observables(observable_set)
        for convention in ("coarse", "fine"):
            run = run_experiment(ExperimentConfig(observable_set, spec, convention))
            assert exact_m(state, observables, convention) == run.report.m_value
    with pytest.raises(ValueError, match="3-qubit context on a 2-qubit state"):
        exact_m(prepare_state(PRESET_S1), observables, "fine")
    with pytest.raises(ValueError, match="unknown convention 'medium'"):
        exact_m(state, observables, "medium")


def test_ingest_rejects_duplicate_context_records():
    from entroctx.contexts import joint_distribution_fine
    from entroctx.sampling import CountsRecord

    state = prepare_state(PRESET_S1)
    records = []
    for kind, key, ctx in cycle_contexts(resolve_observables("table1"), "fine"):
        dist = joint_distribution_fine(state, ctx)
        counts = {lb: round(8192 * p) for lb, p in dist.as_dict().items()}
        texts = tuple(str(o) for o in ctx.observables)
        records.append((texts, CountsRecord(sum(counts.values()), counts)))
    texts = records[3][0]
    point_mass = CountsRecord(100, {"00": 100})
    with pytest.raises(ValueError, match=r"duplicate counts for context \(ZZ,XX\)"):
        ingest_counts(records + [(texts, point_mass)], "table1")
    # records for contexts outside the cycle stay ignored, repeated or not
    outside = [(("ZZ",), point_mass), (("ZZ",), point_mass)]
    assert ingest_counts(records + outside, "table1").report.m_value == (
        ingest_counts(records, "table1").report.m_value
    )
    # every label must be an outcome of its context, singles included: a
    # wrong-width single label would otherwise change M without an error
    for convention, position, bad, named in (
        ("fine", 0, {"0": 5000, "1": 3192}, "'0'"),
        ("fine", 0, {"000": 5000, "111": 3192}, "'000'"),
        ("coarse", 0, {"++": 5000, "--": 3192}, "(1, 1)"),
        ("coarse", 3, {"++": 4000, "+-": 2000, "-+": 2182, "+++": 10}, "(1, 1, 1)"),
    ):
        run = run_experiment(preset_config("s1", convention=convention, shots=8192))
        contexts = cycle_contexts(resolve_observables("table1"), convention)
        malformed = []
        for index, (_, key, ctx) in enumerate(contexts):
            texts = [str(o) for o in ctx.observables]
            if index == position:
                data = {"context": texts, "shots": 8192, "counts": bad}
                malformed.append(counts_from_dict(data))
                message = f"label {named} is not a {convention} outcome of context"
                message += f" ({ctx.label_text()})"
            else:
                malformed.append((tuple(texts), run.counts[key]))
        with pytest.raises(ValueError, match=re.escape(message)):
            ingest_counts(malformed, "table1")


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config key.*'shot'"):
        config_from_dict({"shot": 100})
    with pytest.raises(ValueError, match="unknown state key.*'famly'"):
        config_from_dict({"state": {"famly": "s2"}})
    with pytest.raises(ValueError, match="unknown noise key.*'eps'"):
        config_from_dict({"noise": {"eps": 0.1}})
    for bad in ({"state": None}, {"noise": 0.1}, ["shots"]):
        with pytest.raises(ValueError, match="must be a JSON object"):
            config_from_dict(bad)
    # the documented extra forms stay accepted
    explicit = config_from_dict(
        {"state": {"family": "explicit", "amplitudes": [[0.5, 0.0]] * 4},
         "outputs": {"report": "r.json"}}
    )
    assert explicit.state.family == "explicit"
    assert explicit.outputs == "r.json"


@pytest.mark.parametrize(
    "outputs, message",
    [
        ({"reprot": "r.json"}, "unknown outputs key(s) 'reprot'; accepted: report"),
        (
            {"report": "r.json", "counts": "d"},
            "unknown outputs key(s) 'counts'; accepted: report",
        ),
        (5, "outputs must be a report path, not 5"),
        ({"report": ["r.json"]}, "outputs must be a report path, not ['r.json']"),
    ],
    ids=("misspelt-key", "extra-key", "number", "report-list"),
)
def test_config_rejects_malformed_outputs(outputs, message):
    with pytest.raises(ValueError) as caught:
        config_from_dict({"outputs": outputs})
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "data, message",
    [
        ({"shots": 100.7}, 'shots other than "exact" must be an integer >= 1, not 100.7'),
        ({"shots": True}, 'shots other than "exact" must be an integer >= 1, not True'),
        ({"shots": "100"}, "shots other than \"exact\" must be an integer >= 1, not '100'"),
        ({"seed": 3.9}, "seed must be an integer >= 0, not 3.9"),
        ({"seed": -1}, "seed must be an integer >= 0, not -1"),
        ({"seed": False}, "seed must be an integer >= 0, not False"),
    ],
    ids=("float-shots", "bool-shots", "string-shots", "float-seed", "negative-seed",
         "bool-seed"),
)
def test_config_refuses_what_is_not_a_whole_shot_count_or_seed(data, message):
    # a float used to be cut (100.7 -> 100 shots), a bool read as 0 or 1
    with pytest.raises(ValueError) as caught:
        config_from_dict(data)
    assert str(caught.value) == message
    with pytest.raises(ValueError, match="seed must be an integer >= 0, not -1"):
        replace(preset_config("s1"), seed=-1)
    assert config_from_dict({"shots": np.int64(64), "seed": 0}).shots == 64
