"""End-to-end pipelines: simulate, ingest, reconcile, sweep, export.

One run measures a cycle of n observables on one prepared state: the
n - 2 interior singles and the n adjacent pairs. Distributions are exact
or sampled, optionally noise-processed, reduced to entropies, combined
into the witness M, and cross-checked by the mixture-feasibility LP on
the coarse pair marginals.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .contexts import (
    MeasurementContext,
    OutcomeDistribution,
    binning_matrix,
    export_measurement_circuit,
    outcome_labels,
    record_probabilities,
)
from .entropy import (
    EntropyReport,
    cycle_pair_keys,
    cycle_single_keys,
    entropy_rows,
)
from .entropy import _m_sum
from .ncmodels import FeasibilityResult, _feasible_rows, lp_feasibility
from .pauli import OBSERVABLE_SETS, PauliString, as_pauli, verify_cycle
from .refdata import REFERENCE_RUNS
from .reports import read_counts, write_counts
from .sampling import CountsRecord, NoiseModel, sample_counts
from .sampling import _integer, _noisy_rows, _texts
from .statevec import (
    PRESET_S1,
    PRESET_S2,
    QuantumState,
    StatePrepSpec,
    family_amplitudes,
    prepare_state,
    synthesize_prep_circuit,
)

EXACT = "exact"
IDEAL_CLASSIFICATION = (
    "no ideal violation; measured positivity consistent with noise/convention"
)


@dataclass(frozen=True)
class ExperimentConfig:
    observable_set: str | tuple[str, ...] = "table1"
    state: StatePrepSpec = PRESET_S1
    convention: str = "fine"
    shots: int | str = EXACT
    seed: int = 2026
    noise: NoiseModel | None = None
    outputs: str | None = None

    def __post_init__(self) -> None:
        if self.convention not in ("coarse", "fine"):
            raise ValueError(f"unknown convention {self.convention!r}")
        if self.shots != EXACT:
            shots = _integer('shots other than "exact"', self.shots, 1)
            object.__setattr__(self, "shots", shots)
        object.__setattr__(self, "seed", _integer("seed", self.seed, 0))


def preset_config(name: str, **overrides) -> ExperimentConfig:
    """Shipped run configurations: s1/table1 and s2/table2."""
    presets = {
        "s1": ExperimentConfig(observable_set="table1", state=PRESET_S1),
        "s2": ExperimentConfig(observable_set="table2", state=PRESET_S2),
    }
    if name not in presets:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(presets)}")
    return replace(presets[name], **overrides)


def resolve_observables(
    observable_set: str | tuple[str, ...],
) -> tuple[PauliString, ...]:
    """Named set or custom list; custom lists must commute cyclically."""
    if isinstance(observable_set, str):
        if observable_set not in OBSERVABLE_SETS:
            raise ValueError(f"unknown observable set {observable_set!r}")
        return OBSERVABLE_SETS[observable_set]
    observables = tuple(as_pauli(text) for text in observable_set)
    cycle = verify_cycle(observables)
    if not cycle.is_valid_cycle:
        bad = [
            f"({observables[i]}, {observables[(i + 1) % len(observables)]})"
            for i, ok in enumerate(cycle.adjacent_commuting)
            if not ok
        ]
        raise ValueError(
            "custom observable set is not cyclically commuting; "
            f"failing adjacent pairs: {', '.join(bad)}"
        )
    return observables


def cycle_contexts(
    observables: tuple[PauliString, ...], convention: str = "fine"
) -> list[tuple[str, object, MeasurementContext]]:
    """Ordered context list: interior singles then adjacent pairs.

    Yields ("single", i, ctx) for i in 2..n-1 and ("pair", (i, j), ctx)
    for the n cyclically adjacent pairs; the position in this list is the
    per-context seed offset for sampled runs.
    """
    n = len(observables)
    entries: list[tuple[str, object, MeasurementContext]] = []
    for i in cycle_single_keys(n):
        ctx = MeasurementContext((observables[i - 1],), convention)
        entries.append(("single", i, ctx))
    for i, j in cycle_pair_keys(n):
        ctx = MeasurementContext((observables[i - 1], observables[j - 1]), convention)
        entries.append(("pair", (i, j), ctx))
    return entries


def _analyse(entries, n: int, convention: str) -> tuple:
    """The one analysis stage of every route.

    `entries` are (kind, key, ctx, rows) in cycle_contexts order, rows a
    (batch, K) array of probabilities over the context's fine records or
    coarse outcomes, as `convention` says. Returns the single and pair entropy
    tables and M, each per row, and the LP's coarse pair rows, (batch, n, 4)
    in cycle order. Rows of one shape get their entropies from one
    (contexts, batch, K) stack, and M is evaluate_m_cycle's sum on them.
    """
    rows, keys = [e[3] for e in entries], [e[1] for e in entries]
    h = np.empty((len(rows), len(rows[0])))
    for shape in {r.shape for r in rows}:
        at = [j for j, r in enumerate(rows) if r.shape == shape]
        h[at] = entropy_rows(np.stack([rows[j] for j in at]))
    pairs = np.stack(rows[n - 2 :])
    if convention == "fine":
        pairs = pairs @ np.stack([binning_matrix(e[2]) for e in entries[n - 2 :]])
    singles = dict(zip(keys[: n - 2], h[: n - 2]))
    m = _m_sum(h[n - 2 :], h[: n - 2])
    return singles, dict(zip(keys[n - 2 :], h[n - 2 :])), m, pairs.transpose(1, 0, 2)


def _counts_row(record: CountsRecord, ctx, convention: str) -> np.ndarray:
    """count / shots, a (1, K) row over every outcome of the context in the
    convention (0 where a label is absent); a label outside them is rejected."""
    labels = outcome_labels(ctx, convention)
    counts = np.zeros(len(labels))
    for label, count in record.counts.items():
        if label not in labels:
            raise ValueError(
                f"counts label {label!r} is not a {convention} outcome of "
                f"context ({ctx.label_text()})"
            )
        counts[labels.index(label)] = int(count)
    return (counts / record.shots)[None, :]


def lp_tolerance_for(n: int, shots: int | str) -> float:
    """1e-9 for exact runs; sampled marginals get (4n+1)/sqrt(shots) slack."""
    if shots == EXACT:
        return 1e-9
    return (4 * n + 1) / math.sqrt(_integer("shots", shots, 1))


@dataclass(frozen=True)
class RunResult:
    report: EntropyReport
    feasibility: FeasibilityResult
    single_dists: dict[int, OutcomeDistribution]
    pair_dists: dict[tuple[int, int], OutcomeDistribution]
    coarse_pairs: dict[tuple[int, int], OutcomeDistribution]
    counts: dict[object, CountsRecord] | None


def _result(entries, convention: str, n: int, tolerance: float, counts=None) -> RunResult:
    """One run's (kind, key, ctx, rows) entries, (1, K) rows, through the stage:
    its report, its distributions and the LP verdict on its coarse pairs."""
    singles, pairs, m, stacked = _analyse(entries, n, convention)
    h_singles = {i: float(h[0]) for i, h in singles.items()}
    h_pairs = {key: float(h[0]) for key, h in pairs.items()}
    dists = [
        OutcomeDistribution(outcome_labels(ctx, convention), rows[0])
        for _, _, ctx, rows in entries
    ]
    return RunResult(
        report=EntropyReport(h_singles, h_pairs, float(m[0]), convention, n),
        feasibility=lp_feasibility(stacked[0], n, tolerance),
        single_dists=dict(zip(h_singles, dists[: n - 2])),
        pair_dists=dict(zip(h_pairs, dists[n - 2 :])),
        coarse_pairs={
            key: OutcomeDistribution(outcome_labels(ctx, "coarse"), row)
            for (_, key, ctx, _), row in zip(entries[n - 2 :], stacked[0])
        },
        counts=counts,
    )


def _counted(contexts, counts_by_key: dict, n: int) -> RunResult:
    """The one counts -> result step, for (kind, key, ctx) in cycle_contexts
    order and a CountsRecord per key. The label style of the counts decides
    the convention: bit-strings are fine records, +/- strings are coarse
    outcomes. The fewest shots set the LP tolerance."""
    fine = {all(isinstance(lb, str) for lb in r.counts) for r in counts_by_key.values()}
    if len(fine) != 1:
        raise ValueError("mixed label conventions across counts records")
    convention = "fine" if fine.pop() else "coarse"
    entries = [
        (kind, key, ctx, _counts_row(counts_by_key[key], ctx, convention))
        for kind, key, ctx in contexts
    ]
    tolerance = lp_tolerance_for(n, min(r.shots for r in counts_by_key.values()))
    return _result(entries, convention, n, tolerance, counts_by_key)


def _noisy_entries(config: ExperimentConfig, observables):
    """Exact (kind, key, ctx, rows) in cycle_contexts order, (1, K) rows from the
    one-state sweep kernel with the config's noise applied, and for sampled
    runs each context's counts, drawn with seed + its position in that order."""
    conv, noise = config.convention, config.noise or NoiseModel()
    amplitudes = prepare_state(config.state).amplitudes[None, :]
    entries = [
        (kind, key, ctx, _noisy_rows(rows, noise, outcome_labels(ctx, conv)))
        for kind, key, ctx, rows in _exact_entries(amplitudes, observables)[conv]
    ]
    counts: dict[object, CountsRecord] = {}
    if config.shots != EXACT:
        for position, (_, key, ctx, rows) in enumerate(entries):
            dist = OutcomeDistribution(outcome_labels(ctx, conv), rows[0])
            counts[key] = sample_counts(dist, config.shots, config.seed + position)
    return entries, counts


def run_experiment(config: ExperimentConfig) -> RunResult:
    """Full pipeline for one configuration.

    Exact runs are deterministic and ignore the seed; sampled runs draw
    each context with seed + context-position so contexts are independent
    but reproducible. Nothing is written: `outputs` is the CLI's report path.
    """
    observables = resolve_observables(config.observable_set)
    n = len(observables)
    entries, counts = _noisy_entries(config, observables)
    if config.shots != EXACT:
        return _counted([entry[:3] for entry in entries], counts, n)
    return _result(entries, config.convention, n, lp_tolerance_for(n, EXACT))


def ingest_counts(
    records: list[tuple[tuple[str, ...], CountsRecord]],
    observable_set: str | tuple[str, ...],
) -> RunResult:
    """Counts for every required context -> entropies, M, LP verdict.

    `records` pairs each counts table with the observable texts of its
    context. The label style of the counts decides the convention:
    bit-strings are fine records, +/- strings are coarse outcomes. Every
    label must be an outcome of its context in that convention.
    """
    observables = resolve_observables(observable_set)
    n = len(observables)
    expected = {
        tuple(str(o) for o in ctx.observables): (kind, key, ctx)
        for kind, key, ctx in cycle_contexts(observables)
    }
    found: dict[tuple[str, ...], CountsRecord] = {}
    for texts, record in records:
        texts = tuple(texts)
        if texts in found:
            raise ValueError(f"duplicate counts for context ({','.join(texts)})")
        if texts in expected:
            found[texts] = record
    missing = [texts for texts in expected if texts not in found]
    if missing:
        names = ", ".join("(" + ",".join(t) + ")" for t in missing)
        raise ValueError(f"missing counts for context {names}")

    counts = {key: found[texts] for texts, (_, key, _) in expected.items()}
    return _counted(list(expected.values()), counts, n)


def ingest_counts_files(paths, observable_set) -> RunResult:
    return ingest_counts([read_counts(p) for p in paths], observable_set)


def reproduce_reference() -> dict:
    """Reconcile the bundled measured entropies with exact simulation.

    For each bundled run: recompute M from the stored entropies, compare
    with the printed M at 1e-5, and report exact-simulation M in both
    conventions with the measured-minus-ideal gaps. Inconsistent printed
    values raise a DISCREPANCY flag; they are reported, never resolved.
    """
    result: dict = {"runs": {}, "flags": []}
    for name, run in REFERENCE_RUNS.items():
        report = run.to_report()
        recomputed = report.m_value
        consistent = abs(recomputed - run.reported_m) <= 1e-5
        if not consistent:
            result["flags"].append(
                f"DISCREPANCY: run {name} entropies recompute to M = "
                f"{recomputed:.11f} but the source table prints "
                f"{run.reported_m}; both values reported, neither adjusted"
            )
        observables = resolve_observables(run.observable_set)
        amplitudes = prepare_state(run.state).amplitudes[None, :]
        ideal = {
            conv: float(_analyse(rows, len(observables), conv)[2][0])
            for conv, rows in _exact_entries(amplitudes, observables).items()
        }
        entry = {
            "recomputed_m": recomputed,
            "reported_m": run.reported_m,
            "consistent": consistent,
            "ideal_m": ideal,
            "measured_minus_ideal": {
                conv: recomputed - m for conv, m in ideal.items()
            },
        }
        if max(ideal.values()) < 0.0 and recomputed > 0.0:
            entry["classification"] = IDEAL_CLASSIFICATION
            result["flags"].append(f"run {name}: {IDEAL_CLASSIFICATION}")
        result["runs"][name] = entry
    return result


def format_reconciliation(result: dict) -> str:
    lines = ["reference reconciliation"]
    for name, entry in result["runs"].items():
        lines.append(f"run {name}:")
        lines.append(
            f"  recomputed M from stored entropies: {entry['recomputed_m']:.11f}"
        )
        lines.append(f"  M printed by the source table:      {entry['reported_m']}")
        lines.append(
            "  consistency at 1e-5: " + ("PASS" if entry["consistent"] else "DISCREPANCY")
        )
        for conv in ("coarse", "fine"):
            lines.append(
                f"  ideal {conv} M: {entry['ideal_m'][conv]:+.11f} "
                f"(measured - ideal = {entry['measured_minus_ideal'][conv]:+.6f})"
            )
        if "classification" in entry:
            lines.append(f"  classification: {entry['classification']}")
    for flag in result["flags"]:
        lines.append(f"flag: {flag}")
    return "\n".join(lines)


def _exact_entries(amplitudes: np.ndarray, observables) -> dict[str, list]:
    """Stage entries of a (batch, 2^n) amplitude array in both conventions,
    from one kernel pass per context: the fine records, and them binned."""
    entries: dict[str, list] = {"coarse": [], "fine": []}
    for kind, key, ctx in cycle_contexts(observables):
        p = record_probabilities(amplitudes, ctx)
        entries["coarse"].append((kind, key, ctx, p @ binning_matrix(ctx)))
        entries["fine"].append((kind, key, ctx, p))
    return entries


def exact_m(
    state: QuantumState,
    observables: tuple[PauliString, ...],
    convention: str,
) -> float:
    """Witness value of the exact simulation in one convention: the one-row
    case of the sweep's analysis."""
    if convention not in ("coarse", "fine"):
        raise ValueError(f"unknown convention {convention!r}")
    entries = _exact_entries(state.amplitudes[None, :], observables)[convention]
    return float(_analyse(entries, len(observables), convention)[2][0])


def sweep(
    family: str,
    alphas,
    betas,
    observable_set: str | tuple[str, ...] = "table1",
) -> list[tuple]:
    """Exact M over a state-parameter grid, from one batched kernel pass per
    context, and each point's LP verdict on its coarse pairs. Rows (alpha,
    beta, M_coarse, M_fine, lp_feasible) sorted by (alpha, beta)."""
    observables = resolve_observables(observable_set)
    n = len(observables)
    a, b = np.asarray(alphas, float), np.asarray(betas, float)
    for name, axis in (("alpha", a), ("beta", b)):
        if axis.size == 0:
            raise ValueError(f"sweep {name} axis is empty; give at least one {name}")
    alpha, beta = np.repeat(a, b.size), np.tile(b, a.size)
    entries = _exact_entries(family_amplitudes(family, alpha, beta), observables)
    _, _, m_coarse, coarse = _analyse(entries["coarse"], n, "coarse")
    m_fine = _analyse(entries["fine"], n, "fine")[2]
    feasible = _feasible_rows(coarse, n, lp_tolerance_for(n, EXACT))
    points = zip(alpha.tolist(), beta.tolist(), m_coarse.tolist(), m_fine.tolist())
    rows = [(*point, verdict) for point, verdict in zip(points, feasible)]
    rows.sort(key=lambda r: (r[0], r[1]))
    return rows


def sweep_summary(rows) -> dict:
    """Maximal-M grid points for each convention. M values within 1e-12 of
    the maximum tie, and the first tied row in (alpha, beta) order wins."""
    summary = {}
    for convention, col in (("coarse", 2), ("fine", 3)):
        top = max(r[col] for r in rows)
        best = min((r for r in rows if r[col] >= top - 1e-12), key=lambda r: r[:2])
        summary[f"max_m_{convention}"] = {
            "alpha": best[0],
            "beta": best[1],
            "m": best[col],
        }
        summary[f"any_positive_{convention}"] = any(r[col] > 0 for r in rows)
    return summary


def context_file_stem(kind: str, key) -> str:
    if kind == "single":
        return f"single_x{key}"
    return f"pair_x{key[0]}x{key[1]}"


def export_qasm_suite(config: ExperimentConfig, out_dir: str) -> list[Path]:
    """One OpenQASM file per cycle context; returns the written paths."""
    observables = resolve_observables(config.observable_set)
    prep = synthesize_prep_circuit(config.state)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for kind, key, ctx in cycle_contexts(observables, config.convention):
        letters = "_".join(str(o) for o in ctx.observables)
        path = out / f"{context_file_stem(kind, key)}_{letters}.qasm"
        path.write_text(export_measurement_circuit(ctx, prep))
        written.append(path)
    return written


def config_to_dict(config: ExperimentConfig) -> dict:
    state: dict = {"family": config.state.family}
    if config.state.explicit_amplitudes is not None:
        state["amplitudes"] = [
            [z.real, z.imag] for z in config.state.explicit_amplitudes
        ]
    else:
        state["alpha"] = config.state.alpha
        state["beta"] = config.state.beta
    data: dict = {
        "observable_set": (
            config.observable_set
            if isinstance(config.observable_set, str)
            else list(config.observable_set)
        ),
        "state": state,
        "convention": config.convention,
        "shots": config.shots,
        "seed": config.seed,
    }
    if config.noise is not None:
        noise: dict = {"epsilon": config.noise.depolarizing_epsilon}
        if config.noise.readout_flip is not None:
            noise["readout_flip"] = [list(r) for r in config.noise.readout_flip]
        data["noise"] = noise
    if config.outputs:
        data["outputs"] = config.outputs
    return data


def _reject_unknown(section: str, data: dict, known: tuple[str, ...]) -> None:
    if not isinstance(data, dict):
        raise ValueError(f"{section} must be a JSON object, not {data!r}")
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ValueError(
            f"unknown {section} key(s) {', '.join(map(repr, unknown))}; "
            f"accepted: {', '.join(known)}"
        )


def _number(where: str, value) -> float:
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{where} must be a number, not {value!r}") from None


def config_from_dict(data: dict) -> ExperimentConfig:
    """Config from its JSON form; unknown keys are rejected, not ignored."""
    _reject_unknown("config", data, tuple(f.name for f in fields(ExperimentConfig)))
    state_d = data.get("state", {})
    _reject_unknown("state", state_d, ("family", "alpha", "beta", "amplitudes"))
    if "amplitudes" in state_d:
        entries = state_d["amplitudes"]
        try:
            pairs = [isinstance(e, (list, tuple)) and len(e) == 2 for e in entries]
            amps = [complex(*e) if p else complex(e) for e, p in zip(entries, pairs)]
        except (TypeError, ValueError):
            amps = None
        if not isinstance(entries, list) or amps is None:
            form = "a list of numbers or [re, im] pairs"
            raise ValueError(f"state amplitudes must be {form}, not {entries!r}")
        state = StatePrepSpec(family="explicit", explicit_amplitudes=tuple(amps))
    else:
        state = StatePrepSpec(
            family=state_d.get("family", "s1"),
            alpha=_number("state alpha", state_d.get("alpha", 0.0)),
            beta=_number("state beta", state_d.get("beta", 0.0)),
        )
    noise = None
    if "noise" in data and data["noise"] is not None:
        noise_d = data["noise"]
        _reject_unknown("noise", noise_d, ("epsilon", "readout_flip"))
        epsilon = _number("noise epsilon", noise_d.get("epsilon", 0.0))
        noise = NoiseModel(epsilon, noise_d.get("readout_flip"))
    observable_set = data.get("observable_set", "table1")
    if not isinstance(observable_set, str):
        observable_set = _texts("observable_set other than a set name", observable_set)
    outputs = data.get("outputs")
    if isinstance(outputs, dict):
        _reject_unknown("outputs", outputs, ("report",))
        outputs = outputs.get("report")
    if not isinstance(outputs, (str, type(None))):
        raise ValueError(f"outputs must be a report path, not {outputs!r}")
    return ExperimentConfig(
        observable_set=observable_set,
        state=state,
        convention=data.get("convention", "fine"),
        shots=data.get("shots", EXACT),
        seed=data.get("seed", 2026),
        noise=noise,
        outputs=outputs,
    )


def load_config(path) -> ExperimentConfig:
    return config_from_dict(json.loads(Path(path).read_text()))


def write_sampled_counts(config: ExperimentConfig, out_dir: str) -> list[Path]:
    """Sample every context of a config and write one counts file each."""
    if config.shots == EXACT:
        raise ValueError("sampling needs an integer shot count")
    observables = resolve_observables(config.observable_set)
    entries, counts = _noisy_entries(config, observables)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for kind, key, ctx, _ in entries:
        path = out / f"{context_file_stem(kind, key)}.json"
        write_counts(path, [str(o) for o in ctx.observables], counts[key])
        paths.append(path)
    return paths
