"""Command-line surface for the cycle-entropy experiment toolkit."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .entropy import cycle_pair_keys, cycle_single_keys
from .pauli import OBSERVABLE_SETS
from .pipeline import (
    EXACT,
    ExperimentConfig,
    cycle_contexts,
    export_qasm_suite,
    format_reconciliation,
    ingest_counts,
    load_config,
    preset_config,
    reproduce_reference,
    run_experiment,
    sweep,
    sweep_summary,
    write_sampled_counts,
)
from .reports import read_counts, read_entropies_file, write_report, write_sweep_csv
from .sampling import fit_depolarizing


def _shots_value(text: str):
    return EXACT if text == EXACT else int(text)


_FLAGS = {
    "config": dict(help="JSON run configuration"),
    "preset": dict(choices=["s1", "s2"], help="built-in run configuration"),
    "seed": dict(type=int, help="sampling seed override"),
    "shots": dict(type=_shots_value, help='shot count or "exact"'),
    "convention": dict(choices=["coarse", "fine"], help="outcome convention"),
    "out": dict(help="output path"),
    "counts": dict(nargs="+", help="counts JSON files (one per context)"),
    "entropies": dict(help="report or literal-entropies JSON file"),
    "target": dict(required=True, help="report or literal-entropies JSON file"),
}
_RUN = ("config", "preset", "seed", "shots", "convention")
_EXCLUSIVE = ({"config", "preset"}, {"counts", "entropies"})


def _add_flags(parser, names, **changed) -> None:
    """Add the named _FLAGS; an _EXCLUSIVE pair's two flags share one group."""
    groups = [(pair, parser.add_mutually_exclusive_group())
              for pair in _EXCLUSIVE if pair <= set(names)]
    for name in names:
        where = next((g for pair, g in groups if name in pair), parser)
        where.add_argument(f"--{name}", **{**_FLAGS[name], **changed.get(name, {})})


def _refuse(args, source: str, names) -> None:
    given = [f"--{name}" for name in names if getattr(args, name) is not None]
    if given:
        raise ValueError(f"{source} cannot be combined with {', '.join(given)}")


def _effective_config(args) -> ExperimentConfig:
    if args.config:
        config = load_config(args.config)
    else:
        config = preset_config(args.preset or "s1")
    for name in ("seed", "shots", "convention"):
        if getattr(args, name, None) is not None:
            config = replace(config, **{name: getattr(args, name)})
    return config


def _noise_floor(value: float) -> float:
    """LP residuals below 1e-12 are float noise and print as 0."""
    return 0.0 if abs(value) < 1e-12 else value


def _print_report(report, feasibility=None) -> None:
    n = report.n_observables
    for i in cycle_single_keys(n):
        print(f"H(X{i}) = {report.h_singles[i]:.11f}")
    for i, j in cycle_pair_keys(n):
        print(f"H(X{i}X{j}) = {report.h_pairs[(i, j)]:.11f}")
    print(f"M = {report.m_value:+.11f}  [{report.convention} convention]")
    if report.m_value > 0:
        print("M > 0: no noncontextual value assignment reproduces these statistics")
    else:
        print("M <= 0: consistent with a noncontextual model")
    if feasibility is not None:
        verdict = "feasible" if feasibility.feasible else "infeasible"
        print(
            f"joint-distribution LP: {verdict} "
            f"(max marginal violation "
            f"{_noise_floor(feasibility.max_constraint_violation):.3e})"
        )
    for flag in report.flags:
        print(f"flag: {flag}")


def _write_report(path, result) -> None:
    write_report(path, result.report, result.feasibility.feasible)
    print(f"report written to {path}")


def _cmd_simulate(args) -> int:
    config = _effective_config(args)
    result = run_experiment(config)
    _print_report(result.report, result.feasibility)
    if args.out or config.outputs:
        _write_report(args.out or config.outputs, result)
    return 0


def _covered_set(records) -> str:
    """The one bundled observable set whose cycle contexts the counts cover."""
    found = {tuple(texts) for texts, _ in records}
    covered = [
        name
        for name, obs in OBSERVABLE_SETS.items()
        if {tuple(map(str, c.observables)) for *_, c in cycle_contexts(obs)} <= found
    ]
    if len(covered) != 1:
        which = "more than one" if covered else "no"
        raise ValueError(
            f"counts files cover the cycle contexts of {which} bundled observable "
            f"set (tried {', '.join(OBSERVABLE_SETS)}); pass --preset or --config"
        )
    return covered[0]


def _result_for_input(args):
    if not args.counts:
        return run_experiment(_effective_config(args))
    _refuse(args, "--counts", ("seed", "shots", "convention"))
    config = _effective_config(args)
    records = [read_counts(path) for path in args.counts]
    named = args.preset or args.config
    observable_set = config.observable_set if named else _covered_set(records)
    return ingest_counts(records, observable_set)


def _cmd_entropies(args) -> int:
    result = _result_for_input(args)
    _print_report(result.report)
    if args.out:
        _write_report(args.out, result)
    return 0


def _cmd_inequality(args) -> int:
    if args.entropies:
        _refuse(args, "--entropies", _RUN)
        _print_report(read_entropies_file(args.entropies))
        return 0
    result = _result_for_input(args)
    _print_report(result.report, result.feasibility)
    return 0


def _cmd_nc_check(args) -> int:
    result = _result_for_input(args)
    feas = result.feasibility
    verdict = "feasible" if feas.feasible else "infeasible"
    print(f"noncontextual joint distribution: {verdict}")
    print(f"max marginal violation: {_noise_floor(feas.max_constraint_violation):.6e}")
    print(f"total violation (LP optimum): {_noise_floor(feas.total_violation):.6e}")
    return 0 if feas.feasible else 3


def _cmd_sample(args) -> int:
    config = _effective_config(args)
    if config.shots == EXACT:
        config = replace(config, shots=8192)
    for path in write_sampled_counts(config, args.out or "counts"):
        print(path)
    return 0


def _cmd_sweep(args) -> int:
    for axis, steps in (("alpha", args.alpha_steps), ("beta", args.beta_steps)):
        if steps < 0:
            raise ValueError(f"--{axis}-steps must be an integer >= 0, not {steps}")
    alphas = np.linspace(args.alpha_start, args.alpha_stop, args.alpha_steps)
    betas = np.linspace(args.beta_start, args.beta_stop, args.beta_steps)
    rows = sweep(args.family, alphas, betas, args.set)
    if args.out:
        write_sweep_csv(args.out, rows)
    summary = sweep_summary(rows)
    for convention in ("coarse", "fine"):
        best = summary[f"max_m_{convention}"]
        print(
            f"max {convention} M = {best['m']:+.6f} at "
            f"alpha={best['alpha']:.4f}, beta={best['beta']:.4f}"
        )
    if args.out:
        print(f"{len(rows)} rows written to {args.out}")
    return 0


def _cmd_fit_noise(args) -> int:
    config = _effective_config(args)
    target = read_entropies_file(args.target)
    exact = run_experiment(replace(config, shots=EXACT, noise=None))
    n = exact.report.n_observables
    if target.n_observables != n:
        raise ValueError(f"target has {target.n_observables} observables, the run {n}")
    dists = [*exact.single_dists.values(), *exact.pair_dists.values()]
    targets = [
        *(target.h_singles[i] for i in exact.single_dists),
        *(target.h_pairs[key] for key in exact.pair_dists),
    ]
    fit = fit_depolarizing(dists, targets)
    print(f"fitted depolarizing weight: {fit.epsilon:.4f}")
    print(f"residual sum of squares: {fit.residual:.6f}")
    print(
        "note: a single scalar cannot pin hardware noise; "
        "the residual is the honest measure of fit quality"
    )
    return 0


def _cmd_export_qasm(args) -> int:
    for path in export_qasm_suite(_effective_config(args), args.out or "qasm"):
        print(path)
    return 0


def _cmd_reproduce(args) -> int:
    result = reproduce_reference()
    print(format_reconciliation(result))
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
        print(f"reconciliation written to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entroctx",
        description=(
            "simulate, sample, and stress-test entropic tests of "
            "noncontextuality on cyclically commuting observable sets"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, flags, text in (
        ("simulate", _cmd_simulate, (*_RUN, "out"),
         "full pipeline for one configuration"),
        ("entropies", _cmd_entropies, (*_RUN, "out", "counts"),
         "entropy table from a run or counts files"),
        ("inequality", _cmd_inequality, (*_RUN, "counts", "entropies"),
         "evaluate the witness M"),
        ("nc-check", _cmd_nc_check, (*_RUN, "counts"),
         "LP feasibility of a noncontextual joint"),
        ("sample", _cmd_sample, (*_RUN, "out"), "draw per-context counts files"),
        ("sweep", _cmd_sweep, (), "exact M over a state-parameter grid"),
        ("fit-noise", _cmd_fit_noise, ("config", "preset", "convention", "target"),
         "fit a depolarizing weight to entropies"),
        ("export-qasm", _cmd_export_qasm, ("config", "preset", "out"),
         "OpenQASM circuit per context"),
        ("reproduce-paper", _cmd_reproduce, ("out",),
         "reconcile bundled measured entropies with exact simulation"),
    ):
        p = sub.add_parser(name, help=text)
        shots = {"type": int, "help": "shot count"} if name == "sample" else {}
        _add_flags(p, flags, shots=shots)
        p.set_defaults(func=func)

    p = sub.choices["sweep"]
    p.add_argument("--family", choices=["s1", "s2"], default="s1")
    p.add_argument("--set", default="table1", help="observable set name")
    p.add_argument("--alpha-start", type=float, default=0.0)
    p.add_argument("--alpha-stop", type=float, default=float(np.pi))
    p.add_argument("--alpha-steps", type=int, default=16)
    p.add_argument("--beta-start", type=float, default=0.0)
    p.add_argument("--beta-stop", type=float, default=float(np.pi))
    p.add_argument("--beta-steps", type=int, default=16)
    p.add_argument("--out", help="CSV output path")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
