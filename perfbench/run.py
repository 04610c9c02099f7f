#!/usr/bin/env python3
"""Benchmark entroctx's three routes: exact, oracle and measured.

Run from the repository root:

    python3 perfbench/run.py --workload exact --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Each workload is a single-process closed loop: one caller runs one public
entroctx entry point per operation, waits for it, checks its output, and
goes on with the next input. There are no threads, queues or locks, so no
layer ever waits on another and no wait metrics are reported. BLAS is
pinned to one thread.

With --trace 0 the run reports the end-to-end metrics of BENCHMARK.json;
with --trace 1 it runs each round of operations untraced and then
traced, and reports the per-layer metrics. The last line of standard
output is one JSON object; the lines before it are a readable table. A full record
(machine context, input digest, sample counts, latencies) and the trace
spans are written under .perfbench_out/ in the repository root.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
WORKLOAD_NAMES = ("exact", "oracle", "measured")
# The tail is the latency with exactly this many samples above it.
TAIL_SAMPLES_BEYOND = 10
# Set-ups measured per run: this process's own plus fresh interpreters
# spread over the run; the median is reported.
SETUP_SAMPLES = 7
# Per-round figures are read at this share of the slowest rounds; see
# end_to_end for why.
SLOW_ROUND_SHARE = 0.10


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--smoke",
        action="store_true",
        help="a few rounds of every workload, traced and untraced; fails "
        "unless every check passes and every metric is emitted",
    )
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.smoke and args.workload is None:
        p.error("--workload is required")
    return args


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def quantile(values, share: float) -> float:
    """Linear-interpolation quantile within the data's range."""
    v = sorted(values)
    x = share * (len(v) - 1)
    i = int(x)
    j = min(i + 1, len(v) - 1)
    return v[i] + (v[j] - v[i]) * (x - i)


# -- set-up -------------------------------------------------------------------


def set_up(args):
    """Import entroctx, build the inputs, run the untimed warm-up operation.

    Returns (package, workload, workdir, set-up seconds); set-up seconds
    cover the import and the warm-up operation, not input generation.
    """
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import entroctx

    import_s = time.perf_counter() - t0
    from workloads import WORKLOADS

    workdir = OUT / f"work-{os.getpid()}"
    # A probe only needs the warm-up input.
    size = 1 if args.setup_probe else None
    workload = WORKLOADS[args.workload](entroctx, args.seed, workdir, size)
    t0 = time.perf_counter()
    output = workload.call(0)
    warm_s = time.perf_counter() - t0
    workload.check(0, output)
    # The input pool lives for the whole run; keep the collector from
    # rescanning it during operations, as it would not exist in a caller.
    gc.collect()
    gc.freeze()
    return entroctx, workload, workdir, import_s + warm_s


def setup_probe(args) -> float:
    """Set-up time of a fresh interpreter running the same workload."""
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--setup-probe",
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
    ]
    done = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=False
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


# -- the closed loop ----------------------------------------------------------


class Loop:
    """Runs operations, timing only the entry-point call, checking each."""

    def __init__(self, workload, tracer=None) -> None:
        self.workload = workload
        self.tracer = tracer
        self.latencies_ns: list[int] = []
        self.items: list[int] = []
        self.failed = 0
        self.errors: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.items)

    def run_one(self, i: int) -> None:
        w = self.workload
        k = i % len(w.pool)
        tracer = self.tracer
        done = 0
        try:
            if tracer is not None:
                tracer.op = i
                tracer.active = True
            t0 = time.perf_counter_ns()
            try:
                output = w.call(k)
            finally:
                self.latencies_ns.append(time.perf_counter_ns() - t0)
                if tracer is not None:
                    tracer.active = False
            w.check(k, output)
            done = w.items(k)
        except Exception as exc:  # a raised call or a failed check is a failed operation
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"op {i}: {type(exc).__name__}: {exc}")
        self.items.append(done)

    def run(self, seconds: float) -> None:
        """Whole rounds until `seconds` pass, at least one.

        A later call goes on with the next operation of the sequence.
        """
        size = self.workload.round_size
        deadline = time.perf_counter() + seconds
        i = start = self.attempted
        while i == start or time.perf_counter() < deadline:
            for _ in range(size):
                self.run_one(i)
                i += 1

    @property
    def busy_s(self) -> float:
        return sum(self.latencies_ns) / 1e9

    def rounds(self):
        """(items, latencies in ns) of each complete round."""
        r = self.workload.round_size
        for j in range(0, len(self.items) - r + 1, r):
            yield self.items[j : j + r], self.latencies_ns[j : j + r]


def end_to_end(loop: Loop, setup_samples: list[float]) -> tuple[dict, dict]:
    # The machine this was tuned on switches between two speeds (the same
    # n=5 LP takes 1.0 or 1.7 ms) for seconds at a time, so a median over
    # a run flips with the share of time spent in each. Throughput and
    # median latency are taken per round and read at the slow end (the
    # rate 90% of rounds reach, the median latency 90% of rounds stay
    # under), which every run contains.
    rates = [sum(items) / (sum(lat) / 1e9) for items, lat in loop.rounds()]
    round_p50s = [statistics.median(lat) / 1e6 for _, lat in loop.rounds()]
    lat_ms = sorted(x / 1e6 for x in loop.latencies_ns)
    n = len(lat_ms)
    tail_index = max(n - 1 - TAIL_SAMPLES_BEYOND, 0)
    values = {
        "items_per_s": quantile(rates, SLOW_ROUND_SHARE),
        "op_p50_ms": quantile(round_p50s, 1.0 - SLOW_ROUND_SHARE),
        "op_tail_ms": lat_ms[tail_index],
        "ok_ratio": (loop.attempted - loop.failed) / loop.attempted,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "samples": n,
        "rounds": len(rates),
        "items_per_busy_s": sum(loop.items) / loop.busy_s,
        "all_ops_p50_ms": statistics.median(lat_ms),
        "tail_percentile": 100.0 * (tail_index + 1) / n,
        "failed_ratio": loop.failed / loop.attempted,
        "setup_samples_s": setup_samples,
    }
    return values, detail


# -- traced run ---------------------------------------------------------------


def per_layer(tracer, ops: int, overhead: float) -> dict:
    """Per-operation layer metrics from the spans and counters."""
    from tracing import LAYERS, SPANS

    s = tracer.summary()
    calls, self_ns = s["calls"], s["self_ns"]
    values = {"trace.overhead_ratio": overhead}
    for layer, fn in SPANS:
        name = f"{layer}.{fn}"
        values[f"{name}.calls"] = calls[name] / ops
        values[f"{name}.self_ms"] = self_ns[name] / 1e6 / ops
    total_ns = sum(self_ns.values())
    for layer in LAYERS:
        layer_ns = sum(v for k, v in self_ns.items() if k.split(".")[0] == layer)
        values[f"layer.{layer}.self_ms"] = layer_ns / 1e6 / ops
        values[f"layer.{layer}.self_share"] = layer_ns / total_ns if total_ns else 0.0

    def spans_of(name):
        return s["name"] == tracer.names.index(name)

    lp = spans_of("ncmodels.lp_feasibility")
    sizes, lp_self = s["attr"][lp], s["self_ns_per_span"][lp]
    for n in (5, 7, 9):
        values[f"ncmodels.lp_feasibility.n{n}.self_ms"] = (
            float(lp_self[sizes == n].sum()) / 1e6 / ops
        )
    rows = 4 * sizes + 1  # one per pair outcome, plus normalization
    tableau = 8 * rows * (2**sizes + 2 * rows + 1)
    values["ncmodels.lp_feasibility.tableau_bytes"] = float(tableau.sum()) / ops

    for fn in ("write_counts", "read_counts"):
        file_bytes = s["attr"][spans_of(f"reports.{fn}")]
        values[f"reports.{fn}.bytes"] = float(file_bytes.sum()) / ops

    evaluations = (
        calls["contexts.joint_distribution_coarse"]
        + calls["contexts.joint_distribution_fine"]
    )
    values["contexts.distinct_ratio"] = (
        len(tracer.distinct) / evaluations if evaluations else 1.0
    )
    values["sampling.fit_depolarizing.objective_evals"] = (
        tracer.counts["sampling._entropy_mismatch"] / ops
    )
    return values


def traced_run(args, entroctx, workload) -> tuple[dict, dict, list[Loop]]:
    """Each round untraced, then the same round traced; per-layer values
    per op.

    Alternating round by round keeps the machine's speed drift out of
    trace.overhead_ratio.
    """
    from tracing import LAYERS, Tracer

    tracer = Tracer()
    tracer.calibrate()
    plain, traced = Loop(workload), Loop(workload, tracer)
    deadline = time.perf_counter() + args.seconds * 2.0 / 3.0
    while True:
        plain.run(0.0)
        tracer.install(entroctx)
        try:
            traced.run(0.0)
        finally:
            tracer.uninstall()
        if time.perf_counter() >= deadline:
            break
    values = per_layer(tracer, plain.attempted, traced.busy_s / plain.busy_s)
    attributed_ms = sum(
        values[f"layer.{layer}.self_ms"] for layer in LAYERS
    ) * plain.attempted
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
    tracer.write(spans_path)
    detail = {
        "ops_per_phase": plain.attempted,
        "per_child_ns": tracer.per_child_ns,
        # Corrected self time of every span over the untraced time of the
        # same operations; 1 when the tracer's cost is fully removed.
        "attributed_over_untraced": attributed_ms / 1e3 / plain.busy_s,
        "spans": len(tracer.span_start),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return values, detail, [plain, traced]


# -- reporting ----------------------------------------------------------------


def machine_context() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "machine": platform.machine(),
    }


def run(args) -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "entroctx" / "__init__.py").is_file():
        print(f"perfbench: no entroctx sources under {SRC}", file=sys.stderr)
        return 2
    entroctx, workload, workdir, setup_s = set_up(args)
    try:
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        bench = spec()
        if args.trace:
            values, detail, loops = traced_run(args, entroctx, workload)
            declared = bench["per_layer"]
        else:
            # Set-up time follows the machine's speed, which drifts over
            # seconds, so the fresh-interpreter set-ups are spread over the
            # run, one after each equal segment of operations.
            setup_samples = [setup_s]
            loop = Loop(workload)
            segments = SETUP_SAMPLES - 1
            for _ in range(segments):
                loop.run(args.seconds / segments)
                setup_samples.append(setup_probe(args))
            values, detail = end_to_end(loop, setup_samples)
            loops = [loop]
            declared = bench["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise KeyError(f"metrics not computed: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.failed for loop in loops)
    errors = [e for loop in loops for e in loop.errors]
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "item": workload.item,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "inputs_digest": workload.digest,
        "pool_size": len(workload.pool),
        "machine": machine_context(),
        "detail": detail,
        "errors": errors,
        "latencies_ms": [x / 1e6 for loop in loops for x in loop.latencies_ns],
        "result": result,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    print(
        f"# workload={args.workload} seed={args.seed} trace={args.trace} "
        f"inputs_digest={workload.digest} attempted={attempted} "
        f"failed={failed} item={workload.item!r}"
    )
    print(f"# machine {json.dumps(record['machine'], sort_keys=True)}")
    print(f"# detail {json.dumps(detail, sort_keys=True)}")
    for error in errors:
        print(f"# error {error}")
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


# -- smoke mode ---------------------------------------------------------------


def smoke() -> int:
    """A few rounds of every workload, traced and untraced."""
    bench = spec()
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload",
                workload,
                "--trace",
                str(trace),
                "--seconds",
                "0.1",
            ]
            done = subprocess.run(
                cmd, cwd=ROOT, capture_output=True, text=True, timeout=170, check=False
            )
            tag = f"{workload} trace={trace}"
            if done.returncode != 0:
                problems.append(f"{tag}: exit {done.returncode}: {done.stderr.strip()}")
                continue
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            print("\n".join(lines[:-1]))
            if not result["correct"] or result["failed"]:
                problems.append(f"{tag}: checks failed: {result}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{tag}: metrics or units differ from BENCHMARK.json")
    for problem in problems:
        print(f"SMOKE FAIL {problem}", file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.smoke:
        return smoke()
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
