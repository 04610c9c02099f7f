"""Smoke test of the benchmark itself: a few operations per workload.

Run from the repository root with `python3 -m pytest perfbench -q`.
"""

import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_smoke_every_check_passes_and_every_metric_is_emitted():
    done = subprocess.run(
        [sys.executable, str(RUN), "--smoke"],
        cwd=RUN.parent.parent,
        capture_output=True,
        text=True,
        timeout=600,
        check=False,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert done.stdout.strip().splitlines()[-1] == "smoke: ok"


def test_refuses_to_run_without_the_package(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in RUN.parent.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(
        (RUN.parent.parent / "BENCHMARK.json").read_text()
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=170,
        check=False,
    )
    assert done.returncode != 0
    assert done.stdout == ""
