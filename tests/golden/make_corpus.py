"""The golden corpus: what the command line and the demos print and write.

Every artifact is text under a name. A command gives three, its stdout,
stderr and exit code, plus one per file it writes or changes, holding the
file's bytes. The runs cover s1/s2 x coarse/fine x exact/8192 shots x
clean/noisy through `simulate`, `entropies`, `inequality`, `nc-check`,
`sample`, `entropies`/`nc-check --counts` on the sampled files and
`fit-noise`, plus `export-qasm`, the 16x16 s1 and s2 sweeps,
`reproduce-paper` and every demo's output.

`build(workdir)` runs everything inside `workdir` and returns the corpus.
`tests/test_golden.py` compares it byte for byte with the committed
`corpus.json`. Rewrite that file only on purpose, with

    PYTHONPATH=src python tests/golden/make_corpus.py

and say which artifacts changed and why.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import runpy
from pathlib import Path

from entroctx.cli import main

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "corpus.json"
DEMOS = HERE.parents[1] / "demos"

STATES = {
    "s1": ("table1", {"family": "s1", "alpha": 2.9306, "beta": 2.9306}),
    "s2": ("table2", {"family": "s2", "alpha": 2.9306, "beta": -5.7112}),
}
# Readout confusion needs bit-string records, so coarse runs only depolarize.
NOISE = {
    "coarse": {"epsilon": 0.05},
    "fine": {"epsilon": 0.05, "readout_flip": [[0.97, 0.03], [0.02, 0.98]]},
}


def _files(root: Path) -> dict[str, bytes]:
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def _capture(corpus: dict, name: str, root: Path, run) -> None:
    """Run `run()` with cwd `root`; record its output and what it wrote there."""
    before = _files(root)
    out, err = io.StringIO(), io.StringIO()
    home = os.getcwd()
    os.chdir(root)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = run()
            except SystemExit as exc:
                code = exc.code
    finally:
        os.chdir(home)
    corpus[f"{name} | stdout"] = out.getvalue()
    corpus[f"{name} | stderr"] = err.getvalue()
    corpus[f"{name} | exit"] = str(code)
    for path, data in _files(root).items():
        if before.get(path) != data:
            corpus[f"{name} | file {path}"] = data.decode()


def _cli(corpus: dict, root: Path, *argv: str) -> None:
    name = f"{root.name}: entroctx {' '.join(argv)}"
    _capture(corpus, name, root, lambda: main(list(argv)))


def _counts(root: Path) -> list[str]:
    return sorted(p.relative_to(root).as_posix() for p in (root / "counts").glob("*.json"))


def _runs(corpus: dict, workdir: Path) -> None:
    for preset, (observable_set, state) in STATES.items():
        for convention in ("coarse", "fine"):
            for shots in ("exact", "8192"):
                for noise in ("clean", "noisy"):
                    root = workdir / f"{preset}-{convention}-{shots}-{noise}"
                    root.mkdir()
                    if noise == "clean":
                        named = ["--preset", preset]
                        run = [*named, "--convention", convention, "--shots", shots]
                        # `sample --shots` takes an integer; exact configs draw 8192
                        drawn = run if shots != "exact" else run[:4]
                    else:
                        config = {
                            "observable_set": observable_set,
                            "state": state,
                            "convention": convention,
                            "shots": shots if shots == "exact" else int(shots),
                            "seed": 2026,
                            "noise": NOISE[convention],
                        }
                        (root / "config.json").write_text(json.dumps(config))
                        # counts without --preset read the set the files cover
                        named, run, drawn = [], ["--config", "config.json"], None
                    _cli(corpus, root, "simulate", *run, "--out", "report.json")
                    _cli(corpus, root, "entropies", *run)
                    _cli(corpus, root, "inequality", *run)
                    _cli(corpus, root, "nc-check", *run)
                    _cli(corpus, root, "sample", *(drawn or run), "--out", "counts")
                    counts = _counts(root)
                    _cli(corpus, root, "entropies", "--counts", *counts, *named)
                    _cli(corpus, root, "nc-check", "--counts", *counts, *named)
                    fit = run[:2] + (["--convention", convention] if named else [])
                    _cli(corpus, root, "fit-noise", *fit, "--target", "report.json")
                    if shots == "exact" and (convention, noise) in (
                        ("coarse", "clean"),
                        ("fine", "noisy"),
                    ):
                        _cli(corpus, root, "export-qasm", *run[:2], "--out", "qasm")


def build(workdir) -> dict[str, str]:
    """Every artifact, in a fixed order, made inside the empty dir `workdir`."""
    workdir = Path(workdir)
    corpus: dict[str, str] = {}
    _runs(corpus, workdir)
    root = workdir / "paper"
    root.mkdir()
    for family, observable_set in (("s1", "table1"), ("s2", "table2")):
        _cli(corpus, root, "sweep", "--family", family, "--set", observable_set,
             "--out", f"sweep_{family}.csv")
    _cli(corpus, root, "reproduce-paper")
    _cli(corpus, root, "reproduce-paper", "--out", "reconciliation.json")
    root = workdir / "demos"
    root.mkdir()
    for demo in sorted(DEMOS.glob("*.py")):
        _capture(corpus, f"demo {demo.name}", root, functools.partial(_demo, demo))
    return corpus


def _demo(path: Path) -> int:
    runpy.run_path(str(path), run_name="__main__")
    return 0


def dump(corpus: dict[str, str]) -> str:
    return json.dumps(corpus, indent=1) + "\n"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        CORPUS.write_text(dump(build(tmp)))
    print(f"wrote {CORPUS}")
