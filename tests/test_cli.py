"""End-to-end tests of the command-line interface."""

import json
import re
from pathlib import Path

import pytest

from entroctx.cli import build_parser, main
from entroctx.pipeline import config_to_dict, preset_config
from entroctx.reports import read_entropies_file, read_report, report_from_dict


def run_cli(*argv):
    return main(list(argv))


def test_simulate_default_preset(capsys):
    code = run_cli("simulate", "--preset", "s1")
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("H(X") == 8
    assert "H(X2) = " in out
    assert "H(X5X1) = " in out
    assert "[fine convention]" in out
    assert "M = -0.61563755156" in out
    assert "M <= 0: consistent with a noncontextual model" in out
    assert "joint-distribution LP: feasible" in out


def test_simulate_coarse_convention(capsys):
    code = run_cli("simulate", "--preset", "s2", "--convention", "coarse")
    out = capsys.readouterr().out
    assert code == 0
    assert "[coarse convention]" in out
    assert "M = -2.32112131739" in out


def test_simulate_writes_report(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code = run_cli("simulate", "--preset", "s1", "--out", str(out_file))
    out = capsys.readouterr().out
    assert code == 0
    assert f"report written to {out_file}" in out
    report, feasible = read_report(out_file)
    assert feasible is True
    assert report.convention == "fine"


def test_sample_then_entropies_round_trip(tmp_path, capsys):
    counts_dir = tmp_path / "counts"
    code = run_cli(
        "sample",
        "--preset",
        "s1",
        "--shots",
        "4096",
        "--seed",
        "7",
        "--out",
        str(counts_dir),
    )
    out = capsys.readouterr().out
    assert code == 0
    paths = [line for line in out.splitlines() if line.endswith(".json")]
    assert len(paths) == 8
    assert all(Path(p).exists() for p in paths)

    report_file = tmp_path / "from_counts.json"
    code = run_cli(
        "entropies", "--counts", *paths, "--out", str(report_file)
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("H(X") == 8
    report, _ = read_report(report_file)
    assert report.convention == "fine"

    # the same counts drive the inequality command to the same M
    code = run_cli("inequality", "--counts", *paths)
    out = capsys.readouterr().out
    assert code == 0
    assert f"M = {report.m_value:+.11f}" in out


def test_inequality_from_literal_entropies(tmp_path, capsys):
    body = {
        "entropies": {
            "h_singles": {
                "2": 1.06520690834,
                "3": 0.93645713795,
                "4": 1.13336434612,
            },
            "h_pairs": {
                "1-2": 0.96298009177,
                "2-3": 1.09859136316,
                "3-4": 0.93969773354,
                "4-5": 0.96202918695,
                "5-1": 0.95424133222,
            },
        },
        "convention": "coarse",
    }
    target = tmp_path / "measured.json"
    target.write_text(json.dumps(body))
    code = run_cli("inequality", "--entropies", str(target))
    out = capsys.readouterr().out
    assert code == 0
    assert "M = +0.12597" in out
    assert "M > 0: no noncontextual value assignment" in out


def test_nc_check_feasible_for_exact_run(capsys):
    code = run_cli("nc-check", "--preset", "s1")
    out = capsys.readouterr().out
    assert code == 0
    assert "noncontextual joint distribution: feasible" in out


def test_nc_check_infeasible_counts_exit_code(tmp_path, capsys):
    counts_dir = tmp_path / "counts"
    run_cli(
        "sample",
        "--preset",
        "s1",
        "--convention",
        "coarse",
        "--shots",
        "8192",
        "--seed",
        "3",
        "--out",
        str(counts_dir),
    )
    capsys.readouterr()
    # doctor two pair files into contradictory point masses on X2
    for name, label in (("pair_x1x2.json", "++"), ("pair_x2x3.json", "--")):
        path = counts_dir / name
        data = json.loads(path.read_text())
        data["counts"] = {label: data["shots"]}
        path.write_text(json.dumps(data))
    paths = sorted(str(p) for p in counts_dir.glob("*.json"))
    code = run_cli("nc-check", "--counts", *paths)
    out = capsys.readouterr().out
    assert code == 3
    assert "noncontextual joint distribution: infeasible" in out


def test_counts_without_preset_use_the_set_the_files_cover(tmp_path, capsys):
    for preset in ("s1", "s2"):
        run_cli(
            "sample", "--preset", preset, "--convention", "coarse",
            "--out", str(tmp_path / preset),
        )
    capsys.readouterr()
    s2_paths = sorted(str(p) for p in (tmp_path / "s2").glob("*.json"))
    for command in ("entropies", "inequality", "nc-check"):
        inferred = run_cli(command, "--counts", *s2_paths), capsys.readouterr()
        named = run_cli(command, "--preset", "s2", "--counts", *s2_paths)
        assert inferred == (named, capsys.readouterr())
        assert inferred[0] == 0
    s1_paths = sorted(str(p) for p in (tmp_path / "s1").glob("*.json"))
    for paths, which in ((s2_paths[1:], "no"), (s1_paths + s2_paths, "more than one")):
        code = run_cli("inequality", "--counts", *paths)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == (
            f"error: counts files cover the cycle contexts of {which} bundled "
            "observable set (tried table1, table2); pass --preset or --config\n"
        )


def test_sweep_command(tmp_path, capsys):
    out_file = tmp_path / "grid.csv"
    code = run_cli(
        "sweep",
        "--family",
        "s2",
        "--alpha-start",
        "0.5",
        "--alpha-stop",
        "1.5",
        "--alpha-steps",
        "3",
        "--beta-start",
        "-0.5",
        "--beta-stop",
        "0.5",
        "--beta-steps",
        "3",
        "--out",
        str(out_file),
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "max coarse M" in out
    assert "max fine M" in out
    assert "9 rows written" in out
    header = out_file.read_text().splitlines()[0]
    assert header == "alpha,beta,M_coarse,M_fine,lp_feasible"


def test_fit_noise_against_simulated_report(tmp_path, capsys):
    report_file = tmp_path / "target.json"
    run_cli("simulate", "--preset", "s1", "--out", str(report_file))
    capsys.readouterr()
    code = run_cli(
        "fit-noise", "--preset", "s1", "--target", str(report_file)
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "fitted depolarizing weight: 0.0000" in out
    assert "residual is the honest measure" in out


def test_export_qasm_full_and_partial(tmp_path, capsys):
    out_dir = tmp_path / "qasm1"
    code = run_cli("export-qasm", "--preset", "s1", "--out", str(out_dir))
    out = capsys.readouterr().out
    assert code == 0
    assert len(list(out_dir.glob("*.qasm"))) == 8
    assert "skipped" not in out

    config_file = tmp_path / "t2.json"
    config_file.write_text(
        json.dumps(config_to_dict(preset_config("s2")))
    )
    out_dir2 = tmp_path / "qasm2"
    code = run_cli(
        "export-qasm", "--config", str(config_file), "--out", str(out_dir2)
    )
    out = capsys.readouterr().out
    assert code == 0
    assert len(list(out_dir2.glob("*.qasm"))) == 8
    lines = out.splitlines()
    assert len(lines) == 8 and all(line.endswith(".qasm") for line in lines)
    assert "skipped" not in out


def test_reproduce_paper_output(capsys):
    code = run_cli("reproduce-paper")
    out = capsys.readouterr().out
    assert code == 0
    assert "0.31593045534" in out
    assert "0.12597" in out
    assert "DISCREPANCY" in out


def test_error_exit_code(tmp_path, capsys):
    code = run_cli("simulate", "--config", str(tmp_path / "missing.json"))
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error:")


def test_malformed_counts_file_is_named(tmp_path, capsys):
    counts_dir = tmp_path / "counts"
    run_cli("sample", "--preset", "s1", "--out", str(counts_dir))
    capsys.readouterr()
    bad = counts_dir / "pair_x3x4.json"
    data = json.loads(bad.read_text())
    data["shots"] = 10.5
    bad.write_text(json.dumps(data))
    paths = sorted(str(p) for p in counts_dir.glob("*.json"))
    for command in ("nc-check", "entropies"):
        code = run_cli(command, "--counts", *paths)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            f"error: {bad}: shots must be an integer >= 1, not 10.5\n"
        )


def _without(field):
    def edit(data):
        del data[field]
        return data

    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (_without("shots"), "counts file lacks the 'shots' field"),
        (_without("context"), "counts file lacks the 'context' field"),
        (_without("counts"), "counts file lacks the 'counts' field"),
        (lambda data: [data], "counts file lacks the 'context' field"),
        (
            lambda data: {**data, "counts": [5, 3]},
            "counts file 'counts' must be an object, not [5, 3]",
        ),
        (
            lambda data: {**data, "context": "XX,XI"},
            "counts file 'context' must be a list of strings, not 'XX,XI'",
        ),
        (
            lambda data: {**data, "context": ["XX", 1]},
            "counts file 'context' must be a list of strings, not ['XX', 1]",
        ),
    ],
    ids=("no-shots", "no-context", "no-counts", "list-file", "counts-list",
         "context-string", "context-number"),
)
def test_counts_file_with_a_bad_field_is_named(tmp_path, capsys, edit, message):
    # each used to end in a KeyError, TypeError or AttributeError traceback
    counts_dir = tmp_path / "counts"
    run_cli("sample", "--preset", "s1", "--out", str(counts_dir))
    capsys.readouterr()
    bad = counts_dir / "pair_x1x2.json"
    bad.write_text(json.dumps(edit(json.loads(bad.read_text()))))
    paths = sorted(str(p) for p in counts_dir.glob("*.json"))
    code = run_cli("nc-check", "--counts", *paths)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {bad}: {message}\n"


@pytest.mark.parametrize(
    "data, message",
    [
        (
            {"observable_set": [1, 2, 3]},
            "observable_set other than a set name must be a list of strings, "
            "not [1, 2, 3]",
        ),
        (
            {"observable_set": 5},
            "observable_set other than a set name must be a list of strings, not 5",
        ),
        ({"noise": {"readout_flip": 5}}, "readout_flip must be 2x2, not 5"),
        ({"noise": {"readout_flip": []}}, "readout_flip must be 2x2, not []"),
        (
            {"state": {"amplitudes": [[0], 1, 0, 0]}},
            "state amplitudes must be a list of numbers or [re, im] pairs, "
            "not [[0], 1, 0, 0]",
        ),
        (
            {"state": {"amplitudes": 5}},
            "state amplitudes must be a list of numbers or [re, im] pairs, not 5",
        ),
        (
            {"state": {"amplitudes": "1111"}},
            "state amplitudes must be a list of numbers or [re, im] pairs, "
            "not '1111'",
        ),
        ({"state": {"alpha": "x"}}, "state alpha must be a number, not 'x'"),
        ({"state": {"beta": [1.0]}}, "state beta must be a number, not [1.0]"),
        ({"noise": {"epsilon": None}}, "noise epsilon must be a number, not None"),
        ({"noise": {"epsilon": "0.1x"}}, "noise epsilon must be a number, not '0.1x'"),
        (
            {"noise": {"readout_flip": [[1, 0], [0]]}},
            "readout_flip must be 2x2, not [[1, 0], [0]]",
        ),
        (
            {"noise": {"readout_flip": [["a", "b"], ["c", "d"]]}},
            "readout_flip must be 2x2, not [['a', 'b'], ['c', 'd']]",
        ),
    ],
    ids=("set-of-numbers", "set-number", "flip-number", "flip-empty",
         "amplitude-list", "amplitudes-number", "amplitudes-string",
         "alpha-string", "beta-list", "epsilon-null", "epsilon-string",
         "flip-ragged", "flip-strings"),
)
def test_config_with_a_malformed_value_is_named(tmp_path, capsys, data, message):
    # the first, third and fifth used to end in a TypeError traceback; an
    # empty readout_flip used to mean no readout noise and a string of four
    # digits four amplitudes; the last six used to print float()'s or numpy's
    # message, which names neither the key nor the value
    config_file = tmp_path / "bad.json"
    config_file.write_text(json.dumps(data))
    code = run_cli("simulate", "--config", str(config_file))
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_fit_noise_uses_coarse_fallback_like_simulate(tmp_path, capsys):
    # YYZ has no local basis shared with XXI or ZZI; its pairs read full
    # 3-bit records in simulate and fit-noise alike, with no fallback flag
    config_file = tmp_path / "cycle3.json"
    config_file.write_text(
        json.dumps(
            {
                "observable_set": ["XXI", "YYZ", "ZZI"],
                "state": {"family": "explicit", "amplitudes": [[0.5**1.5, 0.0]] * 8},
                "convention": "fine",
            }
        )
    )
    report_file = tmp_path / "cycle3_report.json"
    code = run_cli("simulate", "--config", str(config_file), "--out", str(report_file))
    assert code == 0
    assert "flag:" not in capsys.readouterr().out
    code = run_cli(
        "fit-noise", "--config", str(config_file), "--target", str(report_file)
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "fitted depolarizing weight: 0.0000" in out
    # a target measured on a cycle of another length is refused
    five_cycle = tmp_path / "s1_report.json"
    run_cli("simulate", "--preset", "s1", "--out", str(five_cycle))
    capsys.readouterr()
    code = run_cli("fit-noise", "--config", str(config_file), "--target", str(five_cycle))
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: target has 5 observables")


def test_sweep_degenerate_point_exits_with_error(capsys):
    code = run_cli(
        "sweep", "--alpha-start", "0", "--alpha-stop", "1.5707963267948966",
        "--alpha-steps", "2", "--beta-stop", "0", "--beta-steps", "1",
    )
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: family s1 parameters give the null vector")
    assert "at (alpha, beta) = (1.5707963267948966, 0.0)" in captured.err


def test_sweep_empty_axis_exits_with_error(capsys):
    for flag, axis in (("--alpha-steps", "alpha"), ("--beta-steps", "beta")):
        code = run_cli("sweep", flag, "0")
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            f"error: sweep {axis} axis is empty; give at least one {axis}\n"
        )


@pytest.mark.parametrize(
    "argv, message",
    [
        (("simulate", "--preset", "s1", "--seed", "-1"), "seed must be an integer >= 0, not -1"),
        (("sweep", "--alpha-steps", "-1"), "--alpha-steps must be an integer >= 0, not -1"),
        (("sweep", "--beta-steps", "-3"), "--beta-steps must be an integer >= 0, not -3"),
    ],
    ids=("seed", "alpha-steps", "beta-steps"),
)
def test_negative_seed_and_steps_exit_with_error(argv, message, capsys):
    # an exact run used to accept --seed -1, and a negative step count got
    # numpy's message, which names neither flag
    code = run_cli(*argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_non_finite_state_parameters_exit_with_error(tmp_path, capsys):
    config_file = tmp_path / "nan.json"
    config_file.write_text('{"state": {"family": "s1", "alpha": NaN}}')
    for argv in (
        ("simulate", "--config", str(config_file)),
        ("sweep", "--alpha-start", "nan"),
    ):
        code = run_cli(*argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith(
            "error: family s1 parameters are not finite at (alpha, beta) = (nan, 0.0)"
        )


def test_malformed_entropy_files_exit_with_error(tmp_path, capsys):
    report_file = tmp_path / "report.json"
    run_cli("simulate", "--preset", "s2", "--out", str(report_file))
    capsys.readouterr()
    # a bare table without m_value and convention is neither documented format
    data = json.loads(report_file.read_text())
    # both documented formats load through the one reader
    assert read_entropies_file(report_file).m_value == data["m_value"]
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps({k: data[k] for k in ("h_singles", "h_pairs")}))
    for argv in (
        ("inequality", "--entropies", str(bare)),
        ("fit-noise", "--preset", "s2", "--target", str(bare)),
    ):
        code = run_cli(*argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:")
        assert "'m_value'" in captured.err
    literal = tmp_path / "literal.json"
    literal.write_text(json.dumps({"entropies": {"h_singles": data["h_singles"]}}))
    code = run_cli("inequality", "--entropies", str(literal))
    captured = capsys.readouterr()
    assert code == 1
    assert "'h_pairs'" in captured.err


def test_a_non_finite_readout_flip_exits_with_an_error_naming_it(tmp_path, capsys):
    # NaN passed the 2x2 and row-sum checks, and the run then failed with a
    # non-finite entropy that did not name the flip
    config_file = tmp_path / "nan.json"
    config_file.write_text('{"noise": {"readout_flip": [[NaN, 1], [0, 1]]}}')
    code = run_cli("simulate", "--config", str(config_file))
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: readout_flip must be finite, not [[nan, 1], [0, 1]]\n"


def test_a_report_with_an_unknown_convention_is_refused(tmp_path, capsys):
    report_file = tmp_path / "report.json"
    assert run_cli("simulate", "--preset", "s2", "--out", str(report_file)) == 0
    capsys.readouterr()
    data = {**json.loads(report_file.read_text()), "convention": "bogus"}
    with pytest.raises(ValueError, match="^unknown convention 'bogus'$"):
        report_from_dict(data)


def test_a_report_with_malformed_flags_or_verdict_is_refused(tmp_path, capsys):
    # a string of flags became one flag per letter, which inequality printed,
    # and "lp_feasible": "no" came back as the string
    report_file = tmp_path / "report.json"
    assert run_cli("simulate", "--preset", "s2", "--out", str(report_file)) == 0
    capsys.readouterr()
    data = json.loads(report_file.read_text())
    assert report_from_dict(data)[1] is data["lp_feasible"]
    for field, bad, message in (
        ("flags", "DISCREPANCY", "report 'flags' must be a list of strings"),
        ("flags", ["ok", 1], "report 'flags' must be a list of strings"),
        ("lp_feasible", "no", "report 'lp_feasible' must be true, false or null"),
        ("lp_feasible", 1, "report 'lp_feasible' must be true, false or null"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}, not "):
            report_from_dict({**data, field: bad})
    report_file.write_text(json.dumps({**data, "flags": "DISCREPANCY"}))
    assert run_cli("inequality", "--entropies", str(report_file)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: report 'flags' must be a list of strings, not 'DISCREPANCY'\n"
    )


def test_literal_entropies_with_an_unknown_convention_exit_with_error(tmp_path, capsys):
    # used to print "M = ... [bogus convention]" and exit 0
    singles = {"2": 1.0, "3": 1.0, "4": 1.0}
    pairs = {f"{i}-{i % 5 + 1}": 1.5 for i in range(1, 6)}
    literal = tmp_path / "literal.json"
    body = {"entropies": {"h_singles": singles, "h_pairs": pairs}, "convention": "bogus"}
    literal.write_text(json.dumps(body))
    code = run_cli("inequality", "--entropies", str(literal))
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: unknown convention 'bogus'\n"


def test_out_writes_a_report_for_simulate_and_entropies_only(
    tmp_path, capsys, monkeypatch
):
    # one helper writes every report: simulate and entropies write theirs,
    # inequality and nc-check take no --out, on the run and counts routes
    monkeypatch.chdir(tmp_path)
    run_cli("sample", "--preset", "s1", "--out", "counts")
    counts = sorted(str(p) for p in Path("counts").glob("*.json"))
    capsys.readouterr()
    for route, extra in (("run", ()), ("counts", ("--counts", *counts))):
        for command in ("inequality", "nc-check"):
            with pytest.raises(SystemExit) as exited:
                run_cli(command, "--preset", "s1", *extra, "--out", "none.json")
            assert exited.value.code == 2
            captured = capsys.readouterr()
            assert "written" not in captured.out
            assert "unrecognized arguments: --out none.json" in captured.err
            assert not Path("none.json").exists()
        commands = ("simulate", "entropies") if route == "run" else ("entropies",)
        for command in commands:
            path = f"{command}_{route}.json"
            code = run_cli(command, "--preset", "s1", *extra, "--out", path)
            out = capsys.readouterr().out
            assert code == 0
            assert out.endswith(f"report written to {path}\n")
            report, feasible = read_report(path)
            assert f"M = {report.m_value:+.11f}" in out
            assert feasible is True


def test_config_outputs_is_the_simulate_report_path(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    data = config_to_dict(preset_config("s2"))
    Path("s2.json").write_text(json.dumps({**data, "outputs": "configured.json"}))
    for command in ("entropies", "inequality", "nc-check"):
        assert run_cli(command, "--config", "s2.json") == 0
    assert "written" not in capsys.readouterr().out
    assert not Path("configured.json").exists()
    assert run_cli("simulate", "--config", "s2.json") == 0
    assert capsys.readouterr().out.endswith("report written to configured.json\n")
    assert read_report("configured.json")[0].convention == "fine"
    # --out overrides the configured path
    assert run_cli("simulate", "--config", "s2.json", "--out", "given.json") == 0
    assert capsys.readouterr().out.endswith("report written to given.json\n")
    assert Path("given.json").read_text() == Path("configured.json").read_text()


def test_malformed_outputs_exits_with_error(tmp_path, capsys):
    config_file = tmp_path / "bad.json"
    config_file.write_text(json.dumps({"outputs": 5}))
    code = run_cli("simulate", "--config", str(config_file))
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: outputs must be a report path, not 5\n"


def test_malformed_pair_key_exits_with_error(tmp_path, capsys):
    pairs = {"1-2": 1.0, "2-3": 1.0, "3-4": 1.0, "4-5": 1.0, "51": 1.0}
    body = {"entropies": {"h_singles": {"2": 1.0, "3": 1.0, "4": 1.0}, "h_pairs": pairs}}
    literal = tmp_path / "literal.json"
    literal.write_text(json.dumps(body))
    code = run_cli("inequality", "--entropies", str(literal))
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: bad pair key '51'; use (i, j) or \"i-j\"\n"


RUN = {"config", "preset", "seed", "shots", "convention"}
FLAGS = {
    "simulate": RUN | {"out"},
    "sample": RUN | {"out"},
    "entropies": RUN | {"out", "counts"},
    "inequality": RUN | {"counts", "entropies"},
    "nc-check": RUN | {"counts"},
    "fit-noise": {"config", "preset", "convention", "target"},
    "export-qasm": {"config", "preset", "out"},
    "reproduce-paper": {"out"},
    "sweep": {
        "family", "set", "alpha_start", "alpha_stop", "alpha_steps",
        "beta_start", "beta_stop", "beta_steps", "out",
    },
}
FORMER_COMMON = {
    "config": "x.json", "preset": "s1", "seed": "1", "shots": "1",
    "convention": "fine", "out": "x",
}


def required_flags(command):
    return ("--target", "t.json") if command == "fit-noise" else ()


def settable(parser, command):
    args = parser.parse_args([command, *required_flags(command)])
    return set(vars(args)) - {"command", "func"}


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_each_command_takes_only_the_flags_it_reads(command, capsys):
    required = required_flags(command)
    assert settable(build_parser(), command) == FLAGS[command]
    for flag in sorted(set(FORMER_COMMON) - FLAGS[command]):
        with pytest.raises(SystemExit) as exited:
            run_cli(command, *required, f"--{flag}", FORMER_COMMON[flag])
        assert exited.value.code == 2
        assert f"unrecognized arguments: --{flag}" in capsys.readouterr().err


def test_the_parser_has_49_settable_values():
    parser = build_parser()
    assert sum(len(settable(parser, command)) for command in FLAGS) == 49


@pytest.mark.parametrize(
    "command", sorted(c for c in FLAGS if {"config", "preset"} <= FLAGS[c])
)
def test_config_and_preset_exclude_each_other(command, capsys):
    with pytest.raises(SystemExit) as exited:
        run_cli(command, *required_flags(command), "--config", "x", "--preset", "s2")
    assert exited.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_counts_and_entropies_exclude_each_other(capsys):
    with pytest.raises(SystemExit) as exited:
        run_cli("inequality", "--counts", "c.json", "--entropies", "e.json")
    assert exited.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


@pytest.mark.parametrize("command", ("entropies", "inequality", "nc-check"))
def test_counts_refuse_the_run_flags(command, tmp_path, capsys):
    run_cli("sample", "--preset", "s1", "--out", str(tmp_path))
    counts = sorted(str(p) for p in tmp_path.glob("*.json"))
    capsys.readouterr()
    for extra, named in (
        (("--seed", "3"), "--seed"),
        (("--shots", "100"), "--shots"),
        (("--convention", "coarse"), "--convention"),
        (("--convention", "coarse", "--seed", "3"), "--seed, --convention"),
    ):
        code = run_cli(command, "--counts", *counts, *extra)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: --counts cannot be combined with {named}\n"


def test_entropies_file_refuses_the_run_flags(tmp_path, capsys):
    report_file = tmp_path / "report.json"
    run_cli("simulate", "--preset", "s1", "--out", str(report_file))
    capsys.readouterr()
    for flag, value in (
        ("--config", "x.json"), ("--preset", "s1"), ("--seed", "3"),
        ("--shots", "100"), ("--convention", "coarse"),
    ):
        code = run_cli("inequality", "--entropies", str(report_file), flag, value)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: --entropies cannot be combined with {flag}\n"


def test_sample_shots_is_an_integer(tmp_path, capsys):
    with pytest.raises(SystemExit) as exited:
        run_cli("sample", "--shots", "exact", "--out", str(tmp_path / "none"))
    assert exited.value.code == 2
    assert "argument --shots: invalid int value: 'exact'" in capsys.readouterr().err
    assert not (tmp_path / "none").exists()
    # a preset without an integer shot count still draws 8192 shots
    assert run_cli("sample", "--preset", "s2", "--out", str(tmp_path / "c")) == 0
    files = sorted((tmp_path / "c").glob("*.json"))
    assert len(files) == 8
    assert {json.loads(p.read_text())["shots"] for p in files} == {8192}


def test_exact_lp_residuals_below_1e_12_print_as_zero(capsys):
    assert run_cli("nc-check", "--preset", "s1") == 0
    assert capsys.readouterr().out == (
        "noncontextual joint distribution: feasible\n"
        "max marginal violation: 0.000000e+00\n"
        "total violation (LP optimum): 0.000000e+00\n"
    )
    assert run_cli("simulate", "--preset", "s1") == 0
    out = capsys.readouterr().out
    assert "joint-distribution LP: feasible (max marginal violation 0.000e+00)\n" in out
