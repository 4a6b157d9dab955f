import argparse
import dataclasses
import json
import os
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from chaossde import __version__, basis, cli, multiindex, oracle
from chaossde.analysis import gbm_variance_order_limit, moment_columns
from chaossde.basis import make_basis
from chaossde.errors import StepSizeUnderflow
from chaossde.integrator import ToleranceSpec
from chaossde.multiindex import FullTruncation
from chaossde.presets import BENCHMARK_ROWS
from chaossde.propagator import PropagatorSystem, SdeModel, solve
from reference import read_curve_csv, read_report_csv

GALERKIN_REFERENCE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                  "benchmarks", "reference", "galerkin.json")
# dX = X(1 - X) dt + 0.5 X dW, X_0 = 0.5: quadratic drift, so the Galerkin path
LOGISTIC = ["--drift", "0,1,-1", "--diffusion", "0,0.5,0", "--x0", "0.5"]


def run(args):
    return cli.main(args)


# every command, each at a size that runs in well under a second
UNWRITABLE_COMMANDS = [
    ["solve", "--basis", "klcos", "--p", "1", "--k", "2", "--grid", "3"],
    ["table1", "--rows", "k=2,p=1", "--basis", "klcos"],
    ["fig1", "--basis", "klcos", "--p", "1", "--k", "2", "--grid", "11"],
    ["mc", "--basis", "klcos", "--p", "1", "--k", "2", "--paths", "100", "--steps", "2"],
    ["rates", "--k", "2,4,8"]]


def assert_unwritable_is_2(monkeypatch, capsys, argv):
    """``argv`` exits with code 2 and one ``error:`` line, with no solve or draw."""
    def refuse(*args, **kwargs):
        raise AssertionError("computed before the output location was checked")

    monkeypatch.setattr(cli, "solve", refuse)
    monkeypatch.setattr(cli, "sample_expansion", refuse)
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def prefix_cases():
    """(command, shortest unique proper prefix, takes a value) of each long flag."""
    commands = next(action.choices for action in cli.build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    for command, parser in commands.items():
        flags = [f for action in parser._actions for f in action.option_strings
                 if f.startswith("--")]
        for action in parser._actions:
            for flag in action.option_strings:
                unique = [flag[:n] for n in range(3, len(flag))
                          if sum(f.startswith(flag[:n]) for f in flags) == 1]
                if flag.startswith("--") and unique:
                    yield pytest.param(command, unique[0], action.nargs != 0,
                                       id=f"{command}-{flag}")


def strip_wall_time(path):
    import csv

    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    drop = rows[0].index("wall_time_s")
    return [[v for i, v in enumerate(row) if i != drop] for row in rows]


class TestSolveCommand:
    def test_full_truncation_column_count(self, tmp_path):
        out = tmp_path / "sol.csv"
        assert run(["solve", "--basis", "trig", "--p", "1",
                    "--k", "2", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        assert header[0] == "t"
        assert len(header) == 1 + 3  # zero index + two first-order terms
        assert header[1] == "0"
        assert set(header[2:]) == {"a1:1", "a2:1"}
        assert len(lines) == 1 + 101

    def test_second_order_sparse_column_count(self, tmp_path):
        # the sparse text alone selects the 19-index sp2 set, not the
        # 45-index full set of p=2, k=8
        out = tmp_path / "sol.csv"
        assert run(["solve", "--basis", "trig", "--p", "2",
                    "--k", "8", "--sparse", "1,1,1,1,1,1,1,1;2,2,2,2,0,0,0,0",
                    "--out", str(out)]) == 0
        header = out.read_text().splitlines()[0].split(",")
        assert len(header) == 1 + 19

    @pytest.mark.parametrize("command", [
        ["solve", "--basis", "klcos"],
        ["mc", "--basis", "klcos", "--paths", "10", "--steps", "2"]])
    @pytest.mark.parametrize("text", ["2,1,1", "1,1,1;2,0,0"])  # sp1, sp2
    def test_sparse_text_picks_the_truncation(self, tmp_path, monkeypatch, command, text):
        solved = []

        def record(model, spec, *args, **kwargs):
            solved.append(spec)
            raise StepSizeUnderflow("stop after the truncation is chosen", time=0.0)

        monkeypatch.setattr(cli, "solve", record)
        assert run(command + ["--p", "2", "--k", "3", "--sparse", text,
                              "--out", str(tmp_path / "x.csv")]) == 3
        assert solved == [multiindex.parse_sparse_text(text)]

    @pytest.mark.parametrize("command", UNWRITABLE_COMMANDS, ids=lambda c: c[0])
    def test_default_tolerance_is_tolerance_spec(self, tmp_path, monkeypatch, command):
        # --rtol and --atol left out: every command runs at ToleranceSpec()
        built = []
        monkeypatch.setattr(cli, f"cmd_{command[0]}",
                            lambda args, parser, model, tol: built.append(tol) or 0)
        assert run([*command, "--out", str(tmp_path / "x.csv")]) == 0
        assert built == [ToleranceSpec()]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_rows_are_written_one_at_a_time(self, tmp_path, monkeypatch, fmt):
        # klcos p=3, k=16 on 1001 points is a 7.8 MB trajectory; a copy of
        # it, or a list of its rows, would take as much again or more
        args = ["solve", "--basis", "klcos", "--p", "3", "--k", "16", "--grid", "1001",
                "--format", fmt]
        sol = cli.solve(SdeModel.gbm(1.0, 1.0, 1.0), multiindex.FullTruncation(p=3, k=16),
                        make_basis("klcos", 1.0), np.linspace(0.0, 1.0, 1001),
                        ToleranceSpec(rtol=1e-6, atol=1e-9))
        monkeypatch.setattr(cli, "solve", lambda *a, **kw: sol)
        tracemalloc.start()
        try:
            assert run(args + ["--out", str(tmp_path / "x")]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < sol.coeffs.nbytes / 4
        text = (tmp_path / "x").read_text(encoding="utf-8")
        last = [1.0, *sol.coeffs[-1].tolist()]
        if fmt == "csv":
            lines = text.splitlines()
            assert len(lines) == 1 + 1001
            assert lines[-1].split(",") == [format(v, ".17g") for v in last]
        else:
            payload = json.loads(text)
            assert list(payload) == ["metadata", "header", "rows"]
            assert len(payload["rows"]) == 1001
            assert payload["rows"][-1] == last

    def test_bm_mean_column_is_linear(self, tmp_path):
        out = tmp_path / "sol.csv"
        assert run(["solve", "--drift", "1,0,0", "--diffusion", "1,0,0",
                    "--x0", "0.25", "--basis", "trig", "--p", "1", "--k", "2",
                    "--grid", "11", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        col = header.index("0")
        for ln in lines[1:]:
            vals = [float(v) for v in ln.split(",")]
            assert vals[col] == pytest.approx(0.25 + vals[0], abs=1e-9)

    def test_json_mirrors_csv_with_metadata(self, tmp_path):
        csv_out = tmp_path / "sol.csv"
        json_out = tmp_path / "sol.json"
        args = ["solve", "--basis", "haar", "--p", "1",
                "--k", "4", "--grid", "21"]
        assert run(args + ["--out", str(csv_out)]) == 0
        assert run(args + ["--out", str(json_out), "--format", "json"]) == 0
        payload = json.loads(json_out.read_text())
        assert payload["metadata"]["tool"] == "chaossde"
        assert "version" in payload["metadata"]
        assert payload["metadata"]["rtol"] == 1e-6
        csv_lines = csv_out.read_text().splitlines()
        assert payload["header"] == csv_lines[0].split(",")
        first_csv = [float(v) for v in csv_lines[1].split(",")]
        assert payload["rows"][0] == pytest.approx(first_csv)


class TestExitCodes:
    def test_usage_error_is_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["solve", "--basis", "nope", "--p", "1",
                 "--k", "2", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2

    def test_bad_sparse_text_is_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["solve", "--basis", "trig", "--p", "2",
                 "--k", "3", "--sparse", "1,3,2",
                 "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2

    def test_sparse_text_disagreeing_with_p_k_is_2(self, tmp_path, capsys):
        # "2,1,1" is an order-2 set on 3 coordinates
        with pytest.raises(SystemExit) as exc:
            run(["solve", "--basis", "trig", "--p", "3", "--k", "3", "--sparse", "2,1,1",
                 "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "chaossde: error: --p/--k (3/3) disagree with the sparse index (p=2, k=3)")
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("command", ["table1", "fig1"])
    def test_unknown_basis_token_is_2(self, tmp_path, capsys, command):
        out = tmp_path / "x"
        with pytest.raises(SystemExit) as exc:
            run([command, "--basis", "klcos,fourier", "--out", str(out)])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith(
            "error: argument --basis: unknown basis 'fourier'")
        assert not out.exists()

    @pytest.mark.parametrize("option", [["solve", "--trunc", "full"], ["mc", "--trunc", "full"],
                                        ["mc", "--grid", "11"], ["mc", "--stream", "1"],
                                        ["solve", "--sde", "bm"], ["mc", "--mu", "1"],
                                        ["solve", "--sigma", "1"]])
    def test_removed_option_is_2(self, tmp_path, capsys, option):
        command, *flag = option
        with pytest.raises(SystemExit) as exc:
            run([command, "--basis", "trig", "--p", "1", "--k", "2", *flag,
                 "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err

    @pytest.mark.parametrize("command,prefix,takes_value", prefix_cases())
    def test_flag_prefix_is_2(self, tmp_path, capsys, monkeypatch, command, prefix,
                              takes_value):
        # each flag has one spelling: a unique prefix of it is not a second one
        def refuse(*args, **kwargs):
            raise AssertionError("ran with an abbreviated flag")

        monkeypatch.setattr(cli, "solve", refuse)
        problem = ["--basis", "trig", "--p", "1", "--k", "2"] if command in ("solve", "mc") else []
        with pytest.raises(SystemExit) as exc:
            run([command, *problem, prefix, *(["1"] if takes_value else []),
                 "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {prefix}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_abbreviated_rates_flags_are_2(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        with pytest.raises(SystemExit) as exc:
            run(["rates", "--b", "haar", "--diff", "0,1,0", "--k", "4,8,16", "--out", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --b haar --diff 0,1,0" in capsys.readouterr().err
        assert not out.exists()

    def test_parser_is_built_once(self, tmp_path):
        cli.build_parser.cache_clear()
        for name in ("a.csv", "b.csv"):
            assert run(["solve", "--basis", "trig", "--p", "1", "--k", "2", "--grid", "3",
                        "--out", str(tmp_path / name)]) == 0
        assert cli.build_parser.cache_info().misses == 1

    def test_degenerate_grid_is_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["solve", "--basis", "trig", "--p", "1",
                 "--k", "2", "--grid", "1", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", [
        ["solve", "--basis", "trig", "--p", "1", "--k", "2"],
        ["fig1", "--basis", "klcos", "--p", "1", "--k", "2"]])
    def test_empty_grid_is_2(self, tmp_path, capsys, command):
        with pytest.raises(SystemExit) as exc:
            run(command + ["--grid", "0", "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert "grid needs at least 2 points" in capsys.readouterr().err

    def test_rates_without_basis_elements_is_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["rates", "--basis", "trig", "--k", "0,4,8",
                 "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert "need k >= 1" in capsys.readouterr().err

    def test_bad_thread_count_is_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CHAOS_THREADS", "abc")
        with pytest.raises(SystemExit) as exc:
            run(["mc", "--basis", "trig", "--p", "1", "--k", "2", "--paths", "10",
                 "--steps", "2", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert "CHAOS_THREADS" in capsys.readouterr().err

    def test_thread_count_above_cap_is_2(self, tmp_path, monkeypatch, capsys):
        # refused by the size checks ahead of the solve: no pool is started
        monkeypatch.setenv("CHAOS_THREADS", "100000")
        with pytest.raises(SystemExit) as exc:
            run(["mc", "--basis", "trig", "--p", "1", "--k", "2", "--paths", "10",
                 "--steps", "2", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert "CHAOS_THREADS" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value,name", [
        ("--paths", "0", "n_paths"), ("--paths", "-5", "n_paths"),
        ("--steps", "0", "n_steps"), ("--steps", "-3", "n_steps")])
    def test_mc_sizes_below_one_are_2(self, tmp_path, capsys, flag, value, name):
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:  # the last --paths / --steps wins
            run(["mc", "--basis", "trig", "--p", "1", "--k", "2", "--paths", "10",
                 "--steps", "2", flag, value, "--out", str(out)])
        assert exc.value.code == 2
        assert name in capsys.readouterr().err
        assert not out.exists()

    def test_unsampleable_set_is_2_before_the_solve(self, tmp_path, capsys, monkeypatch):
        # orders 0..64 on the first of k coordinates: one path's Hermite
        # table, 8 k (p+1) bytes, exceeds a sampling block
        k = oracle.SAMPLE_BLOCK_BYTES // (8 * 65) + 1

        def refuse(*args, **kwargs):
            raise AssertionError("solved before the size check")

        monkeypatch.setattr(cli, "solve", refuse)
        with pytest.raises(SystemExit) as exc:
            run(["mc", "--basis", "trig", "--p", "64", "--k", str(k),
                 "--sparse", ",".join(["64"] + ["0"] * (k - 1)), "--paths", "10",
                 "--steps", "2", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert f"p=64, k={k} needs {8 * k * 65} bytes" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_order_above_the_hermite_cap_is_2_before_the_solve(self, tmp_path, capsys,
                                                                monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("solved before the order check")

        monkeypatch.setattr(cli, "solve", refuse)
        with pytest.raises(SystemExit) as exc:
            run(["mc", "--basis", "klcos", "--p", "65", "--k", "3", "--paths", "10",
                 "--steps", "2", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert capsys.readouterr().err == "error: order 65 exceeds the cap 64\n"
        assert not (tmp_path / "x.csv").exists()

    def test_oversized_index_set_is_2(self, tmp_path, capsys):
        # p=10, k=64 is 7.2e11 indices: refused from the count, not enumerated
        with pytest.raises(SystemExit) as exc:
            run(["solve", "--basis", "trig", "--p", "10", "--k", "64",
                 "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert "indices, above the cap" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_oversized_dense_array_is_2(self, tmp_path, capsys, monkeypatch):
        # p=1, k=100,000 has 100,001 indices, within MAX_INDICES, but its
        # dense array would need 10^10 int16 cells
        def refuse(*args):
            raise AssertionError("enumerated an oversized set")

        monkeypatch.setattr(multiindex, "_capped_levels", refuse)
        with pytest.raises(SystemExit) as exc:
            run(["solve", "--basis", "trig", "--p", "1", "--k", "100000",
                 "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert "dense cells, above the cap" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("argv,message", [
        (["--basis", "klcos", "--k", "8,16,200000"],
         "truncation p=1, k=200000 has 200001 indices, above the cap of 200000"),
        (["--p", "0", "--k", "8,16,1000000"],
         "a tail sum over k=1000000 needs 1025000000 grid cells, above the cap of 33554432")],
        ids=["set", "tail_grid"])
    def test_rates_oversized_k_is_2_before_any_tail(self, tmp_path, capsys, monkeypatch, argv,
                                                     message):
        # every k's set and (1025, k) tail grid are checked before the first
        # tail: those tails would need 1.53 and 7.64 GiB of float64
        def refuse(*args):
            raise AssertionError("computed a tail")

        monkeypatch.setattr(basis, "antiderivative_grid", refuse)
        with pytest.raises(SystemExit) as exc:
            run(["rates", *argv, "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("command", [
        ["solve", "--basis", "klcos", "--p", "1", "--k", "2"],
        ["fig1", "--basis", "klcos", "--p", "1", "--k", "2"]])
    def test_oversized_grid_is_2(self, tmp_path, capsys, monkeypatch, command):
        # 4e8 points of 3 coefficients: refused from the index count before
        # the grid, or anything else that grows with it, is allocated
        def refuse(*args, **kwargs):
            raise AssertionError("allocated the grid")

        monkeypatch.setattr(np, "linspace", refuse)
        with pytest.raises(SystemExit) as exc:
            run(command + ["--grid", "400000000", "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert "trajectory cells, above the cap" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("flag,value", [("--diffusion", "0,1e150,0"), ("--t-end", "1e-300"),
                                            ("--x0", "inf")])
    def test_first_step_blowup_is_3(self, tmp_path, capsys, flag, value):
        # the first derivative norm overflows (h0 = 0) or is NaN (h0 = NaN)
        out = tmp_path / "x.csv"
        with np.errstate(all="ignore"):
            code = run(["solve", "--basis", "klcos", "--p", "1", "--k", "2", "--grid", "3",
                        flag, value, "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err == ("numerical failure: initial step size is not "
                                           "finite and positive (t=0.0)\n")
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [("--rtol", "nan"), ("--atol", "inf"),
                                            ("--atol", "0")])
    def test_bad_tolerance_is_2(self, tmp_path, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            run(["solve", "--basis", "klcos", "--p", "1", "--k", "2", "--grid", "3",
                 flag, value, "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: tolerances must be finite and positive, got rtol=")
        assert f"{flag[2:]}={float(value)!r}" in err

    @pytest.mark.parametrize("ks", ["4,4,4", "4,8", "8,4,8,4"])
    def test_rates_without_three_distinct_k_is_2(self, tmp_path, capsys, ks):
        with pytest.raises(SystemExit) as exc:
            run(["rates", "--basis", "trig", "--k", ks, "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert capsys.readouterr().err == "error: need at least 3 distinct x values\n"
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("command", [
        ["table1", "--rows", "k=2"], ["fig1", "--p", "1", "--k", "2"], ["rates"]])
    def test_overflowed_moments_are_3(self, tmp_path, capsys, command):
        # mu = 400 overflows the squared mean and exp(2 mu t) of the exact variance
        out = tmp_path / "x"
        code = run([*command, "--drift", "0,400,0", "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: variance or its error is not finite (t=0.8")
        assert "Traceback" not in err and "Warning" not in err
        assert not out.exists() or list(out.iterdir()) == []  # fig1 makes its directory

    @pytest.mark.parametrize("mu, message", [
        ("400", "mean or variance is not finite"),  # the squared mean overflows
        ("300", "a sample statistic is not finite"),  # sampled squares overflow
    ])
    def test_overflowed_mc_statistics_are_3(self, tmp_path, capsys, mu, message):
        out = tmp_path / "x.csv"
        code = run(["mc", "--basis", "trig", "--p", "1", "--k", "2", "--drift", f"0,{mu},0",
                    "--paths", "1000", "--steps", "8", "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert err == f"numerical failure: {message} (t=1.0)\n"
        assert not out.exists()

    def test_infinite_horizon_is_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["solve", "--basis", "klcos", "--p", "1", "--k", "2", "--t-end", "inf",
                 "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == \
            "error: horizon must be finite and positive, got inf"
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("command", [
        ["solve", "--basis", "klcos", "--p", "1", "--k", "2", "--grid", "3",
         "--drift", "0,720,0"],
        ["table1", "--rows", "k=2,p=1", "--drift", "0,720,0"],
        ["mc", "--basis", "trig", "--p", "1", "--k", "2", "--paths", "10", "--steps", "2",
         "--drift", "0,709.7,0"]])
    def test_integrator_overflow_is_3_without_warnings(self, tmp_path, capsys, command):
        # the stages overflow near t = 1; integrate rejects those steps
        # until the step size underflows, and numpy must not warn on the way
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run([*command, "--diffusion", "0,0.1,0", "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: step size underflow (t=0.9")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", UNWRITABLE_COMMANDS, ids=lambda command: command[0])
    def test_unwritable_out_is_2(self, tmp_path, capsys, monkeypatch, command):
        # fig1 makes a missing directory, so every --out sits under a file;
        # it is refused before the first solve or draw
        (tmp_path / "file").write_text("")
        assert_unwritable_is_2(monkeypatch, capsys, [*command, "--out",
                                                     str(tmp_path / "file" / "out")])

    @pytest.mark.parametrize("command", [c for c in UNWRITABLE_COMMANDS if c[0] != "fig1"],
                             ids=lambda command: command[0])
    def test_missing_out_directory_is_2(self, tmp_path, capsys, monkeypatch, command):
        assert_unwritable_is_2(monkeypatch, capsys, [*command, "--out",
                                                     str(tmp_path / "missing" / "x.csv")])
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("command", [c for c in UNWRITABLE_COMMANDS if c[0] != "fig1"],
                             ids=lambda command: command[0])
    def test_directory_out_is_2(self, tmp_path, capsys, monkeypatch, command):
        # an existing directory cannot be opened as the output file
        assert_unwritable_is_2(monkeypatch, capsys, [*command, "--out", str(tmp_path)])

    def test_numerical_failure_is_3(self, tmp_path, monkeypatch):
        def exploding_solve(*args, **kwargs):
            raise StepSizeUnderflow("step size underflow", time=0.42)

        monkeypatch.setattr(cli, "solve", exploding_solve)
        code = run(["solve", "--basis", "trig", "--p", "1",
                    "--k", "2", "--out", str(tmp_path / "x.csv")])
        assert code == 3


class TestTable1Command:
    def test_selected_rows_values(self, tmp_path):
        out = tmp_path / "table.csv"
        assert run(["table1", "--rows", "k=8,p=2", "--out", str(out)]) == 0
        reports = {(r.basis, r.truncation): r for r in read_report_csv(str(out))}
        assert len(reports) == 6  # three truncations x two bases
        assert reports[("klcos", "full")].error_at_T == pytest.approx(1.98, abs=0.01)
        assert reports[("klcos", "sp2")].error_at_T == pytest.approx(2.16, abs=0.01)
        assert reports[("haar", "full")].error_at_T == pytest.approx(1.61, abs=0.01)
        assert reports[("klcos", "full")].n_coeff == 45
        assert reports[("haar", "sp2")].n_coeff == 19

    def test_sparse_row_with_preset_filter(self, tmp_path):
        out = tmp_path / "table.csv"
        assert run(["table1", "--rows", "type=sp13", "--basis", "haar",
                    "--out", str(out)]) == 0
        (report,) = read_report_csv(str(out))
        assert report.k == 16 and report.p == 4 and report.n_coeff == 40
        assert report.error_at_T == pytest.approx(0.07, abs=0.01)
        assert report.sparse.startswith("1,1,1,1,")

    def test_round_trip(self, tmp_path):
        out = tmp_path / "table.csv"
        assert run(["table1", "--rows", "p=2,k=8", "--out", str(out)]) == 0
        reports = read_report_csv(str(out))
        rewritten = tmp_path / "again.csv"
        cli.write_report_csv(str(rewritten), reports)
        assert read_report_csv(str(rewritten)) == reports
        assert rewritten.read_bytes() == out.read_bytes()

    def test_json_reports_mirror_the_csv_rows(self, tmp_path):
        csv_out, json_out = tmp_path / "table.csv", tmp_path / "table.json"
        assert run(["table1", "--rows", "k=2", "--out", str(csv_out)]) == 0
        assert run(["table1", "--rows", "k=2", "--format", "json", "--out", str(json_out)]) == 0
        payload = json.loads(json_out.read_text(encoding="utf-8"))
        assert list(payload) == ["metadata", "reports"]
        assert payload["metadata"] == {"tool": "chaossde", "version": __version__,
                                       "rtol": 1e-6, "atol": 1e-9}
        assert all(list(r) == list(cli.ExperimentReport.FIELDS) for r in payload["reports"])

        def timeless(report):
            return dataclasses.replace(report, wall_time_s=0.0)

        assert [timeless(cli.ExperimentReport(**r)) for r in payload["reports"]] == \
            [timeless(r) for r in read_report_csv(str(csv_out))]

    def test_deterministic_apart_from_wall_time(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["table1", "--rows", "k=2", "--out", str(a)]) == 0
        assert run(["table1", "--rows", "k=2", "--out", str(b)]) == 0
        assert strip_wall_time(str(a)) == strip_wall_time(str(b))

    def test_keeps_no_set_past_its_row(self, tmp_path, monkeypatch):
        # each row is solved on a copy of its spec, so its set is freed with
        # the row, and none is kept with the module-level rows
        rows = tuple(dataclasses.replace(r, spec=dataclasses.replace(r.spec))
                     for r in BENCHMARK_ROWS if r.k == 2)
        monkeypatch.setattr(cli, "BENCHMARK_ROWS", rows)
        solved, live = [], []

        def recording(row, *args):
            solved.append(weakref.ref(row.spec))
            live.append(len({id(spec) for spec in (ref() for ref in solved) if spec}))
            return run_benchmark_row(row, *args)

        run_benchmark_row = cli.run_benchmark_row
        monkeypatch.setattr(cli, "run_benchmark_row", recording)
        out = tmp_path / "t.csv"
        assert run(["table1", "--rows", "k=2", "--out", str(out)]) == 0
        assert len(read_report_csv(str(out))) == len(live) == 2 * len(rows)
        assert max(live) == 1
        assert not any("_index_set" in vars(r.spec) for r in rows)

    def test_largest_row_never_holds_the_trajectory(self):
        # klcos p=5, k=16 has n = 20,349: its 1001-point trajectory alone
        # would be 163 MB, while the streamed moments need two columns
        (row,) = [r for r in BENCHMARK_ROWS if (r.k, r.p, r.trunc_label) == (16, 5, "full")]
        tracemalloc.start()
        try:
            report = cli.run_benchmark_row(row, "klcos", SdeModel.gbm(1.0, 1.0, 1.0),
                                           ToleranceSpec(rtol=1e-6, atol=1e-9))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.n_coeff == 20349
        assert peak < 32 * 2**20

    def test_rhs_calls_are_pinned(self, tmp_path, monkeypatch):
        # the work of the solves: a faster right-hand side must be cheaper
        # calls, not fewer
        calls = []
        rhs = PropagatorSystem.__call__
        monkeypatch.setattr(PropagatorSystem, "__call__",
                            lambda system, t, y: calls.append(t) or rhs(system, t, y))
        assert run(["table1", "--rows", "all", "--out", str(tmp_path / "t.csv")]) == 0
        assert len(calls) == 30_156
        spec = FullTruncation(p=5, k=16)
        for token, want in (("klcos", 452), ("haar", 341)):
            calls.clear()
            solve(SdeModel.gbm(1.0, 1.0, 1.0), spec, make_basis(token),
                  np.linspace(0.0, 1.0, 1001), ToleranceSpec(rtol=1e-6, atol=1e-9),
                  observe=moment_columns)
            assert len(calls) == want

    def test_all_accepts_every_row(self):
        accept = cli._parse_row_filter("all", cli.build_parser())
        assert sum(map(accept, BENCHMARK_ROWS)) == len(BENCHMARK_ROWS) == 42

    def test_bad_filter_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["table1", "--rows", "bogus~3", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2

    # an unparseable clause is a usage error; an unknown key or a non-integer
    # value is reported without a usage line.  Every clause is checked before
    # any row is solved, even when an earlier clause rejects every row.
    @pytest.mark.parametrize("rows,last,usage", [
        ("bogus~3", "chaossde: error: cannot parse row filter clause 'bogus~3'", True),
        ("x=1", "error: unknown row filter key 'x'", False),
        ("k=3,bogus=1", "error: unknown row filter key 'bogus'", False),
        ("k=999,n<=abc", "error: invalid literal for int() with base 10: 'abc'", False)])
    def test_bad_filter_messages(self, tmp_path, capsys, monkeypatch, rows, last, usage):
        def refuse(*args, **kwargs):
            raise AssertionError("a row was solved before the filter was checked")

        monkeypatch.setattr(cli, "_gbm_error", refuse)
        with pytest.raises(SystemExit) as exc:
            run(["table1", "--rows", rows, "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines[-1] == last
        assert lines[0].startswith("usage: chaossde ") == usage
        assert not (tmp_path / "x.csv").exists()


class TestFig1Command:
    def test_curves_written_with_diagnostics(self, tmp_path):
        out = tmp_path / "fig"
        assert run(["fig1", "--basis", "klcos,haar", "--p", "1,2", "--k", "2,4",
                    "--grid", "201", "--out", str(out)]) == 0
        files = sorted(os.listdir(out))
        assert len(files) == 8
        curve = read_curve_csv(str(out / "fig1_klcos_p2_k4.csv"))
        assert set(curve) == {"t", "exact_var", "approx_var", "abs_err"}
        # the trigonometric-family error peaks at the final time
        assert curve["abs_err"].argmax() == len(curve["t"]) - 1
        haar = read_curve_csv(str(out / "fig1_haar_p2_k4.csv"))
        assert "basis_component_err" in haar and "is_dyadic" in haar
        on_dyadic = haar["is_dyadic"] == 1
        assert on_dyadic.sum() == 5
        assert haar["basis_component_err"][on_dyadic].max() <= 1e-6

    def test_haar_diagnostic_columns(self, tmp_path):
        out = tmp_path / "fig"
        assert run(["fig1", "--basis", "haar", "--p", "2", "--k", "4,8",
                    "--grid", "201", "--out", str(out)]) == 0
        grid = np.linspace(0.0, 1.0, 201)
        limit = gbm_variance_order_limit(1.0, 1.0, 1.0, 2, grid)
        for k, cells in ((4, 4), (8, 8)):
            path = out / f"fig1_haar_p2_k{k}.csv"
            lines = path.read_text(encoding="utf-8").splitlines()
            assert lines[0] == ("t,exact_var,approx_var,abs_err,order_limit_var,"
                                "basis_component_err,is_dyadic")
            assert {ln.rsplit(",", 1)[1] for ln in lines[1:]} == {"0", "1"}
            haar = read_curve_csv(str(path))
            # flagged exactly where t is a multiple of 1/2^level
            scaled = haar["t"] * cells
            assert np.array_equal(haar["is_dyadic"] == 1, scaled == np.round(scaled))
            assert np.array_equal(haar["order_limit_var"], limit)
            assert np.array_equal(haar["basis_component_err"],
                                  np.abs(haar["approx_var"] - haar["order_limit_var"]))

    def test_haar_dyadic_flags_on_uneven_grid(self, tmp_path):
        # 100 intervals are not a multiple of the 8 cells of k=5, yet
        # t = 0, 1/4, 1/2, 3/4, 1 are multiples of 1/8 and must be flagged
        out = tmp_path / "fig"
        assert run(["fig1", "--basis", "haar", "--p", "2", "--k", "5",
                    "--grid", "101", "--out", str(out)]) == 0
        haar = read_curve_csv(str(out / "fig1_haar_p2_k5.csv"))
        flagged = haar["t"][haar["is_dyadic"] == 1]
        assert np.array_equal(flagged, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert haar["basis_component_err"][haar["is_dyadic"] == 1].max() <= 1e-6

    def test_grid_cap_counts_the_streamed_columns(self, tmp_path, monkeypatch):
        # p=5, k=16 has 20,349 indices: 20,000 points of them would exceed
        # the trajectory cap, but fig1 holds a few columns per point
        class Solved(Exception):
            pass

        def stop(model, spec, token, grid, tol):
            assert (spec, len(grid)) == (multiindex.FullTruncation(p=5, k=16), 20000)
            raise Solved

        monkeypatch.setattr(cli, "_gbm_error", stop)
        with pytest.raises(Solved):
            run(["fig1", "--basis", "klcos", "--p", "5", "--k", "16", "--grid", "20000",
                 "--out", str(tmp_path / "fig")])

    def test_grid_cap_counts_the_held_columns(self, tmp_path, capsys, monkeypatch):
        # one point more than the cap allows at 7 held columns; two columns
        # per point would let it through
        def refuse(*args, **kwargs):
            raise AssertionError("went past the grid check")

        monkeypatch.setattr(cli, "_gbm_error", refuse)
        monkeypatch.setattr(np, "linspace", refuse)
        points = cli.MAX_TRAJECTORY_CELLS // 7 + 1
        with pytest.raises(SystemExit) as exc:
            run(["fig1", "--basis", "haar", "--p", "1", "--k", "2", "--grid", str(points),
                 "--out", str(tmp_path / "fig")])
        assert exc.value.code == 2
        assert capsys.readouterr().err == (
            f"error: a {points}-point grid of 7 columns needs {7 * points} trajectory "
            f"cells, above the cap of {cli.MAX_TRAJECTORY_CELLS}\n")
        assert not (tmp_path / "fig").exists()

    def test_held_columns_bound_the_peak(self, tmp_path):
        # the grid check counts 7 float64 columns per point: the traced peak
        # grows by at most that much per point, and by more than 6 columns.
        # One untraced run first: the slope read 47.8 B per point when the
        # measured pair ran first in a fresh interpreter, 51.0 B after a run
        assert run(["fig1", "--basis", "haar", "--p", "1", "--k", "2", "--grid", "25001",
                    "--out", str(tmp_path / "warm-up")]) == 0
        peaks = []
        for points in (25001, 100001):
            tracemalloc.start()
            try:
                assert run(["fig1", "--basis", "haar", "--p", "1", "--k", "2",
                            "--grid", str(points), "--out", str(tmp_path / str(points))]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        per_point = (peaks[1] - peaks[0]) / 75000
        assert 6 * 8 < per_point <= 7 * 8

    def test_curve_rows_are_written_one_block_at_a_time(self, tmp_path, monkeypatch):
        # the seven Haar columns as lists of Python floats would take about
        # 28 times the grid; the writer holds one block of rows beside it
        grid = np.linspace(0.0, 1.0, 100001)
        model = SdeModel.gbm(1.0, 1.0, 1.0)
        solved = cli._gbm_error(model, multiindex.FullTruncation(p=1, k=2), "haar", grid,
                                ToleranceSpec(rtol=1e-6, atol=1e-9))
        monkeypatch.setattr(cli, "_gbm_error", lambda *a, **kw: solved)
        out = tmp_path / "fig"
        tracemalloc.start()
        try:
            assert run(["fig1", "--basis", "haar", "--p", "1", "--k", "2", "--grid", "100001",
                        "--out", str(out)]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * grid.nbytes  # the command's own grid and one block of rows
        last = (out / "fig1_haar_p1_k2.csv").read_text(encoding="utf-8").splitlines()[-1]
        curve = solved[1]
        assert last.split(",")[:4] == [format(float(col[-1]), ".17g") for col in
                                      (grid, curve.exact_var, curve.approx_var, curve.values)]

    def test_refused_grid_leaves_no_directory(self, tmp_path, capsys):
        out = tmp_path / "fig"
        with pytest.raises(SystemExit) as exc:
            run(["fig1", "--p", "1", "--k", "2", "--grid", "1", "--out", str(out)])
        assert exc.value.code == 2
        assert capsys.readouterr().err == "error: grid needs at least 2 points, got 1\n"
        assert not out.exists()

    def test_format_option_is_rejected(self, tmp_path, capsys):
        # fig1 writes only CSV curves, so it offers no --format
        out = tmp_path / "fig"
        with pytest.raises(SystemExit) as exc:
            run(["fig1", "--basis", "klcos", "--p", "1", "--k", "2", "--grid", "11",
                 "--out", str(out), "--format", "json"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --format" in capsys.readouterr().err
        assert not out.exists()

    def test_curve_round_trip(self, tmp_path):
        out = tmp_path / "fig"
        assert run(["fig1", "--basis", "klcos", "--p", "1", "--k", "2",
                    "--grid", "51", "--out", str(out)]) == 0
        path = str(out / "fig1_klcos_p1_k2.csv")
        curve = read_curve_csv(path)
        again = tmp_path / "again.csv"
        lines = ["t,exact_var,approx_var,abs_err"]
        for m in range(len(curve["t"])):
            lines.append(",".join(format(curve[c][m], ".17g")
                                  for c in ("t", "exact_var", "approx_var", "abs_err")))
        again.write_text("\n".join(lines) + "\n", encoding="utf-8")
        reread = read_curve_csv(str(again))
        for key in curve:
            assert np.array_equal(curve[key], reread[key])


class TestMcCommand:
    def test_cross_check_report(self, tmp_path):
        out = tmp_path / "mc.json"
        assert run(["mc", "--basis", "trig", "--p", "3",
                    "--k", "4", "--paths", "20000", "--steps", "128",
                    "--seed", "7", "--out", str(out), "--format", "json"]) == 0
        payload = json.loads(out.read_text())
        assert payload["metadata"]["seed"] == 7
        coeff = payload["coefficient_moments"]
        sampled = payload["expansion_sampling"]
        assert abs(sampled["mean"] - coeff["mean"]) <= 5 * sampled["mean_se"]
        assert abs(sampled["variance"] - coeff["variance"]) \
            <= 5 * sampled["variance_se"]
        assert payload["euler"]["n"] == 20000

    def test_csv_output_and_reproducibility(self, tmp_path):
        args = ["mc", "--basis", "haar", "--p", "2", "--k", "2",
                "--paths", "5000", "--steps", "32", "--seed", "3"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().splitlines()
        assert lines[0] == "source,mean,mean_se,variance,variance_se"
        assert [ln.split(",")[0] for ln in lines[1:]] == [
            "coefficients", "expansion", "euler"]

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
    def test_bad_seed_fails_before_the_solve(self, tmp_path, capsys, monkeypatch, seed):
        def refuse(*args, **kwargs):
            raise AssertionError("solved before the seed was checked")

        monkeypatch.setattr(cli, "solve", refuse)
        out = tmp_path / "mc.csv"
        with pytest.raises(SystemExit) as exc:
            run(["mc", "--basis", "trig", "--p", "1", "--k", "2", "--paths", "10",
                 "--steps", "2", "--seed", seed, "--out", str(out)])
        assert exc.value.code == 2
        assert capsys.readouterr().err == "error: seed must fit in 64 bits\n"
        assert not out.exists()


    def test_thread_count_invariant(self, tmp_path, monkeypatch):
        # 70,000 paths are two Philox chunks, so two threads really run
        args = ["mc", "--basis", "trig", "--p", "2", "--k", "2",
                "--paths", "70000", "--steps", "4", "--seed", "11"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        monkeypatch.setenv("CHAOS_THREADS", "1")
        assert run(args + ["--out", str(a)]) == 0
        monkeypatch.setenv("CHAOS_THREADS", "2")
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


    @pytest.mark.parametrize("basis,p,k", [("klcos", 3, 8), ("haar", 2, 16)])
    def test_logistic_matches_the_galerkin_reference(self, tmp_path, basis, p, k):
        # the benchmark's recorded moments of the logistic model at T = 1,
        # solved on a 101-point grid: the solver's steps ignore the grid
        with open(GALERKIN_REFERENCE, encoding="utf-8") as fh:
            want = json.load(fh)[f"{basis}_p{p}_k{k}"]
        out = tmp_path / "mc.json"
        assert run(["mc", *LOGISTIC, "--basis", basis, "--p", str(p), "--k", str(k),
                    "--paths", "20000", "--steps", "8", "--format", "json",
                    "--out", str(out)]) == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        coeff, sampled = payload["coefficient_moments"], payload["expansion_sampling"]
        assert coeff["mean"] == pytest.approx(want["mean"], rel=1e-8)
        assert coeff["variance"] == pytest.approx(want["variance"], rel=1e-8)
        assert abs(sampled["variance"] - coeff["variance"]) <= 5 * sampled["variance_se"]


class TestModelOptions:
    @pytest.mark.parametrize("command", [
        ["table1", "--rows", "k=2"], ["table1", "--rows", "k=999"],
        ["fig1", "--p", "1", "--k", "2"], ["rates"]])
    def test_gbm_commands_refuse_another_shape(self, tmp_path, capsys, monkeypatch, command):
        def refuse(*args, **kwargs):
            raise AssertionError("worked on a model that is not GBM")

        monkeypatch.setattr(cli, "solve", refuse)
        monkeypatch.setattr(cli, "tail_sum", refuse)  # rates refuses before its first tail
        out = tmp_path / "x"
        with pytest.raises(SystemExit) as exc:
            run([*command, "--drift", "0,1,-1", "--out", str(out)])
        assert exc.value.code == 2
        assert capsys.readouterr().err == \
            "error: closed form needs constant x^1 terms and no others\n"
        assert not out.exists()  # fig1 makes no directory, table1 matching no row no file

    @pytest.mark.parametrize("command", [
        ["solve", "--basis", "klcos", "--p", "1", "--k", "2"], ["table1"], ["fig1"], ["rates"],
        ["mc", "--basis", "klcos", "--p", "1", "--k", "2"]])
    @pytest.mark.parametrize("flag,value", [("--drift", "0,1"), ("--diffusion", "0,1,0,0"),
                                            ("--drift", "0,x,1")])
    def test_three_coefficients_or_2(self, tmp_path, capsys, monkeypatch, command, flag,
                                     value):
        def refuse(*args, **kwargs):
            raise AssertionError("solved without three coefficients")

        monkeypatch.setattr(cli, "solve", refuse)
        with pytest.raises(SystemExit) as exc:
            run([*command, flag, value, "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith(
            f"error: argument {flag}: need three numbers c0,c1,c2, got {value!r}")
        assert not (tmp_path / "x").exists()

    def test_default_model_is_gbm(self, tmp_path):
        explicit, default = tmp_path / "explicit.csv", tmp_path / "default.csv"
        args = ["solve", "--basis", "klcos", "--p", "2", "--k", "2", "--grid", "5"]
        assert run(args + ["--out", str(default)]) == 0
        assert run(args + ["--drift", "0,1,0", "--diffusion", "0,1,0", "--x0", "1",
                           "--out", str(explicit)]) == 0
        assert explicit.read_bytes() == default.read_bytes()

    def test_oversized_quadratic_set_is_2(self, tmp_path, capsys):
        # p=6, k=16 has 74,613 indices, within MAX_INDICES, but its Galerkin
        # tensor is refused by its closed-form count
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            run(["solve", *LOGISTIC, "--basis", "klcos", "--p", "6", "--k", "16",
                 "--out", str(out)])
        assert exc.value.code == 2
        assert capsys.readouterr().err == (
            "error: the Galerkin tensor of 74613 indices needs 598753821 candidate entries, "
            "above the cap of 33554432\n")
        assert not out.exists()


class TestRatesCommand:
    def test_tail_slope_reported(self, tmp_path, capsys):
        out = tmp_path / "rates.json"
        assert run(["rates", "--basis", "trig", "--k", "8,16,32,64,128",
                    "--p", "1", "--out", str(out), "--format", "json"]) == 0
        payload = json.loads(out.read_text())
        assert -1.15 <= payload["tail_slope"] <= -0.85
        assert payload["tail_r2"] > 0.99
        assert len(payload["tail_sum"]) == 5
        assert "tail slope" in capsys.readouterr().out

    def test_csv_points(self, tmp_path):
        out = tmp_path / "rates.csv"
        assert run(["rates", "--basis", "haar", "--k", "8,16,32", "--p", "1",
                    "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "basis,p,k,tail_sum,error_at_T"
        assert len(lines) == 4
        tails = [float(ln.split(",")[3]) for ln in lines[1:]]
        assert tails[1] / tails[0] == pytest.approx(0.5, abs=0.08)
