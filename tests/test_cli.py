import json
import os

import numpy as np
import pytest

from chaossde import cli
from chaossde.analysis import gbm_variance_order_limit
from chaossde.errors import StepSizeUnderflow


def run(args):
    return cli.main(args)


def strip_wall_time(path):
    import csv

    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    drop = rows[0].index("wall_time_s")
    return [[v for i, v in enumerate(row) if i != drop] for row in rows]


class TestSolveCommand:
    def test_full_truncation_column_count(self, tmp_path):
        out = tmp_path / "sol.csv"
        assert run(["solve", "--sde", "gbm", "--basis", "trig", "--p", "1",
                    "--k", "2", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        assert header[0] == "t"
        assert len(header) == 1 + 3  # zero index + two first-order terms
        assert header[1] == "0"
        assert set(header[2:]) == {"a1:1", "a2:1"}
        assert len(lines) == 1 + 101

    def test_second_order_sparse_column_count(self, tmp_path):
        out = tmp_path / "sol.csv"
        assert run(["solve", "--sde", "gbm", "--basis", "trig", "--p", "2",
                    "--k", "8", "--trunc", "sp2",
                    "--sparse", "1,1,1,1,1,1,1,1;2,2,2,2,0,0,0,0",
                    "--out", str(out)]) == 0
        header = out.read_text().splitlines()[0].split(",")
        assert len(header) == 1 + 19

    def test_bm_mean_column_is_linear(self, tmp_path):
        out = tmp_path / "sol.csv"
        assert run(["solve", "--sde", "bm", "--b", "1.0", "--sigma", "1.0",
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
        args = ["solve", "--sde", "gbm", "--basis", "haar", "--p", "1",
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
            run(["solve", "--sde", "gbm", "--basis", "nope", "--p", "1",
                 "--k", "2", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2

    def test_bad_sparse_text_is_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["solve", "--sde", "gbm", "--basis", "trig", "--p", "2",
                 "--k", "3", "--trunc", "sp1", "--sparse", "1,3,2",
                 "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2

    def test_missing_sparse_text_is_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["solve", "--sde", "gbm", "--basis", "trig", "--p", "2",
                 "--k", "3", "--trunc", "sp1", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2

    def test_degenerate_grid_is_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["solve", "--sde", "gbm", "--basis", "trig", "--p", "1",
                 "--k", "2", "--grid", "1", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2

    def test_bad_thread_count_is_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CHAOS_THREADS", "abc")
        with pytest.raises(SystemExit) as exc:
            run(["mc", "--basis", "trig", "--p", "1", "--k", "2", "--paths", "10",
                 "--steps", "2", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert "CHAOS_THREADS" in capsys.readouterr().err

    def test_oversized_index_set_is_2(self, tmp_path, capsys):
        # p=10, k=64 is 7.2e11 indices: refused from the count, not enumerated
        with pytest.raises(SystemExit) as exc:
            run(["solve", "--basis", "trig", "--p", "10", "--k", "64",
                 "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert "indices, above the cap" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_numerical_failure_is_3(self, tmp_path, monkeypatch):
        def exploding_solve(*args, **kwargs):
            raise StepSizeUnderflow("step size underflow", time=0.42)

        monkeypatch.setattr(cli, "solve", exploding_solve)
        code = run(["solve", "--sde", "gbm", "--basis", "trig", "--p", "1",
                    "--k", "2", "--out", str(tmp_path / "x.csv")])
        assert code == 3


class TestTable1Command:
    def test_selected_rows_values(self, tmp_path):
        out = tmp_path / "table.csv"
        assert run(["table1", "--rows", "k=8,p=2", "--out", str(out)]) == 0
        reports = {(r.basis, r.truncation): r for r in cli.read_report_csv(str(out))}
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
        (report,) = cli.read_report_csv(str(out))
        assert report.k == 16 and report.p == 4 and report.n_coeff == 40
        assert report.error_at_T == pytest.approx(0.07, abs=0.01)
        assert report.sparse.startswith("1,1,1,1,")

    def test_round_trip(self, tmp_path):
        out = tmp_path / "table.csv"
        assert run(["table1", "--rows", "p=2,k=8", "--out", str(out)]) == 0
        reports = cli.read_report_csv(str(out))
        rewritten = tmp_path / "again.csv"
        cli.write_report_csv(str(rewritten), reports)
        assert cli.read_report_csv(str(rewritten)) == reports
        assert rewritten.read_bytes() == out.read_bytes()

    def test_deterministic_apart_from_wall_time(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["table1", "--rows", "k=2", "--out", str(a)]) == 0
        assert run(["table1", "--rows", "k=2", "--out", str(b)]) == 0
        assert strip_wall_time(str(a)) == strip_wall_time(str(b))

    def test_bad_filter_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["table1", "--rows", "bogus~3", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2


class TestFig1Command:
    def test_curves_written_with_diagnostics(self, tmp_path):
        out = tmp_path / "fig"
        assert run(["fig1", "--basis", "klcos,haar", "--p", "1,2", "--k", "2,4",
                    "--grid", "201", "--out", str(out)]) == 0
        files = sorted(os.listdir(out))
        assert len(files) == 8
        curve = cli.read_curve_csv(str(out / "fig1_klcos_p2_k4.csv"))
        assert set(curve) == {"t", "exact_var", "approx_var", "abs_err"}
        # the trigonometric-family error peaks at the final time
        assert curve["abs_err"].argmax() == len(curve["t"]) - 1
        haar = cli.read_curve_csv(str(out / "fig1_haar_p2_k4.csv"))
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
            haar = cli.read_curve_csv(str(path))
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
        haar = cli.read_curve_csv(str(out / "fig1_haar_p2_k5.csv"))
        flagged = haar["t"][haar["is_dyadic"] == 1]
        assert np.array_equal(flagged, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert haar["basis_component_err"][haar["is_dyadic"] == 1].max() <= 1e-6

    def test_curve_round_trip(self, tmp_path):
        out = tmp_path / "fig"
        assert run(["fig1", "--basis", "klcos", "--p", "1", "--k", "2",
                    "--grid", "51", "--out", str(out)]) == 0
        path = str(out / "fig1_klcos_p1_k2.csv")
        curve = cli.read_curve_csv(path)
        again = tmp_path / "again.csv"
        lines = ["t,exact_var,approx_var,abs_err"]
        for m in range(len(curve["t"])):
            lines.append(",".join(format(curve[c][m], ".17g")
                                  for c in ("t", "exact_var", "approx_var", "abs_err")))
        again.write_text("\n".join(lines) + "\n", encoding="utf-8")
        reread = cli.read_curve_csv(str(again))
        for key in curve:
            assert np.array_equal(curve[key], reread[key])


class TestMcCommand:
    def test_cross_check_report(self, tmp_path):
        out = tmp_path / "mc.json"
        assert run(["mc", "--sde", "gbm", "--basis", "trig", "--p", "3",
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
        args = ["mc", "--sde", "gbm", "--basis", "haar", "--p", "2", "--k", "2",
                "--paths", "5000", "--steps", "32", "--seed", "3"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().splitlines()
        assert lines[0] == "source,mean,mean_se,variance,variance_se"
        assert [ln.split(",")[0] for ln in lines[1:]] == [
            "coefficients", "expansion", "euler"]


    def test_thread_count_invariant(self, tmp_path, monkeypatch):
        # 70,000 paths are two Philox chunks, so two threads really run
        args = ["mc", "--sde", "gbm", "--basis", "trig", "--p", "2", "--k", "2",
                "--paths", "70000", "--steps", "4", "--seed", "11"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        monkeypatch.setenv("CHAOS_THREADS", "1")
        assert run(args + ["--out", str(a)]) == 0
        monkeypatch.setenv("CHAOS_THREADS", "2")
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


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
