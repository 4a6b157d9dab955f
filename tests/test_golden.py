"""CLI outputs compared byte for byte with files recorded under tests/golden.

Each command below runs in process and must write exactly the recorded
bytes.  A change that alters any of them changes the numbers the CLI
reports; re-record the file only when that change is intended, and say
why in CHANGES.md.
"""
from pathlib import Path

import pytest

from chaossde import cli

GOLDEN = Path(__file__).parent / "golden"
SPARSE_SP2 = "1,1,1,1,1,1,1,1;2,2,2,2,0,0,0,0"
LOGISTIC = ["--drift", "0,1,-1", "--diffusion", "0,0.5,0", "--x0", "0.5"]

FILE_OUTPUTS = {
    "solve_klcos_p2_k4.csv": ["solve", "--basis", "klcos", "--p", "2", "--k", "4",
                              "--grid", "11"],
    "solve_klcos_p2_k4.json": ["solve", "--basis", "klcos", "--p", "2", "--k", "4",
                               "--grid", "11", "--format", "json"],
    "solve_klcos_sp2.csv": ["solve", "--basis", "klcos", "--p", "2", "--k", "8",
                            "--sparse", SPARSE_SP2, "--grid", "11"],
    "mc_klcos_p2_k4.json": ["mc", "--basis", "klcos", "--p", "2", "--k", "4",
                            "--paths", "70000", "--steps", "8",
                            "--seed", "7", "--format", "json"],
    "rates_trig_p1.csv": ["rates", "--basis", "trig", "--k", "4,8,16"],
    # grid points on the Haar breakpoints of a non-unit horizon
    "solve_haar_p2_k8_t2.csv": ["solve", "--basis", "haar", "--p", "2", "--k", "8",
                                "--grid", "33", "--t-end", "2"],
    # a horizon that is not a power of two: T i / 8 and t / T round apart, so
    # the Haar cell must be read off the breakpoints themselves
    "solve_haar_p2_k8_t07.csv": ["solve", "--basis", "haar", "--p", "2", "--k", "8",
                                 "--grid", "33", "--t-end", "0.7"],
    # constant c0 coefficients and the trig evaluator
    "solve_bm_trig_p1_k5.csv": ["solve", "--drift", "1,0,0", "--diffusion", "1,0,0",
                                "--basis", "trig", "--p", "1", "--k", "5", "--grid", "11"],
    # the logistic model dX = X(1 - X) dt + 0.5 X dW: the Galerkin tensor
    # and the quadratic Euler update
    "solve_logistic_klcos_p3_k4.csv": ["solve", *LOGISTIC, "--basis", "klcos", "--p", "3",
                                       "--k", "4", "--grid", "11"],
    # the Haar cell ladder fed by the Galerkin tensor of the quadratic drift
    "solve_logistic_haar_p2_k8.csv": ["solve", *LOGISTIC, "--basis", "haar", "--p", "2",
                                      "--k", "8", "--grid", "33"],
    "mc_logistic_klcos_p2_k4.json": ["mc", *LOGISTIC, "--basis", "klcos", "--p", "2",
                                     "--k", "4", "--paths", "70000", "--steps", "8",
                                     "--seed", "7", "--format", "json"],
}


@pytest.mark.parametrize("name", sorted(FILE_OUTPUTS))
def test_file_output(name, tmp_path, monkeypatch, capsys):
    # two threads over the two path chunks of the mc run
    monkeypatch.setenv("CHAOS_THREADS", "2")
    out = tmp_path / name
    assert cli.main(FILE_OUTPUTS[name] + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()
    if name.startswith("rates"):
        stdout = capsys.readouterr().out
        assert stdout == (GOLDEN / "rates_trig_p1.stdout").read_text(encoding="utf-8")


def test_fig1_haar_curve(tmp_path):
    assert cli.main(["fig1", "--basis", "haar", "--p", "2", "--k", "5", "--grid", "101",
                     "--out", str(tmp_path)]) == 0
    name = "fig1_haar_p2_k5.csv"
    assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()
