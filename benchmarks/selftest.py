"""Fast self-test of the benchmark at tiny sizes.

Run from the repository root:

    python3 benchmarks/selftest.py

Runs every workload once untraced and twice traced at tiny sizes (table1
rows with k=2, one Monte Carlo chunk of 4096 paths and 8 Euler steps) and
checks that

- every metric named in BENCHMARK.json is printed with its unit,
- the traced counters repeat exactly between the two traced runs,
- an output corrupted inside the package is counted as a failure.

Exits with 0 when all checks hold and 1 otherwise.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys
from unittest import mock

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
problems: list[str] = []


def check(ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)
        print(f"FAIL {message}")


def bench(workload: str, trace: int) -> tuple[str, dict]:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = run.main(["--workload", workload, "--seconds", "0.01",
                       "--trace", str(trace)], sizes=run.TINY)
    text = stdout.getvalue()
    check(rc == 0, f"{workload} trace {trace} exited with {rc}")
    return text, json.loads(text.splitlines()[-1])


def check_names(workload: str, trace: int, text: str, result: dict) -> None:
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    check(set(result["metrics"]) == {spec["name"] for spec in wanted},
          f"{workload} trace {trace}: printed metrics differ from BENCHMARK.json")
    lines = text.splitlines()
    for spec in wanted:
        got = result["metrics"].get(spec["name"], {})
        check(got.get("unit") == spec["unit"],
              f"{workload}: {spec['name']} has unit {got.get('unit')!r}")
        check(any(ln.startswith(spec["name"] + ": ") and ln.endswith(" " + spec["unit"])
                  for ln in lines), f"{workload}: no line prints {spec['name']}")


def corruptions(m):
    """Per workload: a patch that corrupts outputs, and the failures per pass."""
    write_report_csv = m.cli.write_report_csv
    third_moment = m.analysis.third_moment
    euler_maruyama = m.oracle.euler_maruyama

    def bad_table(path, reports):
        first = reports[0]
        reports = [dataclasses.replace(first, error_at_T=first.error_at_T * (1 + 1e-12)),
                   *reports[1:]]
        write_report_csv(path, reports)

    def bad_euler(*args, **kwargs):
        stats = euler_maruyama(*args, **kwargs)
        return dataclasses.replace(stats, mean=stats.mean + 10 * stats.mean_se)

    return {
        "table1": (mock.patch.object(m.cli, "write_report_csv", bad_table), 1),
        "galerkin": (mock.patch.object(
            m.analysis, "third_moment", lambda *a: third_moment(*a) * (1 + 1e-6)), 2),
        "montecarlo": (mock.patch.object(m.oracle, "euler_maruyama", bad_euler), 1),
    }


def main() -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    check(sorted(names) == sorted(run.WORKLOADS), "BENCHMARK.json names other workloads")
    patches = corruptions(run.load_chaossde())
    for workload in names:
        text, result = bench(workload, 0)
        check(result["correct"] and result["failed"] == 0,
              f"{workload}: outputs fail their checks")
        check_names(workload, 0, text, result)

        counters = []
        for _ in range(2):
            text, result = bench(workload, 1)
            check_names(workload, 1, text, result)
            counters.append({k: v["value"] for k, v in result["metrics"].items()
                             if v["unit"] == "count"})
        check(counters[0] == counters[1], f"{workload}: counters differ between runs")

        patch, per_pass = patches[workload]
        with patch:
            _, result = bench(workload, 0)
        # one pass runs, so exactly the corrupted operations of that pass fail
        check(not result["correct"] and result["failed"] == per_pass,
              f"{workload}: a corrupted output was not counted as failed")
        print(f"{workload}: checked")
    print("selftest:", "ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
