"""Measure the benchmark's baseline and its run-to-run spread.

Run from the repository root:

    python3 benchmarks/baseline.py --runs 10 --out benchmarks/baseline.json

For each workload: ``--runs`` untraced runs with seeds 1, 2, ..., then two
pairs of a traced run and an untraced run on a single thread.  The tracing
overhead is the mean over the pairs of the traced pass time minus the
single-thread pass time, both at the reference host speed (see run.py); the
per-layer values come from the last traced run.
Prints, per end-to-end metric, the median of the runs and their spread,
(q3 - q1) / median with the quartiles of statistics.quantiles(n=4), and
writes everything to ``--out``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run

OVERHEAD_PAIRS = 2
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(workload: str, seed: int, trace: int, threads: int = 0) -> dict:
    """One benchmark run in a fresh process; its result record."""
    argv = [sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
            "--trace", str(trace), "--threads", str(threads)]
    proc = subprocess.run(argv, cwd=run.ROOT, capture_output=True, text=True,
                          timeout=600, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: outputs failed their checks")
    record = json.loads((run.OUT / f"result_{workload}_trace{trace}.json").read_text())
    return record


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def measure(workload: str, runs: int) -> dict:
    records = [bench(workload, seed, 0) for seed in range(1, runs + 1)]
    out = {"machine": records[0]["machine"], "end_to_end": {},
           "runs": [{key: r[key] for key in ("seed", "pass_times_s", "probes_s")}
                    for r in records]}
    for metric in SPEC["end_to_end"]:
        name = metric["name"]
        out["end_to_end"][name] = spread([r["metrics"][name]["value"] for r in records])
        line = out["end_to_end"][name]
        print(f"{workload:<11} {name:<12} median {line['median']:.6g} "
              f"spread {line['spread']:.4f} (bound {metric['bound']})", flush=True)
    raw = spread([statistics.median(r["pass_times_s"]) for r in records])
    out["raw_pass_wall_s"] = raw
    print(f"{workload:<11} raw pass wall time median {raw['median']:.6g} "
          f"spread {raw['spread']:.4f}", flush=True)
    if "rates_per_s" in records[0]:
        out["rates_per_s"] = {name: statistics.median(r["rates_per_s"][name] for r in records)
                              for name in records[0]["rates_per_s"]}
    # traced and single-thread runs alternate, so slow drift of the host's
    # speed falls on both sides of each difference
    pairs = []
    for _ in range(OVERHEAD_PAIRS):
        traced = bench(workload, 1, 1)
        single = bench(workload, 1, 0, threads=1)
        pairs.append((traced["pass_s_at_reference_speed"],
                      single["pass_s_at_reference_speed"]))
    overhead = statistics.mean(t - s for t, s in pairs)
    single_pass = statistics.mean(s for _, s in pairs)
    out["per_layer"] = {name: m["value"] for name, m in traced["metrics"].items()}
    out["tracing_overhead"] = {
        "traced_minus_single_thread_pass_s": overhead,
        "share_of_single_thread_pass": overhead / single_pass,
        "pairs_traced_single_s": pairs}
    print(f"{workload:<11} tracing overhead {overhead:+.4f} s "
          f"on {single_pass:.4f} s single-thread", flush=True)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    results = {w: measure(w, args.runs) for w in args.workloads.split(",")}
    if args.out is not None:
        args.out.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
