"""Layered benchmark of chaossde.

Run from the repository root:

    python3 benchmarks/run.py --workload table1 --seed 1 --seconds 30 --trace 0

Workloads (each a closed loop: one caller runs a fixed batch, a "pass",
again and again in one process until ``--seconds`` are used up):

table1      ``chaossde table1 --rows all`` in process: the paper's error
            table, 84 affine GBM solves on a 1001-point grid.
galerkin    the logistic SDE dX = X(1-X) dt + 0.5 X dW on two index sets;
            the only workload that runs the quadratic Galerkin path.
montecarlo  expansion sampling and the Euler scheme for GBM on trig
            (p=5, k=8), the acceptance Monte Carlo check scaled down.

``--trace 0`` prints the end-to-end metrics, with CHAOS_THREADS set to the
cores this process may run on.  Their times are wall times scaled to a
reference host speed measured next to each timed region (see PROBE_REF_S);
the raw wall times are printed and recorded too.  ``--trace 1`` runs on one
thread with spans around the calls into each module and prints per-layer
self times and counters.  Every pass's outputs are checked; a mismatch or an exception
counts as a failed operation.  The last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Spans, pass times and the machine record are written to ``.bench_out/``.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
REFERENCE = BENCH / "reference"
DEFAULT_SEED = 20250807
# relative tolerance of the galerkin moment checks: far below the solver's
# rtol of 1e-6, loose enough for a reordered (vectorised) Galerkin sum
GALERKIN_RTOL = 1e-8
# Monte Carlo checks, in standard errors.  The expansion variance's z-score
# has a heavy lower tail (its SE comes from the sample fourth moment, which is
# small exactly when the sample misses the upper tail): over seeds 0..316,
# 3 runs fell below -3 SE and the lowest was -3.20, so 3 SE would fail correct
# code about once in a hundred seeds.
EXPANSION_SE = 5.0
EULER_SE = 4.0
# The 2-core host this benchmark was written on shares its cores with other
# tenants, and its speed drifts by up to half over tens of seconds: a fixed
# pure-Python loop took 7.6 to 11.5 ms within one minute, on either core, and
# the galerkin pass's raw median moved between 1.03 and 1.57 s from one run to
# the next (q3 - q1 over the median of ten runs: 0.36).  So every timed region
# is bracketed by that loop, the host-speed probe, and each timed region is
# reported in seconds at the probe's reference speed,
#     time * PROBE_REF_S / mean probe time just before and after it,
# before taking medians.  Over the same ten runs per workload this gave
# spreads (q3 - q1 over the median) of 0.14, 0.05 and 0.09 for table1,
# galerkin and montecarlo, against 0.18, 0.12 and 0.05 for raw wall times
# (and 0.17, 0.12, 0.16 for scaling by the run's median probe).  Raw wall
# times are printed and recorded next to the scaled ones.
PROBE_REF_S = 0.008


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; FULL is the benchmark, TINY the self-test."""

    table1_k: int | None  # None runs every row, else only rows with this k
    mc_paths: int
    mc_steps: int
    setup_samples: int  # set-ups timed per run, the first in this process


FULL = Sizes(table1_k=None, mc_paths=262_144, mc_steps=512, setup_samples=5)
TINY = Sizes(table1_k=2, mc_paths=4096, mc_steps=8, setup_samples=1)


def load_chaossde() -> SimpleNamespace:
    """Import the package from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "chaossde" / "__init__.py").is_file():
        raise ImportError(f"no chaossde package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import numpy
    import scipy

    import chaossde
    from chaossde import (analysis, basis, cli, hermite, integrator,
                          multiindex, oracle, propagator)
    if Path(chaossde.__file__).resolve().parent != (src / "chaossde").resolve():
        raise ImportError(f"chaossde imported from {chaossde.__file__}, not {src}")
    return SimpleNamespace(np=numpy, scipy=scipy, analysis=analysis, basis=basis,
                           cli=cli, hermite=hermite, integrator=integrator,
                           multiindex=multiindex, oracle=oracle,
                           propagator=propagator)


def load_reference(name: str) -> dict:
    """A recorded reference; empty while record_reference.py has not run."""
    path = REFERENCE / name
    return json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}


def _close(value: float, want: float, rtol: float) -> bool:
    return math.isfinite(value) and abs(value - want) <= rtol * abs(want)


class Table1:
    """The paper's variance-error table through the CLI entry point."""

    def __init__(self, m, seed: int, sizes: Sizes):
        self.m = m
        self.rows = "all" if sizes.table1_k is None else f"k={sizes.table1_k}"
        self.out = OUT / "table1.csv"
        self.expected = _strip_wall_time(
            (REFERENCE / "table1.csv").read_text(encoding="utf-8"), sizes.table1_k)

    def run_pass(self) -> list[bool]:
        rc = self.m.cli.main(["table1", "--rows", self.rows, "--out", str(self.out)])
        text = self.out.read_text(encoding="utf-8")
        return [rc == 0 and _strip_wall_time(text) == self.expected]


def _strip_wall_time(text: str, k: int | None = None) -> str:
    """The table CSV without its wall_time_s column (and rows of other k)."""
    rows = list(csv.reader(io.StringIO(text, newline="")))
    header = rows[0]
    drop = header.index("wall_time_s") if "wall_time_s" in header else None
    k_col = header.index("k")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for n, row in enumerate(rows):
        if n and k is not None and row[k_col] != str(k):
            continue
        writer.writerow([v for i, v in enumerate(row) if i != drop])
    return buf.getvalue()


class Galerkin:
    """Logistic SDE: solve, then mean, variance and third moment at T=1."""

    CONFIGS = (("klcos", 3, 8), ("haar", 2, 16))

    def __init__(self, m, seed: int, sizes: Sizes):
        self.m = m
        self.model = m.propagator.SdeModel((0.0, 1.0, -1.0), (0.0, 0.5, 0.0), 0.5)
        self.grid = m.np.linspace(0.0, 1.0, 101)
        self.tol = m.integrator.ToleranceSpec(rtol=1e-6, atol=1e-9)
        self.cases = [(f"{b}_p{p}_k{k}", m.basis.make_basis(b),
                       m.multiindex.FullTruncation(p=p, k=k))
                      for b, p, k in self.CONFIGS]
        self.reference = load_reference("galerkin.json")

    def outputs(self, basis, spec) -> dict:
        m = self.m
        sol = m.propagator.solve(self.model, spec, basis, self.grid, self.tol)
        mean, variance = m.analysis.moments(sol, 1.0)
        third = m.analysis.third_moment(sol, 1.0)
        return {"n": len(sol.index_set), "mean": mean, "variance": variance,
                "third": third}

    def run_pass(self) -> list[bool]:
        results = []
        for name, basis, spec in self.cases:
            got, want = self.outputs(basis, spec), self.reference.get(name)
            results.append(want is not None and got["n"] == want["n"] and all(
                _close(got[key], want[key], GALERKIN_RTOL)
                for key in ("mean", "variance", "third")))
        return results


class MonteCarlo:
    """Expansion sampling and the Euler scheme for GBM (mu = sigma = x0 = 1).

    The expansion is solved once during set-up.  The seed selects the Philox
    substreams: RngSpec(seed, 0) for the expansion, RngSpec(seed, 1) for
    Euler.  At the default seed and full sizes the statistics must equal the
    recorded reference bit for bit; at every seed the expansion variance must
    lie within EXPANSION_SE standard errors of the coefficient variance and
    the Euler mean within EULER_SE of the scheme's exact mean
    x0 (1 + mu dt)^steps, which leaves the discretisation bias out of the
    check.
    """

    def __init__(self, m, seed: int, sizes: Sizes):
        self.m = m
        self.paths, self.steps = sizes.mc_paths, sizes.mc_steps
        self.model = m.propagator.SdeModel.gbm(1.0, 1.0, 1.0)
        self.sol = m.propagator.solve(
            self.model, m.multiindex.FullTruncation(p=5, k=8), m.basis.make_basis("trig"),
            m.np.linspace(0.0, 1.0, 101),
            m.integrator.ToleranceSpec(rtol=1e-8, atol=1e-11))
        self.coeff_variance = m.analysis.moments(self.sol, 1.0)[1]
        self.euler_mean = (1.0 + 1.0 / self.steps) ** self.steps
        self.rng_expansion = m.oracle.RngSpec(seed=seed, stream=0)
        self.rng_euler = m.oracle.RngSpec(seed=seed, stream=1)
        ref = load_reference("montecarlo.json")
        self.reference = None
        if ref.get("run") == {"seed": seed, "paths": self.paths, "steps": self.steps}:
            self.reference = ref
        self.first = None
        self.times = {"expansion": [], "euler": []}

    def outputs(self) -> dict:
        t0 = time.perf_counter()
        expansion = self.m.oracle.sample_expansion(self.sol, 1.0, self.paths,
                                                   self.rng_expansion)
        t1 = time.perf_counter()
        euler = self.m.oracle.euler_maruyama(self.model, self.steps, self.paths,
                                             self.rng_euler)
        t2 = time.perf_counter()
        self.times["expansion"].append(t1 - t0)
        self.times["euler"].append(t2 - t1)
        return {"expansion": stats_hex(expansion), "euler": stats_hex(euler)}

    def run_pass(self) -> list[bool]:
        got = self.outputs()
        if self.first is None:
            self.first = got
        results = []
        for name in ("expansion", "euler"):
            stats = {key: float.fromhex(v) for key, v in got[name].items()}
            if name == "expansion":
                ok = (abs(stats["variance"] - self.coeff_variance)
                      <= EXPANSION_SE * stats["variance_se"])
            else:
                ok = abs(stats["mean"] - self.euler_mean) <= EULER_SE * stats["mean_se"]
            ok = ok and got[name] == self.first[name]
            if self.reference is not None:
                ok = ok and got[name] == self.reference[name]
            results.append(ok)
        return results


def stats_hex(stats) -> dict[str, str]:
    """SampleStats as exact hex floats, for bit-for-bit comparison."""
    return {key: float(value).hex() for key, value in vars(stats).items()}


WORKLOADS = {"table1": Table1, "galerkin": Galerkin, "montecarlo": MonteCarlo}


def probe() -> float:
    """Host-speed probe: median time of three runs of a fixed Python loop."""
    times = []
    for _ in range(3):
        started = time.perf_counter()
        acc = 0
        for j in range(100_000):
            acc += j * j % 7
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def affinity_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def set_up(name: str, seed: int, sizes: Sizes, before_inputs=None):
    """Import the package and build the workload's inputs; returns its time.

    ``before_inputs(modules)`` runs between the two, untimed.
    """
    started = time.perf_counter()
    m = load_chaossde()
    if before_inputs is not None:
        paused = time.perf_counter()
        before_inputs(m)
        started += time.perf_counter() - paused
    workload = WORKLOADS[name](m, seed, sizes)
    return m, workload, time.perf_counter() - started


def setup_in_child(name: str, seed: int) -> tuple[float, float]:
    """(set-up time, probe time) of a set-up in a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return tuple(json.loads(proc.stdout.strip().splitlines()[-1]))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def machine_record(m, threads: int) -> dict:
    return {"cores": affinity_cores(), "threads": threads,
            "python": platform.python_version(), "numpy": m.np.__version__,
            "scipy": m.scipy.__version__, "platform": platform.platform()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=0,
                        help="CHAOS_THREADS for an untraced run "
                             "(default: the cores this process may use)")
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up and print it (used for setup_s)")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 64:
        parser.error("--seed must fit in 64 bits")
    if args.seconds <= 0 or args.threads < 0:
        parser.error("--seconds must be positive and --threads non-negative")
    return args


def main(argv=None, sizes: Sizes = FULL) -> int:
    """Run one workload and print its metrics; ``sizes`` shrink it for tests."""
    args = parse_args(argv)
    threads = 1 if args.trace else (args.threads or affinity_cores())
    os.environ["CHAOS_THREADS"] = str(threads)
    if args.setup_only:
        before = probe()
        elapsed = set_up(args.workload, args.seed, sizes)[2]
        print(json.dumps([elapsed, (before + probe()) / 2]))
        return 0
    instrumentation = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()

        def instrument(m):
            nonlocal instrumentation
            instrumentation = tracing.Instrumentation(tracer, m)
            instrumentation.install()
    try:
        before = probe()
        try:
            m, workload, first_setup = set_up(args.workload, args.seed, sizes,
                                              instrument if args.trace else None)
        except ImportError as exc:
            print(f"benchmark: {exc}", file=sys.stderr)
            return 2
        OUT.mkdir(exist_ok=True)
        setups = [(first_setup, (before + probe()) / 2)]
        if not args.trace:
            setups += [setup_in_child(args.workload, args.seed)
                       for _ in range(sizes.setup_samples - 1)]

        pass_times: list[float] = []
        probes = [probe()]
        attempted = failed = 0
        loop_start = time.perf_counter()
        while True:
            if args.trace:
                tracer.phase = len(pass_times)
                root = tracer.open("pass")
            started = time.perf_counter()
            try:
                results = workload.run_pass()
            except Exception:
                traceback.print_exc()
                results = [False]
            pass_times.append(time.perf_counter() - started)
            if args.trace:
                tracer.close(root)
            probes.append(probe())
            attempted += len(results)
            failed += results.count(False)
            elapsed = time.perf_counter() - loop_start
            if elapsed + statistics.median(pass_times) > args.seconds:
                break
        if args.trace:
            tracer.phase = tracing.SETUP
            instrumentation.replay()
    finally:
        if instrumentation is not None:
            instrumentation.restore()

    machine = machine_record(m, threads)
    scaled = [t * 2 * PROBE_REF_S / (probes[i] + probes[i + 1])
              for i, t in enumerate(pass_times)]
    q1, median, q3 = quartiles(scaled)
    print(f"machine: {json.dumps(machine)}")
    print(f"passes: {len(pass_times)}; pass time at reference host speed: median "
          f"{median:.6g} s, quartiles {q1:.6g} .. {q3:.6g} s; raw wall-time "
          f"median {statistics.median(pass_times):.6g} s")
    print(f"failed_ratio: {failed / attempted:.6g} ratio ({failed} of {attempted})")
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "machine": machine, "pass_times_s": pass_times, "probes_s": probes,
              "pass_s_at_reference_speed": median,
              "attempted": attempted, "failed": failed}
    if args.trace:
        values = tracing.layer_metrics(tracer, len(pass_times))
        values["cli.threads"] = threads
        tracer.write(OUT / f"spans_{args.workload}.npz")
        metrics = {name: {"value": value, "unit": tracing.unit(name)}
                   for name, value in values.items()}
    else:
        metrics = {
            "pass_s": {"value": median, "unit": "s"},
            "setup_s": {"value": statistics.median(t * PROBE_REF_S / p for t, p in setups),
                        "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "unit": "MB"},
        }
        record["setups_time_probe_s"] = setups
        if isinstance(workload, MonteCarlo):
            rates = {
                "expansion_paths_per_s": workload.paths
                / statistics.median(workload.times["expansion"]),
                "euler_path_steps_per_s": workload.paths * workload.steps
                / statistics.median(workload.times["euler"]),
            }
            for name, value in rates.items():
                print(f"{name}: {value:.6g} 1/s")
            record["rates_per_s"] = rates
    for name, metric in metrics.items():
        print(f"{name}: {metric['value']:.6g} {metric['unit']}")
    record["metrics"] = metrics
    (OUT / f"result_{args.workload}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
