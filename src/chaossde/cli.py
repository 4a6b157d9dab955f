"""Command-line experiment harness.

Subcommands
-----------
solve    integrate one configuration and dump coefficient trajectories
table1   run the benchmark grid (error at final time / max error per row)
fig1     per-time error curves for a (basis, p, k) grid
rates    tail-sum and measured-error decay slopes over a k sweep
mc       Monte Carlo cross-check (expansion sampling + Euler scheme)

Exit codes: 0 success, 2 usage error, 3 numerical failure.  All file
output is UTF-8 with LF line endings and 17-significant-digit reals.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .analysis import (error_curve, gbm_variance_exact, gbm_variance_order_limit,
                       loglog_fit, moments)
from .basis import KINDS, make_basis, tail_sum
from .errors import ChaosError, IntegratorFailure
from .integrator import ToleranceSpec
from .multiindex import (FullTruncation, SparseFirstOrder, TruncationSpec,
                         format_sparse_text, parse_sparse_text)
from .oracle import RngSpec, euler_maruyama, sample_expansion
from .presets import BENCHMARK_ROWS, BenchmarkRow
from .propagator import SdeModel, solve

BENCHMARK_BASES = ("klcos", "haar")


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _metadata(tol: ToleranceSpec, seed=None) -> dict:
    meta = {"tool": "chaossde", "version": __version__,
            "rtol": tol.rtol, "atol": tol.atol}
    if seed is not None:
        meta["seed"] = seed
    return meta


@dataclass(frozen=True)
class ExperimentReport:
    """One benchmark row result; mirrors one line of the table CSV."""

    basis: str
    k: int
    p: int
    truncation: str
    sparse: str
    n_coeff: int
    error_at_T: float
    error_max: float
    wall_time_s: float
    rtol: float
    atol: float

    FIELDS = ("basis", "k", "p", "truncation", "sparse", "n_coeff",
              "error_at_T", "error_max", "wall_time_s", "rtol", "atol")

    def to_fields(self) -> list[str]:
        return [self.basis, str(self.k), str(self.p), self.truncation,
                self.sparse, str(self.n_coeff), _fmt(self.error_at_T),
                _fmt(self.error_max), _fmt(self.wall_time_s), _fmt(self.rtol),
                _fmt(self.atol)]

    @classmethod
    def from_fields(cls, parts: list[str]) -> "ExperimentReport":
        return cls(basis=parts[0], k=int(parts[1]), p=int(parts[2]),
                   truncation=parts[3], sparse=parts[4], n_coeff=int(parts[5]),
                   error_at_T=float(parts[6]), error_max=float(parts[7]),
                   wall_time_s=float(parts[8]), rtol=float(parts[9]),
                   atol=float(parts[10]))


def write_report_csv(path: str, reports: list[ExperimentReport]) -> None:
    # the sparse column holds comma-separated caps, so fields are quoted
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(ExperimentReport.FIELDS)
        for report in reports:
            writer.writerow(report.to_fields())


def read_report_csv(path: str) -> list[ExperimentReport]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if tuple(rows[0]) != ExperimentReport.FIELDS:
        raise ValueError("not a report CSV")
    return [ExperimentReport.from_fields(row) for row in rows[1:]]


def write_curve_csv(path: str, curve, extra: dict | None = None) -> None:
    """Write an error curve; ``extra`` appends named per-time columns."""
    columns = {"t": curve.grid, "exact_var": curve.exact_var,
               "approx_var": curve.approx_var, "abs_err": curve.values,
               **(extra or {})}
    lines = [",".join(columns)]
    for m in range(len(curve.grid)):
        lines.append(",".join(_fmt(col[m].item()) for col in columns.values()))
    _write_lines(path, lines)


def read_curve_csv(path: str) -> dict[str, np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln]
    header = lines[0].split(",")
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return {name: data[:, i] for i, name in enumerate(header)}


def _resolve_truncation(args, parser) -> TruncationSpec:
    if args.trunc == "full":
        return FullTruncation(p=args.p, k=args.k)
    if not args.sparse:
        parser.error("--trunc sp1/sp2 requires --sparse \"<index text>\"")
    try:
        spec = parse_sparse_text(args.sparse)
    except ChaosError as exc:
        parser.error(str(exc))
    want_first = args.trunc == "sp1"
    if want_first != isinstance(spec, SparseFirstOrder):
        parser.error(f"--trunc {args.trunc} does not match the sparse text shape")
    if spec.p != args.p or spec.k != args.k:
        parser.error(f"--p/--k ({args.p}/{args.k}) disagree with the sparse "
                     f"index (p={spec.p}, k={spec.k})")
    return spec


def _make_model(args, parser) -> SdeModel:
    if args.sde == "gbm":
        return SdeModel.gbm(args.mu, args.sigma, args.x0)
    if args.sde == "bm":
        return SdeModel.bm(args.b, args.sigma, args.x0)
    parser.error(f"unknown model {args.sde!r}")


def cmd_solve(args, parser) -> int:
    model = _make_model(args, parser)
    spec = _resolve_truncation(args, parser)
    basis = make_basis(args.basis, args.t_end)
    grid = np.linspace(0.0, args.t_end, args.grid)
    tol = ToleranceSpec(rtol=args.rtol, atol=args.atol)
    sol = solve(model, spec, basis, grid, tol)
    labels = sol.index_set.labels()
    if args.format == "csv":
        lines = ["t," + ",".join(labels)]
        for m, t in enumerate(grid):
            lines.append(",".join([_fmt(float(t))]
                                  + [_fmt(float(v)) for v in sol.coeffs[m]]))
        _write_lines(args.out, lines)
    else:
        payload = {"metadata": _metadata(tol),
                   "header": ["t"] + labels,
                   "rows": [[float(t)] + [float(v) for v in sol.coeffs[m]]
                            for m, t in enumerate(grid)]}
        _write_lines(args.out, [json.dumps(payload)])
    return 0


def _parse_row_filter(text: str):
    """Filter mini-language: comma-separated clauses like k=8, p<=2,
    n<=1300, type=full; 'all' selects everything."""
    text = text.strip()
    if text == "all":
        return lambda row: True
    clauses = []
    for raw in text.split(","):
        raw = raw.strip()
        for op in ("<=", ">=", "="):
            if op in raw:
                key, value = raw.split(op, 1)
                clauses.append((key.strip(), op, value.strip()))
                break
        else:
            raise ValueError(f"cannot parse row filter clause {raw!r}")

    def getter(row: BenchmarkRow, key: str):
        if key == "k":
            return row.k
        if key == "p":
            return row.p
        if key == "n":
            return row.n_coeff
        if key == "type":
            return row.trunc_label
        raise ValueError(f"unknown row filter key {key!r}")

    def accept(row: BenchmarkRow) -> bool:
        for key, op, value in clauses:
            actual = getter(row, key)
            want = int(value) if isinstance(actual, int) else value
            if op == "=" and actual != want:
                return False
            if op == "<=" and not actual <= want:
                return False
            if op == ">=" and not actual >= want:
                return False
        return True

    return accept


def _check_bases(tokens: list[str], parser) -> list[str]:
    for token in tokens:
        if token not in KINDS:
            parser.error(f"unknown basis {token!r}")
    return tokens


def run_benchmark_row(row: BenchmarkRow, basis_token: str, model: SdeModel,
                      tol: ToleranceSpec, n_grid: int = 1001) -> ExperimentReport:
    basis = make_basis(basis_token, 1.0)
    grid = np.linspace(0.0, 1.0, n_grid)
    started = time.perf_counter()
    sol = solve(model, row.spec, basis, grid, tol)
    mu, sigma = model.param("mu"), model.param("sigma")
    curve = error_curve(sol, lambda t: gbm_variance_exact(mu, sigma, model.x0, t))
    elapsed = time.perf_counter() - started
    return ExperimentReport(
        basis=basis_token, k=row.k, p=row.p, truncation=row.trunc_label,
        sparse=format_sparse_text(row.spec), n_coeff=len(sol.index_set),
        error_at_T=curve.error_at_T, error_max=curve.error_max,
        wall_time_s=elapsed, rtol=tol.rtol, atol=tol.atol)


def cmd_table1(args, parser) -> int:
    try:
        accept = _parse_row_filter(args.rows)
    except ValueError as exc:
        parser.error(str(exc))
    bases = (_check_bases(args.basis.split(","), parser) if args.basis
             else list(BENCHMARK_BASES))
    model = SdeModel.gbm(args.mu, args.sigma, args.x0)
    tol = ToleranceSpec(rtol=args.rtol, atol=args.atol)
    reports = [run_benchmark_row(row, token, model, tol)
               for row in BENCHMARK_ROWS if accept(row) for token in bases]
    if args.format == "csv":
        write_report_csv(args.out, reports)
    else:
        payload = {"metadata": _metadata(tol),
                   "reports": [r.__dict__ for r in reports]}
        _write_lines(args.out, [json.dumps(payload)])
    return 0


def cmd_fig1(args, parser) -> int:
    bases = _check_bases(args.basis.split(","), parser)
    ps = [int(v) for v in args.p.split(",")]
    ks = [int(v) for v in args.k.split(",")]
    model = SdeModel.gbm(args.mu, args.sigma, args.x0)
    tol = ToleranceSpec(rtol=args.rtol, atol=args.atol)
    grid = np.linspace(0.0, 1.0, args.grid)
    os.makedirs(args.out, exist_ok=True)
    mu, sigma = args.mu, args.sigma
    for token in bases:
        basis = make_basis(token, 1.0)
        for p in ps:
            for k in ks:
                sol = solve(model, FullTruncation(p=p, k=k), basis, grid, tol)
                curve = error_curve(
                    sol, lambda t: gbm_variance_exact(mu, sigma, model.x0, t))
                extra = None
                if token == "haar":
                    limit = gbm_variance_order_limit(mu, sigma, model.x0, p, grid)
                    n_level = (k - 1).bit_length() if k > 1 else 0
                    cells = 2 ** n_level
                    # grid point m sits at t = m / (len(grid) - 1): flag it
                    # when t is a multiple of 1 / cells, in exact integers
                    dyadic = (np.arange(len(grid)) * cells % (len(grid) - 1) == 0).astype(int)
                    extra = {"order_limit_var": limit,
                             "basis_component_err": np.abs(curve.approx_var - limit),
                             "is_dyadic": dyadic}
                write_curve_csv(
                    os.path.join(args.out, f"fig1_{token}_p{p}_k{k}.csv"), curve, extra)
    return 0


def cmd_mc(args, parser) -> int:
    """Monte Carlo cross-check of one configuration.

    Samples the truncated expansion at the final time and runs the Euler
    scheme on the same model; the report carries both sets of statistics
    next to the coefficient-based moments.
    """
    model = _make_model(args, parser)
    spec = _resolve_truncation(args, parser)
    basis = make_basis(args.basis, args.t_end)
    grid = np.linspace(0.0, args.t_end, args.grid)
    tol = ToleranceSpec(rtol=args.rtol, atol=args.atol)
    sol = solve(model, spec, basis, grid, tol)
    mean, variance = moments(sol, args.t_end)
    rng = RngSpec(seed=args.seed, stream=args.stream)
    sampled = sample_expansion(sol, args.t_end, args.paths, rng)
    euler = euler_maruyama(model, args.steps, args.paths,
                           RngSpec(seed=args.seed, stream=args.stream + 1),
                           t_end=args.t_end)
    payload = {
        "metadata": _metadata(tol, seed=args.seed),
        "coefficient_moments": {"mean": mean, "variance": variance},
        "expansion_sampling": sampled.__dict__,
        "euler": euler.__dict__,
        "paths": args.paths, "steps": args.steps,
    }
    if args.format == "json":
        _write_lines(args.out, [json.dumps(payload)])
    else:
        lines = ["source,mean,mean_se,variance,variance_se"]
        lines.append(",".join(["coefficients", _fmt(mean), _fmt(0.0),
                               _fmt(variance), _fmt(0.0)]))
        for name, st in (("expansion", sampled), ("euler", euler)):
            lines.append(",".join([name, _fmt(st.mean), _fmt(st.mean_se),
                                   _fmt(st.variance), _fmt(st.variance_se)]))
        _write_lines(args.out, lines)
    return 0


def cmd_rates(args, parser) -> int:
    _check_bases([args.basis], parser)
    ks = [int(v) for v in args.k.split(",")]
    if len(ks) < 3:
        parser.error("need at least 3 k values for a slope fit")
    basis = make_basis(args.basis, 1.0)
    model = SdeModel.gbm(args.mu, args.sigma, args.x0)
    tol = ToleranceSpec(rtol=args.rtol, atol=args.atol)
    grid = np.linspace(0.0, 1.0, 201)
    tails, errors = [], []
    for k in ks:
        tails.append(tail_sum(basis, k, 1.0))
        sol = solve(model, FullTruncation(p=args.p, k=k), basis, grid, tol)
        curve = error_curve(sol, lambda t: gbm_variance_exact(
            args.mu, args.sigma, args.x0, t))
        errors.append(curve.error_at_T)
    tail_slope, _, tail_r2 = loglog_fit(ks, tails)
    lines = ["basis,p,k,tail_sum,error_at_T"]
    for k, tl, er in zip(ks, tails, errors):
        lines.append(",".join([args.basis, str(args.p), str(k), _fmt(tl), _fmt(er)]))
    if args.format == "csv":
        _write_lines(args.out, lines)
    else:
        payload = {"metadata": _metadata(tol),
                   "basis": args.basis, "p": args.p, "k": ks,
                   "tail_sum": tails, "error_at_T": errors,
                   "tail_slope": tail_slope, "tail_r2": tail_r2}
        _write_lines(args.out, [json.dumps(payload)])
    print(f"tail slope {tail_slope:.4f} (R2 {tail_r2:.5f})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="chaossde")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--mu", type=float, default=1.0)
        p.add_argument("--sigma", type=float, default=1.0)
        p.add_argument("--x0", type=float, default=1.0)
        p.add_argument("--rtol", type=float, default=1e-6)
        p.add_argument("--atol", type=float, default=1e-9)
        p.add_argument("--out", required=True)
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    ps = sub.add_parser("solve", help="integrate one configuration")
    ps.add_argument("--sde", choices=("gbm", "bm"), default="gbm")
    ps.add_argument("--b", type=float, default=1.0)
    ps.add_argument("--basis", choices=KINDS, required=True)
    ps.add_argument("--p", type=int, required=True)
    ps.add_argument("--k", type=int, required=True)
    ps.add_argument("--trunc", choices=("full", "sp1", "sp2"), default="full")
    ps.add_argument("--sparse", default="")
    ps.add_argument("--t-end", type=float, default=1.0)
    ps.add_argument("--grid", type=int, default=101)
    add_common(ps)

    pt = sub.add_parser("table1", help="run the benchmark grid")
    pt.add_argument("--rows", default="all")
    pt.add_argument("--basis", default="")
    add_common(pt)

    pf = sub.add_parser("fig1", help="per-time error curves")
    pf.add_argument("--basis", default="klcos,haar")
    pf.add_argument("--p", default="1,2,3,4")
    pf.add_argument("--k", default="2,4,8")
    pf.add_argument("--grid", type=int, default=1001)
    add_common(pf)

    pr = sub.add_parser("rates", help="decay slopes over a k sweep")
    pr.add_argument("--basis", default="trig")
    pr.add_argument("--k", default="8,16,32,64,128")
    pr.add_argument("--p", type=int, default=1)
    add_common(pr)

    pm = sub.add_parser("mc", help="Monte Carlo cross-check")
    pm.add_argument("--sde", choices=("gbm", "bm"), default="gbm")
    pm.add_argument("--b", type=float, default=1.0)
    pm.add_argument("--basis", choices=KINDS, required=True)
    pm.add_argument("--p", type=int, required=True)
    pm.add_argument("--k", type=int, required=True)
    pm.add_argument("--trunc", choices=("full", "sp1", "sp2"), default="full")
    pm.add_argument("--sparse", default="")
    pm.add_argument("--t-end", type=float, default=1.0)
    pm.add_argument("--grid", type=int, default=101)
    pm.add_argument("--paths", type=int, default=100_000)
    pm.add_argument("--steps", type=int, default=1024)
    pm.add_argument("--seed", type=int, default=0)
    pm.add_argument("--stream", type=int, default=0)
    add_common(pm)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"solve": cmd_solve, "table1": cmd_table1,
                "fig1": cmd_fig1, "rates": cmd_rates, "mc": cmd_mc}
    try:
        return handlers[args.command](args, parser)
    except IntegratorFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ChaosError, ValueError) as exc:
        parser.exit(2, f"error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
