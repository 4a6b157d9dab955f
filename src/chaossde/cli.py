"""Command-line experiment harness.

Subcommands
-----------
solve    integrate one configuration and dump coefficient trajectories
table1   run the benchmark grid (error at final time / max error per row)
fig1     per-time error curves for a (basis, p, k) grid
rates    tail-sum and measured-error decay slopes over a k sweep
mc       Monte Carlo cross-check (expansion sampling + Euler scheme)

Every command takes dX = b(X) dt + sigma(X) dW as ``--drift``, ``--diffusion`` (each ``c0,c1,c2``
of c0 + c1 x + c2 x^2) and ``--x0``; table1, fig1 and rates refuse a non-GBM model before any work.

Exit codes: 0 success, 2 usage error or unwritable output, 3 numerical
failure.  All file output is UTF-8 with LF line endings and 17-significant-digit reals.
"""
from __future__ import annotations

import argparse
import functools
import json
import operator
import os
import sys
import time
from dataclasses import astuple, dataclass, fields, replace

import numpy as np

from . import __version__
from .analysis import (error_curve, gbm_variance_exact, gbm_variance_order_limit,
                       loglog_fit, moment_columns, moments)
from .basis import KINDS, TAIL_POINTS, BasisSpec, breakpoints, make_basis, tail_sum
from .errors import ChaosError, IndexSetTooLarge, IntegratorFailure
from .integrator import ToleranceSpec
from .multiindex import (MAX_DENSE_CELLS, FullTruncation, TruncationSpec, checked_count,
                         parse_sparse_text)
from .oracle import RngSpec, block_paths, euler_maruyama, pool_size, sample_expansion
from .presets import BENCHMARK_ROWS, BenchmarkRow
from .propagator import SdeModel, checked_grid, gbm_parameters, solve

# Largest coefficient trajectory, grid points times held columns, in float64
# cells (2 GiB): every set within MAX_INDICES runs on a 1001-point grid.
MAX_TRAJECTORY_CELLS = 1 << 28
# Float64 columns fig1 counts per grid point: at its peak it holds six (the
# grid, the two streamed moments and three variance columns or temporaries)
# and three bytes of finiteness masks.
_CURVE_COLUMNS = 7
# Rows of a fig1 curve converted to Python objects at a time.
_CURVE_BLOCK_ROWS = 1 << 10


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    text = str(x)
    return f'"{text}"' if "," in text else text  # only the sparse caps have one


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(_fmt, row)) + "\n")


def _write(args, tol: ToleranceSpec, header, rows, payload: dict, seed=None) -> None:
    """Write ``rows`` as CSV, or ``payload`` as JSON after a metadata object.

    Both formats write ``rows`` one at a time: a payload whose last value is
    ``rows`` itself lists them in JSON, each as ``json.dumps`` would.
    """
    if args.format == "csv":
        _write_csv(args.out, header, rows)
        return
    meta = {"tool": "chaossde", "version": __version__, "rtol": tol.rtol, "atol": tol.atol,
            **({} if seed is None else {"seed": seed})}
    *_, last = payload
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        if payload[last] is not rows:
            fh.write(json.dumps({"metadata": meta, **payload}) + "\n")
            return
        # everything up to the empty list's "]}", then the rows and the close
        fh.write(json.dumps({"metadata": meta, **payload, last: []})[:-2])
        fh.writelines((", " if i else "") + json.dumps(row) for i, row in enumerate(rows))
        fh.write("]}\n")


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


# the CSV header: the report's fields in declaration order
ExperimentReport.FIELDS = tuple(f.name for f in fields(ExperimentReport))


def write_report_csv(path: str, reports: list[ExperimentReport]) -> None:
    _write_csv(path, ExperimentReport.FIELDS, map(astuple, reports))


def _problem(args, parser) -> tuple[TruncationSpec, BasisSpec]:
    """The truncation of ``solve``/``mc``, full or as ``--sparse`` spells it, and its basis."""
    if not args.sparse:
        return FullTruncation(p=args.p, k=args.k), make_basis(args.basis, args.t_end)
    try:
        spec = parse_sparse_text(args.sparse)
    except ChaosError as exc:
        parser.error(str(exc))
    if spec.p != args.p or spec.k != args.k:
        parser.error(f"--p/--k ({args.p}/{args.k}) disagree with the sparse "
                     f"index (p={spec.p}, k={spec.k})")
    return spec, make_basis(args.basis, args.t_end)


def _grid(columns: int, t_end: float, points: int) -> np.ndarray:
    """``points`` equidistant times on [0, t_end], checked as ``solve`` checks them; with
    ``columns`` values each above ``MAX_TRAJECTORY_CELLS``, ``IndexSetTooLarge`` first."""
    if columns * points > MAX_TRAJECTORY_CELLS:
        raise IndexSetTooLarge(
            f"a {points}-point grid of {columns} columns needs {columns * points} "
            f"trajectory cells, above the cap of {MAX_TRAJECTORY_CELLS}")
    return checked_grid(np.linspace(0.0, t_end, points), t_end)


def cmd_solve(args, parser, model: SdeModel, tol: ToleranceSpec) -> int:
    spec, basis = _problem(args, parser)
    grid = _grid(checked_count(spec), args.t_end, args.grid)
    sol = solve(model, spec, basis, grid, tol)
    header = ["t", *sol.index_set.labels()]
    rows = ([t, *row.tolist()] for t, row in zip(sol.grid.tolist(), sol.coeffs))
    _write(args, tol, header, rows, {"header": header, "rows": rows})
    return 0


# Row filter keys and comparisons; "<=" and ">=" are tried before "=".
_FILTER_KEYS = {"k": operator.attrgetter("k"), "p": operator.attrgetter("p"),
                "n": operator.attrgetter("n_coeff"),
                "type": operator.attrgetter("trunc_label")}
_FILTER_OPS = {"<=": operator.le, ">=": operator.ge, "=": operator.eq}


def _parse_row_filter(text: str, parser):
    """Filter mini-language: comma-separated clauses like k=8, p<=2,
    n<=1300, type=full; 'all' selects everything.  Every clause is checked
    before any row is matched: an unparseable clause is a usage error, an
    unknown key or a k/p/n value that is not an integer a ``ValueError``."""
    text = text.strip()
    if text == "all":
        return lambda row: True
    clauses = []
    for raw in text.split(","):
        raw = raw.strip()
        op = next((op for op in _FILTER_OPS if op in raw), None)
        if op is None:
            parser.error(f"cannot parse row filter clause {raw!r}")
        key, value = (part.strip() for part in raw.split(op, 1))
        if key not in _FILTER_KEYS:
            raise ValueError(f"unknown row filter key {key!r}")
        clauses.append((_FILTER_KEYS[key], _FILTER_OPS[op],
                        value if key == "type" else int(value)))
    return lambda row: all(compare(get(row), value) for get, compare, value in clauses)


def _bases(text: str) -> list[str]:
    tokens = text.split(",")
    for token in tokens:
        if token not in KINDS:
            raise argparse.ArgumentTypeError(f"unknown basis {token!r}")
    return tokens


def _coefficients(text: str) -> tuple[float, float, float]:
    """The ``c0,c1,c2`` of a polynomial c0 + c1 x + c2 x^2."""
    try:  # a count other than three fails to unpack
        c0, c1, c2 = map(float, text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"need three numbers c0,c1,c2, got {text!r}") from None
    return c0, c1, c2


def _gbm_error(model: SdeModel, spec: TruncationSpec, token: str, grid, tol: ToleranceSpec):
    """A GBM solution's moment columns on a grid of [0, 1], and their variance error."""
    mu, sigma = gbm_parameters(model)
    sol = solve(model, spec, make_basis(token, 1.0), grid, tol, observe=moment_columns)
    return sol, error_curve(sol, lambda t: gbm_variance_exact(mu, sigma, model.x0, t))


def run_benchmark_row(row: BenchmarkRow, basis_token: str, model: SdeModel,
                      tol: ToleranceSpec) -> ExperimentReport:
    grid = np.linspace(0.0, 1.0, 1001)
    started = time.perf_counter()
    sol, curve = _gbm_error(model, row.spec, basis_token, grid, tol)
    elapsed = time.perf_counter() - started
    return ExperimentReport(
        basis=basis_token, k=row.k, p=row.p, truncation=row.trunc_label,
        sparse=row.spec.text, n_coeff=len(sol.index_set),
        error_at_T=curve.error_at_T, error_max=curve.error_max,
        wall_time_s=elapsed, rtol=tol.rtol, atol=tol.atol)


def cmd_table1(args, parser, model: SdeModel, tol: ToleranceSpec) -> int:
    accept = _parse_row_filter(args.rows, parser)
    # a copy of each row's spec, made as the row is reached: its bases share one
    # set, freed after them, where the module-level spec would keep it for good
    rows = (replace(row, spec=replace(row.spec)) for row in BENCHMARK_ROWS if accept(row))
    reports = [run_benchmark_row(row, token, model, tol) for row in rows for token in args.basis]
    if args.format == "csv":  # by module name: the benchmark self-test patches it
        write_report_csv(args.out, reports)
    else:
        _write(args, tol, (), (), {"reports": [r.__dict__ for r in reports]})
    return 0


def _write_curve(path: str, model: SdeModel, spec: FullTruncation, token: str, grid,
                 tol: ToleranceSpec) -> None:
    """Solve one fig1 curve and write it, ``_CURVE_BLOCK_ROWS`` rows at a time."""
    curve = _gbm_error(model, spec, token, grid, tol)[1]  # the solution is freed here
    mu, sigma = gbm_parameters(model)
    cells = len(breakpoints(make_basis(token, 1.0), spec.k)) + 1  # Haar's dyadic cells
    intervals = len(grid) - 1

    def rows():
        for start in range(0, len(grid), _CURVE_BLOCK_ROWS):
            block = slice(start, start + _CURVE_BLOCK_ROWS)
            t, approx = grid[block], curve.approx_var[block]
            columns = [t, curve.exact_var[block], approx, curve.values[block]]
            if token == "haar":  # grid point m sits at t = m / intervals: flag it
                # when t is a multiple of 1 / cells, in exact integers
                limit = gbm_variance_order_limit(mu, sigma, model.x0, spec.p, t)
                m = np.arange(start, start + len(t))
                columns += [limit, np.abs(approx - limit),
                            (m * cells % intervals == 0).astype(int)]
            yield from zip(*(col.tolist() for col in columns))

    extra = ["order_limit_var", "basis_component_err", "is_dyadic"] if token == "haar" else []
    _write_csv(path, ["t", "exact_var", "approx_var", "abs_err", *extra], rows())


def cmd_fig1(args, parser, model: SdeModel, tol: ToleranceSpec) -> int:
    ps, ks = ([int(v) for v in text.split(",")] for text in (args.p, args.k))
    specs = [FullTruncation(p=p, k=k) for p in ps for k in ks]
    for spec in specs:
        checked_count(spec)  # every set is refused before the first curve is written
    grid = _grid(_CURVE_COLUMNS, 1.0, args.grid)  # and so is a bad grid: none makes the directory
    os.makedirs(args.out, exist_ok=True)  # before the first solve
    for token in args.basis:
        for spec in specs:
            _write_curve(os.path.join(args.out, f"fig1_{token}_p{spec.p}_k{spec.k}.csv"),
                         model, spec, token, grid, tol)
    return 0


def cmd_mc(args, parser, model: SdeModel, tol: ToleranceSpec) -> int:
    """Monte Carlo cross-check of one configuration.

    Samples the truncated expansion at the final time and runs the Euler
    scheme on the same model; the report carries both sets of statistics
    next to the coefficient-based moments.
    """
    pool_size(args.paths, args.steps)  # bad sizes, CHAOS_THREADS or seeds fail before the solve
    rng_expansion, rng_euler = (RngSpec(seed=args.seed, stream=s) for s in (0, 1))
    spec, basis = _problem(args, parser)
    block_paths(spec.p, spec.k)  # and so does a set that cannot be sampled
    sol = solve(model, spec, basis, (0.0, args.t_end), tol)  # steps ignore the grid
    mean, variance = moments(sol, args.t_end)
    sampled = sample_expansion(sol, args.t_end, args.paths, rng_expansion)
    euler = euler_maruyama(model, args.steps, args.paths, rng_euler, t_end=args.t_end)
    payload = {"coefficient_moments": {"mean": mean, "variance": variance},
               "expansion_sampling": sampled.__dict__, "euler": euler.__dict__,
               "paths": args.paths, "steps": args.steps}
    rows = [("coefficients", mean, 0.0, variance, 0.0)] + [
        (name, st.mean, st.mean_se, st.variance, st.variance_se)
        for name, st in (("expansion", sampled), ("euler", euler))]
    _write(args, tol, ("source", "mean", "mean_se", "variance", "variance_se"), rows,
           payload, seed=args.seed)
    return 0


def cmd_rates(args, parser, model: SdeModel, tol: ToleranceSpec) -> int:
    ks = [int(v) for v in args.k.split(",")]
    specs = [FullTruncation(p=args.p, k=k) for k in ks]
    for spec in specs:  # every set and tail grid is refused before the first tail
        checked_count(spec)
        if TAIL_POINTS * spec.k > MAX_DENSE_CELLS:
            raise IndexSetTooLarge(f"a tail sum over k={spec.k} needs {TAIL_POINTS * spec.k} "
                                   f"grid cells, above the cap of {MAX_DENSE_CELLS}")
    tails = [tail_sum(make_basis(args.basis, 1.0), k, 1.0) for k in ks]
    tail_slope, _, tail_r2 = loglog_fit(ks, tails)  # before the solves: it checks the ks
    grid = np.linspace(0.0, 1.0, 201)
    errors = [_gbm_error(model, spec, args.basis, grid, tol)[1].error_at_T for spec in specs]
    rows = [(args.basis, args.p, k, tl, er) for k, tl, er in zip(ks, tails, errors)]
    _write(args, tol, ("basis", "p", "k", "tail_sum", "error_at_T"), rows,
           {"basis": args.basis, "p": args.p, "k": ks, "tail_sum": tails,
            "error_at_T": errors, "tail_slope": tail_slope, "tail_r2": tail_r2})
    print(f"tail slope {tail_slope:.4f} (R2 {tail_r2:.5f})")
    return 0


@functools.cache  # built on the first call, once per process; no flag takes a prefix
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="chaossde", allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, formats=True):
        p.add_argument("--drift", type=_coefficients, default="0,1,0")
        p.add_argument("--diffusion", type=_coefficients, default="0,1,0")
        p.add_argument("--x0", type=float, default=1.0)
        p.add_argument("--rtol", type=float, default=ToleranceSpec.rtol)
        p.add_argument("--atol", type=float, default=ToleranceSpec.atol)
        p.add_argument("--out", required=True)
        if formats:  # fig1 writes a directory of CSV curves
            p.add_argument("--format", choices=("csv", "json"), default="csv")

    def add_problem(p):
        p.add_argument("--basis", choices=KINDS, required=True)
        p.add_argument("--p", type=int, required=True)
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--sparse", default="")  # sp1 or sp2 caps; full if empty
        p.add_argument("--t-end", type=float, default=1.0)

    bases = {"type": _bases, "default": "klcos,haar"}  # table1 and fig1

    ps = sub.add_parser("solve", help="integrate one configuration", allow_abbrev=False)
    add_problem(ps)
    ps.add_argument("--grid", type=int, default=101)
    add_common(ps)

    pt = sub.add_parser("table1", help="run the benchmark grid", allow_abbrev=False)
    pt.add_argument("--rows", default="all")
    pt.add_argument("--basis", **bases)
    add_common(pt)

    pf = sub.add_parser("fig1", help="per-time error curves", allow_abbrev=False)
    pf.add_argument("--basis", **bases)
    pf.add_argument("--p", default="1,2,3,4")
    pf.add_argument("--k", default="2,4,8")
    pf.add_argument("--grid", type=int, default=1001)
    add_common(pf, formats=False)

    pr = sub.add_parser("rates", help="decay slopes over a k sweep", allow_abbrev=False)
    pr.add_argument("--basis", choices=KINDS, default="trig")
    pr.add_argument("--k", default="8,16,32,64,128")
    pr.add_argument("--p", type=int, default=1)
    add_common(pr)

    pm = sub.add_parser("mc", help="Monte Carlo cross-check", allow_abbrev=False)
    add_problem(pm)
    pm.add_argument("--paths", type=int, default=100_000)
    pm.add_argument("--steps", type=int, default=1024)
    pm.add_argument("--seed", type=int, default=0)
    add_common(pm)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = dict(solve=cmd_solve, table1=cmd_table1, fig1=cmd_fig1, rates=cmd_rates, mc=cmd_mc)
    try:
        out_dir = os.path.dirname(args.out) or "."
        if args.command != "fig1" and (os.path.isdir(args.out) or not os.path.isdir(out_dir)):
            raise OSError(f"cannot write {args.out}: not a file in an existing directory")
        model = SdeModel(args.drift, args.diffusion, args.x0)
        if args.command in ("table1", "fig1", "rates"):
            gbm_parameters(model)  # their closed form: another shape is refused before any work
        return handlers[args.command](args, parser, model, ToleranceSpec(args.rtol, args.atol))
    except IntegratorFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ChaosError, ValueError, OSError) as exc:  # OSError: an unwritable --out
        parser.exit(2, f"error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
