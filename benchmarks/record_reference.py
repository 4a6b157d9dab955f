"""Record the reference outputs that benchmarks/run.py checks against.

Run from the repository root, at the commit whose outputs define correct
behaviour:

    python3 benchmarks/record_reference.py

Writes benchmarks/reference/: the table1 CSV without its wall-time column,
the galerkin moments, and the montecarlo statistics at the default seed and
full sizes as exact hex floats.
"""
import json

import run


def main() -> None:
    m = run.load_chaossde()
    run.OUT.mkdir(exist_ok=True)
    run.REFERENCE.mkdir(exist_ok=True)
    table = run.OUT / "table1.csv"
    m.cli.main(["table1", "--rows", "all", "--out", str(table)])
    (run.REFERENCE / "table1.csv").write_text(
        run._strip_wall_time(table.read_text(encoding="utf-8")), encoding="utf-8")

    galerkin = run.Galerkin(m, run.DEFAULT_SEED, run.FULL)
    moments = {name: galerkin.outputs(basis, spec) for name, basis, spec in galerkin.cases}
    write_json("galerkin.json", moments)

    mc = run.MonteCarlo(m, run.DEFAULT_SEED, run.FULL)
    stats = mc.outputs()
    stats["run"] = {"seed": run.DEFAULT_SEED, "paths": mc.paths, "steps": mc.steps}
    write_json("montecarlo.json", stats)


def write_json(name: str, payload: dict) -> None:
    (run.REFERENCE / name).write_text(json.dumps(payload, indent=1) + "\n",
                                      encoding="utf-8")


if __name__ == "__main__":
    main()
