import ast
import os
import subprocess
import sys
from pathlib import Path

import chaossde


def test_every_public_name_resolves():
    assert len(chaossde.__all__) == len(set(chaossde.__all__))
    for name in chaossde.__all__:
        assert getattr(chaossde, name) is not None


def test_star_import():
    namespace = {}
    exec("from chaossde import *", namespace)
    assert set(chaossde.__all__) <= set(namespace)


ROOT = Path(__file__).resolve().parent.parent
# Public names that only tests call, each kept on purpose.
KEPT_FOR_TESTS = {
    "hermite_n": "reference oracle: the scalar recurrence the Hermite table and "
                 "criterion 7's derivative identity are checked against",
    "triple_multi": "reference oracle: the weights the Galerkin tensor is checked against",
    "closed_form_gbm_grid": "exact GBM coefficients the solver is checked against",
    "closed_form_bm": "exact Brownian-motion coefficients the solver is checked against",
    "kl_path_check": "Monte Carlo check of the Karhunen-Loeve partial sums",
    "bound_shape": "the paper's rate shape, to be reported by the rates command",
    "element_values": "basis values at one time; the solver calls its cached form "
                      "element_evaluator, and the benchmark tracer wraps it by name",
}


def _names_used(path):
    """Top-level public defs of ``path`` and the names its code references.

    A reference is a name, an attribute or an imported name; references
    inside a definition to that definition's own name are not counted.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    defined, used = set(), set()
    for stmt in tree.body:
        own = None
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            own = stmt.name
            if not own.startswith("_"):
                defined.add(own)
        refs = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, ast.alias):
                refs.add(node.name.rsplit(".", 1)[-1])
        used |= refs - {own}
    return defined, used


def test_no_public_name_only_tests_use():
    defined, used = set(), set()
    for path in sorted((ROOT / "src" / "chaossde").glob("*.py")):
        names, refs = _names_used(path)
        defined |= names
        used |= refs
    for path in sorted((ROOT / "benchmarks").glob("*.py")):
        used |= _names_used(path)[1]
    assert set(KEPT_FOR_TESTS) <= defined, "a kept name is no longer defined"
    assert defined - used - set(KEPT_FOR_TESTS) == set()


def test_cli_import_leaves_scipy_special_unloaded():
    # scipy.special is most of the import time, and only the Monte Carlo
    # oracles draw normals
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    code = "import sys, chaossde.cli; sys.exit('scipy.special' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=120)
    assert proc.returncode == 0
