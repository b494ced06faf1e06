"""The closed-form path imports no numpy; the oracle and figures still load it.

Nor does importing the package load ``dataclasses``, ``inspect`` or
``fractions``, which no solve needs.  And every module-level name in the
package is reached by the package itself or exported: code only tests call
belongs in the tests.

Each import check runs in a fresh interpreter, because this test process has
long since imported numpy.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
DOC = json.dumps(
    {"triangle": [[0, 0], [1, 0], [0, 1]], "query": {"two_points": {"p1": [0.25, 0.125], "p2": [0.5, 0.1667]}}}
)


def run_python(code: str, stdin: str = "") -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code], input=stdin, capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("module", ["inellipse", "inellipse.world", "inellipse.cli"])
def test_import_leaves_numpy_out(module):
    out = run_python(f"import sys, {module}; print('numpy' in sys.modules)")
    assert out.split() == ["False"]


@pytest.mark.parametrize("module", ["inellipse", "inellipse.world", "inellipse.cli"])
def test_import_leaves_record_machinery_out(module):
    # The records are NamedTuples and Fraction loads only for an exact sign,
    # so a cold import needs none of these.
    out = run_python(f"import sys, {module}; print(*(m in sys.modules for m in ('dataclasses', 'inspect', 'fractions')))")
    assert out.split() == ["False", "False", "False"]


def test_plain_cli_query_leaves_numpy_out():
    out = run_python(
        "import sys\n"
        "from inellipse import cli\n"
        "code = cli.run(['two-points', '-'])\n"
        "print(code, 'numpy' in sys.modules)\n",
        stdin=DOC,
    )
    report, tail = out.strip().splitlines()
    assert json.loads(report)["case"] == "generic_4"
    assert tail.split() == ["0", "False"]


def test_check_and_svg_still_work(tmp_path):
    svg = tmp_path / "out.svg"
    out = run_python(
        "import sys\n"
        "from inellipse import cli\n"
        f"code = cli.run(['two-points', '-', '--check', '--grid', '64', '--svg', {str(svg)!r}])\n"
        "print(code, 'numpy' in sys.modules)\n",
        stdin=DOC,
    )
    report, tail = out.strip().splitlines()
    assert json.loads(report)["oracle_check"]["count_match"] is True
    assert tail.split() == ["0", "True"]
    assert "<svg" in svg.read_text()


def test_oracle_names_resolve_lazily():
    out = run_python(
        "import sys\n"
        "import inellipse as ie\n"
        "print('numpy' in sys.modules)\n"
        "from inellipse import oracle\n"
        "assert ie.verify_inscribed is oracle.verify_inscribed\n"
        "assert ie.brute_force_two_points is oracle.brute_force_two_points\n"
        "ns = {}\n"
        "exec('from inellipse import *', ns)\n"
        "assert all(name in ns for name in ie.__all__)\n"
        "report = ns['solve_tangency'](ns['UNIT_TRIANGLE'], (0.5, 0.0), (0.0, 0.5))\n"
        "print(ns['verify_inscribed'](report.solutions[0].conic).passed)\n"
    )
    assert out.split() == ["False", "True"]


def test_unknown_attribute_still_raises():
    import inellipse

    with pytest.raises(AttributeError):
        inellipse.no_such_name


ORACLE_NAMES = ["VerificationReport", "brute_force_point_slope", "brute_force_two_points", "verify_inscribed"]
QUERY_API = sorted([
    "solve_two_points", "solve_point_slope", "solve_tangency", "SolveReport", "WorldSolution",
    "Triangle", "UNIT_TRIANGLE",
    "Point", "Slope", "EllipseParam", "ConicCoeffs",
    *ORACLE_NAMES,
])


def test_package_namespace_is_the_query_api():
    import inellipse

    assert sorted(inellipse.__all__) == QUERY_API
    assert len(QUERY_API) == 15
    for name in QUERY_API:
        assert getattr(inellipse, name) is not None


def test_closed_form_names_import_without_numpy():
    # Only the four oracle names load numpy; a star import resolves them too.
    names = ", ".join(n for n in QUERY_API if n not in ORACLE_NAMES)
    out = run_python(f"import sys\nfrom inellipse import {names}\nprint('numpy' in sys.modules)")
    assert out.split() == ["False"]


def module_level_names(tree: ast.Module):
    """The functions, classes and constants a module defines at its top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id


def test_every_module_level_name_is_reached_by_the_package():
    # A name counts as reached when src/ reads it (a Name or an attribute), or
    # imports it; docstrings do not count.  Dunders are read by Python itself.
    import inellipse

    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(pathlib.Path(SRC, "inellipse").glob("*.py"))}
    reached = set(inellipse.__all__) | {"main"}  # cli.main is the console script
    # The one exemption: the queries enter by affine.barycentrics, and only
    # bench/test_bench.py still imports affine.apply_point.  Delete apply_point and
    # this line once that test reads barycentrics (ROADMAP item 1).
    reached.add("apply_point")
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reached.add(node.id)
            elif isinstance(node, ast.Attribute):
                reached.add(node.attr)
            elif isinstance(node, ast.alias):
                reached.add(node.name)
    unreached = [
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in module_level_names(tree)
        if name not in reached and not (name.startswith("__") and name.endswith("__"))
    ]
    assert unreached == [], unreached


def imported_names(tree: ast.Module):
    """The names a module's import statements bind, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0]


def test_every_imported_name_is_read_by_its_module():
    # An import its module never reads is dead weight; the package's re-exports and
    # the __future__ annotations flag are read by Python itself.
    import inellipse

    unread = []
    for path in sorted(pathlib.Path(SRC, "inellipse").glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        exempt = {"annotations"} | (set(inellipse.__all__) if path.stem == "__init__" else set())
        unread += [f"{path.stem}.{name}" for name in imported_names(tree) if name not in read | exempt]
    assert unread == [], unread
