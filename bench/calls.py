"""One generated query as a call into the package, or as a CLI process.

In-process calls go through ``inellipse.world`` by attribute, so a tracer
installed after import sees them.  CLI queries are documents in the format
``inellipse.cli`` reads; the answer comes back as its canonical JSON.
"""

from __future__ import annotations

import json

from inellipse import world
from inellipse.affine import Triangle
from inellipse.geom import Point, Slope

_SUBCOMMAND = {"two_points": "two-points", "point_slope": "point-slope", "tangency": "tangency"}
CHECK_GRID = 256


def solve(query: dict):
    """Run the query through the library; returns the ``SolveReport``."""
    tri = Triangle(*(Point(*v) for v in query["triangle"]))
    family = query["family"]
    if family == "two_points":
        return world.solve_two_points(tri, Point(*query["p1"]), Point(*query["p2"]))
    if family == "tangency":
        return world.solve_tangency(tri, Point(*query["p1"]), Point(*query["p2"]))
    raw = query["slope"]
    slope = Slope.vertical() if raw == "vertical" else Slope.finite(raw)
    return world.solve_point_slope(tri, Point(*query["p"]), slope)


def report_answer(report):
    """(case, conics) of a ``SolveReport`` as plain floats."""
    return report.case, tuple(tuple(float(v) for v in s.conic) for s in report.solutions)


def cli_args(query: dict) -> list[str]:
    """Arguments after ``python -m inellipse.cli``; the document goes to stdin."""
    args = [_SUBCOMMAND[query["family"]], "-"]
    if query.get("check"):
        args += ["--check", "--grid", str(CHECK_GRID)]
    return args


def cli_document(query: dict) -> str:
    family = query["family"]
    if family == "two_points":
        body = {"two_points": {"p1": query["p1"], "p2": query["p2"]}}
    elif family == "tangency":
        body = {"boundary_tangency": {"p1": query["p1"], "p2": query["p2"]}}
    else:
        body = {"point_slope": {"p": query["p"], "slope": query["slope"]}}
    return json.dumps({"triangle": query["triangle"], "query": body})


def cli_answer(returncode: int, stdout: str):
    """(case, conics) from the CLI's output; None when it reported an error.

    Coefficients arrive as [A, B, 2C, D, E, F]; conics here keep the half
    cross coefficient C.
    """
    if returncode not in (0, 2) or not stdout.strip():
        return None
    out = json.loads(stdout)
    conics = tuple(
        (a, b, c2 / 2.0, d, e, f) for a, b, c2, d, e, f in (s["coefficients"] for s in out["ellipses"])
    )
    return out["case"], conics
