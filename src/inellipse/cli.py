"""Command-line front end: JSON query in, canonical JSON report out.

Subcommands ``two-points``, ``point-slope``, ``tangency`` each read a query
document (positional file path, or ``-`` for stdin)::

    {
      "triangle": [[0,0], [1,0], [0,1]],
      "query": {"two_points": {"p1": [0.25, 0.125], "p2": [0.5, 0.1667]}},
      "options": {"grid_n": 256, "svg": "out.svg"}
    }

Exactly one of ``two_points`` / ``point_slope`` / ``boundary_tangency`` must
be present and must match the subcommand.  Every point and vertex is an
array of exactly two numbers (no booleans or strings); ``point_slope.slope``
is a number or the string ``"vertical"``.  The options are only ``grid_n``
(or ``--grid``), the oracle's grid size for ``--check``, an integer from 64
to 2048, and ``svg`` (or ``--svg``), a path string; any other key is an
input error.  Reported coefficients are in world coordinates, ordered
[A, B, 2C, D, E, F] with the full (printed) xy coefficient, normalized so the
largest-magnitude entry is +-1 unless ``--raw``.  The report is one line of
JSON with sorted keys and no whitespace; floats print as Python's shortest
round-trip ``repr``, so each parses back to the same double, and a non-finite
value is an error.  Exit codes: 0 solved, 2 a certified no-solution outcome,
1 input error, command-line usage errors included (one ``error:`` line on
stderr, nothing on stdout).  ``--check`` embeds the oracle's verdict; the
oracle is blind within 1e-9 of the parameter square's edge
(:mod:`inellipse.oracle`), so near an excluded slope ``"count_match": false``
can sit beside a correct ``unique`` answer.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys

from . import point_slope, world
from .affine import Triangle, barycentrics
from .geom import Slope
from .conic import full_coefficients

_DEFAULT_GRID = 256


class InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as :class:`InputError` instead of printing usage and exiting."""

    def error(self, message):
        raise InputError(message)


def _load_document(path: str):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError("query document must be a JSON object")
    return doc


def _parse_triangle(doc) -> Triangle:
    tri = doc.get("triangle")
    if not (isinstance(tri, list) and len(tri) == 3):
        raise InputError("'triangle' must list three vertices")
    try:
        return Triangle(*(_point(v, "vertex") for v in tri))
    except ValueError as exc:
        raise InputError(f"bad triangle: {exc}") from exc


_VARIANTS = ("two_points", "point_slope", "boundary_tangency")
_OPTIONS = ("grid_n", "svg")


def _parse_query(doc, expected: str):
    query = doc.get("query")
    if not isinstance(query, dict):
        raise InputError("'query' must be an object")
    present = [v for v in _VARIANTS if v in query]
    if len(present) != 1:
        raise InputError(f"exactly one of {_VARIANTS} must be present, got {present}")
    if present[0] != expected:
        raise InputError(f"subcommand expects '{expected}', document has '{present[0]}'")
    if not isinstance(query[expected], dict):
        raise InputError(f"'{expected}' must be an object")
    return query[expected]


def _parse_slope(raw) -> Slope:
    if raw == "vertical":
        return Slope.vertical()
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        return Slope.finite(raw)
    raise InputError("'slope' must be a number or the string \"vertical\"")


def _option(options: dict, key: str, kind, default):
    """``options[key]``, which must be of type ``kind`` (not a boolean), or ``default``."""
    if key not in options:
        return default
    value = options[key]
    if isinstance(value, bool) or not isinstance(value, kind):
        raise InputError(f"option '{key}' has the wrong type: {value!r}")
    return value


def _point(raw, what: str) -> list:
    """A JSON point: an array of exactly two numbers, which ``Triangle`` or ``world`` checks finite."""
    if type(raw) is not list or len(raw) != 2 or not all(type(v) in (int, float) for v in raw):
        raise InputError(f"{what} must be an array of two numbers, got {raw!r}")
    return raw


def _solution_dict(sol: world.WorldSolution, raw: bool) -> dict:
    coeffs = list(full_coefficients(sol.conic))
    if not raw:
        pivot = max(coeffs, key=abs)
        coeffs = [v / pivot for v in coeffs]
    return {
        "w": sol.param.w,
        "t": sol.param.t,
        "coefficients": coeffs,
        "tangent_points": [[p.x, p.y] for p in sol.tangent_points],
        "center": [sol.center.x, sol.center.y],
        "residuals": list(sol.residuals),
    }


def _oracle_check(kind: str, tri: Triangle, points: list, slope, report, grid_n: int) -> dict:
    """The oracle's verdict on a solved query, at the unit images the solve used: (beta, gamma)
    of the parsed points' barycentrics, and the slope's unit-frame direction from the
    point-slope step (:func:`~inellipse.point_slope.solve_point_slope_unit`).

    Each solution is matched one-to-one to a basin (at most 4! pairings);
    ``max_param_deviation`` is the largest (w, t) distance of the pairing
    whose largest distance is least.
    """
    from . import oracle  # imports numpy, so only --check loads it

    if kind == "boundary_tangency":
        cert = oracle.verify_inscribed(report.solutions[0].conic, tri)
        return {
            "method": "tangency_certificate",
            "passed": cert.passed,
            "side_residuals": [s.residual for s in cert.sides],
        }
    barys = barycentrics(tri, *points)
    if kind == "two_points":
        basins = oracle.brute_force_two_points(*(bary[1:] for bary in barys), grid_n)
    else:
        _, _, direction = point_slope.solve_point_slope_unit(tri, points[0], barys[0], slope)
        basins = oracle.brute_force_point_slope(barys[0][1:], direction, grid_n)
    solved = [(s.param.w, s.param.t) for s in report.solutions]
    deviation = 0.0
    matched = len(basins) == len(solved)
    if matched and basins:
        # One basin per solution, paired to make the largest distance least: two
        # solutions that share t (a double root of R) can sort in either order.
        deviation = min(
            max(max(abs(bw - sw), abs(bt - st)) for (bw, bt), (sw, st) in zip(order, solved))
            for order in itertools.permutations(basins)
        )
        matched = deviation < 1e-6
    return {
        "method": "grid_newton",
        "grid_n": grid_n,
        "params": [[w, t] for w, t in basins],
        "count_match": matched,
        "max_param_deviation": deviation,
    }


def run(argv=None) -> int:
    parser = _Parser(
        prog="inellipse",
        description="Ellipses inscribed in a triangle through prescribed data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("two-points", "point-slope", "tangency"):
        s = sub.add_parser(name)
        s.add_argument("input", help="query document path, or - for stdin")
        s.add_argument("--svg", metavar="PATH", help="also write an SVG figure")
        s.add_argument("--check", action="store_true", help="embed an oracle comparison")
        s.add_argument("--grid", type=int, default=None, help="oracle grid size (default 256)")
        s.add_argument("--raw", action="store_true", help="emit unnormalized coefficients")

    # Every error below, from the command line to writing the SVG, is
    # reported as one line on stderr before anything reaches stdout.
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit:  # --help printed the usage
            return 0
        kind = {"two-points": "two_points", "point-slope": "point_slope", "tangency": "boundary_tangency"}[
            args.command
        ]
        doc = _load_document(args.input)
        tri = _parse_triangle(doc)
        payload = _parse_query(doc, kind)
        options = doc.get("options", {})
        if not isinstance(options, dict):
            raise InputError("'options' must be an object")
        unknown = sorted(set(options) - set(_OPTIONS))
        if unknown:
            raise InputError(f"unknown options {unknown}; the options are {list(_OPTIONS)}")

        grid_n = args.grid if args.grid is not None else _option(options, "grid_n", int, _DEFAULT_GRID)
        svg_path = args.svg if args.svg is not None else _option(options, "svg", str, None)

        slope = None
        if kind == "point_slope":
            points = [_point(payload.get("p"), "point 'p'")]
            slope = _parse_slope(payload.get("slope"))
            report = world.solve_point_slope(tri, *points, slope)
        else:
            points = [_point(payload.get(k), f"point '{k}'") for k in ("p1", "p2")]
            solve = world.solve_two_points if kind == "two_points" else world.solve_tangency
            report = solve(tri, *points)

        out = {
            "case": report.case,
            "ellipses": [_solution_dict(s, args.raw) for s in report.solutions],
        }
        if args.check:
            out["oracle_check"] = _oracle_check(kind, tri, points, slope, report, grid_n)
        if svg_path:
            from . import svgfig  # imports numpy, so only --svg loads it

            tangent_points = [p for s in report.solutions for p in s.tangent_points]
            figure = svgfig.render_svg(tri, [s.conic for s in report.solutions], points, tangent_points)
            with open(svg_path, "w", encoding="utf-8") as fh:
                fh.write(figure)
        text = json.dumps(out, sort_keys=True, separators=(",", ":"), allow_nan=False)
    except (InputError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(text)
    return 2 if report.case.startswith("no_solution") else 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
