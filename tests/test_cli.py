"""End-to-end CLI behavior: JSON contract, exit codes, SVG output."""

import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from inellipse import world
from inellipse.affine import Triangle
from inellipse.cli import run
from inellipse.conic import full_coefficients
from inellipse.geom import Point, Slope

from helpers import j_zero_pair

UNIT = [[0, 0], [1, 0], [0, 1]]
SVG_NS = "{http://www.w3.org/2000/svg}"


def write_doc(tmp_path, doc, name="query.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_and_parse(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def normalized(coeffs):
    pivot = max(coeffs, key=abs)
    return [v / pivot for v in coeffs]


class TestTwoPoints:
    DOC = {
        "triangle": UNIT,
        "query": {"two_points": {"p1": [0.25, 0.125], "p2": [0.5, 1 / 6]}},
    }

    def test_generic_case(self, tmp_path, capsys):
        code, report = run_and_parse(capsys, ["two-points", write_doc(tmp_path, self.DOC)])
        assert code == 0
        assert report["case"] == "generic_4"
        assert len(report["ellipses"]) == 4
        for e in report["ellipses"]:
            assert max(abs(v) for v in e["coefficients"]) == 1.0
            assert max(e["residuals"]) < 1e-9

    def test_deterministic_bytes(self, tmp_path, capsys):
        path = write_doc(tmp_path, self.DOC)
        run(["two-points", path])
        first = capsys.readouterr().out
        run(["two-points", path])
        second = capsys.readouterr().out
        assert first == second

    def test_check_block(self, tmp_path, capsys):
        code, report = run_and_parse(
            capsys, ["two-points", write_doc(tmp_path, self.DOC), "--check"]
        )
        assert code == 0
        check = report["oracle_check"]
        assert check["count_match"] is True
        assert check["max_param_deviation"] < 1e-6
        assert len(check["params"]) == 4

    def test_check_pairs_solutions_that_share_t(self, tmp_path, capsys):
        # On the j_zero branch two solutions share R's double root t up to
        # round-off, so the basins and the solutions can sort in different
        # orders by (t, w); the check pairs each solution with its own basin.
        rng = np.random.default_rng(72)
        pairs = [([0.125, 0.45710678118654757], [0.25, 0.5])]
        pairs += [tuple(list(p) for p in j_zero_pair(rng)) for _ in range(6)]
        for p1, p2 in pairs:
            doc = {"triangle": UNIT, "query": {"two_points": {"p1": p1, "p2": p2}}, "options": {"grid_n": 128}}
            code, report = run_and_parse(capsys, ["two-points", write_doc(tmp_path, doc), "--check"])
            assert code == 0
            assert report["case"] == "generic_j_zero"
            check = report["oracle_check"]
            assert check["count_match"] is True
            assert check["max_param_deviation"] < 1e-9

    def test_svg_written(self, tmp_path, capsys):
        svg = tmp_path / "fig.svg"
        code, _ = run_and_parse(
            capsys, ["two-points", write_doc(tmp_path, self.DOC), "--svg", str(svg)]
        )
        assert code == 0
        root = ET.parse(svg).getroot()
        assert len(root.findall(f"{SVG_NS}path")) == 4
        assert len(root.findall(f"{SVG_NS}line")) == 3

    def test_raw_coefficients(self, tmp_path, capsys):
        _, report = run_and_parse(
            capsys, ["two-points", write_doc(tmp_path, self.DOC), "--raw"]
        )
        assert any(abs(v) != 1.0 for e in report["ellipses"] for v in [max(e["coefficients"], key=abs)])


class TestPointSlope:
    def test_vertical_regression(self, tmp_path, capsys):
        doc = {
            "triangle": UNIT,
            "query": {"point_slope": {"p": [1 / 3, 1 / 3], "slope": "vertical"}},
        }
        code, report = run_and_parse(capsys, ["point-slope", write_doc(tmp_path, doc)])
        assert code == 0
        assert report["case"] == "unique"
        coeffs = report["ellipses"][0]["coefficients"]
        expected = normalized([25.0, 4.0, 4.0, -10.0, -4.0, 1.0])
        assert coeffs == pytest.approx(expected, rel=1e-9)

    def test_no_solution_exit_code(self, tmp_path, capsys):
        doc = {
            "triangle": UNIT,
            "query": {"point_slope": {"p": [0.5, 0.25], "slope": 0.5}},
        }
        code, report = run_and_parse(capsys, ["point-slope", write_doc(tmp_path, doc)])
        assert code == 2
        assert report["case"] == "no_solution:origin"
        assert report["ellipses"] == []


class TestTangency:
    def test_boundary_regression(self, tmp_path, capsys):
        doc = {
            "triangle": UNIT,
            "query": {"boundary_tangency": {"p1": [2 / 3, 0.0], "p2": [0.25, 0.75]}},
        }
        code, report = run_and_parse(capsys, ["tangency", write_doc(tmp_path, doc)])
        assert code == 0
        assert report["case"] == "boundary_unique"
        coeffs = report["ellipses"][0]["coefficients"]
        expected = normalized([324.0, 196.0, 456.0, -432.0, -336.0, 144.0])
        assert coeffs == pytest.approx(expected, rel=1e-9)

    def test_tangency_check_block(self, tmp_path, capsys):
        doc = {
            "triangle": UNIT,
            "query": {"boundary_tangency": {"p1": [0.5, 0.0], "p2": [0.0, 0.5]}},
        }
        code, report = run_and_parse(capsys, ["tangency", write_doc(tmp_path, doc), "--check"])
        assert code == 0
        assert report["oracle_check"]["passed"] is True


class TestInputContract:
    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("not json {")
        code = run(["two-points", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.strip().startswith("error:")
        assert "\n" not in err.strip()

    def test_degenerate_triangle(self, tmp_path, capsys):
        doc = {
            "triangle": [[0, 0], [1, 1], [2, 2]],
            "query": {"two_points": {"p1": [0.2, 0.2], "p2": [0.3, 0.2]}},
        }
        assert run(["two-points", write_doc(tmp_path, doc)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_variant_must_match_subcommand(self, tmp_path, capsys):
        doc = {
            "triangle": UNIT,
            "query": {"point_slope": {"p": [0.3, 0.3], "slope": 1.25}},
        }
        assert run(["two-points", write_doc(tmp_path, doc)]) == 1
        capsys.readouterr()

    def test_exactly_one_variant(self, tmp_path, capsys):
        doc = {
            "triangle": UNIT,
            "query": {
                "two_points": {"p1": [0.2, 0.2], "p2": [0.3, 0.2]},
                "point_slope": {"p": [0.3, 0.3], "slope": 1.0},
            },
        }
        assert run(["two-points", write_doc(tmp_path, doc)]) == 1
        capsys.readouterr()

    def test_exterior_point_is_input_error(self, tmp_path, capsys):
        doc = {
            "triangle": UNIT,
            "query": {"two_points": {"p1": [0.9, 0.9], "p2": [0.3, 0.2]}},
        }
        assert run(["two-points", write_doc(tmp_path, doc)]) == 1
        capsys.readouterr()

    def test_bad_slope_token(self, tmp_path, capsys):
        doc = {
            "triangle": UNIT,
            "query": {"point_slope": {"p": [0.3, 0.3], "slope": "steep"}},
        }
        assert run(["point-slope", write_doc(tmp_path, doc)]) == 1
        capsys.readouterr()

    def test_stdin_input(self, tmp_path, capsys, monkeypatch):
        import io

        doc = {
            "triangle": UNIT,
            "query": {"two_points": {"p1": [0.25, 0.125], "p2": [0.5, 1 / 6]}},
        }
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        code, report = run_and_parse(capsys, ["two-points", "-"])
        assert code == 0
        assert report["case"] == "generic_4"

    def test_options_from_document(self, tmp_path, capsys):
        svg = tmp_path / "from_options.svg"
        doc = {
            "triangle": UNIT,
            "query": {"two_points": {"p1": [0.25, 0.125], "p2": [0.5, 1 / 6]}},
            "options": {"svg": str(svg), "grid_n": 64},
        }
        code, _ = run_and_parse(capsys, ["two-points", write_doc(tmp_path, doc)])
        assert code == 0
        assert svg.exists()

    def test_world_triangle_query(self, tmp_path, capsys):
        doc = {
            "triangle": [[1, 1], [4, 2], [2, 5]],
            "query": {"two_points": {"p1": [2.0, 2.0], "p2": [2.5, 3.0]}},
        }
        code, report = run_and_parse(capsys, ["two-points", write_doc(tmp_path, doc)])
        assert code == 0
        assert len(report["ellipses"]) == 4

    def test_world_triangle_tangency(self, tmp_path, capsys):
        # Contacts prescribed on sides a-b and b-c of a skewed triangle.
        doc = {
            "triangle": [[1, 1], [4, 2], [2, 5]],
            "query": {"boundary_tangency": {"p1": [1.9, 1.3], "p2": [2.8, 3.8]}},
        }
        code, report = run_and_parse(capsys, ["tangency", write_doc(tmp_path, doc)])
        assert code == 0
        assert report["case"] == "boundary_unique"
        tps = report["ellipses"][0]["tangent_points"]
        assert any(math.dist(p, [1.9, 1.3]) < 1e-9 for p in tps)
        assert any(math.dist(p, [2.8, 3.8]) < 1e-9 for p in tps)


class TestEncoder:
    """``--raw`` output parses back to exactly the floats the world solvers return."""

    BOX = [[1, 2], [7, 1], [3, 6.5]]
    QUERIES = {
        "two-points": (
            {"two_points": {"p1": [3, 3], "p2": [4, 3.2]}},
            world.solve_two_points, (Point(3, 3), Point(4, 3.2)),
        ),
        "point-slope": (
            {"point_slope": {"p": [3, 3], "slope": 0.25}},
            world.solve_point_slope, (Point(3, 3), Slope.finite(0.25)),
        ),
        "tangency": (
            {"boundary_tangency": {"p1": [4, 1.5], "p2": [5, 3.75]}},
            world.solve_tangency, (Point(4, 1.5), Point(5, 3.75)),
        ),
    }

    @pytest.mark.parametrize("command", sorted(QUERIES))
    def test_raw_numbers_round_trip(self, tmp_path, capsys, command):
        query, solve, args = self.QUERIES[command]
        code, report = run_and_parse(
            capsys, [command, write_doc(tmp_path, {"triangle": self.BOX, "query": query}), "--raw"]
        )
        assert code == 0
        expected = solve(Triangle(*(Point(*v) for v in self.BOX)), *args)
        assert report["case"] == expected.case
        assert len(report["ellipses"]) == len(expected.solutions) > 0
        for got, sol in zip(report["ellipses"], expected.solutions):
            assert got["w"] == sol.param.w and got["t"] == sol.param.t
            assert got["coefficients"] == list(full_coefficients(sol.conic))
            assert got["tangent_points"] == [list(p) for p in sol.tangent_points]
            assert got["center"] == list(sol.center)
            assert got["residuals"] == list(sol.residuals)


def run_cli_process(argv, stdin):
    """The CLI in a fresh interpreter (``-X dev`` shows unclosed files)."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-X", "dev", "-m", "inellipse.cli", *argv],
        input=stdin, capture_output=True, text=True, env=env, timeout=120,
    )


GOOD_PAIR = '"query": {"two_points": {"p1": [0.25, 0.125], "p2": [0.5, 0.1667]}}'


class TestMalformedInput:
    """Each case is one ``error:`` line on stderr, nothing on stdout, exit 1."""

    CASES = {
        "grid_n_not_a_number": ([], '"options": {"grid_n": "abc"}'),
        "tolerance_not_a_number": ([], '"options": {"tolerance": "x"}'),
        "tolerance_nan_literal": ([], '"options": {"tolerance": NaN}'),
        "tolerance_nan_flag": (["--tol", "nan"], '"options": {}'),
        "option_key_typo": ([], '"options": {"tolerence": 1e-9}'),
        "grid_flag_not_an_integer": (["--grid", "abc"], '"options": {}'),
        "unknown_flag": (["--frobnicate"], '"options": {}'),
        "svg_not_a_path": ([], '"options": {"svg": true}'),
        "options_not_an_object": ([], '"options": []'),
        "grid_below_oracle_minimum": (["--check", "--grid", "10"], '"options": {}'),
        "grid_above_oracle_ceiling": (["--check", "--grid", "2049"], '"options": {}'),
        "grid_beyond_the_float_range": (["--check"], '"options": {"grid_n": 1' + "0" * 400 + "}"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_two_point_document(self, case):
        flags, options = self.CASES[case]
        doc = f'{{"triangle": [[0, 0], [1, 0], [0, 1]], {GOOD_PAIR}, {options}}}'
        proc = run_cli_process(["two-points", "-", *flags], doc)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1, proc.stderr

    def test_missing_subcommand(self):
        proc = run_cli_process([], "")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1, proc.stderr

    @pytest.mark.parametrize("argv", [["--help"], ["two-points", "--help"]])
    def test_help_exits_zero(self, argv):
        proc = run_cli_process(argv, "")
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage:")
        assert proc.stderr == ""

    # A JSON integer beyond the float range, where a slope, a point and a vertex are read, and
    # finite vertices whose squared edge lengths are beyond it.
    HUGE = 10**400
    OVERFLOW_CASES = {
        "slope_integer_beyond_float": (
            "point-slope", {"triangle": UNIT, "query": {"point_slope": {"p": [0.3, 0.3], "slope": HUGE}}}
        ),
        "point_integer_beyond_float": (
            "two-points", {"triangle": UNIT, "query": {"two_points": {"p1": [HUGE, 0.125], "p2": [0.5, 0.1667]}}}
        ),
        "vertex_integer_beyond_float": (
            "two-points",
            {"triangle": [[HUGE, 0], [1, 0], [0, 1]], "query": {"two_points": {"p1": [0.25, 0.125], "p2": [0.5, 0.1667]}}},
        ),
        # Finite vertices whose squared edge lengths overflow.
        "squared_edge_beyond_float": (
            "two-points",
            {"triangle": [[1e200, 0], [1, 0], [0, 1]], "query": {"two_points": {"p1": [0.25, 0.125], "p2": [0.5, 0.1667]}}},
        ),
    }

    @pytest.mark.parametrize("case", sorted(OVERFLOW_CASES))
    def test_integer_beyond_the_float_range(self, case):
        command, doc = self.OVERFLOW_CASES[case]
        proc = run_cli_process([command, "-"], json.dumps(doc))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1, proc.stderr

    # Finite vertices whose map to the unit triangle squares past the float range: the
    # unit triangle scaled by 1e-160, and a thin one whose squared edges are normal floats.
    MAP_OVERFLOW_CASES = {
        "scaled_1e-160": ([[0, 0], [1e-160, 0], [0, 1e-160]], [[2.5e-161, 1.25e-161], [5e-161, 1.667e-161]]),
        "thin": ([[0, 0], [1e-145, 0], [3e-146, 1e-156]], [[2.875e-146, 1.25e-157], [5.5001e-146, 1.667e-157]]),
    }

    @pytest.mark.parametrize("case", sorted(MAP_OVERFLOW_CASES))
    def test_map_scale_beyond_the_float_range(self, case):
        triangle, (p1, p2) = self.MAP_OVERFLOW_CASES[case]
        doc = {"triangle": triangle, "query": {"two_points": {"p1": p1, "p2": p2}}}
        proc = run_cli_process(["two-points", "-"], json.dumps(doc))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1, proc.stderr
        assert "squared scale of the map to the unit triangle" in proc.stderr

    # Every point and vertex is a JSON array of exactly two numbers.
    PAIR = {"p1": [0.25, 0.125], "p2": [0.5, 0.1667]}
    MALFORMED_POINTS = {
        "string_vertices": {"triangle": ["00", "10", "01"], "query": {"two_points": PAIR}},
        "string_coordinate": {"triangle": [[0, 0], ["1", 0], [0, 1]], "query": {"two_points": PAIR}},
        "boolean_coordinates": {"triangle": [[0, 0], [True, 0], [0, True]], "query": {"two_points": PAIR}},
        "three_coordinate_vertex": {"triangle": [[0, 0, 0], [1, 0], [0, 1]], "query": {"two_points": PAIR}},
        "three_coordinate_point": {"triangle": UNIT, "query": {"two_points": {**PAIR, "p1": [0.25, 0.125, 3]}}},
        "one_coordinate_point": {"triangle": UNIT, "query": {"two_points": {**PAIR, "p2": [0.5]}}},
        "boolean_point": {"triangle": UNIT, "query": {"two_points": {**PAIR, "p2": [0.5, False]}}},
        "missing_point": {"triangle": UNIT, "query": {"two_points": {"p1": [0.25, 0.125]}}},
        "point_is_an_object": {"triangle": UNIT, "query": {"two_points": {**PAIR, "p1": {"x": 0.25, "y": 0.125}}}},
        "query_is_a_list": {"triangle": UNIT, "query": {"two_points": [[0.25, 0.125], [0.5, 0.1667]]}},
    }

    @pytest.mark.parametrize("case", sorted(MALFORMED_POINTS))
    def test_malformed_point(self, case):
        proc = run_cli_process(["two-points", "-"], json.dumps(self.MALFORMED_POINTS[case]))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1, proc.stderr

    def test_slope_overflowing_to_infinity(self):
        doc = '{"triangle": [[0, 0], [1, 0], [0, 1]], "query": {"point_slope": {"p": [0.3, 0.3], "slope": 1e400}}}'
        proc = run_cli_process(["point-slope", "-"], doc)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1, proc.stderr

    def test_document_file_is_closed(self, tmp_path):
        path = tmp_path / "query.json"
        path.write_text(f'{{"triangle": [[0, 0], [1, 0], [0, 1]], {GOOD_PAIR}}}')
        proc = run_cli_process(["two-points", str(path)], "")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["case"] == "generic_4"
        assert proc.stderr == ""
