"""Tests of the benchmark itself: checker, generators, tracer and output contract.

Run with ``PYTHONPATH=src python -m pytest bench``.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

import calls
import checker
import tracer
import workload_gen

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME_RULE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    DECLARED = json.load(fh)


def first_of(workload, cls, tri_kind="box", seed=0):
    block = workload_gen.build_block(SPEC["workloads"][workload], seed, 0)
    return next(q for q in block if q["class"] == cls and q["tri_kind"] == tri_kind)


def answer(query):
    return calls.report_answer(calls.solve(query))


class TestChecker:
    @pytest.mark.parametrize("tri_kind", ["unit", "box", "pixel"])
    def test_accepts_the_package_answer(self, tri_kind):
        for workload, cls in [
            ("pairs", "generic"), ("pairs", "j_zero"), ("pairs", "vertex_line"),
            ("slope_tangency", "finite"), ("slope_tangency", "vertical"),
            ("slope_tangency", "excluded"), ("slope_tangency", "any"),
        ]:
            query = first_of(workload, cls, tri_kind)
            assert checker.check(query, *answer(query)) is None, (workload, cls)

    @pytest.mark.parametrize("coefficient", range(6))
    def test_rejects_one_perturbed_coefficient(self, coefficient):
        for workload, cls in [("pairs", "generic"), ("slope_tangency", "any")]:
            query = first_of(workload, cls)
            case, conics = answer(query)
            bad = list(conics[0])
            bad[coefficient] += 1e-6 * max(map(abs, bad))
            assert checker.check(query, case, (tuple(bad), *conics[1:])) is not None

    def test_rejects_a_dropped_solution(self):
        for cls in ("generic", "vertex_line"):
            query = first_of("pairs", cls)
            case, conics = answer(query)
            assert checker.check(query, case, conics[1:]).startswith("count:")

    def test_rejects_a_duplicated_solution(self):
        query = first_of("pairs", "generic")
        case, conics = answer(query)
        assert checker.check(query, case, (*conics[:3], conics[0])).startswith("duplicate:")

    def test_rejects_a_wrong_no_solution_vertex(self):
        query = first_of("slope_tangency", "excluded")
        case, conics = answer(query)
        assert case == f"no_solution:{query['vertex']}"
        for other in workload_gen.VERTEX_NAMES:
            if other != query["vertex"]:
                assert checker.check(query, f"no_solution:{other}", conics).startswith("case:")

    def test_rejects_a_solution_where_none_exists(self):
        query = first_of("slope_tangency", "excluded")
        other = dict(first_of("slope_tangency", "finite"), expected=1)
        assert checker.check(query, "unique", answer(other)[1]).startswith("count:")

    def test_rejects_contacts_away_from_the_given_points(self):
        query = first_of("slope_tangency", "any")
        side = checker._side_of(query["triangle"], query["p1"])
        a, b = query["triangle"][side], query["triangle"][(side + 1) % 3]
        moved = dict(query, p1=[query["p1"][k] + 1e-6 * (b[k] - a[k]) for k in range(2)])
        assert checker.check(moved, *answer(query)).startswith("contact-match:")


class TestGenerators:
    @pytest.mark.parametrize("workload", sorted(SPEC["workloads"]))
    def test_reproducible_per_seed_and_block(self, workload):
        spec = SPEC["workloads"][workload]
        first = workload_gen.digest(workload_gen.build_block(spec, 7, 0))
        assert first == workload_gen.digest(workload_gen.build_block(spec, 7, 0))
        assert first != workload_gen.digest(workload_gen.build_block(spec, 8, 0))
        assert first != workload_gen.digest(workload_gen.build_block(spec, 7, 1))

    @pytest.mark.parametrize("workload", sorted(SPEC["workloads"]))
    def test_seed_zero_digest_is_recorded(self, workload):
        block = workload_gen.build_block(SPEC["workloads"][workload], 0, 0)
        assert workload_gen.digest(block) == SPEC["digests"][workload]

    @pytest.mark.parametrize("workload", sorted(SPEC["workloads"]))
    def test_block_holds_the_stated_shares(self, workload):
        spec = SPEC["workloads"][workload]
        block = workload_gen.build_block(spec, 3, 2)
        assert len(block) == workload_gen.BLOCK
        for key, count in workload_gen.exact_counts(spec["classes"], len(block)).items():
            family, cls = key.split("/")
            of_class = [q for q in block if q["family"] == family and q["class"] == cls]
            assert len(of_class) == count, key
            for kind, n in workload_gen.exact_counts(workload_gen.TRIANGLE_SHARES, count).items():
                assert sum(q["tri_kind"] == kind for q in of_class) == n, (key, kind)

    def test_near_vertex_line_offsets_are_stratified(self):
        from inellipse.affine import Triangle, apply_point, map_to_unit
        from inellipse.geom import Point

        block = workload_gen.build_block(SPEC["workloads"]["pairs"], 5, 0)
        exponents = []
        for q in (q for q in block if q["class"] == "near_vertex_line"):
            fwd = map_to_unit(Triangle(*(Point(*v) for v in q["triangle"])))
            u1, u2 = (apply_point(fwd, Point(*q[k])) for k in ("p1", "p2"))
            vertex = workload_gen.VERTEX_NAMES.index(q["vertex"])
            exponents.append(math.log10(workload_gen.vertex_line_sines(u1, u2)[vertex]))
        # One offset in each of len(exponents) equal slices of [-9, -4].
        width = 5.0 / len(exponents)
        for k, e in enumerate(sorted(exponents)):
            assert abs(e - (-9.0 + width * (k + 0.5))) <= width / 2 + 1e-3

    def test_a_triangle_thin_along_a_vertical_slope_is_drawn_again(self, monkeypatch):
        import random

        thin = [[500.0, 0.0], [500.001, 1000.0], [499.999, 500.0]]
        wide = [[0.0, 0.0], [1000.0, 0.0], [0.0, 1000.0]]
        triangles = iter([thin, wide])
        monkeypatch.setattr(workload_gen, "make_triangle", lambda rng, kind: next(triangles))
        query = workload_gen.slope_query(random.Random(1), "vertical", "pixel", 0, 0.5)
        assert query["triangle"] == wide and query["slope"] == "vertical"

    def test_pixel_triangles_are_not_filtered_for_shape(self):
        block = workload_gen.build_block(SPEC["workloads"]["pairs"], 6, 0)
        thin = [
            q for q in block
            if q["tri_kind"] == "pixel"
            and min(math.dist(q["triangle"][i], q["triangle"][(i + 1) % 3]) for i in range(3)) < 1000 / 6
        ]
        assert thin


class TestTracer:
    def test_counts_calls_made_through_by_name_imports(self):
        from inellipse import two_points, world
        from inellipse.geom import Point

        original = two_points.pair_invariants
        tr = tracer.Tracer()
        tr.install()
        try:
            assert two_points.pair_invariants is not original
            two_points.solve_two_points_unit(Point(0.25, 0.125), Point(0.5, 1 / 6))
            two_points.solve_two_points_unit(Point(0.25, 0.125), Point(0.5, 1 / 6))
            assert {rec[-1] for rec in tr.spans} == {1, 2}
            assert all(rec[-1] == tr.spans[rec[0]][-1] for rec in tr.spans if rec[0] is not None)
            tr.fold()
        finally:
            tr.uninstall()
        assert two_points.pair_invariants is original
        assert world.solve_two_points.__module__ == "inellipse.world"
        assert tr.totals.calls["kernel.pair_invariants"] == 8
        assert tr.totals.calls["kernel.poly_q"] > 0
        assert tr.totals.name_ns["two_points.solve_two_points_unit"] > 0
        assert 0 < tr.totals.self_ns["two_points"] < tr.totals.root_ns

    def test_records_exceptions_leaving_a_layer(self):
        from inellipse import world
        from inellipse.affine import UNIT_TRIANGLE
        from inellipse.errors import NotInterior
        from inellipse.geom import Point

        tr = tracer.Tracer()
        tr.install()
        try:
            with pytest.raises(NotInterior):
                world.solve_two_points(UNIT_TRIANGLE, Point(0.9, 0.9), Point(0.2, 0.2))
            tr.fold()
        finally:
            tr.uninstall()
        assert tr.totals.raised["world"] == 1
        assert tr.totals.raised_types["other"] == 1


class TestMeasurement:
    def test_only_core_failures_count_as_failed(self):
        import run

        out = run.Outcomes(["two_points/near_vertex_line"], ["pixel"])
        core = {"family": "two_points", "class": "generic", "tri_kind": "box"}
        assert not out.count(dict(core, **{"class": "near_vertex_line"}), "count: 2 != 4")
        assert not out.count(dict(core, tri_kind="pixel"), "tangency: side 0")
        assert (out.failed, out.known_failed) == (0, 2)
        assert out.count(core, None)
        assert not out.count(core, "count: 3 != 4")
        assert (out.attempted, out.failed, out.known_failed) == (4, 1, 2)
        assert out.passed_frac() == 0.25
        assert (out.near_passed, out.near_attempted) == (0, 1)

    def test_steady_keeps_the_fastest_chunks_holding_the_steady_share(self):
        import run

        chunks = []
        for mean in (5, 1, 3, 2, 4, 6, 8, 7):
            chunk = run.Chunk(mean * 100)
            chunk.ns.extend([mean] * 100)
            chunks.append(chunk)
        kept = [c.ns[0] for c in run.steady(chunks)]
        assert kept == list(range(1, math.ceil(run.STEADY_SHARE * len(chunks)) + 1))


def run_benchmark(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_metrics_match_benchmark_json(trace):
    proc = run_benchmark(["--workload", "slope_tangency", "--seed", "4", "--seconds", "1", "--trace", trace])
    assert proc.returncode == 0, proc.stderr
    info, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = DECLARED["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for name, metric in result["metrics"].items():
        assert NAME_RULE.fullmatch(name), name
        assert isinstance(metric["value"], float)
    spec = SPEC["workloads"]["slope_tangency"]
    if trace == "1":
        assert info["inputs_sha256"] == workload_gen.digest(workload_gen.build_block(spec, 4, 0))
    else:
        stream = []
        while len(stream) < info["queries"]:
            stream += workload_gen.build_block(spec, 4, len(stream) // workload_gen.BLOCK)
        assert info["inputs_sha256"] == workload_gen.digest(stream[:info["queries"]])


def test_declared_names_follow_the_rule():
    names = [w["name"] for w in DECLARED["workloads"]]
    names += [m["name"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RULE.fullmatch(name), name
    assert sorted(w["name"] for w in DECLARED["workloads"]) == sorted(SPEC["workloads"])


def test_layer_table_covers_every_per_layer_metric():
    rows = [name for row in SPEC["layer_table"] for name in row["metrics"]]
    assert sorted(rows) == sorted(m["name"] for m in DECLARED["per_layer"])
    end_to_end = {m["name"] for m in DECLARED["end_to_end"]}
    assert all(set(row["moves"]) <= end_to_end for row in SPEC["layer_table"])


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run_benchmark(["--workload", "pairs", "--seed", "1", "--seconds", "1", "--trace", "0"], str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
