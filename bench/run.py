"""Benchmark for inellipse: seeded workloads, end-to-end metrics, traced layers.

Usage, from the root of a checkout::

    python3 bench/run.py --workload {pairs,slope_tangency} --seed N \
        --seconds S --trace {0,1}

Queries are a stream of distinct queries from ``workload_gen`` for the seed;
``workloads.json`` fixes each workload's mix.  One
caller sends one query at a time (closed loop) in 0.1 s chunks for
``--seconds`` of wall time, checking included.  The median comes from the
fastest chunks that hold a fiftieth of the attempts; throughput and the tail
come from every attempt.  Every
answer is checked by ``checker`` between chunks, outside the timed calls.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` -- the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  The line before it describes the run (input
digest, failures by reason, sample count).

The package is imported from ``src/`` of the checkout, never from an
installed copy; without it the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter, defaultdict

import numpy

import checker
import tracer
import workload_gen

calls = None  # the ``calls`` module, imported by main() once src/ is on the path

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD_TIMEOUT_S = 60.0
with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
# "<family>.<class>" of every query class of every workload.
CLASS_KEYS = sorted({k.replace("/", ".") for w in SPEC["workloads"].values() for k in w["classes"]})
# Fresh processes timed for setup_s in a run.
SETUP_PROBES = 11
# Length of one timed stretch of the loop; answers are checked between them.
CHUNK_NS = 100_000_000
# Blocks queued before each chunk, so a chunk ends on time or after at
# least this many blocks of queries (today's fastest workload runs about one
# block a chunk), never after a sliver of a block.
QUEUED_BLOCKS = 2
# Share of the attempts, in the fastest chunks, that the median is taken from.
STEADY_SHARE = 0.02
# latency_tail_ms, over every attempt of the run.  At p99 the spread over
# seeds on a shared two-vCPU host reached 0.2 of the median; at p99.5 and
# p99.9 of the fastest chunks, 0.2 to 0.8.
TAIL_PERCENTILE = 98
# Core queries of each family run as traced cold CLI processes in a trace run.
CLI_SAMPLE = 3


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


def run_child(argv: list[str], stdin_text: str = "") -> tuple[int, subprocess.CompletedProcess]:
    """Run a child to completion; returns (wall ns, completed process)."""
    t0 = time.perf_counter_ns()
    proc = subprocess.run(
        argv, input=stdin_text, capture_output=True, text=True, cwd=ROOT,
        timeout=CHILD_TIMEOUT_S,
    )
    return time.perf_counter_ns() - t0, proc


def first_query_ns(query: dict) -> int:
    """Fresh interpreter: process start until the first query has completed."""
    argv = [sys.executable, os.path.join(HERE, "first_query.py"), json.dumps(query)]
    t0 = time.perf_counter_ns()
    with subprocess.Popen(
        argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, cwd=ROOT,
    ) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter_ns() - t0
            _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if line.strip() != "done" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {err.strip()[-500:]}")
    return elapsed


def interpreter_ns() -> int:
    ns, proc = run_child([sys.executable, "-c", "pass"])
    if proc.returncode != 0:
        raise RuntimeError("bare interpreter failed")
    return ns


def import_times_us() -> tuple[float, float]:
    """(numpy, inellipse without numpy) cumulative import time, from -X importtime."""
    _, proc = run_child([sys.executable, "-X", "importtime", "-c", "import inellipse.cli"])
    if proc.returncode != 0:
        raise RuntimeError(f"import failed: {proc.stderr.strip()[-500:]}")
    cumulative = {}
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            cumulative[parts[2].strip()] = float(parts[1])
    # "inellipse.cli" is the top-level entry: its cumulative time covers the
    # package __init__ and everything imported on the way, numpy included.
    numpy_us = cumulative.get("numpy", 0.0)
    return numpy_us, cumulative["inellipse.cli"] - numpy_us


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


class Feed:
    """The workload's query stream for a seed, block by block; hashes what it hands out."""

    def __init__(self, spec: dict, seed: int):
        self.spec, self.seed = spec, seed
        self.blocks = 0
        self.queue: list[dict] = []
        self.taken = 0
        self._sha = hashlib.sha256()

    def pending(self) -> list[dict]:
        """Queries not yet handed out, topped up to at least QUEUED_BLOCKS blocks.

        A timed chunk never runs short of queries, so chunks end on time and
        not at a block boundary.
        """
        if len(self.queue) < QUEUED_BLOCKS * workload_gen.BLOCK:
            while len(self.queue) < QUEUED_BLOCKS * workload_gen.BLOCK:
                self.queue += workload_gen.build_block(self.spec, self.seed, self.blocks)
                self.blocks += 1
            # The queued queries are the benchmark's, not the program's: kept
            # out of the cyclic collector, they do not lengthen the program's
            # collections, which then land in its tail as they would for a
            # caller that holds only its current query.  Garbage is collected
            # first, since frozen garbage would never be freed.
            gc.collect()
            gc.freeze()
        return self.queue

    def advance(self, n: int) -> None:
        for q in self.queue[:n]:
            self._sha.update(workload_gen.encode(q))
        self.queue = self.queue[n:]
        self.taken += n

    def digest(self) -> str:
        """Equal to ``workload_gen.digest`` of every query handed out, in order."""
        return self._sha.hexdigest()


class Outcomes:
    """Check verdicts of every attempt.

    Queries in the near-boundary classes and on the exempt triangle kinds
    probe known defects (ROADMAP 4): their failures are measured, in
    ``known_failed`` and the pass fractions, not counted as failed
    operations.  ``failed`` counts every other query that raised or failed
    the check, and any such failure makes the run incorrect.
    """

    def __init__(self, near_boundary, exempt_triangles):
        self.near_boundary = set(near_boundary)
        self.exempt = set(exempt_triangles)
        self.attempted = 0
        self.failed = 0
        self.known_failed = 0
        self.near_attempted = 0
        self.near_passed = 0
        self.reasons = Counter()

    def record(self, query: dict, report, error: str | None) -> bool:
        """Check one attempt; ``report`` is the ``SolveReport`` or None when it raised."""
        reason = error if report is None else checker.check(query, *calls.report_answer(report))
        return self.count(query, reason)

    def count(self, query: dict, reason: str | None) -> bool:
        key = f"{query['family']}/{query['class']}"
        near = key in self.near_boundary
        self.attempted += 1
        self.near_attempted += near
        if reason is None:
            self.near_passed += near
            return True
        self.reasons[f"{key}/{query['tri_kind']}: {reason.split(':')[0]}"] += 1
        if near or query["tri_kind"] in self.exempt:
            self.known_failed += 1
        else:
            self.failed += 1
        return False

    def passed_frac(self) -> float:
        return (self.attempted - self.failed - self.known_failed) / self.attempted

    def merge(self, other: "Outcomes") -> None:
        for key in ("attempted", "failed", "known_failed", "near_attempted", "near_passed"):
            setattr(self, key, getattr(self, key) + getattr(other, key))
        self.reasons += other.reasons


class Chunk:
    """Latencies of the attempts in one timed stretch of the loop.

    They are kept as 4-byte integers, so that the memory they take, which
    grows with the number of attempts a run gets through, stays a small
    share of peak_rss_mb.
    """

    def __init__(self, wall_ns: int):
        self.wall_ns = wall_ns
        self.ns = array("I")
        self.passed = 0


def latencies(chunks: list[Chunk]) -> array:
    out = array("I")
    for c in chunks:
        out.extend(c.ns)
    return out


def percentile(values: array, p: float) -> int:
    """Nearest-rank percentile of an ``array("I")``, sorted as 4-byte integers to keep memory small."""
    ordered = numpy.sort(numpy.frombuffer(values, dtype=numpy.uintc))
    return int(ordered[max(1, math.ceil(p / 100.0 * len(ordered))) - 1])


def timed_chunk(queries, budget_ns: int):
    """Closed loop: one query at a time, each call timed on its own.

    Runs ``queries`` in order until they run out or ``budget_ns`` has passed.
    Returns ([(query, ns, report or None, error or None)], wall ns of the
    loop).  Checking happens after, outside the timed calls.
    """
    clock = time.perf_counter_ns
    solve = calls.solve
    timed = []
    c0 = clock()
    end = c0 + budget_ns
    for q in queries:
        t0 = clock()
        try:
            report, error = solve(q), None
        except Exception as exc:  # every error is a failed query
            report, error = None, type(exc).__name__
        t1 = clock()
        timed.append((q, t1 - t0, report, error))
        if t1 >= end:
            break
    return timed, clock() - c0


def steady(chunks: list[Chunk]) -> list[Chunk]:
    """The fastest chunks by mean latency that together hold STEADY_SHARE of the attempts.

    Other tenants of the host slow stretches of a second to minutes by up
    to 1.7 times (measured: 0.1 s chunks of pairs queries alternate between
    about 300 and 500 us a query, so the latencies of a whole run are
    bimodal with the median between the modes); the fastest stretches are
    the program's own cost.  Every chunk holds distinct queries, so
    first-call costs and periodic pauses stay in what is kept.  A median
    from a larger share jumps to the slow mode whenever the quiet
    stretches of a run hold less than that share: over ten pairs runs in a
    busy hour it spread by 0.31 from the fastest tenth, 0.12 from the
    fastest twentieth and 0.056 from the fastest fiftieth.  Throughput, a
    mean, moves smoothly with the share of slow stretches instead, and is
    taken from every chunk (spread 0.045 in that hour, against 0.10 from
    the fastest fiftieth).
    """
    total = sum(len(c.ns) for c in chunks)
    kept, n = [], 0
    for c in sorted(chunks, key=lambda c: c.wall_ns / len(c.ns)):
        if n >= STEADY_SHARE * total:
            break
        kept.append(c)
        n += len(c.ns)
    return kept


def measured_chunk(feed: Feed, out: Outcomes) -> Chunk:
    """Time one chunk of the stream, then check its answers.

    The previous chunk's answers are gone by the time ``feed.pending()``
    freezes what is alive.
    """
    timed, wall = timed_chunk(feed.pending(), CHUNK_NS)
    feed.advance(len(timed))
    chunk = Chunk(wall)
    for q, ns, report, error in timed:
        chunk.ns.append(min(ns, 0xFFFFFFFF))
        chunk.passed += out.record(q, report, error)
    return chunk


def end_to_end(spec: dict, seed: int, seconds: float, out: Outcomes):
    feed = Feed(spec, seed)
    probe = core_queries(workload_gen.build_block(spec, seed, 0), out)[0]
    # One set-up probe before the loop and one after each tenth of it, so
    # the probes sample the whole run, not one slow stretch.  The loop's
    # length is wall time, checking included: a run's length then does not
    # grow with the program's speed, and its chunks span the same stretch of
    # the host's load however fast the program is.
    setups = [first_query_ns(probe)]
    chunks: list[Chunk] = []
    start = time.perf_counter_ns()
    for tenth in range(1, SETUP_PROBES):
        while time.perf_counter_ns() - start < seconds * 1e9 * tenth / (SETUP_PROBES - 1):
            chunks.append(measured_chunk(feed, out))
        setups.append(first_query_ns(probe))
    # Read before the percentiles below make their temporary copies.
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    kept = steady(chunks)
    steady_ns, all_ns = latencies(kept), latencies(chunks)
    metrics = {
        "setup_s": statistics.median(setups) / 1e9,
        "queries_per_s": sum(c.passed for c in chunks) / sum(c.wall_ns for c in chunks) * 1e9,
        "latency_p50_ms": percentile(steady_ns, 50) / 1e6,
        "latency_tail_ms": percentile(all_ns, TAIL_PERCENTILE) / 1e6,
        "passed_frac": out.passed_frac(),
        "near_boundary_passed_frac": out.near_passed / out.near_attempted,
        "peak_rss_mb": rss_mb,
    }
    info = {
        "inputs_sha256": feed.digest(),
        "queries": feed.taken,
        "chunks": len(chunks),
        "steady_samples": len(steady_ns),
        "tail_samples": len(all_ns),
        "tail_samples_beyond": len(all_ns) - math.ceil(TAIL_PERCENTILE / 100.0 * len(all_ns)),
        "setup_samples_s": [s / 1e9 for s in setups],
    }
    return metrics, info


def core_queries(block, out: Outcomes) -> list[dict]:
    """Queries of the block whose failure would make the run incorrect."""
    return [
        q for q in block
        if f"{q['family']}/{q['class']}" not in out.near_boundary and q["tri_kind"] not in out.exempt
    ]


def cli_sample(block, out: Outcomes, totals) -> int:
    """The first core queries of each family as traced cold CLI processes (``cli_child.py``).

    The first of each family runs with ``--check``.  Returns the number run.
    """
    child = os.path.join(HERE, "cli_child.py")
    seen = Counter()
    for query in core_queries(block, out):
        family = query["family"]
        if seen[family] >= CLI_SAMPLE:
            continue
        seen[family] += 1
        query = dict(query, check=seen[family] == 1)
        _, proc = run_child([sys.executable, child, *calls.cli_args(query)], calls.cli_document(query))
        lines = [ln for ln in proc.stderr.splitlines() if ln.startswith("TRACE ")]
        if lines:
            totals.merge(json.loads(lines[-1][len("TRACE "):]))
        answer = calls.cli_answer(proc.returncode, proc.stdout)
        reason = f"exit {proc.returncode}" if answer is None else checker.check(query, *answer)
        out.count(query, reason)
    return sum(seen.values())


def run_pass(block, out: Outcomes, by_class=None, tr=None) -> int:
    """One pass over the block; returns the summed call time.

    ``by_class`` collects each call's time under its query class.
    """
    total = 0
    i = 0
    while i < len(block):
        timed, _ = timed_chunk(block[i:], CHUNK_NS)
        i += len(timed)
        if tr is not None:
            tr.fold()
        for q, ns, report, error in timed:
            out.record(q, report, error)
            if by_class is not None:
                by_class[f"{q['family']}.{q['class']}"].append(ns)
            total += ns
    return total


def traced(spec: dict, seed: int, seconds: float, out: Outcomes):
    interp = [interpreter_ns() for _ in range(SETUP_PROBES)]
    imports = [import_times_us() for _ in range(SETUP_PROBES)]
    block = workload_gen.build_block(spec, seed, 0)
    plain = Outcomes(out.near_boundary, out.exempt)
    tr = tracer.Tracer()
    plain_class = defaultdict(list)
    plain_ns = traced_ns = passes = 0
    start = time.perf_counter_ns()
    while passes == 0 or time.perf_counter_ns() - start < seconds * 1e9:
        # Untraced and traced passes over the same queries alternate, so the
        # overhead compares like with like.
        plain_ns += run_pass(block, plain, plain_class)
        tr.install()
        try:
            traced_ns += run_pass(block, out, tr=tr)
        finally:
            tr.uninstall()
        passes += 1
    nq = passes * len(block)
    # The cli and oracle layers run only in a CLI process.
    cli_totals = tracer.Totals()
    ncli = cli_sample(block, out, cli_totals)
    out.merge(plain)
    metrics = layer_metrics(tr.totals, nq, cli_totals, ncli)
    metrics["trace.overhead_frac"] = traced_ns / plain_ns - 1.0
    metrics["trace.unattributed_us"] = (traced_ns - tr.totals.root_ns) / nq / 1e3
    metrics["cli.interp_start_ms"] = statistics.median(interp) / 1e6
    metrics["cli.import_numpy_ms"] = statistics.median([a for a, _ in imports]) / 1e3
    metrics["cli.import_inellipse_ms"] = statistics.median([b for _, b in imports]) / 1e3
    for key in CLASS_KEYS:
        ns = plain_class.get(key)
        metrics[f"class.{key}.p50_us"] = statistics.median(ns) / 1e3 if ns else 0.0
    info = {
        "inputs_sha256": workload_gen.digest(block),
        "traced_queries": nq,
        "cli_queries": ncli,
        "calls": dict(sorted(tr.totals.calls.items())),
        "span_ns": dict(sorted(tr.totals.name_ns.items())),
    }
    return metrics, info


def layer_metrics(t, nq: int, c, ncli: int) -> dict:
    """Per-layer metrics: ``t`` from nq in-process queries, ``c`` from ncli CLI processes.

    Values are per query unless the name says per call.
    """
    def per_query_us(ns):
        return ns / nq / 1e3

    def per_call(key, scale):
        calls = c.calls.get(key, 0)
        return c.name_ns.get(key, 0) / calls / scale if calls else 0.0

    m = {
        "two_points.solve_us": per_query_us(t.name_ns["two_points.solve_two_points_unit"]),
        "two_points.self_us": per_query_us(t.self_ns["two_points"]),
        "two_points.classify_us": per_query_us(t.name_ns["two_points.classify_pair"]),
        "kernel.us": per_query_us(t.layer_ns["kernel"]),
        "point_slope.solve_us": per_query_us(t.name_ns["point_slope.solve_point_slope_unit"]),
        "point_slope.residual_us": per_query_us(t.name_ns["point_slope.residual_system13"]),
        "boundary.us": per_query_us(t.layer_ns["boundary"]),
        "affine.us": per_query_us(t.layer_ns["affine"]),
        "conic.transform_us": per_query_us(t.name_ns["conic.transform_conic"]),
        "conic.center_us": per_query_us(t.name_ns["conic.conic_center"]),
        "world.self_us": per_query_us(t.self_ns["world"]),
        "oracle.brute_force_two_points_ms": per_call("oracle.brute_force_two_points", 1e6),
        "oracle.brute_force_point_slope_ms": per_call("oracle.brute_force_point_slope", 1e6),
        "oracle.verify_us": per_call("oracle.verify_inscribed", 1e3),
    }
    for key in (
        "kernel.pair_invariants", "kernel.poly_q", "kernel.w_quadratic_at",
        "kernel.eval_system_residual", "kernel.solve_quadratic", "geom.require_interior",
        "affine.apply_point",
    ):
        m[f"{key}.calls"] = t.calls[key] / nq
    solve_ns = sum(c.name_ns[f"world.{n}"] for n in ("solve_two_points", "solve_point_slope", "solve_tangency"))
    oracle_ns = sum(
        c.name_ns[f"oracle.{n}"]
        for n in ("brute_force_two_points", "brute_force_point_slope", "verify_inscribed")
    )
    m["cli.solve_ms"] = solve_ns / ncli / 1e6
    m["cli.oracle_ms"] = oracle_ns / ncli / 1e6
    m["cli.other_ms"] = (c.name_ns["cli.run"] - solve_ns - oracle_ns) / ncli / 1e6
    for layer in tracer.LAYERS:
        m[f"{layer}.raised"] = c.raised[layer] / ncli if layer in ("cli", "oracle") else t.raised[layer] / nq
    for name in (*tracer.RAISED_TYPES, "other"):
        m[f"world.raised.{name}"] = t.raised_types[name] / nq
    return m


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _parse(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    global calls
    args = _parse(argv, SPEC["workloads"])
    if not os.path.isfile(os.path.join(SRC, "inellipse", "__init__.py")):
        print(f"error: no package source at {os.path.relpath(SRC)}/inellipse", file=sys.stderr)
        return 2
    # The package comes from this checkout, here and in every child process.
    # The host's two vCPUs are shared: with OpenBLAS's default worker
    # threads, cold CLI latency swung by a quarter with other tenants' load,
    # so numpy runs single-threaded in the benchmark and its children.
    old_path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = SRC + (os.pathsep + old_path if old_path else "")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, SRC)
    import calls  # imports the package, so only once src/ is on the path

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    spec = SPEC["workloads"][args.workload]
    out = Outcomes(spec["near_boundary"], SPEC["exempt_triangles"])
    measure = traced if args.trace else end_to_end
    metrics, info = measure(spec, args.seed, args.seconds, out)

    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise RuntimeError(f"metric names differ from BENCHMARK.json: {set(units) ^ set(metrics)}")
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        **info,
        "tail_percentile": TAIL_PERCENTILE,
        "failed_by_reason": dict(sorted(out.reasons.items())),
        "known_failed": out.known_failed,
        "near_boundary": [out.near_passed, out.near_attempted],
    }))
    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in sorted(units)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
