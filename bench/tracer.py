"""Spans and call counts recorded from outside the package.

``Tracer.install`` replaces every public function of the ``inellipse``
modules at every place it is bound: the defining module (for calls inside
the module), each module that did ``from .x import f`` and the package
namespace.  Patching only the defining module would miss the by-name copies.

Layer entry points get a timed span (query id, parent span, start, end,
exception type); a span opened with no span open starts a new query, so
the spans of one query share its id.  Leaf helpers that run dozens of times per solve get a
count-only wrapper, and their time is charged to the span that called them.
Spans stay in memory and are folded into totals between timed chunks.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from collections import Counter

# Public functions that get a timed span, by layer (module name).  Every
# other public function of the package gets a count-only wrapper.
SPANS = {
    "world": {"solve_two_points", "solve_point_slope", "solve_tangency"},
    "two_points": {"solve_two_points_unit", "classify_pair", "residual_system3"},
    "kernel": {
        "pair_invariants", "poly_B", "poly_C", "poly_R", "poly_S", "solve_quadratic_clamped",
        "inscribed_conic", "tangency_points", "inscribed_center",
    },
    "point_slope": {"solve_point_slope_unit", "residual_system13"},
    "boundary": {"side_point", "param_from_tangencies"},
    "affine": {"map_to_unit", "invert", "apply_point", "apply_slope"},
    "conic": {"transform_conic", "conic_center"},
    "oracle": {"verify_inscribed", "brute_force_two_points", "brute_force_point_slope"},
    "cli": {"run"},
}

LAYERS = (
    "world", "two_points", "point_slope", "boundary", "kernel", "affine", "conic", "geom",
    "oracle", "cli",
)

# Exception types reported one by one when they leave the world layer.
RAISED_TYPES = ("SolutionCountMismatch", "DegenerateConic", "OutOfDomain", "NotAnEllipse")

_PACKAGE = "inellipse"


class Totals:
    """Folded spans and counts; plain numbers, mergeable across processes."""

    def __init__(self):
        self.calls = Counter()          # "<layer>.<name>" -> calls
        self.name_ns = Counter()        # span name -> time, outermost call of that name
        self.layer_ns = Counter()       # layer -> time, outermost span of that layer
        self.self_ns = Counter()        # layer -> span time minus child spans
        self.root_ns = 0                # time covered by spans with no parent
        self.raised = Counter()         # layer -> exceptions leaving the layer
        self.raised_types = Counter()   # type name -> exceptions leaving "world"

    def merge(self, data: dict) -> None:
        for key in ("calls", "name_ns", "layer_ns", "self_ns", "raised", "raised_types"):
            getattr(self, key).update(data[key])
        self.root_ns += data["root_ns"]

    def as_dict(self) -> dict:
        out = {
            key: dict(getattr(self, key))
            for key in ("calls", "name_ns", "layer_ns", "self_ns", "raised", "raised_types")
        }
        out["root_ns"] = self.root_ns
        return out


class Tracer:
    def __init__(self):
        # [parent, name, layer, t0, t1, exc, name_outer, layer_outer, query id]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.queries = [0]
        self.name_depth = Counter()
        self.layer_depth = Counter()
        self.totals = Totals()
        self._originals: list[tuple[types.ModuleType, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, fn, layer: str, name: str):
        key = f"{layer}.{name}"
        spans, stack, calls = self.spans, self.stack, self.totals.calls
        name_depth, layer_depth, queries = self.name_depth, self.layer_depth, self.queries
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            if not stack:
                queries[0] += 1
            rec = [
                stack[-1] if stack else None, key, layer, 0, 0, None,
                name_depth[key] == 0, layer_depth[layer] == 0, queries[0],
            ]
            name_depth[key] += 1
            layer_depth[layer] += 1
            stack.append(len(spans))
            spans.append(rec)
            rec[3] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                rec[5] = type(exc).__name__
                raise
            finally:
                rec[4] = clock()
                stack.pop()
                name_depth[key] -= 1
                layer_depth[layer] -= 1

        return wrapper

    def _count(self, fn, layer: str, name: str):
        key = f"{layer}.{name}"
        calls, stack, spans, raised = self.totals.calls, self.stack, self.spans, self.totals.raised

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            try:
                return fn(*args, **kwargs)
            except BaseException:
                if not stack or spans[stack[-1]][2] != layer:
                    raised[layer] += 1
                raise

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every public package function wherever it is bound."""
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == _PACKAGE or name.startswith(_PACKAGE + "."))
        ]
        wrapped: dict[int, object] = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if not isinstance(value, types.FunctionType) or attr.startswith("_"):
                    continue
                home = value.__module__ or ""
                if not home.startswith(_PACKAGE + "."):
                    continue
                if id(value) not in wrapped:
                    layer = home.rsplit(".", 1)[1]
                    make = self._span if value.__name__ in SPANS.get(layer, ()) else self._count
                    wrapped[id(value)] = make(value, layer, value.__name__)
                self._originals.append((module, attr, value))
                setattr(module, attr, wrapped[id(value)])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._originals):
            setattr(module, attr, value)
        self._originals.clear()

    # -- folding -------------------------------------------------------------

    def fold(self) -> None:
        """Fold finished spans into totals and drop them."""
        if self.stack:
            raise RuntimeError("fold() with open spans")
        t = self.totals
        child = [0] * len(self.spans)
        for rec in self.spans:
            if rec[0] is not None:
                child[rec[0]] += rec[4] - rec[3]
        for i, (parent, key, layer, t0, t1, exc, name_outer, layer_outer, _) in enumerate(self.spans):
            dur = t1 - t0
            t.self_ns[layer] += dur - child[i]
            if name_outer:
                t.name_ns[key] += dur
            if layer_outer:
                t.layer_ns[layer] += dur
            if parent is None:
                t.root_ns += dur
            if exc is not None and (parent is None or self.spans[parent][2] != layer):
                t.raised[layer] += 1
                if layer == "world":
                    t.raised_types[exc if exc in RAISED_TYPES else "other"] += 1
        self.spans.clear()
