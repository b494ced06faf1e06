"""The shared defining equations, derived symbolically from the inscribed conic.

The solvers and the oracle both evaluate :mod:`inellipse.equations`, so the
oracle cannot catch a transcription error in it.  These tests are that
check: each equation, in its full and its Jacobian-free form, must equal the
expression obtained from the conic of ``kernel.unit_geometry((w, t))`` written
with symbols.
"""

import numpy as np
import pytest

from inellipse import equations
from inellipse.geom import Point

from helpers import random_interior, random_param, w_quadratic

sp = pytest.importorskip("sympy")

x, y, w, t, a, b, r = sp.symbols("x y w t a b r")


def conic_q():
    """Q(x, y) of the inscribed family, with the conic coefficients of kernel.unit_geometry."""
    a, b = w * w, t * t
    c = -w * t * (2 * w * t - 2 * w - 2 * t + 1)
    d, e, f = -2 * w * w * t, -2 * t * t * w, t * t * w * w
    return a * x * x + b * y * y + 2 * c * x * y + d * x + e * y + f


Q = conic_q()
EXPECTED = {
    "through_point": (Q, (x, y, w, t)),
    "tangent": (-(a * sp.diff(Q, x) + b * sp.diff(Q, y)) / 2, (x, y, a, b, w, t)),
}


TANGENT, TANGENT_ARGS = EXPECTED["tangent"]
# Each case: (equation, expected expression, arguments).  Besides the general
# direction (a, b), the tangent is checked along (1, r) for a finite slope r
# and along (0, 1) for a vertical one, the two directions the solvers use.
CASES = {
    "through_point": ("through_point", *EXPECTED["through_point"]),
    "tangent": ("tangent", TANGENT, TANGENT_ARGS),
    "slope": ("tangent", TANGENT.subs({a: 1, b: r}), (x, y, 1, r, w, t)),
    "vertical": ("tangent", TANGENT.subs({a: 0, b: 1}), (x, y, 0, 1, w, t)),
}


@pytest.mark.parametrize("case", sorted(CASES))
class TestSymbolic:
    def test_value_matches_the_conic(self, case):
        name, expected, args = CASES[case]
        value, _, _, _ = getattr(equations, name)(*args)
        assert sp.expand(value - expected) == 0

    def test_partials_match_differentiation(self, case):
        name, expected, args = CASES[case]
        _, d_w, d_t, _ = getattr(equations, name)(*args)
        assert sp.expand(d_w - sp.diff(expected, w)) == 0
        assert sp.expand(d_t - sp.diff(expected, t)) == 0

    def test_jacobian_free_form_matches_the_conic(self, case):
        name, expected, args = CASES[case]
        value, mags = getattr(equations, name)(*args, jacobian=False)
        assert sp.expand(value - expected) == 0
        full_mags = getattr(equations, name)(*args)[3]
        assert all(sp.expand(m - f) == 0 for m, f in zip(mags, full_mags, strict=True))


def test_w_quadratic_coefficients_match_through_point():
    rng = np.random.default_rng(60)
    for _ in range(50):
        p = random_interior(rng)
        wv, tv = random_param(rng)
        c2, c1, c0 = w_quadratic(p, tv)
        value = equations.through_point(p.x, p.y, wv, tv)[0]
        assert c2 * wv * wv + c1 * wv + c0 == pytest.approx(value, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("case", ["slope", "through_point", "vertical"])
def test_magnitudes_bracket_each_power_of_w(case):
    """|w^k group| <= magnitudes[2 - k] <= sum of that group's monomial magnitudes.

    The tangent is drawn along (1, r) for a finite slope r and along (0, 1)
    for a vertical one.
    """
    name = "through_point" if case == "through_point" else "tangent"
    expected, args = EXPECTED[name]
    groups = sp.Poly(sp.expand(expected), w).all_coeffs()  # w^2, w^1, w^0
    rng = np.random.default_rng(61)
    for _ in range(50):
        p = random_interior(rng)
        wv, tv = random_param(rng)
        rv = float(np.tan(np.pi * (rng.random() - 0.5)))
        av, bv = (0.0, 1.0) if case == "vertical" else (1.0, rv)
        at = {x: p.x, y: p.y, w: wv, t: tv, a: av, b: bv}
        mags = getattr(equations, name)(*(at[s] for s in args))[3]
        for k, group in enumerate(groups):
            power = wv ** (2 - k)
            exact = abs(float(group.subs(at))) * power
            bound = sum(
                abs(float(c)) * float(sp.Mul(*(abs(at[s]) ** e for s, e in zip((x, y, t, a, b), m))))
                for m, c in sp.Poly(group, x, y, t, a, b).terms()
            ) * power
            assert exact * (1 - 1e-12) <= mags[k] <= bound * (1 + 1e-12)


@pytest.mark.parametrize("case", ["slope", "through_point", "vertical"])
def test_jacobian_free_form_equals_the_full_form(case):
    """Value, magnitudes and backward error, float for float, along (1, r) and (0, 1)."""
    rng = np.random.default_rng(62)
    for _ in range(500):
        p = random_interior(rng)
        wv, tv = random_param(rng)
        if case == "through_point":
            name, args = "through_point", (p.x, p.y, wv, tv)
        else:
            direction = (0.0, 1.0) if case == "vertical" else (1.0, float(np.tan(np.pi * (rng.random() - 0.5))))
            name, args = "tangent", (p.x, p.y, *direction, wv, tv)
        full = getattr(equations, name)(*args)
        value, mags = getattr(equations, name)(*args, jacobian=False)
        assert (value, mags) == (full[0], full[3])
        assert equations.backward_error((value, mags)) == equations.backward_error(full)


def test_floats_and_arrays_agree():
    ws = np.linspace(0.05, 0.95, 7)
    ts = np.linspace(0.1, 0.9, 7)
    p = Point(0.3, 0.25)
    for name, extra in (("through_point", ()), ("tangent", (1.0, -1.7)), ("tangent", (0.0, 1.0))):
        fn = getattr(equations, name)
        value, d_w, d_t, mags = fn(p.x, p.y, *extra, ws, ts)
        free_value, free_mags = fn(p.x, p.y, *extra, ws, ts, jacobian=False)
        for i in range(len(ws)):
            v, dw, dt, m = fn(p.x, p.y, *extra, float(ws[i]), float(ts[i]))
            assert (value[i], d_w[i], d_t[i]) == (v, dw, dt)
            assert tuple(mm[i] for mm in mags) == m
            assert (free_value[i], tuple(mm[i] for mm in free_mags)) == (v, m)
