"""Closed-form oracle for every row of an integrand table on a monomial
superpotential phi = c x^d.

Substituting phi = c x^d turns a monomial E^e prod_k (phi^(k))^(a_k) u^(h/2)
into C x^J u^(h/2) E^e with C = prod_k (c d!/(d-k)!)^(a_k) (zero when some
k > d has a_k > 0) and J = sum_k a_k (d - k).  Its contour integral, in the
quadrature's sign convention (the leading action is positive), is 0 for odd
J and otherwise the analytic continuation of a Beta integral,

    (2/d) (E/c^2)^p E^(h/2 + e) Gamma(p) Gamma(h/2 + 1) / Gamma(p + h/2 + 1),

with p = (J + 1)/(2d); 1/Gamma vanishes at the non-positive integers.
"""

import json
import math

import numpy as np
import pytest

from swkb.algebra import Monomial
from swkb.cli import main
from swkb.quadrature import REL_TOL, TOL, PolynomialSuperpotential, contour_integrate
from swkb.spectrum import DEFAULT_TOL_E, build_conditions


def _rgamma(x: float) -> float:
    return 0.0 if x <= 0 and x == int(x) else 1.0 / math.gamma(x)


def closed_form(m, c: float, d: int, E: float) -> float:
    """The contour integral of the monomial ``m`` for phi = c x^d at E."""
    C, J = 1.0, 0
    for k, a in m.derivs:
        if k > d:
            return 0.0
        C *= (c * math.factorial(d) / math.factorial(d - k)) ** a
        J += a * (d - k)
    if J % 2:
        return 0.0
    p = (J + 1) / (2 * d)
    half = m.h / 2
    return (C * (2 / d) * (E / c ** 2) ** p * E ** (half + m.e)
            * math.gamma(p) * math.gamma(half + 1) * _rgamma(p + half + 1))


def oracle_rows(cond, c: float, d: int, E: float):
    """The table's rows in closed form: each correction's integrand, then
    its E-derivative, built here from the corrections, not from the table."""
    integrands = [corr.integrand for corr in cond.corrections]
    exprs = integrands + [x.diff_E() for x in integrands]
    rows = []
    for x in exprs:
        # the reduced integrands are real
        assert all(im == 0 for _, im in x.terms.values())
        rows.append(math.fsum(float(re) * closed_form(m, c, d, E)
                              for m, (re, _) in x.terms.items()))
    return rows


def closed_form_action(cond, c: float, d: int, hbar: float, E: float) -> float:
    """``spectrum.action``'s A(E) with every row in closed form: a sum of
    powers of E."""
    return math.fsum(corr.sign_factor * hbar ** corr.order * float(re) * closed_form(m, c, d, E)
                     for corr in cond.corrections for m, (re, _) in corr.integrand.terms.items())


def bisect_root(f, lo: float, hi: float) -> float:
    """The root of an increasing ``f`` in (lo, hi), bisected down to
    adjacent floats."""
    assert f(lo) < 0.0 < f(hi)
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid


def _monomial_case(d, E):
    return pytest.param(d, E, id=f"x^{d}/{d}-E{E}")


@pytest.mark.parametrize("d, E", [
    *(_monomial_case(3, E) for E in (0.2, 1.0, 5.0, 50.0)),
    *(_monomial_case(5, E) for E in (1.0, 5.0)),
    pytest.param(5, 0.3, id="x^5/5-E0.3", marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="roundoff above the settling tolerance: the contour settles at 4,096 samples, "
               "but row 8 (a dA/dE row) is 1.66 tolerances off the closed form")),
])
def test_every_order8_row_matches_the_closed_form(condition8, table8, d, E):
    c = 1.0 / d
    sp = PolynomialSuperpotential([0.0] * d + [c], 1.0, f"x^{d}/{d}")
    got = contour_integrate(table8, sp, E).rows
    expect = oracle_rows(condition8, c, d, E)
    assert len(got) == len(expect) == 2 * len(condition8.corrections) == 10
    for r, (row, ref) in enumerate(zip(got, expect)):
        tol = max(TOL, REL_TOL * abs(row))
        assert abs(row - ref) <= tol, f"row {r}: {abs(row - ref) / tol:.3f} tolerances off"


def test_closed_form_on_the_oscillator_and_the_leading_action():
    # phi = x: the leading action is pi E
    assert closed_form(Monomial(h=1), 1.0, 1, 2.5) == pytest.approx(math.pi * 2.5, rel=1e-15)
    # a factor phi'' = 0 and an odd power of x both integrate to zero
    assert closed_form(Monomial([(2, 1)], h=-3), 1.0, 1, 2.0) == 0.0
    assert closed_form(Monomial([(0, 1)], h=-3), 1.0 / 3, 3, 2.0) == 0.0
    # phi = x^3/3 at order 0: 2 * int_(-x0)^(x0) sqrt(E - x^6/9) dx by the midpoint rule
    E, x0, n = 1.7, (9 * 1.7) ** (1 / 6), 200_000
    xs = -x0 + (np.arange(n) + 0.5) * (2 * x0 / n)
    direct = 2 * np.sum(np.sqrt(E - xs ** 6 / 9)) * (2 * x0 / n)
    assert closed_form(Monomial(h=1), 1.0 / 3, 3, E) == pytest.approx(direct, rel=1e-6)


@pytest.mark.parametrize("partner", ["minus", "plus"])
@pytest.mark.parametrize("order", [8, 10])
def test_quantize_matches_the_closed_form_roots(capsys, tmp_path, order, partner):
    # phi = x^3/3 at hbar = 1: bisecting the closed-form A(E) gives every
    # root with no contour, no grid and no Newton step (A rises through
    # every target between E = 0.5 and 1000).  At order 10 the last
    # correction's rows are exactly zero for this phi.
    cond = build_conditions([order])[order]
    path = tmp_path / "cubic.json"
    path.write_text(json.dumps({"coefficients": [0.0, 0.0, 0.0, 1.0 / 3.0], "hbar": 1.0}))
    code = main(["quantize", "--config", str(path), "--order", str(order), "--levels", "30",
                 "--partner", partner, "--json"])
    assert code == 0
    levels = json.loads(capsys.readouterr().out)["levels"]
    shift = 0 if partner == "minus" else 1
    for n in range(1, 31):
        target = 2.0 * (n + shift) * math.pi
        root = bisect_root(lambda E: closed_form_action(cond, 1.0 / 3.0, 3, 1.0, E) - target,
                           0.5, 1000.0)
        assert abs(levels[str(n)] - root) <= DEFAULT_TOL_E, f"level {n}"
