"""Independent oracle for the exact layer: sympy solves the Riccati equation

    (S')^2 + nu S'' = E - V_-+,   V_-+ = phi^2 -+ hbar phi',   hbar = i nu,

order by order in nu, with phi an undefined function of x, and each solved
coefficient is compared with ``generate_series``.  For the comparison every
quantity becomes a rational function of p_k = phi^(k) and w = sqrt(u),
u = E - phi^2 (so E = w^2 + p_0^2), where ``cancel`` decides equality.
"""

import pytest
import sympy as sp

from swkb.series import generate_series

ORDER = 4

x, E, nu = sp.symbols("x E nu")
w = sp.Symbol("w", positive=True)
p = sp.symbols(f"p0:{ORDER + 2}")
phi = sp.Function("phi")(x)
sqrt_u = sp.sqrt(E - phi**2)
unknown = [sp.Function(f"a{n}")(x) for n in range(ORDER + 1)]


def algebraic(e):
    e = e.xreplace({phi.diff(x, k): p[k] for k in range(1, ORDER + 2)})
    return e.xreplace({phi: p[0]}).xreplace({E: w**2 + p[0] ** 2})


def functional(e):
    e = e.xreplace({w: sqrt_u})
    return e.xreplace({p[k]: phi.diff(x, k) for k in range(ORDER + 2)})


def riccati_coefficients(sign):
    """c_0..c_ORDER in algebraic form, with c_0 = sqrt(u)."""
    hbar = sp.I * nu
    v = phi**2 - hbar * phi.diff(x) if sign == "minus" else phi**2 + hbar * phi.diff(x)
    s1 = sum(nu**n * a for n, a in enumerate(unknown))
    eq = sp.expand(s1**2 + nu * s1.diff(x) - (E - v))
    known = {unknown[0]: sqrt_u, unknown[0].diff(x): sqrt_u.diff(x)}
    assert sp.cancel(algebraic(eq.coeff(nu, 0).xreplace(known))) == 0
    coeffs = [w]
    for n in range(1, ORDER + 1):
        (solution,) = sp.solve(eq.coeff(nu, n), unknown[n])
        coeffs.append(sp.cancel(algebraic(solution.xreplace(known))))
        c = functional(coeffs[n])
        known[unknown[n]] = c
        known[unknown[n].diff(x)] = c.diff(x)
    return coeffs


def to_sympy(expr):
    total = sp.Integer(0)
    for m, (re, im) in expr.terms.items():
        term = sp.Rational(re.numerator, re.denominator)
        term += sp.I * sp.Rational(im.numerator, im.denominator)
        for k, a in m.derivs:
            term *= p[k] ** a
        total += term * w**m.h * (w**2 + p[0] ** 2) ** m.e
    return total


@pytest.mark.parametrize("sign", ["minus", "plus"])
def test_series_matches_riccati_solution(sign):
    ours = generate_series(ORDER, sign).coeffs
    ref = riccati_coefficients(sign)
    for n in range(ORDER + 1):
        assert sp.cancel(to_sympy(ours[n]) - ref[n]) == 0, f"c_{n} ({sign})"
    # the oracle tells the partners apart: their first-order sources differ
    other = generate_series(1, "plus" if sign == "minus" else "minus").coeffs
    assert sp.cancel(to_sympy(other[1]) - ref[1]) != 0
