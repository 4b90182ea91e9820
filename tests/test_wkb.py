import random
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swkb.algebra import Expression, Monomial, PHI_RING, V_RING
from swkb.antiderivative import antiderivative
from swkb.series import series_mul
from swkb.wkb import (
    MAX_SUBSTITUTION_ORDER,
    Substitution,
    log_term_expansion_check,
    simplify_wkb_condition,
    substituted_condition_check,
    substitution_series_check,
    wkb_series,
    wkb_series_and_substitute,
)


def _random_potential_expr(rng):
    terms = []
    for _ in range(rng.randint(1, 3)):
        derivs = {}
        for _ in range(rng.randint(0, 2)):
            k = rng.randint(1, 3)
            derivs[k] = derivs.get(k, 0) + 1
        m = Monomial(derivs.items(), h=rng.randint(-5, 3), e=rng.randint(-1, 2))
        terms.append((m, Fr(rng.randint(-5, 5), rng.randint(1, 4))))
    return Expression(V_RING, terms)


def test_potential_ring_series_is_real_and_sourceless():
    w = wkb_series(4)
    for n, c in enumerate(w.coeffs):
        assert w.riccati_residual(n).is_zero()
        re, im = c.split_real_imag()
        assert im.is_zero()


def test_first_potential_coefficients():
    w = wkb_series(2)
    assert w.coeffs[0] == Expression.u_pow(1, V_RING)
    w1 = (Expression.sym(1, 1, V_RING) * Expression.u_pow(-2, V_RING)).scale(Fr(1, 4))
    assert w.coeffs[1] == w1


def test_simplified_second_order_integrand(wkb4):
    kept = simplify_wkb_condition(wkb4, 4)
    k2 = (Expression.sym(1, 2, V_RING) * Expression.u_pow(-5, V_RING)).scale(Fr(1, 32))
    assert kept[2] == k2


def test_odd_orders_are_certified_in_potential_ring():
    w = wkb_series(4)
    assert antiderivative(w.coeffs[3]) is not None


def test_substitution_commutes_with_differentiation():
    rng = random.Random(31)
    sub = Substitution(4)
    for _ in range(12):
        x = _random_potential_expr(rng)
        lhs = sub.apply(x.differentiate())
        rhs = [c.differentiate() for c in sub.apply(x)]
        assert lhs == rhs


def naive_substitution(order, x):
    """``Substitution(order).apply(x)`` term by term: each factor V^(k)
    multiplied in as (f^2)^(k) - i nu f^(k+1), u_V^(h/2) as the binomial
    series sum_j C(h/2, j) (i nu)^j f'^j u^(h/2 - j), E^e last."""
    zero = Expression.zero(PHI_RING)
    total = [zero] * (order + 1)
    for m, c in x.terms.items():
        fac = [Expression.const(c)] + [zero] * order
        for k, a in m.derivs:
            square = Expression.e_pow(1) - Expression.u_pow(2)
            for _ in range(k):
                square = square.differentiate()
            factor = [square, Expression.sym(k + 1, 1).scale((0, -1))] + [zero] * (order - 1)
            for _ in range(a):
                fac = series_mul(fac, factor, order)
        if m.h:
            binomial = []
            for j in range(order + 1):
                b = Fr(1)
                for t in range(j):
                    b = b * (Fr(m.h, 2) - t) / (t + 1)
                i_pow = ((b, 0), (0, b), (-b, 0), (0, -b))[j % 4]
                binomial.append((Expression.sym(1, j) * Expression.u_pow(m.h - 2 * j)).scale(i_pow))
            fac = series_mul(fac, binomial, order)
        fac = [f * Expression.e_pow(m.e) for f in fac]
        total = [t + f for t, f in zip(total, fac)]
    return total


def test_substitution_is_the_term_by_term_expansion(substitution4, wkb4):
    for c in wkb4.coeffs:
        assert substitution4.apply(c) == naive_substitution(4, c)
    # a derivative order far above the truncation order
    x = Expression.sym(12, 1, V_RING) * Expression.u_pow(-3, V_RING)
    assert Substitution(1).apply(x) == naive_substitution(1, x)


SUBSTITUTIONS = [Substitution(order) for order in range(MAX_SUBSTITUTION_ORDER + 1)]
v_monomials = st.builds(
    Monomial,
    st.dictionaries(st.integers(0, 4), st.integers(1, 3), max_size=3).map(dict.items),
    st.integers(-9, 5),
    st.integers(0, 2),
)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(v_monomials, st.fractions(max_denominator=6).filter(bool)),
                min_size=1, max_size=3),
       st.integers(0, MAX_SUBSTITUTION_ORDER))
def test_substitution_of_drawn_monomials_is_the_term_by_term_expansion(terms, order):
    # a substitution keeps the products it has built, so one instance per
    # order meets the draws in turn
    x = Expression(V_RING, terms)
    assert SUBSTITUTIONS[order].apply(x) == naive_substitution(order, x)


def test_substituted_series_matches_exactly(substitution4, wkb4, series10):
    assert substitution_series_check(substitution4, wkb4, series10).all_ok


def test_log_term_expansion_certified(substitution4):
    rep = log_term_expansion_check(substitution4)
    assert rep.all_ok


def test_substituted_condition_certified(substitution4, wkb4, series10):
    rep = substituted_condition_check(substitution4, wkb4, series10)
    assert rep.all_ok
    # orders 0 and 1 agree exactly, not just modulo derivatives
    assert rep.entries[0].detail == "exact"
    assert rep.entries[1].detail == "exact"


def test_bundle_and_order_bound(series10):
    assert all(rep.all_ok for rep in wkb_series_and_substitute(2, series10))
    with pytest.raises(ValueError):
        wkb_series_and_substitute(MAX_SUBSTITUTION_ORDER + 2, series10)
