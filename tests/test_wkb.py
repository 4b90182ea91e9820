import random
from fractions import Fraction as Fr

import pytest

from swkb.algebra import Expression, Monomial, V_RING
from swkb.antiderivative import antiderivative
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
    simp = simplify_wkb_condition(wkb4, 4)
    k2 = (Expression.sym(1, 2, V_RING) * Expression.u_pow(-5, V_RING)).scale(Fr(1, 32))
    assert simp.kept[2] == k2


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
    rep = wkb_series_and_substitute(2, series10)
    assert rep.all_ok
    with pytest.raises(ValueError):
        wkb_series_and_substitute(MAX_SUBSTITUTION_ORDER + 2, series10)
