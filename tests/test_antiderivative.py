import importlib
import random
from fractions import Fraction as Fr

import pytest

from swkb.algebra import E_pow, Expression, phi, u_half
from swkb.antiderivative import antiderivative, is_total_derivative
from swkb.errors import StructuralTheoremViolation

from conftest import random_expression


def test_q3_certificate_matches_closed_form(split10):
    # antiderivative of the third imaginary part: (1/16)(5 f f'^2 u^{-5/2} + 2 f'' u^{-3/2})
    y = antiderivative(split10.q[3])
    expect = (phi() * phi(1, 2) * u_half(-5)).scale(Fr(5, 16)) + (phi(2) * u_half(-3)).scale(
        Fr(2, 16)
    )
    assert y == expect


def test_widening_finds_shifted_half_power():
    # E f' u^{-3/2} integrates to f u^{-1/2}: the candidate u-power sits just
    # outside the first window, so the automatic widening must kick in
    x = E_pow(1) * phi(1) * u_half(-3)
    y = antiderivative(x)
    assert y == phi() * u_half(-1)


def test_failed_recheck_raises(monkeypatch):
    # a solver that returns a wrong certificate is caught by the exact re-check
    module = importlib.import_module("swkb.antiderivative")
    monkeypatch.setattr(module, "_solve_component", lambda comp, widen: phi())
    with pytest.raises(StructuralTheoremViolation):
        antiderivative(E_pow(1) * phi(1) * u_half(-3))


def test_sqrt_u_has_no_antiderivative():
    assert antiderivative(u_half(1)) is None


def test_log_derivative_has_no_antiderivative():
    # f f' / u is the log-derivative obstruction; no ring certificate exists
    assert antiderivative((phi() * phi(1) * u_half(-2)).scale(Fr(1, 2))) is None


def test_zero_certificate_for_zero():
    y = antiderivative(Expression.zero())
    assert y is not None and y.is_zero()


def test_certificates_are_sound_on_random_roundtrips():
    rng = random.Random(21)
    found = 0
    for _ in range(25):
        y0 = random_expression(rng, max_terms=3)
        a = y0.differentiate()
        y = antiderivative(a)
        assert y is not None, "derivative of a ring element must be certified"
        assert y.differentiate() == a
        found += 1
    assert found == 25


def test_mixed_weight_inputs():
    y0 = phi(1, 2) * u_half(-3) + (phi() * phi(2)).scale(Fr(2, 5)) + u_half(3)
    a = y0.differentiate()
    y = antiderivative(a)
    assert y is not None and y.differentiate() == a


def test_is_total_derivative_wrapper(split10):
    assert is_total_derivative(split10.q[3])
    assert not is_total_derivative(u_half(1))
