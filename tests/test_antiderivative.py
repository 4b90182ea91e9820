import importlib
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings

from swkb.algebra import E_pow, Expression, Monomial, PHI_RING, phi, u_half
from swkb.antiderivative import DerivativeSweep, antiderivative
from swkb.errors import StructuralTheoremViolation
from swkb.gaussian import gr

from conftest import ring_expressions


def test_q3_certificate_matches_closed_form(split10):
    # antiderivative of the third imaginary part: (1/16)(5 f f'^2 u^{-5/2} + 2 f'' u^{-3/2})
    y = antiderivative(split10.q[3])
    expect = (phi() * phi(1, 2) * u_half(-5)).scale(Fr(5, 16)) + (phi(2) * u_half(-3)).scale(
        Fr(2, 16)
    )
    assert y == expect


def test_widening_finds_shifted_half_power():
    # E f' u^{-3/2} integrates to f u^{-1/2}
    x = E_pow(1) * phi(1) * u_half(-3)
    y = antiderivative(x)
    assert y == phi() * u_half(-1)
    # 3 E f' u^{-5/2} integrates to f u^{-3/2} + 2 E^{-1} f u^{-1/2}, whose
    # E- and u-powers lie two steps outside the first window
    x = (E_pow(1) * phi(1) * u_half(-5)).scale(3)
    assert antiderivative(x, max_widen=1) is None
    assert antiderivative(x) == phi() * u_half(-3) + (E_pow(-1) * phi() * u_half(-1)).scale(2)


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


def test_mixed_weight_inputs():
    y0 = phi(1, 2) * u_half(-3) + (phi() * phi(2)).scale(Fr(2, 5)) + u_half(3)
    a = y0.differentiate()
    y = antiderivative(a)
    assert y is not None and y.differentiate() == a


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(ring_expressions(max_terms=3))
def test_certificates_are_sound_on_generated_roundtrips(y0):
    a = y0.differentiate()
    y = antiderivative(a)
    assert y is not None, "derivative of a ring element must be certified"
    assert y.differentiate() == a


class TestEngine:
    A = Monomial([(0, 1)], h=-1)            # f u^(-1/2)
    B = Monomial([(1, 1)], h=-3)            # f' u^(-3/2)
    CONST = Monomial(e=1)                   # E: zero derivative

    def target(self):
        return (Expression(PHI_RING, [(self.A, gr(2))]) +
                Expression(PHI_RING, [(self.B, gr(Fr(-1, 3)))])).differentiate()

    def test_dependent_columns_are_dropped(self):
        # the repeated generator and the constant add nothing to the span
        base = DerivativeSweep(PHI_RING, [self.A, self.B])
        padded = DerivativeSweep(PHI_RING, [self.A, self.CONST, self.B, self.A])
        assert len(base.rows) == len(padded.rows) == 2
        assert base.normal_form(self.target()) == padded.normal_form(self.target())
        kept, cert = padded.normal_form(self.target())
        assert kept.is_zero()
        assert cert == phi() * u_half(-1).scale(2) - (phi(1) * u_half(-3)).scale(Fr(1, 3))

    def test_inconsistent_rhs_returns_none(self):
        # the span misses u^(1/2), which is left over next to the certified part
        sweep = DerivativeSweep(PHI_RING, [self.A, self.B])
        kept, cert = sweep.normal_form(self.target() + u_half(1))
        assert kept == u_half(1)
        assert cert == sweep.normal_form(self.target())[1]
        assert antiderivative(self.target() + u_half(1)) is None

    def test_imaginary_and_mixed_rhs(self):
        y_re = (phi() * phi(1, 2) * u_half(-5)).scale(Fr(5, 16))
        y_im = phi(2) * u_half(-3)
        imag = y_im.scale(gr(0, Fr(2, 7)))
        assert antiderivative(imag.differentiate()) == imag
        mixed = y_re.scale(gr(3, -1)) + imag
        assert antiderivative(mixed.differentiate()) == mixed

