from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swkb.algebra import Expression, phi, u_half
from swkb.antiderivative import DerivativeSweep, _window_generators, antiderivative
from swkb.errors import StructuralTheoremViolation
from swkb.reduction import (
    decompose,
    dropped_certificates,
    known_integrand_order2,
    known_integrand_order4,
    quantization_integrands,
    reconstruction_residual,
    reduce_even_order,
    reduce_via_pbar,
    residual_sweep,
)
from swkb.series import SplitSeries, real_part_log

from conftest import E_pow, ring_expressions


class TestDecompose:
    def test_first_order(self, split10):
        alpha, beta = decompose(1, split10)
        assert alpha.is_zero()
        assert beta == (phi(1) * u_half(-3)).scale(Fr(1, 2))

    def test_recomposition_identity(self, split10):
        F = phi() * u_half(-1)
        for n in (1, 2, 3, 4):
            alpha, beta = decompose(n, split10)
            assert F * split10.q[n] + alpha.shift_e(1) == split10.p[n]
            assert -(F * split10.p[n]) + beta.shift_e(1) == split10.q[n]

    def test_violation_raises_loudly(self, split10):
        bad = SplitSeries([p + u_half(1) for p in split10.p], split10.q)
        with pytest.raises(StructuralTheoremViolation):
            decompose(1, bad)


class TestReduceEvenOrder:
    def test_order2_exact_known_term(self, split10, lseq9):
        r2 = reduce_even_order(2, split10, lseq9)
        assert r2.integrand == known_integrand_order2()
        assert r2.sign_factor == -1
        assert r2.e_degree == 1

    def test_order2_certificate(self, split10, lseq9):
        r2 = reduce_even_order(2, split10, lseq9)
        assert r2.certificate == (phi() * phi(1) * u_half(-3)).scale(Fr(-1, 4))

    def test_order4_exact_known_bracket(self, split10, lseq9):
        r4 = reduce_even_order(4, split10, lseq9)
        assert r4.integrand == -known_integrand_order4()
        assert r4.sign_factor == 1

    def test_bookkeeping_identity(self, split10, lseq9):
        for order in (2, 4, 6, 8):
            r = reduce_even_order(order, split10, lseq9)
            assert r.certificate.differentiate() + r.integrand == split10.p[order]

    def test_e_factor_all_orders(self, split10, lseq9):
        for order in (2, 4, 6, 8):
            r = reduce_even_order(order, split10, lseq9)
            assert r.integrand.min_e_degree() >= 1

    def test_odd_order_rejected(self, split10, lseq9):
        with pytest.raises(ValueError):
            reduce_even_order(3, split10, lseq9)


class TestReduceViaPbar:
    def test_order0_zero_correction(self, split10, pbar8):
        r0 = reduce_via_pbar(0, split10, pbar8, Expression.zero())
        assert r0.integrand.is_zero()

    def test_routes_agree_exactly(self, split10, lseq9, pbar8):
        for order in (2, 4, 6, 8):
            ref = reduce_even_order(order, split10, lseq9)
            alt = reduce_via_pbar(order, split10, pbar8, antiderivative(pbar8[order]))
            assert alt == ref

    def test_given_certificate_is_rechecked(self, split10, pbar8):
        # the correct certificate is accepted in test_routes_agree_exactly
        cert = antiderivative(pbar8[4])
        with pytest.raises(StructuralTheoremViolation):
            reduce_via_pbar(4, split10, pbar8, pbar_cert=cert + phi() * u_half(-1))


def test_the_p_bar_route_on_the_handed_sweep_is_the_fresh_one(split10, lseq9, pbar8):
    # verify hands each order's F*Q residual sweep, built from the alphas
    # its E-factorization line holds, to the p-bar route of that order
    alphas = {n: decompose(n, split10)[0] for n in (2, 4, 6, 8)}
    sweeps = {}
    corrections = quantization_integrands(8, split10, lseq9, alphas, sweeps)
    assert corrections == quantization_integrands(8, split10, lseq9)
    assert sorted(sweeps) == [2, 4, 6, 8]
    for corr in corrections[1:]:
        cert = antiderivative(pbar8[corr.order])
        base = sweeps[corr.order]
        held = list(base.generators)
        alt = reduce_via_pbar(corr.order, split10, pbar8, cert, base=base)
        assert alt == reduce_via_pbar(corr.order, split10, pbar8, cert) == corr
        assert base.generators == held


class TestEquivalence:
    def test_self_equivalence_zero_certificate(self, split10):
        cert = antiderivative(split10.p[2] - split10.p[2])
        assert cert is not None and cert.is_zero()

    def test_reduced_vs_raw_second_order(self, split10, lseq9):
        r2 = reduce_even_order(2, split10, lseq9)
        cert = antiderivative(split10.p[2] - r2.integrand)
        assert cert is not None
        assert cert.differentiate() == split10.p[2] - r2.integrand

    def test_inequivalence_detected(self):
        assert antiderivative(u_half(1) - Expression.zero()) is None


class TestResidualSweep:
    def test_keeps_known_form_fixed(self):
        kept, cert, _ = residual_sweep(known_integrand_order2(), min_e=1)
        assert kept == known_integrand_order2()
        assert cert.is_zero()

    def test_removes_pure_derivative(self):
        y = (phi() * phi(1) * u_half(-3)).scale(Fr(2, 3))
        kept, cert, _ = residual_sweep(y.differentiate())
        assert kept.is_zero()
        assert cert.differentiate() == y.differentiate()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(ring_expressions(), st.sampled_from([None, 0, 1]))
def test_residual_sweep_normal_form(x, min_e):
    kept, cert, _ = residual_sweep(x, min_e=min_e)
    assert kept + cert.differentiate() == x
    if not x.is_zero():
        pivots = {p for p, _ in DerivativeSweep(x.ring, _window_generators(x, 1, min_e)).rows}
        assert not pivots & kept.num.keys()


class TestQuantizationIntegrands:
    def test_orders_and_signs(self, split10, lseq9):
        corrections = quantization_integrands(4, split10, lseq9)
        assert [c.order for c in corrections] == [0, 2, 4]
        assert [c.sign_factor for c in corrections] == [1, -1, 1]
        assert corrections[0].integrand == u_half(1)

    def test_max_order_zero(self, split10, lseq9):
        corrections = quantization_integrands(0, split10, lseq9)
        assert len(corrections) == 1
        assert corrections[0].integrand == u_half(1)

    def test_known_forms(self, split10, lseq9):
        corrections = quantization_integrands(4, split10, lseq9)
        assert corrections[1].integrand == known_integrand_order2()
        assert corrections[2].integrand == -known_integrand_order4()

    def test_reconstruction_exact(self, series10, split10, lseq9):
        dropped = dropped_certificates(6, lseq9, real_part_log(split10, 4))
        res = reconstruction_residual(series10, quantization_integrands(6, split10, lseq9), dropped)
        assert len(res) == 7 and all(r.is_zero() for r in res)

    def test_odd_max_order_rejected(self, split10, lseq9):
        with pytest.raises(ValueError):
            quantization_integrands(3, split10, lseq9)

    def test_odd_real_certificates_are_the_searched_ones(self, split10, lseq9):
        # +-(1/2) l_(n-1) of ln R carries no pure E-power, so it is the
        # unique certificate the ansatz search returns
        dropped = dropped_certificates(10, lseq9, real_part_log(split10, 8))
        assert sorted(n for n, part in dropped if part == "p") == [3, 5, 7, 9]
        for n in (3, 5, 7, 9):
            assert dropped[(n, "p")] == antiderivative(split10.p[n])


def test_residual_sweep_recheck_raises(monkeypatch):
    # a normal form whose certificate does not account for the input is caught
    monkeypatch.setattr(DerivativeSweep, "normal_form", lambda self, x: (x, phi() * u_half(-1)))
    with pytest.raises(StructuralTheoremViolation):
        residual_sweep(E_pow(1) * phi(1) * u_half(-3))
