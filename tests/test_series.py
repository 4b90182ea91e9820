from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swkb.algebra import Expression, PHI_RING, V_RING, i_times, phi, u_half
from swkb.antiderivative import antiderivative
from swkb.errors import StructuralTheoremViolation
from swkb.series import (
    HbarSeries,
    SplitSeries,
    check_l_identity,
    generate_series,
    generating_system_check,
    imag_relation_check,
    inverse_lead_factor,
    l_sequence,
    partner_via_imag_shift,
    partner_via_log_identity,
    pbar_certificates,
    pbar_series,
    real_imag_hbar_series,
    real_part_log,
    series_log,
    series_mul,
)

from conftest import E_pow, ring_expressions

S1_MINUS = (phi() * phi(1) * u_half(-2)).scale(Fr(1, 2)) + i_times(
    (phi(1) * u_half(-1)).scale(Fr(1, 2))
)
S1_PLUS = (phi() * phi(1) * u_half(-2)).scale(Fr(1, 2)) - i_times(
    (phi(1) * u_half(-1)).scale(Fr(1, 2))
)


def full_riccati_residual(s, n):
    """The order-n Riccati residual with every product c_k c_(n-k),
    0 <= k <= n, formed on its own."""
    ring, c = s.ring, s.coeffs
    acc = Expression.zero(ring)
    for k in range(n + 1):
        acc = acc + c[k] * c[n - k]
    if n == 0:
        return acc - Expression.u_pow(2, ring)
    acc = acc + c[n - 1].differentiate()
    if n == 1 and ring == PHI_RING:
        source = i_times(phi(1))
        acc = acc - source if s.sign == "minus" else acc + source
    return acc


class TestGeneration:
    def test_order_zero(self):
        s = generate_series(0, "minus")
        assert s.coeffs == [u_half(1)]

    def test_first_order_minus(self, series10):
        assert series10.coeffs[1] == S1_MINUS

    def test_first_order_plus(self, plus8):
        assert plus8.coeffs[1] == S1_PLUS

    def test_riccati_residuals_vanish(self, series10, plus8):
        for n in range(11):
            assert series10.riccati_residual(n).is_zero()
        for n in range(9):
            assert plus8.riccati_residual(n).is_zero()

    def test_riccati_residuals_catch_a_broken_coefficient(self, series10, plus8):
        # negative control: the residual forms its own products over all k,
        # so one wrong term in c_5 shows at both orders that use c_5
        for s in (series10, plus8):
            coeffs = list(s.coeffs)
            coeffs[5] = coeffs[5] + phi(2) * u_half(-2)
            broken = HbarSeries(coeffs, s.sign)
            assert broken.riccati_residual(4).is_zero()
            assert not broken.riccati_residual(5).is_zero()
            assert not broken.riccati_residual(6).is_zero()

    @pytest.mark.parametrize("sign, ring", [("minus", PHI_RING), ("plus", PHI_RING),
                                            ("minus", V_RING)])
    def test_riccati_residual_is_the_full_convolution(self, sign, ring):
        # each pair c_k c_(n-k) formed once, weighted twice, must give the
        # convolution over every k: on the series and on a copy with a
        # term added to every coefficient, whose residuals are not zero
        s = generate_series(10, sign, ring)
        junk = [(Expression.sym(2, 1, ring) * Expression.u_pow(-2 - n, ring)).scale(Fr(1, n + 1))
                for n in range(11)]
        broken = HbarSeries([s.coeffs[0]] + [c + j for c, j in zip(s.coeffs[1:], junk[1:])], sign)
        for n in range(11):
            assert s.riccati_residual(n) == full_riccati_residual(s, n)
            assert broken.riccati_residual(n) == full_riccati_residual(broken, n)
            assert n == 0 or not broken.riccati_residual(n).is_zero()

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            generate_series(-1, "minus")
        with pytest.raises(ValueError):
            generate_series(2, "down")


class TestSplit:
    def test_order_zero_and_one(self, split10):
        assert split10.p[0] == u_half(1)
        assert split10.q[0].is_zero()
        assert split10.p[1] == (phi() * phi(1) * u_half(-2)).scale(Fr(1, 2))
        assert split10.q[1] == (phi(1) * u_half(-1)).scale(Fr(1, 2))

    def test_second_order_closed_forms(self, split10):
        q2 = -(
            (phi() * phi(1, 2) * u_half(-4)).scale(Fr(1, 2))
            + (phi(2) * u_half(-2)).scale(Fr(1, 4))
        )
        p2 = (
            (E_pow(1) * phi(1, 2) * u_half(-5)).scale(Fr(-5, 8))
            + (phi(1, 2) * u_half(-3)).scale(Fr(1, 2))
            - (phi() * phi(2) * u_half(-3)).scale(Fr(1, 4))
        )
        assert split10.q[2] == q2
        assert split10.p[2] == p2

    def test_parity_alternates(self, split10):
        for n in range(11):
            if n % 2 == 0:
                assert split10.p[n].u_parity() == "all-odd-half"
                assert split10.q[n].is_zero() or split10.q[n].u_parity() == "all-even"
            else:
                assert split10.p[n].u_parity() == "all-even"
                assert split10.q[n].u_parity() == "all-odd-half"

    def test_no_negative_e_powers(self, split10):
        for n in range(11):
            assert split10.p[n].min_e_degree() >= 0
            if not split10.q[n].is_zero():
                assert split10.q[n].min_e_degree() >= 0


class TestLSequence:
    def test_first_member(self, lseq9):
        assert lseq9.l[1] == i_times((phi(1) * u_half(-2)).scale(Fr(1, 2)))

    def test_defining_identity_all_orders(self, lseq9, split10):
        for n in range(1, 10):
            assert check_l_identity(lseq9.derivatives(), split10, n)

    def test_q3_from_second_member(self, lseq9, split10):
        assert i_times(lseq9.l[2].differentiate()).scale(Fr(1, 2)) == split10.q[3]

    def test_e_inverse_cancels(self, lseq9):
        for n in range(1, 10):
            assert lseq9.l[n].min_e_degree() >= 0

    def test_requires_minus_series(self, plus8):
        with pytest.raises(ValueError):
            l_sequence(3, plus8)

    def test_series_log_reproduces_the_l_recursion(self, series10):
        # the recursion as first written on the c_n themselves, with the
        # factor i outside: l[n] = (i/n) (f + i u^(1/2))^(-1)
        # [n c_n - sum_{m=0}^{n-2} (m+1) l[m+1] c_(n-1-m)]
        c = series10.coeffs
        ref = [None]
        for n in range(1, 11):
            inner = c[n].scale(n)
            for m in range(n - 1):
                inner = inner - (ref[m + 1] * c[n - 1 - m]).scale(m + 1)
            ref.append(i_times(inverse_lead_factor() * inner).scale(Fr(1, n)))
        assert l_sequence(10, series10).l == ref


class TestPartner:
    def test_log_route_matches_direct(self, series10, lseq9, plus8):
        via_log = partner_via_log_identity(series10, lseq9.derivatives(), 8)
        for n in range(9):
            assert via_log.coeffs[n] == plus8.coeffs[n]

    def test_imag_shift_matches_direct(self, series10, split10, plus8):
        via_shift = partner_via_imag_shift(series10, split10, 8)
        for n in range(9):
            assert via_shift.coeffs[n] == plus8.coeffs[n]

    def test_order_zero_equal(self, series10, lseq9):
        via_log = partner_via_log_identity(series10, lseq9.derivatives(), 0)
        assert via_log.coeffs[0] == series10.coeffs[0]


class TestPbar:
    def test_leading_coefficients(self, pbar8, split10):
        assert pbar8[0] == u_half(1)
        assert pbar8[1] == split10.p[1]

    def test_second_coefficient_closed_form(self, pbar8):
        p2b = (
            (phi(1, 2) * u_half(-3)).scale(Fr(1, 2))
            - (phi() * phi(2) * u_half(-3)).scale(Fr(1, 4))
            - (E_pow(1) * phi(1, 2) * u_half(-5)).scale(Fr(3, 4))
        )
        assert pbar8[2] == p2b

    def test_higher_coefficients_certified(self):
        # the closed form -(1/2) l_(n-1) of ln p-bar carries no pure
        # E-power, so it is the unique certificate the ansatz search returns
        pb = pbar_series(10)
        certs = pbar_certificates(pb)
        assert sorted(certs) == list(range(2, 11))
        for n, cert in certs.items():
            assert cert == antiderivative(pb[n])

    def test_first_coefficient_not_certified(self, pbar8):
        # the order-1 coefficient is the log carrier, same as the first
        # real part; it has no ring antiderivative (see quadrature test
        # for the nonzero contour integral that obstructs it)
        assert antiderivative(pbar8[1]) is None

    def test_subtraction_exposes_known_term(self, pbar8, split10):
        lead = (E_pow(1) * phi(1, 2) * u_half(-5)).scale(Fr(1, 8))
        assert split10.p[2] - pbar8[2] == lead


class TestSystemChecks:
    def test_generating_system_low_orders(self, split10):
        assert generating_system_check(6, split10).all_ok

    def test_generating_system_mutation_fails_at_order_two(self, split10):
        bad_q = list(split10.q)
        bad_q[2] = bad_q[2] + Expression.sym(2, 1) * Expression.u_pow(-2)
        rep = generating_system_check(3, split=SplitSeries(split10.p, bad_q))
        assert not rep.entries[0].ok or not rep.entries[1].ok
        assert rep.entries[1].order == 2 and not rep.entries[1].ok

    def test_imag_relation(self, split10):
        rep = imag_relation_check(6, split10, real_part_log(split10, 5))
        assert rep.all_ok
        assert rep.entries[0].detail == "vacuous"

    def test_imag_relation_first_order_is_minus_p1(self, split10):
        # order 1 is the leading log-derivative R_0'/R_0, which no
        # coefficient of ln R carries
        R, I = real_imag_hbar_series(split10, 2)
        assert I[1] == split10.p[1].scale(-1)
        assert (R[0].differentiate() * u_half(-1)).scale(Fr(1, 2)) == I[1]
        assert imag_relation_check(1, split10, [None]).all_ok

    def test_imag_relation_needs_ln_r_far_enough(self, split10):
        with pytest.raises(ValueError):
            imag_relation_check(3, split10, real_part_log(split10, 1))


def test_series_log_rejects_wrong_lead_inverse():
    with pytest.raises(StructuralTheoremViolation):
        series_log([u_half(1), phi()], u_half(1), 1)


# Leading coefficients with their exact inverses: the pbar lead and the lead
# f + i u^(1/2) of the partner identity.
_LEADS = [(u_half(1), u_half(-1)), (phi() + i_times(u_half(1)), inverse_lead_factor())]


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(_LEADS), st.lists(ring_expressions(max_terms=2), min_size=4, max_size=4))
def test_log_deriv_times_series_is_the_derivative(lead, tail):
    # a * (ln a)' = a', checked through the plain product, with (ln a)' the
    # leading log-derivative a_0'/a_0 and then l_m' term by term
    a = [lead[0]] + tail
    ell = series_log(a, lead[1], 4)
    assert ell[0] is None
    L = [a[0].differentiate() * lead[1]] + [x.differentiate() for x in ell[1:]]
    prod = series_mul(a, L, 4)
    for n in range(5):
        assert prod[n] == a[n].differentiate()


def _log_deriv_by_division(a, lead_inv, order):
    # (ln a)' = a'/a by long division: L_n = a_0^{-1} (a_n' - sum_{k>=1} a_k L_{n-k})
    L = []
    for n in range(order + 1):
        acc = a[n].differentiate()
        for k in range(1, n + 1):
            acc = acc - a[k] * L[n - k]
        L.append(acc * lead_inv)
    return L


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(_LEADS), st.lists(ring_expressions(max_terms=2), min_size=4, max_size=4))
def test_series_log_differentiates_to_the_log_derivative(lead, tail):
    # (ln a)' term by term: l_m' = L_m for m >= 1, with L = a'/a from plain
    # long division rather than from series_log's own recurrence
    a = [lead[0]] + tail
    ell, L = series_log(a, lead[1], 4), _log_deriv_by_division(a, lead[1], 4)
    assert ell[0] is None
    for m in range(1, 5):
        assert ell[m].differentiate() == L[m]


def test_pbar_fixed_point_residual(pbar8):
    # X^2 = u^(1/2) X - (nu/2) X' order by order, with no log-derivative
    X = pbar8
    for n in range(1, 9):
        conv = Expression.zero()
        for k in range(n + 1):
            conv = conv + X[k] * X[n - k]
        assert (conv - u_half(1) * X[n] + X[n - 1].differentiate().scale(Fr(1, 2))).is_zero()
