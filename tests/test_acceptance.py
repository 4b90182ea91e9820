"""Acceptance gate: one test per criterion, each printing a PASS line with
its measured runtime where one is budgeted (run with ``pytest -s`` to see
the lines).  Everything exact is compared exactly; numeric checks use the
stated tolerances."""

import math
import time
from fractions import Fraction as Fr

import pytest

from swkb.algebra import i_times, phi, u_half
from swkb.antiderivative import antiderivative
from swkb.oracle import oracle_eigenvalues
from swkb.quadrature import contour_integrate
from swkb.reduction import (
    decompose,
    equivalent_mod_derivative,
    known_integrand_order2,
    known_integrand_order4,
    reduce_even_order,
)
from swkb.series import (
    generate_series,
    generating_system_check,
    imag_relation_check,
    l_sequence,
    partner_via_log_identity,
    split_series,
)
from swkb.spectrum import compare_report, solve_level
from swkb.wkb import log_term_expansion_check, substituted_condition_check


def test_criterion_01_second_order_term():
    t0 = time.perf_counter()
    s = generate_series(2, "minus")
    split = split_series(s)
    lseq = l_sequence(1, s)
    r2 = reduce_even_order(2, split, lseq)
    target = known_integrand_order2()
    assert r2.sign_factor == -1, "quantization sign must be -hbar^2"
    assert r2.integrand == target, "canonical representative must match exactly"
    assert equivalent_mod_derivative(split.p[2], target) is not None
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\ncriterion 1: PASS (hbar^2 term = (E/8) f'^2 u^-5/2, sign -1; {elapsed:.2f}s)")


def test_criterion_02_fourth_order_bracket():
    t0 = time.perf_counter()
    s = generate_series(4, "minus")
    split = split_series(s)
    lseq = l_sequence(3, s)
    r4 = reduce_even_order(4, split, lseq)
    bracket = known_integrand_order4()
    # quantization sign -hbar^4: sign_factor (+1) times an integrand equal
    # to the negative of the displayed bracket
    assert r4.sign_factor == 1
    cert = equivalent_mod_derivative(r4.integrand, -bracket)
    assert cert is not None, "must be equivalent to the known bracket"
    assert cert.differentiate() == r4.integrand + bracket
    assert r4.integrand == -bracket, "canonical representative matches exactly"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"\ncriterion 2: PASS (hbar^4 bracket reproduced exactly; {elapsed:.2f}s)")


def test_criterion_03_third_imaginary_part(split10, lseq9):
    y = (phi() * phi(1, 2) * u_half(-5)).scale(Fr(5, 16)) + (phi(2) * u_half(-3)).scale(
        Fr(2, 16)
    )
    assert y.differentiate() == split10.q[3]
    assert i_times(lseq9.l[2].differentiate()).scale(Fr(1, 2)) == split10.q[3]
    print("\ncriterion 3: PASS (q_3 = d/dx of (1/16)[5 f f'^2 u^-5/2 + 2 f'' u^-3/2])")


def test_criterion_04_total_derivative_certificates(split10, pbar8):
    for n in (3, 5, 7, 9):
        y = antiderivative(split10.q[n])
        assert y is not None, f"q_{n} must be a certified total derivative"
        assert y.differentiate() == split10.q[n]
    for n in range(2, 9):
        y = antiderivative(pbar8.coeffs[n])
        assert y is not None, f"log-fixed-point coefficient {n} must be certified"
        assert y.differentiate() == pbar8.coeffs[n]
    print(
        "\ncriterion 4: PASS (certificates for q_3, q_5, q_7, q_9 and the"
        " log-fixed-point coefficients 2..8; coefficient 1 is the log carrier,"
        " see the companion xfail)"
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the first log-fixed-point coefficient equals the first-order real "
        "part f f'/(2u), whose closed-contour integral is -i pi != 0, so no "
        "ring antiderivative can exist; the literal claim is unattainable"
    ),
)
def test_criterion_04_first_pbar_coefficient_literal(pbar8):
    assert antiderivative(pbar8.coeffs[1]) is not None


def test_criterion_04_first_pbar_obstruction(pbar8, cubic):
    # why the xfail above must fail: a total derivative integrates to zero
    # around the contour, but this coefficient integrates to -i pi
    r = contour_integrate(pbar8.coeffs[1], cubic, 1.0, check_real=False)
    assert abs(r.value + 1j * math.pi) < 1e-9
    print("\ncriterion 4 (obstruction): PASS (first coefficient integrates to -i pi)")


def test_criterion_05_partner_identity(series10, plus8):
    via_log = partner_via_log_identity(series10, 8)
    for n in range(9):
        assert via_log.coeffs[n] == plus8.coeffs[n], f"partner mismatch at order {n}"
    print("\ncriterion 5: PASS (partner series agree exactly through order 8)")


def test_criterion_06_e_factorization(split10, lseq9):
    F = phi() * u_half(-1)
    for n in range(1, 9):
        num_alpha = split10.p[n] - F * split10.q[n]
        num_beta = split10.q[n] + F * split10.p[n]
        assert num_alpha.is_zero() or num_alpha.min_e_degree() >= 1
        assert num_beta.is_zero() or num_beta.min_e_degree() >= 1
        decompose(n, split10)  # raises on violation
    for order in (2, 4, 6, 8):
        r = reduce_even_order(order, split10, lseq9)
        assert r.integrand.min_e_degree() >= 1
    print("\ncriterion 6: PASS (explicit E factor, orders 1..8 and reduced 2..8)")


def test_criterion_07_system_identities(split10):
    assert generating_system_check(6, split10).all_ok
    assert imag_relation_check(6, split10).all_ok
    print("\ncriterion 7: PASS (coupled system and imaginary-part relation, orders <= 6)")


def test_criterion_08_wkb_substitution(substitution4, wkb4, series10):
    log_rep = log_term_expansion_check(substitution4)
    assert log_rep.all_ok, "log-derivative corrections must be certified derivatives"
    cond = substituted_condition_check(substitution4, wkb4, series10)
    assert cond.all_ok
    by_order = {e.order: e.ok for e in cond.entries}
    assert by_order[2] and by_order[4]
    print("\ncriterion 8: PASS (substituted condition matches at hbar^2 and hbar^4)")


def test_criterion_09_oscillator_spectrum(oscillator, conditions):
    t0 = time.perf_counter()
    for n in range(6):
        e0 = solve_level(conditions[0], oscillator, n)
        assert abs(e0 - 2.0 * n) < 1e-8, f"level {n} at leading order"
        e2 = solve_level(conditions[2], oscillator, n)
        e4 = solve_level(conditions[4], oscillator, n)
        assert abs(e2 - e0) < 1e-8 and abs(e4 - e0) < 1e-8, "corrections must vanish"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"\ncriterion 9: PASS (oscillator levels 2n, corrections inert; {elapsed:.2f}s)")


def test_criterion_10_anharmonic_benchmark(cubic, conditions):
    t0 = time.perf_counter()
    oracle = oracle_eigenvalues(cubic.v_minus, 4, 1.0)
    assert abs(oracle[0]) < 1e-6, "unbroken-SUSY ground state"
    for n in (1, 2, 3):
        e0 = solve_level(conditions[0], cubic, n)
        e4 = solve_level(conditions[4], cubic, n)
        assert abs(e4 - oracle[n]) <= abs(e0 - oracle[n]) + 1e-8
    rep = compare_report(cubic, [0, 2, 4], 3)
    for rec in rep.degeneracy:
        assert rec.gap < 1e-7, f"degeneracy gap at n={rec.n}, order {rec.order}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"\ncriterion 10: PASS (oracle ground state, order-4 accuracy, degeneracy;"
          f" {elapsed:.2f}s)")


def test_criterion_11_quadrature_self_consistency(cubic, split10, lseq9):
    r2 = reduce_even_order(2, split10, lseq9)
    for E in (0.5, 1.0, 2.0):
        raw = contour_integrate(split10.p[2], cubic, E, check_real=False)
        red = contour_integrate(r2.integrand, cubic, E)
        assert abs(raw.value - red.value) < 1e-9
        assert abs(red.value.imag) < 1e-9
        lead = contour_integrate(u_half(1), cubic, E)
        assert abs(lead.value.imag) < 1e-9
    print("\ncriterion 11: PASS (raw and reduced second-order integrals agree; real)")
