import json
import math
from fractions import Fraction as Fr

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import swkb.quadrature
import swkb.spectrum
from swkb.algebra import Expression, Monomial, phi, u_half
from swkb.cli import main
from swkb.errors import (
    AmbiguousRegionError,
    BranchTrackingError,
    ConvergenceError,
    NoClassicalRegionError,
)
from swkb.quadrature import (
    Contour,
    PolynomialSuperpotential,
    build_contour,
    compile_integrands,
    contour_integrate,
    track_sqrt_u,
    turning_points,
)
from swkb.oracle import oracle_eigenvalues
from swkb.reduction import reduce_even_order
from swkb.spectrum import ActionTables

from conftest import E_pow, ring_expressions

Q1 = (phi(1) * u_half(-1)).scale(Fr(1, 2))
P1 = (phi() * phi(1) * u_half(-2)).scale(Fr(1, 2))
# phi = x^3 - x at E = 0.5 and 1: the order-8 table's rows sit at a
# roundoff floor of about the settling tolerance on every confocal ellipse
# (measured: 2048-4096 samples at the best share of the root radius)
ROUNDOFF_FLOOR = pytest.mark.xfail(strict=True, raises=ConvergenceError,
                                   reason="order-8 rows at the roundoff floor")


class TestSuperpotential:
    def test_validation(self):
        with pytest.raises(ValueError):
            PolynomialSuperpotential([1.0])
        with pytest.raises(ValueError):
            PolynomialSuperpotential([0.0, 1.0], hbar=0.0)

    def test_derivatives(self, cubic):
        x = np.array([2.0])
        assert abs(cubic.phi(x)[0] - 8.0 / 3.0) < 1e-14
        assert abs(cubic.phi_deriv(1, x)[0] - 4.0) < 1e-14
        assert abs(cubic.phi_deriv(3, x)[0] - 2.0) < 1e-14
        assert cubic.phi_deriv(7, x)[0] == 0.0

    def test_partner_potentials(self, oscillator):
        x = np.array([1.5])
        assert abs(oscillator.v_minus(x)[0] - (2.25 - 1.0)) < 1e-14
        assert abs(oscillator.v_plus(x)[0] - (2.25 + 1.0)) < 1e-14

    def test_json_roundtrip(self, cubic, tmp_path):
        import json

        path = tmp_path / "sp.json"
        path.write_text(json.dumps(cubic.to_json_dict()))
        again = PolynomialSuperpotential.load(str(path))
        assert again.coefficients == cubic.coefficients
        assert again.hbar == cubic.hbar


class TestTurningPoints:
    def test_oscillator(self, oscillator):
        xl, xr, excluded = turning_points(oscillator, 4.0)
        assert abs(xl + 2.0) < 1e-12 and abs(xr - 2.0) < 1e-12
        assert excluded == []

    def test_cubic(self, cubic):
        xl, xr, excluded = turning_points(cubic, 1.0)
        root = 9.0 ** (1.0 / 6.0)
        assert abs(xr - root) < 1e-10 and abs(xl + root) < 1e-10
        assert len(excluded) == 4
        assert all(abs(w.imag) > 0.1 for w in excluded)

    def test_no_classical_region(self, oscillator):
        with pytest.raises(NoClassicalRegionError):
            turning_points(oscillator, -1.0)

    def test_double_well_is_ambiguous(self):
        # phi = x^2 - 1 (broken-SUSY shape): two classical regions at small E
        sp = PolynomialSuperpotential([-1.0, 0.0, 1.0], 1.0, "double well")
        with pytest.raises(AmbiguousRegionError):
            turning_points(sp, 0.5)

    def test_near_degenerate_pair_is_ambiguous(self, mixed_cubic):
        # on x + x^3/5 at E = 1e-20 the pair is 2e-10 wide while the complex
        # roots keep the roots' size at 2.24: the pair coalesces next to them
        with pytest.raises(AmbiguousRegionError, match="nearly degenerate turning points"):
            turning_points(mixed_cubic, 1e-20)

    @pytest.mark.parametrize("coefficients, E", [([0.0, 0.0, 0.0, 1.0 / 3.0], 1e-100),
                                                 ([0.0, 1.0], 1e-20)])
    def test_a_tiny_scale_invariant_well_keeps_its_pair(self, coefficients, E):
        # phi = c x^d is scale invariant, so a pair far below 1 is no nearer
        # to coalescing than at E = 1: the degenerate floor is relative to
        # the roots' size, not to 1
        d = len(coefficients) - 1
        xl, xr, excluded = turning_points(PolynomialSuperpotential(coefficients), E)
        root = (math.sqrt(E) / coefficients[-1]) ** (1.0 / d)
        assert math.isclose(xr, root, rel_tol=1e-12) and math.isclose(xl, -root, rel_tol=1e-12)
        assert len(excluded) == 2 * d - 2
        assert all(math.isclose(abs(w), root, rel_tol=1e-12) for w in excluded)

    def test_tiny_roots_are_told_real_by_their_own_size(self):
        # the six roots of x^6 = 1e-300 have size 1e-50: an absolute cut on
        # their imaginary parts took all six as real and reported 5 classical
        # regions, where there is one pair and four complex roots
        sp = PolynomialSuperpotential([0.0, 0.0, 0.0, 1.0], 1e-300)
        xl, xr, excluded = turning_points(sp, 1e-300)
        assert math.isclose(xr, 1e-50, rel_tol=1e-12) and math.isclose(xl, -1e-50, rel_tol=1e-12)
        assert len(excluded) == 4 and all(abs(w.imag) > 0.5e-50 for w in excluded)

    def test_raw_roots_are_those_of_polyroots(self):
        # the companion matrix is numpy's, so the roots before polishing
        # equal numpy.polynomial's polyroots bit for bit, real or complex
        from numpy.polynomial.polynomial import polyroots

        dtypes = set()
        for coefficients in ([0.0, 1.0], [0.0, 0.0, 0.0, 1.0 / 3.0], [0.0, 1.0, 0.0, 0.2],
                             [-1.0, 0.5, 0.0, 0.2, 0.0, 1.0], [0.0] * 7 + [1.0 / 7.0]):
            for E in np.geomspace(0.05, 500.0, 9):
                p2 = np.convolve(coefficients, coefficients)
                p2[0] -= E
                raw = swkb.quadrature._companion_roots(p2)
                expect = polyroots(p2)
                assert raw.dtype == expect.dtype and np.array_equal(raw, expect)
                dtypes.add(raw.dtype.kind)
        assert dtypes == {"f", "c"}

    @pytest.mark.parametrize("coefficients", [[0.0, 1.0], [0.0, 0.0, 0.0, 1.0 / 3.0],
                                              [0.0, 1.0, 0.0, 0.2]])
    def test_polished_roots_solve_phi_squared(self, coefficients):
        # the residual must also sit within a few roundoffs of the size of
        # phi^2 - E's terms at the root; the unpolished roots of polyroots
        # reach about 40 roundoffs on the cubic
        sp = PolynomialSuperpotential(coefficients)
        for E in np.geomspace(0.05, 500.0, 25):
            p2 = np.convolve(coefficients, coefficients)
            p2[0] -= E
            xl, xr, excluded = turning_points(sp, E)
            for x in [xl, xr] + excluded:
                residual = abs(sp.phi(x) ** 2 - E)
                terms = sum(abs(c) * abs(x) ** k for k, c in enumerate(p2))
                assert residual <= 1e-12 * max(1.0, E)
                assert residual <= 8.0 * np.finfo(float).eps * terms


def _inside(c, w):
    return ((w.real - c.center) / c.a) ** 2 + (w.imag / c.b) ** 2 < 1.0


class TestContour:
    def test_build_excludes_branch_points(self):
        # every contour is the ellipse confocal with the turning pair: it
        # encloses xl and xr and leaves every excluded root of phi^2 = E
        # outside, whether the nearest root limits it or not
        free = set()
        for coefficients in ([0.0, 1.0], [0.0, 0.0, 0.0, 1.0 / 3.0], [0.0, 1.0, 0.0, 0.2],
                             [0.0] * 5 + [0.2], [0.0, 1.0, 0.0, 0.0, 0.0, 0.2]):
            sp = PolynomialSuperpotential(coefficients)
            for E in np.geomspace(0.05, 500.0, 25):
                xl, xr, excluded = turning_points(sp, E)
                c = build_contour(sp, E)
                half_gap = 0.5 * (xr - xl)
                assert c.center == 0.5 * (xl + xr) and c.b > 0.0
                assert abs(c.a ** 2 - c.b ** 2 - half_gap ** 2) <= 1e-12 * c.a ** 2
                assert _inside(c, complex(xl)) and _inside(c, complex(xr))
                assert not any(_inside(c, w) for w in excluded)
                free.add(math.isclose(c.a, 2.0 * half_gap))
        assert free == {True, False}

    def test_build_matches_a_per_root_probe(self):
        # the radius rule written out with one probe per excluded root: the
        # confocal ellipse through w has semi-major axis (|w - xl| + |w - xr|) / 2
        # (the sum of the focal distances), so its elliptic radius is the
        # arccosh of that over the half-gap
        def per_root(sp, E):
            xl, xr, excluded = turning_points(sp, E)
            half_gap = 0.5 * (xr - xl)
            eta = swkb.quadrature.ETA_FREE
            for w in excluded:
                major = 0.5 * (abs(w - xl) + abs(w - xr))
                eta = min(eta, swkb.quadrature.ROOT_SHARE * math.acosh(max(major / half_gap, 1.0)))
            return eta

        regimes = set()
        for coefficients in ([0.0, 1.0], [0.0, 0.0, 0.0, 1.0 / 3.0], [0.0, 1.0, 0.0, 0.2],
                             [0.0] * 5 + [0.2], [0.0, 1.0, 0.0, 0.0, 0.0, 0.2]):
            sp = PolynomialSuperpotential(coefficients)
            for E in np.geomspace(0.05, 500.0, 25):
                xl, xr, _ = turning_points(sp, E)
                half_gap = 0.5 * (xr - xl)
                eta = per_root(sp, E)
                c = build_contour(sp, E)
                assert c.center == 0.5 * (xl + xr)
                assert math.isclose(c.a, half_gap * math.cosh(eta), rel_tol=1e-9)
                assert math.isclose(c.b, half_gap * math.sinh(eta), rel_tol=1e-9)
                regimes.add(eta == swkb.quadrature.ETA_FREE)
        # both the free shape and the root-limited shape are exercised
        assert regimes == {True, False}

    def test_encloses_turning_points(self, cubic):
        c = build_contour(cubic, 1.0)
        xl, xr, _ = turning_points(cubic, 1.0)
        assert _inside(c, complex(xl, 0.0)) and _inside(c, complex(xr, 0.0))

    def test_quintic_contour(self, table8, capsys, tmp_path):
        quintic = [0.0] * 5 + [0.2]
        sp = PolynomialSuperpotential(quintic)
        build_contour(sp, 1.0)
        for E in (1.0, 5.0, 50.0):
            assert contour_integrate(table8, sp, E).samples_used <= 1024
        # quantize solves it, and order 8 beats order 0 against the grid
        # oracle by a factor of more than 100 at levels 5-10
        path = tmp_path / "quintic.json"
        path.write_text(json.dumps({"coefficients": quintic}))
        levels = {}
        for order in ("0", "8"):
            assert main(["quantize", "--config", str(path), "--order", order,
                         "--levels", "10", "--json"]) == 0
            levels[order] = json.loads(capsys.readouterr().out)["levels"]
        oracle = oracle_eigenvalues(sp.v_minus, 11, 1.0)
        for n in range(5, 11):
            err = {k: abs(v[str(n)] - oracle[n]) for k, v in levels.items()}
            assert err["8"] < 0.01 * err["0"]

    @pytest.mark.parametrize("coefficients, E", [
        ([0.0, 1.0], 0.3), ([0.0, 1.0], 0.5), ([0.0, 1.0], 1.0),
        ([0.0, 1.0, 0.0, 0.2], 0.3), ([0.0, 1.0, 0.0, 0.2], 0.5),
        pytest.param([0.0, -1.0, 0.0, 1.0], 0.5, marks=ROUNDOFF_FLOOR),
        pytest.param([0.0, -1.0, 0.0, 1.0], 1.0, marks=ROUNDOFF_FLOOR),
    ])
    def test_envelope_cells_settle(self, table8, monkeypatch, coefficients, E):
        # the order-8 table, rows that cancel included, within 1024 samples
        monkeypatch.setattr(swkb.quadrature, "MAX_SAMPLES", 1024)
        contour_integrate(table8, PolynomialSuperpotential(coefficients), E)

    def test_pinched_contour_fails_by_convergence(self, table8, monkeypatch):
        # phi = x^3 - x just above the barrier top 4/27 of phi^2: two
        # excluded roots sit next to the real axis between the turning
        # points and pinch the contour
        monkeypatch.setattr(swkb.quadrature, "MAX_SAMPLES", 1024)
        with pytest.raises(ConvergenceError, match=r"at E = 0.15 did not converge"):
            contour_integrate(table8, PolynomialSuperpotential([0.0, -1.0, 0.0, 1.0]),
                              0.15)


    @pytest.mark.parametrize("E", [0.5, 2.0, 60.0])
    def test_cubic_starts_at_256_samples(self, cubic, E):
        # phi = c x^3 is scale invariant: its strip half-width is 0.249 at
        # every E, and 128 samples fall short of STRIP_DECAY
        assert build_contour(cubic, E).start == 256

    @pytest.mark.parametrize("E, start", [(0.1, 64), (0.5, 64), (1.0, 64),
                                          (2.0, 128), (10.0, 128), (60.0, 128)])
    def test_mixed_well_starts_where_its_strip_says(self, E, start):
        assert build_contour(PolynomialSuperpotential([0.0, 1.0, 0.0, 0.2], 0.5), E).start == start

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=5), st.floats(0.5, 3.0),
           st.floats(1e-3, 1e3))
    def test_start_stays_within_64_and_256_samples(self, low, top, E):
        # a power of two from 64 to 256 wherever a contour exists
        try:
            c = build_contour(PolynomialSuperpotential(low + [top]), E)
        except (NoClassicalRegionError, AmbiguousRegionError):
            return
        assert c.start in (64, 128, 256)

    def test_start_floor_and_hand_built_start(self, oscillator):
        # phi = x excludes no root: its strip, arccosh 2 wide, asks for 32
        # samples, and the floor keeps 64.  A hand-built contour starts at 256
        assert build_contour(oscillator, 3.0).start == swkb.quadrature.MIN_START_SAMPLES == 64
        assert Contour(0.0, 1.8, 1.3635).start == swkb.quadrature.START_SAMPLES == 256


def _first_two_levels(table, sp, E, c):
    """Rows of the trapezoid rule at c.start samples and at twice that, by
    nested doubling: one table contraction on the points, a second on their
    midpoints, with sqrt(u) tracked around the loop of both."""
    n = c.start
    deriv_rows = swkb.quadrature._derivative_rows(sp, table.orders)
    sets = [c.points(n), c.points(n, 0.5)]
    phi_vals = [swkb.quadrature._horner(deriv_rows, z) for z, _ in sets]
    loop = np.empty(2 * n, dtype=complex)
    loop[0::2], loop[1::2] = (E - p[0] ** 2 for p in phi_vals)
    s = track_sqrt_u(loop)
    coeffs = table.coeffs * E ** table.e
    sums = action0 = 0.0
    rows, separate = [], []
    for (z, dz), p, half in zip(sets, phi_vals, (s[0::2], s[1::2])):
        separate.append(table.monomial_sums(p, half, dz))
        sums = sums + separate[-1]
        action0 = action0 + np.sum(half * dz)
        flip = (-1.0) ** table.powers if action0.real < 0 else 1.0
        rows.append(2.0 * np.pi / (len(rows) + 1) / n
                    * np.sum(coeffs * (flip * sums)[table.part_index, table.power_index], axis=1))
    return rows, separate


class TestFirstPass:
    @pytest.fixture(scope="class")
    def cases(self, condition8, conditions, cubic):
        mixed = PolynomialSuperpotential([0.0, 1.0, 0.0, 0.2], 0.5)
        return [(condition8.action_table(cubic), cubic, E) for E in (0.5, 2.0)] + \
               [(conditions[4].action_table(mixed), mixed, E) for E in (0.5, 5.0)]

    def test_halves_are_the_sums_of_separate_calls(self, cases):
        # one contraction over the points and their midpoints, summed apart,
        # gives bit for bit the sums of one call on each set
        for table, sp, E in cases:
            c = build_contour(sp, E)
            n = c.start
            z, dz = c.points(n, (0.0, 0.5))
            phi_vals = swkb.quadrature._horner(
                swkb.quadrature._derivative_rows(sp, table.orders), z)
            loop = track_sqrt_u((E - phi_vals[0] ** 2).reshape(2, n).T.ravel())
            s = loop.reshape(n, 2).T.ravel()
            both = table.monomial_sums(phi_vals, s, dz, halves=True)
            _, separate = _first_two_levels(table, sp, E, c)
            assert both.shape == (2,) + separate[0].shape
            assert np.array_equal(both[0], separate[0]) and np.array_equal(both[1], separate[1])

    def test_rows_are_those_of_nested_doubling(self, cases):
        # every case settles at twice its start, and its rows are the
        # second level of nested doubling from the same start
        for table, sp, E in cases:
            c = build_contour(sp, E)
            r = contour_integrate(table, sp, E, contour=c)
            rows, _ = _first_two_levels(table, sp, E, c)
            assert r.samples_used == 2 * c.start
            assert np.array_equal(np.array(r.rows), rows[1])
            tol = np.maximum(swkb.quadrature.TOL, swkb.quadrature.REL_TOL * np.abs(rows[1]))
            assert np.all(np.abs(rows[1] - rows[0]) < tol)

    def test_one_pass_settles_at_twice_the_start(self, cases, monkeypatch):
        # tracking, polynomial evaluation and table contraction run once for
        # an integral that settles at its second level
        table, sp, E = cases[-1]
        calls = []

        def spy(name, fn):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapped

        for name in ("track_sqrt_u", "_horner"):
            monkeypatch.setattr(swkb.quadrature, name, spy(name, getattr(swkb.quadrature, name)))
        monkeypatch.setattr(swkb.quadrature.IntegrandTable, "monomial_sums",
                            spy("monomial_sums", swkb.quadrature.IntegrandTable.monomial_sums))
        r = contour_integrate(table, sp, E)
        assert r.samples_used == 2 * build_contour(sp, E).start
        assert sorted(calls) == ["_horner", "monomial_sums", "track_sqrt_u"]


class TestContourIntegrate:
    def test_leading_action_oscillator(self, oscillator):
        r = contour_integrate(u_half(1), oscillator, 4.0)
        assert abs(r.rows[0] - math.pi * 4.0) < 1e-10

    def test_leading_action_cross_checked_on_real_axis(self, cubic):
        # independent real-axis quadrature of the nonsingular leading term
        a = 9.0 ** (1.0 / 6.0)
        expect, _ = quad(lambda x: math.sqrt(max(1.0 - x**6 / 9.0, 0.0)), -a, a, limit=200)
        r = contour_integrate(u_half(1), cubic, 1.0)
        assert abs(r.rows[0] - 2.0 * expect) < 1e-9

    def test_oscillator_correction_vanishes(self, oscillator):
        for E in (1.0, 4.0, 9.0):
            r = contour_integrate(phi(1, 2) * u_half(-5), oscillator, E)
            assert abs(r.rows[0]) < 1e-10

    def test_first_imag_integral_is_pi(self, oscillator, cubic):
        for sp, E in ((oscillator, 4.0), (cubic, 0.5), (cubic, 1.0), (cubic, 2.0)):
            r = contour_integrate(Q1, sp, E)
            assert abs(r.rows[0] - math.pi) < 1e-10

    def test_first_real_integral_is_minus_i_pi(self, cubic):
        # the log obstruction: the first real part integrates to -i pi, so
        # it cannot be a derivative of any ring element
        r = contour_integrate(P1, cubic, 1.0, check_real=False)
        assert abs(r.rows[0] + 1j * math.pi) < 1e-10
        # in a table the realness check applies to that row on its own
        table = compile_integrands([u_half(1), P1])
        with pytest.raises(BranchTrackingError):
            contour_integrate(table, cubic, 1.0)
        r = contour_integrate(table, cubic, 1.0, check_real=False)
        assert abs(r.rows[1] + 1j * math.pi) < 1e-10

    def test_nested_doubling_matches_direct_rule(self, cubic, mixed_cubic, split10, lseq9,
                                                 monkeypatch):
        # the running sums of the nested rule equal one trapezoid sum over
        # the final sample set
        def loop(sp, E, c, samples):
            z, dz = c.points(samples)
            s = track_sqrt_u(E - sp.phi(z) ** 2)
            return z, dz, (s if np.sum(s * dz).real > 0 else -s)

        expr = reduce_even_order(4, split10, lseq9).integrand
        c = build_contour(mixed_cubic, 1.5)
        r = contour_integrate(expr, mixed_cubic, 1.5, contour=c)
        z, dz, s = loop(mixed_cubic, 1.5, c, r.samples_used)
        vals = [expr.evaluate([mixed_cubic.phi_deriv(k, zj) for k in range(4)],
                              1.5 - mixed_cubic.phi(zj) ** 2, sj, 1.5) for zj, sj in zip(z, s)]
        assert abs(r.rows[0]) > 1e-3
        assert abs(r.rows[0] - 2.0 * np.pi / len(z) * np.sum(np.array(vals) * dz)) < 1e-12
        # an ellipse grazing an excluded branch point: at 1024 samples the
        # whole-loop tracking picks a different branch at the old samples
        # than the 512-sample loop of the first pass did, so the sums
        # restart from scratch
        c = Contour(0.0, 1.8, 1.3634)
        sets, points = [], Contour.points

        def spy(self, samples, shift=0.0):
            sets.append((samples, shift))
            return points(self, samples, shift)

        monkeypatch.setattr(Contour, "points", spy)
        r = contour_integrate(u_half(1), cubic, 1.0, contour=c)
        assert sets[:3] == [(256, (0.0, 0.5)), (512, 0.5), (1024, 0.0)]
        monkeypatch.undo()
        _, dz, s = loop(cubic, 1.0, c, r.samples_used)
        assert abs(r.rows[0] - 2.0 * np.pi / len(s) * np.sum(s * dz)) < 1e-12

    def test_every_row_must_converge(self, cubic):
        # on a flat ellipse the u^(-5/2) row needs more samples than the
        # leading action, and the table stops only when both have settled
        xl, xr, _ = turning_points(cubic, 1.0)
        c = Contour(0.5 * (xl + xr), 0.55 * (xr - xl), 0.05 * (xr - xl))
        slow = phi(1, 2) * u_half(-5)
        table = compile_integrands([u_half(1), slow])
        r = contour_integrate(table, cubic, 1.0, contour=c)
        alone = contour_integrate(slow, cubic, 1.0, contour=c)
        lead = contour_integrate(u_half(1), cubic, 1.0, contour=c)
        assert r.samples_used == alone.samples_used > lead.samples_used
        assert abs(r.rows[0] - lead.rows[0]) < 1e-10

    def test_only_the_gate_settles_the_table(self, cubic, monkeypatch):
        # the flat ellipse of test_every_row_must_converge: gated by the lead
        # row alone, the table stops where the lead does, with the slow row
        # marked unsettled; a non-real row outside the gate raises nothing
        xl, xr, _ = turning_points(cubic, 1.0)
        c = Contour(0.5 * (xl + xr), 0.55 * (xr - xl), 0.05 * (xr - xl))
        table = compile_integrands([u_half(1), phi(1, 2) * u_half(-5), P1])
        lead = contour_integrate(u_half(1), cubic, 1.0, contour=c)
        r = contour_integrate(table, cubic, 1.0, contour=c, gate=slice(0, 1))
        assert r.samples_used == lead.samples_used and abs(r.rows[0] - lead.rows[0]) < 1e-15
        assert r.settled == (True, False, False)
        r = contour_integrate(table, cubic, 1.0, contour=c, gate=slice(0, 2))
        assert r.samples_used > lead.samples_used and r.settled == (True, True, False)
        assert contour_integrate(table, cubic, 1.0, contour=c, check_real=False).settled == (True,) * 3
        # a row index in a message counts within the gate
        monkeypatch.setattr(swkb.quadrature, "MAX_SAMPLES", 512)
        with pytest.raises(ConvergenceError, match=r"within 512 samples: row 0 still moved"):
            contour_integrate(table, cubic, 1.0, contour=c, gate=slice(1, 2))

    def test_nonconvergence_names_energy_samples_and_row(self, cubic, monkeypatch):
        # the flat ellipse of test_every_row_must_converge: the lead row
        # settles at 512 samples, the u^(-5/2) row only at 1024
        xl, xr, _ = turning_points(cubic, 1.0)
        c = Contour(0.5 * (xl + xr), 0.55 * (xr - xl), 0.05 * (xr - xl))
        table = compile_integrands([u_half(1), phi(1, 2) * u_half(-5)])
        monkeypatch.setattr(swkb.quadrature, "MAX_SAMPLES", 512)
        with pytest.raises(ConvergenceError,
                           match=r"at E = 1.0 did not converge within 512 samples: row 1 still moved"):
            contour_integrate(table, cubic, 1.0, contour=c)

    def test_relative_row_tolerance(self, cubic, split10, lseq9):
        # every row settles to max(TOL, REL_TOL * |row|): a row of size 1.6e11
        # by the relative part, and a row that integrates to 0 (a
        # certificate's derivative) by the absolute floor.  For phi = x^3/3,
        # x = E^(1/6) y scales the first row by E^(-26/3).
        big = phi(1, 8) * u_half(-23)
        cert_d = reduce_even_order(4, split10, lseq9).certificate.differentiate()
        r = contour_integrate(compile_integrands([big, cert_d]), cubic, 0.05)
        assert r.samples_used == 512
        expect = 0.05 ** (-26.0 / 3.0) * contour_integrate(big, cubic, 1.0).rows[0].real
        assert abs(expect) > 1e6
        assert abs(r.rows[0] - expect) < 1e-9 * abs(expect)
        assert abs(r.rows[1]) < 1e-9

    def test_derivative_annihilation(self, cubic, split10, lseq9):
        r2 = reduce_even_order(2, split10, lseq9)
        cert_d = r2.certificate.differentiate()
        r = contour_integrate(cert_d, cubic, 1.0, check_real=False)
        assert abs(r.rows[0]) < 1e-9

    @settings(max_examples=5, deadline=None, derandomize=True, database=None)
    @given(ring_expressions(max_terms=2))
    def test_random_certificates_annihilate(self, cubic, y):
        re, _ = y.split_real_imag()
        d = re.differentiate()
        if d.is_zero():
            return
        r = contour_integrate(d, cubic, 1.0, check_real=False)
        assert abs(r.rows[0]) < 1e-8

    def test_dropped_parts_integrate_to_zero(self, cubic, split10):
        for expr in (split10.q[2], split10.p[3], split10.q[3]):
            r = contour_integrate(expr, cubic, 1.0, check_real=False)
            assert abs(r.rows[0]) < 1e-9

    def test_reduced_matches_raw_even_order(self, cubic, split10, lseq9):
        for order in (2, 4):
            red = reduce_even_order(order, split10, lseq9)
            a = contour_integrate(split10.p[order], cubic, 1.0, check_real=False)
            b = contour_integrate(red.integrand, cubic, 1.0)
            assert abs(a.rows[0] - b.rows[0]) < 1e-9

    def test_contour_independence(self, oscillator, cubic, mixed_cubic, table8):
        c1 = build_contour(oscillator, 4.0)
        c2 = Contour(c1.center, 2.0 * c1.a, 2.0 * c1.b)
        v1 = contour_integrate(u_half(1), oscillator, 4.0, contour=c1).rows[0]
        v2 = contour_integrate(u_half(1), oscillator, 4.0, contour=c2).rows[0]
        assert abs(v1 - v2) < 1e-10
        # modest rescale for the cubic (large ones would cross branch points)
        c3 = build_contour(cubic, 1.0)
        c4 = Contour(c3.center, 1.1 * c3.a, 1.1 * c3.b)
        v3 = contour_integrate(phi(1, 2) * u_half(-5) * E_pow(1), cubic, 1.0, contour=c3).rows[0]
        v4 = contour_integrate(phi(1, 2) * u_half(-5) * E_pow(1), cubic, 1.0, contour=c4).rows[0]
        assert abs(v3 - v4) < 1e-9
        # a clockwise loop: the global sign flips sqrt(u), so the value
        # does not depend on the orientation either
        c5 = Contour(c3.center, c3.a, -c3.b)
        v5 = contour_integrate(phi(1, 2) * u_half(-5) * E_pow(1), cubic, 1.0, contour=c5).rows[0]
        assert abs(v3 - v5) < 1e-9
        # the order-8 table on the fixed shape (1.25 g, 0.625 g) the contour
        # used to have, against the confocal one: every row agrees within
        # twice its settling tolerance
        for sp, E in ((cubic, 1.0), (cubic, 5.0), (mixed_cubic, 1.5)):
            xl, xr, _ = turning_points(sp, E)
            half_gap = 0.5 * (xr - xl)
            fixed = Contour(0.5 * (xl + xr), 1.25 * half_gap, 0.625 * half_gap)
            rows = np.array(contour_integrate(table8, sp, E, contour=fixed).rows)
            confocal = np.array(contour_integrate(table8, sp, E).rows)
            tol = np.maximum(swkb.quadrature.TOL, swkb.quadrature.REL_TOL * np.abs(rows))
            assert np.all(np.abs(rows - confocal) < 2.0 * tol)

    def test_positive_leading_action(self, cubic):
        for E in (0.5, 1.0, 2.0):
            r = contour_integrate(u_half(1), cubic, E)
            assert r.rows[0].real > 0

    def test_branch_state_invariants(self, cubic):
        z, _ = build_contour(cubic, 1.0).points(1024)
        assert track_sqrt_u(1.0 - cubic.phi(z) ** 2)[0].imag > 0  # initial sign convention

    def test_open_branch_loop_raises(self):
        # u = e^(i theta) winds once around u = 0: the continued root comes
        # back with the other sign, so the loop cannot close
        theta = 2.0 * np.pi * np.arange(64) / 64
        with pytest.raises(BranchTrackingError, match="does not close"):
            track_sqrt_u(np.exp(1j * theta))

    def test_start_over_when_the_finer_loop_changes_branch(self, cubic, monkeypatch):
        # the first tracking flips the root on a contiguous arc, so the loop
        # still closes; the finer loop disagrees at the old samples, and the
        # sums must start over instead of keeping the flipped arc
        c = build_contour(cubic, 1.0)
        table = compile_integrands([u_half(1), phi(1, 2) * u_half(-5) * E_pow(1)])
        plain = contour_integrate(table, cubic, 1.0, contour=c)
        calls = []

        def flipped_first(u):
            s = track_sqrt_u(u)
            if not calls:
                s[40:90] *= -1.0
            calls.append(len(u))
            return s

        monkeypatch.setattr(swkb.quadrature, "track_sqrt_u", flipped_first)
        r = contour_integrate(table, cubic, 1.0, contour=c)
        assert len(calls) >= 2
        assert max(abs(a - b) for a, b in zip(r.rows, plain.rows)) < 1e-12


def _compile_from_terms(exprs):
    """``compile_integrands`` as first written: every coefficient read
    through the ``Fraction`` pairs of ``Expression.terms``, each part and
    power found by ``list.index``."""
    monos = sorted({m for x in exprs for m in x.terms}, key=Monomial.sort_key)
    orders = tuple(sorted({k for m in monos for k, _ in m.derivs} | {0}))
    ladder = tuple(max([a for m in monos for j, a in m.derivs if j == k], default=0) for k in orders)
    first = dict(zip(orders, np.cumsum((1,) + ladder).tolist()))
    parts = sorted({m.derivs for m in monos})
    powers = sorted({m.h for m in monos})
    part_rows = np.zeros((len(parts), max([1] + [len(d) for d in parts])), dtype=int)
    for i, derivs in enumerate(parts):
        part_rows[i, :len(derivs)] = [first[k] + a - 1 for k, a in derivs]
    pos = {m: i for i, m in enumerate(monos)}
    coeffs = np.zeros((len(exprs), len(monos)), dtype=complex)
    for r, x in enumerate(exprs):
        for m, (re, im) in x.terms.items():
            coeffs[r, pos[m]] = complex(float(re), float(im))
    return swkb.quadrature.IntegrandTable(
        orders, ladder, part_rows, np.array(powers, dtype=int),
        np.array([parts.index(m.derivs) for m in monos], dtype=int),
        np.array([powers.index(m.h) for m in monos], dtype=int),
        np.array([m.e for m in monos], dtype=int), coeffs)


def _assert_same_table(got, want):
    # field by field, each array with its dtype, shape and every bit
    assert (got.orders, got.ladder) == (want.orders, want.ladder)
    for name in ("parts", "powers", "part_index", "power_index", "e", "coeffs"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name


class TestIntegrandTable:
    @pytest.mark.parametrize("coefficients, hbar, orders", [
        ([0.0, 0.0, 0.0, 1.0 / 3.0], 1.0, (8,)),
        ([0.0, 1.0, 0.0, 0.2], 0.5, (0, 2, 4)),
    ], ids=["quantize8-cubic", "compare-mixed"])
    def test_packed_keys_compile_the_table_of_the_terms(self, monkeypatch, condition8,
                                                        coefficients, hbar, orders):
        # the action table of each benchmark run and the order-8 row table
        # (integrands and their E-derivatives), compiled from the packed
        # keys, equal the tables built from the Fraction terms
        rows = []
        honest = swkb.spectrum.compile_integrands
        monkeypatch.setattr(swkb.spectrum, "compile_integrands",
                            lambda exprs: rows.append(exprs) or honest(exprs))
        tables = ActionTables(orders, condition8.corrections[:max(orders) // 2 + 1])
        table = tables.table(PolynomialSuperpotential(coefficients, hbar))
        _assert_same_table(table, _compile_from_terms(rows[0]))
        integrands = [c.integrand for c in condition8.corrections]
        exprs = integrands + [x.diff_E() for x in integrands]
        _assert_same_table(compile_integrands(exprs), _compile_from_terms(exprs))

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.lists(ring_expressions(max_terms=4), min_size=1, max_size=3))
    def test_packed_keys_compile_drawn_tables_of_the_terms(self, exprs):
        # complex coefficients over several denominators, shared monomials
        _assert_same_table(compile_integrands(exprs), _compile_from_terms(exprs))

    def test_stack_holds_only_the_factor_powers_in_use(self, table8, table4):
        # one row per distinct phi part and one entry per distinct sqrt(u)
        # power, each used by some monomial; the top rung of every ladder
        # is read by some part
        for table, n_parts, n_powers in ((table8, 15, 13), (table4, 4, 7)):
            assert len(table.parts) == len({tuple(p) for p in table.parts.tolist()}) == n_parts
            assert len(table.powers) == len(set(table.powers.tolist())) == n_powers
            assert set(table.part_index.tolist()) == set(range(n_parts))
            assert set(table.power_index.tolist()) == set(range(n_powers))
            tops = np.cumsum(table.ladder)[np.array(table.ladder) > 0]
            assert set(tops.tolist()) <= set(table.parts.ravel().tolist())
            assert table.parts.max() == sum(table.ladder)

    def test_roundoff_of_the_summation_order(self, table8):
        # phi = x^3/3 at low energies, where the order-8 rows cancel far
        # below their terms: one trapezoid sum per sample count N, and the
        # worst row's step from N/2 to N in settling tolerances.  Chunked
        # sums added pairwise read about 3 here; one sequential sum per
        # block of SUM_BLOCK samples reads about 38
        table = table8
        sp = PolynomialSuperpotential([0.0, 0.0, 0.0, 1.0 / 3.0], 0.05)

        def rows(E, samples):
            z, dz = build_contour(sp, E).points(samples)
            phi_vals = np.array([sp.phi_deriv(k, z) for k in table.orders])
            s = track_sqrt_u(E - phi_vals[0] ** 2)
            s = s if np.sum(s * dz).real > 0 else -s
            sums = table.monomial_sums(phi_vals, s, dz)[table.part_index, table.power_index]
            return 2.0 * np.pi / samples * np.sum(table.coeffs * (sums * E ** table.e), axis=1)

        steps = []
        for E in (0.01, 0.015, 0.02):
            levels = [rows(E, 2 ** k) for k in range(13, 17)]
            for coarse, fine in zip(levels, levels[1:]):
                tol = np.maximum(swkb.quadrature.TOL, swkb.quadrature.REL_TOL * np.abs(fine))
                steps.append(np.max(np.abs(fine - coarse) / tol))
        assert np.median(steps) < 8.0

    def test_parts_built_in_place_match_the_stacked_product(self, table8):
        # monomial_sums multiplies each phi part's rungs into one array in
        # place; np.prod over a stacked (parts, width, samples) copy takes
        # them in the same order, so contracted by the same batched matrix
        # product the sums agree bit for bit.  Random samples keep every
        # rung nonzero (phi = x^3/3 zeroes its 4th derivative)
        table = table8
        rng = np.random.default_rng(0)
        phi_vals, s, dz = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                           for shape in ((len(table.orders), 512), 512, 512))
        rungs = [np.ones(512, dtype=complex)]
        for row, height in zip(phi_vals, table.ladder):
            for a in range(height):
                rungs.append(rungs[-1] * row if a else row)
        part = np.prod(np.array(rungs)[table.parts], axis=1)
        lo, hi = table.powers.min(initial=0), table.powers.max(initial=0)
        ladder = np.ones((1 + hi - lo, 512), dtype=complex)
        for i in range(1 - lo, len(ladder)):
            ladder[i] = ladder[i - 1] * s
        for i in range(-lo - 1, -1, -1):
            ladder[i] = ladder[i + 1] * (1.0 / s)
        sq = ladder[table.powers - lo] * dz
        chunks = (512 // swkb.quadrature.CHUNK, swkb.quadrature.CHUNK)
        part_c, sq_c = part.reshape(len(part), *chunks), sq.reshape(len(sq), *chunks)
        stacked = np.matmul(part_c.transpose(1, 0, 2), sq_c.transpose(1, 2, 0)).sum(axis=0)
        sums = table.monomial_sums(phi_vals, s, dz)
        assert np.array_equal(sums, stacked)
        # the reference contraction: an einsum over each chunk, then the
        # chunk sums; the two differ only in the order of their roundoff
        reference = np.einsum("pbc,hbc->phb", part_c, sq_c).sum(axis=-1)
        scale = np.abs(part) @ np.abs(sq).T
        assert np.all(np.abs(sums - reference) <= 1e-12 * scale)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.lists(ring_expressions(max_terms=4), min_size=2, max_size=4))
    @example(exprs=[Expression.zero(), Expression.zero()])
    def test_rows_match_evaluate(self, mixed_cubic, exprs):
        # rows that share monomials: the last one is the sum of the first two
        exprs = exprs + [exprs[0] + exprs[1]]
        table = compile_integrands(exprs)
        E = 1.5
        z, _ = build_contour(mixed_cubic, E).points(16)
        phi_vals = np.array([mixed_cubic.phi_deriv(k, z) for k in table.orders])
        s = track_sqrt_u(E - phi_vals[0] ** 2)
        derivs = {k: mixed_cubic.phi_deriv(k, z) for k in range(4)}
        for j in range(len(z)):
            sums = table.monomial_sums(phi_vals[:, j:j + 1], s[j:j + 1], np.ones(1))
            monos = sums[table.part_index, table.power_index]
            rows = table.coeffs @ (monos * E ** table.e)
            point = ({k: v[j] for k, v in derivs.items()}, E - phi_vals[0, j] ** 2, s[j], E)
            for x, got in zip(exprs, rows):
                scale = sum(abs(Expression(x.ring, [mc]).evaluate(*point)) for mc in x.terms.items())
                assert abs(got - x.evaluate(*point)) <= 1e-12 * scale
