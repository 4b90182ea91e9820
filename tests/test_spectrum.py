import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import swkb.cli
import swkb.quadrature
import swkb.spectrum
from swkb.algebra import Expression
from swkb.errors import ConvergenceError, OutOfValidatedRangeError, StructuralTheoremViolation
from swkb.oracle import oracle_eigenvalues
from swkb.quadrature import PolynomialSuperpotential, contour_integrate
from swkb.reduction import quantization_integrands
from swkb.spectrum import action, build_conditions, compare_report, solve_level, solve_levels

from conftest import broken_plus_series


class TestAction:
    def test_oscillator_is_pi_e(self, oscillator, conditions):
        assert abs(action(conditions[0], oscillator, 4.0)[0][0] - 4.0 * math.pi) < 1e-9

    def test_oscillator_corrections_vanish(self, oscillator, conditions):
        assert abs(action(conditions[4], oscillator, 4.0)[4][0] - 4.0 * math.pi) < 1e-9

    def test_cubic_leading_matches_real_axis(self, cubic, conditions):
        a = 9.0 ** (1.0 / 6.0)
        expect, _ = quad(lambda x: math.sqrt(max(1.0 - x**6 / 9.0, 0.0)), -a, a, limit=200)
        assert abs(action(conditions[0], cubic, 1.0)[0][0] - 2.0 * expect) < 1e-9

    def test_monotone_increasing_at_leading_order(self, cubic, oscillator, conditions):
        for sp in (cubic, oscillator):
            vals = [action(conditions[0], sp, E)[0][0] for E in np.linspace(0.25, 6.0, 24)]
            assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_below_validated_range(self, cubic, conditions):
        with pytest.raises(OutOfValidatedRangeError):
            action(conditions[0], cubic, 0.0)


class TestSharedPass:
    @pytest.mark.parametrize(
        "coefficients, hbar, order, energies",
        [
            ([0.0, 0.0, 0.0, 1.0 / 3.0], 1.0, 8, (1.0, 3.0, 7.5)),
            ([0.0, 1.0, 0.0, 0.2], 0.5, 4, (0.6, 2.0, 5.0)),
        ],
    )
    def test_action_is_weighted_sum_of_single_integrals(self, coefficients, hbar, order, energies,
                                                        split10, lseq9):
        sp = PolynomialSuperpotential(coefficients, hbar)
        corrections = quantization_integrands(order, split10, lseq9)
        cond = build_conditions([order])[order]
        for E in energies:
            expect = sum(c.sign_factor * hbar ** c.order
                         * contour_integrate(c.integrand, sp, E).rows[0].real for c in corrections)
            assert abs(action(cond, sp, E)[order][0] - expect) < 1e-12

    def test_one_contour_and_one_pass_per_energy(self, cubic, monkeypatch):
        cond = build_conditions([8])[8]
        calls = {"build_contour": 0, "contour_integrate": 0}
        for module, name in ((swkb.quadrature, "build_contour"), (swkb.spectrum, "contour_integrate")):
            def counted(*args, _name=name, _original=getattr(module, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        for E in (1.0, 2.0, 4.0):
            action(cond, cubic, E)
        assert calls == {"build_contour": 3, "contour_integrate": 3}


def _weighted_generic(cond, table, sp):
    """The per-row ``table`` of ``cond`` with its rows folded into A and A'
    by the float weights sign * hbar^order, every monomial kept."""
    weights = np.array([c.sign_factor * sp.hbar ** c.order for c in cond.corrections])
    coeffs = np.einsum("k,rkm->rm", weights, table.coeffs.reshape(2, len(weights), -1))
    return dataclasses.replace(table, coeffs=coeffs)


class TestActionTable:
    @pytest.mark.parametrize("coefficients, n_parts, orders", [
        ([0.0, 0.0, 0.0, 1.0 / 3.0], 9, (0, 1, 3)),
        ([0.0, 0.0, 0.0, 0.0, 0.0, 0.2], 13, (0, 1, 2, 3, 4, 5)),
        ([0.0] * 7 + [0.1], 15, tuple(range(8))),
        ([0.0] * 9 + [0.1], 15, tuple(range(8))),
    ])
    def test_holds_only_the_parts_phi_leaves_nonzero(self, condition8, coefficients,
                                                     n_parts, orders):
        # phi^(k) vanishes for k above the degree of phi; on x^3/3 phi'' is
        # dropped as well, since it appears only next to phi^(4) and phi^(6).
        # The A'' row adds the sqrt(u) powers u^(-25/2) and u^(-27/2) and no part
        table = condition8.action_table(PolynomialSuperpotential(coefficients))
        assert table.orders == orders
        assert len(table.parts) == n_parts and len(table.powers) == 15
        assert table.powers.tolist() == list(range(-27, 2, 2))
        assert table.coeffs.shape == (3, len(table.part_index))
        if n_parts == 15:
            # nothing dropped: the monomials of every correction and of its
            # first and second E-derivatives
            rows = [c.integrand for c in condition8.corrections]
            slopes = [x.diff_E() for x in rows]
            generic = swkb.quadrature.compile_integrands(rows + slopes + [x.diff_E() for x in slopes])
            assert np.array_equal(table.part_index, generic.part_index)
            assert np.array_equal(table.power_index, generic.power_index)

    @pytest.mark.parametrize("coefficients, hbar", [
        ([0.0, 0.0, 0.0, 1.0 / 3.0], 1.0),
        ([0.0, 1.0, 0.0, 0.2], 0.5),
        ([0.0, 0.0, 0.0, 0.0, 0.0, 0.2], 1.0),
        ([0.0, 0.0, 0.0, 1.0 / 3.0], 0.2),
        ([0.0, 0.0, 0.0, 1.0 / 3.0], 0.05),
        ([0.0, 1.0, 0.0, 0.2], 0.2),
        ([0.0, 0.0, 0.0, 0.0, 0.0, 0.2], 0.05),
    ])
    def test_matches_the_weighted_generic_table(self, condition8, table8, coefficients, hbar):
        # the exact weights hbar^order of a float hbar round once per
        # coefficient, the float ones once per weight and again in the fold
        sp = PolynomialSuperpotential(coefficients, hbar)
        for E in (0.5, 2.0, 6.0):
            got = contour_integrate(condition8.action_table(sp), sp, E).rows
            expect = contour_integrate(_weighted_generic(condition8, table8, sp), sp, E).rows
            for a, b in zip(got, expect):
                assert abs(a - b) <= 1e-12 * abs(b)

    def test_built_once_per_degree_and_hbar(self, cubic):
        # one table per build, degree and hbar, with a block of three rows
        # per order in ascending order, whichever condition asks first
        conds = build_conditions([4, 2])
        table = conds[4].action_table(cubic)
        assert conds[2].tables is conds[4].tables and conds[2].action_table(cubic) is table
        assert (conds[2].rows, conds[4].rows) == (slice(0, 3), slice(3, 6))
        assert len(table.coeffs) == 6
        assert conds[2].action_table(PolynomialSuperpotential([0.0, 1.0, 0.0, 0.2])) is table
        assert conds[4].action_table(PolynomialSuperpotential(cubic.coefficients, 0.5)) is not table
        assert conds[2].action_table(PolynomialSuperpotential([0.0, 1.0])) is not table
        assert len(conds[4].tables.compiled) == 3
        assert build_conditions([4])[4].action_table(cubic) is not table

    def test_quantize_compiles_the_action_table_once(self, capsys, tmp_path, monkeypatch):
        # the (A, A') table in the first action call, and no compile before
        # it or in the 30-odd calls after it
        path = tmp_path / "sp.json"
        path.write_text('{"coefficients": [0.0, 0.0, 0.0, 0.3333333333333333]}')
        honest_action, honest_compile = swkb.spectrum.action, swkb.spectrum.compile_integrands
        actions, compiles = [], []
        monkeypatch.setattr(swkb.spectrum, "action",
                            lambda *a: actions.append(a[2]) or honest_action(*a))
        monkeypatch.setattr(swkb.spectrum, "compile_integrands",
                            lambda exprs: compiles.append(len(actions)) or honest_compile(exprs))
        argv = ["quantize", "--config", str(path), "--order", "8", "--levels", "30", "--json"]
        assert swkb.cli.main(argv) == 0
        assert len(json.loads(capsys.readouterr().out)["levels"]) == 31
        assert compiles == [1] and len(actions) > 30


class TestSlope:
    def test_order0_slope_row_is_dunham_half_period(self, conditions):
        lead = conditions[0].corrections[0].integrand
        assert lead == Expression.u_pow(1)
        assert lead.diff_E() == Expression.u_pow(-1).scale(Fraction(1, 2))

    def test_slope_rows_follow_action_rows(self, conditions, mixed_cubic):
        # the block of order k is the exact sum of sign * hbar^order *
        # integrand over the orders up to k, its E-derivative and its
        # second, for k = 0, 2, 4; hbar = 0.2 is not a dyadic float
        cond = conditions[4]
        sp = PolynomialSuperpotential(mixed_cubic.coefficients, 0.2)
        hbar = Fraction(sp.hbar)
        lhs, rows = Expression.zero(), []
        for c in cond.corrections:
            lhs = lhs + c.integrand.scale(c.sign_factor * hbar ** c.order)
            rows += [lhs, lhs.diff_E(), lhs.diff_E().diff_E()]
        table = swkb.quadrature.compile_integrands(rows)
        assert np.array_equal(cond.action_table(sp).coeffs, table.coeffs)

    @pytest.mark.parametrize("E", [2.0, 4.0, 7.0])
    def test_oscillator_rows_vanish_one_by_one(self, oscillator, condition8, table8, E):
        # SWKB is exact for phi = x: A = pi E at every order, so each
        # correction row and each slope row after the first must vanish on
        # its own, not only in the weighted sum that fixes a level
        rows = contour_integrate(table8, oscillator, E).rows
        k = len(condition8.corrections)
        assert abs(rows[0] - math.pi * E) < 1e-9 and abs(rows[k] - math.pi) < 1e-9
        for r in rows[1:k] + rows[k + 1:]:
            assert abs(r) < 1e-9

    def test_oscillator_slope_is_pi(self, oscillator, conditions):
        # A(E) = pi E at every order for phi = x, so A'' = 0
        for k in (0, 4):
            A, slope, bend = action(conditions[k], oscillator, 4.0)[k]
            assert abs(A - 4.0 * math.pi) < 1e-9 and abs(slope - math.pi) < 1e-9
            assert abs(bend) < 1e-9

    @pytest.mark.parametrize(
        "coefficients, hbar, order, energies",
        [
            ([0.0, 0.0, 0.0, 1.0 / 3.0], 1.0, 8, (1.0, 3.0, 7.5)),
            ([0.0, 1.0, 0.0, 0.2], 0.5, 4, (0.6, 2.0, 5.0)),
        ],
    )
    def test_slope_matches_central_difference(self, coefficients, hbar, order, energies):
        # A' against a central difference of A, and A'' against one of A'
        sp = PolynomialSuperpotential(coefficients, hbar)
        cond = build_conditions([order])[order]
        for E in energies:
            h = 1e-4 * E
            _, slope, bend = action(cond, sp, E)[order]
            (A_hi, slope_hi, _), (A_lo, slope_lo, _) = (action(cond, sp, E + h)[order],
                                                        action(cond, sp, E - h)[order])
            assert abs(slope - (A_hi - A_lo) / (2.0 * h)) < 1e-6 * abs(slope)
            assert abs(bend - (slope_hi - slope_lo) / (2.0 * h)) < 1e-6 * abs(bend)


def _rows_by_monomial(table):
    """Each row of ``table`` as {(phi part, sqrt(u) power, E power):
    coefficient} over its nonzero coefficients, so a row reads the same
    whatever other rows share its table."""
    rung = {}
    for k, first, height in zip(table.orders, np.cumsum((1,) + table.ladder).tolist(),
                                table.ladder):
        rung.update({first + a - 1: (k, a) for a in range(1, height + 1)})
    keys = [(tuple(rung[r] for r in table.parts[p] if r), int(table.powers[h]), int(e))
            for p, h, e in zip(table.part_index, table.power_index, table.e)]
    return [{key: c for key, c in zip(keys, row) if c} for row in table.coeffs]


class TestBuildConditions:
    def test_prefix_equals_independent_reduction(self, conditions, cubic, mixed_cubic):
        shared, alone = conditions[2], build_conditions([2])[2]
        assert shared.order == alone.order == 2
        assert shared.corrections == alone.corrections
        for sp in (cubic, PolynomialSuperpotential(mixed_cubic.coefficients, 0.5)):
            # each order's block of the shared table holds, coefficient for
            # coefficient, the three rows of that order's table built alone
            table = shared.action_table(sp)
            by_monomial = _rows_by_monomial(table)
            for k, cond in conditions.items():
                assert by_monomial[cond.rows] == _rows_by_monomial(
                    build_conditions([k])[k].action_table(sp))
            # the highest order holds every monomial, so its rows sit on the
            # same sums as in its table alone: every field of the two tables
            # that takes part in equality (``work`` holds scratch arrays)
            # agrees, its block's coefficients included
            top = build_conditions([4])[4].action_table(sp)
            for f in dataclasses.fields(top):
                if f.compare and f.name != "coeffs":
                    assert np.array_equal(getattr(table, f.name), getattr(top, f.name))
            assert np.array_equal(table.coeffs[conditions[4].rows], top.coeffs)


class TestSolveLevel:
    def test_oscillator_exact(self, oscillator, conditions):
        for n in range(6):
            E = solve_level(conditions[0], oscillator, n)
            assert abs(E - 2.0 * n) < 1e-8

    def test_ground_state_analytic_root(self, oscillator, cubic, mixed_cubic, conditions):
        for sp in (oscillator, cubic, mixed_cubic):
            assert solve_level(conditions[0], sp, 0) == 0.0

    def test_oscillator_corrections_do_not_move_levels(self, oscillator, conditions):
        for n in (1, 3, 5):
            e0 = solve_level(conditions[0], oscillator, n)
            e2 = solve_level(conditions[2], oscillator, n)
            e4 = solve_level(conditions[4], oscillator, n)
            assert abs(e2 - e0) < 1e-8 and abs(e4 - e2) < 1e-8

    def test_cubic_order2_beats_order0(self, cubic, conditions):
        oracle = oracle_eigenvalues(cubic.v_minus, 3, 1.0)
        e0 = solve_level(conditions[0], cubic, 1)
        e2 = solve_level(conditions[2], cubic, 1)
        assert abs(e2 - oracle[1]) < abs(e0 - oracle[1])

    def test_problem_validation(self, cubic, conditions):
        with pytest.raises(ValueError):
            build_conditions([3])
        with pytest.raises(ValueError):
            build_conditions([-2])
        with pytest.raises(ValueError):
            solve_level(conditions[2], cubic, -1)


# order-8 roots of the cubic with hbar = 1 found by the bracket scan and
# brentq that preceded the Newton solver
CUBIC8_ROOTS = {3: 6.7433734370973415, 20: 116.94855796860404}


class TestNewton:
    @pytest.mark.parametrize(
        "coefficients, hbar, n, root",
        [
            ([0.0, 1.0, 0.0, 0.0, 0.0, 0.2], 0.7, 1, 1.6771828461264175),
            ([0.0, 1.0, 0.0, 0.0, 0.0, 0.2], 0.7, 7, 23.679238469733516),
            ([0.0, 1.0, 0.0, 0.0, 0.0, 0.2], 0.7, 30, 235.33088084836385),
            ([0.0, 0.0, 0.0, 1.0 / 3.0], 0.3, 2, 0.5976854464919498),
            ([0.0, 0.0, 0.0, 1.0 / 3.0], 0.3, 30, 35.30654503672196),
        ],
    )
    def test_order8_envelope(self, condition8, coefficients, hbar, n, root):
        # the first evaluation is at E = hbar, where the slope rows need a
        # relative tolerance to settle
        sp = PolynomialSuperpotential(coefficients, hbar)
        assert abs(solve_level(condition8, sp, n) - root) < 1e-9

    @pytest.mark.parametrize("hbar", [0.05, 0.1])
    def test_small_hbar_scaling(self, condition8, hbar):
        # for phi = x^3/3, x = hbar^(1/2) y gives E_n(hbar) = hbar^(3/2) E_n(1)
        # at every order
        one = PolynomialSuperpotential([0.0, 0.0, 0.0, 1.0 / 3.0], 1.0)
        small = PolynomialSuperpotential([0.0, 0.0, 0.0, 1.0 / 3.0], hbar)
        for n in (3, 10, 20):
            expect = hbar ** 1.5 * solve_level(condition8, one, n)
            assert abs(solve_level(condition8, small, n) - expect) < 1e-9 * expect

    @pytest.mark.parametrize("bad_slope", [-1.0, 0.0])
    def test_bisection_when_the_slope_is_unusable(self, cubic, condition8, monkeypatch, bad_slope):
        honest = swkb.spectrum.action
        calls = []

        def no_slope(cond, sp, E):
            calls.append(E)
            A, _, bend = honest(cond, sp, E)[cond.order]
            return {cond.order: (A, bad_slope, bend)}

        monkeypatch.setattr(swkb.spectrum, "action", no_slope)
        for n, root in CUBIC8_ROOTS.items():
            calls.clear()
            assert abs(solve_level(condition8, cubic, n) - root) < 1e-9
            assert len(calls) > 20  # doubling then bisection, no Newton steps

    def test_start_does_not_change_the_root(self, cubic, condition8):
        warm = []
        for n in range(31):
            warm.append(solve_level(condition8, cubic, n, start=warm[-1] if warm else None))
        for n, root in CUBIC8_ROOTS.items():
            assert abs(warm[n] - root) < 1e-9
        # below about E = 0.2 the order-8 rows of this cubic are too large
        # for the absolute quadrature tolerance, so "far below" is 0.5
        for n, root in enumerate(warm):
            for start in (None, 100.0 * root, 0.5):
                assert abs(solve_level(condition8, cubic, n, start=start) - root) < 1e-9

    def test_next_level_starts_from_the_carried_evaluation(self, cubic, condition8, monkeypatch):
        below = solve_level(condition8, cubic, 4)
        honest = swkb.spectrum.action
        calls = []

        def counted(cond, sp, E):
            calls.append(E)
            return honest(cond, sp, E)

        monkeypatch.setattr(swkb.spectrum, "action", counted)
        root = solve_level(condition8, cubic, 5, start=below)
        # the first evaluation is one third-order step in t = ln E off the
        # carried pair of (E, action by order), read at order 8: with
        # x = ln A, s = dt/dx = 1 / g, g = E A' / A, and the exact
        # c = ds/dx = -(g + E^2 A'' / A - g^2) s^3,
        # t += s dx + c dx^2 / 2 + c2 dx^3 / 6, c2 the difference quotient of c
        def chart(E, values):
            A, slope, bend = values[8]
            g = E * slope / A
            s = 1.0 / g
            return math.log(A), s, -(g + E * E * bend / A - g * g) * s ** 3

        older, newer = below.probes
        (x1, _, c1), (x, s, c) = chart(*older), chart(*newer)
        E, A = newer[0], newer[1][8][0]
        dx = math.log(10.0 * math.pi / A)
        step = s * dx + 0.5 * c * dx * dx + (c - c1) / (x - x1) * dx ** 3 / 6.0
        assert calls[0] == E * math.exp(step)
        assert below not in calls and older[0] not in calls and newer[0] not in calls
        assert abs(root - solve_level(condition8, cubic, 5)) < 1e-9

    def test_a_carried_probe_alone_never_ends_a_solve(self, cubic, condition8, monkeypatch):
        # a carried pair 1e-7 above the root: the first step is already far
        # inside the quadratic stop, yet the solve evaluates once before it returns
        root = solve_level(condition8, cubic, 5)
        pair = tuple((E, action(condition8, cubic, E)) for E in (0.999 * root, (1 + 1e-7) * root))
        start = swkb.spectrum.Level(pair[1][0], (condition8, cubic), pair)
        honest = swkb.spectrum.action
        calls = []

        def counted(cond, sp, E):
            calls.append(E)
            return honest(cond, sp, E)

        monkeypatch.setattr(swkb.spectrum, "action", counted)
        assert abs(solve_level(condition8, cubic, 5, start=start) - root) < 1e-9
        assert len(calls) == 1

    @pytest.mark.parametrize("other", ["condition", "superpotential", "coefficients"])
    def test_a_start_from_another_problem_is_a_plain_energy(self, cubic, conditions, condition8,
                                                           monkeypatch, other):
        if other == "condition":
            start = solve_level(conditions[4], cubic, 4)
        elif other == "superpotential":
            start = solve_level(condition8, PolynomialSuperpotential(cubic.coefficients, 1.1), 4)
        else:
            # same degree and hbar: the action table is shared, the problem is not
            start = solve_level(condition8, PolynomialSuperpotential([0.0, 0.0, 0.0, 0.3]), 4)
        honest = swkb.spectrum.action
        calls = []

        def counted(cond, sp, E):
            calls.append(E)
            return honest(cond, sp, E)

        monkeypatch.setattr(swkb.spectrum, "action", counted)
        root = solve_level(condition8, cubic, 5, start=start)
        assert calls[0] == start
        # one evaluation gives no curvature, so it cannot end the solve
        assert len(calls) >= 2
        assert abs(root - solve_level(condition8, cubic, 5)) < 1e-9

    def test_failures_name_level_partner_energy_and_bracket(self, cubic, condition8, monkeypatch):
        honest = swkb.spectrum.action
        monkeypatch.setattr(swkb.spectrum, "action", lambda cond, sp, E: {8: (0.0, 0.0, 0.0)})
        with pytest.raises(ConvergenceError, match=r"level 4 \(minus, order 8\): no root within 200 "
                                                   r"steps; last E = .*, bracket \["):
            solve_level(condition8, cubic, 4)
        monkeypatch.setattr(swkb.spectrum, "action", lambda cond, sp, E: {8: (1e9, 1.0, 0.0)})
        with pytest.raises(ConvergenceError, match=r"level 2 \(minus, order 8\): no lower bracket "
                                                   r"above the validated range; last E = .*, "
                                                   r"bracket \[0.0, "):
            solve_level(condition8, cubic, 2)
        # a quadrature failure keeps its own message inside the level's; on
        # phi = x^3 - x an excluded root pinches the contour at E = 0.5.
        # Order 8 holds rows 3 to 5 of a table shared with order 0, and the
        # row the message names counts within that block
        monkeypatch.setattr(swkb.spectrum, "action", honest)
        monkeypatch.setattr(swkb.quadrature, "MAX_SAMPLES", 4096)
        pinched = PolynomialSuperpotential([0.0, -1.0, 0.0, 1.0], 1.0, "x^3 - x")
        shared = build_conditions([0, 8])[8]
        assert shared.rows == slice(3, 6)
        with pytest.raises(ConvergenceError, match=r"level 1 \(minus, order 8\): contour integral "
                                                   r"at E = 0.5 did not converge within 4096 "
                                                   r"samples: row [012] still moved by .*; "
                                                   r"last E = 0.5, bracket"):
            solve_level(shared, pinched, 1, start=0.5)

    def test_compare_starts_each_level_from_the_one_below(self, cubic, monkeypatch):
        # level by level, the higher order first: each order starts from its
        # own root of the level below, and the lower order also gets the
        # higher order's root of its level as its peer
        honest = swkb.spectrum.solve_level
        calls = []

        def spy(cond, sp, n, start=None, peer=None):
            calls.append((n, cond.order, start, peer))
            return honest(cond, sp, n, start, peer)

        monkeypatch.setattr(swkb.spectrum, "solve_level", spy)
        rep = compare_report(cubic, [0, 2], 2)
        roots = {k: [r.e_by_order[k] for r in rep.levels] for k in (0, 2)}
        assert calls == [(n, k, roots[k][n - 1] if n else None, roots[2][n] if k == 0 else None)
                         for n in range(3) for k in (2, 0)]


def _bisected_root(cond, sp, target, guess):
    """The root of A(E) = target by plain bisection on A down to a bracket
    of 1e-13, from ``guess`` widened by factors of 2 until A changes sign."""
    lo, hi = guess * (1.0 - 1e-6), guess * (1.0 + 1e-6)
    while action(cond, sp, lo)[cond.order][0] >= target:
        lo *= 0.5
    while action(cond, sp, hi)[cond.order][0] < target:
        hi *= 2.0
    while hi - lo > 1e-13 and lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if action(cond, sp, mid)[cond.order][0] < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(st.tuples(
    st.sampled_from([1, 3, 5]),
    st.sampled_from([-1.0, 0.0, 0.5]),
    st.sampled_from([0.0, 0.5, 1.0]),
    st.sampled_from([0.0, 0.2, 1.0]),
    st.sampled_from([0.2, 1.0 / 3.0, 1.0]),
    st.sampled_from([1.0, 0.5, 0.2]),
    st.sampled_from([0, 2, 4]),
))
def test_solved_roots_match_a_bisection_on_the_action(conditions, case):
    # an odd-degree phi with a positive lead and no negative odd
    # coefficient is monotone, so V_- has one well; a shifted phi also gets
    # phi' > 0, since phi = -1 + x^3/5 puts a triple root of phi^2 = E on the
    # left turning point at E = 1, where A(E) is singular and the truncated
    # condition has two roots.  Levels 1..8 are solved as compare solves
    # them, each started from the one below, so the carried third-order
    # step and the third-order stop both take part
    degree, shift, linear, cubic, lead, hbar, order = case
    if not linear:
        shift = 0.0
    coefficients = {1: [shift, lead], 3: [shift, linear, 0.0, lead],
                    5: [shift, linear, 0.0, cubic, 0.0, lead]}[degree]
    sp = PolynomialSuperpotential(coefficients, hbar)
    cond = conditions[order]
    below = None
    for n in range(1, 9):
        below = solve_level(cond, sp, n, start=below)
        reference = _bisected_root(cond, sp, 2.0 * n * math.pi * hbar, below)
        assert abs(below - reference) <= swkb.spectrum.DEFAULT_TOL_E, (n, below, reference)
    # compare takes a lower order's root off the next higher order's
    # evaluations, integrating nothing, where they settle the level; each
    # root so taken is held to a bisection on its own action as well
    if order == 0:
        return
    honest_action, honest_solve = swkb.spectrum.action, swkb.spectrum.solve_level
    evaluated, taken = [], []

    def spy(cond, sp, n, start=None, peer=None):
        before = len(evaluated)
        root = honest_solve(cond, sp, n, start, peer)
        if peer is not None and root and len(evaluated) == before:
            taken.append((cond.order, n, root))
        return root

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(swkb.spectrum, "action", lambda *a: evaluated.append(a[2]) or honest_action(*a))
        mp.setattr(swkb.spectrum, "solve_level", spy)
        compare_report(sp, [order - 2, order], 8)
    for k, n, root in taken:
        reference = _bisected_root(conditions[k], sp, 2.0 * n * math.pi * hbar, root)
        assert abs(root - reference) <= swkb.spectrum.DEFAULT_TOL_E, (k, n, root, reference)


class TestSharedOrders:
    def test_a_broken_higher_order_does_not_seed_a_lower_one(self):
        # on phi = 0.5 x + 0.2 x^3 + 2 x^5 at hbar = 1 the order-8 condition
        # is broken: it has a root near E = 0.2123 at every level, next to
        # a second root of the order-4 condition at 0.19105.  Order 4's
        # level 1 solved on from order 8's root lands on that one; the stop
        # rule refuses the step from order 8's evaluations, so order 4 is
        # solved from its own level below
        sp = PolynomialSuperpotential([0.0, 0.5, 0.0, 0.2, 0.0, 2.0], 1.0)
        shared = compare_report(sp, [4, 8], 2)
        alone = compare_report(sp, [4], 2)
        assert [abs(r.e_by_order[8] - 0.2123) < 1e-4 for r in shared.levels] == [False, True, True]
        for a, b in zip(shared.levels, alone.levels):
            assert abs(a.e_by_order[4] - b.e_by_order[4]) <= swkb.spectrum.DEFAULT_TOL_E
        assert abs(shared.levels[1].e_by_order[4] - 2.86007) < 1e-5

    def test_only_the_asking_order_gates_its_integrals(self):
        # phi = -1 + x^3/5 at hbar = 0.2: near E = 1 a double root of
        # phi^2 = E meets the left turning point, and there the order-4
        # rows settle far later than the order-0 rows.  Gated by every row
        # of the shared table, order 0's solve fails at E ~ 1.006 (row 7,
        # order 4's A', still moving at the sample cap); gated by its own
        # block, orders 0 and 2 solve within 1e-11 of a build of that order
        # alone.  Order 4's level 2 sits where its A'' row settles only at
        # the sample cap, if at all, so whether it solves rests on roundoff:
        # its shared build must only end as its own build does
        sp = PolynomialSuperpotential([-1.0, 0.0, 0.0, 0.2], 0.2)
        conds = build_conditions([0, 2, 4])
        shared = solve_levels({0: conds[0], 2: conds[2]}, sp, 8)
        for k in (0, 2):
            alone = solve_levels(build_conditions([k]), sp, 8)[k]
            for n, (a, b) in enumerate(zip(shared[k], alone)):
                assert abs(a - b) <= 1e-11, (k, n)

        def outcome(cond):
            try:
                return solve_levels({4: cond}, sp, 8)[4]
            except ConvergenceError as exc:
                return str(exc)

        assert outcome(conds[4]) == outcome(build_conditions([4])[4])

    def test_action_holds_the_orders_that_settled(self):
        # phi = -1 + x^3/5 at hbar = 0.2 on a [0, 2, 4] build: at E = 1.006
        # order 4's rows do not settle on the contour that settles order 0,
        # so its triple is left out; at E = 1.5 every order settles.  Each
        # order present is its own action's triple within its settling
        # tolerance
        sp = PolynomialSuperpotential([-1.0, 0.0, 0.0, 0.2], 0.2)
        conds = build_conditions([0, 2, 4])
        for E, orders in ((1.006, [0, 2]), (1.5, [0, 2, 4])):
            values = action(conds[0], sp, E)
            assert sorted(values) == orders
            for k in orders:
                for got, own in zip(values[k], action(conds[k], sp, E)[k]):
                    tol = max(swkb.quadrature.TOL, swkb.quadrature.REL_TOL * abs(own))
                    assert abs(got - own) < tol, (E, k)


class TestDegeneracy:
    def test_oscillator_partner_levels(self, oscillator, conditions, capsys, tmp_path):
        # V_- levels are 2n; V_+ levels are 2m + 2: exact pairing
        for n in (1, 2, 3):
            assert abs(solve_level(conditions[0], oscillator, n) - 2.0 * n) < 1e-8
        path = tmp_path / "oscillator.json"
        path.write_text(json.dumps(oscillator.to_json_dict()))
        assert swkb.cli.main(["quantize", "--config", str(path), "--order", "0", "--levels", "2",
                              "--partner", "plus", "--json"]) == 0
        plus = json.loads(capsys.readouterr().out)["levels"]
        for m in range(3):
            assert abs(plus[str(m)] - 2.0 * (m + 1)) < 1e-8

    def test_cubic_gaps_small_at_all_orders(self, cubic, conditions):
        # the report reads each plus root off the minus root it pairs with,
        # so the gap is 0 by construction; a solve of its own, from no start
        # and no peer, checks it
        rep = compare_report(cubic, [0, 2, 4], 3)
        assert len(rep.degeneracy) == 9
        for rec in rep.degeneracy:
            assert rec.gap == 0.0
            plus = solve_level(conditions[rec.order], cubic, rec.n)
            assert abs(rec.e_plus_below - plus) < 1e-9

    def test_report_checks_plus_real_parts(self, cubic, monkeypatch):
        monkeypatch.setattr(swkb.spectrum, "generate_series", broken_plus_series)
        with pytest.raises(StructuralTheoremViolation, match="p_2"):
            compare_report(cubic, [0, 2], 1)

    def test_report_serialization(self, cubic):
        rep = compare_report(cubic, [0], 1)
        data = rep.to_json_dict()
        assert data["degeneracy"][0]["n"] == 1
        assert "gap" in data["degeneracy"][0]
        assert rep.to_text()


class TestOrderConsistency:
    def test_corrections_shrink_with_hbar(self, conditions):
        # measured slopes (mixed cubic, n = 2): the order-2 gap falls ~4x per
        # hbar halving; the order-4 gap falls faster still (5.3x, 7.7x).
        gaps2, gaps4 = [], []
        for hb in (1.0, 0.5, 0.25):
            sp = PolynomialSuperpotential([0.0, 1.0, 0.0, 0.2], hb, "mixed")
            e0 = solve_level(conditions[0], sp, 2)
            e2 = solve_level(conditions[2], sp, 2)
            e4 = solve_level(conditions[4], sp, 2)
            gaps2.append(abs(e2 - e0))
            gaps4.append(abs(e4 - e2))
        for a, b in zip(gaps2, gaps2[1:]):
            assert a / b > 3.0
        for (a2, b2), (a4, b4) in zip(
            zip(gaps2, gaps2[1:]), zip(gaps4, gaps4[1:])
        ):
            assert a4 / b4 > a2 / b2


class TestCompareReport:
    def test_levels_and_errors(self, cubic):
        oracle = oracle_eigenvalues(cubic.v_minus, 4, 1.0)
        rep = compare_report(cubic, [0, 2], 2, oracle)
        assert len(rep.levels) == 3
        errs = rep.levels[2].abs_errors()
        assert errs[2] <= errs[0]
        text = rep.to_text()
        assert "E(oracle)" in text
