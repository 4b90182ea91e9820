import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

import swkb.quadrature
import swkb.spectrum
from swkb.errors import OutOfValidatedRangeError, StructuralTheoremViolation
from swkb.oracle import oracle_eigenvalues
from swkb.quadrature import PolynomialSuperpotential, contour_integrate
from swkb.reduction import quantization_integrands
from swkb.spectrum import action, build_conditions, compare_report, solve_level

from conftest import broken_plus_series


class TestAction:
    def test_oscillator_is_pi_e(self, oscillator, conditions):
        assert abs(action(conditions[0], oscillator, 4.0) - 4.0 * math.pi) < 1e-9

    def test_oscillator_corrections_vanish(self, oscillator, conditions):
        assert abs(action(conditions[4], oscillator, 4.0) - 4.0 * math.pi) < 1e-9

    def test_cubic_leading_matches_real_axis(self, cubic, conditions):
        a = 9.0 ** (1.0 / 6.0)
        expect, _ = quad(lambda x: math.sqrt(max(1.0 - x**6 / 9.0, 0.0)), -a, a, limit=200)
        assert abs(action(conditions[0], cubic, 1.0) - 2.0 * expect) < 1e-9

    def test_monotone_increasing_at_leading_order(self, cubic, oscillator, conditions):
        for sp in (cubic, oscillator):
            vals = [action(conditions[0], sp, E) for E in np.linspace(0.25, 6.0, 24)]
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
                                                        series10, split10, lseq9):
        sp = PolynomialSuperpotential(coefficients, hbar)
        qc = quantization_integrands(order, series10, split10, lseq9)
        cond = build_conditions([order])[order]
        for E in energies:
            expect = sum(c.sign_factor * hbar ** c.order * contour_integrate(c.integrand, sp, E).value.real
                         for c in qc.corrections)
            assert abs(action(cond, sp, E) - expect) < 1e-12

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


class TestBuildConditions:
    def test_prefix_equals_independent_reduction(self, conditions):
        shared, alone = conditions[2], build_conditions([2])[2]
        assert shared.order == alone.order == 2
        assert shared.corrections == alone.corrections
        for f in dataclasses.fields(alone.table):
            assert np.array_equal(getattr(shared.table, f.name), getattr(alone.table, f.name))


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
        with pytest.raises(ValueError):
            solve_level(conditions[2], cubic, 1, "up")


class TestDegeneracy:
    def test_oscillator_partner_levels(self, oscillator, conditions):
        # V_- levels are 2n; V_+ levels are 2m + 2: exact pairing
        for n in (1, 2, 3):
            assert abs(solve_level(conditions[0], oscillator, n, "minus") - 2.0 * n) < 1e-8
            assert abs(solve_level(conditions[0], oscillator, n - 1, "plus") - 2.0 * n) < 1e-8

    def test_cubic_gaps_small_at_all_orders(self, cubic):
        rep = compare_report(cubic, [0, 2, 4], 3)
        assert len(rep.degeneracy) == 9
        for rec in rep.degeneracy:
            assert rec.gap < 1e-8

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
