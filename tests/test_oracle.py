import numpy as np
import pytest

import swkb.oracle
from swkb.errors import DomainTooSmallError
from swkb.oracle import (DECAY_LIMIT, PROBE_POINTS, GridSpec, default_grid, eigenvalues,
                         oracle_eigenvalues)
from swkb.quadrature import PolynomialSuperpotential


def test_harmonic_levels():
    vals = oracle_eigenvalues(lambda x: x * x, 6, 1.0)
    for n, v in enumerate(vals):
        assert abs(v - (2 * n + 1)) < 1e-6


def test_cubic_ground_state_is_zero(cubic):
    vals = oracle_eigenvalues(cubic.v_minus, 3, 1.0)
    assert abs(vals[0]) < 1e-6


def test_partner_degeneracy(cubic):
    v_m = oracle_eigenvalues(cubic.v_minus, 5, 1.0)
    v_p = oracle_eigenvalues(cubic.v_plus, 4, 1.0)
    for n in range(1, 5):
        assert abs(v_m[n] - v_p[n - 1]) < 1e-6


def test_second_order_convergence():
    # error shrinks ~4x per grid doubling before Richardson
    grid_a = GridSpec(6.0, 512)
    grid_b = GridSpec(6.0, 1024)
    ea = eigenvalues(lambda x: x * x, grid_a, 1, richardson=False, check_decay=False)[0]
    eb = eigenvalues(lambda x: x * x, grid_b, 1, richardson=False, check_decay=False)[0]
    ratio = abs(ea - 1.0) / abs(eb - 1.0)
    assert 3.3 < ratio < 4.7


def test_richardson_improves():
    grid = GridSpec(6.0, 512)
    plain = eigenvalues(lambda x: x * x, grid, 1, richardson=False, check_decay=False)[0]
    rich = eigenvalues(lambda x: x * x, grid, 1, richardson=True, check_decay=False)[0]
    assert abs(rich - 1.0) < 0.05 * abs(plain - 1.0)


def test_domain_too_small_raises():
    grid = GridSpec(2.0, 256)
    with pytest.raises(DomainTooSmallError):
        eigenvalues(lambda x: x * x, grid, 4, check_decay=True)


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(5.0, 32)
    with pytest.raises(ValueError):
        GridSpec(-1.0, 256)


def test_count_bounded_by_grid():
    with pytest.raises(ValueError):
        eigenvalues(lambda x: x * x, GridSpec(5.0, 128), 64)


def test_default_grid_clears_top_state():
    grid = default_grid(lambda x: x * x, 6, 1.0)
    wall = grid.half_width ** 2
    assert wall >= 11.0 + 20.0


def test_coarse_richardson_solve_asks_for_no_vectors(monkeypatch):
    # the N-point solve only feeds the extrapolation; the decay check reads
    # the vectors of the 2N+1-point solve
    calls = []
    real = swkb.oracle.eigh_tridiagonal

    def spy(d, e, **kw):
        calls.append((len(d), kw.get("eigvals_only", False)))
        return real(d, e, **kw)

    monkeypatch.setattr(swkb.oracle, "eigh_tridiagonal", spy)
    vals = eigenvalues(lambda x: x * x, GridSpec(6.0, 256), 3)
    assert calls == [(256, True), (513, False)]
    assert np.all(np.abs(vals - np.array([1.0, 3.0, 5.0])) < 1e-3)
    # without the decay check nothing reads the 2N+1-point vectors either
    calls.clear()
    eigenvalues(lambda x: x * x, GridSpec(6.0, 256), 3, check_decay=False)
    assert calls == [(256, True), (513, True)]
    # eigenvalues alone are bit-identical to those solved with vectors
    V = lambda x: x * x + 0.3 * x ** 3
    alone = swkb.oracle._solve_grid(V, 5.0, 1024, 4, 0.5, vectors=False)
    assert np.array_equal(alone, swkb.oracle._solve_grid(V, 5.0, 1024, 4, 0.5)[0])


def _potential(coefficients, hbar, partner="minus"):
    return PolynomialSuperpotential(coefficients, hbar).potential(partner)


@pytest.fixture()
def solver_calls(monkeypatch):
    """(matrix size, values only) of every index solve, and the matrix size
    of every stebz call made directly by the certified path."""
    calls = {"index": [], "stebz": []}
    real_index, real_stebz = swkb.oracle.eigh_tridiagonal, swkb.oracle.dstebz

    def index(d, e, **kw):
        calls["index"].append((len(d), kw.get("eigvals_only", False)))
        return real_index(d, e, **kw)

    def stebz(d, e, *args):
        calls["stebz"].append(len(d))
        return real_stebz(d, e, *args)

    monkeypatch.setattr(swkb.oracle, "eigh_tridiagonal", index)
    monkeypatch.setattr(swkb.oracle, "dstebz", stebz)
    return calls


@pytest.mark.parametrize("V, hbar, count", [
    (lambda x: x * x, 1.0, 8),
    (_potential([0, 0, 0, 1 / 3], 1.0), 1.0, 12),
    (_potential([0, 0, 0, 1 / 3], 1.0, "plus"), 1.0, 12),
    (_potential([0, 1, 0, 0.2], 0.5), 0.5, 12),
    (_potential([0, 0, 0, 0, 0, 0.2], 0.2), 0.2, 12),
    (_potential([0, -1, 0, 1], 0.2), 0.2, 12),
], ids=["harmonic", "x3/3-minus", "x3/3-plus", "x+x3/5", "x5/5", "x3-x"])
def test_certified_windows_agree_with_the_index_solve(solver_calls, V, hbar, count):
    grid = default_grid(V, count, hbar)
    assert len(grid.probe) == count
    windowed = oracle_eigenvalues(V, count, hbar)
    assert (2 * grid.points + 1, True) not in solver_calls["index"]   # certified, no fallback
    # a caller's grid at the same half width takes the index solve
    indexed = eigenvalues(V, GridSpec(grid.half_width), count, hbar)
    assert np.max(np.abs(windowed - indexed)) < 1e-9


def _probe_predicting(grid, w_n, targets):
    """Probe values that make the Richardson predictions equal ``targets``."""
    h0, h1, h2 = ((2.0 * grid.half_width / (m + 1)) ** 2
                  for m in (PROBE_POINTS, grid.points, 2 * grid.points + 1))
    return tuple(w_n - (targets - w_n) * (h1 - h0) / (h2 - h1))


@pytest.mark.parametrize("case", ["half-gap shift", "overlapping windows", "skipped level"])
def test_failed_certificate_falls_back_to_the_index_solve(solver_calls, case):
    V, count = (lambda x: x * x), 5
    grid = default_grid(V, count)
    w_n = swkb.oracle._solve_grid(V, grid.half_width, grid.points, count, 1.0, vectors=False)
    w_fine = swkb.oracle._solve_grid(V, grid.half_width, 2 * grid.points + 1, count, 1.0,
                                     vectors=False)
    # control: predictions at the fine-grid levels themselves are certified
    exact = GridSpec(grid.half_width, probe=_probe_predicting(grid, w_n, w_fine))
    assert swkb.oracle._windowed_solve(V, exact, w_n, 1.0) is not None
    targets = w_fine.copy()
    if case == "half-gap shift":     # window 2 falls between levels 2 and 3
        targets[2] += 0.5 * (w_fine[3] - w_fine[2])
    elif case == "overlapping windows":
        targets[3] = targets[2]
    else:                            # windows 1.. each hold the level above (gaps are 2)
        targets[1:] += 2.0
    forced = GridSpec(grid.half_width, probe=_probe_predicting(grid, w_n, targets))
    solver_calls["index"].clear()
    assert swkb.oracle._windowed_solve(V, forced, w_n, 1.0) is None
    vals = eigenvalues(V, forced, count)
    n2 = 2 * grid.points + 1
    assert solver_calls["index"] == [(grid.points, True), (n2, True)]
    assert np.array_equal(vals, eigenvalues(V, GridSpec(grid.half_width), count))


def test_default_grid_solves_no_fine_grid_vectors(solver_calls):
    V, count = _potential([0, 1, 0, 0.2], 0.5), 12
    vals = oracle_eigenvalues(V, count, 0.5)
    n = swkb.oracle.DEFAULT_POINTS
    march = [c for c in solver_calls["index"] if c[0] == PROBE_POINTS]
    assert march and all(c == (PROBE_POINTS, False) for c in march)
    assert solver_calls["index"] == march + [(n, True)]
    # one Sturm count, then one bisection per window, all on 2N+1 points
    assert solver_calls["stebz"] == [2 * n + 1] * (count + 1)
    assert np.all(np.diff(vals) > 0)


def test_huge_abstol_stebz_is_an_exact_sturm_count():
    diag, off = swkb.oracle._tridiagonal(_potential([0, 0, 0, 1 / 3], 1.0), 4.0, 300, 1.0)
    w = swkb.oracle.eigh_tridiagonal(diag, off, eigvals_only=True)
    sigmas = [w[0] - 1.0, w[0] - 1e-6, 0.5 * (w[0] + w[1]), 0.5 * (w[9] + w[10]), w[-1] + 1.0]
    for sigma in sigmas:
        assert swkb.oracle._count_at_most(diag, off, sigma) == np.searchsorted(w, sigma, "right")


@pytest.mark.parametrize("V, hbar, count", [
    (_potential([0, 0, 0, 1 / 3], 1.0), 1.0, 31),
    (_potential([0, 1, 0, 0.2], 0.5), 0.5, 12),
    (_potential([0, 0, 0, 0, 0, 0, 0, 1 / 7], 0.2, "plus"), 0.2, 22),
], ids=["quantize8-cubic", "compare-mixed", "x7/7-plus-hbar0.2"])
def test_fine_grid_decays_wherever_the_probe_certified_it(V, hbar, count):
    # the certified path drops the 2N+1-point decay check; on these cells the
    # fine-grid edges stay 100 times below the limit that check enforced
    grid = default_grid(V, count, hbar)
    _, v = swkb.oracle._solve_grid(V, grid.half_width, 2 * grid.points + 1, count, hbar)
    edge = np.maximum(np.abs(v[0]), np.abs(v[-1])) / np.max(np.abs(v), axis=0)
    assert np.max(edge) < 0.01 * DECAY_LIMIT
