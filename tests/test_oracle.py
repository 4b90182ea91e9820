import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

import swkb.oracle
from swkb.errors import DomainTooSmallError, ResolutionError
from swkb.oracle import (DECAY_LIMIT, MAX_POINTS, MAX_STATES, POINTS_PER_STATE, REFINE,
                         GridSpec, default_grid, eigenvalues, oracle_eigenvalues)
from swkb.quadrature import PolynomialSuperpotential


def test_harmonic_levels():
    vals = oracle_eigenvalues(lambda x: x * x, 6, 1.0)
    for n, v in enumerate(vals):
        assert abs(v - (2 * n + 1)) < 1e-10


def test_cubic_ground_state_is_zero(cubic):
    vals = oracle_eigenvalues(cubic.v_minus, 3, 1.0)
    assert abs(vals[0]) < 1e-10


def test_partner_degeneracy(cubic):
    v_m = oracle_eigenvalues(cubic.v_minus, 5, 1.0)
    v_p = oracle_eigenvalues(cubic.v_plus, 4, 1.0)
    for n in range(1, 5):
        assert abs(v_m[n] - v_p[n - 1]) < 1e-10


def test_exponential_convergence():
    # a second-order method gains 4x when the points double; the sinc grid
    # gains far more than 100x between a coarse grid and the certified one
    V, count = (lambda x: x * x), 6
    exact = 2.0 * np.arange(count) + 1.0
    grid, _ = default_grid(V, count)
    coarse = GridSpec(grid.half_width, 2 * (grid.points // 4) + 1)
    assert coarse.points <= (grid.points + 1) // 2
    err_coarse = np.max(np.abs(swkb.oracle._solve(V, coarse, count, 1.0)[0] - exact))
    err_certified = np.max(np.abs(eigenvalues(V, grid, count) - exact))
    assert err_certified < 1e-12
    assert err_certified * 100.0 < err_coarse


def test_under_resolved_grid_raises(monkeypatch):
    V, count = (lambda x: x * x), 5
    # 31 points are 8e-9 off and 47 points 1e-14: the levels settle at 71
    assert np.max(np.abs(eigenvalues(V, GridSpec(8.0, 31), count) - (2 * np.arange(5) + 1))) < 1e-12
    monkeypatch.setattr(swkb.oracle, "MAX_POINTS", 61)
    with pytest.raises(ResolutionError, match="more than 61 grid points"):
        eigenvalues(V, GridSpec(8.0, 31), count)
    # default_grid gives up the same way when its spacing rule needs too many points
    steep = PolynomialSuperpotential([0, 0, 0, 0, 0, 0, 0, 1 / 7], 1.0).v_minus
    with pytest.raises(ResolutionError):
        default_grid(steep, 10, 1.0)


def test_resolution_check_solves_once_more_and_returns_the_finer_values(monkeypatch):
    V, count = PolynomialSuperpotential([0, 1, 0, 0.2], 0.5).v_minus, 12
    grid, _ = default_grid(V, count, 0.5)
    calls, real = [], swkb.oracle._solve

    def spy(V, grid, count, hbar, vectors=False):
        calls.append((grid.points, vectors))
        return real(V, grid, count, hbar, vectors)

    monkeypatch.setattr(swkb.oracle, "_solve", spy)
    vals = eigenvalues(V, grid, count, 0.5)
    fine = 2 * math.ceil(REFINE * (grid.points // 2)) + 1
    assert calls == [(grid.points, True), (fine, False)]
    assert np.array_equal(vals, real(V, GridSpec(grid.half_width, fine), count, 0.5)[0])


def test_domain_too_small_raises():
    grid = GridSpec(2.0, 65)
    with pytest.raises(DomainTooSmallError):
        eigenvalues(lambda x: x * x, grid, 4)
    # a potential that never clears its levels exhausts the march
    with pytest.raises(DomainTooSmallError, match="no adequate half width"):
        default_grid(lambda x: 0.0 * x, 1)


def test_grid_validation():
    for points in (32, 3, MAX_POINTS + 2):
        with pytest.raises(ValueError):
            GridSpec(5.0, points)
    with pytest.raises(ValueError):
        GridSpec(-1.0, 257)
    assert GridSpec(5.0, 5).points == 5 and GridSpec(5.0, MAX_POINTS).points == MAX_POINTS


def test_count_bounded_by_grid():
    with pytest.raises(ValueError):
        eigenvalues(lambda x: x * x, GridSpec(5.0, 129), 129 // POINTS_PER_STATE + 1)
    # default_grid's POINTS_PER_STATE points per state survive one refinement
    # under MAX_POINTS for MAX_STATES states, and not for one more
    def refined(count):
        return 2 * math.ceil(REFINE * (POINTS_PER_STATE // 2 * count)) + 1

    assert refined(MAX_STATES) <= MAX_POINTS < refined(MAX_STATES + 1)


def test_default_grid_clears_top_state():
    grid, _ = default_grid(lambda x: x * x, 6, 1.0)
    wall = grid.half_width ** 2
    assert wall >= 11.0 + 20.0


@pytest.mark.parametrize("V, hbar, count", [
    (lambda x: x * x, 1.0, 6),
    (PolynomialSuperpotential([0, 0, 0, 1 / 3], 1.0).v_minus, 1.0, 12),
], ids=["harmonic", "x3/3-minus"])
def test_state_n_has_n_nodes(V, hbar, count):
    # the oscillation theorem, on the grid values of each eigenvector above
    # its tails; the kinetic matrix's (-1)^(j-k) signs make the ground state
    # nodeless, and without them every eigenvalue stays (the matrix is
    # conjugated by diag((-1)^j)) while each vector alternates point to point
    grid, _ = default_grid(V, count, hbar)
    _, v, _ = swkb.oracle._solve(V, grid, count, hbar, vectors=True)
    for n in range(count):
        col = v[:, n][np.abs(v[:, n]) > 1e-6 * np.max(np.abs(v[:, n]))]
        assert np.count_nonzero(np.diff(np.sign(col))) == n


def _potential(coefficients, hbar, partner="minus"):
    return PolynomialSuperpotential(coefficients, hbar).potential(partner)


@pytest.mark.parametrize("V, hbar, count", [
    (_potential([0, 0, 0, 1 / 3], 1.0), 1.0, 31),
    (_potential([0, 1, 0, 0.2], 0.5), 0.5, 12),
    (_potential([0, 0, 0, 0, 0, 0, 0, 1 / 7], 0.2, "plus"), 0.2, 22),
], ids=["quantize8-cubic", "compare-mixed", "x7/7-plus-hbar0.2"])
def test_default_grid_certifies_decay_and_spacing(V, hbar, count):
    # the grid default_grid returns holds every state below 0.01 DECAY_LIMIT
    # at its walls, and pi/h clears the top level's wavenumber
    grid, _ = default_grid(V, count, hbar)
    w, v, pot = swkb.oracle._solve(V, grid, count, hbar, vectors=True)
    edge = np.maximum(np.abs(v[0]), np.abs(v[-1])) / np.max(np.abs(v), axis=0)
    assert np.max(edge) < 0.01 * DECAY_LIMIT
    h = 2.0 * grid.half_width / (grid.points - 1)
    assert math.pi / h >= swkb.oracle.WAVENUMBER_FACTOR * math.sqrt(w[-1] - pot.min()) / hbar


@pytest.mark.parametrize("V, hbar, count", [
    (_potential([0, 0, 0, 1 / 3], 1.0), 1.0, 31),
    (_potential([0, 1, 0, 0.2], 0.5), 0.5, 12),
    (_potential([0, 0, 0, 0, 0, 0, 0, 1 / 7], 0.2, "plus"), 0.2, 22),
], ids=["quantize8-cubic", "compare-mixed", "x7/7-plus-hbar0.2"])
def test_fine_grid_decays_wherever_the_probe_certified_it(V, hbar, count):
    # eigenvalues certifies decay on the grid it is given (here default_grid's,
    # the probe) and returns the values of the refined grid, whose vectors it
    # never computes; on these cells the refined grid's edges stay 100 times
    # below the limit that the probe's check enforces
    grid, _ = default_grid(V, count, hbar)
    fine = GridSpec(grid.half_width, 2 * math.ceil(REFINE * (grid.points // 2)) + 1)
    _, v, _ = swkb.oracle._solve(V, fine, count, hbar, vectors=True)
    edge = np.maximum(np.abs(v[0]), np.abs(v[-1])) / np.max(np.abs(v), axis=0)
    assert np.max(edge) < 0.01 * DECAY_LIMIT


def test_default_grid_solves_no_fine_grid_vectors(monkeypatch):
    # oracle_eigenvalues computes eigenvectors only on the march's grids, the
    # last of them the grid default_grid returns and certifies; the
    # resolution check takes that solve's values and solves the refined grid
    # for values alone
    V, count = _potential([0, 1, 0, 0.2], 0.5), 12
    grid, _ = default_grid(V, count, 0.5)
    calls, real = [], swkb.oracle._solve

    def spy(V, grid, count, hbar, vectors=False):
        calls.append((grid.points, vectors))
        return real(V, grid, count, hbar, vectors)

    monkeypatch.setattr(swkb.oracle, "_solve", spy)
    vals = oracle_eigenvalues(V, count, 0.5)
    fine = 2 * math.ceil(REFINE * (grid.points // 2)) + 1
    march = calls[:-1]
    assert march and all(vectors and points <= grid.points for points, vectors in march)
    assert march[-1] == (grid.points, True) and calls.count((grid.points, True)) == 1
    assert calls[-1] == (fine, False) and (grid.points, False) not in calls
    assert np.all(np.diff(vals) > 0)


@pytest.mark.parametrize("V, hbar, count", [
    (_potential([0, 0, 0, 1 / 3], 1.0), 1.0, 31),
    (_potential([0, 1, 0, 0.2], 0.5), 0.5, 11),
    (_potential([0, 0, 0, 1 / 3], 0.05), 0.05, 6),
], ids=["quantize8-cubic", "compare-mixed", "cubic-hbar0.05"])
def test_handed_on_values_give_the_values_of_a_fresh_solve(V, hbar, count):
    # default_grid's values stand in for a values-only solve of its grid:
    # the refinement check still passes on the first refined grid and
    # returns the same values bit for bit
    grid, coarse = default_grid(V, count, hbar)
    fresh = swkb.oracle._solve(V, grid, count, hbar)[0]
    assert np.max(np.abs(coarse - fresh)) < 1e-11 * max(1.0, np.max(np.abs(fresh)))
    assert np.array_equal(oracle_eigenvalues(V, count, hbar), eigenvalues(V, grid, count, hbar))


def _finite_differences(V, X, count, hbar, n=4096):
    """Second-order finite differences on n and 2n + 1 interior points of
    [-X, X], Richardson-extrapolated: an independent O(h^4) estimate."""
    def solve(points):
        x = np.linspace(-X, X, points + 2)[1:-1]
        kin = hbar * hbar / (x[1] - x[0]) ** 2
        return eigh_tridiagonal(2.0 * kin + V(x), np.full(points - 1, -kin), eigvals_only=True,
                                select="i", select_range=(0, count - 1))
    return (4.0 * solve(2 * n + 1) - solve(n)) / 3.0


@pytest.mark.parametrize("V, hbar, count", [
    (lambda x: x * x, 1.0, 8),
    (_potential([0, 0, 0, 1 / 3], 1.0), 1.0, 12),
    (_potential([0, 0, 0, 1 / 3], 1.0, "plus"), 1.0, 12),
    (_potential([0, 1, 0, 0.2], 0.5), 0.5, 12),
    (_potential([0, 0, 0, 0, 0, 0.2], 0.2), 0.2, 12),
    (_potential([0, -1, 0, 1], 0.2), 0.2, 12),
], ids=["harmonic", "x3/3-minus", "x3/3-plus", "x+x3/5", "x5/5", "x3-x"])
def test_certified_windows_agree_with_the_index_solve(V, hbar, count):
    # the certified oracle values (decay on the default grid, agreement with
    # the refined grid) against an independent index solve: finite
    # differences through eigh_tridiagonal's select="i", Richardson-
    # extrapolated.  At n = 4096 the extrapolated values sit within 4.1e-10
    # of the sinc grid's on these cells; at n = 2048, whose h^4 error is 16
    # times larger, within 5.3e-9
    grid, _ = default_grid(V, count, hbar)
    dvr = eigenvalues(V, grid, count, hbar)
    assert np.max(np.abs(dvr - _finite_differences(V, grid.half_width, count, hbar))) < 1e-9


@pytest.mark.parametrize("hbar", [1.0, 0.2, 0.05])
@pytest.mark.parametrize("coefficients", [
    [0, 0, 0, 1 / 3], [0, 1, 0, 0.2], [0, 0, 0, 0, 0, 0.2], [0, 0, 0, 0, 0, 0, 0, 1 / 7], [0, -1, 0, 1],
], ids=["x3/3", "x+x3/5", "x5/5", "x7/7", "x3-x"])
def test_envelope_cells_are_resolved_and_degenerate(coefficients, hbar):
    # 22 states of each partner: the certified values match a solve on twice
    # the refined grid's points, V- has a zero ground state, and the partners
    # share every other level (measured: 2.0e-12, 6.6e-13 and 7.3e-13)
    sp, count = PolynomialSuperpotential(coefficients, hbar), 22
    vals = {}
    for partner in ("minus", "plus"):
        V = sp.potential(partner)
        grid, _ = default_grid(V, count, hbar)
        vals[partner] = eigenvalues(V, grid, count, hbar)
        finer = GridSpec(grid.half_width, 6 * (grid.points // 2) + 1)
        ref = swkb.oracle._solve(V, finer, count, hbar)[0]
        assert np.all(np.abs(vals[partner] - ref) < 1e-10 * np.maximum(1.0, np.abs(ref)))
    minus, plus = vals["minus"], vals["plus"]
    assert abs(minus[0]) < 1e-10
    assert np.all(np.abs(minus[1:] - plus[:-1]) < 1e-10 * np.maximum(1.0, np.abs(plus[:-1])))
