import pytest

from swkb.errors import DomainTooSmallError
from swkb.oracle import GridSpec, default_grid, eigenvalues, oracle_eigenvalues


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
