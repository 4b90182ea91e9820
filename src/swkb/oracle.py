"""Independent eigenvalues on a grid, used as ground truth in tests.

Symmetric second-order finite differences with Dirichlet walls; the lowest
eigenvalues of the tridiagonal matrix come from Sturm-sequence bisection
(LAPACK *stebz* via scipy), Richardson-extrapolated over a grid halving;
on a ``default_grid`` grid the fine levels are bisected in Sturm-certified
windows.  Nothing here touches the series machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dstebz

from .errors import DomainTooSmallError

DEFAULT_POINTS = 4096
PROBE_POINTS = 1024
DECAY_LIMIT = 1e-6
MAX_HALF_WIDTH = 60.0


@dataclass(frozen=True)
class GridSpec:
    half_width: float
    points: int = DEFAULT_POINTS
    probe: Tuple[float, ...] = ()  # levels on PROBE_POINTS points, decay certified

    def __post_init__(self):
        if self.points < 64:
            raise ValueError("need at least 64 grid points")
        if self.half_width <= 0:
            raise ValueError("half width must be positive")


def _tridiagonal(V: Callable, X: float, n_interior: int, hbar: float):
    """Diagonal and off-diagonal of the Hamiltonian on ``n_interior`` points."""
    x = np.linspace(-X, X, n_interior + 2)[1:-1]
    dx = x[1] - x[0]
    kin = hbar * hbar / (dx * dx)
    return 2.0 * kin + np.asarray(V(x), dtype=float), np.full(n_interior - 1, -kin)


def _solve_grid(V: Callable, X: float, n_interior: int, count: int, hbar: float,
                vectors: bool = True):
    """Lowest ``count`` eigenvalues on ``n_interior`` points, and eigenvectors if ``vectors``."""
    diag, off = _tridiagonal(V, X, n_interior, hbar)
    return eigh_tridiagonal(diag, off, eigvals_only=not vectors, select="i",
                            select_range=(0, count - 1))


def _count_at_most(diag: np.ndarray, off: np.ndarray, sigma: float) -> int:
    # eigenvalues <= sigma: an infinite abstol leaves stebz only its exact Sturm counts
    return int(dstebz(diag, off, 1, -np.inf, sigma, 0, 0, np.inf, "E")[0])


def _windowed_solve(V: Callable, grid: GridSpec, w_n: np.ndarray, hbar: float):
    """Levels on 2N+1 points bisected in (p - d, p + d] around their Richardson
    predictions p, or None unless disjoint windows of one level each, under a
    top with exactly ``len(p)`` levels at or below it, certify them."""
    X, n = grid.half_width, 2 * grid.points + 1
    h0, h1, h2 = ((2.0 * X / (m + 1)) ** 2 for m in (PROBE_POINTS, grid.points, n))
    w_probe = np.asarray(grid.probe[:len(w_n)])
    p = w_n + (w_n - w_probe) * (h2 - h1) / (h1 - h0)
    d = 1e-3 * np.abs(w_n - w_probe) + 1e-9 * np.abs(p) + 1e-12
    lo, hi = p - d, p + d
    diag, off = _tridiagonal(V, X, n, hbar)
    if not (np.all(lo[1:] >= hi[:-1]) and _count_at_most(diag, off, hi[-1]) == len(p)):
        return None
    out = np.empty(len(p))
    for k in range(len(p)):
        m, w, _, _, info = dstebz(diag, off, 1, lo[k], hi[k], 0, 0, 0.0, "E")
        if info or m != 1:
            return None
        out[k] = w[0]
    return out


def eigenvalues(
    V: Callable,
    grid: GridSpec,
    count: int,
    hbar: float = 1.0,
    richardson: bool = True,
    check_decay: bool = True,
) -> np.ndarray:
    """Lowest ``count`` eigenvalues of -hbar^2 psi'' + V psi = E psi.

    One Richardson step over N and 2N+1 interior points removes the leading
    O(dx^2) discretization error.  Eigenvectors must decay at the walls,
    otherwise the domain is too small; a ``default_grid`` probe certified that,
    so 2N+1 levels come from ``_windowed_solve`` or else a values-only solve."""
    if count > grid.points // 4:
        raise ValueError("count too large for the grid")
    w1 = _solve_grid(V, grid.half_width, grid.points, count, hbar, vectors=False)
    if not richardson and not check_decay:
        return w1
    certified = len(grid.probe) >= count
    w2 = _windowed_solve(V, grid, w1, hbar) if certified else None
    recheck = check_decay and not certified
    if w2 is None:
        w2 = _solve_grid(V, grid.half_width, 2 * grid.points + 1, count, hbar, vectors=recheck)
    if recheck:
        w2, v2 = w2
        bad = np.maximum(np.abs(v2[0]), np.abs(v2[-1])) / np.max(np.abs(v2), axis=0)
        if np.any(bad > DECAY_LIMIT):
            k = int(np.argmax(bad))
            raise DomainTooSmallError(
                f"eigenstate {k} does not decay at the wall (relative edge amplitude "
                f"{bad[k]:.2e}); enlarge the half width"
            )
    if not richardson:
        return w2
    return (4.0 * w2 - w1) / 3.0


def default_grid(V: Callable, count: int, hbar: float = 1.0) -> GridSpec:
    """March the half width outward until the wall potential clears the
    estimated top eigenvalue by a 20 hbar^2 margin on both sides and the
    coarse-grid eigenstates already decay comfortably at the walls."""
    X = 2.0
    while X <= MAX_HALF_WIDTH:
        w_coarse, v_coarse = _solve_grid(V, X, PROBE_POINTS, count, hbar)
        e_max = float(w_coarse[-1])
        wall = min(float(V(np.array([-X]))[0]), float(V(np.array([X]))[0]))
        if wall >= e_max + 20.0 * hbar * hbar:
            edge = np.maximum(np.abs(v_coarse[0, :]), np.abs(v_coarse[-1, :]))
            rel = float(np.max(edge / np.max(np.abs(v_coarse), axis=0)))
            if rel < 0.01 * DECAY_LIMIT:
                return GridSpec(X, probe=tuple(w_coarse.tolist()))
        X += 1.0
    raise DomainTooSmallError(f"no adequate half width below {MAX_HALF_WIDTH}")


def oracle_eigenvalues(potential: Callable, count: int, hbar: float = 1.0) -> np.ndarray:
    """Convenience wrapper: pick a grid automatically and solve."""
    return eigenvalues(potential, default_grid(potential, count, hbar), count, hbar)
