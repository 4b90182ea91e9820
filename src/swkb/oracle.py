"""Independent eigenvalues on a grid, used as ground truth in tests.

Symmetric second-order finite differences with Dirichlet walls; the lowest
eigenvalues of the tridiagonal matrix come from Sturm-sequence bisection
(LAPACK *stebz* via scipy), Richardson-extrapolated over a grid halving.
Nothing here touches the series machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import DomainTooSmallError

DEFAULT_POINTS = 4096
DECAY_LIMIT = 1e-6
MAX_HALF_WIDTH = 60.0


@dataclass(frozen=True)
class GridSpec:
    half_width: float
    points: int = DEFAULT_POINTS

    def __post_init__(self):
        if self.points < 64:
            raise ValueError("need at least 64 grid points")
        if self.half_width <= 0:
            raise ValueError("half width must be positive")


def _solve_grid(V: Callable, X: float, n_interior: int, count: int, hbar: float,
                vectors: bool = True):
    """Lowest ``count`` eigenvalues on ``n_interior`` points, and eigenvectors if ``vectors``."""
    x = np.linspace(-X, X, n_interior + 2)[1:-1]
    dx = x[1] - x[0]
    kin = hbar * hbar / (dx * dx)
    diag = 2.0 * kin + np.asarray(V(x), dtype=float)
    off = np.full(n_interior - 1, -kin)
    return eigh_tridiagonal(diag, off, eigvals_only=not vectors, select="i",
                            select_range=(0, count - 1))


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
    otherwise the domain is too small for the requested states.
    """
    if count > grid.points // 4:
        raise ValueError("count too large for the grid")
    w1 = _solve_grid(V, grid.half_width, grid.points, count, hbar, vectors=False)
    if not richardson and not check_decay:
        return w1
    n2 = 2 * grid.points + 1
    w2, v2 = _solve_grid(V, grid.half_width, n2, count, hbar)
    if check_decay:
        amp = np.max(np.abs(v2), axis=0)
        edge = np.maximum(np.abs(v2[0, :]), np.abs(v2[-1, :]))
        bad = edge / amp
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
        w_coarse, v_coarse = _solve_grid(V, X, 1024, count, hbar)
        e_max = float(w_coarse[-1])
        wall = min(float(V(np.array([-X]))[0]), float(V(np.array([X]))[0]))
        if wall >= e_max + 20.0 * hbar * hbar:
            edge = np.maximum(np.abs(v_coarse[0, :]), np.abs(v_coarse[-1, :]))
            rel = float(np.max(edge / np.max(np.abs(v_coarse), axis=0)))
            if rel < 0.01 * DECAY_LIMIT:
                return GridSpec(X)
        X += 1.0
    raise DomainTooSmallError(f"no adequate half width below {MAX_HALF_WIDTH}")


def oracle_eigenvalues(potential: Callable, count: int, hbar: float = 1.0) -> np.ndarray:
    """Convenience wrapper: pick a grid automatically and solve."""
    return eigenvalues(potential, default_grid(potential, count, hbar), count, hbar)
