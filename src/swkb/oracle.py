"""Independent eigenvalues on a grid, used as ground truth in tests.

A sinc discrete-variable representation (Colbert & Miller, J. Chem. Phys. 96,
1982 (1992)) on 2m+1 points x_j = j h of [-X, X], diagonalized as one dense
symmetric matrix: for the smooth polynomial potentials here the levels
converge exponentially in the number of points.  Two certificates guard every
answer: the eigenvectors decay at the walls (the domain), and a solve on
about 1.5 times the points agrees (the resolution).  Nothing here touches the
series machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import DomainTooSmallError, ResolutionError

DECAY_LIMIT = 1e-6  # relative edge amplitude above which an eigenvector has not decayed
MAX_HALF_WIDTH = 60.0
WALL_MARGIN = 20.0  # default_grid's walls clear the top level by this many hbar^2
# pi/h, the largest wavenumber the grid holds, over the top level's largest
# classical wavenumber sqrt(e_top - min V)/hbar: the 30 envelope cells (22
# states) reach 1e-10 relative by 2.5
WAVENUMBER_FACTOR = 3.0
REFINE = 1.5  # the resolution check solves again on about this many times the points
AGREE_REL = 1e-11  # two solves agree when no level moves by more than this * max(1, |E|)
# or by this many ulps of hbar^2 pi^2/h^2 + max |V|, a bound on the finer
# Hamiltonian's norm: eigh's own roundoff moved levels by up to 2.9 ulps of it
ROUNDOFF_ULPS = 16.0
# the largest grid: one dense eigh of 2049 x 2049 holds 34 MB per matrix and
# takes about 1.5 s on 2 CPUs
MAX_POINTS = 2049
POINTS_PER_STATE = 4  # a grid holds at most one requested state per this many points
# the most states whose default grid (POINTS_PER_STATE per state) survives one
# refinement under MAX_POINTS: 341
MAX_STATES = int((MAX_POINTS - 1) / (REFINE * POINTS_PER_STATE))


@dataclass(frozen=True)
class GridSpec:
    half_width: float
    points: int

    def __post_init__(self):
        if self.points % 2 == 0 or not 5 <= self.points <= MAX_POINTS:
            raise ValueError(f"need an odd number of grid points from 5 to {MAX_POINTS}")
        if self.half_width <= 0:
            raise ValueError("half width must be positive")


def _solve(V: Callable, grid: GridSpec, count: int, hbar: float, vectors: bool = False):
    """Lowest ``count`` eigenvalues of the sinc-DVR Hamiltonian on ``grid``,
    their eigenvectors if ``vectors``, and the potential on the grid."""
    m = grid.points // 2
    h = grid.half_width / m
    j = np.arange(1, grid.points)
    # T[j, k] = t[|j - k|]: pi^2/3 on the diagonal, 2 (-1)^d / d^2 off it
    t = np.concatenate(([math.pi ** 2 / 3.0], 2.0 * np.where(j % 2, -1.0, 1.0) / (j * j)))
    k = np.arange(grid.points)
    H = (hbar * hbar / (h * h)) * t[np.abs(k[:, None] - k[None, :])]
    pot = np.asarray(V(h * (k - m)), dtype=float)
    H.flat[::grid.points + 1] += pot
    if vectors:
        w, v = np.linalg.eigh(H)
        return w[:count], v[:, :count], pot
    return np.linalg.eigvalsh(H)[:count], None, pot


def _edge_amplitude(v: np.ndarray) -> np.ndarray:
    return np.maximum(np.abs(v[0]), np.abs(v[-1])) / np.max(np.abs(v), axis=0)


def _grid(X: float, m: int) -> GridSpec:
    if 2 * m + 1 > MAX_POINTS:
        raise ResolutionError(f"the levels on half width {X} need more than {MAX_POINTS} "
                              f"grid points")
    return GridSpec(X, 2 * m + 1)


def eigenvalues(
    V: Callable,
    grid: GridSpec,
    count: int,
    hbar: float = 1.0,
    coarse: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Lowest ``count`` eigenvalues of -hbar^2 psi'' + V psi = E psi.

    Eigenvectors on ``grid`` must decay at the walls, otherwise the domain is
    too small; ``coarse``, the values of a solve on ``grid`` whose decay the
    caller has certified (``default_grid``'s), takes the place of that
    solve.  The grid is refined by REFINE until two solves agree to
    AGREE_REL, and the finer values are returned."""
    if count > grid.points // POINTS_PER_STATE:
        raise ValueError("count too large for the grid")
    if coarse is None:
        coarse, v, _ = _solve(V, grid, count, hbar, vectors=True)
        bad = _edge_amplitude(v)
        if np.any(bad > DECAY_LIMIT):
            k = int(np.argmax(bad))
            raise DomainTooSmallError(
                f"eigenstate {k} does not decay at the wall (relative edge amplitude "
                f"{bad[k]:.2e}); enlarge the half width"
            )
    while True:
        m = math.ceil(REFINE * (grid.points // 2))
        grid = _grid(grid.half_width, m)
        fine, _, pot = _solve(V, grid, count, hbar)
        norm = (hbar * math.pi * m / grid.half_width) ** 2 + float(np.max(np.abs(pot)))
        tol = np.maximum(AGREE_REL * np.maximum(1.0, np.abs(fine)),
                         ROUNDOFF_ULPS * np.finfo(float).eps * norm)
        if np.all(np.abs(fine - coarse) <= tol):
            return fine
        coarse = fine


def default_grid(V: Callable, count: int, hbar: float = 1.0) -> Tuple[GridSpec, np.ndarray]:
    """March the half width outward from 2 until the wall potential clears
    the top level by WALL_MARGIN hbar^2 on both sides and every eigenvector
    decays below 0.01 DECAY_LIMIT at the walls.  At each half width the
    spacing is refined until pi/h is WAVENUMBER_FACTOR times the top level's
    largest classical wavenumber.  The grid is sized for at least two
    states: a lone ground state at the bottom of a well has a top
    wavenumber near zero, so its spacing would grow with the half width and
    its tails never resolve.  Returns the grid and the lowest ``count``
    eigenvalues of its solve."""
    states = max(count, 2)
    X, h = 2.0, math.inf  # h: the spacing the last top level asked for
    while X <= MAX_HALF_WIDTH:
        m = 0
        while (need := max(math.ceil(X / h), POINTS_PER_STATE // 2 * states)) > m:
            grid, m = _grid(X, need), need
            w, v, pot = _solve(V, grid, states, hbar, vectors=True)
            k_top = math.sqrt(max(float(w[-1]) - float(np.min(pot)), 0.0)) / hbar
            h = math.pi / (WAVENUMBER_FACTOR * k_top) if k_top else math.inf
        wall = min(float(V(np.array([-X]))[0]), float(V(np.array([X]))[0]))
        if (wall >= float(w[-1]) + WALL_MARGIN * hbar * hbar
                and np.max(_edge_amplitude(v)) < 0.01 * DECAY_LIMIT):
            return grid, w[:count]
        X += 1.0
    raise DomainTooSmallError(f"no adequate half width below {MAX_HALF_WIDTH}")


def oracle_eigenvalues(potential: Callable, count: int, hbar: float = 1.0) -> np.ndarray:
    """Convenience wrapper: pick a grid automatically and solve.  The grid
    is not solved again: default_grid certified decay on it at 0.01
    DECAY_LIMIT and hands on its values."""
    grid, coarse = default_grid(potential, count, hbar)
    return eigenvalues(potential, grid, count, hbar, coarse=coarse)
