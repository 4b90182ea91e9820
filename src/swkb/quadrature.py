"""Closed-contour integrals of ring expressions for polynomial superpotentials.

The contour is an ellipse confocal with the two real turning points, never
collapsed to the real axis: every integrand of interest is analytic (in
particular single-valued in sqrt(u), which has an even number of branch
points inside), so the periodic trapezoid rule converges exponentially.
sqrt(u) is continued sample-to-sample around the contour; the global sign
is fixed so the leading action integral has positive real part.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .algebra import Expression, decode
from .errors import (
    AmbiguousRegionError,
    BranchTrackingError,
    ConvergenceError,
    NoClassicalRegionError,
)

TOL = 1e-10  # absolute floor of every row's settling tolerance
REL_TOL = 1e-8  # a row settles once it moves by less than max(TOL, REL_TOL * |row|)
# The trapezoid error on a periodic integrand analytic in a strip of
# half-width delta falls like e^(-delta N) (Trefethen & Weideman, SIAM Review
# 56 (2014) 385), so each contour starts at the least power of two N with
# delta N >= STRIP_DECAY (e^-32 ~ 1e-14), kept within MIN_START_SAMPLES and
# START_SAMPLES, the start of a hand-built Contour.  Two coarse sums can
# agree by aliasing: the floor stays until a bound on the integrand's size
# on the wider ellipse backs a lower one
STRIP_DECAY = 32.0
MIN_START_SAMPLES = 64
START_SAMPLES = 256
MAX_SAMPLES = 2 ** 20
ETA_FREE = math.acosh(2.0)  # elliptic radius of the contour when no root is excluded
# contour's share of the nearest excluded root's elliptic radius: at order 8,
# 0.6 leaves phi = x^5/5 unsettled at E = 0.3 and 0.8 takes phi = x^3/3 to 1024 samples
ROOT_SHARE = 0.7
SUM_BLOCK = 4096  # sample points per block of monomial evaluation
# samples per matrix product of the contraction, whose chunk sums are then
# added in order, so each half of a block of whole chunks sums as a call on
# that half alone.  On order-8 rows (x^3/3 and 0.5x + 0.2x^3 + 2x^5,
# E = 0.05 to 1) every size from 32 to the whole block leaves a relative
# roundoff of 1e-16 to 1e-15 on OpenBLAS; 64 costs what one product per
# block costs at 512 samples and up to 1.35x at 4096.  Where order-8 rows
# cancel far below their terms (x^3/3, hbar 0.05, E = 0.01 to 0.02) the
# chunks matter: the median step between sample counts reads 2.4 to 5.3
# settling tolerances over OpenBLAS's SkylakeX, Haswell and Zen kernels,
# and 7.1 to 9.6 with one product per block
CHUNK = 64


@dataclass(frozen=True)
class PolynomialSuperpotential:
    """phi(x) = sum coefficients[k] x^k, plus the hbar of the problem."""

    coefficients: Tuple[float, ...]
    hbar: float = 1.0
    name: str = ""

    def __init__(self, coefficients, hbar: float = 1.0, name: str = ""):
        try:
            coeffs = tuple(float(c) for c in coefficients)
            finite = all(math.isfinite(c) for c in coeffs + (float(hbar),))
        except OverflowError:  # an int beyond the float range
            finite = False
        if not finite:
            raise ValueError("coefficients and hbar must be finite")
        while len(coeffs) > 1 and coeffs[-1] == 0.0:
            coeffs = coeffs[:-1]
        if len(coeffs) < 2 or coeffs[-1] == 0.0:
            raise ValueError("superpotential must have degree >= 1")
        if hbar <= 0:
            raise ValueError("hbar must be positive")
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "hbar", float(hbar))
        object.__setattr__(self, "name", name)

    def deriv_coefficients(self, k: int) -> np.ndarray:
        c = np.asarray(self.coefficients, dtype=float)
        for _ in range(k):
            c = c[1:] * np.arange(1, len(c))
            if len(c) == 0:
                c = np.zeros(1)
        return c

    def phi(self, x):
        return np.polyval(self.coefficients[::-1], x)

    def phi_deriv(self, k: int, x):
        return np.polyval(self.deriv_coefficients(k)[::-1], x)

    def v_minus(self, x):
        return self.phi(x) ** 2 - self.hbar * self.phi_deriv(1, x)

    def v_plus(self, x):
        return self.phi(x) ** 2 + self.hbar * self.phi_deriv(1, x)

    def potential(self, partner: str):
        return self.v_minus if partner == "minus" else self.v_plus

    @staticmethod
    def from_json_dict(data: dict) -> "PolynomialSuperpotential":
        if not isinstance(data, dict):
            raise ValueError("config must be a JSON object")
        coeffs, hbar, name = data["coefficients"], data.get("hbar", 1.0), data.get("name", "")
        # type(), not isinstance: JSON true and false load as bool, an int subclass
        if not isinstance(coeffs, list) or any(type(v) not in (int, float) for v in coeffs + [hbar]):
            raise ValueError("coefficients must be a list of numbers and hbar a number")
        if not isinstance(name, str):
            raise ValueError("name must be a string")
        return PolynomialSuperpotential(coeffs, hbar, name)

    @staticmethod
    def load(path: str) -> "PolynomialSuperpotential":
        with open(path, "r", encoding="utf-8") as fh:
            return PolynomialSuperpotential.from_json_dict(json.load(fh))

    def to_json_dict(self) -> dict:
        return {"coefficients": list(self.coefficients), "hbar": self.hbar, "name": self.name}


def _value_and_slope(coeffs: Sequence[float], x: complex) -> Tuple[complex, complex]:
    """p(x) and p'(x) of the polynomial with ``coeffs`` (highest power
    first), from one Horner pass."""
    p = dp = 0.0
    for c in coeffs:
        dp = dp * x + p
        p = p * x + c
    return p, dp


def _companion_roots(p: np.ndarray) -> np.ndarray:
    """Sorted roots of the polynomial with ascending coefficients ``p``, of
    degree at least 2: the eigenvalues of the companion matrix that numpy's
    ``polycompanion`` builds, so they equal its ``polyroots`` bit for bit
    without loading ``numpy.polynomial``."""
    n = len(p) - 1
    companion = np.zeros((n, n))
    companion.reshape(-1)[n::n + 1] = 1.0
    companion[:, -1] -= p[:-1] / p[-1]
    roots = np.linalg.eigvals(companion)
    roots.sort()
    return roots


def turning_points(sp: PolynomialSuperpotential, E: float):
    """All roots of phi(x)^2 = E, split into the real classical pair and the
    excluded rest.  Roots are Newton-polished on phi^2 - E."""
    if E <= 0:
        raise NoClassicalRegionError(f"E = {E} is not above the well bottom")
    p2 = np.convolve(sp.coefficients, sp.coefficients)
    p2[0] -= E
    descending = p2[::-1].tolist()
    roots = []
    for r in _companion_roots(p2).tolist():
        for _ in range(3):
            val, der = _value_and_slope(descending, r)
            if abs(der) > 1e-300:
                r -= val / der
        roots.append(complex(r))
    # a root is real when its imaginary part is small next to the roots' own
    # size, which E sets: at a tiny E all of them are far below 1
    size = max(abs(r) for r in roots)
    real = [abs(r.imag) < 1e-9 * size for r in roots]
    real_roots = sorted(r.real for r, is_real in zip(roots, real) if is_real)
    pairs = [(xl, xr) for xl, xr in zip(real_roots, real_roots[1:])
             if _value_and_slope(descending, 0.5 * (xl + xr))[0] < 0.0]
    if not pairs:
        raise NoClassicalRegionError(f"no real classical region at E = {E}")
    if len(pairs) > 1:
        raise AmbiguousRegionError(f"{len(pairs)} classical regions at E = {E}")
    xl, xr = pairs[0]
    # relative to the roots' size: phi = c x^d is scale invariant, so a pair
    # far below 1 coalesces only when it is narrow next to the other roots
    if xr - xl < 1e-8 * size:
        raise AmbiguousRegionError(f"nearly degenerate turning points at E = {E}")
    scale = max(1.0, size)
    excluded = [r for r, is_real in zip(roots, real)
                if not (is_real and xl - 1e-12 * scale <= r.real <= xr + 1e-12 * scale)]
    return xl, xr, excluded


@lru_cache(maxsize=8)
def _unit_circle(samples: int, shift: Union[float, Tuple[float, ...]]):
    """cos and sin of the angles 2 pi (j + shift) / samples, j < samples,
    one set after another for a tuple of shifts."""
    theta = 2.0 * np.pi * (np.arange(samples) + np.reshape(shift, (-1, 1))).ravel() / samples
    cos, sin = np.cos(theta), np.sin(theta)
    cos.flags.writeable = sin.flags.writeable = False
    return cos, sin


@dataclass(frozen=True)
class Contour:
    """Counterclockwise ellipse around the classical turning pair."""

    center: float
    a: float  # semi-axis along the real direction
    b: float  # semi-axis along the imaginary direction
    start: int = START_SAMPLES  # first resolution of the trapezoid rule

    def points(self, samples: int, shift: Union[float, Tuple[float, ...]] = 0.0):
        """``samples`` equispaced points and dz/dtheta; ``shift = 0.5`` gives
        the midpoints, i.e. the points that doubling ``samples`` adds, and
        ``shift = (0.0, 0.5)`` the points followed by their midpoints."""
        cos, sin = _unit_circle(samples, shift)
        z = self.center + self.a * cos + 1j * self.b * sin
        dz = -self.a * sin + 1j * self.b * cos
        return z, dz


def build_contour(sp: PolynomialSuperpotential, E: float) -> Contour:
    """Ellipse confocal with the real turning pair, in closed form.  With
    center c and half-gap g, a point w lies on the confocal ellipse of
    elliptic radius Re arccosh((w - c) / g); the turning points have radius
    0.  The trapezoid rule on the ellipse of radius eta converges at a rate
    set by the distance from eta to the nearest singular radius, so the
    contour takes ROOT_SHARE of the least excluded root's radius rho, or
    ETA_FREE when that is larger or nothing is excluded.  The integrand is
    analytic in the strip |Im theta| < delta = min(eta, rho - eta), which
    sets the first resolution (see STRIP_DECAY).  It cannot fail: a root
    near the real axis pinches the contour and the integration, not this
    rule, reports it."""
    xl, xr, excluded = turning_points(sp, E)
    center = 0.5 * (xl + xr)
    half_gap = 0.5 * (xr - xl)
    radii = np.arccosh((np.array(excluded, dtype=complex) - center) / half_gap).real
    rho = radii.min(initial=np.inf)
    eta = min(ETA_FREE, ROOT_SHARE * rho)
    delta, start = min(eta, rho - eta), MIN_START_SAMPLES
    while start < START_SAMPLES and delta * start < STRIP_DECAY:
        start *= 2
    return Contour(center, half_gap * math.cosh(eta), half_gap * math.sinh(eta), start)


def track_sqrt_u(u: np.ndarray) -> np.ndarray:
    """Continuous square root along the closed sample loop: start from the
    principal root with nonnegative imaginary part at the first sample and
    flip sign wherever the principal value jumps branches (nearest-root
    continuation).  The loop must close consistently."""
    w = np.sqrt(u)
    jump = np.real(w[1:] * np.conj(w[:-1])) < 0.0
    sign = np.ones(len(w))
    sign[1:] = np.cumprod(np.where(jump, -1.0, 1.0))
    if np.real(w[0] * np.conj(sign[-1] * w[-1])) < 0.0:
        raise BranchTrackingError("sqrt(u) continuation does not close around the contour")
    s = sign * w
    return -s if s[0].imag < 0 else s


@dataclass(frozen=True)
class IntegralResult:
    """``rows`` holds the integral of each row of the table; ``settled`` is
    true for each row that met every rule of the rows that gate the
    integral at its last level."""

    samples_used: int
    rows: Tuple[complex, ...]
    settled: Tuple[bool, ...]


@dataclass(frozen=True, eq=False)
class IntegrandTable:
    """Several integrands compiled for one shared quadrature pass.

    Monomial m is E^e[m] times a phi part (powers of the phi^(k), k in
    ``orders``) times a power of sqrt(u); each distinct part and power is
    evaluated once per sample set.  Row 0 is the constant 1 and rows from 1
    on are the rungs of one multiplication ladder per entry of ``orders``,
    ``ladder[j]`` rungs for phi^(orders[j]).  Part p is the product of the
    rows ``parts[p]`` (padded with row 0); monomial m is part
    ``part_index[m]`` times sqrt(u)^``powers[power_index[m]]``.
    ``coeffs[r, m]`` is the coefficient of monomial m in integrand r.
    """

    orders: Tuple[int, ...]
    ladder: Tuple[int, ...]
    parts: np.ndarray
    powers: np.ndarray
    part_index: np.ndarray
    power_index: np.ndarray
    e: np.ndarray
    coeffs: np.ndarray
    # monomial_sums' work arrays per block width, reused by every later call
    # on this table: freed after each call, they left glibc a heap top to
    # trim and fault back in on the next, about 60 page faults per call at
    # 512 samples
    work: dict = field(default_factory=dict, repr=False, compare=False)

    def monomial_sums(self, phi_vals: np.ndarray, s: np.ndarray, dz: np.ndarray,
                      halves: bool = False) -> np.ndarray:
        """M[p, k] = sum_j part_p(z_j) s_j^powers[k] dz_j for every phi part
        and sqrt(u) power: monomial m sums to M[part_index[m], power_index[m]]
        without its E factor.  ``phi_vals`` holds one row per entry of
        ``orders``.  Points are taken in blocks so that memory stays bounded
        at large sample counts, and contracted by one matrix product per
        chunk of CHUNK samples (one chunk where CHUNK does not divide the
        block).  With ``halves`` the result is [M over the first half of the
        points, M over the second], each summed as a call on that half alone
        would: the points must fit one block and each half be a whole number
        of chunks.  The work arrays in ``work`` make one table unsafe to
        share between threads."""
        lo, hi = self.powers.min(initial=0), self.powers.max(initial=0)
        row_of = {p: i for i, p in enumerate(self.powers.tolist())}
        pieces = 2 if halves else 1
        total = np.zeros((pieces, len(self.parts), len(self.powers)), dtype=complex)
        for j in range(0, len(s), SUM_BLOCK):
            phi_b, s_b, dz_b = phi_vals[:, j:j + SUM_BLOCK], s[j:j + SUM_BLOCK], dz[j:j + SUM_BLOCK]
            n = len(s_b)
            if n not in self.work:
                self.work[n] = tuple(np.empty((rows, n), dtype=complex) for rows in (
                    1 + sum(self.ladder), len(self.parts), len(self.parts), 1,
                    len(self.powers)))
            rungs, part, factor, (unused,), sq = self.work[n]
            # row 0 is 1, then phi_k, phi_k^2, ... up to each order's height
            rungs[0], r = 1.0, 1
            for row, height in zip(phi_b, self.ladder):
                if height:
                    rungs[r] = row
                for i in range(r + 1, r + height):
                    np.multiply(rungs[i - 1], row, out=rungs[i])
                r += height
            np.take(rungs, self.parts[:, 0], axis=0, out=part)
            for c in range(1, self.parts.shape[1]):
                part *= np.take(rungs, self.parts[:, c], axis=0, out=factor)
            # row i is s^powers[i], on the chain from s^0 = 1 up by s to s^hi
            # and down by 1/s to s^lo; a power no monomial uses is held only
            # in ``unused`` until the next step
            if 0 in row_of:
                sq[row_of[0]] = 1.0
            for step, chain in ((s_b, range(1, hi + 1)), (1.0 / s_b, range(-1, lo - 1, -1))):
                prev = 1.0
                for p in chain:
                    i = row_of.get(p)
                    out = unused if i is None else sq[i]
                    np.multiply(prev, step, out=out)
                    prev = out
            sq *= dz_b
            chunks = (n // CHUNK, CHUNK) if n % CHUNK == 0 else (1, n)
            # (chunks, parts, CHUNK) @ (chunks, CHUNK, powers)
            by_chunk = np.matmul(part.reshape(len(part), *chunks).transpose(1, 0, 2),
                                 sq.reshape(len(sq), *chunks).transpose(1, 2, 0))
            total += by_chunk.reshape(pieces, chunks[0] // pieces, len(part), len(sq)).sum(axis=1)
        return total if halves else total[0]


def compile_integrands(exprs: Sequence[Expression]) -> IntegrandTable:
    """One table row per expression, over the union of their monomials,
    read off the packed keys: each distinct key is decoded once, and each
    coefficient x/den is correctly rounded, as ``float`` of its ``Fraction``."""
    monos = sorted({key: decode(key) for x in exprs for key in x.num}.items(),
                   key=lambda item: item[1].sort_key())
    orders = tuple(sorted({k for _, m in monos for k, _ in m.derivs} | {0}))
    ladder = tuple(max([a for _, m in monos for j, a in m.derivs if j == k], default=0)
                   for k in orders)
    first = dict(zip(orders, np.cumsum((1,) + ladder).tolist()))
    parts = {d: i for i, d in enumerate(sorted({m.derivs for _, m in monos}))}
    powers = {h: i for i, h in enumerate(sorted({m.h for _, m in monos}))}
    part_rows = np.zeros((len(parts), max([1] + [len(d) for d in parts])), dtype=int)
    for derivs, i in parts.items():
        part_rows[i, :len(derivs)] = [first[k] + a - 1 for k, a in derivs]
    pos = {key: i for i, (key, _) in enumerate(monos)}
    coeffs = np.zeros((len(exprs), len(monos)), dtype=complex)
    for r, x in enumerate(exprs):
        den = x.den
        for key, (re, im) in x.num.items():
            coeffs[r, pos[key]] = complex(re / den, im / den)
    return IntegrandTable(
        orders,
        ladder,
        part_rows,
        np.array(list(powers), dtype=int),
        np.array([parts[m.derivs] for _, m in monos], dtype=int),
        np.array([powers[m.h] for _, m in monos], dtype=int),
        np.array([m.e for _, m in monos], dtype=int),
        coeffs,
    )


@lru_cache(maxsize=64)
def _derivative_rows(sp: PolynomialSuperpotential, orders: Tuple[int, ...]) -> np.ndarray:
    """Coefficients of phi^(k) for every k in ``orders``, one zero-padded row each."""
    rows = np.zeros((len(orders), len(sp.coefficients)))
    for i, k in enumerate(orders):
        c = sp.deriv_coefficients(k)
        rows[i, :len(c)] = c
    rows.flags.writeable = False
    return rows


def _horner(rows: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Every polynomial of ``rows`` (ascending coefficients) at ``z``."""
    acc = np.zeros((len(rows), len(z)), dtype=complex)
    for j in range(rows.shape[1] - 1, -1, -1):
        acc = acc * z + rows[:, j:j + 1]
    return acc


# overflow shows as a row that is not finite, which raises below
@np.errstate(over="ignore", invalid="ignore")
def contour_integrate(
    integrands: Union[Expression, IntegrandTable],
    sp: PolynomialSuperpotential,
    E: float,
    contour: Optional[Contour] = None,
    check_real: bool = True,
    gate: slice = slice(None),
) -> IntegralResult:
    """Closed-contour integrals of every row of ``integrands`` (a plain
    expression is a one-row table) on one contour and one sample set.

    The trapezoid rule starts at the contour's ``start`` resolution N0, set
    by the half-width of its analytic strip (Trefethen & Weideman, SIAM
    Review 56 (2014) 385).  The first two levels come from one pass over
    the N0 points and their N0 midpoints: sqrt(u) is tracked once around
    the 2 N0 loop and one table contraction sums each half apart, so the
    level-N0 and level-2N0 rows are those of nested doubling.  Every later
    level evaluates only the new midpoints and adds them to the running
    monomial sums; sqrt(u) is re-tracked over the whole loop, and the sums
    start over if that moves the branch at an old sample.  The rows of
    ``gate`` (every row by default) gate the integral: each must change by
    less than its tolerance max(TOL, REL_TOL * |row|) between levels, and
    one that is not finite raises ``ConvergenceError`` at once, since the
    sums of every finer level add to it.  Quantization integrands are real
    up to branch-tracking noise; with ``check_real`` each gating row's
    imaginary part is required to stay below 10 times its tolerance
    (disable it to integrate deliberately non-real quantities).  A row
    index in a message counts within ``gate``.  ``rows`` holds every row's
    integral at the level where the gating rows settled, and ``settled``
    which rows would have passed both rules there.
    ``spectrum.action`` passes a table of (A, dA/dE, d2A/dE2) blocks, one
    per truncation order, and gates it by the block of the order it
    solves, so the rules meet the numbers the level solver reads."""
    table = integrands if isinstance(integrands, IntegrandTable) else compile_integrands([integrands])
    if contour is None:
        contour = build_contour(sp, E)
    coeffs = table.coeffs * float(E) ** table.e
    mono = (table.part_index, table.power_index)
    deriv_rows = _derivative_rows(sp, table.orders)
    samples = contour.start
    # the points, then their midpoints; u and sqrt(u) interleave them into loop order
    z, dz = contour.points(samples, (0.0, 0.5))
    phi_vals = _horner(deriv_rows, z)
    u = (E - phi_vals[0] ** 2).reshape(2, samples).T.ravel()
    root = track_sqrt_u(u)
    s = root.reshape(samples, 2).T.ravel()
    # (monomial sums, leading action) of each level evaluated and not yet read
    pending = list(zip(table.monomial_sums(phi_vals, s, dz, halves=True),
                       np.sum((s * dz).reshape(2, samples), axis=1)))
    sums = action0 = 0.0
    prev = None
    while True:
        new_sums, new_action0 = pending.pop(0)
        sums = sums + new_sums
        action0 = action0 + new_action0
        # global sign: the leading action has positive real part
        flip = (-1.0) ** table.powers if action0.real < 0 else 1.0
        rows = (2.0 * np.pi / samples) * np.sum(coeffs * (flip * sums)[mono], axis=1)
        bad = np.flatnonzero(~np.isfinite(rows[gate]))
        if len(bad):
            raise ConvergenceError(f"contour integral at E = {E}: row {bad[0]} is not finite "
                                   f"at {samples} samples")
        row_tol = np.maximum(TOL, REL_TOL * np.abs(rows))
        # false for a row that is not finite, which only a row outside the gate can be
        still = prev is not None and np.abs(rows - prev) < row_tol
        if prev is not None and still[gate].all():
            real = np.abs(rows.imag) < 10.0 * row_tol if check_real else np.isfinite(rows)
            bad = np.flatnonzero(~real[gate])
            if len(bad):
                raise BranchTrackingError(f"quantization integral {bad[0]} has imaginary part "
                                          f"{rows[gate][bad[0]].imag:.3e}")
            return IntegralResult(samples, tuple(rows.tolist()), tuple((still & real).tolist()))
        if 2 * samples > MAX_SAMPLES:
            r = np.flatnonzero(~still[gate])[0]
            raise ConvergenceError(
                f"contour integral at E = {E} did not converge within {samples} samples: "
                f"row {r} still moved by {abs(rows[gate][r] - prev[gate][r]):.3e}"
            )
        prev = rows
        if not pending:
            z, dz = contour.points(samples, shift=0.5)
            phi_vals = _horner(deriv_rows, z)
            fine_u = np.empty(2 * samples, dtype=complex)
            fine_u[0::2] = u
            fine_u[1::2] = E - phi_vals[0] ** 2
            fine = track_sqrt_u(fine_u)
            if np.array_equal(fine[0::2], root):
                s = fine[1::2]
            else:
                # the finer loop chose another branch at old samples: start over
                z, dz = contour.points(2 * samples)
                phi_vals = _horner(deriv_rows, z)
                s = fine
                sums = action0 = 0.0
            u, root = fine_u, fine
            pending.append((table.monomial_sums(phi_vals, s, dz), np.sum(s * dz)))
        samples *= 2
