"""Closed-contour integrals of ring expressions for polynomial superpotentials.

The contour is an ellipse around the two real turning points, never
collapsed to the real axis: every integrand of interest is analytic (in
particular single-valued in sqrt(u), which has an even number of branch
points inside), so the periodic trapezoid rule converges exponentially.
sqrt(u) is continued sample-to-sample around the contour; the global sign
is fixed so the leading action integral has positive real part.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .algebra import Expression, Monomial
from .errors import (
    AmbiguousRegionError,
    BranchTrackingError,
    ContourError,
    ConvergenceError,
    NoClassicalRegionError,
)

DEFAULT_TOL = 1e-10
START_SAMPLES = 256  # first resolution; integration doubles it until the estimate settles
MAX_SAMPLES = 2 ** 20
DEFAULT_ASPECT = 0.5
DEFAULT_CLEARANCE = 0.2  # fraction of the semi-major axis
SUM_BLOCK = 4096  # sample points per block of monomial evaluation


@dataclass(frozen=True)
class PolynomialSuperpotential:
    """phi(x) = sum coefficients[k] x^k, plus the hbar of the problem."""

    coefficients: Tuple[float, ...]
    hbar: float = 1.0
    name: str = ""

    def __init__(self, coefficients, hbar: float = 1.0, name: str = ""):
        coeffs = tuple(float(c) for c in coefficients)
        while len(coeffs) > 1 and coeffs[-1] == 0.0:
            coeffs = coeffs[:-1]
        if len(coeffs) < 2 or coeffs[-1] == 0.0:
            raise ValueError("superpotential must have degree >= 1")
        if hbar <= 0:
            raise ValueError("hbar must be positive")
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "hbar", float(hbar))
        object.__setattr__(self, "name", name)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def deriv_coefficients(self, k: int) -> np.ndarray:
        c = np.asarray(self.coefficients, dtype=float)
        for _ in range(k):
            c = c[1:] * np.arange(1, len(c))
            if len(c) == 0:
                c = np.zeros(1)
        return c

    def phi(self, x):
        return np.polynomial.polynomial.polyval(x, np.asarray(self.coefficients))

    def phi_deriv(self, k: int, x):
        return np.polynomial.polynomial.polyval(x, self.deriv_coefficients(k))

    def v_minus(self, x):
        return self.phi(x) ** 2 - self.hbar * self.phi_deriv(1, x)

    def v_plus(self, x):
        return self.phi(x) ** 2 + self.hbar * self.phi_deriv(1, x)

    def potential(self, partner: str):
        return self.v_minus if partner == "minus" else self.v_plus

    @staticmethod
    def from_json_dict(data: dict) -> "PolynomialSuperpotential":
        return PolynomialSuperpotential(
            data["coefficients"], data.get("hbar", 1.0), data.get("name", "")
        )

    @staticmethod
    def load(path: str) -> "PolynomialSuperpotential":
        with open(path, "r", encoding="utf-8") as fh:
            return PolynomialSuperpotential.from_json_dict(json.load(fh))

    def to_json_dict(self) -> dict:
        return {"coefficients": list(self.coefficients), "hbar": self.hbar, "name": self.name}


def turning_points(sp: PolynomialSuperpotential, E: float):
    """All roots of phi(x)^2 = E, split into the real classical pair and the
    excluded rest.  Roots are Newton-polished on phi^2 - E."""
    if E <= 0:
        raise NoClassicalRegionError(f"E = {E} is not above the well bottom")
    phi_c = np.asarray(sp.coefficients, dtype=float)
    p2 = np.polynomial.polynomial.polymul(phi_c, phi_c)
    p2[0] -= E
    roots = np.polynomial.polynomial.polyroots(p2)
    dp2 = np.polynomial.polynomial.polyder(p2)
    for _ in range(3):
        val = np.polynomial.polynomial.polyval(roots, p2)
        der = np.polynomial.polynomial.polyval(roots, dp2)
        step = np.where(np.abs(der) > 1e-300, val / np.where(der == 0, 1, der), 0.0)
        roots = roots - step
    scale = max(1.0, float(np.max(np.abs(roots))))
    is_real = np.abs(roots.imag) < 1e-9 * scale
    real_roots = np.sort(roots[is_real].real)
    pairs = []
    for i in range(len(real_roots) - 1):
        xl, xr = real_roots[i], real_roots[i + 1]
        mid = 0.5 * (xl + xr)
        if sp.phi(mid) ** 2 < E:
            pairs.append((xl, xr))
    if not pairs:
        raise NoClassicalRegionError(f"no real classical region at E = {E}")
    if len(pairs) > 1:
        raise AmbiguousRegionError(f"{len(pairs)} classical regions at E = {E}")
    xl, xr = pairs[0]
    if xr - xl < 1e-8 * scale:
        raise AmbiguousRegionError(f"nearly degenerate turning points at E = {E}")
    excluded = [complex(r) for r in roots if not (abs(r.imag) < 1e-9 * scale
                                                  and xl - 1e-12 * scale <= r.real <= xr + 1e-12 * scale)]
    return float(xl), float(xr), excluded


@lru_cache(maxsize=8)
def _unit_circle(samples: int, shift: float):
    """cos and sin of the angles 2 pi (j + shift) / samples, j < samples."""
    theta = 2.0 * np.pi * (np.arange(samples) + shift) / samples
    cos, sin = np.cos(theta), np.sin(theta)
    cos.flags.writeable = sin.flags.writeable = False
    return cos, sin


@dataclass(frozen=True)
class Contour:
    """Counterclockwise ellipse around the classical turning pair."""

    center: float
    a: float  # semi-axis along the real direction
    b: float  # semi-axis along the imaginary direction

    def points(self, samples: int, shift: float = 0.0):
        """``samples`` equispaced points and dz/dtheta; ``shift = 0.5`` gives
        the midpoints, i.e. the points that doubling ``samples`` adds."""
        cos, sin = _unit_circle(samples, shift)
        z = self.center + self.a * cos + 1j * self.b * sin
        dz = -self.a * sin + 1j * self.b * cos
        return z, dz

    def min_distance(self, w: complex, probe: int = 720) -> float:
        z, _ = self.points(probe)
        return float(np.min(np.abs(z - w)))

    def contains(self, w: complex) -> bool:
        return ((w.real - self.center) / self.a) ** 2 + (w.imag / self.b) ** 2 < 1.0


def build_contour(
    sp: PolynomialSuperpotential,
    E: float,
    aspect: float = DEFAULT_ASPECT,
    clearance: float = DEFAULT_CLEARANCE,
) -> Contour:
    """Ellipse enclosing exactly the real turning pair, with every excluded
    branch point at least ``clearance * a`` away from the curve.  The
    semi-major factor shrinks step by step when an excluded root is close."""
    xl, xr, excluded = turning_points(sp, E)
    center = 0.5 * (xl + xr)
    half_gap = 0.5 * (xr - xl)
    for factor in (1.25, 1.15, 1.08):
        a = factor * half_gap
        b = aspect * a
        c = Contour(center, a, b)
        ok = True
        for w in excluded:
            if c.contains(w) or c.min_distance(w) < clearance * a:
                ok = False
                break
        if ok:
            return c
    raise ContourError(
        f"no admissible contour at E = {E}: excluded branch points too close"
    )


@dataclass
class BranchState:
    """Continuation record for sqrt(u) along the sampled contour: the
    chosen root at every sample."""

    sqrt_u: np.ndarray

    def validate(self, u: np.ndarray):
        s = self.sqrt_u
        if np.any(np.abs(s * s - u) > 1e-10 * np.abs(u)):
            raise BranchTrackingError("tracked root does not square back to u")
        if np.any(np.real(s[1:] * np.conj(s[:-1])) < 0.0):
            raise BranchTrackingError("tracked root is not continuous sample-to-sample")


def track_sqrt_u(u: np.ndarray) -> BranchState:
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
    if s[0].imag < 0:
        s = -s
    return BranchState(s)


@dataclass(frozen=True)
class IntegralResult:
    value: complex
    samples_used: int

    def to_json_dict(self) -> dict:
        return {
            "value_re": self.value.real,
            "value_im": self.value.imag,
            "samples_used": self.samples_used,
        }


@dataclass(frozen=True, eq=False)
class IntegrandTable:
    """Several integrands compiled for one shared quadrature pass.

    The distinct monomials of all integrands are stored once, as exponent
    data over a stack of powers that is evaluated once per sample set and
    shared by every monomial and row.  Stack row 0 is the constant 1, then
    come phi^(orders[j])^a for a = 1..phi_top (row 1 + (a - 1) *
    len(orders) + j), then sqrt(u)^a for a = 1..s_top, then sqrt(u)^-a for
    a = 1..s_bottom.  Monomial m is E^e[m] times the product of the stack
    rows ``factor_index[m]`` (padded with row 0) and carries sqrt(u)^h[m].
    ``coeffs[r, m]`` is the coefficient of monomial m in integrand r.
    """

    orders: Tuple[int, ...]
    phi_top: int
    s_top: int
    s_bottom: int
    h: np.ndarray
    e: np.ndarray
    coeffs: np.ndarray
    factor_index: np.ndarray

    def monomial_sums(self, phi_vals: np.ndarray, s: np.ndarray, dz: np.ndarray) -> np.ndarray:
        """sum_j m(z_j) dz_j for every monomial m, without its E factor;
        ``phi_vals`` holds one row per entry of ``orders``.  Points are taken
        in blocks so that memory stays bounded at large sample counts."""
        n_phi = len(self.orders) * self.phi_top
        total = np.zeros(len(self.h), dtype=complex)
        for j in range(0, len(s), SUM_BLOCK):
            phi_b, s_b, dz_b = phi_vals[:, j:j + SUM_BLOCK], s[j:j + SUM_BLOCK], dz[j:j + SUM_BLOCK]
            stack = np.empty((1 + n_phi + self.s_top + self.s_bottom, len(s_b)), dtype=complex)
            stack[0] = 1.0
            _powers(phi_b, stack[1:1 + n_phi].reshape(self.phi_top, len(self.orders), len(s_b)))
            _powers(s_b, stack[1 + n_phi:1 + n_phi + self.s_top])
            _powers(1.0 / s_b, stack[1 + n_phi + self.s_top:])
            vals = stack[self.factor_index[:, 0]] * dz_b
            for col in self.factor_index.T[1:]:
                vals *= stack[col]
            total += vals.sum(axis=1)
        return total


def _powers(x: np.ndarray, out: np.ndarray):
    """out[a - 1] = x^a for a = 1..len(out), by repeated multiplication."""
    if len(out):
        out[0] = x
    for a in range(1, len(out)):
        np.multiply(out[a - 1], x, out=out[a])


def compile_integrands(exprs: Sequence[Expression]) -> IntegrandTable:
    """One table row per expression, over the union of their monomials."""
    monos = sorted({m for x in exprs for m in x.terms}, key=Monomial.sort_key)
    orders = tuple(sorted({k for m in monos for k, _ in m.derivs} | {0}))
    phi_top = max([0] + [a for m in monos for _, a in m.derivs])
    s_top = max([0] + [m.h for m in monos])
    s_bottom = max([0] + [-m.h for m in monos])
    col = {k: j for j, k in enumerate(orders)}

    def s_row(h: int) -> int:
        return len(orders) * phi_top + (h if h > 0 else s_top - h)

    index = [[1 + (a - 1) * len(orders) + col[k] for k, a in m.derivs]
             + ([s_row(m.h)] if m.h else []) for m in monos]
    factor_index = np.zeros((len(monos), max([1] + [len(ix) for ix in index])), dtype=int)
    for i, ix in enumerate(index):
        factor_index[i, :len(ix)] = ix
    pos = {m: i for i, m in enumerate(monos)}
    coeffs = np.zeros((len(exprs), len(monos)), dtype=complex)
    for r, x in enumerate(exprs):
        for m, c in x.terms.items():
            coeffs[r, pos[m]] = complex(c)
    return IntegrandTable(
        orders,
        phi_top,
        s_top,
        s_bottom,
        np.array([m.h for m in monos], dtype=int),
        np.array([m.e for m in monos], dtype=int),
        coeffs,
        factor_index,
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


def contour_integrate(
    integrands: Union[Expression, IntegrandTable],
    sp: PolynomialSuperpotential,
    E: float,
    tol: float = DEFAULT_TOL,
    contour: Optional[Contour] = None,
    check_real: bool = True,
    weights: Optional[Sequence[float]] = None,
) -> IntegralResult:
    """Closed-contour integrals of every row of ``integrands`` (a plain
    expression is a one-row table) on one contour and one sample set.

    Sample doubling is nested: level 2N evaluates only the N new midpoints
    and adds them to the running monomial sums; sqrt(u) is re-tracked over
    the whole loop.  Every row must change by less than ``tol`` between
    levels.  Quantization integrands are real up to branch-tracking noise;
    with ``check_real`` each row's imaginary part is required to stay below
    10 * tol (disable it to integrate deliberately non-real quantities).
    ``value`` is the ``weights``-weighted sum of the rows (all ones by
    default)."""
    table = integrands if isinstance(integrands, IntegrandTable) else compile_integrands([integrands])
    w = np.ones(len(table.coeffs)) if weights is None else np.asarray(weights, dtype=float)
    if contour is None:
        contour = build_contour(sp, E)
    coeffs = table.coeffs * float(E) ** table.e
    deriv_rows = _derivative_rows(sp, table.orders)
    samples = START_SAMPLES
    z, dz = contour.points(samples)
    phi_vals = _horner(deriv_rows, z)
    u = E - phi_vals[0] ** 2
    branch = track_sqrt_u(u)
    s = branch.sqrt_u
    sums = action0 = 0.0
    prev = None
    while True:
        sums = sums + table.monomial_sums(phi_vals, s, dz)
        action0 = action0 + np.sum(s * dz)
        # global sign: the leading action has positive real part
        flip = (-1.0) ** table.h if action0.real < 0 else 1.0
        rows = (2.0 * np.pi / samples) * np.sum(coeffs * (flip * sums), axis=1)
        if prev is not None and np.all(np.abs(rows - prev) < tol):
            bad = np.flatnonzero(np.abs(rows.imag) >= 10.0 * tol) if check_real else ()
            if len(bad):
                raise BranchTrackingError(
                    f"quantization integral {bad[0]} has imaginary part {rows[bad[0]].imag:.3e}"
                )
            branch.validate(u)
            return IntegralResult(complex(np.sum(w * rows)), samples)
        if 2 * samples > MAX_SAMPLES:
            raise ConvergenceError(f"contour integral did not converge within {MAX_SAMPLES} samples")
        prev = rows
        z, dz = contour.points(samples, shift=0.5)
        phi_vals = _horner(deriv_rows, z)
        fine_u = np.empty(2 * samples, dtype=complex)
        fine_u[0::2] = u
        fine_u[1::2] = E - phi_vals[0] ** 2
        fine = track_sqrt_u(fine_u)
        if np.array_equal(fine.sqrt_u[0::2], branch.sqrt_u):
            s = fine.sqrt_u[1::2]
        else:
            # the finer loop chose another branch at old samples: start over
            z, dz = contour.points(2 * samples)
            phi_vals = _horner(deriv_rows, z)
            s = fine.sqrt_u
            sums = action0 = 0.0
        u, branch, samples = fine_u, fine, 2 * samples
