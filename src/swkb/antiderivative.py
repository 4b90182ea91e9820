"""Total-derivative certificates by exact linear solving over a graded ansatz.

d/dx raises the derivative weight (sum of k * exp_k) by exactly 1 and
preserves the scaling grade (symbol = 1 resp. 2, u and E = 2), so an
antiderivative of a bigraded component (w, g) can only live in the finite
set of canonical monomials with weight w - 1 and grade g.  Within that set
the u half-power is pinned by the grade once the E-exponent and symbol
count are chosen, which keeps the candidate bases small enough for dense
exact elimination.

A returned certificate Y always satisfies differentiate(Y) == input
exactly (re-checked before returning); absence is reported only after the
exponent windows have been widened ``max_widen`` times.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .algebra import Expression, Monomial, Ring
from .errors import StructuralTheoremViolation
from .gaussian import GR_ZERO, GaussianRational


def _partitions(n: int, max_part: int):
    """Partitions of n into parts in [1, max_part], as descending tuples."""
    if n == 0:
        yield ()
        return
    if max_part < 1:
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _bigrade_components(a: Expression) -> Dict[Tuple[int, int], Expression]:
    buckets: Dict[Tuple[int, int], list] = {}
    for m, c in a.terms.items():
        buckets.setdefault((m.weight(), m.gdeg(a.ring)), []).append((m, c))
    return {key: Expression(a.ring, pairs) for key, pairs in buckets.items()}


def candidate_monomials(
    a: Expression, widen: int = 0, weight: Optional[int] = None, gdeg: Optional[int] = None
) -> List[Monomial]:
    """Ansatz monomials whose derivative can overlap ``a``.

    Windows: derivative orders up to the maximum in ``a``; E-exponents in
    [min_e-1, max_e+1]; u half-powers in [min_h-1, max_h+2]; both windows
    grow by ``widen`` on each side.  ``weight``/``gdeg`` select a single
    bigraded component (default: the component grades of ``a`` itself,
    which must then be homogeneous).
    """
    ring = a.ring
    if weight is None:
        (weight,) = a.weights()
    if gdeg is None:
        (gdeg,) = a.gdegs()
    wt = weight - 1
    if wt < 0:
        return []
    maxk = max(a.max_deriv_order(), 1)
    e_lo = a.min_e_degree() - 1 - widen
    e_hi = a.max_e_degree() + 1 + widen
    h_lo = a.min_h() - 1 - widen
    h_hi = a.max_h() + 2 + widen
    out: List[Monomial] = []
    for part in _partitions(wt, maxk):
        counts: Dict[int, int] = {}
        for k in part:
            counts[k] = counts.get(k, 0) + 1
        nfac = len(part)
        for a0 in range(ring.relation_power):
            derivs = dict(counts)
            if a0:
                derivs[0] = derivs.get(0, 0) + a0
            for e in range(e_lo, e_hi + 1):
                h = gdeg - ring.sym_gdeg * (nfac + a0) - 2 * e
                if h_lo <= h <= h_hi:
                    out.append(Monomial(derivs.items(), h=h, e=e))
    out.sort(key=lambda m: m.sort_key())
    return out


def _solve_exact(
    columns: List[Dict[Monomial, Fraction]],
    rhs_re: Dict[Monomial, Fraction],
    rhs_im: Dict[Monomial, Fraction],
) -> Optional[List[GaussianRational]]:
    """Solve sum_j c_j * col_j = rhs over the rationals (both components).

    Dense Gaussian elimination on the (rows x cols) system; free variables
    are set to zero.  Returns None when inconsistent.
    """
    row_index: Dict[Monomial, int] = {}
    for col in columns:
        for m in col:
            row_index.setdefault(m, len(row_index))
    for m in list(rhs_re) + list(rhs_im):
        row_index.setdefault(m, len(row_index))
    nrows, ncols = len(row_index), len(columns)
    mat = [[Fraction(0)] * (ncols + 2) for _ in range(nrows)]
    for j, col in enumerate(columns):
        for m, v in col.items():
            mat[row_index[m]][j] = v
    for m, v in rhs_re.items():
        mat[row_index[m]][ncols] = v
    for m, v in rhs_im.items():
        mat[row_index[m]][ncols + 1] = v

    pivot_of_col: Dict[int, int] = {}
    prow = 0
    for col in range(ncols):
        sel = None
        for r in range(prow, nrows):
            if mat[r][col] != 0:
                sel = r
                break
        if sel is None:
            continue
        mat[prow], mat[sel] = mat[sel], mat[prow]
        inv = 1 / mat[prow][col]
        mat[prow] = [v * inv for v in mat[prow]]
        for r in range(nrows):
            if r != prow and mat[r][col] != 0:
                f = mat[r][col]
                row_r, row_p = mat[r], mat[prow]
                mat[r] = [vr - f * vp for vr, vp in zip(row_r, row_p)]
        pivot_of_col[col] = prow
        prow += 1
        if prow == nrows:
            break
    for r in range(prow, nrows):
        if mat[r][ncols] != 0 or mat[r][ncols + 1] != 0:
            return None
    sol = [GR_ZERO] * ncols
    for col, r in pivot_of_col.items():
        sol[col] = GaussianRational(mat[r][ncols], mat[r][ncols + 1])
    return sol


def _solve_component(comp: Expression, widen: int) -> Optional[Expression]:
    ring = comp.ring
    cands = candidate_monomials(comp, widen=widen)
    columns: List[Dict[Monomial, Fraction]] = []
    kept: List[Monomial] = []
    for m in cands:
        d = Expression(ring, [(m, GaussianRational(1))]).differentiate()
        if d.is_zero():
            continue
        col: Dict[Monomial, Fraction] = {}
        for mm, cc in d.terms.items():
            # derivatives of a unit-coefficient monomial stay real
            col[mm] = cc.re
        columns.append(col)
        kept.append(m)
    if not columns:
        return None
    rhs_re = {m: c.re for m, c in comp.terms.items() if c.re != 0}
    rhs_im = {m: c.im for m, c in comp.terms.items() if c.im != 0}
    sol = _solve_exact(columns, rhs_re, rhs_im)
    if sol is None:
        return None
    return Expression(ring, [(m, c) for m, c in zip(kept, sol) if not c.is_zero()])


def antiderivative(a: Expression, max_widen: int = 3) -> Optional[Expression]:
    """Return Y with differentiate(Y) == a, or None when the widened ansatz
    has no solution.  A returned Y is always a sound certificate."""
    if a.is_zero():
        return Expression.zero(a.ring)
    parts: List[Expression] = []
    for comp in _bigrade_components(a).values():
        y = None
        for widen in range(max_widen + 1):
            y = _solve_component(comp, widen)
            if y is not None:
                break
        if y is None:
            return None
        parts.append(y)
    total = parts[0]
    for p in parts[1:]:
        total = total + p
    if total.differentiate() != a:
        raise StructuralTheoremViolation("certificate failed re-check")
    return total


def is_total_derivative(a: Expression, max_widen: int = 3) -> bool:
    return antiderivative(a, max_widen=max_widen) is not None
