"""Exception types shared across the package."""


class SwkbError(Exception):
    """Base class for all package-specific errors."""


class PoleError(SwkbError):
    """Numerical evaluation hit a pole (u = 0 with a negative half-power,
    or E = 0 with a negative E-exponent)."""


class UndefinedDegreeError(SwkbError):
    """min_e_degree / u_parity requested for the zero expression."""


class StructuralTheoremViolation(SwkbError):
    """An exact structural property (E-divisibility, certified reduction
    equivalence) failed.  Always indicates a bug or a broken invariant,
    never a tolerance issue."""


class NoClassicalRegionError(SwkbError):
    """E - phi^2 has no real turning-point pair: energy below the well."""


class AmbiguousRegionError(SwkbError):
    """More than one classically allowed region, or nearly degenerate
    turning points; the single-well contour construction does not apply."""


class BranchTrackingError(SwkbError):
    """sqrt(u) continuation around the contour failed its consistency
    checks, or a quantization integral came out non-real."""


class ConvergenceError(SwkbError):
    """Sample doubling or a root bracket exhausted its budget."""


class DomainTooSmallError(SwkbError):
    """Oracle eigenvector does not decay at the grid boundary."""


class ResolutionError(SwkbError):
    """Oracle levels did not settle on any grid below the point cap."""


class OutOfValidatedRangeError(SwkbError):
    """Energy below the validated range (turning points about to coalesce)."""
