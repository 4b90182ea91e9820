"""Exact toolkit for the supersymmetric semiclassical series: generation to
arbitrary order, structural theorems verified by exact computation, and a
numerical quantization layer with an independent eigensolver oracle."""

from .algebra import (
    Expression,
    Monomial,
    PHI_RING,
    Ring,
    V_RING,
    E_pow,
    F_factor,
    const,
    i_times,
    phi,
    u_half,
)
from .antiderivative import antiderivative
from .gaussian import GaussianRational, gr
from .oracle import GridSpec, default_grid, eigenvalues, oracle_eigenvalues
from .quadrature import (
    Contour,
    IntegralResult,
    PolynomialSuperpotential,
    build_contour,
    contour_integrate,
    turning_points,
)
from .reduction import (
    QuantizationCondition,
    ReducedCorrection,
    decompose,
    known_integrand_order2,
    known_integrand_order4,
    quantization_integrands,
    reduce_even_order,
    reduce_via_pbar,
    residual_sweep,
)
from .series import (
    HbarSeries,
    LSequence,
    SplitSeries,
    check_l_identity,
    generate_series,
    generating_system_check,
    imag_relation_check,
    l_sequence,
    partner_via_imag_shift,
    partner_via_log_identity,
    pbar_series,
    split_series,
)
from .spectrum import (
    Condition,
    SpectrumReport,
    action,
    build_conditions,
    compare_report,
    solve_level,
)
from .wkb import (
    Substitution,
    simplify_wkb_condition,
    wkb_series,
    wkb_series_and_substitute,
)

__version__ = "0.1.0"
