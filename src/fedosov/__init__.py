"""Exact symbolic engine for Fedosov-type deformation quantization on
flat phase spaces: the fiberwise Weyl product, the graded calculus, the
recursive Abelian connection, flat sections and the induced star product,
plus the closed-form 2D coefficient machinery.

All arithmetic is exact (Fraction, with powers of nu = i*hbar stored for
hbar, and Gaussian rationals where a value carries i); nothing here floats.
"""

from .abelian import (
    AbelianCorrection,
    CheckReport,
    FinitenessResult,
    FlatSection,
    abelian_r,
    check_abelian,
    finiteness_test,
    flat_section,
    flatness_residual,
    star,
    star_hbar,
)
from .calculus import covariant_d, delta, delta_inv, ext_d, hodge_split
from .geometry import (
    ConnectionSpec,
    CurvatureTensor,
    ManifoldSpec,
    ValidationError,
    ValidationReport,
    curvature_form,
    curvature_tensor,
    gamma_form,
    standard_omega_lower,
    validate,
)
from .manifest import (
    ExprError,
    Manifest,
    ManifestError,
    load_manifest,
    parse_manifest,
    parse_poly,
    parse_scalar,
    series_from_records,
    series_to_records,
)
from .poly import BasePolynomial, format_poly
from .scalars import GaussianRational, format_scalar
from .twodim import (
    CascadeError,
    CascadeResult,
    CoefficientTable,
    SquareCheckResult,
    cascade_solve,
    f_coeff,
    g_coeff,
    monomial_circ,
    random_table,
    square_check,
)
from .weyl import (
    DivisibilityError,
    TruncationError,
    WeylAlgebra,
    WeylSeries,
    WeylTerm,
    div_ihbar,
    format_series,
    sigma,
    wedge_normalize,
)

__version__ = "0.1.0"
