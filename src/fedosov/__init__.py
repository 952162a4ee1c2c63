"""Exact symbolic engine for Fedosov-type deformation quantization on
flat phase spaces: the fiberwise Weyl product, the graded calculus, the
recursive Abelian connection, flat sections and the induced star product.
The closed-form 2D square and cascade machinery is imported on its own,
from fedosov.twodim.

All arithmetic is exact; nothing here floats.  Weyl series store int
numerators over one denominator; base polynomials and the public scalars
are Fraction, or GaussianRational where a value carries i.
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
    star,
)
from .calculus import covariant_d, delta, delta_inv, ext_d
from .geometry import (
    ConnectionSpec,
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
    series_to_records,
)
from .poly import BasePolynomial, format_poly
from .scalars import GaussianRational, format_scalar
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
