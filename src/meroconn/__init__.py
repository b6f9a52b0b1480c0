"""Toolkit for meromorphic connections on the projective line.

Exact arithmetic over the Gaussian rationals and the rational function
field, splitting types and pole divisors, connection validation, Wronskian
and cyclic-vector machinery with certified generation bounds, and numerical
monodromy with irreducibility verdicts.
"""

from .bundle import (
    INF,
    Divisor,
    Section,
    SplittingType,
    chern,
    parse_divisor,
    pole_profile,
    section_space_basis,
)
from .connection import (
    Connection,
    LocalData,
    ValidationReport,
    covariant_derivative,
    covariant_jet,
    det_connection,
    dual_connection,
    local_data,
    validate,
)
from .errors import (
    DegenerateJet,
    InvalidArgument,
    NotASingularPoint,
    NotCyclic,
    ParseError,
    PoleOutsideAllowedSet,
    SingularMatrix,
    StepUnderflow,
    ToolkitError,
    ValidationFailed,
    ZeroFunction,
    ZeroPolynomial,
    ZeroSection,
)
from .exactalg import (
    GaussRat,
    Poly,
    RatFun,
    det_ratfun,
    infinity_degree,
    laurent_coefficients,
    max_zero_multiplicity,
    parse_gaussrat,
    parse_ratfun,
    rational_roots,
    residue,
    solve_linear,
    squarefree_decompose,
    valuation,
)
from .fixtures import fixture, fixture_file, fixture_names
from .monodromy import (
    Arc,
    IrreducibilityVerdict,
    Line,
    MonodromyReport,
    PathSpec,
    PeriodJet,
    TransportDiagnostics,
    achieve_multiplicity,
    achieve_with_jet,
    default_base,
    irreducibility_check,
    loop_paths,
    monodromy_generators,
    period_jet,
    transport,
)
from .wronskian import (
    ApparentRecord,
    ApparentReport,
    HBoundReport,
    ResidueCheckRecord,
    ScalarODE,
    apparent_singularities,
    cyclic_reduce,
    estimate_H,
    fuchs_check,
    generation_bound,
    generation_index_at,
    h_bound,
    iterated,
    ode_residual,
    residue_identity_check,
    spanning_sections,
    wronskian_determinant,
)

__version__ = "0.1.0"
