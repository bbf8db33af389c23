"""Structural controllability and accessibility checks for drifted bilinear
systems over SO(n), GL+(n) and SU(n), with an exact Lie-algebra rank oracle."""

from .algebra import (
    AlgebraElement,
    AlgebraKind,
    BasisElement,
    Family,
    SpanBasis,
    bracket,
    bracket_via_matrices,
    canonical_basis,
    contains_sl,
    decompose,
    gl,
    lie_closure,
    so,
    su,
    to_matrix,
)
from .errors import (
    EmptyGenerators,
    EmptyPool,
    HasSelfLoop,
    KindMismatch,
    MembershipError,
    NotSimple,
    ParseError,
    SizeMismatch,
    StructconError,
    ValidationError,
)
from .graphs import Color, ColoredMultigraph, Digraph, UndirectedGraph
from .patterns import (
    DEFAULT_POOL,
    ControlPattern,
    DriftPattern,
    ZeroPatternPair,
    control_generators,
    drift_is_basis_subset,
    sample_drift,
)
from .verdict import (
    ConditionEval,
    GeneratedGl,
    OracleReport,
    Report,
    Verdict,
    check,
    check_generated_gl,
    check_generated_so,
    check_generated_su,
    check_gl,
    check_so,
    check_su,
    cross_validate,
    oracle,
)

__version__ = "0.1.0"
