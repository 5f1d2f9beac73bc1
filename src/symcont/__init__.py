"""Exact classification of functions on representable subsets of the reals
by pointwise, uniform, symmetric, and uniform symmetric continuity."""

from .analysis import (
    AnalysisConfig,
    ModulusProfile,
    RefutingSequence,
    SequenceReport,
    TransferReport,
    Verdict,
    apply_implications,
    check_consistency,
    check_wrt_subset,
    classify,
    modulus_profile,
    sym_oscillation,
    uc_oscillation,
    uniform_limit_transfer,
    verify_refuting_sequence,
    verify_witness,
)
from .domains import (
    Domain,
    FinitePoints,
    IntegerWindow,
    IntervalPiece,
    IntervalUnion,
    MergeResult,
    NaturalReciprocals,
    OddPrimeReciprocals,
    Staircase,
    TruncatedRationals,
    UnionOf,
    merge_interval_components,
    staircase_breakpoints,
)
from .errors import (
    ConfigurationError,
    DomainError,
    ExactnessError,
    InapplicableError,
    ParseError,
    SymcontError,
)
from .exactnum import (
    ONE,
    SQRT2,
    ZERO,
    QuadExt,
    Rational,
    as_quadext,
    compare,
    format_quadext,
    format_rational,
    midpoint,
    parse_quadext,
    parse_rational,
)
from .functions import (
    Affine,
    BoundReport,
    Combined,
    Const,
    Formula,
    FuncPiece,
    FuncSpec,
    Identity,
    Monomial,
    Piecewise,
    Reciprocal,
    bounded_on,
    describe_function,
    evaluate,
    one_sided_limits,
    scale,
    sup_abs_diff,
)
from .specfile import ParsedSpec, parse_spec

# the paper's catalog (symcont.zoo), imported on first use so that importing
# symcont does not compile it
_ZOO_NAMES = (
    "Budget",
    "CaseReport",
    "ExampleCase",
    "PaperExample",
    "ZooReport",
    "build_example",
    "get_example",
    "list_ids",
    "midpoint_contrast_naturals",
    "midpoint_exclusion_primes",
    "run_all",
    "run_example",
    "verify_staircase_proof",
)


def __getattr__(name: str):
    if name in _ZOO_NAMES:
        from . import zoo

        return getattr(zoo, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"
