"""Exact root systems of untwisted affine Lie superalgebras.

Everything is computed over the rationals (plus one formal parameter for
the one-parameter family), so membership, classification, and the
constructive procedures are exact rather than floating-point.
"""
from __future__ import annotations

from .affine import AffineRootSystem, build_affine
from .basefind import expand_in_base, find_base, highest_root, integer_expansion
from .errors import (
    AmbiguousSign,
    BasisMismatch,
    CaseMismatch,
    DependentRoots,
    DirectionNotDecidable,
    DivisionByZero,
    HypothesisViolated,
    IsotropicReflectionError,
    NoCompatibleBase,
    NonLinearQuotient,
    NotAFiniteRootSystem,
    NotARoot,
    NotAShadowPattern,
    NotRealRoot,
    NotUniformlyHybrid,
    OutsideSpan,
    OutsideWindow,
    RankError,
    SuperrootsError,
    TooFewSamples,
)
from .finite import (
    FiniteRootSet,
    FiniteTypeId,
    build_finite,
    check_supersystem_axioms,
    even_part_label,
    irreducible_components,
    parse_type_token,
    root_string,
)
from .intsets import IntegerSet
from .roots import (
    EVEN,
    KIND_IMAGINARY,
    KIND_NONSINGULAR,
    KIND_REAL,
    KIND_ZERO,
    ODD,
    AmbientBasis,
    Root,
    cartan_integer,
    reflect,
    root,
)
from .scalars import LAMBDA, ONE, ZERO, Scalar, scalar_div
from .shadows import (
    ClassShadow,
    Shadow,
    ShadowReport,
    anchored_hybrid,
    hybrid_class,
    induce_from_functional,
    tight_class,
    validate_shadow,
)
from .subsets import (
    Component,
    Decomposition,
    RootSubset,
    check_parabolic,
    component_parabolic,
    decompose,
    even_subset,
    full_lines_subset,
)
from .supports import (
    SupportComponent,
    SupportSet,
    is_bounded_direction,
    is_shift_stable,
)
from .tables import classification_report, discrepancies, golden_classification
from .zeta import (
    BaseChoice,
    LinearFunctional,
    ZetaResult,
    construct_zeta,
    select_base,
    verify_zeta,
)

__version__ = "0.1.0"
