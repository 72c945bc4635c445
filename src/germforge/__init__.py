"""Exact computations with finitely generated groups of polynomial jet germs."""

from .cyclo import (
    CoefficientParseError,
    CycloField,
    CycloNum,
    EmbeddingError,
    FieldMismatchError,
    cyclotomic_polynomial,
    embed_to_conductor,
    field,
    format_coefficient,
    parse_coefficient,
    root_of_unity_order,
)
from .jets import (
    GermJet,
    OrderResult,
    ShapeMismatchError,
    char_poly,
    compose,
    conjugate,
    germ_order,
    invert,
    linear_order,
    power,
)
from .resonance import (
    NormalizationResult,
    ResonanceRecord,
    enumerate_resonances,
    homological_solve,
    poincare_dulac_normalize,
)
from .groupkit import (
    AffineFamily,
    BasicSetReport,
    ClosureResult,
    GroupPresentation,
    LinearizationFailure,
    LinearizationSuccess,
    WitnessResult,
    affine_conjugacy_decide,
    check_basic_set,
    check_product_identity,
    closure_enumerate,
    evaluate_word,
    find_conjugacy_witness,
    is_cyclic,
    linearize_group,
    slice_morphism_report,
)
from .moebius import (
    ExtensionRequiredError,
    HolonomyVerdict,
    MoebiusMap,
    ProjectivePoint,
    cyclo_sqrt,
    fixed_points,
    germ_at_fixed_point,
    holonomy_check,
    moebius_compose,
    moebius_order,
)

__version__ = "0.1.0"
