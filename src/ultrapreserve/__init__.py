"""Tools for deciding which distance transforms preserve ultrametric
structure, synthesizing counterexample spaces when they do not, and building
finite samples of the universal ultrametric constructions."""

__version__ = "0.1.0"

from .classify import (
    ClassificationReport,
    check_minmax_equation,
    check_triplet_preservation,
    classification_report,
    classify_strongly_preserving,
    classify_ultrametric_preserving,
    find_minmax_violation,
)
from .expr import FunctionSpec
from .generators import (
    LevelSequence,
    UniversalPoint,
    dplus2_space,
    dplus_space,
    random_ultrametric,
    tbu_noncompact_truncation,
    triangle_equilateral,
    triangle_isosceles,
)
from .matrix_io import load_space, save_space, space_from_dict, space_to_dict
from .parser import parse_function_file, parse_function_spec
from .properties import (
    InfimumBound,
    PropertyVerdict,
    Status,
    check_amenable,
    check_continuous_at_zero,
    check_increasing,
    check_subadditive,
    inf_on_positive,
)
from .spaces import (
    FiniteSemimetricSpace,
    TripleViolation,
    apply_function,
    are_isometric_small,
    covering_number,
    distance_spectrum,
    is_metric,
    is_ultrametric,
    min_positive_distance,
    minimum_covering_number,
    validate_space,
)
from .suite import SuiteConfig, SuiteReport, run_suite
from .witnesses import (
    WitnessCertificate,
    embed_three_point_tbu,
    embed_three_point_universal,
    verify_certificate,
    witness_not_strongly_preserving,
    witness_not_ultrametric_preserving,
)

__all__ = [
    "__version__",
    "ClassificationReport",
    "FiniteSemimetricSpace",
    "FunctionSpec",
    "InfimumBound",
    "LevelSequence",
    "PropertyVerdict",
    "Status",
    "SuiteConfig",
    "SuiteReport",
    "TripleViolation",
    "UniversalPoint",
    "WitnessCertificate",
    "apply_function",
    "are_isometric_small",
    "check_amenable",
    "check_continuous_at_zero",
    "check_increasing",
    "check_minmax_equation",
    "check_subadditive",
    "check_triplet_preservation",
    "classification_report",
    "classify_strongly_preserving",
    "classify_ultrametric_preserving",
    "covering_number",
    "distance_spectrum",
    "dplus2_space",
    "dplus_space",
    "embed_three_point_tbu",
    "embed_three_point_universal",
    "find_minmax_violation",
    "inf_on_positive",
    "is_metric",
    "is_ultrametric",
    "load_space",
    "min_positive_distance",
    "minimum_covering_number",
    "parse_function_file",
    "parse_function_spec",
    "random_ultrametric",
    "run_suite",
    "save_space",
    "space_from_dict",
    "space_to_dict",
    "tbu_noncompact_truncation",
    "triangle_equilateral",
    "triangle_isosceles",
    "validate_space",
    "verify_certificate",
    "witness_not_strongly_preserving",
    "witness_not_ultrametric_preserving",
]
