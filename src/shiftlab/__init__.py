"""Workbench for symbolic dynamics on one-sided subshifts: language counting
and entropy bounds, spacing and beta shift families, integer-set density
calculus, and distribution-function chaos analysis."""

from .core import (
    Alphabet,
    EventuallyPeriodicPoint,
    Word,
    format_point,
    parse_point,
    periodic_point,
    word,
)
from .errors import (
    AlphabetMismatch,
    PreconditionError,
    ResourceCapExceeded,
    SearchFailure,
    ShiftlabError,
    SpecParseError,
    SpecValidationError,
)
from .langkit import (
    SubshiftSpec,
    contains_word,
    count_language,
    counting_shift,
    entropy_estimates,
    enumerate_language,
    forbidden_shift,
    full_shift,
    max_symbol_count,
    parse_shift_spec,
)
from .sets import parse_set_expr

__version__ = "0.1.0"

__all__ = [
    "Alphabet", "EventuallyPeriodicPoint", "Word", "format_point",
    "parse_point", "periodic_point", "word",
    "AlphabetMismatch", "PreconditionError",
    "ResourceCapExceeded", "SearchFailure", "ShiftlabError",
    "SpecParseError", "SpecValidationError",
    "SubshiftSpec", "contains_word", "count_language", "counting_shift",
    "entropy_estimates", "enumerate_language", "forbidden_shift",
    "full_shift", "max_symbol_count", "parse_shift_spec",
    "parse_set_expr",
    "__version__",
]
