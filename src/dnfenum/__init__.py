"""Model enumeration for DNF formulas, with instrumented delay measurement.

The enumerators all share one contract: ``enum_*(instance, *, counter=None)``
does its precomputation eagerly, then returns an iterator of int model masks
(variable v at bit n-v).  Work is tallied on the StepCounter, and
:func:`measure` turns a run into per-output delay statistics.
"""

from .avg import MODE_FAST, MODE_SLOW, enum_avg, min_models_bound
from .classic import enum_flashlight, enum_union_ordered, enum_union_priority
from .core import (
    BRUTE_FORCE_MAX_VARS,
    Dnf,
    DnfFormatError,
    Term,
    all_terms,
    bits_from_mask,
    brute_force_models,
    dumps_dnf,
    lit_index,
    make_term,
    mask_from_bits,
    parse_dnf,
    satisfies,
)
from .graycode import GrayState, enum_single_term_dnf, enum_term_models
from .instances import generate
from .instrument import DelayStats, StepCounter, measure
from .kdnf import KdnfConfig, enum_kdnf, enum_kdnf_hybrid, step_constant
from .monotone import (
    MonotoneDnf,
    enum_monotone_avg,
    enum_monotone_log,
    enum_monotone_rs,
    minimize_monotone,
    normalize_unate,
)
from .setunion import (
    SetFamily,
    brute_force_unions,
    dumps_sets,
    enum_unions,
    parse_sets,
)
from .trie import TermTrie, Trie

__version__ = "0.1.0"

__all__ = [
    "BRUTE_FORCE_MAX_VARS",
    "DelayStats",
    "Dnf",
    "DnfFormatError",
    "GrayState",
    "KdnfConfig",
    "MODE_FAST",
    "MODE_SLOW",
    "MonotoneDnf",
    "SetFamily",
    "StepCounter",
    "Term",
    "TermTrie",
    "Trie",
    "all_terms",
    "bits_from_mask",
    "brute_force_models",
    "brute_force_unions",
    "dumps_dnf",
    "dumps_sets",
    "enum_avg",
    "enum_flashlight",
    "enum_kdnf",
    "enum_kdnf_hybrid",
    "enum_monotone_avg",
    "enum_monotone_log",
    "enum_monotone_rs",
    "enum_single_term_dnf",
    "enum_term_models",
    "enum_union_ordered",
    "enum_union_priority",
    "enum_unions",
    "generate",
    "lit_index",
    "make_term",
    "mask_from_bits",
    "measure",
    "min_models_bound",
    "minimize_monotone",
    "normalize_unate",
    "parse_dnf",
    "parse_sets",
    "satisfies",
    "step_constant",
]
