"""Model enumeration for DNF formulas, with instrumented delay measurement.

The enumerators all share one contract: ``enum_*(instance, *, counter=None)``
does its precomputation eagerly, then returns an iterator of int model masks
(variable v at bit n-v).  Work is tallied on the StepCounter, and
:func:`measure` turns a run into per-output delay statistics.
"""

import importlib

#: the module that defines each exported name.  A name's module is imported
#: the first time the name is asked for (PEP 562), so importing the package,
#: or one of its modules, loads no enumerator that the caller does not use
_EXPORTS = {
    "avg": "enum_avg min_models_bound",
    "classic": "enum_flashlight enum_union_ordered enum_union_priority",
    "core": "BRUTE_FORCE_MAX_VARS Dnf DnfFormatError MODE_FAST MODE_SLOW Term all_terms"
    " bits_from_mask brute_force_models dumps_dnf lit_index make_term mask_from_bits parse_dnf"
    " satisfies",
    "graycode": "GrayState enum_single_term_dnf enum_term_models",
    "instances": "generate",
    "instrument": "DelayStats StepCounter measure",
    "kdnf": "KdnfConfig enum_kdnf enum_kdnf_hybrid step_constant",
    "monotone": "MonotoneDnf enum_monotone_avg enum_monotone_log enum_monotone_rs"
    " minimize_monotone normalize_unate",
    "setunion": "SetFamily brute_force_unions dumps_sets enum_unions parse_sets",
    "trie": "TermTrie Trie",
}
_HOME = {name: mod for mod, names in _EXPORTS.items() for name in names.split()}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{home}", __name__), name)
    return value
