"""Almost periodic infinite words: constructions, finite-state machinery,
marker splits and the reversible-automaton reduction, and brute-force
verification oracles at desk scale."""

from importlib import import_module as _import_module

from .errors import (
    AlphabetError,
    ApwordsError,
    FiniteOutputError,
    InvariantViolation,
    ResourceLimitError,
    SchemeError,
    SpecParseError,
)

# Every other public name, by the module that defines it.  A name is imported
# on first use (PEP 562), so a CLI process loads only the modules its
# subcommand runs.  Nothing is cached here: each lookup returns the module's
# current attribute, so a name patched in its module reads patched here too.
_EXPORTS = {
    "words": (
        "BINARY", "Alphabet", "FuncSequence", "SchemeSpec", "SequenceHandle",
        "SpecNode", "StreamSequence", "TauSpec", "Word", "complement",
        "make_sequence", "parse_scheme_file", "parse_spec", "periodic", "prepend",
        "product", "projections", "quintuple_limit", "read", "scheme_generate",
        "scheme_validate", "thm21", "thm21_block", "thm21_tau", "thue_morse",
        "tm_block", "tm_triple_fixture", "word",
    ),
    "regulators": (
        "Regulator", "identity_plus", "linear", "load_table_regulator",
        "table_regulator", "parse_regulator", "periodic_regulator", "pointwise_max",
        "reg_iterated_bound", "reg_reversible_distance", "reg_split", "reg_thm21",
        "scaled",
    ),
    "automata": (
        "Automaton", "Homomorphism", "ReductionReport", "ReductionStep",
        "SplitResult", "Transducer", "automaton_text", "block_automaton",
        "cyclic_automaton", "hom_apply", "homomorphism_text", "infinite_letters",
        "is_reversible", "letter_images", "load_automaton", "load_homomorphism",
        "load_transducer", "reduce_to_reversible", "run", "split",
        "transducer_decompose", "transducer_run",
    ),
    "analysis": (
        "Counterexample", "EmpiricalRegulator", "Verdict", "check_regulator",
        "check_sap", "default_cut_grid", "empirical_regulator", "is_cube_free",
        "occurrences", "pr_upper_estimate", "verdict_fields", "verdict_tsv",
    ),
}
_MODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(
    [name for name in globals() if not name.startswith("_")] + [*_EXPORTS, *_MODULE]
)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    if name not in _MODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f"{__name__}.{_MODULE[name]}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
