"""Exact probability intervals for propositional formulas.

Two dual ways of attaching partial probabilistic knowledge to a finite
propositional language, a common interval query, translations in both
directions that preserve every formula's interval, and an exact
equivalence checker.
"""

from .measure import measure

__version__ = "0.1.0"

# Each public name, by the submodule that defines it.  A name is imported on
# first use, so a process loads only the modules it touches.  `measure` is
# bound above instead: importing the submodule `probstruct.measure` sets it as
# an attribute of the package, which would hide a lazily bound function.
_SOURCES = {
    "errors": (
        "DocumentError",
        "FormulaSyntaxError",
        "LanguageMismatchError",
        "NotMeasurableError",
        "NotTotalError",
        "ProbstructError",
        "UndefinedIncidenceError",
        "UnknownPropositionError",
        "ValidationError",
        "WrongKindError",
    ),
    "logic": (
        "Formula",
        "FormulaAlgebra",
        "Language",
        "basis_of",
        "false_formula",
        "format_formula",
        "full_algebra",
        "generate_algebra",
        "parse_formula",
        "trivial_algebra",
        "true_formula",
    ),
    "measure": (
        "MeasureFn",
        "ProbabilitySpace",
        "SampleSpace",
        "SetAlgebra",
        "WorldSet",
        "discrete_algebra",
        "format_rational",
        "inner_measure",
        "parse_rational",
    ),
    "structures": (
        "IncidenceMap",
        "Interval",
        "ProbabilityStructure",
        "StructureKind",
        "ValidationReport",
        "bel",
        "incidence",
        "interval",
        "is_total",
        "lower_incidence",
        "mobius_mass",
        "plb",
        "upper_incidence",
        "validate",
    ),
    "translate": (
        "EquivalenceReport",
        "GenParams",
        "ds_to_ic",
        "equivalent",
        "ic_to_ds",
        "random_ic",
        "random_total_ds",
        "round_trip_check",
    ),
    "docio": ("from_json", "load", "save", "to_json"),
    "fixtures": ("FIXTURES", "coats_ds", "coats_ic"),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = sorted([*_MODULE_OF, "measure"])


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
