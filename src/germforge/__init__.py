"""Exact computations with finitely generated groups of polynomial jet germs.

Importing the package loads none of its modules.  Each public name below is
resolved on first access (PEP 562): `__getattr__` imports the name's home
module from `_EXPORTS` and caches the value here, so `germforge.field`
compiles `cyclo` alone and `germforge.holonomy_check` brings in `moebius`
and, on its first call, `groupkit`.  The modules themselves are reached as
attributes too (`germforge.jets`), and are imported on first access.

Without a bytecode cache every module a call loads is compiled at each
start, so the element types are kept apart from their operations: `GermJet`
is in `jetform` and `MoebiusMap` in `mapform`, which are all that parsing a
document needs, while `jets` and `moebius` hold the operations and
re-export the types.  The methods of the types that need an operation
(`GermJet.compose`, `MoebiusMap.order`, ...) call it as
`germforge.jets.compose`: `__getattr__` imports the module on the first
call, and later calls find it bound on the package.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "cyclo": (
        "CoefficientParseError", "CycloField", "CycloNum", "FieldMismatchError",
        "cyclotomic_polynomial", "field", "format_coefficient", "parse_coefficient",
        "root_of_unity_order",
    ),
    "jetform": ("GermJet", "ShapeMismatchError"),
    "jets": (
        "OrderResult", "char_poly", "compose", "conjugate", "germ_order", "invert",
        "linear_order", "power",
    ),
    "resonance": (
        "NormalizationResult", "ResonanceRecord", "enumerate_resonances",
        "homological_solve", "poincare_dulac_normalize",
    ),
    "groupkit": (
        "AffineFamily", "BasicSetReport", "ClosureResult", "GroupPresentation",
        "LinearizationFailure", "LinearizationSuccess", "WitnessResult",
        "affine_conjugacy_decide", "check_basic_set", "check_product_identity",
        "closure_enumerate", "evaluate_word", "find_conjugacy_witness", "is_cyclic",
        "linearize_group",
    ),
    "mapform": ("MoebiusMap",),
    "moebius": (
        "HolonomyVerdict", "cyclo_sqrt", "holonomy_check", "moebius_compose", "moebius_order",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_MODULES = frozenset(("cli", "corpus", "documents", "words", *_EXPORTS))

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _MODULES:
        return import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _HOME.keys() | _MODULES)
