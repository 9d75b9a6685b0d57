"""foldsat: a symbolic engine and finite-model checker for FOLDS
signatures, generated isomorphism formulas, saturation and structure
equivalence.

Each name below is imported from its module on first use (PEP 562), so
a command loads only the modules it runs."""

__version__ = "0.1.0"

__all__ = [
    "FoldsError", "FinStructure", "card_iso_elems", "check_saturation",
    "eval_card", "eval_prop", "fiber", "satisfies", "saturation_profile",
    "validate_structure", "Hom", "Span", "find_span", "hsip_decide",
    "is_fibsurj", "structure_iso", "ind", "iso_formula", "sort_equiv",
    "pformat", "Signature", "validate_signature", "builtin_signature",
    "tcat_axioms", "Variable", "mk_var", "__version__",
]

_HOME = {name: module for module, names in (
    ("errors", "FoldsError"),
    ("finsem", "FinStructure card_iso_elems check_saturation eval_card "
               "eval_prop fiber satisfies saturation_profile "
               "validate_structure"),
    ("homspan", "Hom Span find_span hsip_decide is_fibsurj structure_iso"),
    ("isogen", "ind iso_formula sort_equiv"),
    ("pretty", "pformat"),
    ("sigcore", "Signature validate_signature"),
    ("stdlib", "builtin_signature tcat_axioms"),
    ("synkit", "Variable mk_var"),
) for name in names.split()}


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = globals()[name] = getattr(
        import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
