"""foldsat: a symbolic engine and finite-model checker for FOLDS
signatures, generated isomorphism formulas, saturation and structure
equivalence."""

from .errors import FoldsError
from .finsem import (FinStructure, card_iso_elems, check_saturation,
                     eval_card, eval_prop, fiber, satisfies,
                     saturation_profile, validate_structure)
from .homspan import (Hom, Span, find_span, hsip_decide, is_fibsurj,
                      structure_iso)
from .isogen import ind, iso_formula, sort_equiv
from .pretty import pformat
from .sigcore import Signature, validate_signature
from .stdlib import builtin_signature, corpus, tcat_axioms
from .synkit import Variable, mk_var

__version__ = "0.1.0"

__all__ = [
    "FoldsError", "FinStructure", "card_iso_elems", "check_saturation",
    "eval_card", "eval_prop", "fiber", "satisfies", "saturation_profile",
    "validate_structure", "Hom", "Span", "find_span", "hsip_decide",
    "is_fibsurj", "structure_iso", "ind", "iso_formula", "sort_equiv",
    "pformat", "Signature", "validate_signature", "builtin_signature",
    "corpus", "tcat_axioms", "Variable", "mk_var", "__version__",
]
