"""Exception hierarchy shared by all foldsat modules."""


class FoldsError(Exception):
    """Base class for all foldsat errors."""


class SignatureError(FoldsError):
    """A signature description failed validation."""


class CycleError(SignatureError):
    """The arrow graph has a cycle, so the signature is not inverse."""


class CompositionError(SignatureError):
    """An equation relates paths with mismatched endpoints."""


class NameClashError(SignatureError):
    """Duplicate sort or arrow name."""


class UnknownSort(FoldsError):
    pass


class UnknownName(FoldsError):
    pass


class SortMismatch(FoldsError):
    pass


class BoundaryMismatch(FoldsError):
    pass


class StructureError(FoldsError):
    """A raw structure description failed validation."""


class FunctorialityError(StructureError):
    pass


class NonTotalMap(StructureError):
    pass


class InvalidBoundary(FoldsError):
    pass


class UnboundVariable(FoldsError):
    pass


class OpenFormula(FoldsError):
    pass


class NotSaturatedPrecondition(FoldsError):
    pass


class HeightOutOfScope(FoldsError):
    pass


class NotSaturated(FoldsError):
    pass


class InvalidCategory(FoldsError):
    pass


class ParseError(FoldsError):
    """Syntax error in a .folds/.str/.thy file or a formula string."""

    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        loc = f" (line {line}, col {col})" if line is not None else ""
        super().__init__(message + loc)
