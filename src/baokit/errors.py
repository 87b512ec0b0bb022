"""Shared exception types."""


class BaokitError(Exception):
    """Base class for all library errors."""


class InputError(BaokitError, ValueError):
    """Text or a name from a user that does not parse or names nothing: a
    ValueError too, for callers that catch one."""


class CapacityError(BaokitError):
    """A construction exceeds the desk-scale budget."""


class SpaceMismatchError(BaokitError):
    """Operands belong to different tuple spaces or bases."""


class SignatureError(BaokitError):
    """An operator is used outside its declared signature."""


class UnboundVariableError(BaokitError):
    """A term or formula variable has no assigned value."""


class ClosureCapError(CapacityError):
    """Subalgebra closure grew past the caller's cap."""

    def __init__(self, cap: int, partial_size: int):
        super().__init__(
            f"subalgebra closure exceeded cap {cap} (reached {partial_size} elements)"
        )
        self.cap = cap
        self.partial_size = partial_size


class FormulaSyntaxError(BaokitError):
    """Formula text that does not parse; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message, self.position = message, position


class CompileError(BaokitError):
    """A formula cannot be compiled to a term over the requested signature."""


class PreconditionError(BaokitError):
    """A stated operation precondition failed; carries a witness when available."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness
