"""Exception types shared across the library."""


class FreecartError(Exception):
    """Base class for every error raised by this library."""


class TypeMismatch(FreecartError):
    """The parts of a Pair or Compose being built do not fit, or two
    arrows that must share a type do not.

    The path (child-index tuple) of the offending part is relative to the
    node being built: a factor index, or () for a pairing.
    """

    def __init__(self, message, path=()):
        super().__init__(message)
        self.path = tuple(path)


class ModeViolation(FreecartError):
    """The terminal object or its arrow is used in binary-products mode.

    The path of the offending subterm starts at the root of the term.
    """

    def __init__(self, message, path=()):
        super().__init__(message)
        self.path = tuple(path)


class InvalidRedex(FreecartError):
    """A reduction step was requested at an address that is not a redex."""


class IncompatibleGraph(FreecartError):
    """A graph does not fit the given domain and codomain objects."""


class Unrealizable(FreecartError):
    """No term with the requested type exists in binary-products mode."""


class AlreadyEqual(FreecartError):
    """A collapse witness was requested for a pair of equal arrows."""


class InternalError(FreecartError):
    """An internal soundness check failed; this indicates a bug."""
