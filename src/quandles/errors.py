"""Exception types shared across the package, and its one integer rule."""


class QuandleError(Exception):
    """Base class for all errors raised by this package."""


class InputError(QuandleError, ValueError):
    """Malformed input: bad table shape, out-of-range entries, invalid JSON."""


class AxiomError(InputError):
    """A candidate table failed the quandle axioms; carries the report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class ResourceLimitError(QuandleError):
    """A configurable search budget or size cap was exceeded.

    Raised instead of returning a possibly-wrong answer.
    """


class NotCrossedError(QuandleError):
    """Graph reconstruction requires a crossed quandle; carries a witness pair."""

    def __init__(self, witness):
        x, y = witness
        super().__init__(
            f"quandle is not crossed: the symmetry at {x} fixes {y} "
            f"but the symmetry at {y} moves {x}"
        )
        self.witness = witness


class BadComponentSizeError(QuandleError):
    """Graph reconstruction requires two-point components; carries the offender."""

    def __init__(self, component):
        super().__init__(
            f"connected component {tuple(component)} does not have exactly two points"
        )
        self.component = tuple(component)


class VerificationError(QuandleError):
    """A mechanically checked identity failed; indicates a bug somewhere."""


def _is_int(value, low=None, high=None) -> bool:
    """Whether value is an int and not a bool, with low <= value <= high
    for each bound that is given.  Int subclasses other than bool, such
    as IntEnum members, pass."""
    ok = isinstance(value, int) and not isinstance(value, bool)
    return ok and (low is None or low <= value) and (high is None or value <= high)


def _require_int(value, message: str, low=None, high=None) -> None:
    """Raise InputError(message.format(value)) unless _is_int(value, low, high)."""
    if not _is_int(value, low, high):
        raise InputError(message.format(value))
