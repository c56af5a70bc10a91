"""Exception hierarchy shared by all avq modules, and the scalar checks:
``require_real``, the one check of a number avq takes from outside (an
argument, or what a caller's function returns), ``require_finite`` on top
of it, and ``require_count``, ``require_index`` and ``require_seed`` for
ints.

Every contract violation raises ``DomainError``, a ``ValueError``, or a
subclass of it, so that callers (and the CLI) can tell bad input from
programming errors.  An error raised by a residual check
(``hilbert.require``) also carries the measured ``residual`` and its bound
``tol``.

Inputs are checked once: a public entry point checks what comes from
outside (arguments, files, what a caller's function returns), and a value
avq builds from checked parts is returned unchecked (``hilbert._unchecked``),
since its residuals add up those of its parts.  Passed back in, it is input.
"""

import math


class DomainError(ValueError):
    """Base class for all avq contract violations."""


class NotFinite(DomainError):
    """Input holds NaN or an infinity."""


class NotInteger(DomainError):
    """A count or seed is not an int; a bool is not a count."""


class NotHermitian(DomainError):
    pass


class NotUnitary(DomainError):
    pass


class DimMismatch(DomainError):
    pass


class NotProjector(DomainError):
    pass


class NotEffect(DomainError):
    pass


class NotMaximal(DomainError):
    pass


class NotPermutation(DomainError):
    pass


class SpaceMismatch(DomainError):
    pass


class BadGroupData(DomainError):
    """A group table, action, map or orbit measure breaks its definition."""


class NotPermissible(DomainError):
    pass


class ValueMismatch(DomainError):
    pass


class BadDistribution(DomainError):
    pass


class NotDiagonal(DomainError):
    pass


class ZeroEvidence(DomainError):
    pass


class BadShape(DomainError):
    """A JSON document is not the object, or a field not the type, its reader
    expects."""


class ZeroProbabilityBranch(DomainError):
    """Raised when a measurement branch has (numerically) zero probability.

    The branch probability is still available as ``.probability``; only the
    post-measurement state is undefined.
    """

    def __init__(self, probability: float):
        super().__init__(f"branch probability {probability!r} below threshold")
        self.probability = probability


def require_real(value, what: str) -> float:
    """``value`` as a float if it is a real number other than NaN (an
    infinity passes); anything else raises NotFinite naming ``what``.
    Lean enough for a replicate loop: one ``math.isnan`` and one ``float``."""
    try:
        if not math.isnan(value):
            return float(value)
    except (TypeError, OverflowError):  # not a real number, or no float holds it
        pass
    raise NotFinite(f"{what} must be real and not NaN, got {value!r}")


def require_finite(what: str, *values) -> None:
    """Raise NotFinite unless every value passes ``require_real`` and is
    not infinite."""
    for value in values:
        try:
            finite = not math.isinf(require_real(value, what))
        except NotFinite:
            finite = False
        if not finite:
            raise NotFinite(f"{what} must be finite real numbers, got {values}")


def require_count(value, low: int, message: str) -> None:
    """Raise NotInteger unless ``value`` is an int and not a bool, and
    DomainError(message) if it is below ``low``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise NotInteger(f"expected an int, got {value!r} of type {type(value).__name__}")
    if value < low:
        raise DomainError(message)


def require_index(value, size: int, what: str) -> None:
    """Raise NotInteger unless ``value`` is an int and not a bool, and
    DomainError unless it indexes one of ``size`` items: 0 <= value < size."""
    message = f"{what} must lie in 0..{size - 1}, got {value!r}"
    require_count(value, 0, message)
    if value >= size:
        raise DomainError(message)


def require_seed(seed) -> None:
    """A seed is a count from 0: NotInteger unless an int and not a bool,
    DomainError if negative."""
    require_count(seed, 0, "seed must be non-negative")
