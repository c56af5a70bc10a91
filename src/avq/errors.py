"""Exception hierarchy shared by all avq modules.

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
