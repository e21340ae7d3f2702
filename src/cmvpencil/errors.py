"""Exception hierarchy for the cmvpencil package.

Every error raised by the library derives from :class:`CmvPencilError` so
callers can catch library failures with a single except clause.  The CLI maps
these onto process exit codes: parameter problems exit 2, verification
failures exit 1, numerical non-convergence exits 3.

``_shown`` is the one formatter of an offending value in a message.
"""


def _shown(value, form=repr) -> str:
    """``form(value)`` (``repr``, ``str`` or ``format``), for the message of an
    error about value; called only on the way to a raise.

    An int or ``Fraction`` that Python refuses to write out (more digits than
    ``sys.get_int_max_str_digits()`` allows, 4300 by default) is named by its
    order of magnitude, read from its bit lengths without writing it out, as
    ``<int of about -10^5000>``; a list or tuple holding one is written item
    by item.  Every other value is exactly ``form(value)``.
    """
    try:
        return form(value)
    except ValueError:  # too many digits to write out
        if isinstance(value, (list, tuple)):
            return "[" + ", ".join(map(_shown, value)) + "]"
        size = (abs(value.numerator).bit_length() - value.denominator.bit_length()) * 0.30103  # log10(2)
        return f"<{type(value).__name__} of about {'-' * (value < 0)}10^{size:.0f}>"


class CmvPencilError(Exception):
    """Base class for all cmvpencil errors."""


class InvalidParameterError(CmvPencilError, ValueError):
    """A parameter is outside its documented domain."""


class ReflectionBoundError(InvalidParameterError):
    """A reflection coefficient left the open interval (-1, 1).

    Carries the offending index in ``index``.
    """

    def __init__(self, index: int, value: float):
        self.index = index
        self.value = value
        super().__init__(
            f"reflection coefficient a_{index} = {_shown(value)} violates |a_n| < 1"
        )


class TruncationError(InvalidParameterError):
    """A matrix truncation request is malformed (odd or too small dim)."""


class PolePointError(CmvPencilError):
    """A transform point hit a zero of the polynomial family.

    Carries the degree at which the ratio recursion broke down in ``index``.
    """

    def __init__(self, index: int, theta: float):
        self.index = index
        self.theta = theta
        super().__init__(
            f"A_{index} = 0: transform point theta = {_shown(theta)} is a zero of the "
            f"degree-{index + 1} polynomial"
        )


class InstabilityError(CmvPencilError):
    """The moment-based recurrence discovery lost positivity at degree ``index``."""

    def __init__(self, index: int, detail: str = ""):
        self.index = index
        msg = f"norm positivity lost at degree {index}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class NonConvergenceError(CmvPencilError):
    """An iterative numerical procedure failed to reach its tolerance."""


class InternalConsistencyError(CmvPencilError):
    """Two routes that must agree disagreed beyond tolerance.

    Raised when a closed-form coefficient table and its defining generic
    transform drift apart, which would mean a bug rather than a data issue.
    """


class OperatorImageError(CmvPencilError):
    """The reflection-differential operator produced a non-polynomial image."""

    def __init__(self, remainder):
        self.remainder = remainder
        super().__init__(f"operator image not polynomial: remainder {remainder!r}")


class BandEdgeError(CmvPencilError):
    """Evaluation point is too close to a spectral band edge to fix a branch."""
