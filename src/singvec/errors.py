"""Exception types shared across the package.

Each class names its process exit code in its exit_code attribute, the
one the command line returns, so that batch scripts can tell
configuration mistakes apart from genuine mathematical failures.
Subclasses inherit the code of their base.
"""


class SingvecError(Exception):
    """Base class for all package-specific errors."""

    exit_code = 1


class UsageError(SingvecError):
    """Bad arguments or malformed input syntax."""


class DepthExhausted(SingvecError):
    """A bounded search ran out of subdivision depth."""

    exit_code = 2

    def __init__(self, message: str, depth: int):
        super().__init__(message)
        self.depth = depth


class SchemaError(SingvecError):
    """A certificate or spec file violates the expected JSON layout."""

    exit_code = 3


class VerificationFailure(SingvecError):
    """A certificate parsed fine but one of its claims is false."""

    exit_code = 4

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


class PrecisionExhausted(SingvecError):
    """An enclosure could not be tightened enough to decide a comparison."""

    exit_code = 5


class NonIsolating(UsageError):
    """An algebraic descriptor's bracket holds zero or several roots."""


class ZeroForm(UsageError):
    """All linear-form coefficients are zero."""


class NotPrimitive(UsageError):
    """Integer vector entries share a common factor greater than 1."""


class EmptyRange(UsageError):
    """No nonzero integer vector satisfies the norm bound."""


class DegenerateRecord(UsageError):
    """A record value of zero makes exponent estimation meaningless."""


class BracketFailure(SingvecError):
    """Root bracketing preconditions (sign change, uniqueness) failed."""


class NoRationalFound(DepthExhausted):
    """Anchor search hit its safety cap; should be unreachable."""
