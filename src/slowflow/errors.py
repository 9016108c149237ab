"""Exception hierarchy shared by all slowflow modules, and ``each_row``, the
package's one rule for a stacked call that raises."""


class SlowflowError(Exception):
    """Base class for all errors raised by this package."""


# --- expression DSL ---------------------------------------------------------

class ExprSyntaxError(SlowflowError):
    """Malformed expression source.

    Carries the 0-based character ``position`` and the set of token kinds
    that would have been accepted there.
    """

    def __init__(self, position, expected, found=""):
        self.position = position
        self.expected = sorted(expected)
        self.found = found
        what = f"got {found!r}" if found else "got end of input"
        super().__init__(
            f"syntax error at column {position}: expected one of "
            f"{', '.join(self.expected)}; {what}"
        )


class UnknownIdentifier(SlowflowError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"unknown identifier: {name!r}")


class DivisionByZero(SlowflowError):
    def __init__(self, subexpr):
        self.subexpr = subexpr
        super().__init__(f"division by zero while evaluating {subexpr!r}")


class DomainError(SlowflowError):
    def __init__(self, subexpr, reason="argument outside domain"):
        self.subexpr = subexpr
        super().__init__(f"{reason} while evaluating {subexpr!r}")


class DimensionMismatch(SlowflowError):
    pass


# --- integration ------------------------------------------------------------

class StepLimitExceeded(SlowflowError):
    pass


class NonFiniteState(SlowflowError):
    """Trajectory blew up or produced NaN/inf."""


# --- linear algebra ---------------------------------------------------------

class Singular(SlowflowError):
    pass


class NotHurwitz(SlowflowError):
    pass


class NoConvergence(SlowflowError):
    pass


class NoContraction(SlowflowError):
    pass


# --- root finding / Newton --------------------------------------------------

class SingularJacobian(SlowflowError):
    pass


class MaxIterations(SlowflowError):
    pass


class NonFiniteValue(SlowflowError):
    pass


class RootRecoveryFailed(SlowflowError):
    """Amplitude root could not be matched by a full root of the averaged field."""

    def __init__(self, a, amplitude, message=""):
        self.a = a
        self.amplitude = amplitude
        super().__init__(
            message or f"no averaged-field root with amplitude {amplitude:.6g} at a={a:.6g}"
        )


class ConfigError(SlowflowError):
    """Invalid run configuration (CLI exit code 2)."""


def each_row(call, X) -> list:
    """The rows of ``call(X)``; if that raises ``SlowflowError``, each row x
    of X alone, ``call(x[None])[0]``, gives its value or its error.  A stack
    of one row gets its error without a second call."""
    try:
        return list(call(X))
    except SlowflowError as exc:
        if len(X) == 1:
            return [exc]
    return [each_row(call, x[None])[0] for x in X]
