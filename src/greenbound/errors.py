"""Exception hierarchy shared by all greenbound modules.

Each class carries the CLI exit code of its kind of failure in
``exit_code``: 1 a precondition or pointwise condition fails (the default),
2 numerical non-convergence or a resolution too coarse for the result, 3
malformed configuration or input.  Subclasses inherit their parent's code.
"""


class GreenboundError(Exception):
    """Base class for all library errors."""

    exit_code = 1


class InvalidGridError(GreenboundError):
    """Grid construction violated a precondition (e.g. n < 3)."""

    exit_code = 3


class NotIntegrableError(GreenboundError):
    """An integrand is non-finite where finiteness is required."""


class DomainError(GreenboundError):
    """Argument outside the domain of the requested operation."""


class DegenerateSourceError(GreenboundError):
    """Source potential h is zero or negative at an interior node."""


class InvalidHError(GreenboundError):
    """Comparison profile h fails positivity or superharmonicity."""


class InvalidSignError(GreenboundError):
    """Potential V violates the sign condition of the requested regime."""


class InvalidScenarioError(GreenboundError):
    """Scenario parameters outside their admissible range."""

    exit_code = 3


class DivergingBracketError(GreenboundError):
    """Scalar recurrence has no fixed point in (0,1): a > a*."""


class PreconditionFailedError(GreenboundError):
    """A nodewise condition required before iterating is violated.

    Carries the indices of offending nodes in ``nodes``.
    """

    def __init__(self, message, nodes=None):
        super().__init__(message)
        self.nodes = [int(i) for i in nodes] if nodes is not None else []


class SolverFailureError(GreenboundError):
    """Newton linear algebra failed beyond rescue."""

    exit_code = 2


class InfeasibleStartError(GreenboundError):
    """Positivity of iterates could not be restored by damping."""


class NotOrderedError(GreenboundError):
    """Sub/supersolution pair is not ordered."""


class ResolutionInsufficientError(GreenboundError):
    """Resolution too coarse for the result; a finer one may succeed.

    Raised when oscillatory quadrature cannot certify its accuracy and when
    a fit window holds too few grid nodes."""

    exit_code = 2


class WindowTooSmallError(ResolutionInsufficientError):
    """Fewer than the minimum number of fit nodes in the window."""


class ConfigError(GreenboundError):
    """Malformed CLI configuration."""

    exit_code = 3
