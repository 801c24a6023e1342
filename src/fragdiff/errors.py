"""Exception types shared across the package."""


class FragdiffError(Exception):
    """Base class for all package-specific errors."""


class DomainError(FragdiffError):
    """An argument lies outside the mathematical domain of an operation."""


class ContractViolationError(FragdiffError):
    """A structural invariant that the code promises to maintain was breached."""


class DivergentSeriesError(FragdiffError):
    """A series required to converge provably diverges for the given parameters."""


class ConfigError(FragdiffError):
    """Configuration input is malformed, incomplete, or contains unknown keys."""


class NumericalAbortError(FragdiffError):
    """The time integration produced non-finite values or ran out of step-size budget.

    ``trajectory`` is the run up to its last accepted state; ``run_simulation``
    always sets it.
    """

    def __init__(self, message, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory


class LinearSolveError(FragdiffError):
    """An implicit linear solve failed to reach the required residual."""
