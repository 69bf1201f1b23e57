"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: validation problems exit 2,
infeasible constraints exit 3, resource caps exit 4, solver convergence
failures exit 5: a bracket search or a rounding certificate failed.
"""


class ValidationError(ValueError):
    """Input fails a precondition (negative mass, alphabet mismatch, ...)."""


class DegenerateHypothesisError(ValidationError):
    """The two hypotheses coincide; no error exponent is defined."""


class InfeasibleError(ValueError):
    """A constraint set is empty or a target value is unreachable."""


class ResourceCapError(RuntimeError):
    """An exact enumeration would exceed the configured cap."""


class ConvergenceError(RuntimeError):
    """An iterative solve hit its iteration cap or missed its certificate."""
