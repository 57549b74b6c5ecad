"""Exception types shared across the package."""


class ParameterError(ValueError):
    """An argument violates a documented precondition."""


class ConvergenceError(RuntimeError):
    """An iterative solver failed to reach its tolerance.

    Attributes
    ----------
    residual : float
        Final residual (infinity norm) when iteration stopped.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class UndefinedMetricError(ValueError):
    """A metric is undefined for the given inputs (e.g. no positive edges)."""


class IdentifiabilityError(ValueError):
    """The intervention family leaves some node's variance unpinned."""


class RankError(ValueError):
    """A matrix is numerically rank-deficient where full rank is required."""


class SamplingFailureError(RuntimeError):
    """Projection-vector sampling exhausted its rejection budget.

    Attributes
    ----------
    achieved_rank : int
        Rank of the row matrix collected before giving up.
    """

    def __init__(self, message, achieved_rank=0):
        super().__init__(message)
        self.achieved_rank = achieved_rank


class EStepError(RuntimeError):
    """Too many observations were skipped while building the particle cache."""
