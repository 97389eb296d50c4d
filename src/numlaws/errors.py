"""Exception types raised across the package."""


class NumlawsError(Exception):
    """Base class for all numlaws errors."""


class IngestError(NumlawsError):
    """Raw input could not be decoded or parsed."""


class EmptyCorpusError(IngestError):
    """No usable integer values were found or supplied."""


class EmptyHistogramError(NumlawsError):
    """A histogram would contain no countable observations."""


class DegenerateDataError(NumlawsError):
    """Observed data carries no usable signal for the requested metric."""


class DegenerateModelError(NumlawsError):
    """A model assigns zero or non-finite total mass to its support."""


class UnderdeterminedFitError(NumlawsError):
    """Fewer informative support points than free parameters."""


class FitFailureError(NumlawsError):
    """Optimizer failed to produce a usable fit.

    The best parameter vector seen so far is attached as ``best_params``.
    """

    def __init__(self, message, best_params=None):
        super().__init__(message)
        self.best_params = best_params


class CutoffDomainError(NumlawsError):
    """Cutoff iteration left the domain of its update equation."""


class CutoffNumericError(NumlawsError):
    """Cutoff iteration produced a non-finite intermediate value.

    The iterate trace up to the failure is attached as ``trace``.
    """

    def __init__(self, message, trace=()):
        super().__init__(message)
        self.trace = tuple(trace)


class InsufficientDataError(NumlawsError):
    """Not enough data points for the requested summary (e.g. trend)."""


class NotFittedError(ValueError, AttributeError):
    """Estimator method was called before ``fit``.

    Inherits from both ``ValueError`` and ``AttributeError`` so generic
    scikit-learn-style tooling catches it.
    """
