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


class CutoffNumericError(NumlawsError):
    """A cutoff solve overflowed, or its root lies beyond the finite floats.

    The cutoffs evaluated up to the failure are attached as ``trace``.
    """

    def __init__(self, message, trace=()):
        super().__init__(message)
        self.trace = tuple(trace)


class InsufficientDataError(NumlawsError):
    """Not enough data points for the requested summary (e.g. trend)."""

