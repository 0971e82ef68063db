"""Exception hierarchy shared by all modules."""


class LQReduceError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(LQReduceError):
    """Problem data violates an invariant; subclasses name the violation."""


class AsymmetricQ(ValidationError):
    pass


class AsymmetricR(ValidationError):
    pass


class DimensionMismatch(ValidationError):
    pass


class NonFiniteEntry(ValidationError):
    pass


class InvalidTolerance(ValidationError):
    """The rank tolerance is not a finite positive number."""


class InvalidShape(ValidationError):
    """Experiment-family parameters are out of range."""


class EmptySubspace(LQReduceError):
    """A subspace angle was requested against a rank-zero matrix."""


class NonConvergence(LQReduceError):
    """The constraint iteration exceeded its hard cap.

    Cannot happen for consistent linear data; signals a tolerance pathology.
    """


class InsufficientData(LQReduceError):
    """Not enough computable records for a least-squares fit."""
