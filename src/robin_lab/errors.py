"""Exception taxonomy shared by all robin_lab modules."""


class RobinLabError(Exception):
    """Base class for all robin_lab errors."""


class InvalidArgumentError(RobinLabError, ValueError):
    """An argument violates a documented precondition."""


class InvalidCoefficientError(RobinLabError, ValueError):
    """A boundary coefficient evaluated to a negative value."""


class DegenerateMeshError(RobinLabError):
    """A cell with zero measure was encountered during assembly."""


class NumericBreakdownError(RobinLabError):
    """A non-finite value appeared inside an iterative solve."""


class NonConvergenceError(RobinLabError):
    """The iterative solver exhausted its iteration budget."""


class UnsupportedDimensionError(RobinLabError, ValueError):
    """The Sobolev/trace exponent formulas require dimension >= 3."""


class NoInformativePairsError(RobinLabError):
    """Every stability record had an undefined ratio (degenerate denominators)."""
