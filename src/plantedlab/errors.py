"""Exception types shared across the package.

An exact call past its work meter (`trace`) or a memory cap raises
:class:`BudgetExceededError` instead of silently falling back to an
approximation; callers that want a cheaper bound must ask for one explicitly.
"""


class PlantedLabError(Exception):
    """Base class for all package-specific errors."""


class GraphConstructionError(PlantedLabError, ValueError):
    """Malformed graph input."""


class SelfLoopError(GraphConstructionError):
    pass


class DuplicateEdgeError(GraphConstructionError):
    pass


class VertexOutOfRangeError(GraphConstructionError):
    pass


class EmptyGraphError(PlantedLabError, ValueError):
    """An operation that needs at least one edge or vertex got none."""


class BudgetExceededError(PlantedLabError):
    """An exact computation exceeded, or would exceed, its work or memory budget."""

    def __init__(self, what: str, spent: int, limit: int, unit: str = "work units"):
        super().__init__(f"{what}: {spent} {unit} > budget {limit}")
        self.what, self.spent, self.limit = what, spent, limit


class InvalidSpecError(PlantedLabError, ValueError):
    """A family specification string or parameter is invalid."""


class FormatError(PlantedLabError, ValueError):
    """An edge-list file or stream is malformed."""


class PatternTooLargeError(PlantedLabError, ValueError):
    """The pattern has more vertices than the ambient complete graph."""


class DegenerateQError(PlantedLabError, ValueError):
    """q in {0, 1} makes the chi-square divergence undefined."""


class InvalidMomentError(PlantedLabError, ValueError):
    """Second moments of a unit-mean likelihood ratio are always >= 1."""


class TooFewEdgesError(PlantedLabError, ValueError):
    """The balance ratio needs at least two edges (log |e| > 0)."""


class AlphaOutOfRangeError(PlantedLabError, ValueError):
    """The decay exponent lies outside the admissible interval."""


class MissingSigmaError(PlantedLabError, ValueError):
    """The critical classifier needs sigma when alpha == 1 (q = sigma/n)."""
