"""Exception types shared across the package.

Every structured failure mode gets its own class so callers (and the CLI's
exit-code mapping) can dispatch on type rather than parsing messages.
"""


class HivecombError(Exception):
    """Base class for all package-specific errors."""


class ZeroSumViolation(HivecombError):
    """The three boundary weights do not sum to zero."""


class RhombusViolation(HivecombError):
    """A hive violates a rhombus inequality."""

    def __init__(self, rhombus, value):
        self.rhombus = rhombus
        self.value = value
        super().__init__(f"rhombus {rhombus} has negative value {value}")


class DirectionViolation(HivecombError):
    """An edge displacement is off-axis or points the wrong way."""

    def __init__(self, edge, detail=""):
        self.edge = edge
        super().__init__(f"edge {edge} violates its direction constraint"
                         + (f": {detail}" if detail else ""))


class TypeDoesNotClose(HivecombError):
    """A 6-tuple boundary type fails the linear closure conditions."""


class TensionViolation(HivecombError):
    """Multiplicity-weighted direction sum at a putative vertex is nonzero."""


class UnknownPattern(HivecombError):
    """Zero tension holds but no classified vertex pattern matches.

    Unreachable for genuine honeycomb data; kept as an internal-consistency
    guard.
    """


class NotADiagram(HivecombError):
    """Input measure fails one of the honeycomb-diagram axioms.

    ``reason`` is one of: "tension", "parallel-lines",
    "nonintegral-multiplicity", "monodromy".
    """

    def __init__(self, reason, detail=""):
        self.reason = reason
        super().__init__(f"not a honeycomb diagram ({reason})"
                         + (f": {detail}" if detail else ""))


class ParallelLinesOnly(HivecombError):
    """Overlay input reduces to a union of parallel lines (excluded case)."""


class NotDominant(HivecombError):
    """A weight vector that must be weakly decreasing is not."""


class NotSimplyDegenerate(HivecombError):
    """Elision requires only Y/crossing vertices with multiplicity 1."""

    def __init__(self, vertex):
        self.vertex = vertex
        super().__init__(f"vertex at {vertex} is not a simple degeneracy")


class NotDegenerate(HivecombError):
    """Molting asked for at a vertex with nothing to molt."""


class EpsilonTooLarge(HivecombError):
    """Loop breathing step exceeds the feasibility bound."""

    def __init__(self, bound):
        self.bound = bound
        super().__init__(f"epsilon exceeds the maximal legal step {bound}")


class Infeasible(HivecombError):
    """The hive polytope over the given boundary is empty."""


class Unbounded(HivecombError):
    """LP unbounded; contradicts properness, so an internal error."""


class DegenerateOptimum(HivecombError):
    """The LP optimum is not unique; witness is a direction along its face."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__("optimum is not unique; witness direction attached")


class HasCycle(HivecombError):
    """forest_solve got a post-elision graph that is not a forest."""


class SizeMismatch(HivecombError):
    """Box counts of a skew LR problem disagree."""


class TooLarge(HivecombError):
    """Vertex enumeration refused: n > 4 without allow_large, or a boundary
    too large for its int64 arithmetic."""
