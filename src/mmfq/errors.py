"""Exception hierarchy.

Every error carries a stable ``code`` string so the CLI can emit
machine-readable error reports.
"""


class FluidQueueError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "Error"


class DimensionMismatch(FluidQueueError):
    code = "DimensionMismatch"


class NotAGenerator(FluidQueueError):
    code = "NotAGenerator"


class Reducible(FluidQueueError):
    code = "Reducible"


class InvalidPerturbation(FluidQueueError):
    code = "InvalidPerturbation"


class SingularSystem(FluidQueueError):
    code = "SingularSystem"


class SingularBlock(FluidQueueError):
    code = "SingularBlock"


class Singular(FluidQueueError):
    code = "Singular"


class Inconclusive(FluidQueueError):
    code = "Inconclusive"


class NoConvergence(FluidQueueError):
    code = "NoConvergence"


class EmptySide(FluidQueueError):
    code = "EmptySide"


class InvalidEpsilon(FluidQueueError):
    code = "InvalidEpsilon"


class InnerRiccatiDiverged(FluidQueueError):
    code = "InnerRiccatiDiverged"


class NotRecurrent(FluidQueueError):
    code = "NotRecurrent"


class SingularNormalization(FluidQueueError):
    code = "SingularNormalization"


class NotGeneratorKind(FluidQueueError):
    code = "NotGeneratorKind"


class ShapeMismatch(FluidQueueError):
    code = "ShapeMismatch"


class Infeasible(FluidQueueError):
    code = "Infeasible"


class UnknownCase(FluidQueueError):
    code = "UnknownCase"
