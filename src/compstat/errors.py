"""Exception types raised by the comparative-statics engine."""


class CompstatError(Exception):
    """Base class for all engine errors."""


class ConfigurationError(CompstatError):
    """Bad dimensions, unknown config keys, or malformed inputs."""


class EvaluationError(CompstatError):
    """An evaluator returned a non-finite value inside its declared domain."""

    def __init__(self, message, coordinate=None):
        super().__init__(message)
        self.coordinate = coordinate


class NonConvergenceError(CompstatError):
    """Iteration cap reached without meeting the solver tolerance."""


class SensitivityError(CompstatError):
    """A finite-difference stencil point failed to solve."""

    def __init__(self, message, parameter_index=None):
        super().__init__(message)
        self.parameter_index = parameter_index


class DegeneracyError(CompstatError):
    """A singular bordered matrix, in a Newton step or at a solution, or a
    solution whose bordered matrix has the wrong inertia."""


class EmptyTangentError(CompstatError):
    """The stacked parameter-space gradients span the whole space."""


class NullPropertyError(CompstatError):
    """A prescribed direction fails to annihilate a target function."""

    def __init__(self, message, row=None, target=None):
        super().__init__(message)
        self.row = row
        self.target = target


class AssemblyError(CompstatError):
    """A matrix recipe could not be assembled from the available derivatives."""


class DomainError(CompstatError):
    """A recipe precondition on function values (e.g. positivity) fails."""


class ConstraintQualificationError(CompstatError):
    """At a solution, a constraint gradient vanishes or is not finite, or the
    gradients scaled to unit length are dependent (the second-order gate)."""


class DimensionError(CompstatError):
    """Incompatible matrix or vector shapes."""
