"""Exception types shared across the package."""


class CoherentPairError(Exception):
    """Base class for all package errors."""


class NonConvergence(CoherentPairError):
    """An adaptive quadrature exhausted its node budget."""


class NonFinite(CoherentPairError):
    """A numerical kernel encountered NaN or infinity."""


class DegenerateState(CoherentPairError):
    """Antisymmetric pair state with unit overlap has zero norm."""


class MalformedTrajectory(CoherentPairError):
    """Trajectory does not satisfy the preconditions of an analysis step."""


class PreconditionViolated(CoherentPairError):
    """Inputs are outside the regime a formula holds in, such as the x-z plane."""
