"""Exception hierarchy shared across the package."""


class GaslossError(Exception):
    """Base class for all package errors."""


class InstanceError(GaslossError, ValueError):
    """Invalid instance data."""


class NonPositiveCapacity(InstanceError):
    pass


class NegativeUsage(InstanceError):
    pass


class DuplicateName(InstanceError):
    pass


class EmptyInstance(InstanceError):
    pass


class NonFiniteValue(InstanceError):
    pass


class LengthMismatch(GaslossError, ValueError):
    pass


class NumericalFailure(GaslossError, RuntimeError):
    """The LP engine could not resolve the problem numerically."""


class InvalidPartition(GaslossError, ValueError):
    pass


class TooManyResources(GaslossError, ValueError):
    pass


class BadEpsilon(GaslossError, ValueError):
    pass


class OddCardinality(GaslossError, ValueError):
    pass


class OddSum(GaslossError, ValueError):
    pass


class RepresentationViolated(GaslossError, ValueError):
    pass


class EmptyBox(GaslossError, ValueError):
    pass


class DegenerateProfile(GaslossError, ValueError):
    pass
