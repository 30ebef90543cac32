"""Exception classes, each carrying its CLI exit code.

InstanceError (exit 2) covers every input the package refuses: malformed
or non-finite instance files and profiles, bad arguments (partitions,
epsilon, box bounds, k) and measures that do not represent the instance.
NumericalFailure (exit 3) means the LP engine could not certify an answer.
TooManyResources (exit 4) means the input exceeds the exact partition
search's size limit.  The message says which condition failed.
"""


class GaslossError(Exception):
    """Base class for all package errors."""


class InstanceError(GaslossError, ValueError):
    """Input the package refuses to analyse."""

    exit_code = 2


class NumericalFailure(GaslossError, RuntimeError):
    """The LP engine could not resolve the problem numerically."""

    exit_code = 3


class TooManyResources(GaslossError, ValueError):
    """More resources than the exact partition search enumerates."""

    exit_code = 4
