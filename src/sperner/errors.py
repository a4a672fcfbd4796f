"""Domain errors.  Each one names the violated precondition; the CLI maps
any of these to exit code 2 (usage / precondition failure)."""


class SpernerError(Exception):
    """Base class for all domain errors raised by this package."""


class BadGround(SpernerError):
    """Ground set size out of range (need 0 <= n <= 20, or n >= 2 where stated)."""


class GroundTooLarge(SpernerError):
    """Operation only implemented up to a hard ground-size ceiling."""


class EmptyFamily(SpernerError):
    """A family that must be non-empty is empty."""


class BadSegmentSize(SpernerError):
    """Colex segment size outside 1..2^|a|."""


class BadIndex(SpernerError):
    """Split or family index out of range."""


class NotMonotone(SpernerError):
    """Expected an upward or downward closed family."""


class EmptyBlock(SpernerError):
    """A block of the product construction would have an empty complement part."""


class InfeasibleParams(SpernerError):
    """No parameter choice satisfies the construction's constraints."""


class AntichainTooSmall(SpernerError):
    """Requested more antichain members than the ground segment can hold."""


class UnknownBound(SpernerError):
    """Unrecognized bound identifier."""


class WitnessFormatError(SpernerError):
    """Witness JSON violates the schema; message names the violation."""
