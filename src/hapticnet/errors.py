"""Exception types shared across the package."""


class HapticNetError(Exception):
    """Base class for all package-specific errors."""


class InvalidSpecError(HapticNetError):
    """A layer/graph specification is internally inconsistent or mismatched."""


class InvalidInputError(HapticNetError):
    """Runtime data violates an operation's preconditions."""


class InfeasibleSplitError(HapticNetError):
    """A train/test split satisfying the stratification constraint does not exist."""


class UndefinedAUCError(HapticNetError):
    """AUC requested for a single-class score set."""


class LeakageError(HapticNetError):
    """An object id appeared on both sides of a train/test split."""


class UnsupportedFormatError(HapticNetError):
    """A file's magic, version, or length does not match the expected format."""


class NonFiniteGradientError(HapticNetError):
    """A gradient contained NaN or infinity; training must abort."""
