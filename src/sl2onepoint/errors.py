"""Exception types shared across the package.

Plain ``ValueError`` is used for ordinary invalid arguments; the classes
here mark failure modes that callers may want to treat differently.
"""


class UnsupportedDimensionError(Exception):
    """The requested (level, weight) pair lies outside the dimensions
    this operation covers."""


class InternalInconsistencyError(ArithmeticError):
    """Two independent exact computations of the same object disagree.
    Signals an arithmetic bug, never bad user input."""


class DegenerateMldeError(ArithmeticError):
    """The linear system fixing the differential-equation coefficients is
    singular, i.e. the indicial data fed to it is wrong."""


class RelationViolationError(ArithmeticError):
    """A modular pair failed its defining relations beyond tolerance.
    Signals a convention bug in the categorical data."""


class PrecisionLossError(ArithmeticError):
    """A floating-point evaluation lost its value to underflow or overflow:
    the quantity is not representable in double precision at this level.
    Signals a limit of the arithmetic, never bad user input."""
