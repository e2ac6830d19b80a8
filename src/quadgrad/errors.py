"""Exception types shared across the package."""


class QuadGradError(Exception):
    """Base class for all errors raised by this package."""


class InvalidMatrix(QuadGradError):
    """Matrix input violates a precondition (non-square, non-symmetric, non-finite)."""


class SingularMatrix(QuadGradError):
    """Linear solve hit a pivot too small to trust; take the pseudoinverse path."""


class DimensionError(QuadGradError):
    """Operand dimensions do not match."""


class InvalidInput(QuadGradError):
    """Non-finite or otherwise unusable numeric input."""


class InvalidDimension(QuadGradError):
    """Requested problem dimension is out of range."""


class UnknownFunction(QuadGradError):
    """No benchmark function registered under the requested name."""
