"""Exception types shared across the package."""


class QuadGradError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(QuadGradError):
    """Unusable input: wrong type, shape or dimension, non-finite, or asymmetric."""


class SingularMatrix(QuadGradError):
    """Linear solve hit a pivot too small to trust; take the pseudoinverse path."""


class UnknownFunction(QuadGradError):
    """No benchmark function registered under the requested name."""
