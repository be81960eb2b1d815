"""Exception types shared across the package.

The CLI maps these onto distinct exit codes, so modules should raise the
most specific type that applies.
"""


class MatrixFormatError(ValueError):
    """A draw-matrix file or table is structurally malformed (CLI exit 2)."""


class NonFiniteLogLikError(ValueError):
    """A log-density entry is NaN or infinite, or a criterion formed from
    finite ones overflows to NaN or infinity (CLI exit 3)."""


class ModelRefusalError(RuntimeError):
    """The model cannot produce the requested prediction (CLI exit 4)."""
