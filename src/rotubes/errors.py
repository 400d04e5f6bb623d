"""Domain exceptions and the integer- and float-field rules, shared across the package."""

from __future__ import annotations

import numbers


def _is_int(value) -> bool:
    """The rule of every integer field: an Integral, numpy's included, that is not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """The rule of every float field: a Real, numpy's and the ints included, that is not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


class RotubesError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidRotation(RotubesError):
    """Matrix fails the rotation invariants (orthogonality or determinant)."""


class DegenerateMean(RotubesError):
    """Projection onto the rotation group is non-unique for this matrix."""


class GridMismatch(RotubesError):
    """Two curve objects that must share a time grid do not."""


class InvalidDof(RotubesError):
    """Sample size too small for the Euler characteristic densities."""


class ZeroResidualColumn(RotubesError):
    """A residual coordinate is identically zero; column normalization undefined."""


class NoRoot(RotubesError):
    """Quantile equation has no root on the search interval."""


class NoConvergence(RotubesError):
    """An iterative solver (quantile bisection, overlap search) stopped unconverged."""


class NonMonotoneBracket(RotubesError):
    """Expected Euler characteristic is not strictly decreasing on the final bracket."""


class SingularCovariance(RotubesError):
    """Pointwise residual covariance is numerically singular."""

    def __init__(self, message: str, t: float | None = None, index: int | None = None):
        super().__init__(message)
        self.t = t
        self.index = index


class ParseError(RotubesError):
    """Input file could not be parsed; message carries row/column diagnostics."""


class NonRotationRow(RotubesError):
    """A data row is too far from the rotation group to be repaired."""


class NonMonotoneTime(RotubesError):
    """Time stamps in an input file are not strictly increasing."""
