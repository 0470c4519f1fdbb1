"""Sign + log10 representation for quantities far outside double range.

Dimensionless angular momenta reach 1e60 while the induced phases sit near
1e-74, so products of the two overflow/underflow ordinary doubles.  All
bookkeeping here is done as (sign, log10 |x|) pairs.

Every function here takes floats or numpy arrays and is whole-array numpy
arithmetic; masks handle only the exact 0 and infinite cases.  A scalar call
returns Python floats, so that later float arithmetic overflows to inf
silently, as Python floats do.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _float(x):
    """``x`` as a Python float if it is a scalar, else the array itself."""
    return float(x) if np.ndim(x) == 0 else x


@dataclass(frozen=True)
class SignedLog:
    """A real number stored as a sign in {-1, 0, +1} and log10 of its magnitude.

    Both fields may be arrays of one shape (or a scalar sign beside an array
    magnitude); every operation is then elementwise.
    """

    sign: int
    log10: float  # -inf when sign == 0

    @staticmethod
    def from_linear(x: float) -> "SignedLog":
        with np.errstate(divide="ignore"):
            return SignedLog(_float(np.sign(x)), _float(np.log10(np.abs(x))))

    @staticmethod
    def from_log10(log10_magnitude: float, sign: int = 1) -> "SignedLog":
        if sign == 0:
            return SignedLog(0, -np.inf)
        return SignedLog(1 if sign > 0 else -1, _float(log10_magnitude))

    @property
    def linear(self) -> float:
        """Closest double; 0.0 on underflow, +-inf on overflow."""
        with np.errstate(over="ignore"):
            return _float(self.sign * np.power(10.0, self.log10))

    def __mul__(self, other: "SignedLog") -> "SignedLog":
        sign = self.sign * other.sign
        with np.errstate(invalid="ignore"):  # inf + -inf, masked
            return SignedLog(sign, _float(np.where(sign == 0, -np.inf, np.add(self.log10, other.log10))))

    def scaled(self, factor: float) -> "SignedLog":
        return self * SignedLog.from_linear(factor)


def log10_sum(a: float, b: float) -> float:
    """log10(10**a + 10**b) without leaving the log domain."""
    hi, lo = np.maximum(a, b), np.minimum(a, b)
    with np.errstate(invalid="ignore"):  # -inf - -inf, masked below
        return _float(np.where(lo == -np.inf, hi, hi + np.log10(1.0 + np.power(10.0, lo - hi))))
