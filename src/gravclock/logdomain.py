"""Sign + log10 representation for quantities far outside double range.

Dimensionless angular momenta reach 1e60 while the induced phases sit near
1e-74, so products of the two overflow/underflow ordinary doubles.  All
bookkeeping here is done as (sign, log10 |x|) pairs.

Every function here takes floats or numpy arrays and broadcasts over the
arrays.  The log10 and power terms go through :func:`per_element`, because
numpy's ``log10``, ``log``, ``power`` and ``arctan2`` do not round like
``math`` on every input, and the array results must equal the scalar ones bit
for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


def per_element(fn: Callable[..., float], *args, dtype: type = float):
    """``fn`` applied to each element of the broadcast arguments.

    Scalar arguments give ``fn``'s own result; any array argument gives an
    array of ``dtype`` (float unless given) and of the broadcast shape.
    """
    if not any(np.ndim(a) for a in args):
        return fn(*args)
    arrays = np.broadcast_arrays(*args)
    flat = map(fn, *(a.ravel().tolist() for a in arrays))
    return np.fromiter(flat, dtype, arrays[0].size).reshape(arrays[0].shape)


def squared(x: float) -> float:
    """x ** 2 as Python computes it: C pow, which differs from x * x in the
    last bit on ~0.1% of inputs."""
    return per_element(pow, x, 2)


def _sign(x: float) -> int:
    if x == 0.0:
        return 0
    return 1 if x > 0 else -1


def _log10_abs(x: float) -> float:
    return -math.inf if x == 0.0 else math.log10(abs(x))


def _linear(sign: float, log10: float) -> float:
    if sign == 0:
        return 0.0
    if log10 > 308.0:
        return math.inf * sign
    if log10 < -323.0:
        return 0.0
    return sign * 10.0**log10


def _product_log10(sign: float, a: float, b: float) -> float:
    return -math.inf if sign == 0 else a + b


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
        return SignedLog(per_element(_sign, x), per_element(_log10_abs, x))

    @staticmethod
    def from_log10(log10_magnitude: float, sign: int = 1) -> "SignedLog":
        if sign == 0:
            return SignedLog(0, -math.inf)
        return SignedLog(1 if sign > 0 else -1, log10_magnitude)

    @property
    def linear(self) -> float:
        """Closest double; 0.0 on underflow, +-inf on overflow."""
        return per_element(_linear, self.sign, self.log10)

    def __mul__(self, other: "SignedLog") -> "SignedLog":
        sign = self.sign * other.sign
        return SignedLog(sign, per_element(_product_log10, sign, self.log10, other.log10))

    def scaled(self, factor: float) -> "SignedLog":
        return self * SignedLog.from_linear(factor)


def _log10_sum(a: float, b: float) -> float:
    if a == -math.inf:
        return b
    if b == -math.inf:
        return a
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + math.log10(1.0 + 10.0 ** (lo - hi))


def log10_sum(a: float, b: float) -> float:
    """log10(10**a + 10**b) without leaving the log domain."""
    return per_element(_log10_sum, a, b)
