"""Exception types shared across the package."""

import numpy as np


class GravclockError(Exception):
    """Base class for all package-specific errors."""


class DomainError(GravclockError, ValueError):
    """An input lies outside the mathematical domain of an operation."""


def require_finite(name: str, value) -> None:
    """Raise DomainError naming `name` unless every element of `value` is finite."""
    values = np.asarray(value, dtype=float)
    bad = values[~np.isfinite(values)]
    if bad.size:
        raise DomainError(f"{name} must be finite, got {float(bad[0])!r}")


def require_positive(name: str, value) -> None:
    """Raise DomainError naming `name` unless every element of `value` is finite and > 0."""
    require_finite(name, value)
    values = np.asarray(value, dtype=float)
    bad = values[values <= 0]
    if bad.size:
        raise DomainError(f"{name} must be positive, got {float(bad[0])!r}")


class WeakFieldViolation(DomainError):
    """The compactness 2GM/(c^2 r) exceeds the configured weak-field bound."""


class NotTimelike(DomainError):
    """A trajectory segment is not timelike (the proper-time radicand is <= 0)."""


class NoConvergence(GravclockError, RuntimeError):
    """An iterative solver hit its cap (sweeps or samples) before converging."""


class DimensionMismatch(GravclockError, ValueError):
    """Quantum-state dimensions or labels are incompatible with an operation."""


class UnknownLabel(DimensionMismatch):
    """A subsystem label is not present in a state's label set."""


class ConfigError(GravclockError, ValueError):
    """A run configuration contains unknown keys or out-of-domain values."""
