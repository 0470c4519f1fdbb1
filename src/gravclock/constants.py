"""Physical constants in SI units.

Every formula in the package takes its c, G and hbar from a
:class:`PhysicalConstants` instance instead of hard-coded literals, so tests
can run with exaggerated values (for example c = 1) without touching any
physics code.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from .errors import ConfigError

ENV_CONSTANTS_FILE = "GRAVCLOCK_CONSTANTS"


@dataclass(frozen=True)
class PhysicalConstants:
    """Speed of light (m/s), Newton constant (m^3 kg^-1 s^-2), hbar (J s)."""

    c: float = 299792458.0
    G: float = 6.67430e-11
    hbar: float = 1.054571817e-34

    def __post_init__(self) -> None:
        for name in ("c", "G", "hbar"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(
                    f"physical constant {name} must be finite and strictly positive, got {value!r}"
                )


CODATA = PhysicalConstants()


def read_key_values(path: str) -> list[tuple[int, str, str]]:
    """The stripped (line number, key, value) entries of a flat ``key = value`` file.

    ``#`` starts a comment; a non-blank line without ``=`` raises :class:`ConfigError`.
    """
    entries = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, text = line.partition("=")
            entries.append((lineno, key.strip(), text.strip()))
    return entries


def load_constants_file(path: str) -> PhysicalConstants:
    """Read constants overrides from a flat ``key = value`` text file.

    Recognized keys: ``c``, ``G``, ``hbar``.  Missing keys keep their CODATA
    defaults; unknown keys raise :class:`ConfigError`.
    """
    values = {"c": CODATA.c, "G": CODATA.G, "hbar": CODATA.hbar}
    for lineno, key, text in read_key_values(path):
        if key not in values:
            raise ConfigError(f"{path}:{lineno}: unknown constant {key!r}")
        try:
            values[key] = float(text)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad float {text!r}") from exc
    return PhysicalConstants(**values)


def resolve_constants(path: str | None = None) -> PhysicalConstants:
    """Constants from an explicit file, else from $GRAVCLOCK_CONSTANTS, else CODATA."""
    if path is None:
        path = os.environ.get(ENV_CONSTANTS_FILE) or None
    if path is None:
        return CODATA
    return load_constants_file(path)
