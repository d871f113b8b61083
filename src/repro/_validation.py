"""Shared argument-validation helpers.

These helpers raise :class:`repro.exceptions.ConfigurationError` with a
uniform message format so that every public entry point reports bad
parameters the same way.
"""

from __future__ import annotations

import math
from typing import Any, TypeVar

from .exceptions import ConfigurationError

T = TypeVar("T")


def require_positive(name: str, value: float) -> float:
    """Return ``value`` if it is a finite number > 0, else raise."""
    require_finite_number(name, value)
    if value <= 0:
        raise ConfigurationError(f"{name} must be > 0, got {value!r}")
    return float(value)


def require_non_negative(name: str, value: float) -> float:
    """Return ``value`` if it is a finite number >= 0, else raise."""
    require_finite_number(name, value)
    if value < 0:
        raise ConfigurationError(f"{name} must be >= 0, got {value!r}")
    return float(value)


def require_in_open_interval(
    name: str, value: float, low: float, high: float
) -> float:
    """Return ``value`` if ``low < value < high``, else raise."""
    require_finite_number(name, value)
    if not low < value < high:
        raise ConfigurationError(
            f"{name} must be in the open interval ({low}, {high}), got {value!r}"
        )
    return float(value)


def require_positive_int(name: str, value: Any) -> int:
    """Return ``value`` if it is an integer >= 1, else raise."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{name} must be an int, got {type(value).__name__}")
    if value < 1:
        raise ConfigurationError(f"{name} must be >= 1, got {value!r}")
    return value


def require_non_negative_int(name: str, value: Any) -> int:
    """Return ``value`` if it is an integer >= 0, else raise."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{name} must be an int, got {type(value).__name__}")
    if value < 0:
        raise ConfigurationError(f"{name} must be >= 0, got {value!r}")
    return value


def require_finite(name: str, value: float) -> float:
    """Return ``value`` as float if it is finite (no NaN, no ±inf), else raise."""
    if not math.isfinite(value):
        raise ConfigurationError(f"{name} must be finite, got {value!r}")
    return float(value)


def require_finite_number(name: str, value: Any) -> float:
    """Return ``value`` as float if it is a finite real number, else raise."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(
            f"{name} must be a number, got {type(value).__name__}"
        )
    return require_finite(name, value)


def require_callable(name: str, value: T, expected: str) -> T:
    """Return ``value`` if it is callable, else raise naming ``expected``."""
    if not callable(value):
        raise ConfigurationError(f"{name} must be {expected}, got {value!r}")
    return value


def require_probability(name: str, value: float) -> float:
    """Return ``value`` if ``0 <= value <= 1``, else raise."""
    require_finite_number(name, value)
    if not 0.0 <= value <= 1.0:
        raise ConfigurationError(f"{name} must be in [0, 1], got {value!r}")
    return float(value)
