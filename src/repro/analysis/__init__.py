"""Burst detection on per-topic arrival series."""

from .bursts import BurstInterval, detect_bursts

__all__ = [
    "BurstInterval",
    "detect_bursts",
]
