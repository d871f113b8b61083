"""Statistics-backend registry: name -> factory, with a clear failure mode.

The registry is what makes the statistics layer *pluggable*: anything
callable as ``factory()`` and returning a
:class:`~repro.forgetting.backends.StatisticsBackend` can be registered
under a name and then selected by string through
``CorpusStatistics(model, backend=...)`` or
``ClustererConfig(statistics_backend=...)``.

>>> from repro.forgetting.backends import (
...     register_backend, available_backends)
>>> def my_backend():                       # doctest: +SKIP
...     return MyBackend()
>>> register_backend("mine", my_backend)    # doctest: +SKIP
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Tuple

from ...exceptions import ConfigurationError

if TYPE_CHECKING:
    from .base import StatisticsBackend

#: ``factory() -> StatisticsBackend`` — returning the protocol type makes
#: ``register_backend(name, SomeBackend)`` a conformance check: a class
#: whose methods drift from :class:`StatisticsBackend` stops being
#: assignable to this alias and fails mypy at the registration site.
BackendFactory = Callable[[], "StatisticsBackend"]

_REGISTRY: Dict[str, BackendFactory] = {}

#: The backend every construction path uses unless a caller names
#: another, a bare ``CorpusStatistics(model)`` included.
DEFAULT_BACKEND = "columnar"


def register_backend(
    name: str, factory: BackendFactory, *, overwrite: bool = False
) -> None:
    """Register ``factory`` under ``name``.

    Re-registering an existing name raises unless ``overwrite=True``,
    so a typo cannot silently shadow a built-in backend.
    """
    if not isinstance(name, str) or not name:
        raise ConfigurationError(
            f"backend name must be a non-empty string, got {name!r}"
        )
    if not callable(factory):
        raise ConfigurationError(
            f"backend factory for {name!r} must be callable, "
            f"got {factory!r}"
        )
    if name in _REGISTRY and not overwrite:
        raise ConfigurationError(
            f"backend {name!r} is already registered; pass overwrite=True "
            f"to replace it"
        )
    _REGISTRY[name] = factory


def unregister_backend(name: str) -> None:
    """Remove ``name`` from the registry (primarily for tests)."""
    _REGISTRY.pop(name, None)


def available_backends() -> Tuple[str, ...]:
    """Registered backend names, sorted."""
    return tuple(sorted(_REGISTRY))


def resolve_backend(name: str) -> BackendFactory:
    """Return the factory registered under ``name``.

    Unknown names raise a :class:`ConfigurationError` that lists every
    valid name, so the fix is visible from the error alone.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        available = ", ".join(available_backends()) or "<none>"
        raise ConfigurationError(
            f"unknown statistics backend {name!r}; available backends: "
            f"{available}"
        ) from None
