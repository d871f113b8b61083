"""Engine registry: name -> factory, with a clear failure mode.

The registry is what makes the engine layer *pluggable*: anything
callable as ``factory(k, vectors, criterion)`` and returning an
:class:`~repro.core.engines.Engine` can be registered under a name and
then selected by string through ``NoveltyKMeans(engine=...)`` or
``ClustererConfig(engine=...)``.

>>> from repro.core.engines import register_engine, available_engines
>>> def my_engine(k, vectors, criterion):  # doctest: +SKIP
...     return MyEngine(k, vectors, criterion)
>>> register_engine("mine", my_engine)     # doctest: +SKIP
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Tuple

from ...exceptions import ConfigurationError

if TYPE_CHECKING:
    from ...vectors.arrays import WeightedVectorArrays
    from .base import Engine

#: ``factory(k, vectors, criterion) -> Engine`` over the fit's CSR batch
#: — typing the protocol makes ``register_engine(name, SomeEngine)`` a
#: conformance check: a concrete class whose constructor or methods
#: drift from :class:`Engine` stops being assignable to this alias and
#: fails mypy at the registration site.
EngineFactory = Callable[[int, "WeightedVectorArrays", str], "Engine"]

_REGISTRY: Dict[str, EngineFactory] = {}

#: The engine every construction path uses unless a
#: :class:`~repro.core.ClustererConfig` names another.
DEFAULT_ENGINE = "matrix"


def register_engine(
    name: str, factory: EngineFactory, *, overwrite: bool = False
) -> None:
    """Register ``factory`` under ``name``.

    Re-registering an existing name raises unless ``overwrite=True``,
    so a typo cannot silently shadow a built-in engine.
    """
    if not isinstance(name, str) or not name:
        raise ConfigurationError(
            f"engine name must be a non-empty string, got {name!r}"
        )
    if not callable(factory):
        raise ConfigurationError(
            f"engine factory for {name!r} must be callable, got {factory!r}"
        )
    if name in _REGISTRY and not overwrite:
        raise ConfigurationError(
            f"engine {name!r} is already registered; pass overwrite=True "
            f"to replace it"
        )
    _REGISTRY[name] = factory


def unregister_engine(name: str) -> None:
    """Remove ``name`` from the registry (primarily for tests)."""
    _REGISTRY.pop(name, None)


def available_engines() -> Tuple[str, ...]:
    """Registered engine names, sorted."""
    return tuple(sorted(_REGISTRY))


def resolve_engine(name: str) -> EngineFactory:
    """Return the factory registered under ``name``.

    Unknown names raise a :class:`ConfigurationError` that lists every
    valid name, so the fix is visible from the error alone.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        available = ", ".join(available_engines()) or "<none>"
        raise ConfigurationError(
            f"unknown engine {name!r}; available engines: {available}"
        ) from None
