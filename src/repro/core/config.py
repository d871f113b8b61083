"""Shared configuration for the clustering pipelines.

:class:`IncrementalClusterer` and :class:`NonIncrementalClusterer` are
compared head-to-head throughout the paper's experiments, so they must
run with *identical* K-means settings. :class:`ClustererConfig` captures
the parameters common to both pipelines in one value object that can be
built once and handed to each::

    config = ClustererConfig(k=32, seed=1998)
    incremental = IncrementalClusterer(model, config)
    baseline = NonIncrementalClusterer(model, config)

Pipeline-specific switches (``warm_start``, ``rescue_outliers``) stay
keyword arguments on the individual constructors.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from ..exceptions import ConfigurationError
from ..forgetting.backends import ColumnarStatisticsBackend, StatisticsBackend
from ..obs import Recorder
from .engines import EngineClass, MatrixEngine


@dataclass(frozen=True)
class ClustererConfig:
    """K-means parameters shared by both clustering pipelines.

    Attributes mirror the :class:`~repro.core.NoveltyKMeans` surface:

    ``k``
        Number of clusters (required, positive).
    ``delta``
        Convergence threshold on the relative ``G`` improvement
        (paper Section 4.3), in ``(0, 1)``.
    ``max_iterations``
        Upper bound on repetition-process iterations per fit.
    ``seed``
        Seed for the initial random assignment (``None`` = fresh
        randomness per fit).
    ``engine``
        The numerical engine class (see :mod:`repro.core.engines`);
        the library has only :class:`~repro.core.engines.MatrixEngine`.
        A seam for the parity suites, which pass their reference
        engine here.
    ``statistics_backend``
        The corpus-statistics storage backend class
        (see :mod:`repro.forgetting.backends`); the library has only
        :class:`~repro.forgetting.backends.ColumnarStatisticsBackend`.
        The same test seam as ``engine``.
    ``recorder``
        Observability sink shared by the pipeline and its K-means.

    Use :func:`dataclasses.replace` to derive variants::

        reseeded = dataclasses.replace(config, seed=7)
    """

    k: int
    delta: float = 0.01
    max_iterations: int = 30
    seed: Optional[int] = None
    engine: EngineClass = MatrixEngine
    statistics_backend: Callable[[], StatisticsBackend] = (
        ColumnarStatisticsBackend
    )
    recorder: Optional[Recorder] = None


_UNSET: Any = object()

#: Positional parameter order of the pre-config constructors (after
#: ``model``). Positional calls no longer resolve — they raise
#: ``TypeError`` — but the order is kept so the error can tell the
#: caller which keyword each stray positional maps to.
LEGACY_INCREMENTAL_ORDER: Tuple[str, ...] = (
    "k", "delta", "max_iterations", "seed", "engine",
    "warm_start", "rescue_outliers", "recorder",
)
LEGACY_NONINCREMENTAL_ORDER: Tuple[str, ...] = (
    "k", "delta", "max_iterations", "seed", "engine", "recorder",
)


def resolve_clusterer_config(
    cls_name: str,
    args: Sequence[Any],
    config: Optional[ClustererConfig],
    keyword_values: Dict[str, Any],
    legacy_order: Tuple[str, ...],
    extra_defaults: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Merge a constructor's inputs into one parameter dict.

    ``args`` are positional arguments beyond ``model``; a leading
    :class:`ClustererConfig` is accepted there (the blessed call shape).
    Anything further is the pre-config positional protocol, removed
    after its deprecation cycle — it now raises :class:`TypeError` with
    a migration hint. Precedence, lowest to highest: dataclass defaults
    < ``config`` fields < explicit keywords. ``keyword_values`` entries
    equal to :data:`_UNSET` mean "not passed".
    """
    positionals = list(args)
    if positionals and isinstance(positionals[0], ClustererConfig):
        if config is not None:
            raise ConfigurationError(
                f"{cls_name}: config passed both positionally and as "
                f"config= keyword"
            )
        config = positionals.pop(0)
    if positionals:
        hint = ", ".join(
            f"{name}=..." for name in legacy_order[: len(positionals)]
        )
        raise TypeError(
            f"{cls_name} no longer accepts positional arguments beyond "
            f"'model' (they were deprecated, now removed). Pass a "
            f"ClustererConfig — {cls_name}(model, ClustererConfig(k=...)) "
            f"— or keyword arguments ({hint}); applications should "
            f"construct pipelines via repro.api.open_stream()"
        )

    resolved: Dict[str, Any] = {
        field.name: (
            None if field.default is dataclasses.MISSING else field.default
        )
        for field in dataclasses.fields(ClustererConfig)
    }
    resolved.update(extra_defaults or {})
    if config is not None:
        for field in dataclasses.fields(ClustererConfig):
            resolved[field.name] = getattr(config, field.name)
    for name, value in keyword_values.items():
        if value is not _UNSET:
            resolved[name] = value
    if resolved.get("k") in (None, _UNSET):
        raise ConfigurationError(
            f"{cls_name}: k is required (pass k= or a ClustererConfig)"
        )
    return resolved
