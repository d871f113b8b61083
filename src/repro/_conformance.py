"""Type-level protocol-conformance checks.

The registries already make every ``register_engine``/``register_backend``
call a conformance check (their factory aliases return the protocol
types), but those calls live in package ``__init__`` side effects. This
module restates the contract explicitly, in one greppable place: each
assignment below fails ``mypy --strict`` the moment a concrete class's
signature drifts from its protocol — a 3 a.m. parity-job failure turned
into a type-check failure.

Nothing here executes at runtime (the module body is guarded by
``TYPE_CHECKING``), so importing it is free.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from typing import Callable, Tuple

    from .core.engines import Engine
    from .core.engines.matrix import MatrixEngine
    from .forgetting.backends import StatisticsBackend
    from .forgetting.backends.columnar import ColumnarStatisticsBackend
    from .vectors.arrays import WeightedVectorArrays

    # factory(k, vectors, criterion) -> Engine: the registration-time
    # signature every engine class must satisfy
    _EngineCtor = Callable[[int, WeightedVectorArrays, str], Engine]

    _ENGINE_CONFORMANCE: Tuple[_EngineCtor, ...] = (MatrixEngine,)

    _BackendCtor = Callable[[], StatisticsBackend]

    _BACKEND_CONFORMANCE: Tuple[_BackendCtor, ...] = (
        ColumnarStatisticsBackend,
    )
