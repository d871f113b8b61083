"""The :class:`StatisticsBackend` protocol.

A *statistics backend* is the state store of
:class:`~repro.forgetting.CorpusStatistics`: it owns the per-document
weights ``dw_i`` (Eq. 1/27), the total weight ``tdw`` (Eq. 3/28) and
the per-term masses ``S_k`` behind ``Pr(t_k)`` (Eq. 10), and applies
the four mutations the incremental update needs — decay, batch insert,
removal, and the expiry scan. The *semantics* (clock handling, batch
validation, spans, the §5.2 expiry step) live exactly once in
:class:`CorpusStatistics`; backends only answer state queries and apply
mutations, so a new representation (columnar arrays, shared memory,
out-of-core) plugs in without touching the update logic — the same
split the clustering layer uses for its engines.

``CorpusStatistics(model, backend=...)`` and the clusterers'
``statistics_backend=`` take a backend class (any
zero-argument callable returning a backend); the backend's ``name``
is written to checkpoints.

All mutating calls keep Eq. 27-29's incremental bookkeeping exact:

* :meth:`~StatisticsBackend.decay` applies one global multiplier
  ``λ^Δτ`` to every weight and mass,
* :meth:`~StatisticsBackend.insert_batch` adds each document's
  ``dw_i`` and its ``dw_i · f_ik / len_i`` term contributions,
* :meth:`~StatisticsBackend.remove` reverses exactly those
  contributions.

Term masses are reported *scaled* (any internal lazy scale factor is
already applied), so ``Pr(t_k) = term_mass(k) / tdw`` holds for every
backend.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    NamedTuple,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from ..._typing import FloatArray, IntArray
from ...corpus.document import Document

if TYPE_CHECKING:
    from ...obs import Recorder


#: Fold the internal lazy scale factor back into the raw table before it
#: underflows (a huge time jump can reach 0.0 in one multiply, which
#: would poison every later insert with a division by zero).
SCALE_FLOOR = 1e-150


class TermRows(NamedTuple):
    """The held term rows of some tracked documents, in the order asked
    for (:meth:`StatisticsBackend.term_rows`): row ``i`` owns
    ``term_ids[indptr[i]:indptr[i+1]]`` (ascending) and the matching
    ``counts`` ``f_ik``, and ``weights[i]``/``lengths[i]`` are its
    ``dw_i`` and ``len_i`` (Eq. 1, 15) — every per-document factor of
    the weighted vector of Eq. 12-16."""

    indptr: IntArray
    term_ids: IntArray
    counts: IntArray
    weights: FloatArray
    lengths: FloatArray


@runtime_checkable
class StatisticsBackend(Protocol):
    """State store behind :class:`~repro.forgetting.CorpusStatistics`.

    ``tdw`` is a plain mutable attribute (not a property) so tests can
    simulate drift; ``recorder`` is attached by the owning statistics
    object and is only used for internal-maintenance counters such as
    ``statistics.scale_folds``.
    """

    tdw: float

    recorder: "Recorder"

    @property
    def name(self) -> str:
        """Tag written to checkpoints (``"columnar"`` for the library's)."""

    # -- mutations -------------------------------------------------------

    def decay(self, factor: float) -> None:
        """Multiply every weight and term mass by ``λ^Δτ`` (Eq. 27-28)."""

    def insert_batch(
        self, entries: Sequence[Tuple[Document, float]]
    ) -> None:
        """Insert ``(document, weight)`` pairs (Eq. 27-28 insertions).

        Callers guarantee the doc ids are new; term contributions are
        ``weight · f_ik / len_i`` per Eq. 10's numerator.
        """

    def remove_batch(self, docs: Sequence[Document]) -> bool:
        """Reverse ``docs``' contributions (the expiry path passes a
        whole cohort, :meth:`CorpusStatistics.remove` a cohort of one).

        ``tdw`` is reduced one document at a time, in order. Returns
        True when float residue drove it negative and it was clamped
        back to 0.0 (the owner emits an obs counter for that). Array
        backends batch the term-mass reversal.
        """

    def expired_doc_ids(self, epsilon: float) -> List[str]:
        """Ids of documents with ``dw == 0.0 or dw < ε``, in insertion
        order (the §5.2 step-2 scan)."""

    # -- queries ---------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of tracked documents."""

    def dw(self, doc_id: str) -> float:
        """Weight of one document; raises ``KeyError`` when unknown."""

    def weights(self) -> Dict[str, float]:
        """``{doc_id: dw_i}`` snapshot in insertion order."""

    @property
    def min_weight_bound(self) -> float:
        """A lower bound on the smallest active weight (``inf`` when
        empty). Conservative: may under-estimate after removals, never
        over-estimates — the expiry fast path relies on that."""

    def term_rows(self, doc_ids: Sequence[str]) -> TermRows:
        """The held term rows, weights and lengths of ``doc_ids``, in
        order; raises ``KeyError`` for an id not tracked. Each
        document's ``(term_id, count)`` row is held from insert to
        removal, so a caller never re-reads it from the document."""

    def term_mass(self, term_id: int) -> float:
        """Scaled term mass ``S_k`` (0.0 when absent or non-positive)."""

    def term_mass_array(self, term_ids: IntArray) -> FloatArray:
        """Vectorised :meth:`term_mass` over an int64 id array."""

    def term_ids(self) -> List[int]:
        """Ids of all terms with positive mass."""

    def vocabulary_size(self) -> int:
        """Number of term slots currently holding positive mass."""

    def clone(self) -> "StatisticsBackend":
        """Independent deep copy of the state."""
