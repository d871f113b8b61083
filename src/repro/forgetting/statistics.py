"""Incremental corpus statistics (paper Sections 3 and 5.1).

:class:`CorpusStatistics` maintains, under exponential decay:

* per-document weights ``dw_i = λ^(τ - T_i)`` (Eq. 1, updated per Eq. 27),
* the total weight ``tdw = Σ dw_i`` (Eq. 3, updated per Eq. 28),
* selection probabilities ``Pr(d_i) = dw_i / tdw`` (Eq. 4 / 29),
* term masses ``S_k = Σ_i dw_i · f_ik / len_i`` so that term occurrence
  probabilities ``Pr(t_k) = S_k / tdw`` (Eq. 10) and novelty idf weights
  ``idf_k = 1 / sqrt(Pr(t_k))`` (Eq. 14) are O(1) to query.

Two update paths exist and must agree (a hypothesis test asserts this):

* the **incremental** path (``advance_to`` + ``observe`` + ``expire``),
  which costs O(existing docs) for the decay multiply plus O(new doc
  terms) for insertions — the paper's Section 5.1;
* the **from-scratch** path (:meth:`CorpusStatistics.from_scratch`),
  which recomputes every statistic by a full pass — the paper's
  non-incremental baseline in Experiment 1.

The *state* lives in a backend (:mod:`repro.forgetting.backends`):
:class:`~repro.forgetting.backends.ColumnarStatisticsBackend` keeps
both weights and masses in numpy arrays so decay is two scalar
multiplies and batch insert is one scatter-add. A second hypothesis
suite interleaves every mutation on it and on the tests' plain-Python
``DictStatisticsBackend`` oracle (eager O(m) weight decay) and asserts
they agree to 1e-9. This class owns everything backends do not: the
clock, batch validation and atomicity, expiry policy, and
observability.
"""

from __future__ import annotations

import math
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from .._typing import FloatArray, IntArray
from .._validation import require_callable, require_finite
from ..corpus.document import Document
from ..exceptions import (
    ConfigurationError,
    EmptyCorpusError,
    UnknownDocumentError,
)
from ..obs import Recorder, Span, resolve
from .backends import ColumnarStatisticsBackend, StatisticsBackend, TermRows
from .frozen import FrozenStatistics
from .model import ForgettingModel

#: Relative slack of the backend's expiry pre-scan. A backend's decayed
#: weight carries rounding from every decay step (eager multiplies or a
#: folded scale factor), far below this; documents the scan returns are
#: then confirmed on their exact age, so the slack only has to cover
#: that rounding for the scan to miss none.
EXPIRY_SCAN_SLACK = 1e-9


class CorpusStatistics:
    """Time-decayed corpus statistics with incremental maintenance."""

    def __init__(
        self,
        model: ForgettingModel,
        recorder: Optional[Recorder] = None,
        backend: Callable[[], StatisticsBackend] = ColumnarStatisticsBackend,
    ) -> None:
        self.model = model
        self._now: Optional[float] = None
        self._docs: Dict[str, Document] = {}
        self._backend = require_callable(
            "backend", backend,
            "a statistics backend class such as ColumnarStatisticsBackend",
        )()
        self.recorder = resolve(recorder)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_scratch(
        cls,
        model: ForgettingModel,
        documents: Iterable[Document],
        at_time: float,
        recorder: Optional[Recorder] = None,
        backend: Callable[[], StatisticsBackend] = ColumnarStatisticsBackend,
    ) -> "CorpusStatistics":
        """Non-incremental rebuild: recompute every statistic in one pass.

        This is the baseline the paper's Experiment 1 times against the
        incremental path. Documents whose weight at ``at_time`` falls
        below ``ε`` are excluded (expiry applied during the rebuild).
        """
        stats = cls(model, recorder=recorder, backend=backend)
        stats._now = require_finite("at_time", at_time)
        with Span(stats.recorder, "statistics.rebuild") as span:
            entries: List[Tuple[Document, float]] = []
            for doc in documents:
                weight = model.weight(doc.timestamp, at_time)
                if model.is_expired(weight):
                    continue
                if doc.doc_id in stats._docs:
                    raise ConfigurationError(
                        f"document {doc.doc_id!r} already tracked"
                    )
                stats._docs[doc.doc_id] = doc
                entries.append((doc, weight))
            stats._backend.insert_batch(entries)
            span.tags["docs"] = len(stats._docs)
        if stats.recorder.enabled:
            stats.recorder.counter(
                "statistics.docs_observed", len(stats._docs)
            )
            stats._emit_level_gauges()
        return stats

    def clone(self) -> "CorpusStatistics":
        """Deep copy (documents are shared; they are immutable)."""
        other = CorpusStatistics(
            self.model, recorder=self.recorder, backend=self._backend.clone
        )
        other._now = self._now
        other._docs = dict(self._docs)
        return other

    @property
    def backend_name(self) -> str:
        """The backend's ``name``, written to checkpoints."""
        return self._backend.name

    # -- observability -----------------------------------------------------

    @property
    def recorder(self) -> Recorder:
        return self._recorder

    @recorder.setter
    def recorder(self, value: Recorder) -> None:
        # the backend shares the recorder so internal maintenance
        # (scale folds) stays observable after set_recorder() swaps
        self._recorder = value
        self._backend.recorder = value

    # -- clock -------------------------------------------------------------

    @property
    def now(self) -> Optional[float]:
        """Current clock ``τ`` in days; ``None`` before the first update."""
        return self._now

    def advance_to(self, time: float) -> float:
        """Decay all statistics to ``time``; returns the multiplier λ^Δτ.

        Per Eq. 27-28 the decay is a single multiplication per document
        weight and one for ``tdw``; the columnar backend collapses both
        into per-array scale factors.
        """
        require_finite("time", time)
        if self._now is None:
            self._now = float(time)
            return 1.0
        if time < self._now:
            raise ConfigurationError(
                f"cannot advance clock backwards: now={self._now}, "
                f"requested {time}"
            )
        factor = self.model.decay_over(time - self._now)
        if factor != 1.0:
            self._backend.decay(factor)
        self._now = float(time)
        return factor

    # -- insertion / removal ------------------------------------------------

    def observe(self, documents: Iterable[Document], at_time: float) -> int:
        """Advance the clock to ``at_time`` and insert ``documents``.

        Each new document gets ``dw = λ^(at_time - T_i)`` — exactly 1.0
        when it arrives at the update time, as in the paper's batch
        model. Returns the number of documents inserted.

        The batch is **atomic**: every document is validated (no future
        timestamps, no ids already tracked, no intra-batch duplicates,
        clock not moving backwards) *before* any state — including the
        clock — is mutated, so a rejected batch leaves the statistics
        exactly as they were and can be corrected and re-sent.

        Backdated documents older than the life span are inserted too
        (expiry is the separate §5.2 step — call :meth:`expire` after,
        as the pipelines do); only :meth:`from_scratch` applies expiry
        during construction, because it rebuilds the *active* set.
        """
        batch = list(documents)
        self._validate_batch(batch, at_time)
        with Span(self.recorder, "statistics.observe",
                  {"batch": len(batch)}):
            self.advance_to(at_time)
            # λ^(τ-T) inline — the exact expression model.weight()
            # evaluates, minus its now>=T guard, which _validate_batch
            # has already enforced for the whole batch
            decay = self.model.decay_factor
            entries: List[Tuple[Document, float]] = [
                (doc, decay ** (at_time - doc.timestamp)) for doc in batch
            ]
            self._docs.update((doc.doc_id, doc) for doc in batch)
            self._backend.insert_batch(entries)
        if self.recorder.enabled:
            self.recorder.counter("statistics.docs_observed", len(batch))
            self._emit_level_gauges()
        return len(batch)

    def _validate_batch(
        self, batch: List[Document], at_time: float
    ) -> None:
        """Reject a bad batch before any mutation (atomicity guard)."""
        require_finite("at_time", at_time)
        if self._now is not None and at_time < self._now:
            raise ConfigurationError(
                f"cannot advance clock backwards: now={self._now}, "
                f"requested {at_time}"
            )
        if not batch:
            return
        # C-level screen first (max / set / isdisjoint); only walk the
        # batch again when something is wrong, to name the offender
        ids = [doc.doc_id for doc in batch]
        unique_ids = set(ids)
        clean = (
            len(unique_ids) == len(ids)
            and unique_ids.isdisjoint(self._docs.keys())
            and max(doc.timestamp for doc in batch) <= at_time
        )
        if clean:
            return
        seen: Set[str] = set()
        for doc in batch:
            if doc.timestamp > at_time:
                raise ConfigurationError(
                    f"document {doc.doc_id!r} from the future: "
                    f"T={doc.timestamp} > τ={at_time}"
                )
            if doc.doc_id in self._docs:
                raise ConfigurationError(
                    f"document {doc.doc_id!r} already tracked"
                )
            if doc.doc_id in seen:
                raise ConfigurationError(
                    f"document {doc.doc_id!r} appears twice in the batch"
                )
            seen.add(doc.doc_id)

    def _emit_level_gauges(self) -> None:
        """Gauge snapshot after a state change (enabled recorders only)."""
        self.recorder.gauge("statistics.active_docs", len(self._docs))
        self.recorder.gauge("statistics.tdw", self._backend.tdw)
        self.recorder.gauge(
            "statistics.vocabulary_size", self._backend.vocabulary_size()
        )

    def remove(self, doc_id: str) -> Document:
        """Remove one document, reversing its statistics contributions."""
        try:
            doc = self._docs.pop(doc_id)
        except KeyError:
            raise UnknownDocumentError(
                f"document {doc_id!r} not tracked"
            ) from None
        tdw_clamped = self._backend.remove_batch([doc])
        if tdw_clamped and self.recorder.enabled:
            # float residue drove tdw negative; the clamp keeps the
            # probabilities well-defined but is worth counting — a
            # hot loop of clamps would mean real drift
            self.recorder.counter("statistics.tdw_clamped")
        return doc

    def expire(self) -> List[Document]:
        """Remove and return all documents with ``dw < ε`` (§5.2 step 2).

        ``dw`` is judged at its exact value ``λ^(τ - T_i)`` (Eq. 1), the
        expression :meth:`observe` and :meth:`from_scratch` evaluate,
        not at the backend's incrementally decayed copy: a document
        whose age is exactly the life span sits on ``ε`` itself, and
        the eager and lazy decays round it to opposite sides. The
        backend's scan, widened by :data:`EXPIRY_SCAN_SLACK`, only
        picks the candidates.

        Documents whose weight has underflowed to exactly 0.0 are
        dropped even when expiry is disabled (``life_span=None``):
        they carry no probability mass, and keeping them would let
        ``tdw`` reach 0.0 with documents still "active".

        When expiry is disabled and no weight can have underflowed
        (the backend's lower bound on active weights is still
        positive), nothing can expire and the scan — plus its span and
        counters — is skipped entirely.
        """
        if (self.model.life_span is None
                and self._backend.min_weight_bound > 0.0):
            return []
        with Span(self.recorder, "statistics.expire"):
            epsilon = self.model.epsilon
            candidates = self._backend.expired_doc_ids(
                epsilon * (1.0 + EXPIRY_SCAN_SLACK)
            )
            decay = self.model.decay_factor
            # no document is tracked before the first update sets τ
            now = 0.0 if self._now is None else self._now
            expired = [
                self._docs.pop(doc_id) for doc_id in candidates
                if self._backend.dw(doc_id) == 0.0
                or decay ** (now - self._docs[doc_id].timestamp) < epsilon
            ]
            tdw_clamped = self._backend.remove_batch(expired)
            if tdw_clamped and self.recorder.enabled:
                self.recorder.counter("statistics.tdw_clamped")
        if self.recorder.enabled:
            self.recorder.counter("statistics.docs_expired", len(expired))
            self._emit_level_gauges()
        return expired

    # -- queries -------------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self._docs)

    def __len__(self) -> int:
        return len(self._docs)

    def __contains__(self, doc_id: object) -> bool:
        return doc_id in self._docs

    def doc_ids(self) -> List[str]:
        return list(self._docs.keys())

    def documents(self) -> List[Document]:
        return list(self._docs.values())

    def document(self, doc_id: str) -> Document:
        try:
            return self._docs[doc_id]
        except KeyError:
            raise UnknownDocumentError(
                f"document {doc_id!r} not tracked"
            ) from None

    @property
    def tdw(self) -> float:
        """Total document weight ``Σ dw_i`` (Eq. 3)."""
        return self._backend.tdw

    def dw(self, doc_id: str) -> float:
        """Weight ``dw_i`` of one document (Eq. 1)."""
        try:
            return self._backend.dw(doc_id)
        except KeyError:
            raise UnknownDocumentError(
                f"document {doc_id!r} not tracked"
            ) from None

    def pr_document(self, doc_id: str) -> float:
        """Selection probability ``Pr(d_i) = dw_i / tdw`` (Eq. 4)."""
        tdw = self._backend.tdw
        if tdw <= 0.0:
            raise EmptyCorpusError("no document weight in the corpus")
        return self.dw(doc_id) / tdw

    def term_rows(self, doc_ids: Sequence[str]) -> TermRows:
        """The held ``(term_id, count)`` rows of ``doc_ids`` (terms
        ascending), with their ``dw_i`` and ``len_i``, in order: what
        the vectoriser builds Eq. 12-16 from, without re-reading any
        document."""
        try:
            return self._backend.term_rows(doc_ids)
        except KeyError as missing:
            raise UnknownDocumentError(
                f"document {missing.args[0]!r} not tracked"
            ) from None

    def pr_term(self, term_id: int) -> float:
        """Occurrence probability ``Pr(t_k)`` (Eq. 10); 0.0 if unseen."""
        tdw = self._backend.tdw
        if tdw <= 0.0:
            return 0.0
        mass = self._backend.term_mass(term_id)
        if mass <= 0.0:
            return 0.0
        return min(1.0, mass / tdw)

    def idf(self, term_id: int) -> float:
        """Novelty idf ``1 / sqrt(Pr(t_k))`` (Eq. 14); 0.0 if unseen."""
        pr = self.pr_term(term_id)
        if pr <= 0.0:
            return 0.0
        return 1.0 / math.sqrt(pr)

    def idf_array(self, term_ids: IntArray) -> FloatArray:
        """Vectorised :meth:`idf` over an int64 term-id array.

        Identical arithmetic to the scalar path (same operation order,
        so the same floats), evaluated with three array expressions —
        this is what the batched vectorisation path queries instead of
        one Python call per term.
        """
        tdw = self._backend.tdw
        if tdw <= 0.0 or term_ids.size == 0:
            return np.zeros(term_ids.shape, dtype=np.float64)
        masses = self._backend.term_mass_array(term_ids)
        pr = np.where(
            masses > 0.0, np.minimum(1.0, masses / tdw), 0.0
        )
        return np.where(
            pr > 0.0, 1.0 / np.sqrt(np.where(pr > 0.0, pr, 1.0)), 0.0
        )

    def term_ids(self) -> List[int]:
        """Ids of all terms with positive mass."""
        return [tid for tid in self._backend.term_ids()
                if self.pr_term(tid) > 0.0]

    def term_probabilities(self) -> Dict[int, float]:
        """``{term_id: Pr(t_k)}`` for all active terms."""
        return {tid: self.pr_term(tid)
                for tid in self._backend.term_ids()}

    def weights(self) -> Dict[str, float]:
        """``{doc_id: dw_i}`` snapshot."""
        return self._backend.weights()

    def freeze(self) -> FrozenStatistics:
        """Immutable point-in-time view of the probability tables.

        Captures the clock, ``tdw`` and every positive term mass into
        plain numpy arrays — O(vocabulary), no per-document state — so
        concurrent readers can keep answering ``Pr(t_k)``/idf queries
        (same arithmetic, bit-for-bit at freeze time) while this
        object's single writer moves on. This is the statistics half of
        a published :class:`repro.service.ClusterSnapshot`.
        """
        all_ids = np.array(
            sorted(self._backend.term_ids()), dtype=np.int64
        )
        masses = (
            self._backend.term_mass_array(all_ids)
            if all_ids.size else np.zeros(0, dtype=np.float64)
        )
        keep = masses > 0.0
        return FrozenStatistics(
            now=self._now,
            tdw=self._backend.tdw,
            size=len(self._docs),
            term_ids=np.ascontiguousarray(all_ids[keep]),
            term_masses=np.ascontiguousarray(masses[keep]),
            backend_name=self.backend_name,
        )

    def validate(self, rel_tol: float = 1e-6) -> None:
        """Self-check: stored aggregates match a from-scratch recompute.

        Raises ``AssertionError`` on drift; used by tests and available
        to callers running very long streams.
        """
        weights = self._backend.weights()
        expected_tdw = sum(weights.values())
        tdw = self._backend.tdw
        assert math.isclose(tdw, expected_tdw, rel_tol=rel_tol,
                            abs_tol=1e-12), (
            f"tdw drift: stored {tdw}, expected {expected_tdw}"
        )
        expected_mass: Dict[int, float] = {}
        for doc_id, doc in self._docs.items():
            if not doc.length:
                continue
            weight = weights[doc_id]
            for term_id, count in zip(doc.term_ids.tolist(),
                                      doc.counts.tolist()):
                expected_mass[term_id] = (
                    expected_mass.get(term_id, 0.0)
                    + weight * count / doc.length
                )
        for term_id, expected in expected_mass.items():
            stored = self._backend.term_mass(term_id)
            assert math.isclose(stored, expected, rel_tol=rel_tol,
                                abs_tol=1e-12), (
                f"term {term_id} mass drift: stored {stored}, "
                f"expected {expected}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CorpusStatistics(docs={len(self._docs)}, "
            f"tdw={self._backend.tdw:.4f}, "
            f"terms={self._backend.vocabulary_size()}, "
            f"now={self._now}, backend={self.backend_name!r})"
        )
