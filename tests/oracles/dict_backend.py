"""The dict reference backend.

Plain-Python state exactly as :class:`CorpusStatistics` kept it before
the backend split: per-document weights in a dict decayed eagerly (an
O(m) multiply per clock advance, exactly as the paper's Eq. 27
describes), term masses in a dict under one lazy global scale factor
(Eq. 28's multiply applied to a single scalar instead of every
vocabulary entry), folded back into the raw table before the scalar
underflows.

This is the semantic reference
:class:`~repro.forgetting.backends.ColumnarStatisticsBackend` is
property-tested against; keep its arithmetic — including the exact
expression groupings — unchanged.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro._typing import FloatArray, IntArray
from repro.corpus.document import Document
from repro.forgetting.backends.base import SCALE_FLOOR, TermRows
from repro.obs import NULL_RECORDER, Recorder


class DictStatisticsBackend:
    """Reference dict-of-floats state store."""

    name = "dict"

    def __init__(self) -> None:
        self.recorder: Recorder = NULL_RECORDER
        self.tdw = 0.0
        self._dw: Dict[str, float] = {}
        # each tracked document's term-sorted (term_id, count) row
        self._rows: Dict[str, Tuple[Tuple[int, int], ...]] = {}
        self._term_mass_raw: Dict[int, float] = {}
        self._term_scale = 1.0
        # conservative lower bound on the smallest active weight; only
        # ever shrinks between resets, which is exactly what the expiry
        # fast path needs (it must never miss an underflowed weight)
        self._min_dw = math.inf

    # -- mutations ---------------------------------------------------------

    def decay(self, factor: float) -> None:
        if factor == 1.0:
            return
        for doc_id in self._dw:
            self._dw[doc_id] *= factor
        self.tdw *= factor
        self._min_dw *= factor
        if self._term_scale * factor < SCALE_FLOOR:
            # fold the old scale *and* this decay into the raw table
            # before the scalar underflows to 0.0 (a huge time jump
            # can do that in one step, which would poison every
            # later insert with a division by zero)
            self._fold_scale(extra_factor=factor)
        else:
            self._term_scale *= factor

    def _fold_scale(self, extra_factor: float = 1.0) -> None:
        scale = self._term_scale * extra_factor
        self._term_mass_raw = {
            term_id: mass * scale
            for term_id, mass in self._term_mass_raw.items()
            if mass * scale > 0.0
        }
        self._term_scale = 1.0
        if self.recorder.enabled:
            self.recorder.counter("statistics.scale_folds")

    def insert_batch(
        self, entries: Sequence[Tuple[Document, float]]
    ) -> None:
        for doc, weight in entries:
            self._dw[doc.doc_id] = weight
            self._rows[doc.doc_id] = tuple(sorted(doc.term_counts.items()))
            self.tdw += weight
            if weight < self._min_dw:
                self._min_dw = weight
            if doc.length:
                inv_scale = weight / (self._term_scale * doc.length)
                for term_id, count in doc.term_counts.items():
                    self._term_mass_raw[term_id] = (
                        self._term_mass_raw.get(term_id, 0.0)
                        + count * inv_scale
                    )

    def remove(self, doc: Document) -> Tuple[float, bool]:
        weight = self._dw.pop(doc.doc_id)
        del self._rows[doc.doc_id]
        self.tdw -= weight
        clamped = False
        if self.tdw < 0.0:
            self.tdw = 0.0
            clamped = True
        if doc.length:
            inv_scale = weight / (self._term_scale * doc.length)
            for term_id, count in doc.term_counts.items():
                mass = self._term_mass_raw.get(term_id)
                if mass is None:
                    continue
                mass -= count * inv_scale
                if mass <= 0.0:
                    del self._term_mass_raw[term_id]
                else:
                    self._term_mass_raw[term_id] = mass
        if not self._dw:
            # clear float residue so an emptied corpus is exactly empty
            self.tdw = 0.0
            self._term_mass_raw.clear()
            self._term_scale = 1.0
            self._min_dw = math.inf
        return weight, clamped

    def remove_batch(self, docs: Sequence[Document]) -> bool:
        """Per-document removal loop; True if any ``tdw`` clamp fired."""
        clamped = False
        for doc in docs:
            _, doc_clamped = self.remove(doc)
            clamped = clamped or doc_clamped
        return clamped

    def expired_doc_ids(self, epsilon: float) -> List[str]:
        return [
            doc_id for doc_id, weight in self._dw.items()
            if weight == 0.0 or weight < epsilon
        ]

    # -- queries -----------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self._dw)

    def dw(self, doc_id: str) -> float:
        return self._dw[doc_id]

    def weights(self) -> Dict[str, float]:
        return dict(self._dw)

    @property
    def min_weight_bound(self) -> float:
        return self._min_dw

    def term_rows(self, doc_ids: Sequence[str]) -> TermRows:
        rows = [self._rows[doc_id] for doc_id in doc_ids]
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum([len(row) for row in rows], out=indptr[1:])
        return TermRows(
            indptr=indptr,
            term_ids=np.array([t for row in rows for t, _ in row],
                              dtype=np.int64),
            counts=np.array([c for row in rows for _, c in row],
                            dtype=np.int64),
            weights=np.array([self._dw[doc_id] for doc_id in doc_ids],
                             dtype=np.float64),
            lengths=np.array([sum(c for _, c in row) for row in rows],
                             dtype=np.float64),
        )

    def term_mass(self, term_id: int) -> float:
        mass = self._term_mass_raw.get(term_id, 0.0)
        if mass <= 0.0:
            return 0.0
        return mass * self._term_scale

    def term_mass_array(self, term_ids: IntArray) -> FloatArray:
        raw = self._term_mass_raw
        masses = np.fromiter(
            (raw.get(tid, 0.0) for tid in term_ids.tolist()),
            dtype=np.float64,
            count=term_ids.size,
        )
        np.maximum(masses, 0.0, out=masses)
        return masses * self._term_scale

    def term_ids(self) -> List[int]:
        return [tid for tid, mass in self._term_mass_raw.items()
                if mass > 0.0]

    def vocabulary_size(self) -> int:
        return len(self._term_mass_raw)

    def clone(self) -> "DictStatisticsBackend":
        other = DictStatisticsBackend()
        other.recorder = self.recorder
        other.tdw = self.tdw
        other._dw = dict(self._dw)
        other._rows = dict(self._rows)
        other._term_mass_raw = dict(self._term_mass_raw)
        other._term_scale = self._term_scale
        other._min_dw = self._min_dw
        return other
