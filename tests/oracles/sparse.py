"""Dict-backed sparse vectors over integer term ids.

The paper-literal oracles (:mod:`.cluster`, :mod:`.repair`) and
hand-written test cases speak ``{doc_id: SparseVector}``: one hash map
per document or representative, with the paper's one-vector-at-a-time
dot products. The library itself holds weighted vectors only as CSR
batches (:class:`~repro.vectors.arrays.WeightedVectorArrays`).

The one mutating operation is explicit (``add_scaled``); the
arithmetic operators return new vectors.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Iterator, Mapping, Tuple, Union


class SparseVector:
    """A sparse mapping ``term_id -> float`` with vector algebra.

    Zero-valued entries are pruned on construction and after in-place
    updates, so ``len(v)`` is always the number of structurally non-zero
    components.

    >>> v = SparseVector({0: 1.0, 3: 2.0})
    >>> w = SparseVector({3: 4.0, 7: 1.0})
    >>> v.dot(w)
    8.0
    """

    __slots__ = ("_data",)

    def __init__(
        self,
        data: Union[
            "SparseVector",
            Mapping[int, float],
            Iterable[Tuple[int, float]],
        ] = (),
    ) -> None:
        if isinstance(data, SparseVector):
            self._data = dict(data._data)
        else:
            self._data = {
                int(k): float(v) for k, v in dict(data).items() if v != 0.0
            }

    # -- inspection -----------------------------------------------------

    def get(self, key: int, default: float = 0.0) -> float:
        return self._data.get(key, default)

    def items(self) -> Iterable[Tuple[int, float]]:
        return self._data.items()

    def keys(self) -> Iterable[int]:
        return self._data.keys()

    def values(self) -> Iterable[float]:
        return self._data.values()

    def to_dict(self) -> Dict[int, float]:
        return dict(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def __bool__(self) -> bool:
        return bool(self._data)

    def __iter__(self) -> Iterator[int]:
        return iter(self._data)

    def __contains__(self, key: object) -> bool:
        return key in self._data

    def __getitem__(self, key: int) -> float:
        return self._data.get(key, 0.0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseVector):
            return NotImplemented
        return self._data == other._data

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        preview = dict(list(sorted(self._data.items()))[:4])
        suffix = "..." if len(self._data) > 4 else ""
        return f"SparseVector({preview}{suffix}, nnz={len(self._data)})"

    def allclose(self, other: "SparseVector", rel_tol: float = 1e-9,
                 abs_tol: float = 1e-12) -> bool:
        """Numerical equality with tolerances over the union support."""
        for key in set(self._data) | set(other._data):
            if not math.isclose(
                self._data.get(key, 0.0),
                other._data.get(key, 0.0),
                rel_tol=rel_tol,
                abs_tol=abs_tol,
            ):
                return False
        return True

    # -- algebra (pure) ---------------------------------------------------

    def dot(self, other: "SparseVector") -> float:
        """Sparse dot product; iterates the smaller operand."""
        a, b = self._data, other._data
        if len(a) > len(b):
            a, b = b, a
        total = 0.0
        for key, value in a.items():
            bval = b.get(key)
            if bval is not None:
                total += value * bval
        return total

    def norm(self) -> float:
        """Euclidean norm."""
        return math.sqrt(sum(value * value for value in self._data.values()))

    def sum(self) -> float:
        """Sum of all components."""
        return sum(self._data.values())

    def scaled(self, factor: float) -> "SparseVector":
        """Return ``factor * self`` as a new vector."""
        if factor == 0.0:
            return SparseVector()
        result = SparseVector()
        result._data = {k: v * factor for k, v in self._data.items()}
        return result

    def __add__(self, other: "SparseVector") -> "SparseVector":
        result = SparseVector(self._data)
        result.add_scaled(other, 1.0)
        return result

    def __sub__(self, other: "SparseVector") -> "SparseVector":
        result = SparseVector(self._data)
        result.add_scaled(other, -1.0)
        return result

    def __mul__(self, factor: float) -> "SparseVector":
        return self.scaled(float(factor))

    __rmul__ = __mul__

    def normalized(self) -> "SparseVector":
        """Return the unit vector (or the zero vector unchanged)."""
        norm = self.norm()
        if norm == 0.0:
            return SparseVector()
        return self.scaled(1.0 / norm)

    # -- algebra (in place, for accumulators) ----------------------------

    def add_scaled(self, other: "SparseVector", factor: float) -> None:
        """In-place ``self += factor * other`` with zero pruning."""
        if factor == 0.0:
            return
        data = self._data
        for key, value in other._data.items():
            new_value = data.get(key, 0.0) + factor * value
            if new_value == 0.0:
                data.pop(key, None)
            else:
                data[key] = new_value
