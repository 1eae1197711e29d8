"""Cleanup (item) memory: recover the nearest known symbol by cosine similarity.

Entries live as rows of one float64 matrix, with their squared norms cached
when they are stored. A query, or a ``(count, dim)`` stack of them, is an
exact scan: one product of the stored rows with the transposed stack (a
matrix-vector product for one query), then a stable sort of each query's n
similarities, so retrieval is deterministic and ties go to the earlier
entry. A stack streams the stored rows once rather than once per query.
When rows and queries are integer-valued and every dot product is below
2^53, as in the flip bench's ``ground_truth`` and ``random`` trials, each
query's similarities are bit for bit those of its own 1-D call; for other
values only the rounding order of the dot products differs.

Memory grows by doubling its row capacity; a memory built with
``from_matrix`` adopts the caller's matrix without copying it. Rows and
queries take their squared norms from ``hv.safe_norms2``, so similarities
agree with ``hv.cosine_similarity`` at any magnitude.
"""

from __future__ import annotations

from typing import Hashable, Iterable

import numpy as np

from .errors import DegenerateInputError, InvalidArgumentError, InvalidStateError
from .hv import as_hypervectors, as_int, row_dots, safe_norms2, sum_products


class ItemMemory:
    """Ordered store of labeled hypervectors, queried by cosine similarity."""

    def __init__(self):
        self._labels: list[Hashable] = []
        self._index: dict[Hashable, int] = {}
        self._rows = np.empty((0, 0))
        self._norms2 = np.empty(0)

    @classmethod
    def from_matrix(cls, labels: Iterable[Hashable], matrix) -> "ItemMemory":
        """A memory holding row i of an ``(n, dim)`` matrix under ``labels[i]``.

        A C-contiguous float64 matrix is adopted without a copy (unless a row
        needs scaling), so the caller must not change it while the memory is in
        use. Rows are validated as ``add`` validates one vector.
        """
        labels = list(labels)
        rows = np.ascontiguousarray(matrix, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] < 1:
            raise InvalidArgumentError(f"matrix must be (n, dim) with dim >= 1, got shape {rows.shape}")
        if len(labels) != rows.shape[0]:
            raise InvalidArgumentError(f"{len(labels)} labels for {rows.shape[0]} rows")
        index = {label: i for i, label in enumerate(labels)}
        if len(index) != len(labels):
            dup = next(label for i, label in enumerate(labels) if index[label] != i)
            raise InvalidArgumentError(f"duplicate label {dup!r}")
        rows, norms2 = _stored(rows, labels)
        mem = cls()
        mem._labels, mem._index, mem._rows, mem._norms2 = labels, index, rows, norms2
        return mem

    def __len__(self) -> int:
        return len(self._labels)

    @property
    def labels(self) -> list[Hashable]:
        return list(self._labels)

    @property
    def dim(self) -> int | None:
        return self._rows.shape[1] if self._rows.shape[1] else None

    def add(self, label: Hashable, vector) -> "ItemMemory":
        """Append an entry; labels are unique and insertion order is preserved."""
        if label in self._index:
            raise InvalidArgumentError(f"duplicate label {label!r}")
        v = as_hypervectors(vector)
        if v.ndim != 1:
            raise InvalidArgumentError(f"hypervector must be 1-D and nonempty, got shape {v.shape}")
        dim = self.dim
        if dim is not None and v.shape[0] != dim:
            raise InvalidArgumentError(f"vector dim {v.shape[0]} does not match memory dim {dim}")
        (v,), (n2,) = _stored(v[np.newaxis], [label])
        n = len(self._labels)
        if n == self._norms2.shape[0]:
            self._grow(max(2 * n, 8), v.shape[0])
        self._rows[n] = v
        self._norms2[n] = n2
        self._index[label] = n
        self._labels.append(label)
        return self

    def _grow(self, capacity: int, dim: int) -> None:
        n = len(self._labels)
        rows, norms2 = np.empty((capacity, dim)), np.empty(capacity)
        if n:
            rows[:n], norms2[:n] = self._rows[:n], self._norms2[:n]
        self._rows, self._norms2 = rows, norms2

    def cleanup(self, query, k: int = 1) -> list:
        """Top-k (label, cosine similarity) of a ``(dim,)`` query, ties broken by
        insertion order; for a ``(count, dim)`` stack, one such list per row."""
        n = len(self._labels)
        if not n:
            raise InvalidStateError("cleanup on an empty memory")
        k = as_int(k, "an integer k")
        if k < 1:
            raise InvalidArgumentError(f"k must be >= 1, got {k}")
        q = as_hypervectors(query)
        if q.ndim > 2 or q.shape[-1] != self.dim:
            raise InvalidArgumentError(f"query shape {q.shape} is not (dim,) or (count, dim) for memory dim {self.dim}")
        queries, qn2 = safe_norms2(np.atleast_2d(q), row_dots)
        zero = np.flatnonzero(qn2 == 0.0)
        if zero.size:
            raise DegenerateInputError(f"cleanup query has zero norm (rows {zero.tolist()})")
        sims = ((self._rows[:n] @ queries.T) / np.sqrt(self._norms2[:n, np.newaxis] * qn2)).T
        order = np.argsort(-sims, axis=1, kind="stable")[:, :k]
        tops = [[(self._labels[i], float(s)) for i, s in zip(row, sim[row])] for row, sim in zip(order, sims)]
        return tops[0] if q.ndim == 1 else tops


def _stored(rows: np.ndarray, labels: list[Hashable]) -> tuple[np.ndarray, np.ndarray]:
    """Rows fit to store, and their squared norms: rows scaled as ``hv.safe_norms2``
    scales them, rows with a non-finite entry or zero norm rejected."""
    rows, norms2 = safe_norms2(rows, sum_products)
    # only a non-finite entry leaves a norm non-finite once extreme rows are scaled
    bad = np.flatnonzero(~np.isfinite(norms2))
    if bad.size:
        raise InvalidArgumentError(f"hypervector entries must be finite (row {bad[0]}, {labels[bad[0]]!r})")
    zero = np.flatnonzero(norms2 == 0.0)
    if zero.size:
        raise DegenerateInputError(f"cannot store zero-norm vector for {labels[zero[0]]!r}")
    return rows, norms2
