"""Cleanup (item) memory: recover the nearest known symbol by cosine similarity.

Entries live as rows of one float64 or float32 matrix, with their float64
squared norms cached when they are stored. A query, or a ``(count, dim)``
stack of them, is an exact scan: one product of the stored rows with the
transposed stack (a matrix-vector product for one query), then a stable sort
of each query's n similarities (for the top 1, its first maximum), so
retrieval is deterministic and ties go to the earlier entry. A stack streams
the stored rows once rather than once per query. When rows and queries are
integer-valued and every dot product is below 2^53, as with bipolar rows and
bundled queries, each query's similarities are bit for bit those of its own
1-D call; for other values only the rounding order of the dot products
differs.

Entry i is row i of the matrix, which holds exactly the stored entries, at
least one. ``ItemMemory(matrix)`` is the one store path: it adopts the
caller's matrix without copying it, and ``add`` rebuilds the memory through
it from a new matrix that ends in the added row, which costs O(n * dim) a
call. ``cleanup`` answers with two arrays, the top-k row indices and their
float64 similarities, each ``(k,)`` for a ``(dim,)`` query and ``(count, k)``
for a stack; a k above the entry count is rejected. Rows and queries take
their squared norms from ``hv.safe_norms2``, so similarities agree with
``hv.cosine_similarity`` at any magnitude. Those squared norms are also the
finiteness check: ``hv.check_rows`` rejects by them a row or query with a
non-finite entry or a zero norm.

A float32 matrix stays float32, halving the bytes a scan reads, until an
``add`` stores a widened copy; a grown memory then holds the float64 squared
norm of every row, so it answers bit for bit as a memory built from the
widened rows. A float32 vector or query is widened for its squared norm.
Queries to a float32 memory are then rounded to float32 and dot products
summed in float32, which is exact for integers whose partial sums stay
within 2^24, as in the flip bench, and float32-accurate otherwise.
Query scaling belongs to ``safe_norms2``, which is told the dtype the scan
sums in: a query to a float32 memory whose squared norm lies outside its
float32 range is first scaled by a power of two, which is exact, so that the
cast neither flushes it to zero nor overflows it, and a stored float32 row
outside that range is scaled the same way.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError
from .hv import as_count, as_hypervectors, check_rows, row_dots, safe_norms2, sum_products


class ItemMemory:
    """Ordered store of hypervectors, entry i in row i, queried by cosine similarity. ``safe_norms2``
    scales a query of extreme norm by a power of two, which is exact, before a float32 memory's cast."""

    def __init__(self, matrix):
        """A memory holding row i of a nonempty ``(n, dim)`` matrix as entry i.

        A C-contiguous float64 or float32 matrix is adopted without a copy
        (unless a row needs scaling), so the caller must not change it while the
        memory is in use. It holds the store rules: ``add`` rebuilds through it.
        """
        rows, norms2 = safe_norms2(np.ascontiguousarray(as_hypervectors(matrix, (2,))), sum_products)
        check_rows(norms2[:, np.newaxis], "cannot store a zero-norm vector")
        self._rows, self._norms2 = rows, norms2

    def __len__(self) -> int:
        return self._rows.shape[0]

    @property
    def dim(self) -> int:
        return self._rows.shape[1]

    def add(self, vector) -> "ItemMemory":
        """Append the vector as entry ``len(self)``. The memory is rebuilt by its constructor
        from a new matrix, which widens float32 rows, that ends in the vector."""
        v = as_hypervectors(vector, (1,)).astype(np.float64, copy=False)
        if v.shape[0] != self.dim:
            raise InvalidArgumentError(f"vector dim {v.shape[0]} does not match memory dim {self.dim}")
        vars(self).update(vars(ItemMemory(np.concatenate((self._rows, v[np.newaxis])))))
        return self

    def cleanup(self, query, k: int = 1) -> tuple[np.ndarray, np.ndarray]:
        """The top-k entry indices and float64 cosine similarities of a ``(dim,)`` query, as two
        ``(k,)`` arrays with ties to the earlier entry; for a ``(count, dim)`` stack, two ``(count, k)``."""
        k = as_count(k, "k")
        if k > len(self):
            raise InvalidArgumentError(f"k must be <= {len(self)}, the memory's entry count, got {k}")
        q = as_hypervectors(query)
        if q.shape[-1] != self.dim:
            raise InvalidArgumentError(f"query shape {q.shape} is not (dim,) or (count, dim) for memory dim {self.dim}")
        rows = self._rows
        # widened for the norm, but scaled into the range of the dtype the scan sums in
        queries, qn2 = safe_norms2(np.atleast_2d(q).astype(np.float64, copy=False), row_dots, rows.dtype)
        check_rows(qn2[:, np.newaxis], "cleanup query has zero norm")
        sims = ((rows @ queries.astype(rows.dtype, copy=False).T) / np.sqrt(self._norms2[:, np.newaxis] * qn2)).T
        if k == 1:  # the first maximum, which the stable sort would put first
            order = np.argmax(sims, axis=1)[:, np.newaxis]
        else:
            order = np.argsort(-sims, axis=1, kind="stable")[:, :k]
        sims = np.take_along_axis(sims, order, axis=1)
        return (order[0], sims[0]) if q.ndim == 1 else (order, sims)

