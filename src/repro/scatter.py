"""Compiled scatter-add with ``np.add.at`` semantics.

``np.add.at`` applies ``out[indices[i]] += updates[i]`` sequentially in
input order. A CSC product with one unit entry per update,
``out += A @ updates`` with ``A[indices[i], i] = 1``, performs the same
additions in the same order, in compiled code. scipy's internal
``csc_matvecs``/``csr_matvecs`` accumulate straight into the output.
The LINE kernels and the k-means centroid update both scatter here.
"""

from __future__ import annotations

import numpy as np

__all__ = ["HAVE_SPARSETOOLS", "segment_scatter_add", "sparsetools"]

try:  # scipy's compiled CSC/CSR accumulation routines (private module).
    from scipy.sparse import _sparsetools as sparsetools

    HAVE_SPARSETOOLS = callable(
        getattr(sparsetools, "csc_matvecs", None)
    ) and callable(getattr(sparsetools, "csr_matvecs", None))
except Exception:  # pragma: no cover - scipy always present in this repo
    sparsetools = None  # type: ignore[assignment]
    HAVE_SPARSETOOLS = False


def segment_scatter_add(
    out: np.ndarray, indices: np.ndarray, updates: np.ndarray
) -> None:
    """``out[indices[i]] += updates[i]``, bit for bit as ``np.add.at``.

    ``out`` is a C-contiguous float64 ``(rows, d)`` table and
    ``updates`` a float64 ``(len(indices), d)`` block; duplicate indices
    accumulate in input order.
    """
    count = int(indices.shape[0])
    if count == 0:
        return
    if not HAVE_SPARSETOOLS:  # pragma: no cover - scipy always present
        np.add.at(out, indices, updates)
        return
    indices = np.ascontiguousarray(indices)
    indptr = np.arange(count + 1, dtype=indices.dtype)
    sparsetools.csc_matvecs(
        out.shape[0],
        count,
        out.shape[1],
        indptr,
        indices,
        np.ones(count),
        np.ascontiguousarray(updates),
        out,
    )
