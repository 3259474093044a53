"""Sparse operators for the encoder: interaction matrix, bipartite
adjacency, and the thresholded item co-occurrence (complement) matrix.

Every builder returns a ``scipy.sparse.csr_matrix`` in scipy's canonical
format (duplicates summed, no explicit zeros, column indices sorted within
each row), so ``indptr``/``indices`` can be read directly as per-row item
lists."""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

__all__ = [
    "NormalizedGraph",
    "build_interaction_matrix",
    "build_adjacency",
    "build_complement",
    "sym_normalize",
    "build_graph",
]


def _canonical(mat):
    """``mat`` as float64 CSR in canonical format.  ``mat`` must be a
    fresh matrix: a float64 CSR input is canonicalized in place."""
    m = sp.csr_matrix(mat, dtype=np.float64)
    m.sum_duplicates()
    m.eliminate_zeros()
    m.sort_indices()
    return m


@dataclass
class NormalizedGraph:
    """The binary train matrix and the two normalized propagation
    operators used by the encoder.

    ``R`` is the m x n binary train matrix; ``ui`` is the (m+n)x(m+n)
    symmetric-normalized user-item adjacency; ``comp`` is the nxn
    normalized item complement matrix, or None when the complement channel
    is disabled.
    """

    R: sp.csr_matrix
    ui: sp.csr_matrix
    comp: sp.csr_matrix | None


def build_interaction_matrix(split):
    """Binary m x n interaction matrix R from a split's (user, item) pairs."""
    if len(split.pairs) == 0:
        raise ValueError("split has no interactions")
    u = split.pairs[:, 0]
    i = split.pairs[:, 1]
    data = np.ones(len(u), dtype=np.float64)
    return _canonical(sp.coo_matrix((data, (u, i)),
                                    shape=(split.num_users, split.num_items)))


def build_adjacency(R):
    """Bipartite block adjacency [[0, R], [R^T, 0]] of size (m+n)x(m+n)."""
    return _canonical(sp.bmat([[None, R], [R.T, None]], format="csr"))


def build_complement(R, gamma, apply_filter=True):
    """Item complement matrix: co-consumption counts, thresholded and normalized.

    Computes R^T R, removes the diagonal, zeroes entries strictly below
    ``gamma`` (kept when ``apply_filter`` is False), then applies symmetric
    degree normalization.  If every entry is filtered out the result is an
    empty matrix and a warning is emitted; the channel then propagates
    nothing.
    """
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    C = (R.T @ R).tocsr()
    C.setdiag(0.0)
    C.eliminate_zeros()
    if apply_filter and gamma > 0:
        C.data[C.data < gamma] = 0.0
        C.eliminate_zeros()
    if C.nnz == 0:
        warnings.warn("complement matrix is empty after filtering; the "
                      "complement channel will contribute nothing")
        return _canonical(C)
    return sym_normalize(C)


def sym_normalize(M):
    """Scale each entry M[a][b] by 1/sqrt(deg(a) * deg(b)).

    Degrees are row sums.  Rows (and columns) with zero degree stay empty;
    their scale is treated as zero so isolated nodes propagate nothing.
    """
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"matrix must be square, got {M.shape[0]}x{M.shape[1]}")
    if M.nnz and M.data.min() < 0:
        raise ValueError("sym_normalize requires nonnegative entries")
    deg = np.asarray(M.sum(axis=1)).ravel()
    with np.errstate(divide="ignore"):
        inv_sqrt = 1.0 / np.sqrt(deg)
    inv_sqrt[~np.isfinite(inv_sqrt)] = 0.0
    D = sp.diags(inv_sqrt)
    return _canonical(D @ M @ D)


def build_graph(train, gamma, complement_enabled=True, apply_filter=True):
    """Assemble the :class:`NormalizedGraph` for one train fold."""
    R = build_interaction_matrix(train)
    A = sym_normalize(build_adjacency(R))
    comp = None
    if complement_enabled:
        comp = build_complement(R, gamma, apply_filter=apply_filter)
    return NormalizedGraph(R=R, ui=A, comp=comp)
