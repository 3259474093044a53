"""Sparse operators for the encoder: interaction matrix, bipartite
adjacency, and the thresholded item co-occurrence (complement) matrix.

Every builder returns a float64 ``scipy.sparse.csr_matrix`` in scipy's
canonical format (duplicates summed, no explicit zeros, column indices
sorted within each row), so ``indptr``/``indices`` can be read directly as
per-row item lists.  scipy makes that form: a CSR built from COO
coordinates, as R is, and ``bmat``'s CSR adjacency sum duplicates and
sort columns; the complement calls ``sum_duplicates`` on its product,
and ``sym_normalize`` keeps its input's layout and drops the entries its
scaling zeroes."""

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


@dataclass
class NormalizedGraph:
    """One train fold's graphs: the fold-level state a training step and
    an evaluation read.

    ``train`` is the fold's train split, whose pairs an epoch iterates;
    ``R`` is the m x n binary train matrix, used for negative sampling
    and masking; ``ui`` is the (m+n)x(m+n) symmetric-normalized user-item
    adjacency; ``comp`` is the nxn normalized item complement matrix, or
    None when the complement channel is disabled.  All are canonical CSR.
    """

    train: object
    R: sp.csr_matrix
    ui: sp.csr_matrix
    comp: sp.csr_matrix | None

    @property
    def num_users(self):
        return self.R.shape[0]

    @property
    def num_items(self):
        return self.R.shape[1]


def build_interaction_matrix(split):
    """Binary m x n interaction matrix R from a split's (user, item) pairs."""
    if len(split.pairs) == 0:
        raise ValueError("split has no interactions")
    u = split.pairs[:, 0]
    i = split.pairs[:, 1]
    data = np.ones(len(u), dtype=np.float64)
    return sp.csr_matrix((data, (u, i)),
                         shape=(split.num_users, split.num_items))


def build_adjacency(R):
    """Bipartite block adjacency [[0, R], [R^T, 0]] of size (m+n)x(m+n)."""
    return sp.bmat([[None, R], [R.T, None]], format="csr")


def build_complement(R, gamma):
    """Item complement matrix: co-consumption counts, thresholded and normalized.

    Computes R^T R, zeroes its diagonal and its entries strictly below
    ``gamma`` in one pass, then applies symmetric degree normalization;
    ``gamma`` = 0 keeps every off-diagonal entry.  If every entry is
    filtered out the result is an empty matrix and a warning is emitted;
    the channel then propagates nothing.  The product is taken in item
    ids and ``sum_duplicates`` makes its canonical form explicit.

    R is binary, so no count of an item exceeds its number of users: the
    filter deletes every entry of an item bought by fewer than ``gamma``
    users, and those items' entries leave a copy of R before the
    product.  Each step only deletes entries, and whether it deletes one
    depends on that entry alone, so the order leaves the same entries
    with the same counts.
    """
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    n = R.shape[1]
    if gamma > 0:  # R is shared, so the pruned items leave a copy
        R = R.copy()
        R.data[np.asarray(R.sum(axis=0)).ravel()[R.indices] < gamma] = 0.0
        R.eliminate_zeros()
    C = (R.T @ R).tocsr()
    rows = np.repeat(np.arange(n), np.diff(C.indptr))
    C.data[(C.data < gamma) | (rows == C.indices)] = 0.0
    C.eliminate_zeros()
    C.sum_duplicates()
    if C.nnz == 0:
        warnings.warn("complement matrix is empty after filtering; the "
                      "complement channel will contribute nothing")
        return C
    return sym_normalize(C)


def sym_normalize(M):
    """Scale each entry M[a][b] by 1/sqrt(deg(a) * deg(b)).

    Degrees are row sums.  Rows (and columns) with zero degree stay empty;
    their scale is treated as zero so isolated nodes propagate nothing.
    Each stored entry is scaled as inv[a] * M[a][b] * inv[b], the order
    the product D M D with D = diag(inv) applies.  The result is a
    float64 copy of M in M's layout, less the entries the scaling zeroes
    (those of a zero-degree column in a non-symmetric M).
    """
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"matrix must be square, got {M.shape[0]}x{M.shape[1]}")
    if M.nnz and M.data.min() < 0:
        raise ValueError("sym_normalize requires nonnegative entries")
    deg = np.asarray(M.sum(axis=1)).ravel()
    with np.errstate(divide="ignore"):
        inv_sqrt = 1.0 / np.sqrt(deg)
    inv_sqrt[~np.isfinite(inv_sqrt)] = 0.0
    out = sp.csr_matrix(M, dtype=np.float64, copy=True)
    out.data *= np.repeat(inv_sqrt, np.diff(out.indptr))
    out.data *= inv_sqrt[out.indices]
    out.eliminate_zeros()
    return out


def build_graph(train, gamma, complement_enabled=True):
    """Assemble the :class:`NormalizedGraph` for one train fold."""
    R = build_interaction_matrix(train)
    A = sym_normalize(build_adjacency(R))
    comp = build_complement(R, gamma) if complement_enabled else None
    return NormalizedGraph(train=train, R=R, ui=A, comp=comp)
