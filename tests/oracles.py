"""Brute-force dense reference implementations the tests compare against,
the compositions of tape primitives each fused primitive replaces, and
the plain forms of the log loader, the complement build and the
symmetric normalization.

Everything here favors clarity over speed and works on small instances
only; the library must agree with the dense references to tight
tolerances, and the fused primitives and the set-up code with their
plain forms bit for bit.
"""

import re
import warnings

import numpy as np
import scipy.sparse as sp

import gclrec.diffcore as dc
from gclrec.dataset import DataError, InteractionSet, ParseError, text_lines
from gclrec.graphs import _canonical


def sym_normalize_dense(M):
    """D^(-1/2) M D^(-1/2) with zero-degree scales forced to zero."""
    deg = M.sum(axis=1)
    with np.errstate(divide="ignore"):
        s = 1.0 / np.sqrt(deg)
    s[~np.isfinite(s)] = 0.0
    return (s[:, None] * M) * s[None, :]


def complement_dense(R, gamma, apply_filter=True):
    """Thresholded, normalized item co-occurrence matrix, densely."""
    C = R.T @ R
    np.fill_diagonal(C, 0.0)
    if apply_filter:
        C = np.where(C < gamma, 0.0, C)
    return sym_normalize_dense(C)


def sym_normalize_reference(M):
    """:func:`graphs.sym_normalize` as the product D M D of sparse
    matrices, D = diag(1 / sqrt(row sums)) with zero-degree scales zero."""
    deg = np.asarray(M.sum(axis=1)).ravel()
    with np.errstate(divide="ignore"):
        inv_sqrt = 1.0 / np.sqrt(deg)
    inv_sqrt[~np.isfinite(inv_sqrt)] = 0.0
    D = sp.diags(inv_sqrt)
    return _canonical(D @ M @ D)


def complement_reference(R, gamma, apply_filter=True):
    """:func:`graphs.build_complement` in its plain order: drop the
    diagonal of the whole R^T R, then filter at ``gamma``, then normalize
    as D M D."""
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
    return sym_normalize_reference(C)


_FIELD_SEP = re.compile(r"[,\s]+")


def load_interactions_reference(path):
    """:func:`dataset.load_interactions` as a regex split of each stripped
    line, with tuple keys in a set for deduplication."""
    user_map, item_map = {}, {}
    pairs = []
    seen = set()
    for lineno, line in text_lines(path):
        fields = _FIELD_SEP.split(line)
        if len(fields) < 2:
            raise ParseError(f"{path}: line {lineno}: expected at least "
                             f"2 fields, got {len(fields)}")
        raw_u, raw_i = fields[0], fields[1]
        if not (raw_u and raw_i):
            raise ParseError(f"{path}: line {lineno}: empty "
                             f"{'user' if not raw_u else 'item'} field")
        if raw_u not in user_map:
            user_map[raw_u] = len(user_map)
        if raw_i not in item_map:
            item_map[raw_i] = len(item_map)
        key = (user_map[raw_u], item_map[raw_i])
        if key not in seen:
            seen.add(key)
            pairs.append(key)
    if not pairs:
        raise DataError(f"{path}: no interactions found")
    return InteractionSet(
        num_users=len(user_map),
        num_items=len(item_map),
        pairs=np.array(pairs, dtype=np.int64),
        user_map=user_map,
        item_map=item_map,
    )


def adjacency_dense(R):
    """[[0, R], [R^T, 0]] block matrix, densely."""
    m, n = R.shape
    A = np.zeros((m + n, m + n))
    A[:m, m:] = R
    A[m:, :m] = R.T
    return A


def propagate_dense(A_norm, z0, noise_per_layer, num_layers):
    """Reference encoder propagation: z_k = A_norm @ (z_{k-1} + noise_k),
    averaged over layers 1..L (the input layer is excluded)."""
    z = z0
    acc = np.zeros_like(z0)
    per_layer = [z0]
    for k in range(num_layers):
        z = A_norm @ (z + noise_per_layer[k])
        per_layer.append(z)
        acc += z
    return acc / num_layers, per_layer


def topk_rank_dense(scores, train_items, k):
    """Exhaustive top-k with train-item masking; ties break toward the
    lower item index."""
    s = scores.astype(np.float64).copy()
    s[list(train_items)] = -np.inf
    order = sorted(range(len(s)), key=lambda i: (-s[i], i))
    order = [i for i in order if np.isfinite(s[i])]
    return order[:k]


def ranking_metrics_dense(scores, train_items, test_items, k):
    """Precision, recall, NDCG at k for one user, by direct enumeration."""
    top = topk_rank_dense(scores, train_items, k)
    test = set(test_items)
    hits = [1.0 if i in test else 0.0 for i in top]
    precision = sum(hits) / k
    recall = sum(hits) / len(test)
    dcg = sum(h / np.log2(r + 2) for r, h in enumerate(hits))
    ideal = min(len(test), k)
    idcg = sum(1.0 / np.log2(r + 2) for r in range(ideal))
    return precision, recall, dcg / idcg


def infonce_dense(view_a, view_b, tau):
    """Mean multi-pair contrastive loss by direct summation."""
    a = view_a / np.linalg.norm(view_a, axis=1, keepdims=True)
    b = view_b / np.linalg.norm(view_b, axis=1, keepdims=True)
    sims = a @ b.T / tau
    losses = []
    for i in range(len(a)):
        losses.append(-sims[i, i] + np.log(np.exp(sims[i]).sum()))
    return float(np.mean(losses))


def mmd_dense(x, y, bandwidth):
    """Biased V-statistic MMD^2 with an RBF kernel, by explicit loops."""
    def k(a, b):
        return np.exp(-np.sum((a - b) ** 2) / (2.0 * bandwidth ** 2))

    nx, ny = len(x), len(y)
    xx = sum(k(x[i], x[j]) for i in range(nx) for j in range(nx)) / nx ** 2
    yy = sum(k(y[i], y[j]) for i in range(ny) for j in range(ny)) / ny ** 2
    xy = sum(k(x[i], y[j]) for i in range(nx) for j in range(ny)) / (nx * ny)
    return xx + yy - 2.0 * xy


# ------------------------------------------- compositions of the fused nodes


def log(x):
    """Natural log as a tape node.  Only the compositions below take a
    log on the tape; the fused nodes take theirs inside."""
    def bw(g):
        dc._accum(x, g / x.value, owned=True)

    return dc._op("log", (x,), np.log(x.value), bw, reads=(x,))


def gather_zeros_and_add(x, indices):
    """:func:`diffcore.gather` with the backward pass it replaced: the
    rows' gradient placed in a full-height array of zeros (summed there
    with np.add.at where an index repeats), which is then accumulated
    into the parent's gradient."""
    idx = np.asarray(indices, dtype=np.int64)
    distinct = bool(np.all(idx[1:] > idx[:-1]))

    def bw(g):
        gx = np.zeros(x.shape)
        if distinct:
            gx[idx] = g
        else:
            np.add.at(gx, idx, g)
        dc._accum(x, gx, owned=True)

    return dc._op("gather", (x,), x.value[idx], bw)


def infonce_composite(view_a, view_b, tau):
    """:func:`diffcore.infonce` from primitives: the max-shifted
    log-sum-exp of the scaled similarities minus the positive pair's."""
    tape = view_a.tape
    inv_tau = 1.0 / tau
    sims = dc.scale(dc.matmul(view_a, view_b, trans_b=True), inv_tau)
    pos = dc.scale(dc.reduce_sum(dc.mul(view_a, view_b), axis=1), inv_tau)
    # the shift is a detached constant; the gradient of lse is exact anyway
    shift = sims.value.max(axis=1, keepdims=True)
    shifted = dc.badd_col(sims, tape.constant(-shift))
    lse = dc.add(log(dc.reduce_sum(dc.exp(shifted), axis=1)),
                 tape.constant(shift))
    return dc.reduce_mean(dc.sub(lse, pos))


def add_rownorm_composite(z, x):
    """z + rownorm(x), the noise injection of one encoder layer."""
    return dc.add(z, dc.rownorm(x))


def inject_spmm_composite(op, z, x):
    """:func:`diffcore.inject_spmm` from primitives."""
    return dc.spmm(op, add_rownorm_composite(z, x))


def sample_composite(mu, sigma2, eps):
    """The reparameterized noise sample mu + sigma2 * eps with a constant
    array ``eps``, on the nodes :func:`model.generate_noise` builds it
    from."""
    return dc.add(mu, dc.mul(sigma2, mu.tape.constant(eps)))


def kl_normal_composite(mu, sigma2):
    """:func:`diffcore.kl_normal` from primitives,
    0.5 * mean(mu^2 + sigma2 - log sigma2 - 1)."""
    tape = mu.tape

    def minus(x, c):
        # x + (-c) rounds exactly as x - c, and a (1, d) row is all the
        # constant the broadcast needs
        return dc.badd_row(x, tape.constant(np.full((1, mu.shape[1]), -c)))

    inner = minus(dc.sub(dc.add(dc.square(mu), sigma2),
                         log(sigma2)), 1.0)
    return dc.scale(dc.reduce_mean(inner), 0.5)
