"""Output checks built from scipy and numpy alone, independent of gclrec's
graph, encoder and ranking code."""

import numpy as np
import scipy.sparse as sp

# sampled users' probe test items are drawn from their brute-force ranks
# [0, PROBE_DEPTH), so hits land at known positions inside and just
# outside the top 20
PROBE_DEPTH = 40
PROBE_RATE = 0.25
TOLERANCE = 1e-12


def _train_matrix(train):
    return sp.csr_matrix((np.ones(len(train.pairs)),
                          (train.pairs[:, 0], train.pairs[:, 1])),
                         shape=(train.num_users, train.num_items))


def expected_nnz(train, gamma):
    """Nonzero counts of the two propagation operators.

    The bipartite adjacency stores each train pair twice; the complement
    keeps off-diagonal item co-occurrence counts of at least gamma.
    """
    r = _train_matrix(train)
    co = (r.T @ r).tocoo()
    keep = (co.row != co.col) & (co.data >= gamma)
    return 2 * len(train.pairs), int(keep.sum())


def reference_embeddings(train, base, layers):
    """Noise-free propagation: the mean of A^k E over k = 1..layers, with
    A the symmetric-normalized bipartite adjacency (users first)."""
    r = _train_matrix(train)
    adj = sp.bmat([[None, r], [r.T, None]], format="csr")
    deg = np.asarray(adj.sum(axis=1)).ravel()
    inv = np.zeros_like(deg)
    inv[deg > 0] = deg[deg > 0] ** -0.5
    adj = (sp.diags(inv) @ adj @ sp.diags(inv)).tocsr()
    z, acc = base, np.zeros_like(base)
    for _ in range(layers):
        z = adj @ z
        acc += z
    return acc / layers


def probe_test_pairs(z_u, z_i, train, test, users, rng):
    """Test pairs for a user sample: each user's real test items plus
    seeded picks from their brute-force ranking.

    Returns (pairs, order, scores): ``order`` holds each sampled user's
    candidate items by descending score, ties toward the lower index,
    with train items masked out.
    """
    scores = z_u[users] @ z_i.T
    scores[_train_matrix(train)[users].toarray() > 0] = -np.inf
    order = np.argsort(-scores, axis=1, kind="stable")[:, :PROBE_DEPTH]
    picked = rng.random(order.shape) < PROBE_RATE
    picked[:, 0] |= ~picked.any(axis=1)
    picked &= np.isfinite(np.take_along_axis(scores, order, axis=1))
    rows, cols = np.nonzero(picked)
    probe = np.column_stack([users[rows], order[rows, cols]])
    real = test.pairs[np.isin(test.pairs[:, 0], users)]
    pairs = np.unique(np.vstack([probe, real]), axis=0)
    return pairs, order, scores


def brute_force_metrics(order, scores, users, pairs, k):
    """Mean (precision, recall, NDCG) at k over the sampled users."""
    discounts = 1.0 / np.log2(np.arange(2, k + 2))
    sums = np.zeros(3)
    for row, u in enumerate(users):
        test = pairs[pairs[:, 0] == u, 1]
        top = order[row, :k]
        top = top[np.isfinite(scores[row, top])]
        hits = np.isin(top, test).astype(np.float64)
        idcg = discounts[:min(len(test), k)].sum()
        sums += [hits.sum() / k, hits.sum() / len(test),
                 hits @ discounts[:len(top)] / idcg]
    return sums / len(users)
