"""Brute-force dense reference implementations the tests compare against,
a dense full-height form of a training step's loss terms, the
compositions of tape primitives each fused primitive replaces, and the
plain forms of the log loader, the complement build and the symmetric
normalization.

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


def sym_normalize_dense(M):
    """D^(-1/2) M D^(-1/2) with zero-degree scales forced to zero."""
    deg = M.sum(axis=1)
    with np.errstate(divide="ignore"):
        s = 1.0 / np.sqrt(deg)
    s[~np.isfinite(s)] = 0.0
    return (s[:, None] * M) * s[None, :]


def complement_dense(R, gamma):
    """Thresholded, normalized item co-occurrence matrix, densely."""
    C = R.T @ R
    np.fill_diagonal(C, 0.0)
    C = np.where(C < gamma, 0.0, C)
    return sym_normalize_dense(C)


def plain_csr(M):
    """``M`` as float64 CSR in scipy's canonical format, each step asked
    for by name."""
    M = sp.csr_matrix(M, dtype=np.float64, copy=True)
    M.sum_duplicates()
    M.eliminate_zeros()
    M.sort_indices()
    return M


def sym_normalize_reference(M):
    """:func:`graphs.sym_normalize` as the product D M D of sparse
    matrices, D = diag(1 / sqrt(row sums)) with zero-degree scales zero."""
    deg = np.asarray(M.sum(axis=1)).ravel()
    with np.errstate(divide="ignore"):
        inv_sqrt = 1.0 / np.sqrt(deg)
    inv_sqrt[~np.isfinite(inv_sqrt)] = 0.0
    D = sp.diags(inv_sqrt)
    return plain_csr(D @ M @ D)


def complement_reference(R, gamma):
    """:func:`graphs.build_complement` in its plain order: drop the
    diagonal of the whole R^T R, then filter at ``gamma``, then normalize
    as D M D."""
    C = (R.T @ R).tocsr()
    C.setdiag(0.0)
    C.eliminate_zeros()
    if gamma > 0:
        C.data[C.data < gamma] = 0.0
        C.eliminate_zeros()
    if C.nnz == 0:
        warnings.warn("complement matrix is empty after filtering; the "
                      "complement channel will contribute nothing")
        return plain_csr(C)
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


def batch_loss_dense(table, R, cfg, rng, users, pos_items, neg_items):
    """Every loss term of one training step with noise, as a dict keyed
    like :class:`losses.LossReport`, computed densely at full height from
    the model's description: no tape, no pruning.  An absent term is 0.

    ``table`` holds the parameter arrays by name and ``R`` is the dense
    binary users x items train matrix.  Both channels propagate over
    dense normalized graphs, the user-item adjacency and (unless
    ``cfg.complement_enabled`` is off) the complement at ``cfg.gamma``.
    Each (channel, layer) draws one full-height standard normal eps,
    user-item layers first, whether or not a loss term reads the layer.
    In mode generative the shared generator maps the layer's input to mu
    and a log-variance, and the sample is mu + sigma^2 eps, with sigma^2
    the exponential of the log-variance; in mode random it is 0.1 eps.
    Uniform noise passes the sample through GELU.  The sample is
    row-normalized and added to the input before the propagation.

    In mode generative, the reconstruction reads the first user-item
    layer's sample, and so does the discrepancy term: gaussian noise
    the KL of N(mu, sigma^2) from N(0, 1), uniform noise the MMD of the
    sample's rows at the batch's users and items against as many U[0, 1)
    rows, drawn after every eps, at the median pairwise distance of the
    pooled rows.  The contrastive term is there only when ``cfg.lambda_``
    is positive.
    """
    from scipy.special import erf

    m, n = R.shape
    d = table["base_embedding"].shape[1]
    E = table["base_embedding"]
    users, pos_items, neg_items = (np.asarray(a, dtype=np.int64)
                                   for a in (users, pos_items, neg_items))
    generative = cfg.noise_mode == "generative"

    def gelu(a):
        return a * (0.5 * (1.0 + erf(a / np.sqrt(2.0))))

    def mlp(x, prefix):
        w = [table[f"{prefix}.{name}"] for name in
             ("w1", "b1", "w2", "b2", "w3", "b3")]
        hidden = gelu(gelu(x @ w[0] + w[1]) @ w[2] + w[3])
        return hidden @ w[4] + w[5]

    def rownorm(x):
        norms = np.linalg.norm(x, axis=1, keepdims=True)
        return np.divide(x, norms, out=np.zeros_like(x),
                         where=norms > 1e-12)

    def channel(G, z):
        layers, first = [], None
        for _ in range(cfg.L):
            eps = rng.standard_normal(z.shape)
            mu = sigma2 = None
            if generative:
                out = mlp(z, "gen")
                mu, sigma2 = out[:, :d], np.exp(out[:, d:])
                sample = mu + sigma2 * eps
            else:
                sample = 0.1 * eps
            if cfg.noise_distribution == "uniform":
                sample = gelu(sample)
            if first is None:
                first = (mu, sigma2, sample)
            z = G @ (z + rownorm(sample))
            layers.append(z)
        return layers, first

    def view(layers, selector):
        if selector == "avg":
            return sum(layers) / len(layers)
        return layers[int(selector) - 1]

    def infonce(a, b):
        sims = rownorm(a) @ rownorm(b).T / cfg.tau
        lse = np.log(np.exp(sims).sum(axis=1))
        return float(np.mean(lse - np.diag(sims)))

    ui, (mu, sigma2, sample) = channel(
        sym_normalize_dense(adjacency_dense(R)), E)
    comp = None
    if cfg.complement_enabled:
        comp, _ = channel(complement_dense(R, cfg.gamma), E[m:])

    avg = view(ui, "avg")
    pos = np.sum(avg[users] * avg[m + pos_items], axis=1)
    neg = np.sum(avg[users] * avg[m + neg_items], axis=1)
    rec = float(np.mean(np.logaddexp(0.0, neg - pos)))

    touched = np.unique(np.concatenate([users, m + pos_items,
                                        m + neg_items]))
    recon = ddl = 0.0
    if generative:
        ends = np.concatenate([pos_items, neg_items])
        predicted = np.sum(mlp(sample[np.concatenate([users, users])], "rec")
                           * mlp(sample[m + ends], "rec"), axis=1)
        target = np.concatenate([np.ones(len(users)), np.zeros(len(users))])
        recon = float(np.mean((predicted - target) ** 2))
        if cfg.noise_distribution == "gaussian":
            ddl = float(0.5 * np.mean(mu ** 2 + sigma2 - np.log(sigma2)
                                      - 1.0))
        else:
            gen = sample[touched]
            prior = rng.random(gen.shape)
            pooled = np.vstack([gen, prior])
            dists = np.linalg.norm(pooled[:, None] - pooled[None], axis=2)
            bandwidth = np.median(dists[np.triu_indices(len(pooled), 1)])
            ddl = float(mmd_dense(gen, prior, bandwidth))

    reg = cfg.reg_coeff * float(np.sum(E[touched] ** 2))

    cl = 0.0
    if cfg.lambda_ > 0:
        selectors = (cfg.cl_view_a, cfg.cl_view_b)
        uu, ii = np.unique(users), np.unique(pos_items)
        per_class = [infonce(*(view(ui, s)[uu] for s in selectors)),
                     infonce(*(view(ui, s)[m + ii] for s in selectors))]
        if comp is not None:
            per_class.append(infonce(*(view(comp, s)[ii]
                                       for s in selectors)))
        cl = sum(per_class) / len(per_class)

    return {"rec": rec, "cl": cl, "recon": recon, "ddl": ddl, "reg": reg,
            "total": rec + cfg.lambda_ * cl + recon + ddl + reg}


# ------------------------------------------- compositions of the fused nodes


def log(x):
    """Natural log as a tape node.  Only the compositions below take a
    log on the tape; the fused nodes take theirs inside."""
    def bw(g):
        dc._accum(x, g / x.value, owned=True)

    return dc._op("log", (x,), np.log(x.value), bw, reads=(x,))


def broadcast_add(x, v, axis):
    """x + v, where v is a row (``axis`` 0) or a column (``axis`` 1)
    repeated along ``axis``, as a tape node.  Only the compositions below
    broadcast on the tape; the fused nodes broadcast inside."""
    def bw(g):
        if x.needs_grad:
            dc._accum(x, g, owned=False)
        if v.needs_grad:
            dc._accum(v, g.sum(axis=axis, keepdims=True), owned=True)

    return dc._op("broadcast_add", (x, v), x.value + v.value, bw)


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
    shifted = dc.add(sims, tape.constant(np.broadcast_to(-shift, sims.shape)))
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
        # x + (-c) rounds exactly as x - c
        return dc.add(x, tape.constant(np.full(x.shape, -c)))

    inner = minus(dc.sub(dc.add(dc.square(mu), sigma2),
                         log(sigma2)), 1.0)
    return dc.scale(dc.reduce_mean(inner), 0.5)


def mmd_composite(x, y, bandwidth):
    """:func:`diffcore.rbf_mmd` from primitives: per kernel a product, a
    scale by -2, the squared norms added as a column and as a row, a
    scale by the coefficient, exp and the mean."""
    tape = x.tape
    coeff = -1.0 / (2.0 * bandwidth * bandwidth)
    sq_x = dc.reduce_sum(dc.square(x), axis=1)
    sq_y = dc.reduce_sum(dc.square(y), axis=1)

    def kernel_mean(a, b, sq_a, sq_b):
        # the row of b's squared norms is a 1x1-times-transpose product
        one = tape.constant(np.ones((1, 1)))
        cross = dc.scale(dc.matmul(a, b, trans_b=True), -2.0)
        dists = broadcast_add(broadcast_add(cross, sq_a, axis=1),
                              dc.matmul(one, sq_b, trans_b=True), axis=0)
        return dc.reduce_mean(dc.exp(dc.scale(dists, coeff)))

    k_xx = kernel_mean(x, x, sq_x, sq_x)
    k_yy = kernel_mean(y, y, sq_y, sq_y)
    k_xy = kernel_mean(x, y, sq_x, sq_y)
    return dc.add(dc.add(k_xx, k_yy), dc.scale(k_xy, -2.0))
