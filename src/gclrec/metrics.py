"""Top-k ranking evaluation over the full item catalog, plus
alignment/uniformity diagnostics of the embedding geometry."""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "RankingMetrics",
    "rank_topk",
    "topk_metrics",
    "alignment_uniformity",
    "DIAG_CSV_HEADER",
]

DIAG_CSV_HEADER = "epoch,align,uniform"

# catalog rows rank_topk scales and casts at a time
_ROWS = 256
# users rank_topk scores over the whole catalog at a time
_CHUNK = 128
# pair distances the uniformity term exponentiates at a time
_PAIRS = 1 << 16


@dataclass
class RankingMetrics:
    """Mean precision, recall, and NDCG at one cutoff."""

    k: int
    precision: float
    recall: float
    ndcg: float
    users_evaluated: int
    users_skipped: int

    CSV_HEADER = "fold,k,precision,recall,ndcg,users_evaluated,users_skipped"

    def csv_row(self, fold):
        return (f"{fold},{self.k},{self.precision!r},{self.recall!r},"
                f"{self.ndcg!r},{self.users_evaluated},{self.users_skipped}")


def rank_topk(z_u, z_i, train_items, k, users):
    """Top-k items per user from dot-product scores, as a users x k int64
    array whose row j ranks ``users[j]``.

    ``train_items`` is the binary users x items train matrix in CSR form;
    each user's stored items are removed from the candidate set.  Ties
    break toward the lower item index, so rankings are deterministic.
    A row ends in -1 padding only when its user has fewer than k
    candidate items.

    Scores are the float64 dot products of finite embeddings, and must
    not overflow.  Each chunk of users is scored over the whole catalog
    in float32.  A screen over block maxima of those scores finds the
    items whose float32 score lies within a proven rounding bound of a
    lower bound on their row's float32 k-th score; only these are scored
    again in float64 and ordered, so the rows are those of a float64
    ranking of the whole catalog.  A row whose scores all tie, such as
    that of a zero user embedding, keeps every item through the screen
    and re-scores its whole catalog in float64.
    """
    z_u = np.asarray(z_u, dtype=np.float64)
    z_i = np.asarray(z_i, dtype=np.float64)
    n, d = z_i.shape
    if not 1 <= k <= n:
        raise ValueError(f"k={k} is not between 1 and the number of items "
                         f"({n})")
    if not (np.isfinite(z_u).all() and np.isfinite(z_i).all()):
        raise ValueError("rank_topk needs finite embeddings")
    users = np.asarray(users, dtype=np.int64)
    members = max(1, min(16, n // (8 * k)))
    w = -(-n // members)
    width = members * w
    # the ranking and the score buffer, which every chunk reuses, are
    # allocated before any temporary: an array the caller keeps, placed
    # past freed temporaries in the heap, would hold their pages resident
    # where an evaluation's next, larger arrays cannot reuse them.
    top = np.full((len(users), k), -1, np.int64)
    buffer = np.empty((min(_CHUNK, len(users)), width), np.float32)
    # The bound.  Scaling by a power of two is exact: each user row
    # x = 2^-a u gets its largest entry into [0.5, 1), and every item
    # row y = 2^-b i shares one b, which keeps each row's ranking and
    # keeps float32 clear of overflow.  Let c = 2^-(a+b), y_max the
    # largest scaled item norm and gamma_n = n u / (1 - n u) for unit
    # roundoff u.
    # - The float32 score f rounds each x_k and y_k once in the cast, and
    #   a dot product in any summation order adds gamma_d, so
    #   |f - x.y| <= gamma32_{d+2} |x| y_max.
    # - The float64 re-score s of u.i has |c s - x.y| <= gamma64_d |x|
    #   y_max, which is at most u32 |x| y_max while d < 2^28.
    # So |f - c s| <= E = gamma32_{d+3} |x| y_max; gamma32_{d+4} leaves
    # room for the rounding of the computed norms and of the floor below
    # (float64, far under u32 relative).  Underflow adds at most
    # half a subnormal step per rounding: d 2^-147 in float32 (entries
    # below 1) and c d 2^-1074 in float64.
    # Containment: if item j is in the float64 top k, then f_j >= v - 2E
    # for the row's float32 k-th score v.  Otherwise each of the k items
    # a with f_a >= v has c s_a >= f_a - E >= v - E > f_j + E >= c s_j,
    # so k items beat j outright.  Ties in s only enlarge the set.
    # The screen.  Item j sits in block j mod w as its member j // w, for
    # B = max(1, min(16, n // 8k)) members per block and w = ceil(n / B)
    # >= k blocks (w >= 8k when B > 1); the columns past n score -inf.
    # Let t be the row's k-th largest block maximum.  The k blocks whose
    # maxima are >= t are disjoint, so they hold k distinct items with
    # f >= t, and t <= v.  The floor t - 2E <= v - 2E therefore keeps
    # every item of the float64 top k, and an item with f >= t - 2E lies
    # in a block whose maximum is >= t - 2E, so reading the members of
    # those blocks alone finds them all.  A row with fewer than k finite
    # block maxima has t = -inf and keeps every finite score.
    # The scaled catalog is made a block of rows at a time, straight into
    # the padded float32 array the screen reads: no float64 copy of z_i
    # is held whole.  It is stored transposed, d x width, so a chunk's
    # scores are a plain product of two row-major arrays.  Row norms do
    # not depend on the other rows, so the largest one is the same over
    # blocks as over the whole array.  The ranked users' rows are scaled
    # and cast a chunk at a time, as the chunk is scored: a row's a, norm
    # and radius read only that row, so no copy of all the ranked rows,
    # in float64 or in float32, is held.
    b = np.frexp(max(z_i.max(initial=0.0), -z_i.min(initial=0.0)))[1]
    y = np.empty((d, width), np.float32)
    y[:, n:] = 0.0
    y_max = 0.0
    for lo in range(0, n, _ROWS):
        hi = min(lo + _ROWS, n)
        scaled = np.ldexp(z_i[lo:hi], -b)
        y_max = max(y_max, np.linalg.norm(scaled, axis=1).max())
        y[:, lo:hi] = scaled.T
    gamma = (d + 4) * 2.0 ** -24 / (1 - (d + 4) * 2.0 ** -24)
    lowest = np.finfo(np.float32).min
    for lo in range(0, len(users), _CHUNK):
        batch = users[lo:lo + _CHUNK]
        x = z_u[batch]
        a = np.frexp(np.abs(x).max(axis=1, initial=0.0))[1]
        np.ldexp(x, -a[:, None], out=x)
        with np.errstate(over="ignore"):  # an infinite bound keeps every item
            radius = 2 * (gamma * np.linalg.norm(x, axis=1) * y_max
                          + d * 2.0 ** -147
                          + np.ldexp(d * 2.0 ** -1074, -(a + b)))
        scores = np.matmul(x.astype(np.float32), y,
                           out=buffer[:len(batch)])
        scores[:, n:] = -np.inf
        held = train_items[batch]
        scores[np.repeat(np.arange(len(batch)), np.diff(held.indptr)),
               held.indices] = -np.inf
        # blocks[r, m, c] is the score of item c + m * w
        blocks = scores.reshape(len(batch), members, w)
        peak = blocks.max(axis=1)
        kth = np.partition(peak, w - k, axis=1)[:, w - k]
        # the floor is taken in float64 and rounded down to float32; a row
        # with fewer than k finite block maxima keeps every finite score
        floor = np.maximum(kth - radius, lowest)
        floor32 = floor.astype(np.float32)
        np.nextafter(floor32, lowest, out=floor32, where=floor32 > floor)
        rows, cols = np.nonzero(peak >= floor32[:, None])
        picked, member = np.nonzero(blocks[rows, :, cols]
                                    >= floor32[rows, None])
        rows, items = rows[picked], cols[picked] + member * w
        exact = np.einsum("ij,ij->i", z_u[batch[rows]], z_i[items])
        order = np.lexsort((items, -exact, rows))
        rows, items = rows[order], items[order]
        counts = np.bincount(rows, minlength=len(batch))
        rank = np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts,
                                                counts)
        keep = rank < k
        top[lo + rows[keep], rank[keep]] = items[keep]
    return top


def topk_metrics(top, test, k):
    """Aggregate precision, recall, and NDCG over users.

    ``top`` is a users x width int64 array of ranked items, width <= k,
    as :func:`rank_topk` returns it: -1 pads a row and counts as no item.
    ``test`` is a users x items CSR matrix whose row u stores user u's
    test items; a duplicate counts once.  Users with no test items are
    skipped and tallied.  DCG uses binary relevance with 1/log2(rank+1)
    discounts and the ideal DCG truncates at min(|test|, k).  A wider
    ``top``, or one whose row count is not ``test``'s, raises ValueError.
    """
    users, width = top.shape
    if width > k:
        raise ValueError(f"top-k array has {width} columns, more than k={k}")
    if test.shape[0] != users:
        raise ValueError(f"test has {test.shape[0]} rows, top-k has {users}")
    test = test.copy()
    test.sum_duplicates()
    discounts = 1.0 / np.log2(np.arange(2, k + 2))
    ideal_prefix = np.concatenate([[0.0], np.cumsum(discounts)])
    test_len = np.diff(test.indptr)
    # (row, item) pairs as single keys, increasing in a canonical CSR; the
    # last key, past every other, keeps each search inside the array
    span = max(test.shape[1], 1 + top.max(initial=0))
    test_keys = np.append(np.repeat(np.arange(users) * span, test_len)
                          + test.indices, users * span)
    top_keys = np.arange(users)[:, None] * span + top
    ranked = top >= 0
    found = test_keys[np.searchsorted(test_keys, top_keys)] == top_keys
    hits = (found & ranked).astype(np.float64)
    hit_count = hits.sum(axis=1)
    # a row with at most one hit has DCG 0 or its hit's discount in any
    # summation order; a row with more is the dot product of its n items,
    # as in a per-user loop, since the order in which BLAS sums it
    # decides the last bit
    dcg = hits @ discounts[:width]
    multi = np.flatnonzero(hit_count > 1)
    lengths = np.count_nonzero(ranked[multi], axis=1)
    for u, n in zip(multi.tolist(), lengths.tolist()):
        dcg[u] = hits[u, :n] @ discounts[:n]

    kept = test_len > 0
    evaluated = int(kept.sum())
    skipped = users - evaluated
    if evaluated == 0:
        return RankingMetrics(k=k, precision=0.0, recall=0.0, ndcg=0.0,
                              users_evaluated=0, users_skipped=skipped)
    hit_count, test_len, dcg = hit_count[kept], test_len[kept], dcg[kept]
    per_user = (hit_count / k, hit_count / test_len,
                dcg / ideal_prefix[np.minimum(test_len, k)])
    # running sums in user order, as a per-user loop would add them
    precision, recall, ndcg = (float(np.cumsum(v)[-1]) / evaluated
                               for v in per_user)
    return RankingMetrics(k=k, precision=precision, recall=recall, ndcg=ndcg,
                          users_evaluated=evaluated, users_skipped=skipped)


def _row_normalize(z):
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    return z / np.maximum(norms, 1e-12)


def _log_mean_exp_neg2sq(points):
    # imported here: scipy.spatial costs every process that imports this
    # module about 10 MB, and only the diagnostics read it
    from scipy.spatial.distance import pdist

    if len(points) < 2:
        return 0.0
    # exp(-2 d^2), rounded as (-2 d) d, written back into pdist's array
    # a block at a time, so no second array of its size is held
    d = pdist(points)
    for lo in range(0, len(d), _PAIRS):
        block = d[lo:lo + _PAIRS]
        t = np.multiply(block, -2.0)
        t *= block
        np.exp(t, out=block)
    return float(np.log(np.mean(d)))


def alignment_uniformity(z_u, z_i, pairs):
    """Embedding-geometry diagnostics on normalized representations.

    align: mean squared distance between the normalized embeddings of
    positive (user, item) pairs; lower is tighter.

    uniform: log E e^(-2|x-y|^2) over distinct user pairs and over
    distinct positive-item pairs, averaged; more negative is more
    uniform.
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if len(pairs) == 0:
        raise ValueError("alignment_uniformity requires at least one pair")
    zu = _row_normalize(np.asarray(z_u, dtype=np.float64))
    zi = _row_normalize(np.asarray(z_i, dtype=np.float64))
    diff = zu[pairs[:, 0]] - zi[pairs[:, 1]]
    align = float(np.mean(np.sum(diff * diff, axis=1)))

    users = zu[np.unique(pairs[:, 0])]
    items = zi[np.unique(pairs[:, 1])]
    uniform = 0.5 * (_log_mean_exp_neg2sq(users)
                     + _log_mean_exp_neg2sq(items))
    return align, uniform
