"""Top-k ranking evaluation over the full item catalog, plus
alignment/uniformity diagnostics of the embedding geometry."""

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist

__all__ = [
    "RankingMetrics",
    "rank_topk",
    "topk_metrics",
    "alignment_uniformity",
    "DIAG_CSV_HEADER",
]

DIAG_CSV_HEADER = "epoch,align,uniform"


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


def rank_topk(z_u, z_i, train_items, k, users=None, chunk=128):
    """Top-k item lists per user from dot-product scores.

    ``train_items`` is the binary users x items train matrix in CSR form;
    each user's stored items are removed from the candidate set.  Ties
    break toward the lower item index, so rankings are deterministic.
    Lists are shorter than k only when a user has fewer than k candidate
    items.

    Scores are the float64 dot products of finite embeddings, and must
    not overflow.  Each chunk of users is scored over the whole catalog
    in float32; only the items whose float32 score lies within a proven
    rounding bound of their row's float32 k-th score are scored again in
    float64 and ordered, so the lists are those of a float64 ranking of
    the whole catalog.
    """
    z_u = np.asarray(z_u, dtype=np.float64)
    z_i = np.asarray(z_i, dtype=np.float64)
    n, d = z_i.shape
    if not 1 <= k <= n:
        raise ValueError(f"k={k} is not between 1 and the number of items "
                         f"({n})")
    if not (np.isfinite(z_u).all() and np.isfinite(z_i).all()):
        raise ValueError("rank_topk needs finite embeddings")
    if users is None:
        users = np.arange(z_u.shape[0])
    users = np.asarray(users, dtype=np.int64)
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
    x = z_u[users]
    a = np.frexp(np.abs(x).max(axis=1, initial=0.0))[1]
    b = np.frexp(np.abs(z_i).max(initial=0.0))[1]
    x, y = np.ldexp(x, -a[:, None]), np.ldexp(z_i, -b)
    gamma = (d + 4) * 2.0 ** -24 / (1 - (d + 4) * 2.0 ** -24)
    with np.errstate(over="ignore"):  # an infinite bound keeps every item
        radius = 2 * (gamma * np.linalg.norm(x, axis=1)
                      * np.linalg.norm(y, axis=1).max(initial=0.0)
                      + d * 2.0 ** -147 + np.ldexp(d * 2.0 ** -1074, -(a + b)))
    x, y = x.astype(np.float32), y.astype(np.float32)
    lowest = np.finfo(np.float32).min
    lists = []
    for lo in range(0, len(users), chunk):
        batch = users[lo:lo + chunk]
        scores = x[lo:lo + chunk] @ y.T
        held = train_items[batch]
        scores[np.repeat(np.arange(len(batch)), np.diff(held.indptr)),
               held.indices] = -np.inf
        kth = np.partition(scores, n - k, axis=1)[:, n - k]
        # the floor is taken in float64 and rounded down to float32; a row
        # with fewer than k finite scores keeps all of them
        floor = np.maximum(kth - radius[lo:lo + chunk], lowest)
        floor32 = floor.astype(np.float32)
        np.nextafter(floor32, lowest, out=floor32, where=floor32 > floor)
        rows, items = np.divmod(np.flatnonzero(scores >= floor32[:, None]), n)
        exact = np.einsum("ij,ij->i", z_u[batch[rows]], z_i[items])
        order = np.lexsort((items, -exact, rows))
        rows, items = rows[order], items[order]
        counts = np.bincount(rows, minlength=len(batch))
        rank = np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts,
                                                counts)
        lengths = np.minimum(counts, k)
        lists.extend(np.split(items[rank < k], np.cumsum(lengths)[:-1]))
    return lists


def _flatten(rows):
    """Row lengths, row ids and concatenated entries of a ragged list."""
    lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    flat = np.concatenate([*rows, np.empty(0, np.int64)]).astype(np.int64)
    return lengths, np.repeat(np.arange(len(rows)), lengths), flat


def topk_metrics(topk_lists, test_sets, k):
    """Aggregate precision, recall, and NDCG over users.

    ``test_sets`` aligns with ``topk_lists``; users with empty test sets
    are skipped and tallied.  DCG uses binary relevance with 1/log2(rank+1)
    discounts and the ideal DCG truncates at min(|test|, k).
    """
    discounts = 1.0 / np.log2(np.arange(2, k + 2))
    ideal_prefix = np.concatenate([[0.0], np.cumsum(discounts)])
    users = len(topk_lists)
    top_len, top_row, top = _flatten(topk_lists)
    _, test_row, test = _flatten(test_sets)
    # (row, item) pairs as single keys; duplicate test items count once
    width = 1 + max(top.max(initial=-1), test.max(initial=-1))
    test_keys = np.unique(test_row * width + test)
    test_len = np.bincount(test_keys // width, minlength=users)
    hits = np.isin(top_row * width + top, test_keys).astype(np.float64)
    hit_count = np.bincount(top_row, hits, minlength=users)
    # each list's DCG is its own dot product, as in a per-user loop: the
    # order in which BLAS sums a list decides the last bit
    starts = (np.cumsum(top_len) - top_len).tolist()
    dcg = np.array([hits[s:s + n] @ discounts[:n]
                    for s, n in zip(starts, top_len.tolist())])

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
    if len(points) < 2:
        return 0.0
    d = pdist(points)
    return float(np.log(np.mean(np.exp(-2.0 * d * d))))


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
