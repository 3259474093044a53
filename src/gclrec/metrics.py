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


def _exact_topk_row(scores, k):
    """Indices of the k largest finite scores, ties toward lower index.

    The row must already have excluded items set to -inf.
    """
    n = len(scores)
    candidates = int(np.isfinite(scores).sum())
    kk = min(k, candidates)
    if kk == 0:
        return np.empty(0, dtype=np.int64)
    if kk < n:
        part = np.argpartition(-scores, kk - 1)[:kk]
        boundary = scores[part].min()
    else:
        boundary = scores.min()
    above = np.flatnonzero(scores > boundary)
    need = kk - len(above)
    at = np.flatnonzero(scores == boundary)[:need]  # ascending index order
    chosen = np.concatenate([above, at])
    order = np.lexsort((chosen, -scores[chosen]))
    return chosen[order].astype(np.int64)


def rank_topk(z_u, z_i, train_items, k, users=None, chunk=1024):
    """Top-k item lists per user from dot-product scores.

    ``train_items`` is the binary users x items train matrix in CSR form;
    each user's stored items are removed from the candidate set.  Ties
    break toward the lower item index, so rankings are deterministic.
    Lists are shorter than k only when a user has fewer than k candidate
    items.
    """
    z_u = np.asarray(z_u)
    z_i = np.asarray(z_i)
    n = z_i.shape[0]
    if k > n:
        raise ValueError(f"k={k} exceeds the number of items ({n})")
    if users is None:
        users = np.arange(z_u.shape[0])
    users = np.asarray(users, dtype=np.int64)
    lists = []
    for lo in range(0, len(users), chunk):
        batch = users[lo:lo + chunk]
        scores = z_u[batch] @ z_i.T
        held = train_items[batch]
        scores[np.repeat(np.arange(len(batch)), np.diff(held.indptr)),
               held.indices] = -np.inf
        lists.extend(_exact_topk_row(s, k) for s in scores)
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


def alignment_uniformity(z_u, z_i, pairs, formula="pairwise"):
    """Embedding-geometry diagnostics on normalized representations.

    align: mean squared distance between the normalized embeddings of
    positive (user, item) pairs; lower is tighter.

    uniform: `pairwise` (default) is log E e^(-2|x-y|^2) over distinct
    user pairs and over distinct positive-item pairs, averaged; more
    negative is more uniform.  `paper` evaluates the single-sample form
    log E e^(-2|z|^2)/2 per class and sums, which is constantly -2 on
    normalized embeddings and kept only for comparison.
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
    if formula == "pairwise":
        uniform = 0.5 * (_log_mean_exp_neg2sq(users)
                         + _log_mean_exp_neg2sq(items))
    elif formula == "paper":
        uniform = (
            float(np.log(np.mean(np.exp(-2.0 * np.sum(users ** 2, axis=1))))) / 2.0
            + float(np.log(np.mean(np.exp(-2.0 * np.sum(items ** 2, axis=1))))) / 2.0
        )
    else:
        raise ValueError(f"unknown uniformity formula {formula!r}")
    return align, uniform
