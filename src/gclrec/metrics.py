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


def topk_metrics(topk_lists, test_sets, k):
    """Aggregate precision, recall, and NDCG over users.

    ``test_sets`` aligns with ``topk_lists``; users with empty test sets
    are skipped and tallied.  DCG uses binary relevance with 1/log2(rank+1)
    discounts and the ideal DCG truncates at min(|test|, k).
    """
    discounts = 1.0 / np.log2(np.arange(2, k + 2))
    ideal_prefix = np.concatenate([[0.0], np.cumsum(discounts)])
    p_sum = r_sum = n_sum = 0.0
    evaluated = skipped = 0
    for top, test in zip(topk_lists, test_sets):
        test = set(int(i) for i in test)
        if not test:
            skipped += 1
            continue
        evaluated += 1
        hits = np.fromiter((1.0 if int(i) in test else 0.0 for i in top),
                           dtype=np.float64, count=len(top))
        hit_count = hits.sum()
        p_sum += hit_count / k
        r_sum += hit_count / len(test)
        dcg = float(hits @ discounts[:len(top)])
        idcg = ideal_prefix[min(len(test), k)]
        n_sum += dcg / idcg
    if evaluated == 0:
        return RankingMetrics(k=k, precision=0.0, recall=0.0, ndcg=0.0,
                              users_evaluated=0, users_skipped=skipped)
    return RankingMetrics(
        k=k,
        precision=float(p_sum) / evaluated,
        recall=float(r_sum) / evaluated,
        ndcg=float(n_sum) / evaluated,
        users_evaluated=evaluated,
        users_skipped=skipped,
    )


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
