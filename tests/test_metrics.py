import numpy as np
import pytest
import scipy.sparse as sp
from scipy.spatial.distance import pdist

from gclrec import metrics
from gclrec.metrics import (
    RankingMetrics,
    alignment_uniformity,
    rank_topk,
    topk_metrics,
)

from conftest import padded, traced_peak, train_matrix
from oracles import ranking_metrics_dense, topk_rank_dense


def random_instance(rng, max_users=8, max_items=30, min_items=5):
    m = int(rng.integers(2, max_users))
    n = int(rng.integers(min_items, max_items))
    d = int(rng.integers(2, 6))
    z_u = rng.normal(size=(m, d))
    z_i = rng.normal(size=(n, d))
    train, test = [], []
    for u in range(m):
        items = rng.permutation(n)
        t = int(rng.integers(0, min(4, n - 2)))
        s = int(rng.integers(1, 4))
        train.append(np.sort(items[:t]).astype(np.int64))
        test.append(np.sort(items[t:t + s]).astype(np.int64))
    return z_u, z_i, train, test


class TestRankTopk:
    def test_masks_train_items(self):
        z_u = np.array([[1.0]])
        z_i = np.array([[3.0], [2.0], [1.0]])
        top = rank_topk(z_u, z_i, train_matrix([[0]], 3), k=2,
                        users=np.arange(len(z_u)))
        np.testing.assert_array_equal(top[0], [1, 2])

    def test_all_equal_scores_take_lowest_indices(self):
        z_u = np.array([[1.0]])
        z_i = np.ones((6, 1))
        top = rank_topk(z_u, z_i, train_matrix([[]], len(z_i)), k=3,
                        users=np.arange(len(z_u)))
        np.testing.assert_array_equal(top[0], [0, 1, 2])

    def test_tie_at_boundary_prefers_lower_index(self):
        z_u = np.array([[1.0]])
        # items 1, 3, 4 tie at the k-th position boundary
        z_i = np.array([[5.0], [2.0], [9.0], [2.0], [2.0], [0.0]])
        top = rank_topk(z_u, z_i, train_matrix([[]], len(z_i)), k=3,
                        users=np.arange(len(z_u)))
        np.testing.assert_array_equal(top[0], [2, 0, 1])

    def test_fewer_candidates_than_k(self):
        z_u = np.array([[1.0]])
        z_i = np.array([[1.0], [2.0], [3.0]])
        top = rank_topk(z_u, z_i, train_matrix([[0, 2]], 3), k=3,
                        users=np.arange(len(z_u)))
        np.testing.assert_array_equal(top, [[1, -1, -1]])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            z_u, z_i, train, _ = random_instance(rng)
            k = int(rng.integers(1, min(10, z_i.shape[0])))
            top = rank_topk(z_u, z_i, train_matrix(train, len(z_i)), k,
                            np.arange(len(z_u)))
            scores = z_u @ z_i.T
            expected = [topk_rank_dense(scores[u], train[u], k)
                        for u in range(len(z_u))]
            np.testing.assert_array_equal(top, padded(expected, k))

    def test_invariant_under_positive_rescaling(self):
        rng = np.random.default_rng(1)
        z_u, z_i, train, _ = random_instance(rng)
        R = train_matrix(train, len(z_i))
        users = np.arange(len(z_u))
        a = rank_topk(z_u, z_i, R, k=5, users=users)
        b = rank_topk(4.0 * z_u, z_i, R, k=5, users=users)
        np.testing.assert_array_equal(a, b)

    def test_user_subset_and_chunking(self, monkeypatch):
        rng = np.random.default_rng(2)
        z_u, z_i, train, _ = random_instance(rng)
        R = train_matrix(train, len(z_i))
        monkeypatch.setattr(metrics, "_CHUNK", 2)
        full = rank_topk(z_u, z_i, R, k=4, users=np.arange(len(z_u)))
        monkeypatch.setattr(metrics, "_CHUNK", 1)
        sub = rank_topk(z_u, z_i, R, k=4, users=[1, 0])
        np.testing.assert_array_equal(sub[0], full[1])
        np.testing.assert_array_equal(sub[1], full[0])

    def test_k_beyond_items_rejected(self):
        with pytest.raises(ValueError, match="k="):
            rank_topk(np.ones((1, 1)), np.ones((2, 1)), train_matrix([[]], 2),
                      k=3, users=np.arange(1))

    def test_non_finite_embeddings_rejected(self):
        z_i = np.ones((3, 2))
        z_i[1, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            rank_topk(np.ones((1, 2)), z_i, train_matrix([[]], 3), k=2,
                      users=np.arange(1))

    def test_no_float64_copy_of_the_catalog(self):
        # the float32 catalog the screen reads is half of z_i; a float64
        # copy of z_i would take the peak past it
        rng = np.random.default_rng(4)
        z_u, z_i = rng.normal(size=(3, 64)), rng.normal(size=(8000, 64))
        train = train_matrix([[0, 5], [], [7]], len(z_i))
        top, peak = traced_peak(rank_topk, z_u, z_i, train, k=20,
                                users=np.arange(len(z_u)))
        assert peak <= 0.75 * z_i.nbytes
        scores = z_u @ z_i.T
        for u, row in enumerate(top):
            assert row.tolist() == topk_rank_dense(scores[u], train[u].indices,
                                                   20)

    def test_no_copy_of_the_ranked_rows(self):
        # the ranked users' rows are scaled and cast a chunk at a time: a
        # float32 copy of all of them beside the ranking would take the
        # peak past top + rows32, a float64 one past twice that
        rng = np.random.default_rng(6)
        z_u, z_i = rng.normal(size=(8000, 64)), rng.normal(size=(40, 64))
        train = train_matrix([rng.choice(40, 3, replace=False)
                              for _ in range(len(z_u))], len(z_i))
        users = np.arange(len(z_u))
        top, peak = traced_peak(rank_topk, z_u, z_i, train, k=5, users=users)
        rows32 = len(users) * z_u.shape[1] * 4
        assert peak <= top.nbytes + 0.75 * rows32
        scores = z_u @ z_i.T
        for u in range(0, len(z_u), 997):
            assert top[u].tolist() == topk_rank_dense(
                scores[u], train[u].indices, 5)


def near_tie_instance(rng, users=20, ties=40, others=200, d=6):
    """Users whose top-10 boundary falls inside a cluster of item scores
    spread over ~6e-7 around 3: the gaps lie far above float64 rounding
    but inside float32 rounding, which splits the cluster into a few
    float32 levels that disagree with the float64 order, so the float32
    k-th score alone would drop some of the float64 top 10."""
    z_u = 0.1 * rng.normal(size=(users, d))
    z_u[:, 0] += 3.0
    z_u[:, 1] += 1.0
    tie_items = np.zeros((ties, d))
    tie_items[:, 0] = 1.0 + 1e-7 * rng.random(ties)
    tie_items[:, 1] = 3e-7 * rng.random(ties)
    z_i = np.vstack([0.3 * rng.normal(size=(others, d)), tie_items])
    z_i = z_i[rng.permutation(len(z_i))]
    train = [np.sort(rng.choice(len(z_i), int(rng.integers(0, 8)),
                                replace=False)) for _ in range(users)]
    return z_u, z_i, train


def assert_matches_oracle(z_u, z_i, train, k):
    top = rank_topk(z_u, z_i, train_matrix(train, len(z_i)), k,
                    np.arange(len(z_u)))
    scores = z_u @ z_i.T
    assert top.dtype == np.int64
    expected = [topk_rank_dense(scores[u], train[u], k)
                for u in range(len(z_u))]
    assert top.tolist() == padded(expected, k).tolist()
    return top


@pytest.fixture
def chunked(chunk, monkeypatch):
    """rank_topk scores ``chunk`` users at a time.  Chunks of 7 leave a
    partial last chunk in the fixed-size cases below; 128 is the
    default."""
    monkeypatch.setattr(metrics, "_CHUNK", chunk)


def screen_members(n, k):
    """Members per block of rank_topk's block-maximum screen."""
    return max(1, min(16, n // (8 * k)))


@pytest.mark.parametrize("chunk", [1, 7, 128])
@pytest.mark.usefixtures("chunked")
class TestTwoPrecisionRanker:
    """rank_topk scores in float32 and re-scores candidates in float64;
    every case must equal the float64 oracle.  ``grow`` scales each
    catalog."""

    grow = 1

    def test_near_ties_inside_float32_rounding(self):
        rng = np.random.default_rng(10)
        z_u, z_i, train = near_tie_instance(rng, others=200 * self.grow)
        lists = assert_matches_oracle(z_u, z_i, train, 10)
        cluster = (z_u @ z_i.T)[:, np.all(z_i[:, 2:] == 0.0, axis=1)]
        assert np.diff(np.sort(cluster, axis=1)).min() > 100 * np.spacing(4.0)
        # a float32-only ranking cannot separate the cluster
        scores32 = z_u.astype(np.float32) @ z_i.astype(np.float32).T
        for u, items in enumerate(train):
            scores32[u, items] = -np.inf
        order32 = np.argsort(-scores32, axis=1, kind="stable")[:, :10]
        assert any(top.tolist() != row.tolist()
                   for top, row in zip(lists, order32))

    @pytest.mark.parametrize("scale_u, scale_i", [(1e150, 1e150),
                                                  (1e-150, 1e-150),
                                                  (1e150, 1e-150)])
    def test_extreme_scales(self, scale_u, scale_i):
        rng = np.random.default_rng(11)
        z_u, z_i, train = near_tie_instance(rng, others=200 * self.grow)
        assert_matches_oracle(scale_u * z_u, scale_i * z_i, train, 10)
        z_u, z_i, train, _ = random_instance(rng, max_users=30,
                                             min_items=5 * self.grow,
                                             max_items=60 * self.grow)
        assert_matches_oracle(scale_u * z_u, scale_i * z_i, train, 4)

    def test_zero_user_row_takes_lowest_indices(self):
        rng = np.random.default_rng(12)
        z_u, z_i, train = near_tie_instance(rng, users=9,
                                            others=200 * self.grow)
        z_u[4] = 0.0
        train[4] = np.array([0, 2])
        lists = assert_matches_oracle(z_u, z_i, train, 10)
        assert lists[4].tolist() == [1] + list(range(3, 12))

    def test_rows_with_fewer_than_k_candidates(self):
        rng = np.random.default_rng(13)
        n = 12 * self.grow
        z_u, z_i = rng.normal(size=(10, 3)), rng.normal(size=(n, 3))
        # all but 0, 2, 4, ..., 12 items held: none to 12 candidates
        train = [np.sort(rng.choice(n, n - 2 * (u % 7), replace=False))
                 for u in range(10)]
        lists = assert_matches_oracle(z_u, z_i, train, 5)
        assert np.count_nonzero(lists >= 0, axis=1).tolist() == \
            [min(5, 2 * (u % 7)) for u in range(10)]


class TestTwoPrecisionRankerScreened(TestTwoPrecisionRanker):
    """The same cases on catalogs 16 times larger, where the screen puts
    several items in each block (2 to 16 members)."""

    grow = 16


@pytest.mark.parametrize("chunk", [1, 7, 128])
@pytest.mark.usefixtures("chunked")
class TestBlockScreen:
    """Catalogs where rank_topk's screen has several members per block;
    every case must equal the float64 oracle."""

    def test_short_blocks(self):
        # n = 16 w - 11: blocks 14..24 lack a 16th member, and the best
        # items sit in the last member row and in the short blocks
        rng = np.random.default_rng(20)
        k, n = 3, 389
        w = -(-n // screen_members(n, k))
        assert (screen_members(n, k), w) == (16, 25)
        z_u, z_i = rng.normal(size=(40, 4)), rng.normal(size=(n, 4))
        best = [n - 1, n - 2, 15 * w, 14, 24, 24 + 14 * w]
        z_i[best] *= 6.0
        train = [np.sort(rng.choice(n, int(rng.integers(0, 4)),
                                    replace=False)) for _ in range(40)]
        lists = assert_matches_oracle(z_u, z_i, train, k)
        assert set(best) == set(lists.ravel().tolist()) & set(best)

    def test_several_top_items_in_one_block(self):
        rng = np.random.default_rng(21)
        k, n = 5, 640
        w = n // screen_members(n, k)
        z_u = rng.normal(size=(12, 4))
        z_u[:, 0] = 2.0 + rng.random(12)
        z_i = rng.normal(size=(n, 4))
        block = 3 + w * np.array([0, 1, 2, 5, 15])
        z_i[block, 0] = 8.0 + rng.random(len(block))
        train = [np.array([], np.int64)] * 6 + [np.sort(
            rng.choice(block, int(rng.integers(1, 4)), replace=False))
            for _ in range(6)]
        lists = assert_matches_oracle(z_u, z_i, train, k)
        for top in lists[:6]:
            assert sorted(top.tolist()) == block.tolist()

    def test_fewer_than_k_finite_block_maxima(self):
        # user u keeps only u % 5 blocks of 16 items, or three items of
        # two blocks; every other item is held out as a train item
        rng = np.random.default_rng(22)
        k, n = 5, 640
        w = n // screen_members(n, k)
        z_u, z_i = rng.normal(size=(11, 3)), rng.normal(size=(n, 3))
        train, sizes = [], []
        for u in range(11):
            kept = (rng.choice(w, u % 5, replace=False)[:, None]
                    + w * np.arange(16)).ravel()
            if u == 10:
                kept = np.array([2, 2 + w, 9])
            train.append(np.setdiff1d(np.arange(n), kept))
            sizes.append(min(k, len(kept)))
        lists = assert_matches_oracle(z_u, z_i, train, k)
        assert np.count_nonzero(lists >= 0, axis=1).tolist() == sizes

    def test_exact_ties_across_blocks(self):
        rng = np.random.default_rng(23)
        k, n = 10, 640
        assert screen_members(n, k) == 8
        z_u = rng.normal(size=(15, 4))
        z_u[:, 0] = 1.0 + rng.random(15)
        z_i = 0.3 * rng.normal(size=(n, 4))
        tied = np.sort(rng.choice(n, 30, replace=False))
        z_i[tied] = [6.0, 0.0, 0.0, 0.0]
        train = [np.sort(rng.choice(tied, int(rng.integers(0, 12)),
                                    replace=False)) for _ in range(15)]
        lists = assert_matches_oracle(z_u, z_i, train, k)
        for top, held in zip(lists, train):
            assert top.tolist() == np.setdiff1d(tied, held)[:k].tolist()

    def test_k_is_one(self):
        rng = np.random.default_rng(24)
        z_u, z_i, train = near_tie_instance(rng, others=400)
        assert screen_members(len(z_i), 1) == 16
        assert_matches_oracle(z_u, z_i, train, 1)
        z_u, z_i, train, _ = random_instance(rng, max_users=30,
                                             min_items=200, max_items=400)
        assert_matches_oracle(z_u, z_i, train, 1)

    @pytest.mark.parametrize("n, members", [(111, 1), (112, 2)])
    def test_catalog_at_the_first_split(self, n, members):
        rng = np.random.default_rng(25)
        k = 7
        assert screen_members(n, k) == members
        z_u, z_i = rng.normal(size=(30, 3)), rng.normal(size=(n, 3))
        train = [np.sort(rng.choice(n, int(rng.integers(0, n - 3)),
                                    replace=False)) for _ in range(30)]
        assert_matches_oracle(z_u, z_i, train, k)


class TestTopkMetrics:
    def test_worked_example(self):
        # test set {i2}, ranking [i1, i2, i3], k=3
        m = topk_metrics(np.array([[1, 2, 3]]), train_matrix([[2]], 4), k=3)
        assert m.precision == pytest.approx(1.0 / 3.0)
        assert m.recall == pytest.approx(1.0)
        assert m.ndcg == pytest.approx(1.0 / np.log2(3.0), abs=1e-9)
        assert round(m.ndcg, 4) == 0.6309

    def test_perfect_ranking(self):
        m = topk_metrics(np.array([[4, 7]]), train_matrix([[4, 7]], 8), k=2)
        assert m.ndcg == pytest.approx(1.0)
        assert m.precision == 1.0 and m.recall == 1.0

    def test_no_hits_all_zero(self):
        m = topk_metrics(np.array([[1, 2]]), train_matrix([[5]], 6), k=2)
        assert (m.precision, m.recall, m.ndcg) == (0.0, 0.0, 0.0)

    def test_empty_test_sets_skipped_and_tallied(self):
        m = topk_metrics(np.array([[1], [2]]), train_matrix([[], [2]], 3),
                         k=1)
        assert m.users_evaluated == 1
        assert m.users_skipped == 1
        assert m.recall == 1.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            z_u, z_i, train, test = random_instance(rng)
            k = int(rng.integers(1, min(10, z_i.shape[0])))
            top = rank_topk(z_u, z_i, train_matrix(train, len(z_i)), k,
                            np.arange(len(z_u)))
            got = topk_metrics(top, train_matrix(test, len(z_i)), k)
            scores = z_u @ z_i.T
            per_user = [ranking_metrics_dense(scores[u], train[u], test[u], k)
                        for u in range(len(test)) if len(test[u])]
            expected = np.mean(per_user, axis=0)
            assert got.precision == pytest.approx(expected[0], abs=1e-12)
            assert got.recall == pytest.approx(expected[1], abs=1e-12)
            assert got.ndcg == pytest.approx(expected[2], abs=1e-12)

    def test_recall_and_hits_monotone_in_k(self):
        rng = np.random.default_rng(4)
        z_u, z_i, train, test = random_instance(rng, max_items=25)
        prev_recall, prev_hits = -1.0, -1.0
        for k in (1, 3, 5, 10):
            top = rank_topk(z_u, z_i, train_matrix(train, len(z_i)), k,
                            np.arange(len(z_u)))
            m = topk_metrics(top, train_matrix(test, len(z_i)), k)
            hits = m.precision * k
            assert m.recall >= prev_recall - 1e-12
            assert hits >= prev_hits - 1e-12
            prev_recall, prev_hits = m.recall, hits

    def test_sums_equal_a_per_user_loop(self):
        # the vectorized aggregation must add the same numbers in the same
        # order as a loop over users, including lists with many hits
        def loop(lists, tests, k):
            discounts = 1.0 / np.log2(np.arange(2, k + 2))
            ideal = np.concatenate([[0.0], np.cumsum(discounts)])
            p = r = n = 0.0
            evaluated = 0
            for top, test in zip(lists, tests):
                test = set(test.tolist())
                if not test:
                    continue
                evaluated += 1
                hits = np.array([1.0 if i in test else 0.0 for i in top])
                p += hits.sum() / k
                r += hits.sum() / len(test)
                n += float(hits @ discounts[:len(top)]) / ideal[min(len(test), k)]
            return [v / evaluated for v in (p, r, n)], evaluated

        rng = np.random.default_rng(8)
        for k in (1, 5, 10, 20):
            lists = [rng.permutation(40)[:int(rng.integers(0, k + 1))]
                     for _ in range(300)]
            tests = [rng.permutation(40)[:int(rng.integers(0, 25))]
                     for _ in range(300)]
            if k == 20:
                # long lists with no hit, one hit and several hits, so
                # both ways of summing a DCG are checked
                long_hits = {len(np.intersect1d(top, test))
                             for top, test in zip(lists, tests)
                             if len(top) >= 16 and len(test)}
                assert {0, 1} <= long_hits and max(long_hits) >= 2
            m = topk_metrics(padded(lists, k), train_matrix(tests, 40), k)
            want, evaluated = loop(lists, tests, k)
            assert [m.precision, m.recall, m.ndcg] == want
            assert (m.users_evaluated, m.users_skipped) == (evaluated,
                                                            300 - evaluated)
            # one user at a time, so a last-bit change cannot hide in a sum
            for top, test in zip(lists, tests):
                if len(test):
                    m = topk_metrics(padded([top], k),
                                     train_matrix([test], 40), k)
                    assert [m.precision, m.recall, m.ndcg] == \
                        loop([top], [test], k)[0]

    def test_list_longer_than_k_rejected(self):
        with pytest.raises(ValueError, match="5 columns.*k=2"):
            topk_metrics(padded([np.arange(2), np.arange(5)], 5),
                         train_matrix([[3], [3]], 5), k=2)

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="3 rows.*has 2"):
            topk_metrics(np.array([[0], [1]]), train_matrix([[0], [1], [2]], 3),
                         k=1)

    def test_duplicate_test_items_count_once(self):
        m = topk_metrics(np.array([[3, 1]]), train_matrix([[1, 1, 5]], 6),
                         k=2)
        assert m.recall == 0.5

    def test_non_canonical_test_matrix(self):
        # duplicate and unsorted entries give the canonical copy's metrics
        # and leave the caller's matrix as it was
        rng = np.random.default_rng(9)
        top = padded([rng.permutation(30)[:int(rng.integers(0, 6))]
                      for _ in range(40)], 5)
        rows = [rng.choice(30, int(rng.integers(0, 8))) for _ in range(40)]
        indptr = np.cumsum([0] + [len(r) for r in rows])
        test = sp.csr_matrix((np.ones(indptr[-1]), np.concatenate(rows),
                              indptr), shape=(40, 30))
        indices = test.indices.copy()
        assert not test.has_canonical_format
        canonical = test.copy()
        canonical.sum_duplicates()
        assert canonical.nnz < test.nnz
        assert topk_metrics(top, test, 5) == topk_metrics(top, canonical, 5)
        np.testing.assert_array_equal(test.indices, indices)

    def test_padding_counts_as_no_item(self):
        # row 1's padding has the key of row 0's last item, 4; it must not
        # count as a hit, and a padded row scores as its items alone
        test = train_matrix([[4], [2]], 5)
        m = topk_metrics(np.array([[4, -1], [-1, -1]]), test, k=2)
        assert (m.precision, m.recall, m.ndcg) == (0.25, 0.5, 0.5)
        rng = np.random.default_rng(10)
        for _ in range(20):
            items = rng.permutation(12)[:int(rng.integers(1, 6))]
            test = train_matrix([rng.permutation(12)[:3]], 12)
            m = topk_metrics(padded([items], 6), test, k=6)
            assert m == topk_metrics(items[None, :], test, k=6)

    def test_item_past_the_catalog_raises(self):
        # an entry is a catalog item or negative padding; one past the
        # catalog is a caller's mistake, not a miss, also where no user
        # has a test item to look up
        test = train_matrix([[1], [2]], 4)
        with pytest.raises(IndexError, match="catalog"):
            topk_metrics(np.array([[1, 4], [2, 0]]), test, k=2)
        with pytest.raises(IndexError, match="catalog"):
            topk_metrics(np.array([[9]]), sp.csr_matrix((1, 4)), 1)

    def test_any_negative_entry_is_padding(self):
        # -1 and -2 both count as no item, though each reads item 0, a
        # test item of every row here
        test = train_matrix([[0, 3], [0, 1]], 4)
        m = topk_metrics(np.array([[3, -1, -2], [-2, -1, 1]]), test, k=3)
        assert m == topk_metrics(np.array([[3, -1, -1], [-1, -1, 1]]),
                                 test, k=3)
        assert (m.precision, m.recall) == (1.0 / 3.0, 0.5)

    def test_csv_row(self):
        m = RankingMetrics(k=20, precision=0.1, recall=0.2, ndcg=0.3,
                           users_evaluated=10, users_skipped=2)
        row = m.csv_row(fold=1)
        assert row.startswith("1,20,")
        assert len(row.split(",")) == len(RankingMetrics.CSV_HEADER.split(","))


class TestAlignmentUniformity:
    def test_identical_pairs_align_zero(self):
        z = np.random.default_rng(5).normal(size=(4, 3))
        pairs = [(i, i) for i in range(4)]
        align, _ = alignment_uniformity(z, z.copy(), pairs)
        assert align == pytest.approx(0.0, abs=1e-12)

    def test_pairwise_identical_embeddings_give_zero(self):
        z = np.tile(np.array([[1.0, 0.0]]), (4, 1))
        pairs = [(i, i) for i in range(4)]
        _, uniform = alignment_uniformity(z, z, pairs)
        assert uniform == pytest.approx(0.0, abs=1e-12)

    def test_pairwise_spread_is_negative(self):
        # antipodal points are maximally spread on the circle
        z = np.array([[1.0, 0.0], [-1.0, 0.0]])
        pairs = [(0, 0), (1, 1)]
        _, uniform = alignment_uniformity(z, z, pairs)
        assert uniform < -1.0

    def test_pairwise_orders_spread_configurations(self):
        rng = np.random.default_rng(7)
        spread = rng.normal(size=(20, 8))
        clumped = np.ones((20, 8)) + 0.01 * rng.normal(size=(20, 8))
        pairs = [(i, i) for i in range(20)]
        _, u_spread = alignment_uniformity(spread, spread, pairs)
        _, u_clumped = alignment_uniformity(clumped, clumped, pairs)
        assert u_spread < u_clumped

    def test_empty_pairs_rejected(self):
        with pytest.raises(ValueError):
            alignment_uniformity(np.ones((2, 2)), np.ones((2, 2)), [])

    @staticmethod
    def seeded_points():
        points = np.random.default_rng(11).normal(size=(300, 6))
        points[7] = points[3]  # a duplicate row: one distance is 0
        return points

    def test_uniformity_term_keeps_the_plain_expressions_bits(self):
        points = self.seeded_points()
        d = pdist(points)
        want = float(np.log(np.mean(np.exp(-2.0 * d * d))))
        assert repr(metrics._log_mean_exp_neg2sq(points)) == repr(want)

    def test_uniformity_term_holds_one_temporary(self):
        points = self.seeded_points()
        size = pdist(points).nbytes
        _, peak = traced_peak(metrics._log_mean_exp_neg2sq, points)
        # the distances and one array for exp(-2 d^2); the plain
        # expression holds three at once
        assert peak < 2.5 * size

    def test_uniformity_term_holds_no_second_distance_array(self):
        # at 2,000 points the distances are many blocks long: exp(-2 d^2)
        # is written back into them, so a second array of their size
        # would double the peak
        points = np.random.default_rng(13).normal(size=(2000, 6))
        size = pdist(points).nbytes
        value, peak = traced_peak(metrics._log_mean_exp_neg2sq, points)
        d = pdist(points)
        want = float(np.log(np.mean(np.exp(-2.0 * d * d))))
        assert repr(value) == repr(want)
        assert peak <= 1.25 * size
