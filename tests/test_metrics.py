import numpy as np
import pytest

from gclrec.metrics import (
    RankingMetrics,
    alignment_uniformity,
    rank_topk,
    topk_metrics,
)

from conftest import train_matrix
from oracles import ranking_metrics_dense, topk_rank_dense


def random_instance(rng, max_users=8, max_items=30):
    m = int(rng.integers(2, max_users))
    n = int(rng.integers(5, max_items))
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
        top = rank_topk(z_u, z_i, train_matrix([[0]], 3), k=2)
        np.testing.assert_array_equal(top[0], [1, 2])

    def test_all_equal_scores_take_lowest_indices(self):
        z_u = np.array([[1.0]])
        z_i = np.ones((6, 1))
        top = rank_topk(z_u, z_i, train_matrix([[]], len(z_i)), k=3)
        np.testing.assert_array_equal(top[0], [0, 1, 2])

    def test_tie_at_boundary_prefers_lower_index(self):
        z_u = np.array([[1.0]])
        # items 1, 3, 4 tie at the k-th position boundary
        z_i = np.array([[5.0], [2.0], [9.0], [2.0], [2.0], [0.0]])
        top = rank_topk(z_u, z_i, train_matrix([[]], len(z_i)), k=3)
        np.testing.assert_array_equal(top[0], [2, 0, 1])

    def test_fewer_candidates_than_k(self):
        z_u = np.array([[1.0]])
        z_i = np.array([[1.0], [2.0], [3.0]])
        top = rank_topk(z_u, z_i, train_matrix([[0, 2]], 3), k=3)
        np.testing.assert_array_equal(top[0], [1])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            z_u, z_i, train, _ = random_instance(rng)
            k = int(rng.integers(1, min(10, z_i.shape[0])))
            lists = rank_topk(z_u, z_i, train_matrix(train, len(z_i)), k)
            scores = z_u @ z_i.T
            for u, top in enumerate(lists):
                expected = topk_rank_dense(scores[u], train[u], k)
                np.testing.assert_array_equal(top, expected)

    def test_invariant_under_positive_rescaling(self):
        rng = np.random.default_rng(1)
        z_u, z_i, train, _ = random_instance(rng)
        R = train_matrix(train, len(z_i))
        a = rank_topk(z_u, z_i, R, k=5)
        b = rank_topk(4.0 * z_u, z_i, R, k=5)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_user_subset_and_chunking(self):
        rng = np.random.default_rng(2)
        z_u, z_i, train, _ = random_instance(rng)
        R = train_matrix(train, len(z_i))
        full = rank_topk(z_u, z_i, R, k=4, chunk=2)
        sub = rank_topk(z_u, z_i, R, k=4, users=[1, 0], chunk=1)
        np.testing.assert_array_equal(sub[0], full[1])
        np.testing.assert_array_equal(sub[1], full[0])

    def test_k_beyond_items_rejected(self):
        with pytest.raises(ValueError, match="k="):
            rank_topk(np.ones((1, 1)), np.ones((2, 1)), train_matrix([[]], 2),
                      k=3)


class TestTopkMetrics:
    def test_worked_example(self):
        # test set {i2}, ranking [i1, i2, i3], k=3
        m = topk_metrics([np.array([1, 2, 3])], [np.array([2])], k=3)
        assert m.precision == pytest.approx(1.0 / 3.0)
        assert m.recall == pytest.approx(1.0)
        assert m.ndcg == pytest.approx(1.0 / np.log2(3.0), abs=1e-9)
        assert round(m.ndcg, 4) == 0.6309

    def test_perfect_ranking(self):
        m = topk_metrics([np.array([4, 7])], [np.array([4, 7])], k=2)
        assert m.ndcg == pytest.approx(1.0)
        assert m.precision == 1.0 and m.recall == 1.0

    def test_no_hits_all_zero(self):
        m = topk_metrics([np.array([1, 2])], [np.array([5])], k=2)
        assert (m.precision, m.recall, m.ndcg) == (0.0, 0.0, 0.0)

    def test_empty_test_sets_skipped_and_tallied(self):
        lists = [np.array([1]), np.array([2])]
        tests = [np.array([], dtype=np.int64), np.array([2])]
        m = topk_metrics(lists, tests, k=1)
        assert m.users_evaluated == 1
        assert m.users_skipped == 1
        assert m.recall == 1.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            z_u, z_i, train, test = random_instance(rng)
            k = int(rng.integers(1, min(10, z_i.shape[0])))
            lists = rank_topk(z_u, z_i, train_matrix(train, len(z_i)), k)
            got = topk_metrics(lists, test, k)
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
            lists = rank_topk(z_u, z_i, train_matrix(train, len(z_i)), k)
            m = topk_metrics(lists, test, k)
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
            m = topk_metrics(lists, tests, k)
            want, evaluated = loop(lists, tests, k)
            assert [m.precision, m.recall, m.ndcg] == want
            assert (m.users_evaluated, m.users_skipped) == (evaluated,
                                                            300 - evaluated)
            # one user at a time, so a last-bit change cannot hide in a sum
            for top, test in zip(lists, tests):
                if len(test):
                    m = topk_metrics([top], [test], k)
                    assert [m.precision, m.recall, m.ndcg] == \
                        loop([top], [test], k)[0]

    def test_duplicate_test_items_count_once(self):
        m = topk_metrics([np.array([3, 1])], [np.array([1, 1, 5])], k=2)
        assert m.recall == 0.5

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
