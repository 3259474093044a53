import runpy
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from gclrec.dataset import InteractionSet, make_folds
from gclrec.graphs import (
    build_adjacency,
    build_complement,
    build_graph,
    build_interaction_matrix,
    sym_normalize,
)

from conftest import make_interactions, random_interactions
from oracles import (
    adjacency_dense,
    complement_dense,
    complement_reference,
    sym_normalize_dense,
    sym_normalize_reference,
)


def random_binary(m, n, density, rng):
    return (rng.random((m, n)) < density).astype(np.float64)


def assert_canonical_csr(M):
    assert sp.isspmatrix_csr(M) and M.dtype == np.float64
    assert M.has_canonical_format
    assert np.all(M.data != 0.0)
    for r in range(M.shape[0]):
        assert np.all(np.diff(M.indices[M.indptr[r]:M.indptr[r + 1]]) > 0)


class TestCanonicalCsr:
    def test_builders_return_canonical_csr(self, small_random):
        R = build_interaction_matrix(small_random)
        g = build_graph(small_random, gamma=1.0)
        # gamma 0 prunes no column and relabels every item to itself
        g0 = build_graph(small_random, gamma=0.0)
        # a gamma above every count leaves the complement empty
        above = float(np.asarray(R.sum(axis=0)).max()) + 1.0
        with pytest.warns(UserWarning, match="empty after filtering"):
            empty = build_complement(R, above)
        assert empty.nnz == 0 and empty.shape == (R.shape[1],) * 2
        # a pair given twice is one entry, the sum of the two
        twice = make_interactions(3, 4, [(0, 2), (2, 1), (0, 2), (0, 0)])
        summed = build_interaction_matrix(twice)
        np.testing.assert_array_equal(summed.toarray(),
                                      [[1.0, 0.0, 2.0, 0.0],
                                       [0.0, 0.0, 0.0, 0.0],
                                       [0.0, 1.0, 0.0, 0.0]])
        for M in (R, build_adjacency(R), build_complement(R, 1.0),
                  sym_normalize(build_adjacency(R)), g.R, g.ui, g.comp,
                  build_complement(R, 0.0), g0.ui, g0.comp, empty, summed,
                  build_adjacency(summed)):
            assert_canonical_csr(M)
        np.testing.assert_array_equal(g.R.toarray(), R.toarray())


class TestInteractionMatrix:
    def test_binary_structure(self, toy_interactions):
        R = build_interaction_matrix(toy_interactions)
        dense = R.toarray()
        assert dense.shape == (4, 5)
        assert set(np.unique(dense)) <= {0.0, 1.0}
        for u, i in toy_interactions.pairs:
            assert dense[u, i] == 1.0
        assert dense.sum() == len(toy_interactions)

    def test_empty_train_raises(self, toy_interactions):
        empty = toy_interactions.view(np.zeros(len(toy_interactions), dtype=bool))
        with pytest.raises(ValueError):
            build_interaction_matrix(empty)


class TestAdjacency:
    def test_block_structure(self, toy_interactions):
        R = build_interaction_matrix(toy_interactions)
        A = build_adjacency(R)
        np.testing.assert_array_equal(A.toarray(), adjacency_dense(R.toarray()))

    def test_normalized_matches_dense_oracle(self, small_random):
        R = build_interaction_matrix(small_random)
        A = sym_normalize(build_adjacency(R))
        expected = sym_normalize_dense(adjacency_dense(R.toarray()))
        np.testing.assert_allclose(A.toarray(), expected, atol=1e-12)

    def test_spectral_radius_at_most_one(self, small_random):
        R = build_interaction_matrix(small_random)
        A = sym_normalize(build_adjacency(R)).toarray()
        eigs = np.linalg.eigvalsh(A)
        assert np.max(np.abs(eigs)) <= 1.0 + 1e-9


class TestSymNormalize:
    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(3)
        dense = random_binary(12, 12, 0.25, rng) * rng.integers(1, 5, (12, 12))
        M = sp.csr_matrix(dense)
        np.testing.assert_allclose(
            sym_normalize(M).toarray(), sym_normalize_dense(dense), atol=1e-12
        )

    def test_same_bits_as_the_sparse_product(self):
        rng = np.random.default_rng(4)
        weighted = random_binary(30, 30, 0.2, rng) * rng.integers(1, 7, (30, 30))
        weighted[5] = 0.0  # a zero-degree row
        for M in (sp.csr_matrix(weighted),
                  build_adjacency(benchmark_matrix(1))):
            before = M.data.copy()
            assert_same_csr(sym_normalize(M), sym_normalize_reference(M))
            np.testing.assert_array_equal(M.data, before)

    def test_zero_degree_rows_stay_empty(self):
        dense = np.array([[0.0, 2.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        N = sym_normalize(sp.csr_matrix(dense))
        out = N.toarray()
        np.testing.assert_array_equal(out[2], 0.0)
        np.testing.assert_array_equal(out[:, 2], 0.0)
        assert np.all(np.isfinite(out))

    def test_rejects_negative_entries(self):
        dense = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(ValueError, match="nonnegative"):
            sym_normalize(sp.csr_matrix(dense))

    def test_rejects_nonsquare(self):
        M = sp.csr_matrix(np.ones((2, 3)))
        with pytest.raises(ValueError, match="square"):
            sym_normalize(M)


class TestComplement:
    def test_matches_dense_oracle_small(self, toy_interactions):
        R = build_interaction_matrix(toy_interactions)
        for gamma in (0.0, 1.0, 2.0, 3.0):
            C = build_complement(R, gamma)
            expected = complement_dense(R.toarray(), gamma)
            np.testing.assert_allclose(C.toarray(), expected, atol=1e-12)

    def test_matches_dense_oracle_randomized(self):
        import warnings
        rng = np.random.default_rng(11)
        for _ in range(40):
            m = int(rng.integers(3, 15))
            n = int(rng.integers(3, 15))
            dense = random_binary(m, n, float(rng.uniform(0.1, 0.6)), rng)
            if dense.sum() == 0:
                dense[0, 0] = 1.0
            gamma = float(rng.integers(0, 4))
            R = sp.csr_matrix(dense)
            expected = complement_dense(dense, gamma)
            with warnings.catch_warnings(record=True) as captured:
                warnings.simplefilter("always")
                C = build_complement(R, gamma)
            if (expected == 0).all():
                assert captured, "empty complement should warn"
            got = C.toarray()
            np.testing.assert_array_equal(got != 0, expected != 0)
            np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_threshold_keeps_exact_gamma(self):
        # two items co-consumed by exactly 2 users survive gamma=2
        dense = np.array([
            [1.0, 1.0, 1.0],
            [1.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
        ])
        R = sp.csr_matrix(dense)
        C = build_complement(R, gamma=2.0)
        arr = C.toarray()
        assert arr[0, 1] > 0 and arr[1, 0] > 0  # count 2 == gamma kept
        assert arr[0, 2] == 0 and arr[1, 2] == 0  # count 1 < gamma dropped

    def test_diagonal_removed_before_threshold(self):
        dense = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
        R = sp.csr_matrix(dense)
        C = build_complement(R, gamma=0.0)
        assert np.all(np.diag(C.toarray()) == 0.0)

    def test_support_shrinks_as_gamma_grows(self, small_random):
        R = build_interaction_matrix(small_random)
        sizes = []
        for gamma in (0.0, 1.0, 2.0, 3.0, 4.0):
            import warnings
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                sizes.append(build_complement(R, gamma).nnz)
        assert sizes == sorted(sizes, reverse=True)

    def test_filter_disabled_keeps_all_counts(self, toy_interactions):
        # gamma 0 runs no filter: every off-diagonal co-occurrence stays
        dense = build_interaction_matrix(toy_interactions).toarray()
        counts = dense.T @ dense
        np.fill_diagonal(counts, 0.0)
        C = build_complement(sp.csr_matrix(dense), gamma=0.0)
        np.testing.assert_allclose(C.toarray(), sym_normalize_dense(counts),
                                   atol=1e-12)

    def test_everything_filtered_warns_and_flags(self):
        # disjoint item sets: all co-occurrence counts are zero
        data = make_interactions(2, 4, [(0, 0), (0, 1), (1, 2), (1, 3)])
        R = build_interaction_matrix(data)
        with pytest.warns(UserWarning, match="empty"):
            C = build_complement(R, gamma=5.0)
        assert C.nnz == 0
        with pytest.warns(UserWarning):
            g = build_graph(data, gamma=5.0)
        assert g.comp.nnz == 0

    def test_negative_gamma_rejected(self, toy_interactions):
        R = build_interaction_matrix(toy_interactions)
        with pytest.raises(ValueError):
            build_complement(R, gamma=-1.0)


def benchmark_matrix(seed):
    """Fold 0's train matrix of the benchmark's full-size log."""
    gen = runpy.run_path(str(Path(__file__).resolve().parents[1]
                             / "benchmarks" / "workload.py"))
    size = gen["SIZES"]["full"]
    pairs = gen["generate_pairs"](size, seed)
    data = InteractionSet(size.users, size.items, pairs)
    return build_interaction_matrix(make_folds(data, 5, seed)[0].train)


def assert_same_csr(got, want):
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)
    assert got.shape == want.shape


class TestComplementOrder:
    """Filtering before dropping the diagonal keeps every bit of the
    diagonal-first build."""

    GAMMAS = (0, 1, 2, 2.5, 3, 5)

    def check(self, R):
        for gamma in self.GAMMAS:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                want = complement_reference(R, gamma)
                got = build_complement(R, gamma)
            assert_same_csr(got, want)

    def test_random_matrices(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            m, n = (int(v) for v in rng.integers(2, 40, size=2))
            dense = random_binary(m, n, float(rng.uniform(0.05, 0.7)), rng)
            self.check(sp.csr_matrix(dense))

    def test_benchmark_size_matrix(self):
        R = benchmark_matrix(1)
        assert R.shape == (17615, 16121)
        self.check(R)
        assert build_complement(R, 3).nnz == 3530

    def test_items_with_exactly_gamma_users(self):
        # items 0 and 1 share their 3 users and item 2 has 2 of them, so
        # at gamma 2 and 3 an item has exactly gamma users
        R = sp.csr_matrix(np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0],
                                    [1.0, 1.0, 0.0], [0.0, 0.0, 0.0]]))
        self.check(R)
        assert build_complement(R, 3).nnz == 2

    def test_empty_result_still_warns(self):
        R = sp.csr_matrix(np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]]))
        with pytest.warns(UserWarning, match="empty after filtering"):
            C = build_complement(R, 2)
        assert C.nnz == 0
        with pytest.warns(UserWarning, match="empty after filtering"):
            assert_same_csr(C, complement_reference(R, 2))


class TestBuildGraph:
    def test_components_present(self, small_random):
        g = build_graph(small_random, gamma=2.0)
        m, n = small_random.num_users, small_random.num_items
        assert g.R.shape == (m, n)
        assert g.ui.shape == (m + n, m + n)
        assert g.comp.shape == (n, n)
        assert g.comp.nnz > 0

    def test_complement_disabled(self, small_random):
        g = build_graph(small_random, gamma=2.0, complement_enabled=False)
        assert g.comp is None
