import numpy as np
import pytest
import scipy.sparse as sp

from gclrec.graphs import (
    _canonical,
    build_adjacency,
    build_complement,
    build_graph,
    build_interaction_matrix,
    sym_normalize,
)

from conftest import make_interactions, random_interactions
from oracles import adjacency_dense, complement_dense, sym_normalize_dense


def random_binary(m, n, density, rng):
    return (rng.random((m, n)) < density).astype(np.float64)


def assert_canonical_csr(M):
    assert sp.isspmatrix_csr(M) and M.dtype == np.float64
    assert M.has_canonical_format
    assert np.all(M.data != 0.0)
    for r in range(M.shape[0]):
        assert np.all(np.diff(M.indices[M.indptr[r]:M.indptr[r + 1]]) > 0)


class TestCanonicalCsr:
    def test_canonicalizes(self):
        # duplicate coordinates sum, explicit zeros vanish, columns sort
        coo = sp.coo_matrix(
            (np.array([1.0, 2.0, 0.0, 3.0]),
             (np.array([0, 0, 1, 0]), np.array([2, 2, 1, 0]))),
            shape=(2, 3),
        )
        M = _canonical(coo)
        assert M.nnz == 2
        np.testing.assert_array_equal(M.toarray(), [[3.0, 0.0, 3.0], [0.0, 0.0, 0.0]])
        assert_canonical_csr(M)

    def test_builders_return_canonical_csr(self, small_random):
        R = build_interaction_matrix(small_random)
        g = build_graph(small_random, gamma=1.0)
        for M in (R, build_adjacency(R), build_complement(R, 1.0),
                  sym_normalize(build_adjacency(R)), g.R, g.ui, g.comp):
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
        R = build_interaction_matrix(toy_interactions)
        C = build_complement(R, gamma=3.0, apply_filter=False)
        expected = complement_dense(R.toarray(), gamma=3.0, apply_filter=False)
        np.testing.assert_allclose(C.toarray(), expected, atol=1e-12)

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
