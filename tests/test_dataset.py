import numpy as np
import pytest
from scipy.stats import chi2

from gclrec.dataset import (
    DataError,
    ParseError,
    fold_manifest,
    load_interactions,
    make_folds,
    sample_negatives,
)
from gclrec.graphs import build_interaction_matrix

from conftest import make_interactions, random_interactions


def write_log(tmp_path, text, name="log.txt"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestLoadInteractions:
    def test_whitespace_and_comma_fields(self, tmp_path):
        p = write_log(tmp_path, "alice dvd1 5\nbob,dvd2,3\nalice\tdvd2\t1\n")
        data = load_interactions(p)
        assert data.num_users == 2
        assert data.num_items == 2
        assert len(data) == 3

    def test_first_appearance_indexing(self, tmp_path):
        p = write_log(tmp_path, "u9 i7\nu2 i7\nu9 i1\n")
        data = load_interactions(p)
        assert data.user_map == {"u9": 0, "u2": 1}
        assert data.item_map == {"i7": 0, "i1": 1}
        np.testing.assert_array_equal(data.pairs, [[0, 0], [1, 0], [0, 1]])

    def test_extra_columns_ignored(self, tmp_path):
        p = write_log(tmp_path, "u i 4 1303333333\nu j 2 1303333334\n")
        data = load_interactions(p)
        assert len(data) == 2
        assert data.num_items == 2

    def test_duplicates_collapse(self, tmp_path):
        p = write_log(tmp_path, "u i\nu i 5\nu i\nv i\n")
        data = load_interactions(p)
        assert len(data) == 2

    def test_blank_and_comment_lines_skipped(self, tmp_path):
        p = write_log(tmp_path, "# header\n\nu i\n   \nv j\n")
        data = load_interactions(p)
        assert len(data) == 2

    def test_short_line_raises_with_line_number(self, tmp_path):
        p = write_log(tmp_path, "u i\nlonely\n")
        with pytest.raises(ParseError, match="line 2"):
            load_interactions(p)

    def test_empty_file_raises(self, tmp_path):
        p = write_log(tmp_path, "# nothing here\n")
        with pytest.raises(DataError):
            load_interactions(p)


class TestMakeFolds:
    def test_folds_partition_the_pairs(self):
        data = random_interactions(20, 30, density=0.2, seed=0)
        folds = make_folds(data, k=5, seed=42)
        total = len(data)
        rows = set(map(tuple, data.pairs))
        seen = []
        for f in folds:
            assert len(f.train) + len(f.test) == total
            seen.extend(map(tuple, f.test.pairs))
            train_rows = set(map(tuple, f.train.pairs))
            test_rows = set(map(tuple, f.test.pairs))
            assert not train_rows & test_rows
            assert train_rows | test_rows == rows
        assert len(seen) == total
        assert set(seen) == rows

    def test_test_sizes_differ_by_at_most_one(self):
        data = random_interactions(13, 17, density=0.3, seed=1)
        folds = make_folds(data, k=5, seed=3)
        sizes = [len(f.test) for f in folds]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == len(data)

    def test_deterministic_in_seed(self):
        data = random_interactions(10, 10, density=0.4, seed=2)
        a = make_folds(data, k=3, seed=11)
        b = make_folds(data, k=3, seed=11)
        c = make_folds(data, k=3, seed=12)
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa.test.pairs, fb.test.pairs)
        assert any(
            not np.array_equal(fa.test.pairs, fc.test.pairs)
            for fa, fc in zip(a, c)
        )

    def test_views_share_index_space(self):
        data = random_interactions(10, 10, density=0.4, seed=2)
        folds = make_folds(data, k=4, seed=0)
        for f in folds:
            assert f.train.num_users == data.num_users
            assert f.train.num_items == data.num_items
            assert f.train.user_map is data.user_map

    def test_bad_k(self):
        data = random_interactions(5, 5, density=0.5, seed=0)
        with pytest.raises(ValueError):
            make_folds(data, k=1, seed=0)
        with pytest.raises(ValueError):
            make_folds(data, k=len(data) + 1, seed=0)

    def test_manifest_shape(self):
        data = random_interactions(10, 10, density=0.4, seed=2)
        folds = make_folds(data, k=5, seed=9)
        man = fold_manifest(folds, seed=9)
        assert man["seed"] == 9
        assert man["num_folds"] == 5
        assert len(man["folds"]) == 5
        assert all(
            f["train_pairs"] + f["test_pairs"] == len(data) for f in man["folds"]
        )


class TestSampleNegatives:
    def test_negatives_avoid_train_items(self):
        data = make_interactions(2, 6, [(0, 0), (0, 2), (0, 4), (1, 1)])
        R = build_interaction_matrix(data)
        rng = np.random.default_rng(0)
        neg = sample_negatives(R, [0, 1, 0], count=200, rng=rng)
        assert set(np.unique(neg[[0, 2]])) <= {1, 3, 5}
        assert 1 not in set(np.unique(neg[1]))

    def test_covers_the_complement(self):
        data = make_interactions(1, 8, [(0, 0), (0, 1)])
        R = build_interaction_matrix(data)
        rng = np.random.default_rng(1)
        neg = sample_negatives(R, [0], count=500, rng=rng)
        assert set(np.unique(neg)) == {2, 3, 4, 5, 6, 7}

    def test_user_with_no_train_items(self):
        data = make_interactions(2, 4, [(0, 0)])
        R = build_interaction_matrix(data)
        rng = np.random.default_rng(2)
        neg = sample_negatives(R, [1], count=100, rng=rng)
        assert set(np.unique(neg)) == {0, 1, 2, 3}

    def test_saturated_user_raises(self):
        data = make_interactions(2, 3, [(0, 0), (0, 1), (0, 2), (1, 0)])
        R = build_interaction_matrix(data)
        rng = np.random.default_rng(3)
        with pytest.raises(DataError):
            sample_negatives(R, [1, 0], count=1, rng=rng)

    def test_shape_is_users_by_count(self):
        data = random_interactions(5, 9, density=0.3, seed=4)
        R = build_interaction_matrix(data)
        rng = np.random.default_rng(4)
        assert sample_negatives(R, [3, 0, 3, 1], 5, rng).shape == (4, 5)
        assert sample_negatives(R, [], 2, rng).shape == (0, 2)

    def test_uniform_over_non_train_items(self):
        # user 0 holds 20 of 30 items, so most first draws are rejected;
        # the redraws must stay uniform over the 10 items left
        held = np.arange(0, 30, 3).tolist() + np.arange(1, 30, 3).tolist()
        data = make_interactions(2, 30, [(0, i) for i in held] + [(1, 0)])
        R = build_interaction_matrix(data)
        rng = np.random.default_rng(5)
        neg = sample_negatives(R, [0] * 500, count=20, rng=rng)
        free = np.setdiff1d(np.arange(30), held)
        counts = np.array([(neg == i).sum() for i in free])
        assert counts.sum() == neg.size
        expected = neg.size / len(free)
        stat = float(((counts - expected) ** 2 / expected).sum())
        # upper 0.1% point of chi-square with len(free) - 1 = 9 dof
        assert stat < chi2.ppf(0.999, len(free) - 1)
