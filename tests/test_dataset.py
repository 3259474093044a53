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
from oracles import load_interactions_reference


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
        assert (data.num_users, data.num_items) == (2, 2)
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

    @pytest.mark.parametrize("line, field", [(",u1,i1", "user"),
                                             ("u1,", "item")])
    def test_empty_field_raises_with_line_number(self, tmp_path, line,
                                                 field):
        p = write_log(tmp_path, f"u i\n{line}\n")
        with pytest.raises(ParseError, match=f"line 2: empty {field}"):
            load_interactions(p)

    def test_empty_file_raises(self, tmp_path):
        p = write_log(tmp_path, "# nothing here\n")
        with pytest.raises(DataError):
            load_interactions(p)

    def test_byte_order_mark_is_not_part_of_a_token(self, tmp_path):
        text = "u1 i1\nu1 i2\nu2 i1\n"
        plain = load_interactions(write_log(tmp_path, text))
        marked = load_interactions(write_log(tmp_path, "\ufeff" + text,
                                             name="bom.txt"))
        assert (marked.num_users, marked.num_items) == (2, 2)
        assert_same_set(marked, plain)


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
        users = np.tile([0, 1, 0], 200)
        neg = sample_negatives(R, users, rng=rng)
        assert set(np.unique(neg[users == 0])) <= {1, 3, 5}
        assert 1 not in set(np.unique(neg[users == 1]))

    def test_covers_the_complement(self):
        data = make_interactions(1, 8, [(0, 0), (0, 1)])
        R = build_interaction_matrix(data)
        rng = np.random.default_rng(1)
        neg = sample_negatives(R, [0] * 500, rng=rng)
        assert set(np.unique(neg)) == {2, 3, 4, 5, 6, 7}

    def test_user_with_no_train_items(self):
        data = make_interactions(2, 4, [(0, 0)])
        R = build_interaction_matrix(data)
        rng = np.random.default_rng(2)
        neg = sample_negatives(R, [1] * 100, rng=rng)
        assert set(np.unique(neg)) == {0, 1, 2, 3}

    def test_saturated_user_raises(self):
        data = make_interactions(2, 3, [(0, 0), (0, 1), (0, 2), (1, 0)])
        R = build_interaction_matrix(data)
        rng = np.random.default_rng(3)
        with pytest.raises(DataError):
            sample_negatives(R, [1, 0], rng=rng)

    def test_one_negative_per_user(self):
        data = random_interactions(5, 9, density=0.3, seed=4)
        R = build_interaction_matrix(data)
        rng = np.random.default_rng(4)
        assert sample_negatives(R, [3, 0, 3, 1], rng).shape == (4,)
        assert sample_negatives(R, [], rng).shape == (0,)

    def test_uniform_over_non_train_items(self):
        # user 0 holds 20 of 30 items, so most first draws are rejected;
        # the redraws must stay uniform over the 10 items left
        held = np.arange(0, 30, 3).tolist() + np.arange(1, 30, 3).tolist()
        data = make_interactions(2, 30, [(0, i) for i in held] + [(1, 0)])
        R = build_interaction_matrix(data)
        rng = np.random.default_rng(5)
        neg = sample_negatives(R, [0] * 10000, rng=rng)
        free = np.setdiff1d(np.arange(30), held)
        counts = np.array([(neg == i).sum() for i in free])
        assert counts.sum() == neg.size
        expected = neg.size / len(free)
        stat = float(((counts - expected) ** 2 / expected).sum())
        # upper 0.1% point of chi-square with len(free) - 1 = 9 dof
        assert stat < chi2.ppf(0.999, len(free) - 1)


# every character ``\s`` matches, the same set as ``str.isspace``; line
# feed and carriage return end a line, so only the others go inside one
SPACES = [c for c in map(chr, range(0x3001)) if c.isspace()]
INLINE_SPACES = [c for c in SPACES if c not in "\n\r"]
LINE_ENDS = ["\n", "\r\n", "\r"]


def random_log_lines(rng, lines):
    """Lines of a log, each with its line end, mixing commas, every
    whitespace character, the three line ends, comments, blank lines,
    duplicate pairs and extra columns."""
    def pick(seq):
        return seq[int(rng.integers(len(seq)))]

    def sep():
        parts = [pick([",", "\t", pick(INLINE_SPACES)])
                 for _ in range(int(rng.integers(1, 4)))]
        return "".join(parts)

    def blank():
        return "".join(pick(INLINE_SPACES)
                       for _ in range(int(rng.integers(0, 3))))

    users = [f"u{k}" for k in range(8)] + ["ü", "u#1", "9"]
    items = [f"i{k}" for k in range(10)] + ["#i", "ī", "7"]
    out = []
    for _ in range(lines):
        kind = rng.random()
        if kind < 0.08:
            out.append(blank())
        elif kind < 0.15:
            out.append(blank() + "#" + pick(users) + sep() + pick(items))
        else:
            fields = [pick(users), pick(items)]
            fields += [str(int(rng.integers(100)))
                       for _ in range(int(rng.integers(0, 4)))]
            line = sep().join(fields)
            if rng.random() < 0.3:
                line = blank() + line
            if rng.random() < 0.3:
                line += pick([sep(), blank()])
            out.append(line)
        out[-1] += pick(LINE_ENDS)
    return out


def assert_same_set(got, want):
    np.testing.assert_array_equal(got.pairs, want.pairs)
    assert got.pairs.dtype == want.pairs.dtype
    assert (got.num_users, got.num_items) == (want.num_users,
                                              want.num_items)


def raised(fn, path):
    with pytest.raises(DataError) as info:
        fn(path)
    return type(info.value), str(info.value)


class TestLoaderMatchesReference:
    """The streaming loader against the regex-per-line reference."""

    def test_random_logs(self, tmp_path):
        rng = np.random.default_rng(19)
        p = tmp_path / "log.txt"
        for _ in range(60):
            lines = random_log_lines(rng, int(rng.integers(1, 120)))
            p.write_bytes("".join(lines).encode("utf-8"))
            try:
                want = load_interactions_reference(p)
            except DataError:
                assert raised(load_interactions, p) == raised(
                    load_interactions_reference, p)
                continue
            assert_same_set(load_interactions(p), want)

    def test_every_space_separates_fields(self, tmp_path):
        p = tmp_path / "log.txt"
        text = "".join(f"u{k}{c}i{k}{c}5\n" for k, c in
                       enumerate(INLINE_SPACES))
        p.write_bytes(text.encode("utf-8"))
        data = load_interactions(p)
        assert len(data) == len(INLINE_SPACES) == 27
        assert_same_set(data, load_interactions_reference(p))

    def test_ciaodvd_layout(self, tmp_path):
        # userID,movieID,genreID,reviewID,rating,date
        rng = np.random.default_rng(23)
        rows = [f"{rng.integers(1, 60)},{rng.integers(1, 90)},"
                f"{rng.integers(1, 18)},{k},{rng.integers(1, 6)},"
                f"2011-0{rng.integers(1, 10)}-1{rng.integers(0, 10)}"
                for k in range(1, 2000)]
        p = tmp_path / "ratings.txt"
        p.write_bytes(("\r\n".join(rows) + "\r\n").encode("utf-8"))
        data = load_interactions(p)
        assert len(data) < len(rows)  # the log repeats some pairs
        assert_same_set(data, load_interactions_reference(p))

    @pytest.mark.parametrize("bad", [",u i", "u,", ",", "lonely", " ,u i",
                                     "\t,", "u ,", "u　, ",
                                     "\x85lonely\x1c"])
    @pytest.mark.parametrize("end", LINE_ENDS, ids=["lf", "crlf", "cr"])
    def test_malformed_lines_raise_alike(self, tmp_path, bad, end):
        rng = np.random.default_rng(len(bad))
        lines = random_log_lines(rng, 30)
        at = int(rng.integers(len(lines) + 1))
        text = "".join(lines[:at]) + bad + end + "".join(lines[at:])
        p = tmp_path / "log.txt"
        p.write_bytes(text.encode("utf-8"))
        got = raised(load_interactions, p)
        assert got[0] is ParseError
        assert got == raised(load_interactions_reference, p)
