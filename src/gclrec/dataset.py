"""Interaction-log ingestion, k-fold splitting, and negative sampling.

Raw logs are UTF-8 text files (a leading byte-order mark is dropped)
with one interaction per line: a user token, an item token, and
optionally further columns (ratings, timestamps) which are ignored --
every logged interaction counts as positive implicit feedback.  Tokens
become indices in first-appearance order; the tokens themselves are not
kept.
"""

from array import array
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "DataError",
    "ParseError",
    "InteractionSet",
    "FoldSplit",
    "text_lines",
    "load_interactions",
    "make_folds",
    "sample_negatives",
    "fold_manifest",
]


class DataError(Exception):
    """Unreadable, empty, or otherwise unusable interaction data."""


class ParseError(DataError):
    """A malformed line in an interaction file."""


@dataclass
class InteractionSet:
    """Deduplicated (user, item) pairs over contiguous index spaces.

    ``pairs`` is an int64 array of shape (P, 2) of indices in
    [0, num_users) and [0, num_items).  Fold views keep the index spaces
    of their parent set, so a view may reference fewer distinct users or
    items than it counts.
    """

    num_users: int
    num_items: int
    pairs: np.ndarray

    def __len__(self):
        return len(self.pairs)

    def view(self, mask):
        """A subset sharing this set's index spaces."""
        return replace(self, pairs=self.pairs[mask])


@dataclass
class FoldSplit:
    """One cross-validation fold: disjoint train/test views of the parent set."""

    fold_index: int
    train: InteractionSet
    test: InteractionSet


def text_lines(path):
    """Yield (line number, stripped line) for each line of a UTF-8 text
    file, skipping blank lines and lines starting with ``#``; a leading
    byte-order mark is not part of the first line.  Raises
    :class:`DataError` naming the file when it is not UTF-8 text."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if line and line[0] != "#":
                    yield lineno, line
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def load_interactions(path):
    """Read an interaction log into an :class:`InteractionSet`.

    Lines are read through :func:`text_lines` and split on whitespace or
    commas; the first two fields are the raw user and item tokens,
    anything after is ignored.  Duplicate (user, item) pairs collapse to
    one; indices are assigned in first-appearance order.  Duplicates are
    dropped by one ``np.unique`` over the keys ``user * num_items +
    item``, which needs ``num_users * num_items < 2**63``; the first
    occurrence of each key is kept, in file order.

    Raises :class:`ParseError` for a line with fewer than two fields or
    an empty user or item field (a leading separator would otherwise
    shift the columns), and :class:`DataError` when the file is not UTF-8
    text or no interactions remain.
    """
    user_index, item_index = {}, {}
    users, items = array("q"), array("q")
    for lineno, line in text_lines(path):
        fields = line.replace(",", " ").split(None, 2)
        if len(fields) < 2 or line[0] == ",":
            # a stripped line that does not start with a comma starts
            # with its first field, so what follows a lone field is
            # separators, which leave the item field empty
            if line[0] == ",":
                problem = "empty user field"
            elif len(line) > len(fields[0]):
                problem = "empty item field"
            else:
                problem = "expected at least 2 fields, got 1"
            raise ParseError(f"{path}: line {lineno}: {problem}")
        users.append(user_index.setdefault(fields[0], len(user_index)))
        items.append(item_index.setdefault(fields[1], len(item_index)))
    if not users:
        raise DataError(f"{path}: no interactions found")
    u = np.frombuffer(users, dtype=np.int64)
    i = np.frombuffer(items, dtype=np.int64)
    _, first = np.unique(u * len(item_index) + i, return_index=True)
    first.sort()
    return InteractionSet(
        num_users=len(user_index),
        num_items=len(item_index),
        pairs=np.column_stack([u[first], i[first]]),
    )


def make_folds(data, k, seed):
    """Split ``data`` into ``k`` folds for cross-validation.

    The pair list is shuffled by a generator seeded with ``seed`` and dealt
    round-robin into k test buckets, so the k test sets partition the data
    and differ in size by at most one pair.  Deterministic in (data, k, seed).
    """
    n_pairs = len(data.pairs)
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if n_pairs == 0:
        raise DataError("cannot split an empty interaction set")
    if k > n_pairs:
        raise ValueError(f"k={k} exceeds the number of pairs ({n_pairs})")
    order = np.random.default_rng(seed).permutation(n_pairs)
    bucket = np.empty(n_pairs, dtype=np.int64)
    bucket[order] = np.arange(n_pairs) % k
    folds = []
    for f in range(k):
        is_test = bucket == f
        folds.append(FoldSplit(
            fold_index=f,
            train=data.view(~is_test),
            test=data.view(is_test),
        ))
    return folds


def sample_negatives(R, users, rng):
    """Draw one item per user that the user has no entry for in the
    binary train matrix ``R`` (canonical CSR, users x items).

    Returns a 1-D array aligned with ``users``.  Each draw is uniform over
    the complement of the user's train items: rejected draws are redrawn,
    all at once, until none falls on a train item.  Raises
    :class:`DataError` when a user has interacted with every item.
    """
    users = np.asarray(users, dtype=np.int64)
    num_items = R.shape[1]
    if np.any(np.diff(R.indptr)[users] >= num_items):
        raise DataError(f"a user has interacted with all {num_items} items; "
                        "no negatives exist")
    out = rng.integers(0, num_items, size=len(users))
    todo = np.arange(len(users))
    while todo.size:
        held = np.asarray(R[users[todo], out[todo]]).ravel() != 0
        todo = todo[held]
        out[todo] = rng.integers(0, num_items, size=todo.size)
    return out


def fold_manifest(folds, seed):
    """JSON-serializable summary of a fold split."""
    return {
        "seed": int(seed),
        "num_folds": len(folds),
        "folds": [
            {
                "fold_index": f.fold_index,
                "train_pairs": int(len(f.train)),
                "test_pairs": int(len(f.test)),
            }
            for f in folds
        ],
    }
