"""Interaction-log ingestion, k-fold splitting, and negative sampling.

Raw logs are text files with one interaction per line: a user token, an
item token, and optionally further columns (ratings, timestamps) which are
ignored -- every logged interaction counts as positive implicit feedback.
"""

import re
from array import array
from dataclasses import dataclass, field

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


_FIELD_SEP = re.compile(r"[,\s]+")


@dataclass
class InteractionSet:
    """Deduplicated (user, item) pairs over contiguous index spaces.

    ``pairs`` is an int64 array of shape (P, 2).  ``user_map`` and
    ``item_map`` take raw tokens to indices in [0, num_users) and
    [0, num_items); fold views share the maps of their parent set, so a
    view may reference fewer distinct users/items than the maps cover.
    """

    num_users: int
    num_items: int
    pairs: np.ndarray
    user_map: dict = field(repr=False)
    item_map: dict = field(repr=False)

    def __len__(self):
        return len(self.pairs)

    def view(self, mask):
        """A subset sharing this set's index spaces and maps."""
        return InteractionSet(
            num_users=self.num_users,
            num_items=self.num_items,
            pairs=self.pairs[mask],
            user_map=self.user_map,
            item_map=self.item_map,
        )


@dataclass
class FoldSplit:
    """One cross-validation fold: disjoint train/test views of the parent set."""

    fold_index: int
    train: InteractionSet
    test: InteractionSet


def text_lines(path):
    """Yield (line number, stripped line) for each line of a UTF-8 text
    file, skipping blank lines and lines starting with ``#``.  Raises
    :class:`DataError` naming the file when it is not UTF-8 text."""
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if line and not line.startswith("#"):
                    yield lineno, line
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def _slow_fields(path, lineno, raw):
    """The user and item fields of ``raw`` split on ``_FIELD_SEP``, or
    None for a blank or ``#`` line; raises :class:`ParseError` for a
    malformed line."""
    line = raw.strip()
    if not line or line.startswith("#"):
        return None
    fields = _FIELD_SEP.split(line)
    if len(fields) < 2:
        raise ParseError(f"{path}: line {lineno}: expected at least "
                         f"2 fields, got {len(fields)}")
    raw_u, raw_i = fields[0], fields[1]
    if not (raw_u and raw_i):
        raise ParseError(f"{path}: line {lineno}: empty "
                         f"{'user' if not raw_u else 'item'} field")
    return fields


def load_interactions(path):
    """Read an interaction log into an :class:`InteractionSet`.

    Lines are split on whitespace or commas; the first two fields are the
    raw user and item tokens, anything after is ignored.  Blank lines and
    lines starting with ``#`` are skipped.  Duplicate (user, item) pairs
    collapse to one; indices are assigned in first-appearance order.

    The file is read one line at a time and no per-line token list is
    kept.  A line that starts with its first field and has a second is
    split with ``str.split`` after turning commas into spaces (``\\s``
    and ``str.isspace`` match the same characters); any other line goes
    through ``_FIELD_SEP``, which skips it or raises the
    :class:`ParseError` below.  Duplicates are dropped by one
    ``np.unique`` over the keys ``user * num_items + item``, which needs
    ``num_users * num_items < 2**63``; the first occurrence of each key
    is kept, in file order.

    Raises :class:`ParseError` for a line with fewer than two fields or
    an empty user or item field (a leading separator would otherwise
    shift the columns), and :class:`DataError` when the file is not UTF-8
    text or no interactions remain.
    """
    user_map, item_map = {}, {}
    users, items = array("q"), array("q")
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                fields = raw.replace(",", " ").split(None, 2)
                if len(fields) < 2 or not raw.startswith(fields[0]):
                    fields = _slow_fields(path, lineno, raw)
                    if fields is None:
                        continue
                elif fields[0][0] == "#":
                    continue
                users.append(user_map.setdefault(fields[0], len(user_map)))
                items.append(item_map.setdefault(fields[1], len(item_map)))
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    if not users:
        raise DataError(f"{path}: no interactions found")
    u = np.frombuffer(users, dtype=np.int64)
    i = np.frombuffer(items, dtype=np.int64)
    _, first = np.unique(u * len(item_map) + i, return_index=True)
    first.sort()
    return InteractionSet(
        num_users=len(user_map),
        num_items=len(item_map),
        pairs=np.column_stack([u[first], i[first]]),
        user_map=user_map,
        item_map=item_map,
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
