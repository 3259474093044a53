"""Seeded synthetic interaction logs for the benchmark.

The full size matches the CiaoDVD dataset the paper evaluates on
(17,615 users x 16,121 items, about 70.6k distinct pairs); the toy size
runs every workload in a second or two for the benchmark's own tests.
Only those three counts come from CiaoDVD.  User activity and item
popularity follow power laws whose exponents (USER_EXPONENT,
ITEM_EXPONENT) are assumed, not fitted to CiaoDVD's degree
distributions: they set the complement graph's size, the per-user list
lengths behind negative sampling and train-item masking, and so each
layer's share of a step.  Fit them, or read the real ratings file
instead, once that file is in the repository.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Size:
    users: int
    items: int
    pairs: int
    batch_size: int
    check_users: int


SIZES = {
    "full": Size(users=17615, items=16121, pairs=70600, batch_size=2048,
                 check_users=256),
    "toy": Size(users=300, items=240, pairs=2400, batch_size=256,
                check_users=64),
}

# unverified assumptions, see the module docstring
USER_EXPONENT = 0.6
ITEM_EXPONENT = 0.85


def _zipf_weights(count, exponent, rng):
    """Power-law weights over a seeded random ordering of ``count`` ids."""
    w = np.arange(1, count + 1, dtype=np.float64) ** -exponent
    return rng.permutation(w) / w.sum()


def generate_pairs(size, seed):
    """Distinct (user, item) index pairs, every user and item at least once.

    Deterministic in (size, seed).  Rows come back in a seeded shuffled
    order, so index assignment on load is not simply sorted.
    """
    rng = np.random.default_rng(seed)
    m, n = size.users, size.items
    user_w = _zipf_weights(m, USER_EXPONENT, rng)
    item_w = _zipf_weights(n, ITEM_EXPONENT, rng)
    # one pair per user and one per item first, so both index spaces are full
    item_of_user = rng.choice(n, m, p=item_w)
    user_of_item = rng.choice(m, n, p=user_w)
    keys = np.union1d(np.arange(m) * n + item_of_user,
                      user_of_item * n + np.arange(n))
    while len(keys) < size.pairs:
        draw = 2 * (size.pairs - len(keys))
        extra = rng.choice(m, draw, p=user_w) * n + rng.choice(n, draw, p=item_w)
        extra = np.setdiff1d(extra, keys)
        extra = rng.permutation(extra)[:size.pairs - len(keys)]
        keys = np.union1d(keys, extra)
    keys = rng.permutation(keys)
    return np.column_stack([keys // n, keys % n]).astype(np.int64)


def write_log(pairs, path):
    """One ``user item`` line per pair, the format load_interactions reads."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"u{u} i{i}\n" for u, i in pairs.tolist())
