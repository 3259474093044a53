import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from gclrec.dataset import InteractionSet

# one line per acceptance criterion, shown in the terminal summary
ACCEPTANCE_LINES = []


def record_acceptance(number, description, status):
    ACCEPTANCE_LINES.append(f"criterion {number:2d}: {status:4s} - {description}")


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(line)


def make_interactions(num_users, num_items, pairs):
    """Build an InteractionSet directly from index pairs."""
    arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    return InteractionSet(
        num_users=num_users,
        num_items=num_items,
        pairs=arr,
        user_map={str(u): u for u in range(num_users)},
        item_map={str(i): i for i in range(num_items)},
    )


def train_matrix(item_lists, num_items):
    """Binary users x items CSR whose row u stores the items item_lists[u]."""
    counts = [len(items) for items in item_lists]
    rows = np.repeat(np.arange(len(item_lists)), counts)
    cols = np.concatenate([np.asarray(items, dtype=np.int64)
                           for items in item_lists])
    return sp.csr_matrix((np.ones(len(cols)), (rows, cols)),
                         shape=(len(item_lists), num_items))


def padded(item_lists, width):
    """int64 array whose row u holds item_lists[u] followed by -1s."""
    out = np.full((len(item_lists), width), -1, np.int64)
    for row, items in zip(out, item_lists):
        row[:len(items)] = items
    return out


def traced_peak(fn, *args, **kwargs):
    """fn's result and the most bytes it held at once above what was
    allocated when it was called, numpy's arrays included."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def random_interactions(num_users, num_items, density, seed, min_per_user=1):
    """Random binary interaction structure with at least min_per_user items
    per user, so every user is rankable."""
    rng = np.random.default_rng(seed)
    mask = rng.random((num_users, num_items)) < density
    for u in range(num_users):
        while mask[u].sum() < min_per_user:
            mask[u, rng.integers(num_items)] = True
    users, items = np.nonzero(mask)
    return make_interactions(num_users, num_items, np.column_stack([users, items]))


@pytest.fixture
def toy_interactions():
    # 4 users x 5 items, hand-picked so the complement matrix at gamma=2
    # keeps some co-occurrence pairs and drops others.
    pairs = [
        (0, 0), (0, 1), (0, 2),
        (1, 0), (1, 1), (1, 3),
        (2, 0), (2, 1), (2, 4),
        (3, 2), (3, 3),
    ]
    return make_interactions(4, 5, pairs)


@pytest.fixture
def small_random():
    return random_interactions(30, 40, density=0.12, seed=7, min_per_user=2)
