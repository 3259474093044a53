import os
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from gclrec.cli import THREAD_VARIABLES
from gclrec.dataset import InteractionSet

SRC = Path(__file__).resolve().parent.parent / "src"

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


def process_env(threads):
    """The environment of a fresh gclrec process: this process's, with
    src/ first on PYTHONPATH and, of the BLAS thread variables, exactly
    ``threads`` (name -> value)."""
    env = {key: value for key, value in os.environ.items()
           if key not in THREAD_VARIABLES}
    env.update(threads)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return env


def train_process(*args):
    """``gclrec train *args`` in a fresh process with one BLAS thread,
    whatever this process's environment sets; asserts that it exits 0."""
    proc = subprocess.run(
        [sys.executable, "-m", "gclrec.cli", "train", *args],
        env=process_env(dict.fromkeys(THREAD_VARIABLES, "1")),
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]


def write_config(path, cfg):
    """Write ``cfg`` to ``path`` as the config file ``--config`` reads,
    one ``key = value`` line per setting."""
    path.write_text("".join(f"{key} = {value}\n"
                            for key, value in cfg.to_strings().items()))


def make_interactions(num_users, num_items, pairs):
    """Build an InteractionSet directly from index pairs."""
    return InteractionSet(num_users, num_items,
                          np.asarray(pairs, dtype=np.int64).reshape(-1, 2))


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


def held(tape):
    """The base numpy arrays ``tape`` keeps alive, by id, each once: the
    bases of its nodes' values and of the arrays their backward closures
    hold, following the functions, tuples and lists a closure holds."""
    found, seen = {}, set()
    todo = [n.value for n in tape.nodes] + [n._backward for n in tape.nodes]
    while todo:
        item = todo.pop()
        if isinstance(item, np.ndarray):
            while isinstance(item.base, np.ndarray):
                item = item.base
            found[id(item)] = item
        elif isinstance(item, (tuple, list)):
            todo.extend(item)
        elif isinstance(item, types.FunctionType) and id(item) not in seen:
            seen.add(id(item))
            todo.extend(cell.cell_contents for cell in item.__closure__ or ())
    return found


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
