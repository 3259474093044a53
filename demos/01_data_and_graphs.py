"""Walk through data loading, fold splitting, and graph construction.

Builds a small interaction set inline, then shows the normalized
user-item adjacency and how the item complement matrix reacts to the
co-consumption threshold.
"""

import os
import tempfile

import numpy as np

from gclrec.dataset import load_interactions, make_folds
from gclrec.graphs import build_complement, build_graph, build_interaction_matrix

RAW = """\
# user item
alice  tea
alice  scones
alice  jam
bob    tea
bob    scones
bob    coffee
carol  tea
carol  scones
carol  jam
dave   coffee
dave   jam
"""

with tempfile.NamedTemporaryFile("w", suffix=".txt", delete=False) as fh:
    fh.write(RAW)
    path = fh.name

data = load_interactions(path)
os.remove(path)
print(f"{data.num_users} users x {data.num_items} items, {len(data)} pairs")
# tokens become indices in order of first appearance: alice 0, tea 0, ...
print("first pairs (user, item):", data.pairs[:4].tolist())

folds = make_folds(data, k=3, seed=0)
for fold in folds:
    print(f"fold {fold.fold_index}: {len(fold.train)} train, "
          f"{len(fold.test)} test")

# the complement matrix counts how many users consumed both items,
# drops the diagonal, zeroes entries below gamma, then normalizes;
# every matrix here is a plain scipy CSR matrix
R = build_interaction_matrix(data)
raw_counts = (R.T @ R).toarray()
print("\nraw co-consumption counts:")
print(raw_counts.astype(int))

for gamma in (1.0, 2.0, 3.0):
    C = build_complement(R, gamma)
    kept = int((C.toarray() != 0).sum())
    print(f"gamma={gamma}: {kept} entries survive the filter")

graph = build_graph(data, gamma=2.0)
A = graph.ui.toarray()
print(f"\nnormalized adjacency is {A.shape[0]}x{A.shape[1]}, "
      f"symmetric: {np.allclose(A, A.T)}")
print(f"complement channel empty: {graph.comp.nnz == 0}")
