"""Ranking, checkpointing, and embedding-geometry diagnostics.

Trains briefly, saves and reloads a checkpoint, ranks items for one
user, and prints the alignment/uniformity trajectory of the embedding
space across epochs.
"""

import tempfile
from pathlib import Path

import numpy as np

from gclrec.dataset import InteractionSet, make_folds
from gclrec.metrics import alignment_uniformity, rank_topk
from gclrec.model import load_checkpoint, save_checkpoint
from gclrec.trainer import (TrainConfig, build_context, eval_embeddings,
                            evaluate_model, fit)

rng = np.random.default_rng(1)
rows = []
for u in range(30):
    for i in rng.choice(40, size=5, replace=False):
        rows.append((u, int(i)))
pairs = np.array(sorted(set(rows)), dtype=np.int64)
data = InteractionSet(30, 40, pairs)

cfg = TrainConfig()
cfg.d = 8
cfg.h = 8
cfg.L = 2
cfg.gamma = 1.0
cfg.batch_size = 32
cfg.epochs_max = 15
cfg.eval_interval = 5
cfg.folds = 3
cfg.validate()
fold = make_folds(data, cfg.folds, cfg.seed)[0]

print("alignment / uniformity per epoch:")

def on_epoch(epoch, report, metrics, row, params, ctx):
    if epoch % 3 == 1:
        z_u, z_i = eval_embeddings(params, ctx, cfg)
        align, uniform = alignment_uniformity(z_u, z_i, ctx.train.pairs)
        print(f"  epoch {epoch:>2}: align {align:.4f}  uniform {uniform:.4f}")

result = fit(cfg, fold, on_epoch=on_epoch)

# checkpoints round-trip bit-exactly
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "model.npz"
    save_checkpoint(result.params, path, seed=cfg.seed)
    reloaded, seed = load_checkpoint(path)
    same = np.array_equal(reloaded.base_embedding,
                          result.params.base_embedding)
    print(f"\ncheckpoint round-trip exact: {same} (seed {seed})")

ctx = build_context(fold.train, cfg)
z_u, z_i = eval_embeddings(result.params, ctx, cfg)
top = rank_topk(z_u, z_i, ctx.R, k=5, users=[0])
print(f"user 0 trains on {ctx.R[0].indices.tolist()}, "
      f"top-5 recommendations: {top[0].tolist()}")

metrics = evaluate_model(result.params, ctx, fold.test, cfg)
m = metrics[20]
print(f"test recall@20 {m.recall:.3f} over {m.users_evaluated} users "
      f"({m.users_skipped} skipped)")

align, uniform = alignment_uniformity(z_u, z_i, fold.train.pairs)
print(f"final geometry: align {align:.4f}, uniform {uniform:.4f}")
