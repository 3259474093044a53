"""Train on a synthetic dataset and watch the objective fall.

Users are grouped into taste clusters over disjoint item blocks, so a
working model should rank within-cluster items above the rest.
"""

import numpy as np

from gclrec.dataset import InteractionSet, make_folds
from gclrec.trainer import TrainConfig, fit

rng = np.random.default_rng(42)
num_users, num_items, clusters = 40, 50, 4
block = num_items // clusters
rows = []
for u in range(num_users):
    c = u % clusters
    picks = rng.choice(block, size=6, replace=False) + c * block
    rows.extend((u, int(i)) for i in picks)
pairs = np.array(sorted(set(rows)), dtype=np.int64)
data = InteractionSet(num_users, num_items, pairs)
print(f"{num_users} users in {clusters} clusters, {len(pairs)} interactions")

cfg = TrainConfig()
cfg.d = 16
cfg.h = 16
cfg.L = 2
cfg.gamma = 2.0
cfg.learning_rate = 0.01
cfg.batch_size = 64
cfg.epochs_max = 40
cfg.eval_interval = 5
cfg.folds = 4
cfg.validate()

fold = make_folds(data, cfg.folds, cfg.seed)[0]

def on_epoch(epoch, report, metrics, row, params, ctx):
    if metrics is not None:
        print(f"epoch {epoch:3d}  total {report.total:.4f}  "
              f"recall@20 {metrics.recall:.3f}  ndcg@20 {metrics.ndcg:.3f}")

result = fit(cfg, fold, on_epoch=on_epoch)
best = result.best_metrics
print(f"\nbest epoch {result.best_epoch}")
for k in (5, 10, 20):
    m = best[k]
    print(f"  @{k}: precision {m.precision:.3f}  recall {m.recall:.3f}  "
          f"ndcg {m.ndcg:.3f}")
