"""Exercise the reverse-mode tape and its finite-difference validator.

First a hand-built scalar function, then the full joint training loss
on a five-user instance, both compared against central differences.
"""

import numpy as np

import gclrec.diffcore as dc
from gclrec.dataset import InteractionSet
from gclrec.model import init_params
from gclrec.trainer import TrainConfig, _batch_loss, build_context

# --- a small composite function -----------------------------------

def f(point):
    tape = dc.Tape()
    x = tape.leaf(point["x"], "x")
    w = tape.leaf(point["w"], "w")
    y = dc.rownorm(dc.gelu(dc.matmul(x, w)))
    loss = dc.reduce_mean(dc.square(y))
    return loss.value[0, 0], dc.backward(loss)

rng = np.random.default_rng(0)
point = {"x": rng.standard_normal((5, 3)), "w": rng.standard_normal((3, 4))}
err = dc.check_gradients(f, point)
print(f"composite function: max relative error {err:.2e}")

# --- the full training objective -----------------------------------

rows = []
for u in range(5):
    for i in rng.choice(6, size=3, replace=False):
        rows.append((u, int(i)))
pairs = np.array(sorted(set(rows)), dtype=np.int64)
data = InteractionSet(5, 6, pairs)

cfg = TrainConfig()
cfg.d, cfg.h, cfg.L, cfg.gamma, cfg.batch_size = 4, 4, 2, 1.0, 64
cfg.validate()
ctx = build_context(data, cfg)
params = init_params(5, 6, cfg.d, cfg.h, seed=3)

users, pos = pairs[:, 0].copy(), pairs[:, 1].copy()
neg = (pos + 1) % 6

# a fresh rng per evaluation draws the same epsilon every time; otherwise
# finite differences compare different samples
def joint(point):
    probe = params.copy()
    table = probe.param_arrays()
    for name, arr in point.items():
        table[name][...] = arr
    _, total, grads = _batch_loss(probe, ctx, cfg, np.random.default_rng(0),
                                  users, pos, neg)
    return total.value[0, 0], grads

point = {k: v.copy() for k, v in params.param_arrays().items()}
value, _ = joint(point)
err = dc.check_gradients(joint, point)
print(f"joint loss {value:.4f}: max relative error {err:.2e} "
      f"over {sum(v.size for v in point.values())} parameters")
