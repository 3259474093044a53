"""Spans around the calls into each gclrec module, recorded from outside.

Wrappers are installed at the names callers resolve at call time:
``trainer`` imported ``encode``, ``rank_topk`` and friends by name, so
those are wrapped inside ``gclrec.trainer``; ``model``, ``losses`` and
``trainer`` call ``dc.*`` and ``ls.*`` through the module, so those are
wrapped in ``gclrec.diffcore`` and ``gclrec.losses``.  Wrapped diffcore
primitives time only their forward pass: the backward closures they
return run inside ``diffcore.backward``.
"""

import json
import statistics
import time
from collections import defaultdict

from gclrec import dataset, diffcore, losses, model, trainer

# (module, attribute, span name); several attributes may share a name
WRAPPED = (
    (dataset, "load_interactions", "dataset.load_interactions"),
    (dataset, "make_folds", "dataset.make_folds"),
    (trainer, "build_graph", "graphs.build_graph"),
    (trainer, "build_context", "trainer.build_context"),
    (model, "init_params", "model.init_params"),
    (trainer, "train_epoch", "trainer.train_epoch"),
    (trainer, "adam_step", "trainer.adam_step"),
    (trainer, "evaluate_model", "trainer.evaluate_model"),
    (trainer, "eval_embeddings", "trainer.eval_embeddings"),
    (trainer, "encode", "model.encode"),
    (trainer, "reconstruct", "model.reconstruct"),
    (model, "generate_noise", "model.generate_noise"),
    (model, "propagate", "model.propagate"),
    (diffcore, "backward", "diffcore.backward"),
    (diffcore, "matmul", "diffcore.matmul"),
    (diffcore, "gelu", "diffcore.gelu"),
    (diffcore, "rownorm", "diffcore.rownorm"),
    (diffcore, "spmm", "diffcore.spmm"),
    (diffcore, "gather", "diffcore.gather"),
    (diffcore, "row_slice", "diffcore.slice"),
    (diffcore, "col_slice", "diffcore.slice"),
    (losses, "multi_pair_cl", "losses.cl"),
    (losses, "bpr_loss", "losses.bpr"),
    (losses, "l2_reg", "losses.reg"),
    (losses, "kl_loss", "losses.kl"),
    (losses, "recon_loss", "losses.recon"),
    (trainer, "rank_topk", "metrics.rank_topk"),
    (trainer, "topk_metrics", "metrics.topk_metrics"),
)

# per-layer metric -> (span name, self time instead of inclusive time)
SETUP_TIMES = {
    "dataset.load_interactions_s": ("dataset.load_interactions", False),
    "dataset.make_folds_s": ("dataset.make_folds", False),
    "graphs.build_graph_s": ("graphs.build_graph", False),
    "trainer.build_context_self_s": ("trainer.build_context", True),
    "model.init_params_s": ("model.init_params", False),
}
OP_TIMES = {
    "trainer.train_epoch_self_s": ("trainer.train_epoch", True),
    "trainer.adam_step_s": ("trainer.adam_step", False),
    "trainer.evaluate_model_self_s": ("trainer.evaluate_model", True),
    "trainer.eval_embeddings_s": ("trainer.eval_embeddings", False),
    "model.encode_self_s": ("model.encode", True),
    "model.generate_noise_s": ("model.generate_noise", False),
    "model.propagate_s": ("model.propagate", False),
    "model.reconstruct_s": ("model.reconstruct", False),
    "diffcore.backward_s": ("diffcore.backward", False),
    "diffcore.matmul_s": ("diffcore.matmul", False),
    "diffcore.gelu_s": ("diffcore.gelu", False),
    "diffcore.rownorm_s": ("diffcore.rownorm", False),
    "diffcore.spmm_s": ("diffcore.spmm", False),
    "diffcore.gather_s": ("diffcore.gather", False),
    "diffcore.slice_s": ("diffcore.slice", False),
    "losses.cl_s": ("losses.cl", False),
    "losses.bpr_s": ("losses.bpr", False),
    "losses.reg_s": ("losses.reg", False),
    "losses.kl_s": ("losses.kl", False),
    "losses.recon_s": ("losses.recon", False),
    "metrics.rank_topk_s": ("metrics.rank_topk", False),
    "metrics.topk_metrics_s": ("metrics.topk_metrics", False),
}
# per-layer metric -> (span name, count attached to its spans, or calls)
SETUP_COUNTS = {
    "graphs.ui_nnz": ("graphs.build_graph", "ui_nnz"),
    "graphs.comp_nnz": ("graphs.build_graph", "comp_nnz"),
}
OP_COUNTS = {
    "diffcore.tape_nodes": ("diffcore.backward", "nodes"),
    "diffcore.tape_bytes": ("diffcore.backward", "bytes"),
    "metrics.users_ranked": ("metrics.rank_topk", "users"),
    "model.generate_noise_calls": ("model.generate_noise", "calls"),
}


def _tape_size(loss, *_args, **_kwargs):
    # counted before the sweep, which retires node values as it goes
    nodes = loss.tape.nodes
    return {"nodes": len(nodes),
            "bytes": sum(n.value.nbytes for n in nodes if n.value is not None)}


def _users_ranked(z_u, _z_i, _train_items, _k, users=None, **_kwargs):
    return {"users": len(z_u) if users is None else len(users)}


def _graph_nnz(graph):
    return {"ui_nnz": int(graph.ui.nnz),
            "comp_nnz": 0 if graph.comp is None else int(graph.comp.nnz)}


UNITS = {metric: "s" for metric in (*SETUP_TIMES, *OP_TIMES, "trace.op_s_p50",
                                    "trace.overhead_s")}
UNITS.update({metric: "count" for metric in (*SETUP_COUNTS, *OP_COUNTS)})
UNITS["diffcore.tape_bytes"] = "B"

BEFORE = {"diffcore.backward": _tape_size, "metrics.rank_topk": _users_ranked}
AFTER = {"graphs.build_graph": _graph_nnz}


class Recorder:
    """In-memory span list: (name, start, end, parent, run id, counts).

    Start and end are process CPU times, the clock the benchmark's
    end-to-end timings use.
    ``parent`` is the index of the enclosing span or -1; every span of
    one setup or operation shares the run id of its root span.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def _enter(self, name, run_id=None):
        parent = self._stack[-1] if self._stack else -1
        if run_id is None:
            run_id = self.spans[parent][4] if parent >= 0 else ""
        self.spans.append([name, time.process_time(), None, parent, run_id, None])
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def _exit(self, span):
        span[2] = time.process_time()
        self._stack.pop()

    def root(self, name, run_id, fn):
        """Run ``fn()`` inside a root span with a fresh run id."""
        span = self._enter(name, run_id)
        try:
            return fn()
        finally:
            self._exit(span)

    def install(self):
        for module, attr, name in WRAPPED:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name):
        before, after = BEFORE.get(name), AFTER.get(name)

        def wrapper(*args, **kwargs):
            extra = None if before is None else before(*args, **kwargs)
            span = self._enter(name)
            span[5] = extra
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span)
            if after is not None:
                span[5] = after(result)
            return result

        return wrapper

    def summarize(self, root_name, times, counts):
        """Per-layer values over the root spans named ``root_name``.

        A time is each root's total over the spans of one name (inclusive,
        or self time: duration minus the time its child spans cover),
        taken as the median over roots.  A count is summed within the
        first root, whose inputs are the same in every run.
        """
        child_time = defaultdict(float)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = defaultdict(lambda: defaultdict(float))
        for idx, (name, start, end, _, run_id, extra) in enumerate(self.spans):
            t = totals[run_id]
            t[(name, False)] += end - start
            t[(name, True)] += end - start - child_time[idx]
            t[(name, "calls")] += 1
            for key, value in (extra or {}).items():
                t[(name, key)] += value
        roots = [s[4] for s in self.spans if s[0] == root_name and s[3] == -1]
        out = {metric: statistics.median(totals[r][key] for r in roots)
               for metric, key in times.items()}
        out.update({metric: int(totals[roots[0]][key])
                    for metric, key in counts.items()})
        return out

    def write(self, path):
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run_id, extra in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run_id,
                                     "counts": extra}) + "\n")
