#!/usr/bin/env python3
"""Per-operation CPU time, page faults and memory of a benchmark workload.

    python3 scripts/step_rusage.py --seed 1 --steps 8
    python3 scripts/step_rusage.py --workload eval-full --seed 1 --steps 5
    python3 scripts/step_rusage.py --workload setup --seed 1 --steps 11
    python3 scripts/step_rusage.py --set ddl=mmd \
        --set noise.distribution=uniform --steps 3

Runs the operations of one of the benchmark's workloads on fold 0 of the
seeded CiaoDVD-scale log with one BLAS thread and the default config,
changed by each ``--set KEY=VALUE`` as ``gclrec train --set`` changes it.
For train-gen, operation j is ``trainer.train_epoch`` over the j-th
fixed batch with the rng stream (seed, 2, j); for eval-full it is one
``trainer.evaluate_model`` at k = 5, 10, 20 with the initial parameters;
for setup it is one set-up from the log file, as the benchmark's
setup_s times it, with each stage called here in turn.
Around each operation it reads getrusage(RUSAGE_SELF) and prints one
JSON line: user and system CPU seconds, minor and major page faults,
the peak RSS so far and the RSS the process holds after the operation.
A train step adds the live heap (glibc ``mallinfo2``: bytes in use in
the arenas plus mmapped blocks; None without it) when its backward
sweep starts, and its highest value over the step, sampled as each tape
node is built and after each node's backward pass, with the node it
was sampled at: its op, its phase and its place in that phase (a
sweep's first node is backward #0).  An evaluation adds the CPU seconds
spent in ``eval_embeddings``, ``rank_topk`` and ``topk_metrics`` and,
for each of these stages, the RSS and the live heap before its first
call, and its highest live heap with the function it was sampled at.
The live heap is sampled as the stage is called and as each Python
function called inside it returns, so an array freed before any such
return is missed.  A profile hook samples it, which adds about 0.09 s
to the 0.55 s of CPU an evaluation takes (seed-1 log, 2-core x86-64
VM), most of it to ``rank_topk``.  Neither ``ru_maxrss``, which keeps
the first evaluation's peak, nor the RSS, which holds the kept heap's
peak between evaluations, shows which stage sets a later evaluation's
peak.  A set-up adds, for each of its stages (``load_interactions``,
``make_folds``, ``build_interaction_matrix``, ``adjacency``: the block
adjacency and its normalization, ``build_complement`` and
``init_params``), the CPU seconds it took and the RSS before and after
it; a set-up wraps nothing.  The train-step and evaluation generators
put back what they wrap when they finish or are closed, so a second run
in one process wraps the originals again.  A last line holds the
medians over the operations after the first.
Nothing here is timed by the benchmark; the script reads the log
generator in ``benchmarks/workload.py`` only to run on the same data.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmarks"))

import ctypes  # noqa: E402

import numpy as np  # noqa: E402
import workload  # noqa: E402
from gclrec import dataset, diffcore, graphs, model, trainer  # noqa: E402

PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2 ** 20


def rss_mb():
    """Resident set size now, from /proc/self/statm (Linux only)."""
    try:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * PAGE_MB
    except OSError:
        return None


class _Mallinfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks",
        "fsmblks", "uordblks", "fordblks", "keepcost")]


def _mallinfo2():
    try:
        fn = ctypes.CDLL(None).mallinfo2
    except (AttributeError, OSError, TypeError):
        return None
    fn.restype = _Mallinfo2
    fn.argtypes = ()
    return fn


MALLINFO2 = _mallinfo2()


def heap_mb():
    """Live heap now: bytes in use in glibc's arenas plus its mmapped
    blocks, or None where the C library has no mallinfo2."""
    if MALLINFO2 is None:
        return None
    info = MALLINFO2()
    return (info.uordblks + info.hblkhd) / 2 ** 20


def usage(before, after):
    """The getrusage and RSS fields of one operation's JSON line."""
    return {"user_s": after.ru_utime - before.ru_utime,
            "system_s": after.ru_stime - before.ru_stime,
            "minor_faults": after.ru_minflt - before.ru_minflt,
            "major_faults": after.ru_majflt - before.ru_majflt,
            "peak_rss_mb": after.ru_maxrss / 1024,
            "rss_after_mb": rss_mb()}


def train_steps(fold, ctx, params, cfg, seed, steps):
    order = np.random.default_rng([seed, 1]).permutation(len(fold.train))
    batches = order[:len(order) // cfg.batch_size * cfg.batch_size].reshape(
        -1, cfg.batch_size)
    state = trainer.AdamState()

    # the live heap as each backward sweep starts; trainer calls the
    # module's backward, so wrapping the module attribute catches it
    at_backward = []
    peak = {}
    sweep = diffcore.backward
    build = diffcore.Node.__init__

    def sample(phase, index, op):
        heap = heap_mb()
        if heap is not None and heap > peak.get("heap_peak_mb", -1.0):
            peak.update(heap_peak_mb=heap,
                        heap_peak_at=f"{phase} #{index} {op}")

    def init(node, tape, *args, **kwargs):
        build(node, tape, *args, **kwargs)
        sample("forward", len(tape.nodes) - 1, node.op)

    def traced(fn, op, order):
        def call(g):
            fn(g)
            sample("backward", next(order), op)
        return call

    def backward(loss):
        at_backward.append(heap_mb())
        order = itertools.count()
        for node in loss.tape.nodes:
            if node._backward is not None:
                node._backward = traced(node._backward, node.op, order)
        return sweep(loss)

    diffcore.Node.__init__ = init
    diffcore.backward = backward
    try:
        for j in range(steps):
            at_backward.clear()
            peak.clear()
            view = fold.train.view(batches[j % len(batches)])
            before = resource.getrusage(resource.RUSAGE_SELF)
            trainer.train_epoch(params, dataclasses.replace(ctx, train=view),
                                cfg, np.random.default_rng([seed, 2, j]),
                                state)
            after = resource.getrusage(resource.RUSAGE_SELF)
            yield {"step": j, **usage(before, after),
                   "heap_at_backward_mb": (at_backward[0] if at_backward
                                           else None),
                   "heap_peak_mb": peak.get("heap_peak_mb"),
                   "heap_peak_at": peak.get("heap_peak_at")}
    finally:
        diffcore.Node.__init__ = build
        diffcore.backward = sweep


EVAL_STAGES = ("eval_embeddings", "rank_topk", "topk_metrics")
EVAL_MEMORY = ("rss_before_mb", "heap_before_mb", "heap_peak_mb",
               "heap_peak_at")


def evaluations(fold, ctx, params, cfg, count):
    # evaluate_model looks its stages up in the trainer module, so
    # wrapping the module attributes times each call, and a profile hook
    # samples the live heap inside it
    spent = dict.fromkeys(EVAL_STAGES, 0.0)
    memory = {}

    def timed(name, fn):
        def sample(where):
            heap = heap_mb()
            if heap is not None and heap > memory.get(f"{name}_heap_peak_mb",
                                                      -1.0):
                memory[f"{name}_heap_peak_mb"] = heap
                memory[f"{name}_heap_peak_at"] = where

        def hook(frame, event, arg):
            if event == "return":
                sample(frame.f_code.co_name)

        def call(*args, **kwargs):
            memory.setdefault(f"{name}_rss_before_mb", rss_mb())
            memory.setdefault(f"{name}_heap_before_mb", heap_mb())
            sample("call")
            start = time.process_time()
            sys.setprofile(hook)
            try:
                return fn(*args, **kwargs)
            finally:
                sys.setprofile(None)
                spent[name] += time.process_time() - start
        return call

    originals = {name: getattr(trainer, name) for name in EVAL_STAGES}
    for name, fn in originals.items():
        setattr(trainer, name, timed(name, fn))
    try:
        for j in range(count):
            spent.update(dict.fromkeys(EVAL_STAGES, 0.0))
            memory.clear()
            before = resource.getrusage(resource.RUSAGE_SELF)
            trainer.evaluate_model(params, ctx, fold.test, cfg, ks=(5, 10, 20))
            after = resource.getrusage(resource.RUSAGE_SELF)
            yield {"evaluation": j, **usage(before, after),
                   **{f"{name}_s": spent[name] for name in EVAL_STAGES},
                   **{f"{name}_{key}": memory.get(f"{name}_{key}")
                      for name in EVAL_STAGES for key in EVAL_MEMORY}}
    finally:
        for name, fn in originals.items():
            setattr(trainer, name, fn)


def setups(log, cfg, count):
    for j in range(count):
        row = {"setup": j}

        def stage(name, fn, *args, **kwargs):
            row[f"{name}_rss_before_mb"] = rss_mb()
            start = time.process_time()
            out = fn(*args, **kwargs)
            row[f"{name}_s"] = time.process_time() - start
            row[f"{name}_rss_after_mb"] = rss_mb()
            return out

        before = resource.getrusage(resource.RUSAGE_SELF)
        data = stage("load_interactions", dataset.load_interactions, log)
        fold = stage("make_folds", dataset.make_folds, data, cfg.folds,
                     cfg.seed)[0]
        R = stage("build_interaction_matrix", graphs.build_interaction_matrix,
                  fold.train)
        stage("adjacency", lambda: graphs.sym_normalize(
            graphs.build_adjacency(R)))
        if cfg.complement_enabled:
            stage("build_complement", graphs.build_complement, R, cfg.gamma,
                  apply_filter=cfg.filter_enabled)
        stage("init_params", model.init_params, data.num_users,
              data.num_items, cfg.d, cfg.h, seed=cfg.seed + fold.fold_index)
        after = resource.getrusage(resource.RUSAGE_SELF)
        yield {**row, **usage(before, after)}


def report(ops):
    """Print each operation's JSON line, then the medians after the
    first."""
    rows = []
    for row in ops:
        rows.append(row)
        print(json.dumps(row), flush=True)
    warm = rows[1:] or rows
    keys = [key for key in rows[0] if key not in ("step", "evaluation",
                                                  "setup", "major_faults",
                                                  "peak_rss_mb")]
    print(json.dumps({"median_after_op_0": {
        key: statistics.median(r[key] for r in warm)
        for key in keys if all(isinstance(r[key], (int, float))
                               for r in warm)}}))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=("train-gen", "eval-full", "setup"),
                   default="train-gen")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--steps", type=int, default=8,
                   help="operations to run")
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="KEY=VALUE",
                   help="override a config key (repeatable)")
    args = p.parse_args(argv)
    table = {}
    for pair in args.overrides:
        key, sep, value = pair.partition("=")
        if not sep:
            p.error(f"--set expects KEY=VALUE, got {pair!r}")
        table[key.strip()] = value.strip()

    size = workload.SIZES["full"]
    cfg = trainer.TrainConfig(seed=args.seed, batch_size=size.batch_size)
    try:
        cfg.apply_strings(table)
    except trainer.ConfigError as exc:
        p.error(str(exc))
    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "log.txt"
        workload.write_log(workload.generate_pairs(size, args.seed), log)
        if args.workload == "setup":
            report(setups(log, cfg, args.steps))
            return 0
        data = dataset.load_interactions(log)
    fold = dataset.make_folds(data, cfg.folds, cfg.seed)[0]
    ctx = trainer.build_context(fold.train, cfg)
    params = model.init_params(ctx.num_users, ctx.num_items, cfg.d, cfg.h,
                               seed=cfg.seed + fold.fold_index)
    if args.workload == "train-gen":
        report(train_steps(fold, ctx, params, cfg, args.seed, args.steps))
    else:
        report(evaluations(fold, ctx, params, cfg, args.steps))
    return 0


if __name__ == "__main__":
    sys.exit(main())
