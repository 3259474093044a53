#!/usr/bin/env python3
"""Per-operation CPU time, page faults and memory of a benchmark workload.

    python3 scripts/step_rusage.py --seed 1 --steps 8
    python3 scripts/step_rusage.py --workload eval-full --seed 1 --steps 5
    python3 scripts/step_rusage.py --workload setup --seed 1 --steps 11
    python3 scripts/step_rusage.py --set noise.distribution=uniform --steps 3

Runs the operations of one of the benchmark's workloads with the code
of ``benchmarks/run.py``, imported (which pins one BLAS thread): its
config for the workload, changed by each ``--set KEY=VALUE`` as
``gclrec train --set`` changes it, its set-up of fold 0 of the seeded
CiaoDVD-scale log, and its operations.  For train-gen, operation j is
``Training.op(j)``: ``trainer.train_epoch`` over the j-th fixed batch
with the rng stream (seed, 2, j); for eval-full it is
``Evaluation.op(j)``: one ``trainer.evaluate_model`` at k = 5, 10, 20
with the initial parameters; for setup it is one set-up from the log
file, as the benchmark's setup_s times it, with each stage called here
in turn.
Around each operation it reads getrusage(RUSAGE_SELF) and prints one
JSON line: user and system CPU seconds, minor and major page faults,
the peak RSS so far and the RSS the process holds after the operation.
A train step or an evaluation runs under one profile hook (see
:class:`Sampler`), set only while it runs, which reads the live heap
(glibc ``mallinfo2``: bytes in use in the arenas plus mmapped blocks;
None without it) as each Python function returns and keeps the highest
reading with where it was taken: the phase, the function that returned,
its caller, the innermost frame in the gclrec package and the node of
the backward sweep or the encoder channel and layer it ran in, as in
``backward: _wrapreduction from sum in _rownorm_grad at node
inject_spmm (5112, 64)`` or ``forward: _all from generate_noise in
generate_noise at ui layer 3`` (no ``in`` part when no gclrec code is
running, no ``at`` part outside the sweep and the encoder's layer
loop).  An array allocated and freed between two returns is missed.  A train
step's phases are ``forward``, ``backward`` from the call of
``diffcore.backward`` and ``after backward`` from its return; it adds
the live heap as its backward sweep starts, its highest value over the
step and the highest values in the forward and the backward phase.  Both
include the 16.5 MB copy of the initial embeddings that ``Training``
keeps for its final check, as the benchmark's process does.  An
evaluation's phases are its stages ``eval_embeddings``, ``rank_topk``
and ``topk_metrics``; it adds, for each, the RSS and the live heap
before its first call and its highest live heap.  It prints no stage
times, which the hook would inflate wherever a stage makes many Python
calls; ``python3 benchmarks/run.py --workload eval-full --trace 1``
reports them per layer.  The hook adds
0.05-0.09 s to the 0.42-0.59 s of CPU an evaluation takes and
0.02-0.04 s to the 1.0 s a train step takes: the median difference
over 12 operations, each run with the sampler off and on back to back
in one process, in each of three runs for an evaluation and two for a
step (seed-1 log, 2-core x86-64 VM).  Neither ``ru_maxrss``, which
keeps the first evaluation's peak, nor the RSS, which holds the kept
heap's peak between evaluations, shows which stage sets a later
evaluation's peak.  The hook cannot run beside a C-level
profiler such as cProfile, so under one a train step or an evaluation
raises RuntimeError.  A set-up adds, for each of its stages
(``load_interactions``, ``make_folds``, ``build_interaction_matrix``,
``adjacency``: the block adjacency and its normalization,
``build_complement`` and ``init_params``), the CPU seconds it took and
the RSS before and after it; it runs without the hook, which would bill
its calls on every line the log parser reads to the stage times.  A
last line holds the medians over the operations after the first.  The
first operation's line also holds ``import_rss_mb``, the RSS once this
script's imports are done and before any set-up, so that a peak splits
into what the imports hold, what the set-up adds and what the
operations add.  Nothing here is timed by the benchmark.
"""

import argparse
import ctypes
import functools
import json
import os
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

import run  # noqa: E402  (pins the BLAS threads before numpy loads)
import workload  # noqa: E402
from gclrec import dataset, diffcore, graphs, model, trainer  # noqa: E402

PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2 ** 20
GCLREC_DIR = os.path.dirname(trainer.__file__) + os.sep
BACKWARD = diffcore.backward.__code__
RUN_CHANNEL = "encode.<locals>.run_channel"


def rss_mb():
    """Resident set size now, from /proc/self/statm (Linux only)."""
    try:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * PAGE_MB
    except OSError:
        return None


# the RSS that the imports above hold, read before any set-up
IMPORT_RSS_MB = rss_mb()


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


class Sampler:
    """The live heap at every Python function return while one operation
    runs, under one profile hook, split into phases.

    The operation starts in phase ``start``.  The call of a function in
    ``stages`` (name -> function, matched by its code object) starts the
    phase of that name and its return the phase ``after <name>``.  After
    :meth:`run`: ``before[name]`` holds the RSS and live heap at the
    stage's first call and ``peak[phase]`` the phase's highest live heap
    with where it was read (see :meth:`where`).
    """

    def __init__(self, stages, start):
        self.stages = {fn.__code__: name for name, fn in stages.items()}
        self.start = start

    def run(self, op):
        """Call ``op()`` under the hook; the previous profiler is put
        back however it ends."""
        self.phase = self.start
        self.before, self.peak = {}, {}
        previous = sys.getprofile()
        if previous is not None and not callable(previous):
            raise RuntimeError("a C-level profiler such as cProfile is "
                               "active, which the hook would displace")
        sys.setprofile(self.hook)
        try:
            return op()
        finally:
            sys.setprofile(previous)

    def hook(self, frame, event, arg):
        if event == "call":
            name = self.stages.get(frame.f_code)
            if name is not None:
                self.before.setdefault(name, (rss_mb(), heap_mb()))
                self.phase = name
        elif event == "return":
            heap = heap_mb()
            if heap is not None and heap > self.peak.get(self.phase,
                                                          (-1.0,))[0]:
                self.peak[self.phase] = (heap, self.where(frame))
            name = self.stages.get(frame.f_code)
            if name is not None:
                self.phase = f"after {name}"

    def where(self, frame):
        """The label of a reading taken as ``frame`` returns: the phase,
        the function, its caller, the innermost gclrec function and where
        in the step it ran, read from the locals of the innermost frame
        that knows: the node whose backward pass ``diffcore.backward`` is
        running, or the channel and layer that ``encode``'s loop has
        reached."""
        label = (f"{self.phase}: {frame.f_code.co_qualname} from "
                 f"{frame.f_back.f_code.co_qualname}")
        inner = at = ""
        while frame is not None:
            code = frame.f_code
            if not inner and code.co_filename.startswith(GCLREC_DIR):
                inner = f" in {code.co_qualname}"
            if code is BACKWARD and "node" in frame.f_locals:
                node = frame.f_locals["node"]
                at = f" at node {node.op} ({node.shape[0]}, {node.shape[1]})"
            elif code.co_qualname == RUN_CHANNEL:
                local = frame.f_locals
                at = f" at {local['channel']}" + (
                    f" layer {local['k']}" if "k" in local else "")
            if at:
                break
            frame = frame.f_back
        return label + inner + at


def sampled(runner, count, sampler):
    """(j, the getrusage fields) of each of a benchmark runner's
    operations 0 .. count-1, each run under ``sampler``."""
    for j in range(count):
        before = resource.getrusage(resource.RUSAGE_SELF)
        sampler.run(functools.partial(runner.op, j))
        yield j, usage(before, resource.getrusage(resource.RUSAGE_SELF))


def train_steps(runner, count):
    sampler = Sampler({"backward": diffcore.backward}, "forward")
    for j, row in sampled(runner, count, sampler):
        heap, at = max(sampler.peak.values(), default=(None, None))
        row = {"step": j, **row,
               "heap_at_backward_mb": sampler.before.get(
                   "backward", (None, None))[1],
               "heap_peak_mb": heap, "heap_peak_at": at}
        for phase in ("forward", "backward"):
            peak = sampler.peak.get(phase, (None, None))
            row[f"heap_{phase}_peak_mb"], row[f"heap_{phase}_peak_at"] = peak
        yield row


EVAL_STAGES = ("eval_embeddings", "rank_topk", "topk_metrics")
EVAL_MEMORY = ("rss_before_mb", "heap_before_mb", "heap_peak_mb",
               "heap_peak_at")


def evaluations(runner, count):
    sampler = Sampler({name: getattr(trainer, name) for name in EVAL_STAGES},
                      "evaluate_model")
    for j, row in sampled(runner, count, sampler):
        row = {"evaluation": j, **row}
        for name in EVAL_STAGES:
            memory = (*sampler.before.get(name, (None, None)),
                      *sampler.peak.get(name, (None, None)))
            row.update((f"{name}_{key}", value)
                       for key, value in zip(EVAL_MEMORY, memory))
        yield row


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
            stage("build_complement", graphs.build_complement, R, cfg.gamma)
        stage("init_params", model.init_params, data.num_users,
              data.num_items, cfg.d, cfg.h, seed=cfg.seed + fold.fold_index)
        after = resource.getrusage(resource.RUSAGE_SELF)
        yield {**row, **usage(before, after)}


def report(ops):
    """Print each operation's JSON line, the first with
    ``import_rss_mb``, then the medians after the first."""
    rows = []
    for row in ops:
        if not rows:
            row = {**row, "import_rss_mb": IMPORT_RSS_MB}
        rows.append(row)
        print(json.dumps(row), flush=True)
    warm = rows[1:] or rows
    keys = [key for key in rows[0] if key not in ("step", "evaluation",
                                                  "setup", "major_faults",
                                                  "peak_rss_mb",
                                                  "import_rss_mb")]
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
    size = workload.SIZES["full"]
    cfg = run.make_config(args.workload, size, args.seed)
    try:
        cfg.apply_strings(trainer.read_settings(
            ("--set", pair) for pair in args.overrides))
    except trainer.ConfigError as exc:
        p.error(str(exc))
    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "log.txt"
        workload.write_log(workload.generate_pairs(size, args.seed), log)
        if args.workload == "setup":
            report(setups(log, cfg, args.steps))
            return 0
        fold, ctx, params = run.setup(log, cfg)
    if args.workload == "train-gen":
        report(train_steps(run.Training(fold, ctx, params, cfg, args.seed, 0),
                           args.steps))
    else:
        report(evaluations(run.Evaluation(fold, ctx, params, cfg, args.seed,
                                          size), args.steps))
    return 0


if __name__ == "__main__":
    sys.exit(main())
