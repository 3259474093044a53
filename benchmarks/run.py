#!/usr/bin/env python3
"""gclrec benchmark: three seeded workloads on a CiaoDVD-scale log.

    python3 benchmarks/run.py --workload train-gen --seed 1 --seconds 40 --trace 0
    python3 benchmarks/run.py                       # all three, one process each
    python3 benchmarks/run.py --size toy --seconds 0.5   # smoke size

Workloads (fold 0 of 5 of the same generated log, default config):
  train-gen    optimizer steps with the generative noise MLP (full model)
  train-plain  the same steps with noise.mode=none (the w/o-g LightGCN variant)
  eval-full    full-catalog top-k evaluation at k = 5, 10, 20

Each run sets up SETUPS times (load_interactions, make_folds,
build_context, init_params), once before and the rest spread over the
timed operations, and reports the median as setup_s; it discards warm-up
operations, then repeats the workload's operation for --seconds.  Output
checks that allocate memory of their own run after peak_rss_mb is read.
Timings are process CPU seconds (see cpu_seconds).  With --trace 1 the
seconds are split between an untraced and a traced half, and per-layer
metrics come from spans recorded around the calls into each gclrec
module (see spans.py).  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the full
record, with the environment, is also written to .bench_out/ under the
repository root.
"""

import os

# one BLAS thread, pinned before numpy loads: the variables `gclrec
# --threads` pins
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# the program under test is always the checkout's own source tree
if not (SRC / "gclrec" / "__init__.py").is_file():
    sys.exit(f"error: no gclrec sources under {SRC}; run the benchmark "
             "from a full checkout of the repository")
sys.path.insert(0, str(SRC))

import checks  # noqa: E402
import spans  # noqa: E402
import workload  # noqa: E402
from gclrec import dataset, model, trainer  # noqa: E402

WORKLOADS = ("train-gen", "train-plain", "eval-full")
END_TO_END = {"setup_s": "s", "op_s_p50": "s", "work_per_s": "1/s",
              "peak_rss_mb": "MB"}
# set-up time swings by up to 2x with the host's load, more than a step
# does, so it is sampled often and across the whole run
SETUPS = 11
# the first training steps run 1.5-2x slower than later ones
WARMUP_STEPS = {"train-gen": 1, "train-plain": 2}
MIN_OPS = 3
KS = (5, 10, 20)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(workload.SIZES), default="full")
    p.add_argument("--inject", choices=("wrong-ranking",),
                   help="break the program on purpose, to test the checks")
    return p.parse_args(argv)


class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def record(self, ok, reason):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons.append(reason)


def environment(seed):
    """Versions, hardware and source identity recorded with every result."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    for path in sorted((SRC / "gclrec").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "seed": seed,
    }


def git_commit():
    """HEAD of the repository this file sits in, or None outside git."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return None
    return lines[1]


def make_config(name, size, seed):
    cfg = trainer.TrainConfig(seed=seed, batch_size=size.batch_size)
    if name == "train-plain":
        cfg.noise_mode = "none"
    cfg.validate()
    return cfg


def setup(log_path, cfg):
    """Interaction file to ready-to-train: the work setup_s times."""
    data = dataset.load_interactions(log_path)
    fold = dataset.make_folds(data, cfg.folds, cfg.seed)[0]
    ctx = trainer.build_context(fold.train, cfg)
    params = model.init_params(ctx.num_users, ctx.num_items, cfg.d, cfg.h,
                               seed=cfg.seed + fold.fold_index)
    return fold, ctx, params


class Training:
    """One optimizer step per operation: trainer.train_epoch over a
    one-batch view of the fold's train pairs, so the trainer's own
    shuffling, negative sampling and Adam run as in a full epoch."""

    def __init__(self, fold, ctx, params, cfg, seed, warmup_steps):
        self.fold, self.ctx, self.params, self.cfg = fold, ctx, params, cfg
        self.seed, self.warmup_steps = seed, warmup_steps
        order = np.random.default_rng([seed, 1]).permutation(len(fold.train))
        count = len(order) // cfg.batch_size
        self.batches = order[:count * cfg.batch_size].reshape(count, -1)
        self.initial = params.base_embedding.copy()
        self.state = trainer.AdamState()

    def op(self, j):
        """Step j: a fixed batch and rng stream per (seed, j)."""
        view = self.fold.train.view(self.batches[j % len(self.batches)])
        report = trainer.train_epoch(
            self.params, dataclasses.replace(self.ctx, train=view), self.cfg,
            np.random.default_rng([self.seed, 2, j]), self.state)
        finite = all(np.isfinite(v) for v in dataclasses.astuple(report))
        return finite, "non-finite loss term", self.cfg.batch_size

    def warmup_ops(self):
        return [functools.partial(self.op, j) for j in range(self.warmup_steps)]

    def final_ops(self):
        return [self.check]

    def check(self):
        """Every parameter finite and the embeddings moved."""
        arrays = self.params.param_arrays()
        if not all(np.all(np.isfinite(a)) for a in arrays.values()):
            return False, "non-finite parameter after the run", 0
        if np.array_equal(arrays["base_embedding"], self.initial):
            return False, "embeddings did not move", 0
        return True, "", 0


class Evaluation:
    """One full evaluation per operation: trainer.evaluate_model at every
    cutoff over fold 0's test pairs."""

    def __init__(self, fold, ctx, params, cfg, seed, size):
        self.fold, self.ctx, self.params, self.cfg = fold, ctx, params, cfg
        self.seed, self.size = seed, size
        self.users = len(np.unique(fold.train.pairs[:, 0]))
        self.first = None

    def op(self, _j):
        got = trainer.evaluate_model(self.params, self.ctx, self.fold.test,
                                     self.cfg, ks=KS)
        if self.first is None:
            self.first = got
        return got == self.first, "evaluation not repeatable", self.users

    def warmup_ops(self):
        return [functools.partial(self.op, -1)]

    def final_ops(self):
        # after peak_rss_mb is read: the brute-force ranking holds dense
        # user x item arrays of its own
        return [self.check]

    def check(self):
        """evaluate_model on a seeded user sample against brute force."""
        z_u, z_i = trainer.eval_embeddings(self.params, self.ctx, self.cfg)
        train = self.fold.train
        want = checks.reference_embeddings(train, self.params.base_embedding,
                                           self.cfg.L)
        if not np.allclose(np.vstack([z_u, z_i]), want, rtol=1e-9, atol=1e-12):
            return False, "evaluation embeddings differ from propagation", 0
        rng = np.random.default_rng([self.seed, 3])
        users = np.sort(rng.choice(np.unique(train.pairs[:, 0]),
                                   self.size.check_users, replace=False))
        pairs, order, scores = checks.probe_test_pairs(
            z_u, z_i, train, self.fold.test, users, rng)
        got = trainer.evaluate_model(
            self.params, self.ctx,
            dataclasses.replace(self.fold.test, pairs=pairs), self.cfg, ks=KS)
        for k in KS:
            want = checks.brute_force_metrics(order, scores, users, pairs, k)
            m = got[k]
            if m.users_evaluated != len(users) or np.max(np.abs(
                    np.array([m.precision, m.recall, m.ndcg]) - want)) > checks.TOLERANCE:
                return False, f"metrics@{k} differ from brute-force ranking", 0
        return True, "", self.users


def cpu_seconds():
    """CPU time of this process and its waited-for children.

    Timings are CPU seconds: on a shared virtual machine the wall clock
    also counts time the host gives this CPU to other guests, which made
    run-to-run spreads twice as wide.  With one BLAS thread and no I/O in
    the timed work, CPU time equals wall time on an idle machine.
    """
    t = os.times()
    return time.process_time() + t.children_user + t.children_system


def attempt(tally, fn, recorder=None, run_id=None):
    """Run one operation, counting it as failed when it raises or its
    output check fails; returns (wall seconds, CPU seconds, work done).
    With a recorder the operation runs inside a root span "op"."""
    start, cpu = time.perf_counter(), cpu_seconds()
    try:
        if recorder is None:
            ok, reason, work = fn()
        else:
            ok, reason, work = recorder.root("op", run_id, fn)
    except Exception:  # a failed operation is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        ok, reason, work = False, "raised", 0
    wall, cpu = time.perf_counter() - start, cpu_seconds() - cpu
    tally.record(ok, reason)
    return wall, cpu, work


def timed_setup(fn):
    """Run one set-up; returns (its result, wall seconds, CPU seconds)."""
    start, cpu = time.perf_counter(), cpu_seconds()
    state = fn()
    return state, time.perf_counter() - start, cpu_seconds() - cpu


def timed_ops(runner, seconds, min_ops, tally, recorder=None, setup_fn=None,
              setups=0):
    """Operations 0, 1, ... until ``seconds`` of wall time have passed
    and at least ``min_ops`` ran.

    ``setups`` extra calls of ``setup_fn``, results discarded, are spread
    evenly over the time after the first ``min_ops`` operations, so that
    set-up time is sampled across the run instead of in one stretch while
    the host may be slow; their time extends the deadline.  Returns the
    per-operation (wall, CPU, work) columns, the set-ups' (wall, CPU)
    times, and the peak RSS in MB once ``min_ops`` had run: a point
    reached after the same work in every run, before any extra set-up.
    """
    ops, setup_times = [], []
    rss_mb = None
    deadline = time.perf_counter() + seconds
    while len(ops) < min_ops or time.perf_counter() < deadline:
        j = len(ops)
        ops.append(attempt(tally, functools.partial(runner.op, j), recorder,
                           f"op-{j}"))
        now = time.perf_counter()
        if len(ops) == min_ops:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            after_rss = now
        done = len(setup_times)
        if len(ops) >= min_ops and done < setups and \
                now >= after_rss + (done + 1) * (deadline - after_rss) / (setups + 1):
            _, wall, cpu = timed_setup(setup_fn)
            setup_times.append((wall, cpu))
            deadline += wall
    while len(setup_times) < setups:
        setup_times.append(timed_setup(setup_fn)[1:])
    wall, cpu, work = (list(col) for col in zip(*ops))
    return wall, cpu, work, setup_times, rss_mb


def inject_wrong_ranking():
    """Swap the first two items of every ranked list."""
    original = trainer.rank_topk

    def swapped(*args, **kwargs):
        lists = original(*args, **kwargs)
        for top in lists:
            top[:2] = top[:2][::-1].copy()
        return lists

    trainer.rank_topk = swapped


def run_workload(args):
    name, size = args.workload, workload.SIZES[args.size]
    OUT.mkdir(exist_ok=True)
    log_path = OUT / f"{args.size}-seed{args.seed}.txt"
    workload.write_log(workload.generate_pairs(size, args.seed), log_path)
    cfg = make_config(name, size, args.seed)
    if args.inject == "wrong-ranking":
        inject_wrong_ranking()

    setup_fn = functools.partial(setup, log_path, cfg)
    recorder = None
    if args.trace:
        # traced set-ups all run first; a traced run reports no setup_s
        recorder = spans.Recorder()
        recorder.install()
        for k in range(SETUPS):
            state = None  # free the previous fold's context first
            state = recorder.root("setup", f"setup-{k}", setup_fn)
        recorder.uninstall()
    else:
        state, *first_setup = timed_setup(setup_fn)
    fold, ctx, params = state

    if name == "eval-full":
        runner = Evaluation(fold, ctx, params, cfg, args.seed, size)
    else:
        runner = Training(fold, ctx, params, cfg, args.seed, WARMUP_STEPS[name])
    tally = Tally()
    warm = [attempt(tally, fn)[:2] for fn in runner.warmup_ops()]
    seconds = args.seconds / 2 if args.trace else args.seconds
    wall, cpu, work, more_setups, rss_mb = timed_ops(
        runner, seconds, MIN_OPS, tally, setup_fn=setup_fn,
        setups=0 if args.trace else SETUPS - 1)
    setup_wall = setup_cpu = ()
    if not args.trace:
        setup_wall, setup_cpu = zip(first_setup, *more_setups)

    # the scipy reference builds an item x item product, so it runs after
    # peak_rss_mb is read
    ui_nnz, comp_nnz = checks.expected_nnz(fold.train, cfg.gamma)
    if comp_nnz == 0:
        print(f"error: the gamma={cfg.gamma} complement matrix of seed "
              f"{args.seed} is empty; train-gen would run one channel",
              file=sys.stderr)
        return 3
    dataset_record = {
        "users": ctx.num_users, "items": ctx.num_items,
        "pairs": len(fold.train) + len(fold.test),
        "train_pairs": len(fold.train), "test_pairs": len(fold.test),
        "ui_nnz": ui_nnz, "comp_nnz": comp_nnz,
    }
    samples = {"setups": SETUPS, "warmup": len(warm), "timed": len(cpu)}
    if recorder is not None:
        recorder.install()
        _, traced, _, _, _ = timed_ops(runner, seconds, 2, tally, recorder)
        recorder.uninstall()
        samples["traced"] = len(traced)
    for fn in runner.final_ops():
        attempt(tally, fn)

    if recorder is None:
        metrics = {
            "setup_s": statistics.median(setup_cpu),
            "op_s_p50": statistics.median(cpu),
            "work_per_s": sum(work) / sum(cpu),
            "peak_rss_mb": rss_mb,
        }
        units = END_TO_END
    else:
        metrics = recorder.summarize("setup", spans.SETUP_TIMES,
                                     spans.SETUP_COUNTS)
        metrics.update(recorder.summarize("op", spans.OP_TIMES,
                                          spans.OP_COUNTS))
        if (metrics["graphs.ui_nnz"], metrics["graphs.comp_nnz"]) != (ui_nnz, comp_nnz):
            tally.record(False, "graph nnz differ from the scipy reference")
        metrics["trace.op_s_p50"] = statistics.median(traced)
        metrics["trace.overhead_s"] = (metrics["trace.op_s_p50"]
                                       - statistics.median(cpu))
        units = spans.UNITS
        recorder.write(OUT / f"spans-{name}-seed{args.seed}.jsonl")

    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {m: {"value": v, "unit": units[m]}
                          for m, v in metrics.items()}}
    record = {"workload": name, "size": args.size, "trace": args.trace,
              "environment": environment(args.seed), "dataset": dataset_record,
              "samples": samples, "failures": tally.reasons,
              "setup_cpu_s": setup_cpu, "setup_wall_s": setup_wall,
              "warmup_wall_cpu_s": warm, "op_cpu_s": cpu, "op_wall_s": wall,
              "result": result}
    (OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    for m, v in result["metrics"].items():
        print(f"{name:12s} {m:32s} {v['value']:>14.6g} {v['unit']}")
    if recorder is None:
        print(f"{name:12s} wall-clock medians: setup "
              f"{statistics.median(setup_wall):.4g} s, op "
              f"{statistics.median(wall):.4g} s")
    print(f"{name:12s} samples {samples}, failed {tally.failed} of "
          f"{tally.attempted}{': ' + '; '.join(tally.reasons) if tally.reasons else ''}")
    print(json.dumps({"record": {k: record[k] for k in
                                 ("environment", "dataset", "samples")}}))
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--size", args.size]
        if args.inject:
            cmd += ["--inject", args.inject]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = out.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if out.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {out.returncode}",
                  file=sys.stderr)
            return out.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for m, v in result["metrics"].items():
            combined["metrics"][f"{name}.{m}"] = v
    print(json.dumps(combined))
    return 0


def main(argv=None):
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
