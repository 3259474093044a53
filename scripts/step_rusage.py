#!/usr/bin/env python3
"""Per-step CPU time, page faults and memory of train-gen optimizer steps.

    python3 scripts/step_rusage.py --seed 1 --steps 8

Runs the steps of the benchmark's train-gen workload (fold 0 of the
seeded CiaoDVD-scale log, default config, one BLAS thread): step j is
``trainer.train_epoch`` over the j-th fixed batch with the rng stream
(seed, 2, j).  Around each step it reads getrusage(RUSAGE_SELF) and
prints one JSON line: user and system CPU seconds, minor and major page
faults, the peak RSS so far and the RSS the process holds after the
step.  A last line holds the medians over the steps after the first.
Nothing here is timed by the benchmark; the script reads the log
generator in ``benchmarks/workload.py`` only to train on the same data.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmarks"))

import numpy as np  # noqa: E402
import workload  # noqa: E402
from gclrec import dataset, model, trainer  # noqa: E402

PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2 ** 20


def rss_mb():
    """Resident set size now, from /proc/self/statm (Linux only)."""
    try:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * PAGE_MB
    except OSError:
        return None


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--steps", type=int, default=8)
    args = p.parse_args(argv)

    size = workload.SIZES["full"]
    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "log.txt"
        workload.write_log(workload.generate_pairs(size, args.seed), log)
        data = dataset.load_interactions(log)
    cfg = trainer.TrainConfig(seed=args.seed, batch_size=size.batch_size)
    cfg.validate()
    fold = dataset.make_folds(data, cfg.folds, cfg.seed)[0]
    ctx = trainer.build_context(fold.train, cfg)
    params = model.init_params(ctx.num_users, ctx.num_items, cfg.d, cfg.h,
                               seed=cfg.seed + fold.fold_index)
    order = np.random.default_rng([args.seed, 1]).permutation(len(fold.train))
    batches = order[:len(order) // cfg.batch_size * cfg.batch_size].reshape(
        -1, cfg.batch_size)
    state = trainer.AdamState()

    rows = []
    for j in range(args.steps):
        view = fold.train.view(batches[j % len(batches)])
        before = resource.getrusage(resource.RUSAGE_SELF)
        trainer.train_epoch(params, dataclasses.replace(ctx, train=view),
                            cfg, np.random.default_rng([args.seed, 2, j]),
                            state)
        after = resource.getrusage(resource.RUSAGE_SELF)
        row = {"step": j,
               "user_s": after.ru_utime - before.ru_utime,
               "system_s": after.ru_stime - before.ru_stime,
               "minor_faults": after.ru_minflt - before.ru_minflt,
               "major_faults": after.ru_majflt - before.ru_majflt,
               "peak_rss_mb": after.ru_maxrss / 1024,
               "rss_after_mb": rss_mb()}
        rows.append(row)
        print(json.dumps(row), flush=True)
    warm = rows[1:] or rows
    print(json.dumps({"median_after_step_0": {
        key: statistics.median(r[key] for r in warm)
        for key in ("user_s", "system_s", "minor_faults", "rss_after_mb")
        if all(r[key] is not None for r in warm)}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
