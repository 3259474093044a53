"""Smoke test of scripts/step_rusage.py: two toy-size train steps and one
evaluation through its generators, on a log from benchmarks/workload.py."""

import importlib.util
import json
import os
import re
import sys
from pathlib import Path
from unittest import mock

import pytest

import gclrec.diffcore as dc
import gclrec.trainer as tr
from gclrec import dataset, model

ROOT = Path(__file__).resolve().parent.parent
USAGE = {"user_s", "system_s", "minor_faults", "major_faults", "peak_rss_mb",
         "rss_after_mb"}


@pytest.fixture(scope="module")
def script():
    # importing the script pins the BLAS thread variables and extends
    # sys.path; both are put back (numpy has loaded already)
    spec = importlib.util.spec_from_file_location(
        "step_rusage", ROOT / "scripts" / "step_rusage.py")
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ), \
            mock.patch.object(sys, "path", list(sys.path)):
        spec.loader.exec_module(module)
    return module


def wrapped(script):
    """What the script's generators wrap while they run."""
    return [dc.Node.__init__, dc.backward,
            *(getattr(tr, name) for name in script.EVAL_STAGES)]


def json_lines(capsys, script, ops):
    script.report(ops)
    return [json.loads(line) for line in capsys.readouterr().out.splitlines()]


def test_two_steps_and_an_evaluation(tmp_path, capsys, script):
    size = script.workload.SIZES["toy"]
    log = tmp_path / "log.txt"
    script.workload.write_log(script.workload.generate_pairs(size, 1), log)
    cfg = tr.TrainConfig(seed=1, batch_size=size.batch_size)
    fold = dataset.make_folds(dataset.load_interactions(log), cfg.folds,
                              cfg.seed)[0]
    ctx = tr.build_context(fold.train, cfg)
    params = model.init_params(ctx.num_users, ctx.num_items, cfg.d, cfg.h,
                               seed=cfg.seed)
    originals = wrapped(script)

    steps = json_lines(capsys, script,
                       script.train_steps(fold, ctx, params, cfg, 1, 2))
    # each generator puts back what it wrapped, so a later call wraps
    # the originals, not the wrappers
    assert wrapped(script) == originals
    evaluations = json_lines(capsys, script,
                             script.evaluations(fold, ctx, params, cfg, 1))
    assert wrapped(script) == originals

    step_keys = {"step", *USAGE, "heap_at_backward_mb", "heap_peak_mb",
                 "heap_peak_at"}
    assert [set(row) for row in steps[:-1]] == [step_keys] * 2
    assert [row["step"] for row in steps[:-1]] == [0, 1]
    if script.MALLINFO2 is not None:
        for row in steps[:-1]:
            assert re.fullmatch(r"(forward|backward) #\d+ \w+",
                                row["heap_peak_at"]), row["heap_peak_at"]
            assert row["heap_at_backward_mb"] > 0
    eval_keys = {"evaluation", *USAGE,
                 *(f"{name}_s" for name in script.EVAL_STAGES),
                 *(f"{name}_{key}" for name in script.EVAL_STAGES
                   for key in script.EVAL_MEMORY)}
    assert len(evaluations) == 2 and set(evaluations[0]) == eval_keys
    assert set(steps[-1]) == set(evaluations[-1]) == {"median_after_op_0"}
