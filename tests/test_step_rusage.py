"""Smoke test of scripts/step_rusage.py: two toy-size train steps and one
evaluation of benchmarks/run.py's operations through its generators, the
profile hook it sets only while an operation runs, and a check that no
script under scripts/ patches gclrec."""

import ast
import cProfile
import importlib.util
import json
import os
import re
import sys
from pathlib import Path
from unittest import mock

import pytest

ROOT = Path(__file__).resolve().parent.parent
USAGE = {"user_s", "system_s", "minor_faults", "major_faults", "peak_rss_mb",
         "rss_after_mb"}


@pytest.fixture(scope="module")
def script():
    # importing the script imports benchmarks/run.py, which pins the BLAS
    # thread variables and extends sys.path; both are put back (numpy has
    # loaded already)
    spec = importlib.util.spec_from_file_location(
        "step_rusage", ROOT / "scripts" / "step_rusage.py")
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ), \
            mock.patch.object(sys, "path", list(sys.path)):
        spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def toy(script, tmp_path_factory):
    """The toy-size config, size and set-up of the benchmark's log."""
    size = script.workload.SIZES["toy"]
    log = tmp_path_factory.mktemp("toy") / "log.txt"
    script.workload.write_log(script.workload.generate_pairs(size, 1), log)
    cfg = script.run.make_config("train-gen", size, 1)
    return cfg, size, script.run.setup(log, cfg)


@pytest.fixture
def outer_profiler():
    """A profiler set before the script runs, which it must put back."""
    def outer(frame, event, arg):
        pass

    previous = sys.getprofile()
    sys.setprofile(outer)
    try:
        yield outer
    finally:
        sys.setprofile(previous)


def json_lines(capsys, script, ops):
    script.report(ops)
    return [json.loads(line) for line in capsys.readouterr().out.splitlines()]


def test_two_steps_and_an_evaluation(capsys, script, toy, outer_profiler):
    cfg, size, (fold, ctx, params) = toy
    steps = json_lines(capsys, script, script.train_steps(
        script.run.Training(fold, ctx, params, cfg, 1, 0), 2))
    assert sys.getprofile() is outer_profiler
    evaluations = json_lines(capsys, script, script.evaluations(
        script.run.Evaluation(fold, ctx, params, cfg, 1, size), 1))
    assert sys.getprofile() is outer_profiler

    step_keys = {"step", *USAGE, "heap_at_backward_mb", "heap_peak_mb",
                 "heap_peak_at", "heap_forward_peak_mb",
                 "heap_forward_peak_at", "heap_backward_peak_mb",
                 "heap_backward_peak_at"}
    # the first line also holds the RSS the script's imports left
    assert [set(row) for row in steps[:-1]] == [
        step_keys | {"import_rss_mb"}, step_keys]
    assert [row["step"] for row in steps[:-1]] == [0, 1]
    eval_keys = {"evaluation", *USAGE,
                 *(f"{name}_{key}" for name in script.EVAL_STAGES
                   for key in script.EVAL_MEMORY)}
    assert len(evaluations) == 2 and \
        set(evaluations[0]) == eval_keys | {"import_rss_mb"}
    assert steps[0]["import_rss_mb"] == evaluations[0]["import_rss_mb"] \
        == script.IMPORT_RSS_MB
    if script.IMPORT_RSS_MB is not None:
        assert script.IMPORT_RSS_MB > 0
    assert "import_rss_mb" not in steps[-1]["median_after_op_0"]
    assert set(steps[-1]) == set(evaluations[-1]) == {"median_after_op_0"}
    if script.MALLINFO2 is not None:
        label = (r"{}: [\w.<>]+ from [\w.<>]+( in [\w.<>]+)?"
                 r"( at (node \w+ \(\d+, \d+\)|(ui|comp) layer \d+))?")
        for row in steps[:-1]:
            assert re.fullmatch(label.format("(forward|backward|after "
                                             "backward)"),
                                row["heap_peak_at"]), row["heap_peak_at"]
            # the step's peak is reached inside gclrec code, and the
            # backward one at a node of the sweep
            assert " in " in row["heap_peak_at"], row["heap_peak_at"]
            assert re.search(r" at node \w+ \(\d+, \d+\)$",
                             row["heap_backward_peak_at"])
            assert row["heap_at_backward_mb"] > 0
            for phase in ("forward", "backward"):
                assert re.fullmatch(label.format(phase),
                                    row[f"heap_{phase}_peak_at"])
            assert row["heap_peak_mb"] >= max(row["heap_forward_peak_mb"],
                                              row["heap_backward_peak_mb"])
        for name in script.EVAL_STAGES:
            assert re.fullmatch(label.format(name),
                                evaluations[0][f"{name}_heap_peak_at"])
            assert (evaluations[0][f"{name}_heap_peak_mb"]
                    >= evaluations[0][f"{name}_heap_before_mb"] > 0)


def test_labels_place_every_encoder_layer_and_node(script, toy,
                                                   monkeypatch):
    """With the live heap rising at every return, each return is a new
    peak, so every label of a step is read: the forward ones place each
    layer of both channels, the backward ones the node of the sweep."""
    cfg, size, (fold, ctx, params) = toy
    heap = iter(range(10 ** 9))
    monkeypatch.setattr(script, "heap_mb", lambda: next(heap))
    labels = []

    class Every(script.Sampler):
        def where(self, frame):
            labels.append(super().where(frame))
            return labels[-1]

    monkeypatch.setattr(script, "Sampler", Every)
    next(script.train_steps(
        script.run.Training(fold, ctx, params, cfg, 1, 0), 1))
    places = {phase: {label.partition(" at ")[2] for label in labels
                      if label.startswith(f"{phase}: ") and " at " in label}
              for phase in ("forward", "backward")}
    assert places["forward"] == {f"{channel} layer {k}"
                                 for channel in ("ui", "comp")
                                 for k in range(1, cfg.L + 1)}
    assert places["backward"]
    assert all(re.fullmatch(r"node \w+ \(\d+, \d+\)", place)
               for place in places["backward"])


def test_profiler_is_put_back(script, toy, outer_profiler):
    cfg, size, (fold, ctx, params) = toy
    ops = script.evaluations(
        script.run.Evaluation(fold, ctx, params, cfg, 1, size), 3)
    next(ops)
    # set only while an operation runs, so not between two
    assert sys.getprofile() is outer_profiler
    ops.close()
    assert sys.getprofile() is outer_profiler

    class Failing:
        def op(self, j):
            raise RuntimeError("operation failed")

    with pytest.raises(RuntimeError, match="operation failed"):
        next(script.train_steps(Failing(), 1))
    assert sys.getprofile() is outer_profiler


def test_refuses_to_displace_cprofile(script):
    sampler = script.Sampler({}, "op")
    with cProfile.Profile() as profiler:
        with pytest.raises(RuntimeError, match="cProfile"):
            sampler.run(lambda: None)
        assert sys.getprofile() is profiler


def gclrec_patches(path):
    """Lines of ``path`` that assign or setattr an attribute of a name
    bound to a gclrec import, or any ``_backward`` attribute."""
    tree = ast.parse(path.read_text(), str(path))
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.partition(".")[0]
                         for alias in node.names
                         if alias.name.partition(".")[0] == "gclrec")
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and \
                node.module.partition(".")[0] == "gclrec":
            bound.update(alias.asname or alias.name for alias in node.names)

    def root(expr):
        while isinstance(expr, ast.Attribute):
            expr = expr.value
        return expr.id if isinstance(expr, ast.Name) else None

    def targets(node):
        if isinstance(node, ast.Assign):
            pending = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            pending = [node.target]
        else:
            return
        while pending:
            target = pending.pop()
            if isinstance(target, (ast.Tuple, ast.List)):
                pending.extend(target.elts)
            elif isinstance(target, ast.Starred):
                pending.append(target.value)
            elif isinstance(target, ast.Attribute):
                yield target.value, target.attr

    found = []
    for node in ast.walk(tree):
        patched = list(targets(node))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "setattr" and len(node.args) >= 2:
            attr = node.args[1]
            patched.append((node.args[0], attr.value
                            if isinstance(attr, ast.Constant) else None))
        if any(root(obj) in bound or attr == "_backward"
               for obj, attr in patched):
            found.append(node.lineno)
    return sorted(found)


def test_gclrec_patches_are_found(tmp_path):
    path = tmp_path / "patching.py"
    path.write_text(
        "import gclrec.trainer as tr\n"
        "from gclrec import diffcore\n"
        "from gclrec.diffcore import Node\n"
        "diffcore.backward = None\n"
        "a, Node.__init__ = 1, None\n"
        "setattr(tr, 'rank_topk', None)\n"
        "node = object()\n"
        "node._backward = None\n"
        "setattr(node, '_backward', None)\n"
        "node.value = 1\n"
        "setattr(node, 'value', 1)\n")
    assert gclrec_patches(path) == [4, 5, 6, 8, 9]


@pytest.mark.parametrize("path", sorted((ROOT / "scripts").rglob("*.py")),
                         ids=lambda path: path.name)
def test_scripts_patch_nothing_in_gclrec(path):
    assert gclrec_patches(path) == []
