"""Every exported name resolves, every differentiation primitive has a
caller in the package, no backward pass reads a node's value, importing
the package leaves the process alone, and every gclrec name and call the
benchmark harness in ``benchmarks/`` relies on resolves.  The harness is
only read, so a deletion that would break it fails here first."""

import ast
import dataclasses
import importlib
import os
import pkgutil
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gclrec
from gclrec import dataset, diffcore, model, trainer

from conftest import random_interactions

ROOT = Path(__file__).resolve().parents[1]
BENCHMARKS = ROOT / "benchmarks"


@pytest.mark.parametrize("name", sorted(
    m.name for m in pkgutil.iter_modules(gclrec.__path__)))
def test_exported_names_resolve(name):
    module = importlib.import_module(f"gclrec.{name}")
    exported = getattr(module, "__all__", ())
    assert [attr for attr in exported if not hasattr(module, attr)] == []


# the tape machinery and the gradient checker, which serve the
# primitives and their tests rather than being primitives themselves
DIFFCORE_TOOLING = {"Tape", "Node", "ShapeError", "DiffError",
                    "check_gradients"}


def test_every_primitive_is_called_from_the_package():
    """A primitive that only tests call is dead code: each one exported
    by diffcore is called as ``<alias>.name(...)`` on the diffcore module,
    or by a name imported from it, in another gclrec module."""
    called = set()
    for path in Path(gclrec.__file__).parent.glob("*.py"):
        if path.name == "diffcore.py":
            continue
        tree = ast.parse(path.read_text())
        aliases, names = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None and alias.name == "diffcore":
                        aliases.add(alias.asname or alias.name)
                    elif node.module == "diffcore":
                        names.add(alias.asname or alias.name)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id in aliases):
                called.add(func.attr)
            elif isinstance(func, ast.Name) and func.id in names:
                called.add(func.id)
    assert sorted(set(diffcore.__all__) - DIFFCORE_TOOLING - called) == []


def test_no_backward_pass_reads_a_node_value():
    """Each primitive's backward closure takes the arrays it reads when
    the node is built: no ``bw`` function in diffcore reads a node's
    ``value``, which a release may have dropped."""
    tree = ast.parse(Path(diffcore.__file__).read_text())
    passes = [fn for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name == "bw"]
    reads = [node.lineno for fn in passes for node in ast.walk(fn)
             if isinstance(node, ast.Attribute) and node.attr == "value"]
    assert len(passes) > 10 and reads == []


# records the mallopt calls made through ctypes, then imports every
# gclrec module and, after a check, builds a tiny training context; the
# caller appends the operation that sets the policy
ALLOCATOR_PROBE = """
import ctypes, importlib, pkgutil, sys
calls = []
real_cdll = ctypes.CDLL

class Recording:
    def __init__(self, lib):
        self.lib = lib
    def __getattr__(self, name):
        fn = getattr(self.lib, name)
        if name != "mallopt":
            return fn
        def mallopt(*args):
            calls.append(args)
            return fn(*args)
        return mallopt

ctypes.CDLL = lambda *args, **kwargs: Recording(real_cdll(*args, **kwargs))
import gclrec
for module in pkgutil.iter_modules(gclrec.__path__):
    importlib.import_module("gclrec." + module.name)
assert calls == [], f"import called mallopt: {calls}"

import numpy as np
from conftest import random_interactions
from gclrec import trainer, model
cfg = trainer.TrainConfig(d=4, h=4, L=2, gamma=1.0, batch_size=16)
data = random_interactions(8, 9, density=0.4, seed=1)
ctx = trainer.build_context(data, cfg)
params = model.init_params(8, 9, 4, 4, seed=1)
assert calls == [], calls
"""
ALLOCATOR_SET = """
assert calls == [(-3, 1 << 30), (-1, 2 ** 31 - 1)], calls
"""


def run_probe(source):
    """Run ``source`` in a fresh Python with src/ and tests/ importable;
    fails the test with its stderr when it fails."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(ROOT / "src"), str(ROOT / "tests"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", source], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_first_training_epoch_sets_the_allocator():
    """Importing gclrec calls no mallopt; the first train_epoch sets the
    allocator policy, once.  A fresh process, because another test may
    already have trained in this one."""
    run_probe(ALLOCATOR_PROBE + """
for _ in range(2):
    trainer.train_epoch(params, ctx, cfg, np.random.default_rng(1),
                        trainer.AdamState())
""" + ALLOCATOR_SET)


def test_first_evaluation_sets_the_allocator():
    """A standalone evaluation, with no training before it, sets the
    allocator policy once too."""
    run_probe(ALLOCATOR_PROBE + """
for _ in range(2):
    trainer.evaluate_model(params, ctx, data, cfg, ks=(2,))
""" + ALLOCATOR_SET)


def test_scipy_spatial_is_imported_on_first_use():
    """Importing the modules a training or evaluation run imports leaves
    scipy.spatial, about 10 MB of resident memory, unloaded; the two
    functions that use it load it and return their recorded values."""
    run_probe("""
import sys
import numpy as np
import gclrec.cli, gclrec.trainer
from gclrec import losses, metrics
assert "scipy.spatial" not in sys.modules
rng = np.random.default_rng(5)
x, y = rng.normal(size=(40, 6)), rng.normal(size=(30, 6))
assert losses.median_bandwidth(x, y).hex() == "0x1.96ac9070052b1p+1"
z_u, z_i = rng.normal(size=(12, 6)), rng.normal(size=(15, 6))
pairs = np.column_stack([rng.integers(0, 12, 25), rng.integers(0, 15, 25)])
align, uniform = metrics.alignment_uniformity(z_u, z_i, pairs)
assert (align.hex(), uniform.hex()) == ("0x1.00fe4226233e2p+1",
                                        "-0x1.5165dc1413bfcp+1")
""")


def test_scipy_special_is_imported_on_first_use():
    """The modules an evaluation imports, and the evaluation itself,
    leave scipy.special, about 5.5 MB of resident memory, unloaded;
    gelu's forward pass and softplus's backward pass load it and return
    their recorded values."""
    run_probe("""
import sys
import numpy as np
import gclrec.cli, gclrec.trainer
from conftest import random_interactions
from gclrec import diffcore as dc, model, trainer
cfg = trainer.TrainConfig(d=4, h=4, L=2, gamma=1.0, batch_size=16)
data = random_interactions(8, 9, density=0.4, seed=1)
ctx = trainer.build_context(data, cfg)
params = model.init_params(8, 9, 4, 4, seed=1)
trainer.evaluate_model(params, ctx, data, cfg, ks=(2,))
assert "scipy.special" not in sys.modules
v = np.random.default_rng(8).normal(scale=3.0, size=(5, 4))
got = []
for op in (dc.gelu, dc.softplus):
    tape = dc.Tape()
    y = op(tape.leaf(v, name="x"))
    value = y.value[1, 2]
    grad = dc.backward(dc.reduce_sum(dc.mul(y, y)))["x"][3, 1]
    got += [value.hex(), grad.hex()]
assert got == ["-0x1.8031f69e2fd04p-8", "0x1.2111e79499fe5p+3",
               "0x1.c30bd0feddf92p-5", "0x1.1e9daa7232f21p+3"], got
""")


def test_benchmark_wrapped_attributes_exist():
    # run_path compiles the file without writing a bytecode cache beside it
    wrapped = runpy.run_path(str(BENCHMARKS / "spans.py"))["WRAPPED"]
    missing = [f"{module.__name__}.{attr}" for module, attr, _ in wrapped
               if not hasattr(module, attr)]
    assert missing == []


def test_benchmark_calls_run(tmp_path):
    """The calls benchmarks/run.py makes, in its order, on a tiny log."""
    data = random_interactions(12, 15, density=0.5, seed=1, min_per_user=3)
    log = tmp_path / "log.txt"
    log.write_text("".join(f"u{u} i{i}\n" for u, i in data.pairs.tolist()))
    cfg = trainer.TrainConfig(seed=1, batch_size=16)
    cfg.validate()
    fold = dataset.make_folds(dataset.load_interactions(log),
                              cfg.folds, cfg.seed)[0]
    ctx = trainer.build_context(fold.train, cfg)
    params = model.init_params(ctx.num_users, ctx.num_items, cfg.d, cfg.h,
                               seed=cfg.seed + fold.fold_index)
    initial = params.base_embedding.copy()
    view = fold.train.view(np.arange(cfg.batch_size))
    batch_ctx = dataclasses.replace(ctx, train=view)
    assert (batch_ctx.num_users, batch_ctx.num_items) == (
        fold.train.num_users, fold.train.num_items)
    report = trainer.train_epoch(
        params, batch_ctx, cfg,
        np.random.default_rng([1, 2, 0]), trainer.AdamState())
    assert all(np.isfinite(v) for v in dataclasses.astuple(report))
    arrays = params.param_arrays()
    assert all(np.all(np.isfinite(a)) for a in arrays.values())
    assert not np.array_equal(arrays["base_embedding"], initial)
    got = trainer.evaluate_model(params, ctx, fold.test, cfg, ks=(5, 10, 20))
    assert sorted(got) == [5, 10, 20]
    z_u, z_i = trainer.eval_embeddings(params, ctx, cfg)
    assert z_u.shape == (ctx.num_users, cfg.d)
    assert z_i.shape == (ctx.num_items, cfg.d)


def test_evaluate_model_calls_the_ranking_names_in_trainer(monkeypatch):
    """benchmarks/run.py --inject wrong-ranking and the span wrappers
    replace trainer.rank_topk and trainer.topk_metrics, so evaluate_model
    must look both up there at call time."""
    data = random_interactions(12, 15, density=0.5, seed=2, min_per_user=3)
    cfg = trainer.TrainConfig(seed=1, d=4, h=4, L=2)
    cfg.validate()
    fold = dataset.make_folds(data, cfg.folds, cfg.seed)[0]
    ctx = trainer.build_context(fold.train, cfg)
    params = model.init_params(ctx.num_users, ctx.num_items, cfg.d, cfg.h,
                               seed=1)
    want = trainer.evaluate_model(params, ctx, fold.test, cfg, ks=(5, 10))
    calls = []
    for name in ("rank_topk", "topk_metrics"):
        def wrapped(*args, _name=name, _original=getattr(trainer, name),
                    **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)
        monkeypatch.setattr(trainer, name, wrapped)
    assert trainer.evaluate_model(params, ctx, fold.test, cfg,
                                  ks=(5, 10)) == want
    assert calls == ["rank_topk", "topk_metrics", "topk_metrics"]
