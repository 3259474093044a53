"""End-to-end acceptance checks.

Each test prints one PASS/FAIL/SKIP line into the pytest terminal
summary.  The four benchmark checks need the CiaoDVD ratings file; they
look for it at data/ciaodvd/ratings.txt (or $GDA_REC_DATA) and skip
loudly when it is absent, since this sandbox has no network access to
fetch it.  Everything else runs on synthetic instances.
"""

import os
import time
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import scipy.sparse as sp

import gclrec.diffcore as dc
import gclrec.losses as ls
from gclrec.dataset import InteractionSet, load_interactions, make_folds
from gclrec.graphs import build_complement, build_graph
from gclrec.model import encode, init_params
from gclrec.metrics import rank_topk, topk_metrics
from gclrec.trainer import TrainConfig, _batch_loss, build_context, fit

from conftest import (record_acceptance, random_interactions, train_matrix,
                      train_process)
from oracles import complement_dense, propagate_dense, ranking_metrics_dense

DATASET_ENV = "GDA_REC_DATA"
DATASET_DEFAULT = Path(__file__).resolve().parents[1] / "data/ciaodvd/ratings.txt"

_crossval_cache = {}
_dataset_cache = {}


def _find_dataset():
    for candidate in (os.environ.get(DATASET_ENV), DATASET_DEFAULT):
        if candidate and os.path.exists(candidate):
            return str(candidate)
    return None


def _require_dataset(number, description):
    path = _find_dataset()
    if path is None:
        record_acceptance(number, description, "SKIP")
        pytest.skip(
            f"CiaoDVD ratings file not found (checked ${DATASET_ENV} and "
            f"{DATASET_DEFAULT}); this environment has no network access "
            "to fetch it. Place the file and rerun to exercise this "
            "criterion.")
    if path not in _dataset_cache:
        _dataset_cache[path] = load_interactions(path)
    return _dataset_cache[path]


def _verdict(number, description, passed, detail=""):
    record_acceptance(number, description, "PASS" if passed else "FAIL")
    assert passed, f"criterion {number} ({description}): {detail}"


def _crossval_means(data, label, overrides):
    """Mean best metrics over all folds, cached per configuration."""
    if label in _crossval_cache:
        return _crossval_cache[label]
    cfg = TrainConfig()
    cfg.apply_strings(overrides)
    folds = make_folds(data, cfg.folds, cfg.seed)
    per_fold = [fit(cfg, fold).best_metrics for fold in folds]
    means = {
        k: {
            "precision": sum(m[k].precision for m in per_fold) / len(per_fold),
            "recall": sum(m[k].recall for m in per_fold) / len(per_fold),
            "ndcg": sum(m[k].ndcg for m in per_fold) / len(per_fold),
        }
        for k in (5, 10, 20)
    }
    _crossval_cache[label] = means
    return means


def test_criterion_01_crossval_quality_target():
    desc = "5-fold cross-validation quality target on CiaoDVD"
    data = _require_dataset(1, desc)
    start = time.monotonic()
    means = _crossval_means(data, "full", {})
    minutes = (time.monotonic() - start) / 60.0
    recall, ndcg = means[20]["recall"], means[20]["ndcg"]
    _verdict(1, desc,
             recall >= 0.115 and ndcg >= 0.055 and minutes <= 60.0,
             f"recall@20={recall:.4f} ndcg@20={ndcg:.4f} "
             f"runtime={minutes:.1f}min")


def test_criterion_02_plain_propagation_baseline():
    desc = "noise-off/complement-off/contrast-off baseline on CiaoDVD"
    data = _require_dataset(2, desc)
    means = _crossval_means(data, "lightgcn", {
        "noise.mode": "none",
        "complement.enabled": "false",
        "lambda": "0",
    })
    recall = means[20]["recall"]
    target = 0.1174
    _verdict(2, desc, abs(recall - target) / target <= 0.15,
             f"recall@20={recall:.4f}, reference {target}")


def test_criterion_03_ablation_ordering():
    desc = "full model beats fixed-noise and no-noise variants on CiaoDVD"
    data = _require_dataset(3, desc)
    full = _crossval_means(data, "full", {})[20]["recall"]
    rand = _crossval_means(data, "w/-rand",
                           {"noise.mode": "random"})[20]["recall"]
    none = _crossval_means(data, "w/o-g",
                           {"noise.mode": "none"})[20]["recall"]
    _verdict(3, desc,
             full > rand * 1.01 and full > none * 1.01,
             f"full={full:.4f} w/-rand={rand:.4f} w/o-g={none:.4f}")


def _gradcheck_instance(distribution):
    rng0 = np.random.default_rng(0)
    rows = []
    for u in range(5):
        for i in rng0.choice(6, size=3, replace=False):
            rows.append((u, int(i)))
    pairs = np.array(sorted(set(rows)), dtype=np.int64)
    data = InteractionSet(5, 6, pairs)

    cfg = TrainConfig()
    cfg.d, cfg.h, cfg.L, cfg.gamma, cfg.batch_size = 4, 4, 2, 1.0, 64
    cfg.noise_distribution = distribution
    cfg.validate()
    ctx = build_context(data, cfg)
    params = init_params(5, 6, cfg.d, cfg.h, seed=3)

    users, pos = pairs[:, 0].copy(), pairs[:, 1].copy()
    neg = (pos + 1) % 6

    def f(point):
        probe = params.copy()
        table = probe.param_arrays()
        for name, arr in point.items():
            table[name][...] = arr
        # a fresh rng per evaluation draws the same epsilon each time
        rng = np.random.default_rng(0)
        _, total, grads = _batch_loss(probe, ctx, cfg, rng, users, pos, neg)
        return total.value[0, 0], grads

    point = {k: v.copy() for k, v in params.param_arrays().items()}
    # the adaptive bandwidth heuristic is treated as a constant, so a
    # fixed value keeps finite differences comparable
    with mock.patch.object(ls, "median_bandwidth", return_value=1.3):
        return dc.check_gradients(f, point, h=1e-5)


def test_criterion_04_joint_loss_gradient_oracle():
    desc = "joint training loss matches central differences"
    # gaussian noise brings the KL term, uniform noise the MMD term
    worst = {distribution: _gradcheck_instance(distribution)
             for distribution in ("gaussian", "uniform")}
    _verdict(4, desc, all(err < 1e-4 for err in worst.values()),
             f"relative errors {worst}")


def test_criterion_05_complement_matrix_oracle():
    desc = "co-consumption matrix matches dense oracle on 200 instances"
    rng = np.random.default_rng(101)
    failures = []
    # some instances filter every entry out, which build_complement reports
    with pytest.warns(UserWarning, match="complement matrix is empty"):
        for trial in range(200):
            m = int(rng.integers(1, 21))
            n = int(rng.integers(1, 21))
            gamma = float(rng.integers(0, 4))
            R = (rng.random((m, n)) < 0.35).astype(np.float64)
            got = build_complement(sp.csr_matrix(R), gamma).toarray()
            want = complement_dense(R, gamma)
            if not np.array_equal(got != 0.0, want != 0.0):
                failures.append((trial, "support"))
            elif np.max(np.abs(got - want)) > 1e-12:
                failures.append((trial, "values"))
    _verdict(5, desc, not failures, f"mismatches: {failures[:5]}")


def test_criterion_06_ranking_metrics_oracle():
    desc = "top-k ranking metrics match brute-force oracle on 200 instances"
    rng = np.random.default_rng(202)
    failures = []
    for trial in range(200):
        n = int(rng.integers(2, 31))
        num_users = int(rng.integers(1, 8))
        k = int(rng.integers(1, min(10, n) + 1))
        d = 3
        z_u = rng.standard_normal((num_users, d))
        z_i = rng.standard_normal((n, d))
        if trial % 3 == 0:
            z_i = np.round(z_i, 1)  # force score ties
        train_items, test_sets = [], []
        for u in range(num_users):
            perm = rng.permutation(n)
            held = np.sort(perm[:int(rng.integers(0, max(1, n // 3)))])
            rest = perm[len(held):]
            test_sets.append(rest[:int(rng.integers(0, 4))].tolist())
            train_items.append(held.astype(np.int64))
        top = rank_topk(z_u, z_i, train_matrix(train_items, n), k,
                        np.arange(num_users))
        got = topk_metrics(top, train_matrix(test_sets, n), k)
        scores = z_u @ z_i.T
        sums = np.zeros(3)
        evaluated = 0
        for u in range(num_users):
            if not test_sets[u]:
                continue
            sums += ranking_metrics_dense(scores[u], train_items[u],
                                          test_sets[u], k)
            evaluated += 1
        want = sums / evaluated if evaluated else sums
        for field, value in zip(("precision", "recall", "ndcg"), want):
            if abs(getattr(got, field) - value) > 1e-12:
                failures.append((trial, field))
    worked = topk_metrics(np.array([[0, 1, 2]]), train_matrix([[1]], 3), k=3)
    if round(worked.ndcg, 4) != 0.6309:
        failures.append(("worked-example", worked.ndcg))
    _verdict(6, desc, not failures, f"mismatches: {failures[:5]}")


def test_criterion_07_closed_form_losses():
    desc = "loss values match hand-derived closed forms"
    checks = {}

    tape = dc.Tape()
    zero = tape.leaf(np.zeros((4, 1)), "m")
    checks["bpr_zero_margin"] = abs(
        ls.bpr_loss(zero, zero).value[0, 0] - np.log(2.0))

    tape = dc.Tape()
    v = tape.leaf(np.array([[0.6, 0.8]]), "v")
    checks["infonce_single_row"] = abs(ls.infonce(v, v, 0.2).value[0, 0])

    tape = dc.Tape()
    eye = tape.leaf(np.eye(2), "e")
    expected = float(np.logaddexp(0.0, -5.0))
    checks["infonce_orthonormal"] = abs(
        ls.infonce(eye, eye, 0.2).value[0, 0] - expected)

    tape = dc.Tape()
    mu0 = tape.leaf(np.zeros((3, 2)), "mu")
    var1 = tape.leaf(np.ones((3, 2)), "var")
    checks["kl_standard_normal"] = abs(
        ls.kl_loss(mu0, var1).value[0, 0])

    tape = dc.Tape()
    mu2 = tape.leaf(np.full((3, 2), 2.0), "mu")
    var1 = tape.leaf(np.ones((3, 2)), "var")
    checks["kl_mu2_standard"] = abs(
        ls.kl_loss(mu2, var1).value[0, 0] - 2.0)

    tape = dc.Tape()
    x = tape.leaf(np.array([[0.1, 0.4], [-0.3, 0.2]]), "x")
    same = tape.constant(x.value.copy())
    checks["mmd_identical_sets"] = abs(ls.mmd_loss(x, same, 0.7).value[0, 0])

    _verdict(7, desc, all(err < 1e-9 for err in checks.values()),
             f"errors {checks}")


def test_criterion_08_plain_propagation_reduction():
    desc = "noise-free encoder equals direct propagation reference"
    rng = np.random.default_rng(303)
    worst = 0.0
    # the check reads only the user-item channel; some instances have an
    # empty complement, which build_graph reports
    with pytest.warns(UserWarning, match="complement matrix is empty"):
        for _ in range(10):
            m = int(rng.integers(2, 9))
            n = int(rng.integers(2, 9))
            L = int(rng.integers(1, 5))
            data = random_interactions(m, n, density=0.4,
                                       seed=int(rng.integers(1 << 30)))
            graph = build_graph(data, gamma=1.0)
            params = init_params(m, n, 4, 4, seed=int(rng.integers(1 << 30)))
            tape = dc.Tape()
            cfg = TrainConfig(L=L, noise_mode="none")
            out = encode(tape, params.leaves(tape),
                         replace(graph, comp=None), cfg, None)
            a_dense = graph.ui.toarray()
            zero_noise = [np.zeros((m + n, 4))] * L
            want, _ = propagate_dense(a_dense, params.base_embedding,
                                      zero_noise, L)
            got = np.vstack([out.z_u.value, out.z_i.value])
            worst = max(worst, float(np.max(np.abs(got - want))))
    _verdict(8, desc, worst <= 1e-12, f"max deviation {worst}")


def test_criterion_09_training_determinism(tmp_path):
    desc = "repeated single-threaded training is bit-identical"
    data = random_interactions(12, 15, density=0.3, seed=11, min_per_user=3)
    ratings = tmp_path / "ratings.txt"
    ratings.write_text(
        "\n".join(f"{u} {i}" for u, i in data.pairs.tolist()) + "\n")
    outputs = []
    for run in ("a", "b"):
        out = tmp_path / run
        train_process(
            "--out", str(out), "--set", f"data.path={ratings}",
            "--set", "d=8", "--set", "h=8", "--set", "L=2",
            "--set", "gamma=1.0", "--set", "batch_size=16",
            "--set", "epochs_max=4", "--set", "eval_interval=2",
            "--set", "folds=3")
        outputs.append(out)
    same = all(
        (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes()
        for name in ("history.csv", "checkpoint.npz"))
    _verdict(9, desc, same, "history or checkpoint bytes differ")


def test_criterion_10_diagnostic_claims():
    desc = "filter threshold peaks at 3 and default view pair is near-best"
    data = _require_dataset(10, desc)
    cfg = TrainConfig()
    folds = make_folds(data, cfg.folds, cfg.seed)
    fold = folds[0]

    sweep = {}
    for gamma in (1.0, 2.0, 3.0, 4.0, 5.0):
        c = cfg.copy()
        c.gamma = gamma
        sweep[gamma] = fit(c, fold).best_metrics[20].recall
    gamma_ok = max(sweep, key=sweep.get) == 3.0

    selectors = [str(i) for i in range(1, cfg.L + 1)] + ["avg"]
    grid = {}
    for va in selectors:
        for vb in selectors:
            c = cfg.copy()
            c.cl_view_a, c.cl_view_b = va, vb
            c.validate()
            grid[(va, vb)] = fit(c, fold).best_metrics[20].ndcg
    best = max(grid.values())
    default_ok = grid[("avg", "1")] >= 0.98 * best

    _verdict(10, desc, gamma_ok and default_ok,
             f"sweep {sweep}; default cell {grid[('avg', '1')]:.4f} "
             f"vs best {best:.4f}")
