import gc
import warnings
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

import gclrec.diffcore as dc
import gclrec.trainer as tr
from gclrec.cli import ABLATION_VARIANTS
from gclrec.dataset import FoldSplit, make_folds, sample_negatives
from gclrec.diffcore import DiffError, Tape
from gclrec.graphs import build_interaction_matrix
from gclrec.losses import LossReport
from gclrec.metrics import alignment_uniformity, rank_topk, topk_metrics
import gclrec.model as model
from gclrec.model import encode, init_params
from gclrec.trainer import (
    AdamState,
    ConfigError,
    TrainConfig,
    adam_step,
    build_context,
    evaluate_model,
    fit,
    train_epoch,
)

from conftest import (held, make_interactions, random_interactions,
                      traced_peak)
from oracles import batch_loss_dense


def tiny_config(**overrides):
    # replace rejects a field TrainConfig does not have
    cfg = replace(TrainConfig(d=4, h=4, L=2, gamma=1.0, batch_size=8,
                              epochs_max=5, eval_interval=2, patience=3,
                              seed=0), **overrides)
    cfg.validate()
    return cfg


class TestTrainConfig:
    def test_defaults_are_the_published_settings(self):
        cfg = TrainConfig()
        assert cfg.d == 64
        assert cfg.L == 3
        assert cfg.gamma == 3.0
        assert cfg.tau == 0.2
        assert cfg.lambda_ == 1.0
        assert cfg.learning_rate == 0.001
        assert cfg.batch_size == 2048
        assert cfg.reg_coeff == 0.0001
        assert cfg.folds == 5

    def test_round_trip_identity(self):
        cfg = TrainConfig()
        cfg.gamma = 2.5
        cfg.noise_mode = "random"
        cfg.complement_enabled = False
        table = cfg.to_strings()
        rebuilt = TrainConfig.from_strings(table)
        assert rebuilt.to_strings() == table

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="nois.mode"):
            TrainConfig.from_strings({"nois.mode": "none"})

    def test_bad_value_named(self):
        with pytest.raises(ConfigError, match="batch_size"):
            TrainConfig.from_strings({"batch_size": "many"})

    def test_dotted_keys_map(self):
        cfg = TrainConfig.from_strings({
            "lambda": "0.5",
            "noise.mode": "none",
            "complement.enabled": "false",
            "noise.distribution": "uniform",
            "cl.view_a": "avg",
        })
        assert cfg.lambda_ == 0.5
        assert cfg.noise_mode == "none"
        assert not cfg.complement_enabled
        assert cfg.noise_distribution == "uniform"

    def test_unknown_field_cannot_be_assigned(self):
        with pytest.raises(AttributeError):
            TrainConfig().noise_scale = "stddev"

    def test_view_selector_validated_against_layers(self):
        with pytest.raises(ConfigError, match="cl.view_a"):
            TrainConfig.from_strings({"cl.view_a": "7"})
        with pytest.raises(ConfigError, match="cl.view_b"):
            TrainConfig.from_strings({"cl.view_b": "first"})
        TrainConfig.from_strings({"cl.view_a": "3"})  # valid for L=3

    def test_keys_name_every_field_once_with_its_types_parser(self):
        rows = list(TrainConfig.KEYS.values())
        assert [name for name, _ in rows] == [
            f.name for f in fields(TrainConfig)]
        for f, (_, parse) in zip(fields(TrainConfig), rows):
            assert parse is (tr._parse_bool if f.type is bool else f.type)

    def test_range_checks(self):
        for table in ({"tau": "0"}, {"folds": "1"}, {"d": "0"},
                      {"noise.mode": "white"},
                      {"noise.distribution": "laplace"}, {"seed": "-1"}):
            with pytest.raises(ConfigError):
                TrainConfig.from_strings(table)


class TestAdam:
    def test_first_step_magnitude_is_lr(self):
        p = np.array([[1.0, -2.0]])
        g = np.array([[0.3, -0.7]])
        state = AdamState()
        adam_step({"p": p}, {"p": g}, state, lr=0.01)
        # bias correction makes the first update sign(g) * lr, up to eps
        np.testing.assert_allclose(p, [[1.0 - 0.01, -2.0 + 0.01]], atol=1e-6)
        assert state.t == 1

    def test_zero_gradient_keeps_params(self):
        p = np.array([[3.0]])
        state = AdamState()
        adam_step({"p": p}, {"p": np.zeros((1, 1))}, state)
        np.testing.assert_array_equal(p, [[3.0]])

    def test_nonfinite_gradient_raises(self):
        state = AdamState()
        with pytest.raises(DiffError, match="diverged"):
            adam_step({"p": np.ones((1, 1))},
                      {"p": np.array([[np.nan]])}, state)

    def test_nonfinite_last_gradient_changes_nothing(self):
        # a divergence found in the last table entry must not leave the
        # earlier parameters and moments half-updated
        table = {"a": np.array([[1.0]]), "b": np.array([[2.0]])}
        state = AdamState()
        adam_step(table, {"a": np.array([[0.3]]), "b": np.array([[0.4]])},
                  state)
        tables = (table, state.m, state.v)
        before = [{k: v.copy() for k, v in d.items()} for d in tables]
        with pytest.raises(DiffError, match="'b'"):
            adam_step(table, {"a": np.array([[0.5]]),
                              "b": np.array([[np.nan]])}, state)
        assert state.t == 1
        for want, got in zip(before, tables):
            assert want.keys() == got.keys()
            for k in want:
                np.testing.assert_array_equal(got[k], want[k])

    @pytest.mark.parametrize("g, steps", [(1e160, 1), (2e154, 0)])
    def test_overflowing_second_moment_changes_nothing(self, g, steps):
        # 1e160: (1 - beta2) g g overflows; 2e154 at t = 1: the moment is
        # finite but its bias-corrected value is not
        table = {"a": np.array([[1.0, 1.0]]), "b": np.array([[2.0, 2.0]])}
        state = AdamState()
        for _ in range(steps):
            adam_step(table, {"a": np.array([[0.3, 0.1]]),
                              "b": np.array([[0.4, 0.2]])}, state)
        tables = (table, state.m, state.v)
        before = [{k: v.copy() for k, v in d.items()} for d in tables]
        with pytest.raises(DiffError, match="second moment for 'b'"):
            adam_step(table, {"a": np.array([[0.5, 0.5]]),
                              "b": np.array([[1.0, -g]])}, state)
        assert state.t == steps
        for want, got in zip(before, tables):
            assert want.keys() == got.keys()
            for k in want:
                np.testing.assert_array_equal(got[k], want[k])

    def test_moment_bound_overflow_alone_does_not_raise(self):
        # the largest v and the largest |g| sit in different entries:
        # their bound overflows, while neither entry does
        p = np.array([[1.0, 1.0]])
        state = AdamState(m={"p": np.zeros((1, 2))},
                          v={"p": np.array([[1.7e308, 0.0]])}, t=10_000)
        adam_step({"p": p}, {"p": np.array([[0.0, 1e155]])}, state)
        assert state.t == 10_001
        assert np.isfinite(state.v["p"]).all() and p[0, 1] < 1.0

    def test_converges_on_quadratic(self):
        p = np.array([[5.0]])
        state = AdamState()
        for _ in range(2000):
            adam_step({"p": p}, {"p": 2.0 * p}, state, lr=0.05)
        assert abs(p[0, 0]) < 1e-3


def toy_fold(seed=0):
    data = random_interactions(6, 8, density=0.35, seed=seed, min_per_user=2)
    return make_folds(data, k=3, seed=seed)[0]


class TestTrainEpoch:
    def test_loss_decreases_on_toy_data(self):
        data = make_interactions(3, 4, [(0, 0), (0, 1), (1, 1), (1, 2),
                                        (2, 2), (2, 3), (0, 3), (1, 0)])
        cfg = tiny_config(learning_rate=0.01, batch_size=8)
        ctx = build_context(data, cfg)
        params = init_params(3, 4, cfg.d, cfg.h, seed=1)
        rng = np.random.default_rng(1)
        state = AdamState()
        first = train_epoch(params, ctx, cfg, rng, state)
        last = None
        for _ in range(49):
            last = train_epoch(params, ctx, cfg, rng, state)
        assert last.total < first.total

    def test_variance_overflow_raises_where_it_happens(self):
        # exp(800) overflows; the step stops there with a DiffError that
        # names sigma^2, and numpy warns of nothing on the way (the suite
        # fails on any warning from the package)
        fold = toy_fold()
        cfg = tiny_config()
        ctx = build_context(fold.train, cfg)
        params = init_params(6, 8, cfg.d, cfg.h, seed=1)
        params.param_arrays()["gen.b3"][0, cfg.d:] = 800.0
        with pytest.raises(DiffError, match=r"sigma\^2 = exp\(log-variance"):
            train_epoch(params, ctx, cfg, np.random.default_rng(0),
                        AdamState())

    @pytest.mark.parametrize("name, entries, value, message", [
        # the reconstruction overflows to nan in the forward pass
        ("rec.w3", np.s_[:], 1e160, "loss component 'recon' is not finite"),
        # sigma^2 = exp(-740) is positive and the KL term finite, but its
        # gradient -c / sigma^2 overflows in the backward pass
        ("gen.b3", np.s_[0, 4:], -740.0,
         "non-finite gradient for 'base_embedding'")],
        ids=["recon", "gradient"])
    def test_numeric_failure_raises_without_a_warning(self, name, entries,
                                                      value, message):
        fold = toy_fold()
        cfg = tiny_config()
        ctx = build_context(fold.train, cfg)
        params = init_params(6, 8, cfg.d, cfg.h, seed=1)
        before = params.copy()
        params.param_arrays()[name][entries] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DiffError, match=message):
                train_epoch(params, ctx, cfg, np.random.default_rng(0),
                            AdamState())
        for key, arr in params.param_arrays().items():
            if key != name:
                assert np.array_equal(arr, before.param_arrays()[key]), key

    def test_every_positive_touched_once(self, monkeypatch):
        fold = toy_fold()
        cfg = tiny_config(batch_size=4)
        ctx = build_context(fold.train, cfg)
        params = init_params(6, 8, cfg.d, cfg.h, seed=2)
        seen = []
        original = tr._batch_loss

        def spy(params, ctx, cfg, rng, users, pos, neg):
            seen.extend(zip(users.tolist(), pos.tolist()))
            return original(params, ctx, cfg, rng, users, pos, neg)

        monkeypatch.setattr(tr, "_batch_loss", spy)
        train_epoch(params, ctx, cfg, np.random.default_rng(3), AdamState())
        assert sorted(seen) == sorted(map(tuple, fold.train.pairs.tolist()))

    def test_trajectory_bit_deterministic(self):
        fold = toy_fold()
        cfg = tiny_config(epochs_max=3)

        def run():
            ctx = build_context(fold.train, cfg)
            params = init_params(6, 8, cfg.d, cfg.h, seed=4)
            rng = np.random.default_rng(4)
            state = AdamState()
            return [train_epoch(params, ctx, cfg, rng, state).total
                    for _ in range(3)]

        assert run() == run()

    def test_negatives_avoid_train_items(self):
        fold = toy_fold()
        cfg = tiny_config()
        ctx = build_context(fold.train, cfg)
        rng = np.random.default_rng(5)
        users = fold.train.pairs[:, 0]
        neg = sample_negatives(ctx.R, users, rng)
        assert neg.shape == (len(users),)
        for u, item in zip(users, neg):
            assert item not in ctx.R[int(u)].indices


class TestBatchLoss:
    def test_multiple_negatives_rec_is_numpy_bpr(self):
        # the batch's positives each paired with one sampled negative
        fold = toy_fold()
        cfg = tiny_config(noise_mode="none", lambda_=0.0)
        ctx = build_context(fold.train, cfg)
        params = init_params(6, 8, cfg.d, cfg.h, seed=8)
        rng = np.random.default_rng(9)
        users, pos = fold.train.pairs[:, 0], fold.train.pairs[:, 1]
        neg = sample_negatives(ctx.R, users, rng)
        report, _, _ = tr._batch_loss(params, ctx, cfg, rng, users, pos, neg)
        z_u, z_i = tr.eval_embeddings(params, ctx, cfg)
        pos_scores = np.sum(z_u[users] * z_i[pos], axis=1)
        neg_scores = np.sum(z_u[users] * z_i[neg], axis=1)
        want = np.mean(np.logaddexp(0.0, neg_scores - pos_scores))
        assert abs(report.rec - want) < 1e-12

    def test_mmd_prior_is_drawn_after_the_encoder(self, monkeypatch):
        # one full-height epsilon per (channel, layer), user-item layers
        # first, then the MMD term's uniform prior over the touched rows
        fold = toy_fold()
        cfg = tiny_config(noise_distribution="uniform")
        ctx = build_context(fold.train, cfg)
        params = init_params(6, 8, cfg.d, cfg.h, seed=2)
        users, pos = fold.train.pairs[:, 0], fold.train.pairs[:, 1]
        neg = sample_negatives(ctx.R, users, np.random.default_rng(4))
        priors, original = [], tr.ls.mmd_loss

        def spy(gen, prior, bandwidth):
            priors.append(prior.value.copy())
            return original(gen, prior, bandwidth)

        monkeypatch.setattr(tr.ls, "mmd_loss", spy)
        rng = np.random.default_rng(3)
        tr._batch_loss(params, ctx, cfg, rng, users, pos, neg)
        replay = np.random.default_rng(3)
        for height in [6 + 8] * cfg.L + [8] * cfg.L:
            replay.standard_normal((height, cfg.d))
        touched = np.unique(np.concatenate([users, 6 + pos, 6 + neg]))
        assert np.array_equal(priors[0], replay.random((len(touched), cfg.d)))
        assert np.array_equal(rng.standard_normal(8),
                              replay.standard_normal(8))

    @pytest.mark.parametrize(
        "overrides",
        list(ABLATION_VARIANTS.values()) + [
            {"lambda": "0"},
            {"cl.view_a": "1", "cl.view_b": "2"},
            {"L": "3", "cl.view_a": "1", "cl.view_b": "2"}],
        ids=list(ABLATION_VARIANTS) + ["lambda-0", "views-1-2",
                                       "views-1-2-L3"])
    def test_backward_reaches_every_differentiable_node(self, monkeypatch,
                                                        overrides):
        fold = toy_fold()
        cfg = tiny_config().apply_strings(overrides)
        ctx = build_context(fold.train, cfg)
        params = init_params(6, 8, cfg.d, cfg.h, seed=2)
        rng = np.random.default_rng(3)
        users, pos = fold.train.pairs[:, 0], fold.train.pairs[:, 1]
        neg = sample_negatives(ctx.R, users, rng)
        swept, original = [], dc.backward

        def spy(loss):
            swept.extend(loss.tape.nodes)
            return original(loss)

        monkeypatch.setattr(dc, "backward", spy)
        tr._batch_loss(params, ctx, cfg, rng, users, pos, neg)
        assert swept
        # the sweep retires each node it reaches; a differentiable node
        # that keeps its backward closure was computed for nothing
        assert [n.op for n in swept
                if n.needs_grad and n._backward is not None] == []


class TestDenseStepOracle:
    """Each term of a default step equals its dense, full-height form,
    written from the model's description: no tape, no pruning."""

    # users 0-4 share items 0-3, so at the default gamma of 3 those items
    # have complement neighbours; items 5, 6 and 9 have none
    ITEMS = ((0, 1, 2, 4), (0, 1, 3, 5), (0, 2, 3, 6), (1, 2, 3, 8),
             (0, 1, 2), (0, 3, 5), (4, 5, 6), (6, 9))

    @pytest.mark.parametrize("overrides", [
        {"L": 1}, {"L": 2}, {"L": 3}, {"complement_enabled": False},
        {"noise_distribution": "uniform"},
        {"noise_distribution": "uniform", "L": 1},
        {"noise_mode": "random"},
        {"noise_mode": "random", "noise_distribution": "uniform"},
        {"lambda_": 0.0},
        {"lambda_": 0.0, "noise_distribution": "uniform"},
        {"cl_view_a": "1", "cl_view_b": "avg"},
        {"cl_view_a": "2", "cl_view_b": "3"},
        {"cl_view_a": "avg", "cl_view_b": "avg"}])
    def test_every_term_matches(self, overrides):
        data = make_interactions(8, 10, [(u, i) for u, items in
                                         enumerate(self.ITEMS)
                                         for i in items])
        cfg = replace(TrainConfig(), **overrides)
        cfg.validate()
        ctx = build_context(data, cfg)
        params = init_params(8, 10, cfg.d, cfg.h, seed=4)
        # user 0 is in the batch four times and user 5 three times; item
        # 9 is a positive with no complement neighbour
        batch = np.isin(data.pairs[:, 0], (0, 5, 7))
        users, pos = data.pairs[batch, 0], data.pairs[batch, 1]
        neg = sample_negatives(ctx.R, users, np.random.default_rng(2))
        if ctx.comp is not None:
            assert ctx.comp.nnz and ctx.comp[9].nnz == 0
        report, _, _ = tr._batch_loss(params, ctx, cfg,
                                      np.random.default_rng(3),
                                      users, pos, neg)
        want = batch_loss_dense(params.param_arrays(), ctx.R.toarray(), cfg,
                                np.random.default_rng(3), users, pos, neg)
        for field in fields(LossReport):
            assert getattr(report, field.name) == pytest.approx(
                want[field.name], rel=1e-10, abs=0), field.name


def last_arrays(monkeypatch):
    """node -> the last array it held, as built or as a release dropped
    it, for every node built through ``dc._op``, filled as a step runs."""
    last, op, release = {}, dc._op, dc.release

    def spy_op(*args):
        node = op(*args)
        last[node] = node.value
        return node

    def spy_release(nodes):
        nodes = list(nodes)
        last.update((n, n.value) for n in nodes
                    if n in last and n.value is not None)
        release(nodes)

    monkeypatch.setattr(dc, "_op", spy_op)
    monkeypatch.setattr(dc, "release", spy_release)
    return last


class TestTapeComposition:
    """A default step's forward tape holds only values its backward
    pass reads."""

    @staticmethod
    def run(overrides=None):
        """The step's (report, total, gradients) and its user-item
        height."""
        fold = toy_fold()
        cfg = tiny_config().apply_strings(overrides or {})
        ctx = build_context(fold.train, cfg)
        params = init_params(6, 8, cfg.d, cfg.h, seed=2)
        rng = np.random.default_rng(3)
        # three pairs touch fewer rows than the user-item channel holds
        users, pos = fold.train.pairs[:3, 0], fold.train.pairs[:3, 1]
        neg = sample_negatives(ctx.R, users, rng)
        return (tr._batch_loss(params, ctx, cfg, rng, users, pos, neg),
                ctx.num_users + ctx.num_items)

    def tape(self, monkeypatch, overrides=None):
        seen, swept, original = [], [], dc.backward

        def record(node, fn):
            def call(g):
                swept.append(node)
                fn(g)
            return call

        def spy(loss):
            # what the sweep starts from, before it retires any value,
            # and the order it runs the nodes' backward passes in
            seen.extend((n, n.value) for n in loss.tape.nodes)
            for n in loss.tape.nodes:
                if n._backward is not None:
                    n._backward = record(n, n._backward)
            return original(loss)

        monkeypatch.setattr(dc, "backward", spy)
        self.run(overrides)
        return seen, swept

    def encoded(self, monkeypatch):
        """The values the tape holds as the ranking term is built, after
        the encoder and before the release that precedes the contrastive
        term, and those it holds as the sweep starts."""
        held, original = {}, tr.ls.bpr_loss

        def spy(pos_scores, neg_scores):
            held.update((n, n.value) for n in pos_scores.tape.nodes)
            return original(pos_scores, neg_scores)

        monkeypatch.setattr(tr.ls, "bpr_loss", spy)
        seen, _ = self.tape(monkeypatch)
        return held, dict(seen)

    def at_sweep(self, monkeypatch, overrides=None):
        """Each node of a step with the last array it held (see
        :func:`last_arrays`), the arrays the tape holds as the sweep starts
        (see :func:`conftest.held`) and the user-item height."""
        last, alive, sweep = last_arrays(monkeypatch), {}, dc.backward

        def spy(loss):
            alive.update(held(loss.tape))
            return sweep(loss)

        monkeypatch.setattr(dc, "backward", spy)
        _, height = self.run(overrides)
        return last, alive, height

    @pytest.mark.parametrize("overrides", [{},
                                           {"noise.distribution": "uniform"},
                                           {"noise.mode": "random"}],
                             ids=["default", "mmd", "random"])
    def test_sweep_starts_with_only_values_backward_reads(self, monkeypatch,
                                                          overrides):
        # dropping the value of every node but the leaves, the constants
        # and the (1, 1) terms frees nothing: a backward closure holds
        # every other array the tape holds
        freed, sweep = [], dc.backward

        def spy(loss):
            nodes = [n for n in loss.tape.nodes if n.shape != (1, 1)
                     and n.op not in ("leaf", "constant")]
            values = [n.value for n in nodes]
            alive = held(loss.tape)
            for node in nodes:
                node.value = None
            freed.extend(alive.keys() - held(loss.tape).keys())
            for node, value in zip(nodes, values):
                node.value = value
            return sweep(loss)

        monkeypatch.setattr(dc, "backward", spy)
        self.run(overrides)
        assert freed == []

    @pytest.mark.parametrize("overrides, rebuilt", [
        ({}, True), ({"noise.distribution": "uniform"}, False)],
        ids=["default", "uniform"])
    def test_layer1_sample_is_rebuilt_with_its_gradients(self, monkeypatch,
                                                         overrides, rebuilt):
        # the first user-item block's sample goes after the reconstruction
        # gathers where it is gaussian, and nothing holds it as the sweep
        # starts; layer 1's node holding it instead gives the same bits
        samples, kept = [], []
        recon, sweep, propagate = tr.reconstruct, dc.backward, model.propagate

        def spy_recon(sample, *args):
            samples.append(sample.value)
            return recon(sample, *args)

        def spy_sweep(loss):
            kept.append(id(samples[-1]) in held(loss.tape))
            return sweep(loss)

        monkeypatch.setattr(tr, "reconstruct", spy_recon)
        monkeypatch.setattr(dc, "backward", spy_sweep)
        (*_, got), _ = self.run(overrides)
        monkeypatch.setattr(model, "propagate", lambda op, z, noise:
                            propagate(op, z, noise
                                      and replace(noise, rebuild=None)))
        (*_, want), _ = self.run(overrides)
        assert kept == [not rebuilt, True]
        assert sorted(got) == sorted(want)
        for name in want:
            assert got[name].tobytes() == want[name].tobytes(), name

    def test_no_full_height_elementwise_or_injection_nodes(self, monkeypatch):
        last, alive, height = self.at_sweep(monkeypatch)
        ops = {n.op for n in last}
        assert {"kl_normal", "inject_spmm"} <= ops
        assert "add_rownorm" not in ops
        # the built nodes whose full-height arrays the sweep starts with
        full = [n.op for n, value in last.items()
                if id(value) in alive and value.shape[0] == height]
        assert full
        assert not set(full) & {"mul", "square", "log", "sub", "badd_row"}

    def test_noise_blocks_keep_only_what_backward_reads(self, monkeypatch):
        last, alive, _ = self.at_sweep(monkeypatch)
        outputs = [n for n in last if n.op == "mlp3"
                   and n.parents[1].name == "gen.w1"]
        samples = [n for n in last if n.op == "add"
                   and [p.op for p in n.parents] == ["col_slice", "mul"]]
        # user-item layers 1 and 2 and complement layers 1 and 2
        assert len(outputs) == len(samples) == 4
        # nothing holds a generator output, so no view of it either, or a
        # product sigma^2 * epsilon
        spreads = [sample.parents[1] for sample in samples]
        assert not any(id(last[n]) in alive for n in outputs + spreads)
        # only the block whose sigma^2 the KL term reads keeps mu
        (kl,) = [n for n in last if n.op == "kl_normal"]
        kept = [sample.parents[0] for sample in samples
                if id(last[sample.parents[0]]) in alive]
        assert kept == [kl.parents[0]]

    def test_demand_step_drops_the_layers_it_gathered_from(self,
                                                           monkeypatch):
        values, at_sweep = self.encoded(monkeypatch)
        layers = [n for n in values if n.op == "inject_spmm"]
        sources = {n.parents[0] for n in values if n.op == "gather"}
        gathered = [z for z in layers if z in sources]
        # layer 1 of each channel is copied out, to layer 2's gathers and
        # its kept rows, and dropped; layer 2 computes only the rows read
        # and is itself the output, which the averages read
        assert len(layers) == 4 and len(gathered) == 2
        assert all(values[z] is None for z in gathered)
        assert all(values[z] is not None for z in layers
                   if z not in sources)
        # no backward pass reads a product: the outputs go with the
        # release before the contrastive term
        assert all(at_sweep[z] is None for z in layers)

    def test_only_row_slice_is_the_complement_input(self, monkeypatch):
        # the step reads the encoder's output at the touched rows, in the
        # embedding table's layout, with no user or item slice between
        seen, _ = self.tape(monkeypatch)
        (cut,) = [n for n, _ in seen if n.op == "row_slice"]
        (table,) = cut.parents
        assert (table.op, table.name) == ("leaf", "base_embedding")

    def test_first_blocks_mu_owns_its_data(self, monkeypatch):
        last, alive, height = self.at_sweep(monkeypatch)
        (kl,) = [n for n in last if n.op == "kl_normal"]
        mu, sigma2 = kl.parents
        out = mu.parents[0]
        logvar = sigma2.parents[0]
        assert (mu.op, out.op, logvar.op) == ("col_slice", "mlp3",
                                              "col_slice")
        assert last[mu].flags.owndata and last[mu].shape == (height, 4)
        assert id(last[mu]) in alive
        # the 2d-wide generator output and its log-variance view are gone
        assert last[logvar].base is last[out] and id(last[out]) not in alive

    def test_mmd_is_one_node_and_no_node_is_touched_square(self,
                                                          monkeypatch):
        # the kernels are built and recomputed inside one rbf_mmd node, so
        # no node of the step, held or dropped, is touched x touched
        seen, _ = self.tape(monkeypatch, {"noise.distribution": "uniform"})
        (mmd,) = [n for n, _ in seen if n.op == "rbf_mmd"]
        gen, prior = mmd.parents
        assert (gen.op, prior.op) == ("gather", "constant")
        touched = gen.shape[0]
        assert prior.shape[0] == touched
        assert [n.op for n, _ in seen
                if n.shape == (touched, touched)] == []

    def test_contrastive_term_is_swept_first(self, monkeypatch):
        _, swept = self.tape(monkeypatch)
        order = {node: k for k, node in enumerate(swept)}
        contrastive = [k for node, k in order.items()
                       if node.op == "infonce"]
        reconstructor = [k for node, k in order.items() if node.op == "mlp3"
                         and node.parents[1].name == "rec.w1"]
        assert len(contrastive) == 3 and len(reconstructor) == 2
        assert max(contrastive) < min(reconstructor)

    def test_layer1_terms_are_built_beside_layer_1(self, monkeypatch):
        # so the sweep allocates their full-height gradients only as it
        # reaches layer 1
        seen, _ = self.tape(monkeypatch)
        order = {n: k for k, (n, _) in enumerate(seen)}
        layer1 = next(n for n in order if n.op == "inject_spmm")
        sample = layer1.parents[1]
        (kl,) = [n for n in order if n.op == "kl_normal"]
        gathers = [n for n in order if n.op == "gather"
                   and n.parents == (sample,)]
        layer2 = min(order[n] for n in order if layer1 in n.parents)
        assert kl.parents[0] is sample.parents[0]  # the block's mu
        assert len(gathers) == 2
        assert all(order[layer1] < order[n] < layer2
                   for n in [kl] + gathers)

    def test_a_layers_two_gathers_share_one_value(self, monkeypatch):
        values, _ = self.encoded(monkeypatch)
        generator_inputs = [n.parents[0] for n in values if n.op == "mlp3"
                            and n.parents[1].name == "gen.w1"]
        layer_inputs = [n.parents[0] for n in values
                        if n.op == "inject_spmm"]
        pairs = [(g, z) for g, z in zip(generator_inputs, layer_inputs)
                 if z.op == "gather"]
        # every layer but the first user-item one reads a gathered input
        assert len(pairs) == 3
        for gen_in, layer_in in pairs:
            assert gen_in is not layer_in and gen_in.op == "gather"
            assert gen_in.parents == layer_in.parents
            assert np.shares_memory(values[gen_in], values[layer_in])


class TestDemand:
    """A step computes only the rows its loss reads, with the same loss
    and gradients as the full-height encoder."""

    # the path u0 - i0 - u1 - i1 - ... - u6 - i6: user k sits at path
    # position 2k, item k at 2k + 1
    PATH = make_interactions(7, 7, [(k, k) for k in range(7)]
                             + [(k + 1, k) for k in range(6)])
    # positives (u0, i0), (u1, i1) and negatives i1, i2 read the path
    # positions 0-3 and 5
    USERS, POS, NEG = np.array([0, 1]), np.array([0, 1]), np.array([1, 2])

    def step(self, params, cfg):
        ctx = build_context(self.PATH, cfg)
        return tr._batch_loss(params, ctx, cfg, np.random.default_rng(1),
                              self.USERS, self.POS, self.NEG)

    def test_generator_runs_on_the_neighbourhood_only(self, monkeypatch):
        seen, original = [], model.generate_noise

        def spy(tape, z_prev, leaves, eps, cfg, **kwargs):
            seen.append((z_prev.shape[0], eps.shape[0]))
            return original(tape, z_prev, leaves, eps, cfg, **kwargs)

        monkeypatch.setattr(model, "generate_noise", spy)
        self.step(init_params(7, 7, 4, 4, seed=5), tiny_config(L=3))
        # layer 1 reads all 14 rows; layer 2 the 8 positions within two
        # hops of the read ones (0-7); layer 3 those within one hop
        # (0-4, 6).  The complement channel is the path i0 - ... - i6 and
        # walks back from the read items 0-2: its layer 3 reads items
        # 0-3, layer 2 items 0-4 and layer 1, which no KL term reads in
        # full, items 0-5
        assert seen == [(14, 14), (8, 8), (6, 6), (6, 6), (5, 5), (4, 4)]

    def test_same_loss_and_gradients_as_every_row(self, monkeypatch):
        cfg = tiny_config(L=3)
        params = init_params(7, 7, 4, 4, seed=5)
        report, _, grads = self.step(params, cfg)

        def every_row(*args, rows, **kwargs):
            # the full-height output, cut to the rows the step reads
            out = encode(*args, **kwargs)
            items = rows[rows >= 7] - 7
            return replace(
                out, ui_layers=[dc.gather(z, rows) for z in out.ui_layers],
                ui_avg=dc.gather(out.ui_avg, rows),
                comp_layers=[dc.gather(z, items) for z in out.comp_layers],
                comp_avg=dc.gather(out.comp_avg, items))

        monkeypatch.setattr(tr, "encode", every_row)
        want_report, _, want = self.step(params, cfg)
        assert report == want_report
        for name, grad in want.items():
            assert np.any(grad != 0.0), name
            if name.startswith("gen."):
                # the weight products sum over fewer (zero) rows
                err = np.max(np.abs(grads[name] - grad)) / np.max(np.abs(grad))
                assert err <= 1e-12, name
            else:
                assert np.array_equal(grads[name], grad), name

    def test_gradient_check(self):
        cfg = tiny_config(L=3)
        probe = init_params(7, 7, 4, 4, seed=6)
        ctx = build_context(self.PATH, cfg)

        def f(point):
            for name, arr in point.items():
                probe.param_arrays()[name][...] = arr
            _, total, grads = tr._batch_loss(
                probe, ctx, cfg, np.random.default_rng(0), self.USERS,
                self.POS, self.NEG)
            return total.value[0, 0], grads

        point = {k: v.copy() for k, v in probe.param_arrays().items()}
        assert dc.check_gradients(f, point, h=1e-5) <= 1e-4


class TestLayerReadWhole:
    """A layer whose next layer reads every row it holds is read whole by
    that layer's generator, whose backward pass needs its value."""

    # every user-item pair but (u0, i2): the rows any batch touches read
    # every row, so layers 2 and 3 take all of the layer below
    DENSE = make_interactions(3, 3, [(u, i) for u in range(3)
                                     for i in range(3) if (u, i) != (0, 2)])
    USERS, POS, NEG = np.array([0, 1]), np.array([0, 1]), np.array([2, 2])

    def step(self, params, cfg):
        ctx = build_context(self.DENSE, cfg)
        return tr._batch_loss(params, ctx, cfg, np.random.default_rng(0),
                              self.USERS, self.POS, self.NEG)

    def test_keeps_its_value(self, monkeypatch):
        # each layer read whole is held by its generator's closure, and
        # by nothing else, as the sweep starts
        last, holders, sweep = last_arrays(monkeypatch), [], dc.backward

        def spy(loss):
            for gen in loss.tape.nodes:
                if (gen.op == "mlp3" and gen.parents[1].name == "gen.w1"
                        and gen.parents[0].op == "inject_spmm"):
                    layer, bw = id(last[gen.parents[0]]), gen._backward
                    alive = layer in held(loss.tape)
                    gen._backward = None
                    holders.append((alive, layer in held(loss.tape)))
                    gen._backward = bw
            return sweep(loss)

        monkeypatch.setattr(dc, "backward", spy)
        self.step(init_params(3, 3, 4, 4, seed=5), tiny_config(L=3))
        # layers 1 and 2 of both channels; the user-item ones are also
        # copied out to their kept rows
        assert holders == [(True, False)] * 4

    def test_gradient_check(self):
        cfg = tiny_config(L=3)
        probe = init_params(3, 3, 4, 4, seed=6)

        def f(point):
            for name, arr in point.items():
                probe.param_arrays()[name][...] = arr
            _, total, grads = self.step(probe, cfg)
            return total.value[0, 0], grads

        point = {k: v.copy() for k, v in probe.param_arrays().items()}
        assert dc.check_gradients(f, point, h=1e-5) <= 1e-4


class TestEvaluateModel:
    def test_metrics_structure_and_determinism(self):
        fold = toy_fold()
        cfg = tiny_config()
        ctx = build_context(fold.train, cfg)
        params = init_params(6, 8, cfg.d, cfg.h, seed=6)
        a = evaluate_model(params, ctx, fold.test, cfg, ks=(5, 3))
        b = evaluate_model(params, ctx, fold.test, cfg, ks=(5, 3))
        assert set(a) == {3, 5}
        assert a[5].recall == b[5].recall
        assert a[3].k == 3
        assert 0.0 <= a[5].ndcg <= 1.0

    def test_complement_channel_skipped_with_same_metrics(self, monkeypatch):
        fold = toy_fold()
        cfg = tiny_config()
        ctx = build_context(fold.train, cfg)
        assert ctx.comp.nnz > 0
        params = init_params(6, 8, 4, 4, seed=7)
        passed = []
        monkeypatch.setattr(tr, "encode", lambda *args: passed.append(args))
        got = evaluate_model(params, ctx, fold.test, cfg)
        assert passed == []  # no encoder pass, so no complement channel

        # the earlier evaluation pass: both channels on a tape
        tape = Tape()
        out = encode(tape, params.leaves(tape), ctx,
                     replace(cfg, noise_mode="none"), None)
        monkeypatch.setattr(tr, "eval_embeddings",
                            lambda *_: (out.ui_avg.value[:6],
                                        out.ui_avg.value[6:]))
        assert evaluate_model(params, ctx, fold.test, cfg) == got

    @pytest.mark.parametrize("m, n, L", [
        *(pytest.param(40, 30, L, id=f"{L}") for L in (1, 2, 3, 4)),
        *(pytest.param(30, 40, L, id=f"more-items-{L}")
          for L in (1, 2, 3, 4))])
    def test_embeddings_are_the_encoder_without_noise(self, m, n, L,
                                                      monkeypatch):
        # the taped encoder is the reference; user 9 has no train items.
        # Blocks of 7 rows split each half into several, the last partial
        monkeypatch.setattr(tr, "EVAL_BLOCK_ROWS", 7)
        data = random_interactions(m, n, density=0.2, seed=5,
                                   min_per_user=2)
        train = data.pairs[data.pairs[:, 0] != 9]
        cfg = tiny_config(L=L)
        ctx = build_context(make_interactions(m, n, train), cfg)
        params = init_params(m, n, cfg.d, cfg.h, seed=L)
        z_u, z_i = tr.eval_embeddings(params, ctx, cfg)
        tape = Tape()
        out = encode(tape, params.leaves(tape), replace(ctx, comp=None),
                     replace(cfg, noise_mode="none"), None)
        assert not ctx.R[9].nnz
        for got, want in ((z_u, out.ui_avg.value[:m]),
                          (z_i, out.ui_avg.value[m:])):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_embedding_pass_holds_three_arrays(self):
        # the sum, layer 2 and the operator's rows of its larger half
        # (0.34 layer at this density) as layer 2 is made; a taped pass
        # holds every layer, sum and scale until it returns
        data = random_interactions(2000, 1500, density=0.004, seed=2,
                                   min_per_user=2)
        cfg = tiny_config(d=16, L=3)
        ctx = build_context(data, cfg)
        params = init_params(2000, 1500, cfg.d, cfg.h, seed=3)
        layer = (2000 + 1500) * cfg.d * 8
        (z_u, z_i), peak = traced_peak(tr.eval_embeddings, params, ctx, cfg)
        assert z_u.base is z_i.base
        assert peak <= 2.5 * layer

    @pytest.mark.parametrize("L", [2, 3, 4])
    def test_embedding_pass_propagates_in_halves(self, L):
        # The last layer is added into the sum a block at a time: for
        # L = 3 the sum, layer 2 and one block are alive, against 2.5
        # layers for a whole smaller half.  Layer 2 reads layer 1 from
        # the sum, so for L = 2 the sum, the smaller half (0.43 layer
        # here) and one block are.  For L = 4 the peak is layer 3's:
        # the sum, layer 2 and layer 3's smaller half.  Each also holds
        # some of the operator's rows, under 0.1 layer
        data = random_interactions(2000, 1500, density=0.002, seed=2,
                                   min_per_user=2)
        cfg = tiny_config(d=64, L=L)
        ctx = build_context(data, cfg)
        op = ctx.ui
        layer = (2000 + 1500) * cfg.d * 8
        assert op.data.nbytes + op.indices.nbytes + op.indptr.nbytes \
            < 0.1 * layer
        small = 1500 * cfg.d * 8
        block = tr.EVAL_BLOCK_ROWS * cfg.d * 8
        params = init_params(2000, 1500, cfg.d, cfg.h, seed=3)
        (z_u, z_i), peak = traced_peak(tr.eval_embeddings, params, ctx, cfg)
        assert z_u.base is z_i.base
        alive = {2: layer + small + block, 3: 2 * layer + block,
                 4: 2 * layer + small}[L]
        assert peak <= alive + 0.1 * layer

    def test_ranks_only_users_with_test_items(self, monkeypatch):
        # users 0-3 have train and test items, 4-5 train items only and
        # 6-7 test items only
        data = random_interactions(8, 12, density=0.4, seed=3,
                                   min_per_user=3)
        first = np.r_[True, data.pairs[1:, 0] != data.pairs[:-1, 0]]
        user = data.pairs[:, 0]
        train = data.pairs[~first & (user < 6)]
        test = data.pairs[first & ((user < 4) | (user >= 6))]
        fold = FoldSplit(0, make_interactions(8, 12, train),
                         make_interactions(8, 12, test))
        cfg = tiny_config()
        ctx = build_context(fold.train, cfg)
        params = init_params(8, 12, cfg.d, cfg.h, seed=4)

        # reference: rank everyone with train items, then aggregate
        z_u, z_i = tr.eval_embeddings(params, ctx, cfg)
        T = build_interaction_matrix(fold.test)
        users = np.flatnonzero(np.diff(ctx.R.indptr))
        top = rank_topk(z_u, z_i, ctx.R, 5, users=users)
        want = {k: topk_metrics(top[:, :k], T[users], k) for k in (3, 5)}
        assert [(m.users_evaluated, m.users_skipped)
                for m in want.values()] == [(4, 2), (4, 2)]

        ranked, original = [], tr.rank_topk

        def recording(z_u, z_i, train_items, k, users=None):
            ranked.append(users.tolist())
            return original(z_u, z_i, train_items, k, users=users)

        monkeypatch.setattr(tr, "rank_topk", recording)
        assert evaluate_model(params, ctx, fold.test, cfg, ks=(3, 5)) == want
        assert ranked == [[0, 1, 2, 3]]

    def test_forward_tape_freed_without_collection(self):
        # the forward values of a full-catalog pass are large; they must
        # not wait for the cycle collector while ranking runs
        fold = toy_fold()
        ctx = build_context(fold.train, tiny_config())
        params = init_params(6, 8, 4, 4, seed=7)
        gc.collect()
        gc.disable()
        try:
            tr.eval_embeddings(params, ctx, tiny_config())
            assert not [o for o in gc.get_objects() if isinstance(o, Tape)]
        finally:
            gc.enable()


class TestTapeRelease:
    @pytest.mark.parametrize("noise_mode", ["generative", "random", "none"])
    def test_step_tapes_freed_without_collection(self, noise_mode):
        # backward empties its tape, so a step's forward values, noise
        # draws and leaves are gone before the next step builds its own
        fold = toy_fold()
        cfg = tiny_config(batch_size=4, noise_mode=noise_mode)
        ctx = build_context(fold.train, cfg)
        params = init_params(6, 8, cfg.d, cfg.h, seed=2)
        gc.collect()
        gc.disable()
        try:
            train_epoch(params, ctx, cfg, np.random.default_rng(3), AdamState())
            assert not [o for o in gc.get_objects() if isinstance(o, Tape)]
        finally:
            gc.enable()


class TestAllocatorPolicy:
    """train_epoch keeps the memory a step frees in the process: glibc's
    mmap threshold goes to 1 GiB and heap trimming is turned off, once
    per process."""

    def fake_libc(self, monkeypatch, libc):
        monkeypatch.setattr(tr, "_heap_kept", False)
        monkeypatch.setattr(tr.ctypes, "CDLL", lambda name: libc)

    def epoch(self):
        data = make_interactions(3, 4, [(0, 0), (0, 1), (1, 1), (1, 2),
                                        (2, 2), (2, 3), (0, 3), (1, 0)])
        cfg = tiny_config()
        params = init_params(3, 4, cfg.d, cfg.h, seed=1)
        return train_epoch(params, build_context(data, cfg), cfg,
                           np.random.default_rng(1), AdamState())

    def test_set_once_from_the_first_epoch(self, monkeypatch):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        self.fake_libc(monkeypatch, SimpleNamespace(mallopt=mallopt))
        assert calls == []
        self.epoch()
        self.epoch()
        assert calls == [(-3, 1 << 30), (-1, 2 ** 31 - 1)]

    def test_no_mallopt_is_a_no_op(self, monkeypatch):
        self.fake_libc(monkeypatch, object())
        want = self.epoch()
        assert tr._heap_kept

        def no_libc(name):
            raise OSError("no C library")

        monkeypatch.setattr(tr, "_heap_kept", False)
        monkeypatch.setattr(tr.ctypes, "CDLL", no_libc)
        assert self.epoch() == want


def fit_and_collect(cfg, fold):
    """``fit(cfg, fold)``, the history row of each epoch and the
    (epoch, metrics) of each evaluation, as its on_epoch hook sees them."""
    rows, evals = [], []

    def on_epoch(epoch, report, metrics, row, params, ctx):
        rows.append(row)
        if metrics is not None:
            evals.append((epoch, metrics))

    return fit(cfg, fold, on_epoch=on_epoch), rows, evals


class TestFit:
    def test_history_rows_match_epochs(self):
        cfg = tiny_config(epochs_max=4, eval_interval=2)
        result, rows, _ = fit_and_collect(cfg, toy_fold())
        assert len(rows) == result.epochs_run == 4
        for row in rows:
            assert len(row.split(",")) == len(tr.HISTORY_CSV_HEADER.split(","))

    def test_best_checkpoint_dominates_eval_log(self):
        cfg = tiny_config(epochs_max=12, eval_interval=2, patience=10)
        result, _, evals = fit_and_collect(cfg, toy_fold())
        best_recall = max(m.recall for _, m in evals)
        assert result.best_metrics[20].recall == pytest.approx(best_recall)

    def test_early_stopping_respects_patience(self):
        cfg = tiny_config(epochs_max=200, eval_interval=1, patience=2)
        result, _, evals = fit_and_collect(cfg, toy_fold())
        assert result.epochs_run < 200
        stale_evals = [e for e, _ in evals if e > result.best_epoch]
        assert len(stale_evals) == 2

    def test_fit_reproducible(self):
        cfg = tiny_config(epochs_max=3)
        a, a_rows, _ = fit_and_collect(cfg, toy_fold())
        b, b_rows, _ = fit_and_collect(cfg, toy_fold())
        assert a_rows == b_rows
        assert np.array_equal(a.params.base_embedding, b.params.base_embedding)

    def test_fold_seed_derivation_changes_stream(self):
        cfg = tiny_config(epochs_max=2)
        data = random_interactions(6, 8, density=0.35, seed=0, min_per_user=2)
        folds = make_folds(data, k=3, seed=0)
        _, r0_rows, _ = fit_and_collect(cfg, folds[0])
        _, r1_rows, _ = fit_and_collect(cfg, folds[1])
        assert r0_rows != r1_rows

    def test_geometry_tracking(self):
        # on_epoch sees each epoch's row, its eval metrics when evaluated,
        # and the live parameters a geometry hook reads; reading them
        # leaves the run unchanged
        cfg = tiny_config(epochs_max=3, eval_interval=2)
        seen = []

        def on_epoch(epoch, report, metrics, row, params, ctx):
            z_u, z_i = tr.eval_embeddings(params, ctx, cfg)
            align, uniform = alignment_uniformity(z_u, z_i, ctx.train.pairs)
            assert np.isfinite([report.total, align, uniform]).all()
            seen.append((epoch, metrics, row))

        fit(cfg, toy_fold(), on_epoch=on_epoch)
        _, rows, evals = fit_and_collect(cfg, toy_fold())
        assert [e for e, _, _ in seen] == [1, 2, 3]
        assert [r for _, _, r in seen] == rows
        assert [(e, m) for e, m, _ in seen if m is not None] == evals


class TestAblationConfigurations:
    """Each published variant trains end to end on toy data."""

    @pytest.mark.parametrize("overrides", [
        {"complement_enabled": False},                          # w/o-cm
        {"noise_mode": "none"},                                 # w/o-g
        {"gamma": 0.0},                                         # w/o-f
        {"noise_mode": "random"},                               # w/-rand
        {"noise_distribution": "uniform"},                      # w/-un
        {"noise_mode": "none", "complement_enabled": False,
         "lambda_": 0.0},                                       # plain baseline
        {"noise_mode": "random", "noise_distribution": "uniform"},
    ])
    def test_variant_trains(self, overrides):
        cfg = tiny_config(epochs_max=2, **overrides)
        result = fit(cfg, toy_fold())
        assert result.epochs_run == 2
        assert np.isfinite(result.best_metrics[20].recall)
