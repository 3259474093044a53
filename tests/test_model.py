from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

import gclrec.diffcore as dc
from gclrec.dataset import DataError
from gclrec.diffcore import Tape
from gclrec.graphs import build_graph
from gclrec.model import (
    NoiseBlock,
    encode,
    generate_noise,
    init_params,
    load_checkpoint,
    mlp_forward,
    propagate,
    reconstruct,
    save_checkpoint,
)
from gclrec.trainer import TrainConfig

from conftest import make_interactions, random_interactions
from oracles import propagate_dense, sym_normalize_dense, adjacency_dense


def noise_cfg(mode="generative", distribution="gaussian"):
    """An unvalidated config that sets only the encoder's noise, L = 3."""
    return TrainConfig(noise_mode=mode, noise_distribution=distribution)


NO_NOISE = noise_cfg("none")


def zero_generator(params):
    for name, arr in params.param_arrays().items():
        if name.startswith("gen."):
            arr[:] = 0.0
    return params


class TestInitParams:
    def test_deterministic_per_seed(self):
        a = init_params(5, 7, 4, 4, seed=3)
        b = init_params(5, 7, 4, 4, seed=3)
        for k, arr in a.param_arrays().items():
            assert np.array_equal(arr, b.param_arrays()[k])

    def test_embedding_bound(self):
        p = init_params(10, 20, 8, 8, seed=0)
        bound = np.sqrt(6.0 / (30 + 8))
        assert np.abs(p.base_embedding).max() <= bound
        assert p.base_embedding.shape == (30, 8)

    def test_mlp_shapes_and_zero_biases(self):
        p = init_params(3, 4, 6, 5, seed=1).param_arrays()
        assert p["gen.w1"].shape == (6, 5) and p["gen.w2"].shape == (5, 5)
        # outputs mu and log-variance halves
        assert p["gen.w3"].shape == (5, 12)
        assert p["rec.w3"].shape == (5, 6)
        for prefix in ("gen", "rec"):
            for b in ("b1", "b2", "b3"):
                assert np.all(p[f"{prefix}.{b}"] == 0.0)

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            init_params(2, 2, 0, 4, seed=0)


class TestGenerateNoise:
    def setup_method(self):
        self.params = init_params(3, 3, 4, 4, seed=0)

    def test_zero_generator_gives_pure_epsilon(self):
        zero_generator(self.params)
        t = Tape()
        leaves = self.params.leaves(t)
        z = t.constant(np.random.default_rng(1).normal(size=(6, 4)))
        eps = np.random.default_rng(2).standard_normal((6, 4))
        block = generate_noise(t, z, leaves, eps, noise_cfg())
        np.testing.assert_array_equal(block.mu.value, 0.0)
        np.testing.assert_array_equal(block.sigma2.value, 1.0)
        np.testing.assert_array_equal(block.sample.value, eps)

    def test_mode_none_rejected(self):
        t = Tape()
        z = t.constant(np.ones((5, 4)))
        with pytest.raises(ValueError, match="none"):
            generate_noise(t, z, {}, np.zeros((5, 4)), NO_NOISE)

    def test_sigma2_positive(self):
        t = Tape()
        leaves = self.params.leaves(t)
        z = t.constant(np.random.default_rng(3).normal(size=(6, 4)) * 10)
        block = generate_noise(t, z, leaves,
                               np.random.default_rng(4).normal(size=(6, 4)),
                               noise_cfg())
        assert np.all(block.sigma2.value > 0)

    def test_sample_scales_epsilon_by_sigma2(self):
        # push log-variance to a nonzero constant via the output bias
        zero_generator(self.params)
        self.params.param_arrays()["gen.b3"][0, 4:] = 2.0  # log sigma^2 = 2
        eps = np.random.default_rng(5).normal(size=(6, 4))

        t = Tape()
        leaves = self.params.leaves(t)
        z = t.constant(np.zeros((6, 4)))
        block = generate_noise(t, z, leaves, eps, noise_cfg())
        np.testing.assert_allclose(block.sample.value, np.exp(2.0) * eps)

    def test_uniform_distribution_applies_gelu(self):
        from scipy.special import erf
        zero_generator(self.params)
        eps = np.random.default_rng(6).normal(size=(6, 4))
        t = Tape()
        leaves = self.params.leaves(t)
        z = t.constant(np.zeros((6, 4)))
        block = generate_noise(t, z, leaves, eps,
                               noise_cfg(distribution="uniform"))
        gaussian = eps  # zero generator: mu=0, sigma2=1
        expected = 0.5 * gaussian * (1.0 + erf(gaussian / np.sqrt(2.0)))
        np.testing.assert_allclose(block.sample.value, expected, atol=1e-14)

    def test_random_mode_fixed_scale(self):
        eps = np.random.default_rng(7).normal(size=(6, 4))
        t = Tape()
        z = t.constant(np.zeros((6, 4)))
        block = generate_noise(t, z, {}, eps, noise_cfg("random"))
        np.testing.assert_array_equal(block.sample.value, 0.1 * eps)
        # nothing is learned, so no mean or variance node is built
        assert block.mu is None and block.sigma2 is None

    def test_nonfinite_generator_output_raises(self):
        self.params.param_arrays()["gen.w3"][0, 0] = np.inf
        t = Tape()
        leaves = self.params.leaves(t)
        z = t.constant(np.ones((2, 4)))
        with pytest.raises(dc.DiffError, match="non-finite"):
            generate_noise(t, z, leaves, np.zeros((2, 4)), noise_cfg())

    def test_bad_settings_rejected(self):
        # a config built without validate() falls into no branch, random
        # noise included, and builds no node
        t = Tape()
        leaves = self.params.leaves(t)
        z = t.constant(np.ones((6, 4)))
        built = len(t.nodes)
        for cfg, match in ((TrainConfig(noise_mode="white"), "mode 'white'"),
                           (TrainConfig(noise_distribution="laplace"),
                            "distribution 'laplace'"),
                           (noise_cfg("random", "laplace"),
                            "distribution 'laplace'")):
            with pytest.raises(ValueError, match=match):
                generate_noise(t, z, leaves, np.zeros((6, 4)), cfg)
        assert len(t.nodes) == built


class TestPropagate:
    def test_single_edge_swaps_embeddings(self):
        # one user, one item, one edge: the normalized adjacency is the
        # antidiagonal, so layer 1 exchanges the two embeddings
        A = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        t = Tape()
        z0 = t.constant(np.array([[1.0, 2.0], [3.0, 4.0]]))
        z1 = propagate(A, z0, None)
        np.testing.assert_array_equal(z1.value, [[3.0, 4.0], [1.0, 2.0]])

    def test_zero_noise_is_plain_propagation(self):
        rng = np.random.default_rng(8)
        dense = sym_normalize_dense(
            adjacency_dense((rng.random((4, 5)) < 0.5).astype(float)))
        A = sp.csr_matrix(dense)
        t = Tape()
        z0 = t.constant(rng.normal(size=(9, 3)))
        zeros = np.zeros((9, 3))
        zero_block = NoiseBlock(mu=None, sigma2=None,
                                sample=t.constant(zeros))
        with_zero = propagate(A, z0, zero_block)
        without = propagate(A, z0, None)
        np.testing.assert_allclose(with_zero.value, without.value, atol=1e-15)


def normed(sample):
    norms = np.linalg.norm(sample, axis=1, keepdims=True)
    inv = np.where(norms > 1e-12, 1.0 / np.maximum(norms, 1e-12), 0.0)
    return sample * inv


@pytest.fixture
def generator_outputs(monkeypatch):
    """Generator output node -> its value [mu | log-variance], for every
    generator run while the fixture is active.  A noise block drops that
    value once its sample is built, so it is caught as :func:`diffcore.mlp3`
    returns it."""
    outputs, original = {}, dc.mlp3

    def spy(x, w1, *rest):
        out = original(x, w1, *rest)
        if w1.name == "gen.w1":
            outputs[out] = out.value
        return out

    monkeypatch.setattr(dc, "mlp3", spy)
    yield outputs
    # the nodes refer to their tapes, which later tests expect freed
    outputs.clear()


def mean_and_variance(block, outputs):
    """mu and sigma^2 of a generative noise block whose sigma^2 is not
    read, as the halves of its generator output caught by
    ``generator_outputs``: the sample's first parents lead back to it."""
    node = block.sample
    while node not in outputs:
        node = node.parents[0]
    out = outputs[node]
    d = out.shape[1] // 2
    return out[:, :d], np.exp(out[:, d:])


class TestEncode:
    def setup_method(self):
        self.data = random_interactions(6, 8, density=0.3, seed=9)
        self.params = init_params(6, 8, 4, 4, seed=10)

    def run_encode(self, cfg, seed=0, complement=True):
        g = build_graph(self.data, 1.0, complement_enabled=complement)
        t = Tape()
        leaves = self.params.leaves(t)
        return encode(t, leaves, g, cfg, np.random.default_rng(seed))

    def test_reduces_to_plain_propagation_without_noise(self):
        g = build_graph(self.data, 1.0)
        out = self.run_encode(NO_NOISE)
        A = g.ui.toarray()
        zeros = [np.zeros((14, 4))] * 3
        expected_avg, expected_layers = propagate_dense(
            A, self.params.base_embedding, zeros, 3)
        for k in range(3):
            np.testing.assert_allclose(out.ui_layers[k].value,
                                       expected_layers[k + 1], atol=1e-12)
        np.testing.assert_allclose(out.z_u.value, expected_avg[:6], atol=1e-12)
        np.testing.assert_allclose(out.z_i.value, expected_avg[6:], atol=1e-12)

    def test_matches_dense_reference_with_noise(self):
        # replay the generated noise through the dense reference
        out = self.run_encode(noise_cfg(), seed=4)
        g = build_graph(self.data, 1.0)
        A = g.ui.toarray()
        noise = [normed(out.noise_blocks[("ui", k)].sample.value)
                 for k in (1, 2, 3)]
        expected_avg, _ = propagate_dense(A, self.params.base_embedding,
                                          noise, 3)
        np.testing.assert_allclose(out.z_u.value, expected_avg[:6], atol=1e-12)

    def test_layer_average_invariant(self):
        out = self.run_encode(noise_cfg(), seed=1)
        stack = np.stack([z.value for z in out.ui_layers])
        avg = stack.mean(axis=0)
        np.testing.assert_allclose(out.z_u.value, avg[:6], atol=1e-14)
        np.testing.assert_allclose(out.z_i.value, avg[6:], atol=1e-14)
        comp_avg = np.stack([z.value for z in out.comp_layers]).mean(axis=0)
        np.testing.assert_allclose(out.z_c.value, comp_avg, atol=1e-14)

    def test_views_are_first_layer_and_average(self):
        out = self.run_encode(noise_cfg(), seed=2)
        np.testing.assert_array_equal(out.view("1", "user").value,
                                      out.ui_layers[0].value[:6])
        np.testing.assert_array_equal(out.view("2", "item").value,
                                      out.ui_layers[1].value[6:])
        assert out.view("avg", "user") is out.z_u
        assert out.view("avg", "item") is out.z_i
        assert out.view("3", "comp") is out.comp_layers[2]
        assert out.view("avg", "comp") is out.z_c

    def test_deterministic_given_seed(self):
        a = self.run_encode(noise_cfg(), seed=7)
        b = self.run_encode(noise_cfg(), seed=7)
        assert np.array_equal(a.z_u.value, b.z_u.value)
        c = self.run_encode(noise_cfg(), seed=8)
        assert not np.array_equal(a.z_u.value, c.z_u.value)

    def test_noise_rows_unit_after_normalization(self):
        out = self.run_encode(noise_cfg(), seed=3)
        for block in out.noise_blocks.values():
            normed = block.sample.value / np.maximum(
                np.linalg.norm(block.sample.value, axis=1, keepdims=True), 1e-12)
            norms = np.linalg.norm(normed, axis=1)
            assert np.all((np.abs(norms - 1.0) < 1e-9) | (norms == 0.0))

    def test_complement_channel_off(self):
        out = self.run_encode(noise_cfg(), complement=False)
        assert out.comp_layers is None and out.z_c is None

    def test_empty_complement_gives_zero_z_c(self):
        import warnings
        from gclrec.graphs import build_complement, build_interaction_matrix
        R = build_interaction_matrix(self.data)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            empty = build_complement(R, gamma=1e9)
        g = replace(build_graph(self.data, 1.0), comp=empty)
        t = Tape()
        leaves = self.params.leaves(t)
        cfg = replace(noise_cfg(), L=2)
        out = encode(t, leaves, g, cfg, np.random.default_rng(0))
        np.testing.assert_array_equal(out.z_c.value, 0.0)
        assert out.noise_blocks[("comp", 1)].sample.shape == (0, 4)
        # the generator and the gather run on zero rows in the backward
        # sweep too, and contribute nothing
        grads = dc.backward(dc.reduce_sum(dc.mul(
            out.z_c, t.constant(np.ones((8, 4))))))
        for name in ("gen.w1", "gen.b3", "base_embedding"):
            np.testing.assert_array_equal(grads[name], 0.0)

    @pytest.mark.parametrize("views, built", [((), 0), (("1",), 1),
                                              (("2", "1"), 2),
                                              (("avg", "1"), 3)])
    def test_complement_builds_the_layers_its_views_read(self, views, built):
        g = build_graph(self.data, 1.0)
        outs, next_draws = [], []
        for comp_views in (("avg",), views):
            t = Tape()
            rng = np.random.default_rng(5)
            outs.append(encode(t, self.params.leaves(t), g, noise_cfg(), rng,
                               comp_views=comp_views))
            next_draws.append(rng.standard_normal(4))
        full, out = outs
        assert len(out.comp_layers) == built
        assert (out.z_c is None) == ("avg" not in views)
        for got, want in zip(out.comp_layers, full.comp_layers):
            assert np.array_equal(got.value, want.value)
        # the unbuilt layers still drew their epsilon
        assert np.array_equal(*next_draws)

    @pytest.mark.parametrize("gaussian", [True, False])
    def test_keeps_sigma2_only_where_read(self, gaussian):
        # the KL term reads the gaussian first user-item block's sigma^2;
        # uniform noise brings the MMD term, which reads only the sample
        g = build_graph(self.data, 1.0)
        t = Tape()
        cfg = noise_cfg(distribution="gaussian" if gaussian else "uniform")
        out = encode(t, self.params.leaves(t), g, cfg,
                     np.random.default_rng(6))
        assert [key for key, block in out.noise_blocks.items()
                if block.sigma2 is not None] == ([("ui", 1)] if gaussian
                                                 else [])

    def test_zero_layers_rejected(self):
        g = build_graph(self.data, 1.0)
        t = Tape()
        leaves = self.params.leaves(t)
        with pytest.raises(ValueError, match="layers"):
            encode(t, leaves, g, replace(NO_NOISE, L=0),
                   np.random.default_rng(0))


class TestLiveComplement:
    """The complement channel runs only over items with a complement
    neighbour and equals the full-row computation."""

    # at gamma 2 only items 0-1 and 2-3 are co-consumed often enough, so
    # items 4, 5 and 6 have no complement neighbour
    DEAD = make_interactions(5, 7, [(0, 0), (0, 1), (0, 4), (1, 0), (1, 1),
                                    (1, 5), (2, 2), (2, 3), (3, 2), (3, 3),
                                    (3, 6), (4, 5), (4, 6)])
    # every item shares a user with another
    ALL_LIVE = make_interactions(5, 4, [(0, 0), (0, 1), (1, 1), (1, 2),
                                        (2, 2), (2, 3), (3, 3), (3, 0),
                                        (4, 0), (4, 2)])

    def encode(self, data, gamma, seed):
        m, n = data.num_users, data.num_items
        g = build_graph(data, gamma)
        params = init_params(m, n, 4, 4, seed=seed)
        t = Tape()
        leaves = params.leaves(t)
        rng = np.random.default_rng(seed)
        out = encode(t, leaves, g, noise_cfg(), rng)
        # items whose complement row or column holds an entry
        live = np.flatnonzero(g.comp.getnnz(axis=0) + g.comp.getnnz(axis=1))
        return out, params, g, live, rng, t, leaves

    def test_matches_dense_replay_with_zero_noise_at_dead_items(self):
        out, params, g, live, _, _, _ = self.encode(self.DEAD, 2.0, 21)
        assert live.tolist() == [0, 1, 2, 3]
        noise = []
        for k in (1, 2, 3):
            full = np.zeros((7, 4))
            full[live] = normed(out.noise_blocks[("comp", k)].sample.value)
            noise.append(full)
        want_avg, want_layers = propagate_dense(
            g.comp.toarray(), params.base_embedding[5:], noise, 3)
        for k in range(3):
            got = out.comp_layers[k].value
            assert got.shape == (7, 4)
            np.testing.assert_allclose(got, want_layers[k + 1], rtol=0,
                                       atol=1e-12)
            np.testing.assert_array_equal(got[4:], 0.0)
        np.testing.assert_allclose(out.z_c.value, want_avg, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(out.z_c.value[4:], 0.0)

    def test_noise_blocks_hold_live_rows_of_full_draws(self,
                                                       generator_outputs):
        out, _, _, live, rng, _, _ = self.encode(self.DEAD, 2.0, 22)
        # the random stream is that of full-height draws: 3 user-item
        # layers of 12 rows, then 3 complement layers of 7 rows
        replay = np.random.default_rng(22)
        for _ in range(3):
            replay.standard_normal((12, 4))
        for k in (1, 2, 3):
            block = out.noise_blocks[("comp", k)]
            # sigma^2 of a complement block is not read, so the block
            # keeps neither mu nor sigma^2
            assert block.mu is None and block.sigma2 is None
            mu, sigma2 = mean_and_variance(block, generator_outputs)
            for part in (mu, sigma2, block.sample.value):
                assert part.shape == (len(live), 4)
            eps = replay.standard_normal((7, 4))[live]
            assert np.array_equal(block.sample.value, mu + sigma2 * eps)
        assert rng.standard_normal() == replay.standard_normal()

    def test_all_items_live_equals_full_row_path(self):
        # every item live: values and gradients equal, bit for bit, the
        # earlier channel that generated noise for every row
        out, params, g, live, _, t, leaves = self.encode(
            self.ALL_LIVE, 1.0, 24)
        assert len(live) == 4
        values = [z.value for z in out.comp_layers + [out.z_c]]
        weights = np.random.default_rng(25).normal(size=(4, 4))
        grads = dc.backward(dc.reduce_sum(dc.mul(
            out.z_c, t.constant(weights))))

        t = Tape()
        leaves = params.leaves(t)
        z = dc.row_slice(leaves["base_embedding"], 5, 9)
        layers = []
        # replay the stream: 3 user-item draws of 9 rows come first
        replay = np.random.default_rng(24)
        for _ in range(3):
            replay.standard_normal((9, 4))
        for k in (1, 2, 3):
            block = generate_noise(t, z, leaves,
                                   replay.standard_normal((4, 4)),
                                   noise_cfg())
            z = propagate(g.comp, z, block)
            layers.append(z)
        avg = dc.scale(dc.add(dc.add(layers[0], layers[1]), layers[2]),
                       1.0 / 3)
        for got, node in zip(values, layers + [avg]):
            assert np.array_equal(got, node.value)
        want = dc.backward(dc.reduce_sum(dc.mul(avg, t.constant(weights))))
        for name, grad in want.items():
            assert np.array_equal(grads[name], grad), name


class TestDemandedComplement:
    """With a demand the complement channel computes only the rows its
    walk back from the demanded items reaches, and the rows it hands
    out equal those of the run without a demand."""

    DATA = TestLiveComplement.DEAD
    M, N = 5, 7
    # user 0, the live item 1 and the dead items 4 and 5.  The complement
    # edges are 0-1 and 2-3, so layer 3 reads item 0 alone, a one-row
    # generator block, and layers 1 and 2 read items 0 and 1
    USERS, ITEMS = np.array([0]), np.array([1, 4, 5])
    READS = {1: [0, 1], 2: [0, 1], 3: [0]}

    def step(self, rows, outputs, seed=31):
        """Encode and back-propagate a weighted sum of every view the
        demand reads; returns the blocks' and views' values and the
        gradients."""
        g = build_graph(self.DATA, 2.0)
        params = init_params(self.M, self.N, 4, 4, seed=seed)
        t = Tape()
        out = encode(t, params.leaves(t), g, noise_cfg(),
                     np.random.default_rng(seed), rows=rows,
                     comp_views=("1", "avg"))
        blocks = {k: (*mean_and_variance(b, outputs), b.sample.value)
                  for k, b in out.noise_blocks.items() if k[0] == "comp"}
        weights = np.random.default_rng(seed + 1)
        views, terms = {}, []
        for cls, ids in (("user", self.USERS), ("item", self.ITEMS),
                         ("comp", self.ITEMS)):
            for sel in ("1", "avg"):
                view = dc.gather(out.view(sel, cls), out.locate(cls, ids))
                views[cls, sel] = view.value
                terms.append(dc.reduce_sum(dc.mul(view, t.constant(
                    weights.normal(size=view.shape)))))
        grads = dc.backward(dc.mean_of(terms))
        return blocks, views, grads

    def demand(self):
        return np.concatenate([self.USERS, self.M + self.ITEMS])

    def test_blocks_hold_the_walks_rows_of_full_draws(self,
                                                      generator_outputs):
        blocks, _, _ = self.step(self.demand(), generator_outputs)
        # the stream is that of full-height draws: 3 user-item layers of
        # 12 rows, then 3 complement layers of 7 rows
        replay = np.random.default_rng(31)
        for _ in range(3):
            replay.standard_normal((12, 4))
        assert sorted(blocks) == [("comp", 1), ("comp", 2), ("comp", 3)]
        for k in (1, 2, 3):
            mu, sigma2, sample = blocks["comp", k]
            eps = replay.standard_normal((7, 4))[self.READS[k]]
            assert sample.shape == (len(self.READS[k]), 4)
            assert np.array_equal(sample, mu + sigma2 * eps)

    def test_views_and_gradients_equal_the_run_without_demand(
            self, generator_outputs):
        blocks, views, grads = self.step(self.demand(), generator_outputs)
        want_blocks, want_views, want = self.step(None, generator_outputs)
        # without a demand every block holds the live items 0-3
        for k, reads in self.READS.items():
            for got, full in zip(blocks["comp", k], want_blocks["comp", k]):
                assert np.array_equal(got, full[reads])
        for key, value in want_views.items():
            assert np.array_equal(views[key], value), key
        for name, grad in want.items():
            if name.startswith("gen."):
                # the weight products sum over fewer (zero) rows
                err = np.max(np.abs(grads[name] - grad)) / np.max(np.abs(grad))
                assert err <= 1e-12, name
            else:
                assert np.array_equal(grads[name], grad), name


class TestReconstruct:
    def test_identity_map_unit_vectors(self):
        # pair (u, i) reads noise row u and noise row m + i, each through
        # the reconstructor on its own
        params = init_params(2, 3, 3, 3, seed=10)
        rows = np.random.default_rng(10).normal(size=(5, 3))
        pairs = [(1, 2), (0, 1), (1, 0)]
        t = Tape()
        leaves = params.leaves(t)
        out = reconstruct(t.constant(rows), leaves, pairs, num_users=2)
        for k, (u, i) in enumerate(pairs):
            f_u = mlp_forward(t.constant(rows[[u]]), leaves, "rec").value
            f_i = mlp_forward(t.constant(rows[[2 + i]]), leaves, "rec").value
            assert out.value[k, 0] == pytest.approx(np.dot(f_u[0], f_i[0]),
                                                    rel=1e-12)

    def test_zero_noise_constant_prediction(self):
        params = init_params(2, 2, 3, 3, seed=11)
        t = Tape()
        leaves = params.leaves(t)
        noise = t.constant(np.zeros((4, 3)))
        out = reconstruct(noise, leaves, [(0, 0), (1, 1)], num_users=2)
        assert out.value[0, 0] == pytest.approx(out.value[1, 0])


class TestCheckpoint:
    def test_bit_exact_roundtrip(self, tmp_path):
        params = init_params(4, 5, 3, 3, seed=12)
        path = tmp_path / "model.npz"
        save_checkpoint(params, path, seed=12)
        loaded, seed = load_checkpoint(path)
        assert seed == 12
        assert (loaded.num_users, loaded.num_items) == (4, 5)
        for k, arr in params.param_arrays().items():
            assert np.array_equal(arr, loaded.param_arrays()[k])

    def test_byte_identical_across_saves(self, tmp_path):
        params = init_params(4, 5, 3, 3, seed=13)
        p1, p2 = tmp_path / "a.npz", tmp_path / "b.npz"
        save_checkpoint(params, p1, seed=13)
        save_checkpoint(params, p2, seed=13)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("change, name", [("missing", "rec.b2"),
                                              ("extra", "gen.w4"),
                                              ("shape", "gen.w2")])
    def test_load_rejects_arrays_init_params_does_not_make(self, tmp_path,
                                                          change, name):
        table = dict(init_params(4, 5, 3, 3, seed=15).param_arrays())
        if change == "missing":
            del table[name]
        else:
            table[name] = np.zeros((3, 4))
        path = tmp_path / "model.npz"
        np.savez(path, meta=np.array([4, 5, 3, 3, 15]), **table)
        with pytest.raises(DataError, match=name):
            load_checkpoint(path)

    def test_copy_is_independent(self):
        params = init_params(2, 2, 2, 2, seed=14)
        dup = params.copy()
        dup.base_embedding[0, 0] += 1.0
        assert params.base_embedding[0, 0] != dup.base_embedding[0, 0]
