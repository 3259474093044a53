import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

import gclrec.diffcore as dc
from gclrec.diffcore import (
    DiffError,
    ShapeError,
    Tape,
    backward,
    check_gradients,
)
from gclrec.graphs import build_complement, build_interaction_matrix
from gclrec.trainer import AdamState, adam_step

from conftest import random_interactions
from oracles import (
    broadcast_add,
    gather_zeros_and_add,
    infonce_composite,
    inject_spmm_composite,
    kl_normal_composite,
    log,
    mmd_composite,
    sample_composite,
)

TOL = 1e-4


def fd_check(build, arrays, h=1e-5):
    """Gradient-check a scalar composition of primitives.

    ``build(tape, leaves)`` constructs the loss node from named leaves.
    """
    def f(point):
        t = Tape()
        leaves = {k: t.leaf(v, name=k) for k, v in point.items()}
        loss = build(t, leaves)
        grads = backward(loss)
        return float(loss.value[0, 0]), grads

    return check_gradients(f, arrays, h=h)


def rand(shape, seed, loc=0.0, scl=1.0):
    return np.random.default_rng(seed).normal(loc, scl, shape)


class TestPrimitiveForward:
    def test_spmm_identity(self):
        t = Tape()
        S = sp.eye(2, format="csr")
        M = t.leaf(np.array([[1.0, 2.0], [3.0, 4.0]]), name="M")
        out = dc.spmm(S, M)
        np.testing.assert_array_equal(out.value, M.value)

    def test_rownorm_unit_rows(self):
        t = Tape()
        x = t.leaf(np.array([[3.0, 4.0], [0.0, 2.0]]))
        y = dc.rownorm(x)
        np.testing.assert_allclose(np.linalg.norm(y.value, axis=1), [1.0, 1.0])

    def test_rownorm_zero_row_maps_to_zero_with_zero_grad(self):
        t = Tape()
        x = t.leaf(np.array([[0.0, 0.0], [1.0, 1.0]]), name="x")
        y = dc.rownorm(x)
        np.testing.assert_array_equal(y.value[0], [0.0, 0.0])
        grads = backward(dc.reduce_sum(y))
        np.testing.assert_array_equal(grads["x"][0], [0.0, 0.0])
        assert np.any(grads["x"][1] != 0.0)

    def test_gelu_matches_erf_form(self):
        from scipy.special import erf
        t = Tape()
        v = np.linspace(-3, 3, 13).reshape(1, -1)
        y = dc.gelu(t.leaf(v))
        expected = 0.5 * v * (1.0 + erf(v / np.sqrt(2.0)))
        np.testing.assert_allclose(y.value, expected, atol=1e-15)

    def test_reductions_shapes(self):
        t = Tape()
        x = t.leaf(np.arange(6.0).reshape(2, 3))
        assert dc.reduce_sum(x).shape == (1, 1)
        assert dc.reduce_sum(x, axis=0).shape == (1, 3)
        assert dc.reduce_sum(x, axis=1).shape == (2, 1)
        assert dc.reduce_mean(x).value[0, 0] == pytest.approx(2.5)


class TestBackwardBasics:
    def test_quadratic_gradient(self):
        t = Tape()
        x = t.leaf(np.array([[1.0, 2.0, 3.0]]), name="x")
        loss = dc.reduce_sum(dc.mul(x, x))
        grads = backward(loss)
        np.testing.assert_allclose(grads["x"], [[2.0, 4.0, 6.0]])

    def test_matmul_rule(self):
        t = Tape()
        A = t.leaf(rand((3, 4), 0), name="A")
        B = t.leaf(rand((4, 2), 1), name="B")
        grads = backward(dc.reduce_sum(dc.matmul(A, B)))
        ones = np.ones((3, 2))
        np.testing.assert_allclose(grads["A"], ones @ B.value.T)
        np.testing.assert_allclose(grads["B"], A.value.T @ ones)

    def test_fanout_accumulates_by_summation(self):
        # loss = sum(f(x) + g(x)) with a shared leaf
        t = Tape()
        x = t.leaf(np.array([[1.0, -2.0]]), name="x")
        loss = dc.reduce_sum(dc.add(dc.mul(x, x), dc.scale(x, 3.0)))
        grads = backward(loss)
        np.testing.assert_allclose(grads["x"], 2.0 * x.value + 3.0)

    def test_passthrough_gradients_not_aliased(self):
        # y = x + x routes the same upstream grad to one leaf twice; the
        # accumulated result must be 2, not a corrupted buffer.
        t = Tape()
        x = t.leaf(np.ones((2, 2)), name="x")
        grads = backward(dc.reduce_sum(dc.add(x, x)))
        np.testing.assert_array_equal(grads["x"], 2.0 * np.ones((2, 2)))

    def test_unreached_leaf_gets_zero_table_entry(self):
        t = Tape()
        x = t.leaf(np.ones((1, 2)), name="x")
        y = t.leaf(np.ones((1, 2)), name="y")
        grads = backward(dc.reduce_sum(dc.mul(x, x)))
        np.testing.assert_array_equal(grads["y"], np.zeros((1, 2)))

    def test_nonscalar_loss_rejected(self):
        t = Tape()
        x = t.leaf(np.ones((2, 2)))
        with pytest.raises(ValueError, match="scalar"):
            backward(dc.mul(x, x))

    def test_backward_bit_deterministic(self):
        def run():
            t = Tape()
            x = t.leaf(rand((4, 3), 5), name="x")
            w = t.leaf(rand((3, 3), 6), name="w")
            h = dc.gelu(dc.matmul(x, w))
            loss = dc.reduce_mean(dc.square(dc.rownorm(h)))
            return backward(loss)

        a, b = run(), run()
        for k in a:
            assert np.array_equal(a[k], b[k])


def unfused_mlp(x, w1, b1, w2, b2, w3, b3):
    h1 = dc.gelu(broadcast_add(dc.matmul(x, w1), b1, axis=0))
    h2 = dc.gelu(broadcast_add(dc.matmul(h1, w2), b2, axis=0))
    return broadcast_add(dc.matmul(h2, w3), b3, axis=0)


MLP_NAMES = ("x", "w1", "b1", "w2", "b2", "w3", "b3")


def mlp_arrays(seed):
    shapes = ((6, 3), (3, 5), (1, 5), (5, 4), (1, 4), (4, 8), (1, 8))
    return {name: rand(shape, seed + i)
            for i, (name, shape) in enumerate(zip(MLP_NAMES, shapes))}


class TestMlp3:
    def test_bit_identical_to_composition(self):
        arrays = mlp_arrays(40)
        target = rand((6, 8), 50)

        def run(mlp):
            t = Tape()
            lv = [t.leaf(arrays[name], name=name) for name in MLP_NAMES]
            out = mlp(*lv)
            value = out.value.copy()
            loss = dc.reduce_sum(dc.square(dc.sub(out, t.constant(target))))
            return value, backward(loss)

        fused_value, fused = run(dc.mlp3)
        plain_value, plain = run(unfused_mlp)
        assert np.array_equal(fused_value, plain_value)
        assert set(fused) == set(MLP_NAMES)
        for name in MLP_NAMES:
            assert np.array_equal(fused[name], plain[name]), name

    def test_gradcheck_all_inputs(self):
        target = rand((6, 8), 51)

        def build(t, lv):
            out = dc.mlp3(*(lv[name] for name in MLP_NAMES))
            return dc.reduce_sum(dc.square(dc.sub(out, t.constant(target))))

        assert fd_check(build, mlp_arrays(41)) < TOL

    def test_one_row_rounds_as_inside_a_block(self):
        # numpy multiplies a lone row through a matrix-vector routine,
        # which rounds differently from a row of a larger block
        shapes = ((7, 32), (32, 32), (1, 32), (32, 32), (1, 32), (32, 16),
                  (1, 16))
        arrays = {name: rand(shape, 60 + i)
                  for i, (name, shape) in enumerate(zip(MLP_NAMES, shapes))}
        weights = rand((7, 16), 70)

        def run(rows):
            t = Tape()
            lv = [t.leaf(arrays[name][:rows] if name == "x" else arrays[name],
                         name=name) for name in MLP_NAMES]
            out = dc.mlp3(*lv)
            loss = dc.reduce_sum(dc.mul(out, t.constant(weights[:rows])))
            return out.value, backward(loss)["x"]

        block_value, block_grad = run(7)
        row_value, row_grad = run(1)
        assert np.array_equal(row_value, block_value[:1])
        assert np.array_equal(row_grad, block_grad[:1])

    T = dc.MLP_TILE_ROWS

    @pytest.mark.parametrize("rows", [1, 2, 3, T - 1, T, T + 1, T + 2,
                                      T + T // 2, 2 * T + 1, 3 * T - 1])
    def test_tiles_round_as_one_block(self, monkeypatch, rows):
        shapes = ((rows, 8), (8, 16), (1, 16), (16, 16), (1, 16), (16, 6),
                  (1, 6))
        arrays = {name: rand(shape, 80 + i)
                  for i, (name, shape) in enumerate(zip(MLP_NAMES, shapes))}
        weights = rand((rows, 6), 90)

        def run():
            t = Tape()
            lv = [t.leaf(arrays[name], name=name) for name in MLP_NAMES]
            out = dc.mlp3(*lv)
            value = out.value.copy()
            loss = dc.reduce_sum(dc.mul(out, t.constant(weights)))
            return value, backward(loss)

        tiled_value, tiled = run()
        monkeypatch.setattr(dc, "MLP_TILE_ROWS", 4 * self.T)
        block_value, block = run()
        assert np.array_equal(tiled_value, block_value)
        assert set(tiled) == set(MLP_NAMES)
        for name in MLP_NAMES:
            assert np.array_equal(tiled[name], block[name]), name

    @pytest.mark.parametrize("rows", [0, 1, 2, T - 1, T, T + 1,
                                      T + T // 2 - 1, T + T // 2, 2 * T + 1,
                                      5 * T + 3])
    def test_row_tiles(self, rows):
        tiles = dc._row_tiles(rows)
        # every row once, in order
        every = np.arange(rows)
        assert np.array_equal(
            np.concatenate([every[t] for t in tiles] + [every[:0]]), every)
        heights = [t.stop - t.start for t in tiles]
        assert all(h <= self.T * 3 // 2 for h in heights)
        # one row only when the input has one, and a short last tile
        # joins the one before it
        assert all(h > 1 for h in heights) or rows == 1
        assert all(h >= self.T // 2 for h in heights) or len(heights) == 1

    def test_one_node_on_the_tape(self):
        t = Tape()
        lv = [t.leaf(a) for a in mlp_arrays(42).values()]
        dc.mlp3(*lv)
        assert [n.op for n in t.nodes] == ["leaf"] * 7 + ["mlp3"]

    def test_bias_shape_checked(self):
        t = Tape()
        lv = [t.leaf(a) for a in mlp_arrays(43).values()]
        lv[4] = t.leaf(np.ones((1, 3)))
        with pytest.raises(ShapeError, match="mlp3.*layer 2"):
            dc.mlp3(*lv)


def ui1_block(kl_fn, out, eps, weights):
    """The first user-item noise block under KL: mu and sigma^2 slices of
    a generator output, the sample built from them as
    :func:`model.generate_noise` builds it, and the KL term, so that both
    terms fan out into mu and sigma^2."""
    d = out.shape[1] // 2
    mu = dc.col_slice(out, 0, d)
    logvar = dc.col_slice(out, d, 2 * d)
    var = dc.exp(logvar)
    sample = sample_composite(mu, var, eps)
    term = dc.reduce_sum(dc.mul(sample, out.tape.constant(weights)))
    return dc.add(term, kl_fn(mu, var))


# each fused primitive and the composition it replaces
FUSED = {"infonce": (dc.infonce, infonce_composite),
         "inject_spmm": (dc.inject_spmm, inject_spmm_composite),
         "kl_normal": (dc.kl_normal, kl_normal_composite),
         "rbf_mmd": (dc.rbf_mmd, mmd_composite),
         "ui1 block": (
             lambda *a: ui1_block(dc.kl_normal, *a),
             lambda *a: ui1_block(kl_normal_composite, *a))}


def with_zero_row(x, row=1):
    x = x.copy()
    x[row] = 0.0
    return x


def zero_signed(x):
    """x with its first two entries +0.0 and -0.0."""
    x = x.copy()
    x.flat[:2] = (0.0, -0.0)
    return x


# rectangular, as an operator restricted to a demand is
OP = sp.csr_matrix(np.where(rand((4, 5), 88) > 0, rand((4, 5), 89), 0.0))
OP_ONE_COLUMN = sp.csr_matrix(rand((3, 1), 100))

# (primitive, case) -> (leaf arrays, build(primitive, leaves))
FUSED_CASES = {
    ("infonce", "plain"): (
        {"a": rand((5, 4), 70), "b": rand((5, 4), 71)},
        lambda f, lv: f(lv["a"], lv["b"], 0.2)),
    ("infonce", "one row"): (
        {"a": rand((1, 4), 72), "b": rand((1, 4), 73)},
        lambda f, lv: f(lv["a"], lv["b"], 0.2)),
    ("infonce", "fan-out"): (
        {"a": rand((5, 4), 74)}, lambda f, lv: f(lv["a"], lv["a"], 0.2)),
    # a view row zeroed by rownorm's guard, as multi_pair_cl passes it
    ("infonce", "guarded row"): (
        {"a": with_zero_row(rand((5, 4), 75)), "b": rand((5, 4), 76)},
        lambda f, lv: f(dc.rownorm(lv["a"]), dc.rownorm(lv["b"]), 0.2)),
    # the views also reach the loss on their own, after the term
    ("infonce", "shared views"): (
        {"a": rand((5, 4), 77), "b": rand((5, 4), 78)},
        lambda f, lv: dc.add(f(lv["a"], lv["b"], 0.2),
                             dc.reduce_sum(dc.mul(lv["a"], lv["b"])))),
    ("infonce", "tau 1e-3"): (
        {"a": rand((6, 4), 79), "b": rand((6, 4), 80)},
        lambda f, lv: f(lv["a"], lv["b"], 1e-3)),
    ("inject_spmm", "plain"): (
        {"z": rand((5, 4), 81), "x": rand((5, 4), 82)},
        lambda f, lv: f(OP, lv["z"], lv["x"])),
    ("inject_spmm", "one row"): (
        {"z": rand((1, 4), 83), "x": rand((1, 4), 84)},
        lambda f, lv: f(OP_ONE_COLUMN, lv["z"], lv["x"])),
    ("inject_spmm", "guarded row"): (
        {"z": rand((5, 4), 85), "x": with_zero_row(rand((5, 4), 86))},
        lambda f, lv: f(OP, lv["z"], lv["x"])),
    ("inject_spmm", "fan-out"): (
        {"x": rand((5, 4), 87)}, lambda f, lv: f(OP, lv["x"], lv["x"])),
    # x already holds a gradient when the node adds z's piece, then x's
    ("inject_spmm", "fan-out after a later use"): (
        {"x": rand((5, 4), 123)},
        lambda f, lv: dc.add(f(OP, lv["x"], lv["x"]),
                             dc.spmm(OP, dc.exp(lv["x"])))),
    # at these draws, adding the terms in another order moves the mean's
    # last bit
    ("kl_normal", "standard"): (
        {"mu": rand((5, 3), 124), "ls": rand((5, 3), 125)},
        lambda f, lv: f(lv["mu"], dc.exp(lv["ls"]))),
    ("kl_normal", "one entry"): (
        {"mu": rand((1, 1), 110), "ls": rand((1, 1), 111)},
        lambda f, lv: f(lv["mu"], dc.exp(lv["ls"]))),
    # mu and sigma^2 one node: each piece adds into the same gradient
    ("kl_normal", "fan-out"): (
        {"ls": rand((5, 3), 116)},
        lambda f, lv: f(*[dc.exp(lv["ls"])] * 2)),
    # mu reaches the loss on its own, before the term
    ("kl_normal", "shared mu"): (
        {"mu": rand((5, 3), 118), "ls": rand((5, 3), 119)},
        lambda f, lv: dc.add(dc.reduce_sum(dc.square(lv["mu"])),
                             f(lv["mu"], dc.exp(lv["ls"])))),
    ("rbf_mmd", "y constant"): (
        {"x": rand((6, 3), 126)},
        lambda f, lv: f(lv["x"], lv["x"].tape.constant(rand((6, 3), 127)),
                        1.3)),
    ("rbf_mmd", "y leaf"): (
        {"x": rand((5, 3), 128), "y": rand((5, 3), 129, loc=0.5)},
        lambda f, lv: f(lv["x"], lv["y"], 0.9)),
    # x reaches the loss on its own, before the term
    ("rbf_mmd", "x read before"): (
        {"x": rand((5, 3), 130), "y": rand((5, 3), 131)},
        lambda f, lv: dc.add(dc.reduce_sum(dc.square(lv["x"])),
                             f(lv["x"], lv["y"], 1.1))),
    ("rbf_mmd", "one row"): (
        {"x": rand((1, 4), 132), "y": rand((3, 4), 133)},
        lambda f, lv: f(lv["x"], lv["y"], 1.7)),
    ("rbf_mmd", "unequal rows"): (
        {"x": rand((4, 2), 134), "y": rand((9, 2), 135)},
        lambda f, lv: f(lv["x"], lv["y"], 0.6)),
    # every block's pieces add into the one gradient
    ("rbf_mmd", "x is y"): (
        {"x": rand((5, 3), 136)}, lambda f, lv: f(lv["x"], lv["x"], 1.2)),
    ("ui1 block", "sigma2 sample"): (
        {"out": rand((5, 6), 120, scl=0.5)},
        lambda f, lv: f(lv["out"], rand((5, 3), 121),
                        zero_signed(rand((5, 3), 122)))),
}


def assert_same_bits(got, want):
    """Equal values, and equal signs of their zeros."""
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


class TestFusedNodes:
    """Each fused primitive gives the value and every gradient of the
    composition it replaces (tests/oracles.py) bit for bit, and records
    one node."""

    @pytest.mark.parametrize("case", FUSED_CASES, ids="-".join)
    def test_equals_composition_bit_for_bit(self, case):
        # the output is weighted, so the upstream gradient is not 1; a
        # weight array of more than two entries starts with +0.0 and -0.0
        arrays, build = FUSED_CASES[case]
        runs = []
        for fn in FUSED[case[0]]:
            t = Tape()
            lv = {k: t.leaf(v, name=k) for k, v in arrays.items()}
            out = build(fn, lv)
            weights = rand(out.shape, 99)
            if weights.size > 2:
                weights.flat[:2] = (0.0, -0.0)
            loss = dc.reduce_sum(dc.mul(out, t.constant(weights)))
            runs.append((out.value.copy(), backward(loss)))
        (value, grads), (want_value, want) = runs
        assert_same_bits(value, want_value)
        assert sorted(grads) == sorted(arrays)
        for name in arrays:
            assert_same_bits(grads[name], want[name])

    def test_tau_1e3_raises_no_warning(self):
        arrays, build = FUSED_CASES["infonce", "tau 1e-3"]
        t = Tape()
        lv = {k: t.leaf(v, name=k) for k, v in arrays.items()}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss = build(dc.infonce, lv)
            grads = backward(loss)
        assert np.isfinite(loss.value).all()
        assert all(np.isfinite(g).all() for g in grads.values())

    def test_infonce_keeps_no_square_array(self):
        # the backward pass recomputes the B x B exp matrix; the node's
        # closure, and the closures it calls, hold nothing that size
        t = Tape()
        a, b = t.leaf(rand((7, 3), 95)), t.leaf(rand((7, 3), 96))
        node = dc.infonce(a, b, 0.2)
        held, todo = [], [node._backward]
        while todo:
            for cell in todo.pop().__closure__ or ():
                item = cell.cell_contents
                if callable(item) and hasattr(item, "__closure__"):
                    todo.append(item)
                elif isinstance(item, np.ndarray):
                    held.append(item.shape)
        assert held and all(shape[0] * shape[1] <= 7 for shape in held)

    def test_rbf_mmd_holds_one_kernel_block_at_a_time(self):
        # both passes build the three blocks, each freed before the next
        rows = 600
        block = rows * rows * 8
        t = Tape()
        x, y = t.leaf(rand((rows, 8), 93)), t.leaf(rand((rows, 8), 94))

        def peak(run):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out = run()
            return out, tracemalloc.get_traced_memory()[1] - base

        tracemalloc.start()
        try:
            mmd, forward = peak(lambda: dc.rbf_mmd(x, y, 1.0))
            _, sweep = peak(lambda: backward(mmd))
        finally:
            tracemalloc.stop()
        assert block <= forward < 1.5 * block
        assert block <= sweep < 1.5 * block

    @pytest.mark.parametrize("fn, arity, op", [
        (lambda a, b: dc.infonce(a, b, 0.2), 2, "infonce"),
        (lambda a, b: dc.inject_spmm(OP[:, :4], a, b), 2, "inject_spmm"),
        (dc.kl_normal, 2, "kl_normal"),
        (lambda a, b: dc.rbf_mmd(a, b, 1.0), 2, "rbf_mmd")])
    def test_one_node_on_the_tape(self, fn, arity, op):
        t = Tape()
        # positive inputs, which kl_normal's sigma^2 needs
        fn(*(t.leaf(np.exp(rand((4, 4), 98 + k))) for k in range(arity)))
        assert [n.op for n in t.nodes] == ["leaf"] * arity + [op]


class TestSlicesAndScatter:
    def test_slices_are_views(self):
        t = Tape()
        x = t.leaf(rand((5, 4), 60))
        assert np.shares_memory(dc.row_slice(x, 1, 3).value, x.value)
        assert np.shares_memory(dc.col_slice(x, 2, 4).value, x.value)

    @pytest.mark.parametrize("piece", ["row", "col", "gather"])
    def test_sliced_and_direct_use_sum_without_aliasing(self, piece):
        # x is read through a slice and directly; the direct use, recorded
        # later, hands x and z one shared pass-through gradient first, so
        # the scatter must not write into that shared buffer
        t = Tape()
        x = t.leaf(rand((4, 3), 61), name="x")
        z = t.leaf(rand((4, 3), 62), name="z")
        idx = np.array([2, 0, 2, 2])
        part = {"row": lambda: dc.row_slice(x, 1, 3),
                "col": lambda: dc.col_slice(x, 1, 3),
                "gather": lambda: dc.gather(x, idx)}[piece]()
        loss = dc.add(dc.reduce_sum(dc.square(part)),
                      dc.reduce_sum(dc.add(x, z)))
        grads = backward(loss)
        want = np.ones((4, 3))
        if piece == "row":
            want[1:3] += 2.0 * x.value[1:3]
        elif piece == "col":
            want[:, 1:3] += 2.0 * x.value[:, 1:3]
        else:
            np.add.at(want, idx, 2.0 * x.value[idx])
        np.testing.assert_allclose(grads["x"], want, rtol=1e-15)
        np.testing.assert_array_equal(grads["z"], np.ones((4, 3)))

    @pytest.mark.parametrize("idx", [[0, 2, 3, 5], [5, 2, 0], [0, 2, 2, 4],
                                     [3, 1, 3, 0, 1], [4], []],
                             ids=["increasing", "decreasing", "repeat",
                                  "unsorted-repeats", "single", "empty"])
    def test_gather_backward_equals_add_at(self, idx):
        # strictly increasing indices assign their rows' gradients, any
        # other index array accumulates them; both give np.add.at's result
        t = Tape()
        x = t.leaf(rand((6, 3), 65), name="x")
        g = rand((len(idx), 3), 66)
        grads = backward(dc.reduce_sum(dc.mul(dc.gather(x, idx),
                                              t.constant(g))))
        want = np.zeros((6, 3))
        np.add.at(want, np.asarray(idx, dtype=np.int64), g)
        assert np.array_equal(grads["x"], want)

    @pytest.mark.parametrize("before", ["none", "owned", "pass-through"])
    @pytest.mark.parametrize("idx", [[0, 2, 3, 5], [5, 2, 0],
                                     [3, 1, 3, 0, 1]],
                             ids=["increasing", "decreasing", "repeats"])
    def test_gather_backward_equals_zeros_and_add(self, idx, before):
        # the parent holds no gradient, an owned one or a pass-through one
        # when the gather's backward pass adds its rows; that gradient is
        # -0.0 in two entries of row 4, which no index names
        w = rand((6, 3), 67)
        w[4, 0] = w[4, 2] = -0.0
        w[2, 1] = 0.0

        def grads(gather):
            t = Tape()
            x = t.leaf(rand((6, 3), 65), name="x")
            term = dc.reduce_sum(dc.mul(gather(x, idx), t.constant(
                zero_signed(rand((len(idx), 3), 66)))))
            if before == "owned":
                later = dc.mul(x, t.constant(w))
            elif before == "pass-through":
                later = dc.mul(dc.add(x, t.constant(w)), t.constant(w))
            else:
                return backward(term)["x"]
            return backward(dc.add(term, dc.reduce_sum(later)))["x"]

        got, want = grads(dc.gather), grads(gather_zeros_and_add)
        assert np.array_equal(got, want)
        # adding a row of zeros turned a -0.0 into +0.0; the scatter
        # leaves the rows no index names as they were
        flipped = np.signbit(got) != np.signbit(want)
        if before == "none":
            assert not flipped.any()
        else:
            assert sorted(zip(*np.nonzero(flipped))) == [(4, 0), (4, 2)]
            assert np.signbit(got[flipped]).all()

            # a zero's sign reaches neither a parameter nor Adam's moments:
            # m starts at +0.0, +0.0 + -0.0 is +0.0, and v adds g * g
            def adam(g, steps):
                p, state = {"x": rand((6, 3), 68)}, AdamState()
                for grad in steps:
                    adam_step(p, {"x": grad}, state)
                adam_step(p, {"x": g}, state)
                return p["x"], state.m["x"], state.v["x"]

            for steps in ([], [rand((6, 3), 69)]):
                for a, b in zip(adam(got, steps), adam(want, steps)):
                    assert a.tobytes() == b.tobytes()

    def test_backward_empties_the_tape(self):
        t = Tape()
        x = t.leaf(rand((2, 2), 63), name="x")
        backward(dc.reduce_sum(dc.square(x)))
        assert t.nodes == []


class TestDroppedValues:
    """A node may drop its value once built; what reads only its shape
    still works."""

    def test_repr_and_shape_of_a_dropped_value(self):
        t = Tape()
        node = dc.square(t.leaf(rand((3, 2), 70)))
        node.value = None
        assert node.shape == (3, 2)
        assert repr(node) == "Node(op='square', shape=(3, 2))"

    @pytest.mark.parametrize("piece", ["gather", "row", "col", "sum",
                                       "mean", "sum0", "mean1"])
    def test_backward_reads_only_the_parents_shape(self, piece):
        def run(drop):
            t = Tape()
            x = t.leaf(rand((5, 3), 71), name="x")
            y = dc.square(x)
            part = {"gather": lambda: dc.gather(y, np.array([4, 1, 1])),
                    "row": lambda: dc.row_slice(y, 1, 4),
                    "col": lambda: dc.col_slice(y, 0, 2),
                    "sum": lambda: dc.reduce_sum(y),
                    "mean": lambda: dc.reduce_mean(y),
                    "sum0": lambda: dc.reduce_sum(y, axis=0),
                    "mean1": lambda: dc.reduce_mean(y, axis=1)}[piece]()
            loss = dc.reduce_sum(dc.mul(part, t.constant(
                rand(part.shape, 72))))
            if drop:
                # square's backward reads x, the piece's reads y's shape
                y.value = None
            return backward(loss)["x"]

        assert np.array_equal(run(drop=True), run(drop=False))


def declared(tape):
    """The nodes whose values some backward pass on ``tape`` reads, by
    the nodes' declarations."""
    read = set()
    for node in tape.nodes:
        if node._backward is not None:
            read.update(node.reads)
            if node.reads_own:
                read.add(node)
    return read


POSITIVE = np.exp(rand((5, 3), 140))

# primitive case -> (leaf arrays, build(tape, leaves)); a constant input
# needs no gradient, which changes what a product reads
DECLARED_CASES = {
    "matmul": ({"a": rand((3, 4), 141), "b": rand((4, 2), 142)},
               lambda t, lv: dc.matmul(lv["a"], lv["b"])),
    "matmul trans_b": ({"a": rand((3, 4), 143), "b": rand((2, 4), 144)},
                       lambda t, lv: dc.matmul(lv["a"], lv["b"],
                                               trans_b=True)),
    "matmul constant": ({"b": rand((4, 2), 145)},
                        lambda t, lv: dc.matmul(t.constant(rand((3, 4), 146)),
                                                lv["b"])),
    "spmm": ({"x": rand((5, 4), 147)}, lambda t, lv: dc.spmm(OP, lv["x"])),
    "add": ({"a": rand((3, 2), 148), "b": rand((3, 2), 149)},
            lambda t, lv: dc.add(lv["a"], lv["b"])),
    "sub": ({"a": rand((3, 2), 150), "b": rand((3, 2), 151)},
            lambda t, lv: dc.sub(lv["a"], lv["b"])),
    "mul": ({"a": rand((3, 2), 152), "b": rand((3, 2), 153)},
            lambda t, lv: dc.mul(lv["a"], lv["b"])),
    "mul constant": ({"a": rand((3, 2), 154)},
                     lambda t, lv: dc.mul(lv["a"], t.constant(
                         rand((3, 2), 155)))),
    "scale": ({"x": rand((3, 2), 156)}, lambda t, lv: dc.scale(lv["x"], -3.0)),
    "mean_of": ({"a": rand((3, 2), 157), "b": rand((3, 2), 158)},
                lambda t, lv: dc.mean_of([lv["a"], lv["b"], lv["a"]])),
    "square": ({"x": rand((3, 2), 159)}, lambda t, lv: dc.square(lv["x"])),
    "exp": ({"x": rand((3, 2), 160)}, lambda t, lv: dc.exp(lv["x"])),
    "softplus": ({"x": rand((3, 2), 161)},
                 lambda t, lv: dc.softplus(lv["x"])),
    "gelu": ({"x": rand((3, 2), 162)}, lambda t, lv: dc.gelu(lv["x"])),
    "mlp3": (mlp_arrays(163),
             lambda t, lv: dc.mlp3(*(lv[k] for k in MLP_NAMES))),
    "mlp3 constant input": (
        {k: v for k, v in mlp_arrays(164).items() if k != "x"},
        lambda t, lv: dc.mlp3(t.constant(rand((6, 3), 165)),
                              *(lv[k] for k in MLP_NAMES[1:]))),
    "rownorm": ({"x": with_zero_row(rand((4, 3), 166))},
                lambda t, lv: dc.rownorm(lv["x"])),
    "gather": ({"x": rand((5, 2), 167)},
               lambda t, lv: dc.gather(lv["x"], [0, 3, 4])),
    "gather repeats": ({"x": rand((5, 2), 168)},
                       lambda t, lv: dc.gather(lv["x"], [3, 0, 3])),
    "row_slice": ({"x": rand((5, 2), 169)},
                  lambda t, lv: dc.row_slice(lv["x"], 1, 4)),
    "col_slice": ({"x": rand((2, 5), 170)},
                  lambda t, lv: dc.col_slice(lv["x"], 1, 4)),
    "reduce_sum": ({"x": rand((3, 2), 171)},
                   lambda t, lv: dc.reduce_sum(lv["x"])),
    "reduce_mean 0": ({"x": rand((3, 2), 172)},
                      lambda t, lv: dc.reduce_mean(lv["x"], axis=0)),
    "reduce_sum 1": ({"x": rand((3, 2), 173)},
                     lambda t, lv: dc.reduce_sum(lv["x"], axis=1)),
    "inject_spmm": ({"z": rand((5, 4), 178), "x": rand((5, 4), 179)},
                    lambda t, lv: dc.inject_spmm(OP, lv["z"], lv["x"])),
    "inject_spmm constant noise": (
        {"z": rand((5, 4), 180)},
        lambda t, lv: dc.inject_spmm(OP, lv["z"], t.constant(
            rand((5, 4), 181)))),
    "kl_normal": ({"mu": rand((5, 3), 182), "s": POSITIVE},
                  lambda t, lv: dc.kl_normal(lv["mu"], lv["s"])),
    "kl_normal constant mu": (
        {"s": POSITIVE},
        lambda t, lv: dc.kl_normal(t.constant(rand((5, 3), 183)), lv["s"])),
    "infonce": ({"a": rand((5, 3), 184), "b": rand((5, 3), 185)},
                lambda t, lv: dc.infonce(lv["a"], lv["b"], 0.2)),
    "rbf_mmd": ({"x": rand((5, 3), 174), "y": rand((4, 3), 175)},
                lambda t, lv: dc.rbf_mmd(lv["x"], lv["y"], 1.1)),
    "rbf_mmd constant y": (
        {"x": rand((5, 3), 176)},
        lambda t, lv: dc.rbf_mmd(lv["x"], t.constant(rand((4, 3), 177)),
                                 1.1)),
}


class TestDeclaredReads:
    """Each primitive declares the values its backward pass reads: the
    release drops every other value, and no declared value is spare."""

    @staticmethod
    def grads(case, drop):
        """The case's gradients, with the values of the nodes ``drop(tape,
        loss)`` lists dropped before the backward pass."""
        arrays, build = DECLARED_CASES[case]
        t = Tape()
        lv = {k: t.leaf(v, name=k) for k, v in arrays.items()}
        out = build(t, lv)
        loss = dc.reduce_sum(dc.mul(out, t.constant(
            zero_signed(rand(out.shape, 186)))))
        for node in drop(t, loss):
            node.value = None
        return backward(loss)

    @pytest.mark.parametrize("case", DECLARED_CASES)
    def test_gradients_read_only_declared_values(self, case):
        want = self.grads(case, lambda t, loss: [])
        # leaves and constants too; backward itself reads the loss's
        got = self.grads(case, lambda t, loss: [
            n for n in t.nodes if n not in declared(t) | {loss}])
        assert sorted(got) == sorted(want)
        for name in want:
            assert_same_bits(got[name], want[name])

    @pytest.mark.parametrize("case", DECLARED_CASES)
    def test_every_declared_parent_value_is_read(self, case):
        # exp's own value, the one value read that is no parent's, is
        # also held by its backward closure
        positions = []

        def record(t, loss):
            positions.extend(k for k, n in enumerate(t.nodes)
                             if any(n in m.reads for m in t.nodes))
            return []

        self.grads(case, record)
        for k in positions:
            with pytest.raises((TypeError, AttributeError, ValueError)):
                self.grads(case, lambda t, loss: [t.nodes[k]])

    def test_release_drops_what_no_backward_pass_reads(self):
        t = Tape()
        x = t.leaf(rand((3, 2), 187), name="x")
        c = t.constant(rand((3, 2), 188))
        doubled = dc.scale(x, 2.0)
        squared = dc.square(doubled)  # reads doubled
        weighted = dc.mul(squared, c)  # reads c, not squared
        kernel = dc.exp(weighted)  # reads its own value
        fixed = dc.exp(dc.scale(c, 2.0))  # no backward pass
        total = dc.reduce_sum(dc.add(kernel, fixed))
        dc.release(t.nodes[:-1])
        held = [n.op for n in t.nodes if n.value is not None]
        assert held == ["leaf", "constant", "scale", "exp", "reduce_sum"]
        assert kernel.value is not None and fixed.value is None
        grads = backward(total)["x"]
        want = 8.0 * x.value * c.value * np.exp(4.0 * x.value ** 2 * c.value)
        np.testing.assert_allclose(grads, want, rtol=1e-14)

    def test_a_dropped_sample_is_rebuilt_with_its_bits(self):
        # the noise sample mu + sigma^2 * eps of a layer's inject_spmm;
        # dropped with its product, the backward pass rebuilds it from mu,
        # sigma^2 and eps
        def run(drop):
            t = Tape()
            z = t.leaf(rand((5, 4), 189), name="z")
            mu = t.leaf(rand((5, 4), 190), name="mu")
            sigma2 = dc.exp(t.leaf(rand((5, 4), 191), name="ls"))
            sample = sample_composite(mu, sigma2, zero_signed(rand((5, 4),
                                                                   192)))
            value = sample.value
            out = dc.inject_spmm(OP, z, sample)
            if drop:
                sample.value = sample.parents[1].value = None
                assert dc._value(sample).tobytes() == value.tobytes()
            return backward(dc.reduce_sum(dc.mul(out, t.constant(
                zero_signed(rand(out.shape, 193))))))

        got, want = run(drop=True), run(drop=False)
        for name in want:
            assert_same_bits(got[name], want[name])
        t = Tape()
        node = dc.exp(t.leaf(rand((2, 2), 194)))
        node.value = None
        with pytest.raises(ValueError, match="exp node was dropped"):
            dc._value(node)

    T = dc.MLP_TILE_ROWS

    @pytest.mark.parametrize("rows", [0, 1, 3, T - 1, T + 1, 2 * T + 7])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_rownorm_gradient_tiles_round_as_one_block(self, rows, order):
        g = np.asarray(rand((rows, 64), 195), order=order)
        x = rand((rows, 64), 196)
        if rows > 2:
            x[2] = 0.0  # a guarded row
        inv = dc._inv_norms(x)
        dot = np.sum(g * x, axis=1, keepdims=True)
        want = g * inv - x * (dot * inv ** 3)
        assert_same_bits(dc._rownorm_grad(g, x, inv), want)


class TestSpmmBackward:
    def test_backward_multiplies_by_the_exact_transpose(self):
        # degree scaling rounds (d_a * c) * d_b and (d_b * c) * d_a
        # differently, so a complement matrix is symmetric only up to the
        # last bit; a backward that reused the matrix itself would pass the
        # finite-difference checks yet change training bits
        R = build_interaction_matrix(random_interactions(12, 10, 0.4, seed=0))
        A = build_complement(R, gamma=1.0)
        assert (A != A.T).nnz > 0
        t = Tape()
        x = t.leaf(rand((10, 3), 71), name="x")
        g = rand((10, 3), 72)
        grads = backward(dc.reduce_sum(dc.mul(dc.spmm(A, x), t.constant(g))))
        assert np.array_equal(grads["x"], A.T.tocsr() @ g)


class TestShapeErrors:
    def test_matmul_names_shapes(self):
        t = Tape()
        a, b = t.leaf(np.ones((2, 3))), t.leaf(np.ones((2, 3)))
        with pytest.raises(ShapeError, match=r"matmul.*\(2, 3\)"):
            dc.matmul(a, b)

    def test_add_mismatch(self):
        t = Tape()
        with pytest.raises(ShapeError, match="add"):
            dc.add(t.leaf(np.ones((2, 3))), t.leaf(np.ones((3, 2))))

    def test_spmm_mismatch(self):
        t = Tape()
        S = sp.eye(3, format="csr")
        with pytest.raises(ShapeError, match="spmm"):
            dc.spmm(S, t.leaf(np.ones((2, 2))))

    def test_fused_shapes_checked(self):
        t = Tape()
        a, b = t.leaf(np.ones((2, 4))), t.leaf(np.ones((3, 4)))
        with pytest.raises(ShapeError, match="infonce"):
            dc.infonce(a, b, 0.2)
        with pytest.raises(ShapeError, match="inject_spmm"):
            dc.inject_spmm(sp.identity(2, format="csr"), a, b)
        with pytest.raises(ShapeError, match="inject_spmm"):
            dc.inject_spmm(sp.identity(3, format="csr"), a, a)
        with pytest.raises(ShapeError, match="kl_normal"):
            dc.kl_normal(a, b)
        with pytest.raises(ShapeError, match="rbf_mmd"):
            dc.rbf_mmd(a, t.leaf(np.ones((2, 3))), 1.0)

    def test_mixed_tapes_rejected(self):
        t1, t2 = Tape(), Tape()
        with pytest.raises(ValueError, match="tape"):
            dc.add(t1.leaf(np.ones((1, 1))), t2.leaf(np.ones((1, 1))))

    def test_non_2d_rejected(self):
        with pytest.raises(ShapeError, match="2-D"):
            Tape().leaf(np.ones(3))


class TestPerPrimitiveGradcheck:
    """Every primitive embedded in a scalar composition passes central
    finite differences with relative error < 1e-4."""

    def test_matmul(self):
        arrays = {"A": rand((3, 4), 0), "B": rand((4, 2), 1)}
        err = fd_check(lambda t, lv: dc.reduce_sum(
            dc.square(dc.matmul(lv["A"], lv["B"]))), arrays)
        assert err < TOL

    def test_matmul_trans_b(self):
        arrays = {"A": rand((3, 4), 2), "B": rand((5, 4), 3)}
        err = fd_check(lambda t, lv: dc.reduce_sum(
            dc.square(dc.matmul(lv["A"], lv["B"], trans_b=True))), arrays)
        assert err < TOL

    def test_spmm(self):
        S = sp.random(5, 4, density=0.5, random_state=0, format="csr")
        arrays = {"x": rand((4, 3), 4)}
        err = fd_check(lambda t, lv: dc.reduce_sum(
            dc.square(dc.spmm(S, lv["x"]))), arrays)
        assert err < TOL

    def test_add_sub_mul_scale(self):
        arrays = {"a": rand((3, 3), 5), "b": rand((3, 3), 6)}

        def build(t, lv):
            s = dc.add(lv["a"], lv["b"])
            d = dc.sub(lv["a"], lv["b"])
            return dc.reduce_sum(dc.scale(dc.mul(s, d), 0.7))

        assert fd_check(build, arrays) < TOL

    def test_exp_log(self):
        arrays = {"x": np.abs(rand((2, 4), 7)) + 0.5}
        err = fd_check(lambda t, lv: dc.reduce_sum(
            log(dc.exp(log(lv["x"])))), arrays)
        assert err < TOL

    def test_softplus(self):
        arrays = {"x": rand((2, 5), 9, scl=3.0)}
        err = fd_check(lambda t, lv: dc.reduce_sum(dc.softplus(lv["x"])), arrays)
        assert err < TOL

    def test_gelu(self):
        arrays = {"x": rand((2, 5), 10, scl=2.0)}
        err = fd_check(lambda t, lv: dc.reduce_sum(dc.gelu(lv["x"])), arrays)
        assert err < TOL

    def test_square(self):
        arrays = {"x": rand((3, 2), 11)}
        err = fd_check(lambda t, lv: dc.reduce_sum(dc.square(lv["x"])), arrays)
        assert err < TOL

    def test_rownorm_away_from_zero(self):
        arrays = {"x": rand((4, 3), 12) + np.array([[2.0, 0, 0]])}
        err = fd_check(lambda t, lv: dc.reduce_sum(
            dc.mul(dc.rownorm(lv["x"]), lv["x"])), arrays)
        assert err < TOL

    def test_gather_with_repeats(self):
        idx = np.array([0, 2, 2, 1, 0])
        arrays = {"x": rand((3, 3), 13)}
        err = fd_check(lambda t, lv: dc.reduce_sum(
            dc.square(dc.gather(lv["x"], idx))), arrays)
        assert err < TOL

    def test_row_and_col_slice(self):
        arrays = {"x": rand((5, 6), 14)}

        def build(t, lv):
            r = dc.row_slice(lv["x"], 1, 4)
            c = dc.col_slice(r, 2, 5)
            return dc.reduce_sum(dc.square(c))

        assert fd_check(build, arrays) < TOL

    def test_reductions_all_axes(self):
        arrays = {"x": rand((3, 4), 15)}

        def build(t, lv):
            a = dc.reduce_sum(lv["x"], axis=0)        # (1, 4)
            b = dc.reduce_mean(lv["x"], axis=1)       # (3, 1)
            return dc.add(dc.reduce_sum(dc.square(a)),
                          dc.reduce_mean(dc.square(b)))

        assert fd_check(build, arrays) < TOL


    def test_infonce(self):
        arrays = {"a": rand((4, 3), 19), "b": rand((4, 3), 20)}
        err = fd_check(lambda t, lv: dc.scale(
            dc.infonce(lv["a"], lv["b"], 0.5), 1.7), arrays)
        assert err < TOL

    def test_inject_spmm(self):
        arrays = {"z": rand((5, 3), 21),
                  "x": rand((5, 3), 22) + np.array([[2.0, 0, 0]])}
        weights = rand((4, 3), 23)
        err = fd_check(lambda t, lv: dc.reduce_sum(dc.mul(
            dc.inject_spmm(OP, lv["z"], lv["x"]), t.constant(weights))),
            arrays)
        assert err < TOL

    def test_kl_normal(self):
        arrays = {"mu": rand((4, 3), 31), "ls": rand((4, 3), 32, scl=0.5)}
        err = fd_check(lambda t, lv: dc.scale(dc.kl_normal(
            lv["mu"], dc.exp(lv["ls"])), 1.7), arrays)
        assert err < TOL

    def test_rbf_mmd(self):
        arrays = {"x": rand((4, 3), 33), "y": rand((5, 3), 34, loc=0.3)}
        err = fd_check(lambda t, lv: dc.scale(dc.rbf_mmd(
            lv["x"], lv["y"], 0.8), 1.7), arrays)
        assert err < TOL


class TestCheckGradients:
    def test_scalar_square(self):
        # f(x) = x^2 at x=3: analytic 6, fd agrees to ~1e-6
        def f(point):
            t = Tape()
            x = t.leaf(point["x"], name="x")
            loss = dc.reduce_sum(dc.mul(x, x))
            return float(loss.value[0, 0]), backward(loss)

        err = check_gradients(f, {"x": np.array([[3.0]])})
        assert err < 1e-6

    def test_softplus_chain(self):
        def f(point):
            t = Tape()
            x = t.leaf(point["x"], name="x")
            loss = dc.reduce_sum(dc.softplus(dc.softplus(x)))
            return float(loss.value[0, 0]), backward(loss)

        err = check_gradients(f, {"x": rand((1, 5), 19)})
        assert err < 1e-5

    def test_reparameterized_sample_path(self):
        # sample = mu + sigma^2 * eps with eps frozen: grads flow through
        # mu and through sigma^2 = exp(logvar)
        eps = rand((3, 2), 20)

        def f(point):
            t = Tape()
            mu = t.leaf(point["mu"], name="mu")
            logvar = t.leaf(point["logvar"], name="logvar")
            sample = dc.add(mu, dc.mul(dc.exp(logvar), t.constant(eps)))
            loss = dc.reduce_mean(dc.square(sample))
            return float(loss.value[0, 0]), backward(loss)

        err = check_gradients(f, {"mu": rand((3, 2), 21),
                                  "logvar": rand((3, 2), 22, scl=0.3)})
        assert err < TOL

    def test_nonfinite_value_raises(self):
        def f(point):
            return float("nan"), {}

        with pytest.raises(DiffError, match="finite"):
            check_gradients(f, {"x": np.ones((1, 1))})

    def test_point_restored_after_check(self):
        snapshot = rand((2, 2), 23)
        point = {"x": snapshot.copy()}

        def f(p):
            t = Tape()
            x = t.leaf(p["x"], name="x")
            loss = dc.reduce_sum(dc.square(x))
            return float(loss.value[0, 0]), backward(loss)

        check_gradients(f, point)
        np.testing.assert_array_equal(point["x"], snapshot)
