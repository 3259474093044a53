import numpy as np
import pytest

import gclrec.diffcore as dc
from gclrec.diffcore import DiffError, Tape, backward, infonce
from gclrec.losses import (
    bpr_loss,
    joint_loss,
    kl_loss,
    l2_reg,
    median_bandwidth,
    mmd_loss,
    multi_pair_cl,
    recon_loss,
)

from oracles import infonce_composite, infonce_dense, log, mmd_dense
from test_diffcore import fd_check

TOL = 1e-9


def node_of(value, tape=None, name=None):
    tape = tape or Tape()
    return tape.leaf(np.asarray(value, dtype=np.float64), name=name)


def scalar(node):
    return float(node.value[0, 0])


class TestBPR:
    def test_equal_scores_give_ln2(self):
        t = Tape()
        s = node_of([[1.0], [2.0]], t)
        assert scalar(bpr_loss(s, s)) == pytest.approx(np.log(2.0), abs=TOL)

    def test_unit_margin(self):
        t = Tape()
        pos = node_of([[1.0]], t)
        neg = node_of([[0.0]], t)
        assert scalar(bpr_loss(pos, neg)) == pytest.approx(
            np.log1p(np.exp(-1.0)), abs=TOL)

    def test_huge_margin_tends_to_zero_without_overflow(self):
        t = Tape()
        pos = node_of([[1e4]], t)
        neg = node_of([[0.0]], t)
        v = scalar(bpr_loss(pos, neg))
        assert np.isfinite(v) and v == pytest.approx(0.0, abs=1e-12)

    def test_mean_over_triples(self):
        t = Tape()
        pos = node_of([[1.0], [0.0]], t)
        neg = node_of([[0.0], [0.0]], t)
        expected = (np.log1p(np.exp(-1.0)) + np.log(2.0)) / 2.0
        assert scalar(bpr_loss(pos, neg)) == pytest.approx(expected, abs=TOL)

    def test_is_softplus_of_the_reversed_margin(self):
        # the margin's sign is taken in the subtraction, which is exact:
        # fl(b - a) = -fl(a - b)
        t = Tape()
        pos = node_of([[1.0], [2.0]], t)
        neg = node_of([[0.5], [3.0]], t)
        loss = bpr_loss(pos, neg)
        assert [n.op for n in t.nodes[2:]] == ["sub", "softplus",
                                               "reduce_mean"]
        assert loss.parents[0].parents[0].parents == (neg, pos)

    def test_length_mismatch(self):
        t = Tape()
        with pytest.raises(dc.ShapeError, match="bpr"):
            bpr_loss(node_of([[1.0]], t), node_of([[1.0], [2.0]], t))


class TestInfoNCE:
    def test_single_pair_is_zero(self):
        t = Tape()
        a = node_of([[0.3, -1.2, 4.0]], t)
        assert scalar(infonce(a, a, tau=0.2)) == pytest.approx(0.0, abs=TOL)

    def test_orthonormal_two_rows(self):
        t = Tape()
        a = node_of(np.eye(2), t)
        b = node_of(np.eye(2), t)
        expected = np.log1p(np.exp(-5.0))  # softplus(-1/tau)
        assert scalar(infonce(a, b, tau=0.2)) == pytest.approx(expected, abs=TOL)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(0)
        va = rng.normal(size=(6, 4))
        vb = rng.normal(size=(6, 4))
        t = Tape()
        a = dc.rownorm(node_of(va, t))
        b = dc.rownorm(node_of(vb, t))
        assert scalar(infonce(a, b, tau=0.2)) == pytest.approx(
            infonce_dense(va, vb, 0.2), abs=1e-10)

    def test_decreases_when_positive_similarity_rises(self):
        rng = np.random.default_rng(1)
        base = rng.normal(size=(5, 3))
        other = rng.normal(size=(5, 3))
        t1 = Tape()
        low = scalar(infonce(node_of(base, t1), node_of(other, t1), 0.2))
        t2 = Tape()
        closer = other + 2.0 * (base - other) * 0.5  # move b toward a
        high = scalar(infonce(node_of(base, t2), node_of(closer, t2), 0.2))
        assert high < low

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        va, vb = rng.normal(size=(7, 3)), rng.normal(size=(7, 3))
        perm = rng.permutation(7)
        t = Tape()
        plain = scalar(infonce(node_of(va, t), node_of(vb, t), 0.2))
        t2 = Tape()
        permuted = scalar(infonce(node_of(va[perm], t2),
                                  node_of(vb[perm], t2), 0.2))
        assert plain == pytest.approx(permuted, abs=1e-12)

    def test_stability_under_large_logits(self):
        t = Tape()
        a = node_of([[100.0, 0.0], [0.0, 100.0]], t)
        v = scalar(infonce(a, a, tau=0.2))
        assert np.isfinite(v)

    def test_bad_temperature(self):
        t = Tape()
        a = node_of(np.eye(2), t)
        with pytest.raises(ValueError, match="temperature"):
            infonce(a, a, tau=0.0)


class TestMultiPairCL:
    def make_views(self, tape, seed, rows=4, dim=3):
        rng = np.random.default_rng(seed)
        return (node_of(rng.normal(size=(rows, dim)), tape),
                node_of(rng.normal(size=(rows, dim)), tape))

    def test_mean_of_equal_terms(self):
        t = Tape()
        u = self.make_views(t, 3)
        v = scalar(multi_pair_cl(u, u, u, tau=0.2))
        single = scalar(multi_pair_cl(u, None, None, tau=0.2))
        assert v == pytest.approx(single, abs=1e-12)

    def test_absent_complement_averages_two(self):
        t = Tape()
        u, i = self.make_views(t, 4), self.make_views(t, 5)
        lu = scalar(multi_pair_cl(u, None, None, 0.2))
        li = scalar(multi_pair_cl(None, i, None, 0.2))
        both = scalar(multi_pair_cl(u, i, None, 0.2))
        assert both == pytest.approx((lu + li) / 2.0, abs=1e-12)

    def test_single_row_batches_give_zero(self):
        t = Tape()
        u = self.make_views(t, 6, rows=1)
        i = self.make_views(t, 7, rows=1)
        c = self.make_views(t, 8, rows=1)
        assert scalar(multi_pair_cl(u, i, c, 0.2)) == pytest.approx(0.0, abs=TOL)

    def test_normalization_flag(self):
        t = Tape()
        u = self.make_views(t, 9)
        # the views are row-normalized: cosines, not raw dot products
        normalized = scalar(multi_pair_cl(u, None, None, 0.2))
        a, b = u
        expected = infonce_dense(a.value, b.value, 0.2)
        assert normalized == pytest.approx(expected, abs=1e-10)
        raw = scalar(infonce(a, b, 0.2))
        assert raw != pytest.approx(normalized, abs=1e-6)

    def test_no_views_rejected(self):
        with pytest.raises(ValueError):
            multi_pair_cl(None, None, None, 0.2)

    def test_one_fused_node_per_term_and_the_composites_bits(self,
                                                             monkeypatch):
        # the three view pairs of a training step: the user pair shares a
        # view and a complement view has a zero row
        rng = np.random.default_rng(10)
        arrays = {k: rng.normal(size=(5, 3)) for k in ("u", "i1", "i2", "c1")}
        arrays["c2"] = arrays["c1"].copy()
        arrays["c2"][2] = 0.0

        def run():
            t = Tape()
            lv = {k: node_of(v, t, name=k) for k, v in arrays.items()}
            loss = dc.scale(multi_pair_cl(
                (lv["u"], lv["u"]), (lv["i1"], lv["i2"]),
                (lv["c1"], lv["c2"]), 0.2), 0.3)
            ops = [n.op for n in t.nodes]
            return loss.value.copy(), backward(loss), ops

        value, grads, ops = run()
        monkeypatch.setattr(dc, "infonce", infonce_composite)
        want_value, want, _ = run()
        assert ops.count("infonce") == 3
        assert np.array_equal(value, want_value)
        for name in arrays:
            assert np.array_equal(grads[name], want[name]), name


class TestReconLoss:
    def test_exact_reconstruction_zero(self):
        t = Tape()
        pred = node_of([[1.0], [0.0]], t)
        assert scalar(recon_loss(pred, [1.0, 0.0])) == 0.0

    def test_unit_error(self):
        t = Tape()
        pred = node_of([[0.0]], t)
        assert scalar(recon_loss(pred, [1.0])) == pytest.approx(1.0, abs=TOL)

    def test_mixed_batch(self):
        t = Tape()
        pred = node_of([[1.0], [0.5]], t)
        assert scalar(recon_loss(pred, [1.0, 0.0])) == pytest.approx(
            0.125, abs=TOL)


class TestKL:
    def kl(self, mu, s2):
        t = Tape()
        return scalar(kl_loss(node_of(mu, t), node_of(s2, t)))

    def test_prior_match_is_zero(self):
        assert self.kl([[0.0]], [[1.0]]) == pytest.approx(0.0, abs=TOL)

    def test_mu_one_coincides(self):
        assert self.kl([[1.0]], [[1.0]]) == pytest.approx(0.5, abs=TOL)

    def test_mu_two_is_half_its_square(self):
        assert self.kl([[2.0]], [[1.0]]) == pytest.approx(2.0, abs=TOL)

    def test_standard_nonnegative_with_unique_zero(self):
        rng = np.random.default_rng(3)
        mu = rng.normal(size=(4, 3))
        s2 = np.exp(rng.normal(size=(4, 3)))
        assert self.kl(mu, s2) > 0.0
        assert self.kl(np.zeros((4, 3)), np.ones((4, 3))) == \
            pytest.approx(0.0, abs=TOL)

    def test_nonpositive_sigma_rejected(self):
        # sigma2 = exp(logvar) underflows to 0 when training diverges, so
        # this is a numeric failure (exit 4), not a bad argument
        with pytest.raises(DiffError, match="sigma2"):
            self.kl([[0.0]], [[0.0]])

    @staticmethod
    def kl_with_ones(mu, s2):
        # the earlier composition, which subtracted a full-size ones constant
        ones = mu.tape.constant(np.ones(mu.shape))
        inner = dc.sub(dc.sub(dc.add(dc.square(mu), s2), log(s2)), ones)
        return dc.scale(dc.reduce_mean(inner), 0.5)

    def test_no_full_size_constant_and_same_bits(self):
        rng = np.random.default_rng(11)
        mu_v = rng.normal(size=(7, 5))
        s2_v = np.exp(rng.normal(size=(7, 5)))
        results = []
        for build in (kl_loss, self.kl_with_ones):
            t = Tape()
            mu, s2 = node_of(mu_v, t, "mu"), node_of(s2_v, t, "s2")
            loss = build(mu, s2)
            if build is kl_loss:
                assert not [n for n in t.nodes if n.op == "constant"
                            and n.shape == mu.shape]
            results.append((loss.value, backward(loss)))
        (value, grads), (ref_value, ref_grads) = results
        assert np.array_equal(value, ref_value)
        for name in ("mu", "s2"):
            assert np.array_equal(grads[name], ref_grads[name])


class TestMMD:
    def test_identical_sets_zero(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(6, 3))
        t = Tape()
        v = scalar(mmd_loss(node_of(x, t), node_of(x.copy(), t), bandwidth=1.0))
        assert v == pytest.approx(0.0, abs=1e-12)

    def test_two_singletons_closed_form(self):
        x = np.array([[0.0, 0.0]])
        y = np.array([[3.0, 4.0]])
        bw = 2.0
        k_xy = np.exp(-25.0 / (2.0 * bw * bw))
        t = Tape()
        v = scalar(mmd_loss(node_of(x, t), node_of(y, t), bw))
        assert v == pytest.approx(2.0 * (1.0 - k_xy), abs=TOL)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(5)
        x, y = rng.normal(size=(5, 2)), rng.normal(size=(7, 2)) + 0.5
        t = Tape()
        v = scalar(mmd_loss(node_of(x, t), node_of(y, t), bandwidth=1.3))
        assert v == pytest.approx(mmd_dense(x, y, 1.3), abs=1e-10)

    def test_nonnegative(self):
        rng = np.random.default_rng(6)
        for trial in range(10):
            x = rng.normal(size=(4, 2))
            y = rng.normal(size=(5, 2))
            t = Tape()
            assert scalar(mmd_loss(node_of(x, t), node_of(y, t), 1.0)) >= -1e-12

    def test_bad_bandwidth(self):
        t = Tape()
        x = node_of(np.ones((2, 2)), t)
        with pytest.raises(ValueError, match="bandwidth"):
            mmd_loss(x, x, bandwidth=0.0)

    def test_median_bandwidth_positive(self):
        rng = np.random.default_rng(7)
        bw = median_bandwidth(rng.normal(size=(5, 3)), rng.normal(size=(4, 3)))
        assert bw > 0
        assert median_bandwidth(np.zeros((3, 2)), np.zeros((3, 2))) == 1.0


class TestL2Reg:
    def test_single_row(self):
        t = Tape()
        assert scalar(l2_reg(node_of([[3.0, 4.0]], t), 1.0)) == pytest.approx(
            25.0, abs=TOL)

    def test_zero_rows(self):
        t = Tape()
        assert scalar(l2_reg(node_of(np.zeros((4, 2)), t), 0.5)) == 0.0

    def test_negative_coeff_rejected(self):
        t = Tape()
        with pytest.raises(ValueError):
            l2_reg(node_of([[1.0]], t), -0.1)


class TestJointLoss:
    def consts(self, tape, *values):
        return [node_of([[v]], tape) for v in values]

    def test_all_zero(self):
        t = Tape()
        rec, cl, recon, ddl, reg = self.consts(t, 0, 0, 0, 0, 0)
        report, total = joint_loss(rec, cl, recon, ddl, reg, lambda_=1.0)
        assert report.total == 0.0

    def test_rec_plus_cl(self):
        t = Tape()
        rec, cl = self.consts(t, 1.0, 1.0)
        report, _ = joint_loss(rec, cl, None, None, None, lambda_=1.0)
        assert report.total == pytest.approx(2.0, abs=TOL)
        assert report.recon == 0.0 and report.ddl == 0.0

    def test_worked_sum(self):
        t = Tape()
        rec, cl, recon, ddl, reg = self.consts(t, 0.5, 0.2, 0.1, 0.05, 0.01)
        report, _ = joint_loss(rec, cl, recon, ddl, reg, lambda_=1.0)
        assert report.total == pytest.approx(0.86, abs=TOL)

    def test_lambda_weighting_and_invariant(self):
        t = Tape()
        rec, cl, recon, ddl, reg = self.consts(t, 0.4, 0.3, 0.2, 0.1, 0.05)
        lam = 0.7
        report, total = joint_loss(rec, cl, recon, ddl, reg, lambda_=lam)
        recomposed = (report.rec + lam * report.cl +
                      (report.recon + report.ddl) + report.reg)
        assert abs(report.total - recomposed) < 1e-12
        assert scalar(total) == report.total

    def test_nonfinite_component_named(self):
        t = Tape()
        rec = node_of([[np.nan]], t)
        cl = node_of([[0.0]], t)
        with pytest.raises(DiffError, match="'rec'"):
            joint_loss(rec, cl, None, None, None, 1.0)


class TestLossGradients:
    """Every loss matches central finite differences on small instances."""

    def test_bpr_through_scores(self):
        arrays = {"zu": np.random.default_rng(8).normal(size=(5, 3)),
                  "zi": np.random.default_rng(9).normal(size=(5, 3))}

        def build(t, lv):
            pos = dc.reduce_sum(dc.mul(lv["zu"], lv["zi"]), axis=1)
            neg = dc.reduce_sum(dc.mul(lv["zu"], dc.scale(lv["zi"], 0.5)),
                                axis=1)
            return bpr_loss(pos, neg)

        assert fd_check(build, arrays) < 1e-4

    def test_infonce_normalized(self):
        arrays = {"a": np.random.default_rng(10).normal(size=(5, 3)),
                  "b": np.random.default_rng(11).normal(size=(5, 3))}

        def build(t, lv):
            return infonce(dc.rownorm(lv["a"]), dc.rownorm(lv["b"]), 0.2)

        assert fd_check(build, arrays) < 1e-4

    def test_multi_pair_cl(self):
        rng = np.random.default_rng(12)
        arrays = {k: rng.normal(size=(4, 3)) for k in
                  ("u1", "u2", "i1", "i2", "c1", "c2")}

        def build(t, lv):
            return multi_pair_cl((lv["u1"], lv["u2"]), (lv["i1"], lv["i2"]),
                                 (lv["c1"], lv["c2"]), 0.2)

        assert fd_check(build, arrays) < 1e-4

    def test_recon(self):
        arrays = {"pred": np.random.default_rng(13).normal(size=(5, 1))}
        target = np.random.default_rng(14).integers(0, 2, 5).astype(float)

        def build(t, lv):
            return recon_loss(lv["pred"], target)

        assert fd_check(build, arrays) < 1e-4

    def test_kl_standard_form(self):
        rng = np.random.default_rng(15)
        arrays = {"mu": rng.normal(size=(5, 2)),
                  "logvar": rng.normal(size=(5, 2)) * 0.5}

        def build(t, lv):
            return kl_loss(lv["mu"], dc.exp(lv["logvar"]))

        assert fd_check(build, arrays) < 1e-4

    def test_mmd_fixed_bandwidth(self):
        rng = np.random.default_rng(16)
        arrays = {"x": rng.normal(size=(5, 2))}
        prior = rng.normal(size=(6, 2))

        def build(t, lv):
            return mmd_loss(lv["x"], t.constant(prior), bandwidth=1.1)

        assert fd_check(build, arrays) < 1e-4

    def test_l2(self):
        arrays = {"rows": np.random.default_rng(17).normal(size=(5, 3))}
        assert fd_check(lambda t, lv: l2_reg(lv["rows"], 0.3), arrays) < 1e-4
