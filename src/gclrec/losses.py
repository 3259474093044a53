"""Training objectives: pairwise ranking, multi-pair contrastive,
reconstruction, distribution discrepancy (KL or MMD), and L2 weight decay,
plus their weighted composition.

Every function takes tape nodes and returns a scalar node, so gradients of
the joint objective flow through one backward sweep.
"""

from dataclasses import dataclass, fields

import numpy as np

from . import diffcore as dc
from .diffcore import DiffError

__all__ = [
    "LossReport",
    "bpr_loss",
    "infonce",
    "multi_pair_cl",
    "recon_loss",
    "kl_loss",
    "mmd_loss",
    "median_bandwidth",
    "l2_reg",
    "joint_loss",
]


def bpr_loss(pos_scores, neg_scores):
    """Mean pairwise ranking loss -log sigmoid(s+ - s-), computed through
    softplus so large score gaps cannot overflow."""
    if pos_scores.shape != neg_scores.shape:
        raise dc.ShapeError(
            f"bpr_loss: positive scores {pos_scores.shape} and negative "
            f"scores {neg_scores.shape} differ")
    margin = dc.sub(pos_scores, neg_scores)
    return dc.reduce_mean(dc.softplus(dc.scale(margin, -1.0)))


def infonce(view_a, view_b, tau):
    """Mean contrastive loss with in-batch negatives.

    Row x of view_a is positive with row x of view_b and contrasted
    against every other row of view_b; similarities are raw dot products
    scaled by 1/tau.  The log-sum-exp is max-shifted for stability.  The
    loss is one tape node, :func:`diffcore.infonce`.
    """
    if view_a.shape != view_b.shape:
        raise dc.ShapeError(
            f"infonce: view shapes {view_a.shape} and {view_b.shape} differ")
    if tau <= 0:
        raise ValueError(f"temperature must be positive, got {tau}")
    return dc.infonce(view_a, view_b, tau)


def multi_pair_cl(user_views, item_views, comp_views, tau):
    """Mean of the per-class contrastive losses.

    Each views argument is a pair of view nodes with one row per entity;
    ``comp_views`` may be None when the complement channel is off.  The
    views are row-normalized first, so the similarities are cosines.
    """
    losses = []
    for views in (user_views, item_views, comp_views):
        if views is None:
            continue
        a, b = views
        losses.append(infonce(dc.rownorm(a), dc.rownorm(b), tau))
    if not losses:
        raise ValueError("multi_pair_cl: no view pairs present")
    return dc.mean_of(losses)


def recon_loss(predicted, actual):
    """Mean squared error between predicted and observed entries."""
    tape = predicted.tape
    target = np.asarray(actual, dtype=np.float64).reshape(predicted.shape)
    return dc.reduce_mean(dc.square(dc.sub(predicted, tape.constant(target))))


def kl_loss(mu, sigma2):
    """Mean divergence of N(mu, sigma^2) from the unit Gaussian,
    (mu^2 + sigma^2 - ln sigma^2 - 1) / 2 per element, as one tape node,
    :func:`diffcore.kl_normal`.
    """
    if np.any(sigma2.value <= 0):
        raise DiffError("kl_loss requires sigma2 > 0 elementwise")
    return dc.kl_normal(mu, sigma2)


def median_bandwidth(x_values, y_values):
    """Median pairwise distance over the pooled samples; the standard
    parameter-free RBF bandwidth.  Detached from the tape."""
    # imported here: scipy.spatial costs every process that imports this
    # module about 10 MB, and only the MMD term reads it
    from scipy.spatial.distance import pdist

    pooled = np.vstack([np.asarray(x_values), np.asarray(y_values)])
    dists = pdist(pooled)
    # dists is ours: the median may partition it in place
    med = float(np.median(dists, overwrite_input=True)) if len(dists) else 0.0
    return med if med > 0 else 1.0


def _pairwise_sq_dists(a, b, sq_a, sq_b):
    # ||x - y||^2 = |x|^2 + |y|^2 - 2 x.y; the (1, B) row of squared norms
    # comes from a 1x1-times-transpose product, keeping gradients intact.
    # No backward pass reads a B x B value here, so each is released once
    # the node that reads it is built.
    tape = a.tape
    one = tape.constant(np.ones((1, 1)))
    dots = dc.matmul(a, b, trans_b=True)
    cross = dc.scale(dots, -2.0)
    dc.release((dots,))
    with_rows = dc.badd_col(cross, sq_a)
    dc.release((cross,))
    dists = dc.badd_row(with_rows, dc.matmul(one, sq_b, trans_b=True))
    dc.release((with_rows,))
    return dists


def mmd_loss(gen_samples, prior_samples, bandwidth):
    """Biased V-statistic maximum mean discrepancy with an RBF kernel
    k(a,b) = exp(-|a-b|^2 / (2 bandwidth^2))."""
    if bandwidth <= 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth}")
    if gen_samples.shape[1] != prior_samples.shape[1]:
        raise dc.ShapeError(
            f"mmd_loss: sample dimensions {gen_samples.shape[1]} and "
            f"{prior_samples.shape[1]} differ")
    if gen_samples.shape[0] == 0 or prior_samples.shape[0] == 0:
        raise ValueError("mmd_loss requires non-empty sample sets")
    coeff = -1.0 / (2.0 * bandwidth * bandwidth)
    x, y = gen_samples, prior_samples
    sq_x = dc.reduce_sum(dc.square(x), axis=1)
    sq_y = dc.reduce_sum(dc.square(y), axis=1)

    def kernel_mean(a, b, sq_a, sq_b):
        # of the kernel's B x B values, only exp's is read backward
        dists = _pairwise_sq_dists(a, b, sq_a, sq_b)
        scaled = dc.scale(dists, coeff)
        dc.release((dists,))
        kernel = dc.exp(scaled)
        dc.release((scaled,))
        return dc.reduce_mean(kernel)

    k_xx = kernel_mean(x, x, sq_x, sq_x)
    k_yy = kernel_mean(y, y, sq_y, sq_y)
    k_xy = kernel_mean(x, y, sq_x, sq_y)
    return dc.add(dc.add(k_xx, k_yy), dc.scale(k_xy, -2.0))


def l2_reg(rows, coeff):
    """coeff times the sum of squared entries of the given rows."""
    if coeff < 0:
        raise ValueError(f"regularization coefficient must be >= 0, got {coeff}")
    return dc.scale(dc.reduce_sum(dc.square(rows)), coeff)


@dataclass
class LossReport:
    """Scalar values of every term plus their weighted total."""

    rec: float
    cl: float
    recon: float
    ddl: float
    reg: float
    total: float


def _component_value(node, name):
    if node is None:
        return 0.0
    v = float(node.value[0, 0])
    if not np.isfinite(v):
        raise DiffError(f"loss component {name!r} is not finite: {v}")
    return v


def joint_loss(rec, cl, recon, ddl, reg, lambda_):
    """Compose total = rec + lambda*cl + (recon + ddl) + reg over the terms
    present, added in :class:`LossReport`'s order; absent terms contribute
    zero.  Returns (report, total node).
    """
    terms = dict(zip((f.name for f in fields(LossReport) if f.name != "total"),
                     (rec, cl, recon, ddl, reg), strict=True))
    values = {name: _component_value(node, name)
              for name, node in terms.items()}
    total = None
    for name, node in terms.items():
        if node is None:
            continue
        weight = lambda_ if name == "cl" else 1.0
        term = node if weight == 1.0 else dc.scale(node, weight)
        total = term if total is None else dc.add(total, term)
    if total is None:
        raise ValueError("joint_loss: every component is absent")
    report = LossReport(total=float(total.value[0, 0]), **values)
    return report, total
