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
    return dc.reduce_mean(dc.softplus(dc.sub(neg_scores, pos_scores)))


def multi_pair_cl(user_views, item_views, comp_views, tau):
    """Mean of the per-class contrastive losses.

    Each views argument is a pair of view nodes with one row per entity;
    ``comp_views`` may be None when the complement channel is off.  The
    views are row-normalized first, so the similarities are cosines, and
    each pair is one :func:`diffcore.infonce` node, which checks the view
    shapes and the temperature.
    """
    losses = []
    for views in (user_views, item_views, comp_views):
        if views is None:
            continue
        a, b = views
        losses.append(dc.infonce(dc.rownorm(a), dc.rownorm(b), tau))
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


def mmd_loss(gen_samples, prior_samples, bandwidth):
    """Biased V-statistic maximum mean discrepancy with an RBF kernel
    k(a,b) = exp(-|a-b|^2 / (2 bandwidth^2)), as one
    :func:`diffcore.rbf_mmd` node, which checks the sample widths."""
    if bandwidth <= 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth}")
    if gen_samples.shape[0] == 0 or prior_samples.shape[0] == 0:
        raise ValueError("mmd_loss requires non-empty sample sets")
    return dc.rbf_mmd(gen_samples, prior_samples, bandwidth)


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
