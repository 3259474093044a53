"""Joint mini-batch optimization: configuration schema, Adam, the epoch
loop over shuffled positives, periodic ranking evaluation, and early
stopping on Recall@20."""

import ctypes
import math
from dataclasses import astuple, dataclass, field, fields, replace

import numpy as np

from . import diffcore as dc
from . import losses as ls
from .dataset import sample_negatives
from .diffcore import DiffError, Tape
from .graphs import build_graph, build_interaction_matrix
from .metrics import rank_topk, topk_metrics
from .model import encode, init_params, reconstruct

__all__ = [
    "ConfigError",
    "TrainConfig",
    "read_settings",
    "AdamState",
    "adam_step",
    "build_context",
    "train_epoch",
    "evaluate_model",
    "FitResult",
    "fit",
    "HISTORY_CSV_HEADER",
]

HISTORY_CSV_HEADER = ",".join(
    ["epoch", *(f.name for f in fields(ls.LossReport)), "recall20", "ndcg20"])


class ConfigError(ValueError):
    """Unknown key, unparseable value, or invalid setting combination."""


def _parse_bool(text):
    if text in ("true", "True", "1"):
        return True
    if text in ("false", "False", "0"):
        return False
    raise ValueError(f"expected true or false, got {text!r}")


def _setting(default, op=None, bound=None, key=None, choices=None):
    """A :class:`TrainConfig` field: its default, its check (``op``, ">="
    or ">", against ``bound``, or one of ``choices``) and its dotted
    config key where that is not the field name."""
    return field(default=default, metadata={
        "op": op, "bound": bound, "key": key, "choices": choices})


@dataclass(slots=True)
class TrainConfig:
    """Every tunable of a run, addressable by dotted config keys.  Its
    slots make assigning a field it does not have an error.

    A field is the whole declaration of its setting: its type picks the
    parser of ``KEYS`` (:func:`_parse_bool` for bool) and
    :func:`_setting` gives its key and its check, so adding a setting is
    one field line.

    Every noise sample is mu + sigma^2 * epsilon, so its spread is
    sigma^2.  ``noise_mode`` is generative (mu and sigma^2 learned per
    row), random (mu = 0, sigma^2 = 0.1) or none.  ``noise_distribution``
    gaussian keeps the raw reparameterized sample; uniform passes it
    through GELU.  A layer adds the sample row-normalized, so random's
    0.1 acts only through uniform's GELU: gaussian 0.1 * epsilon and
    epsilon inject the same rows.  In mode generative the distribution
    also picks the term that pulls the first user-item block towards its
    prior: gaussian the analytic KL of N(mu, sigma^2) from N(0, 1),
    uniform a sample-based MMD against U[0, 1) draws.
    """

    d: int = _setting(64, ">=", 1)
    h: int = _setting(64, ">=", 1)
    L: int = _setting(3, ">=", 1)
    gamma: float = _setting(3.0, ">=", 0)
    tau: float = _setting(0.2, ">", 0)
    lambda_: float = _setting(1.0, ">=", 0, key="lambda")
    learning_rate: float = _setting(0.001, ">", 0)
    batch_size: int = _setting(2048, ">=", 1)
    reg_coeff: float = _setting(0.0001, ">=", 0)
    epochs_max: int = _setting(500, ">=", 1)
    patience: int = _setting(10, ">=", 1)
    eval_interval: int = _setting(5, ">=", 1)
    seed: int = _setting(42, ">=", 0)
    folds: int = _setting(5, ">=", 2)
    data_path: str = _setting("", key="data.path")
    noise_mode: str = _setting("generative", key="noise.mode",
                               choices=("generative", "random", "none"))
    noise_distribution: str = _setting("gaussian", key="noise.distribution",
                                       choices=("gaussian", "uniform"))
    complement_enabled: bool = _setting(True, key="complement.enabled")
    cl_view_a: str = _setting("avg", key="cl.view_a")
    cl_view_b: str = _setting("1", key="cl.view_b")

    @classmethod
    def from_strings(cls, table):
        """Build from dotted-key -> string-value pairs, e.g. a parsed
        config file.  Unknown keys raise ConfigError naming the key."""
        cfg = cls()
        cfg.apply_strings(table)
        return cfg

    def apply_strings(self, table):
        for key, raw in table.items():
            if key not in self.KEYS:
                raise ConfigError(f"unknown config key: {key}")
            name, parse = self.KEYS[key]
            try:
                setattr(self, name, parse(raw))
            except ValueError as exc:
                raise ConfigError(f"bad value for {key}: {exc}") from exc
        self.validate()
        return self

    def to_strings(self):
        """Dotted-key -> string-value table; parsing it back is identity."""
        out = {}
        for key, (name, _) in self.KEYS.items():
            value = getattr(self, name)
            if isinstance(value, bool):
                out[key] = "true" if value else "false"
            elif isinstance(value, float):
                out[key] = repr(value)
            else:
                out[key] = str(value)
        return out

    def validate(self):
        """Check every field, in field order, then the view selectors
        against ``L``; the first failure raises."""
        for f in fields(self):
            m, value = f.metadata, getattr(self, f.name)
            key, op, bound = m["key"] or f.name, m["op"], m["bound"]
            if f.type is float and not math.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value}")
            if op and not (value >= bound if op == ">=" else value > bound):
                raise ConfigError(f"{key} must be {op} {bound}, got {value}")
            if m["choices"] and value not in m["choices"]:
                raise ConfigError(f"unknown {key}: {value}")
        for key, sel in (("cl.view_a", self.cl_view_a),
                         ("cl.view_b", self.cl_view_b)):
            if sel != "avg":
                try:
                    layer = int(sel)
                except ValueError:
                    raise ConfigError(
                        f"{key} must be a layer number or 'avg', got {sel!r}")
                if not 1 <= layer <= self.L:
                    raise ConfigError(
                        f"{key}={sel} outside layers 1..{self.L}")

    def copy(self):
        return replace(self)


# dotted config key -> (field name, parser)
TrainConfig.KEYS = {
    f.metadata["key"] or f.name:
        (f.name, _parse_bool if f.type is bool else f.type)
    for f in fields(TrainConfig)}


def read_settings(items):
    """Dotted-key -> string-value table of ``(where, "key = value")``
    items, a later key winning; an item without ``=`` names ``where``."""
    table = {}
    for where, text in items:
        key, sep, value = text.partition("=")
        if not sep:
            raise ConfigError(
                f"{where}: expected key = value, got {text!r}")
        table[key.strip()] = value.strip()
    return table


# ------------------------------------------------------------------ Adam


@dataclass
class AdamState:
    """First/second moment tables keyed like the parameter table."""

    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: int = 0


# Adam's moment decay rates and denominator floor
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


def adam_step(param_table, grads, state, lr=0.001):
    """Bias-corrected Adam update, in place on the parameter arrays.

    All or nothing: a non-finite gradient anywhere, or a second moment
    that would overflow, raises DiffError before any parameter, moment or
    the step count changes."""
    t = state.t + 1

    def v_hat(v, g):  # the update's operations, in its order
        return (BETA2 * v + (1.0 - BETA2) * g * g) / (1.0 - BETA2 ** t)

    for name in param_table:
        g = grads[name]
        g_max = np.abs(g).max(initial=0.0)
        if not np.isfinite(g_max):
            raise DiffError(f"non-finite gradient for {name!r}; training diverged")
        v = state.v.get(name, 0.0)
        # each operation rounds monotonically, so the largest |g| and the
        # largest v bound every entry; only a bound that overflows needs
        # the entries themselves
        with np.errstate(over="ignore"):
            if not (np.isfinite(v_hat(np.max(v), g_max))
                    or np.isfinite(v_hat(v, g)).all()):
                raise DiffError(f"Adam's second moment for {name!r} "
                                f"overflows at |gradient| {g_max:.3g}; "
                                f"training diverged")
    state.t = t
    for name, p in param_table.items():
        g = grads[name]
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        m, v = state.m[name], state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        p -= lr * (m / (1.0 - BETA1 ** t)) / (np.sqrt(v / (1.0 - BETA2 ** t))
                                               + EPS)


# ------------------------------------------------------------- context


def build_context(train, cfg):
    """The fold's :class:`graphs.NormalizedGraph` under ``cfg``."""
    return build_graph(train, gamma=cfg.gamma,
                       complement_enabled=cfg.complement_enabled)


def _batch_loss(params, ctx, cfg, rng, users, pos_items, neg_items):
    """Forward pass and joint loss for one batch, one sampled negative per
    positive; returns (report, total node, gradient table).

    The backward sweep runs in reverse creation order, so where a term
    is built sets when the sweep allocates its gradients.  The
    contrastive term is built last, so the sweep meets it, and the B x B
    exp matrices its InfoNCE nodes recompute, while few gradients are
    alive.  The reconstruction and KL terms are built inside
    :func:`encode`, right after layer 1's product and before any layer-2
    node, so the full-height gradients they allocate appear only as the
    sweep reaches layer 1.

    The bits do not change.  A node receives its gradient pieces in the
    reverse creation order of its readers, and each node these terms
    share keeps that order: mu and sigma^2 are read by the noise sample
    before the KL term, the sample by layer 1's product, then the
    reconstruction's gathers, then the MMD gather.  The MMD term and its
    prior draw stay after the encoder, so the random stream does not
    move.

    Right before the contrastive term is built, every value that no
    backward pass reads is released (:func:`diffcore.release`), apart
    from the contrastive views and the (1, 1) terms that
    :func:`losses.joint_loss` reads: the partial sums of the layer
    averages, the kept layers and the averages once they are gathered,
    and the products read only by a reduction.  InfoNCE's forward
    transients then sit on a smaller heap.  The discrepancy term is the
    one :class:`TrainConfig` pairs with the noise distribution.
    A gaussian first user-item block's sample is dropped after the
    reconstruction's gathers and rebuilt by layer 1's backward pass from
    mu, sigma^2 and epsilon (see :mod:`model`); a uniform sample, and
    mode random's, keeps its value.
    """
    m = ctx.num_users
    u_idx = np.asarray(users, dtype=np.int64)
    p_idx = np.asarray(pos_items, dtype=np.int64)
    n_idx = np.asarray(neg_items, dtype=np.int64)
    # the rows whose representations the loss reads
    touched = np.unique(np.concatenate([u_idx, m + p_idx, m + n_idx]))
    views_read = (cfg.cl_view_a, cfg.cl_view_b) if cfg.lambda_ > 0 else ()
    generative = cfg.noise_mode == "generative"
    gaussian = cfg.noise_distribution == "gaussian"

    # a term or gradient that overflows is reported, naming where, by
    # joint_loss, kl_loss or adam_step, with no numpy warning before it
    def quiet():
        return np.errstate(over="ignore", invalid="ignore", divide="ignore")

    tape = Tape()
    leaves = params.leaves(tape)
    # the terms built beside layer 1
    terms = dict.fromkeys(("recon", "ddl"))

    def ui1_terms(block):
        pairs = np.vstack([np.column_stack([u_idx, p_idx]),
                           np.column_stack([u_idx, n_idx])])
        targets = np.concatenate([np.ones(len(u_idx)), np.zeros(len(u_idx))])
        with quiet():
            terms["recon"] = ls.recon_loss(
                reconstruct(block.sample, leaves, pairs, m), targets)
            if gaussian:
                terms["ddl"] = ls.kl_loss(block.mu, block.sigma2)

    out = encode(tape, leaves, ctx, cfg, rng, rows=touched,
                 comp_views=views_read,
                 ui1_terms=ui1_terms if generative else None)

    # the user-item output holds the touched rows, and the complement
    # output the touched items
    with quiet():
        zu_b = dc.gather(out.ui_avg, np.searchsorted(touched, u_idx))
        pos_scores = dc.reduce_sum(dc.mul(zu_b, dc.gather(
            out.ui_avg, np.searchsorted(touched, m + p_idx))), axis=1)
        neg_scores = dc.reduce_sum(dc.mul(zu_b, dc.gather(
            out.ui_avg, np.searchsorted(touched, m + n_idx))), axis=1)
        rec = ls.bpr_loss(pos_scores, neg_scores)

        if generative and not gaussian:
            gen = dc.gather(out.noise_blocks[("ui", 1)].sample, touched)
            prior = rng.random((len(touched), cfg.d))
            terms["ddl"] = ls.mmd_loss(gen, tape.constant(prior),
                                       ls.median_bandwidth(gen.value, prior))

        reg = ls.l2_reg(dc.gather(leaves["base_embedding"], touched),
                        cfg.reg_coeff)

        # built last, so the sweep meets it first
        cl, cl_views = None, ()
        if cfg.lambda_ > 0:
            uu, ii = np.unique(u_idx), m + np.unique(p_idx)

            def views(channel, rows, ids):
                idx = np.searchsorted(rows, ids)
                return tuple(dc.gather(out.view(sel, channel), idx)
                             for sel in views_read)

            cl_views = (views("ui", touched, uu), views("ui", touched, ii),
                        views("comp", touched[touched >= m], ii)
                        if ctx.comp is not None else None)
        # the contrastive term's forward transients sit on top of what the
        # tape holds here, so what no backward pass reads goes first
        keep = {rec, terms["recon"], terms["ddl"], reg}.union(
            *(pair for pair in cl_views if pair is not None))
        dc.release(n for n in tape.nodes if n not in keep)
        if cl_views:
            cl = ls.multi_pair_cl(*cl_views, cfg.tau)

        report, total = ls.joint_loss(rec, cl, terms["recon"], terms["ddl"],
                                      reg, cfg.lambda_)
        grads = dc.backward(total)
    return report, total, grads


# glibc mallopt parameters and the values _keep_freed_memory sets
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 1 << 30
_TRIM_THRESHOLD = 2 ** 31 - 1
_heap_kept = False
# rows of the sum into which eval_embeddings adds its last layer at a
# time: a block's product is a small fraction of a layer
EVAL_BLOCK_ROWS = 512


def _keep_freed_memory():
    """Keep the memory a train step or an evaluation frees in the
    process, once per process; a no-op where the C library has no
    ``mallopt``.

    By default glibc serves a block above its dynamic mmap threshold
    (at most 32 MB) from a fresh mapping and trims the heap top on free,
    so a step's largest arrays (the generator output alone is 34.5 MB
    at CiaoDVD scale) are faulted in again at every step.  The threshold
    also rises to the size of each such block freed, so whether a later,
    smaller array comes from the heap or from a mapping depends on what
    ran before it, and an evaluation's arrays are faulted in again at
    every evaluation.  A 1 GiB mmap threshold and no trimming keep them
    on the heap for reuse, at the cost of holding the peak between
    operations.  Both are set: setting the trim threshold alone also
    stops the mmap threshold's growth where it stands, 128 kB in a fresh
    process.
    """
    # the allocator is process state, so the flag is too
    global _heap_kept
    if _heap_kept:
        return
    _heap_kept = True
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def train_epoch(params, ctx, cfg, rng, state):
    """One pass over the shuffled training positives; returns the mean of
    each loss component across batches.  The first call in a process
    applies :func:`_keep_freed_memory`."""
    _keep_freed_memory()
    pairs = ctx.train.pairs
    order = rng.permutation(len(pairs))
    sums = np.zeros(len(fields(ls.LossReport)))
    batches = 0
    for lo in range(0, len(order), cfg.batch_size):
        batch = pairs[order[lo:lo + cfg.batch_size]]
        users, pos = batch[:, 0], batch[:, 1]
        neg = sample_negatives(ctx.R, users, rng)
        report, _, grads = _batch_loss(params, ctx, cfg, rng, users, pos, neg)
        adam_step(params.param_arrays(), grads, state, lr=cfg.learning_rate)
        sums += astuple(report)
        batches += 1
    return ls.LossReport(*(sums / batches).tolist())


def eval_embeddings(params, ctx, cfg):
    """Deterministic encoder output for scoring: the user-item channel
    with noise off, the mean of layers 1..L, bit for bit what
    :func:`encode` gives in mode none.  Scores read only the user-item
    channel, so the complement channel is not run.  Raises
    :class:`DiffError` when an embedding is not finite.

    No backward pass follows, so the layers run without a tape, and each
    layer is added into a running sum in ``dc.mean_of``'s order,
    ((z1 + z2) + z3) (1/L).  The sum starts as layer 1 itself.  The graph
    is bipartite: a layer's user rows read only the previous layer's item
    rows, and its item rows only its user rows.  So a later layer is made
    as two halves, ``ctx.ui[:m, m:]`` @ the previous item half and
    ``ctx.ui[m:, :m]`` @ the previous user half.  A layer before the
    last is made whole, smaller half first, and a half is dropped as soon
    as the half it feeds is made.  The last layer is added into the sum
    :data:`EVAL_BLOCK_ROWS` rows at a time, each block's product straight
    into the sum's rows; for L = 2 the layer it reads is the sum's own
    rows, so its smaller half is made whole first, before any ``+=``
    changes the rows the other half reads, and added last.  At the peak
    the sum, the layer read (none for L = 2, which holds the smaller half
    instead) and one block's product and operator rows are alive, and
    for L > 3 the peak of a layer before the last: the sum, the layer
    read and the smaller half made.  Slicing keeps each row's entries in
    order, so halves and blocks are the rows of ``ctx.ui`` @ the layer
    bit for bit, and in-place ``+=`` and ``*=`` round as the tape's adds
    and scale do.  Returns the user and item row views of the mean."""
    m, n = ctx.num_users, ctx.num_items
    # half s is the operator's rows [start[s], stop[s]) and columns
    # cols[s] times the other half of the layer before
    start, stop = (0, m), (m, m + n)
    cols = (np.s_[m:], np.s_[:m])
    small = 0 if m <= n else 1
    # an overflow shows as a non-finite embedding, reported below
    with np.errstate(over="ignore", invalid="ignore"):
        total = ctx.ui @ params.base_embedding
        # layer 1's halves are the sum's rows, read before the first +=
        layer = [total[:m], total[m:]]
        for _ in range(2, cfg.L):
            made = [None, None]
            for side in (small, 1 - small):
                made[side] = (ctx.ui[start[side]:stop[side], cols[side]]
                              @ layer[1 - side])
                layer[1 - side] = None
            for side in (0, 1):
                total[start[side]:stop[side]] += made[side]
            layer = made
        if cfg.L > 1:
            # for L = 2 the layer read is the sum's rows: the smaller half
            # is made before any += changes the rows it reads
            held = (ctx.ui[start[small]:stop[small], cols[small]]
                    @ layer[1 - small]) if cfg.L == 2 else None
            for side in (1 - small,) if cfg.L == 2 else (1 - small, small):
                for lo in range(start[side], stop[side], EVAL_BLOCK_ROWS):
                    hi = min(lo + EVAL_BLOCK_ROWS, stop[side])
                    total[lo:hi] += ctx.ui[lo:hi, cols[side]] @ layer[1 - side]
                layer[1 - side] = None
            if held is not None:
                total[start[small]:stop[small]] += held
            # the last layer goes before the finiteness check's mask comes
            del layer, held
        total *= 1.0 / cfg.L
    if not np.isfinite(total).all():
        raise DiffError("non-finite embeddings for evaluation")
    return total[:m], total[m:]


def evaluate_model(params, ctx, test, cfg, ks=(5, 10, 20)):
    """Ranking metrics on a held-out split at each cutoff.

    Only users with both train and test interactions are ranked; users
    with train but no test interactions are tallied as skipped, and users
    without train interactions are excluded.  The first call in a process
    applies :func:`_keep_freed_memory`, so that a standalone evaluation
    reuses the memory of the one before.
    """
    _keep_freed_memory()
    z_u, z_i = eval_embeddings(params, ctx, cfg)
    T = build_interaction_matrix(test)
    has_train = np.diff(ctx.R.indptr) > 0
    has_test = np.diff(T.indptr) > 0
    users = np.flatnonzero(has_train & has_test)
    skipped = int(np.count_nonzero(has_train & ~has_test))
    test_items = T[users]
    # a catalog smaller than a cutoff ranks every item it has
    depth = min(max(ks), z_i.shape[0])
    top = rank_topk(z_u, z_i, ctx.R, depth, users=users)
    return {k: replace(topk_metrics(top[:, :k], test_items, k),
                       users_skipped=skipped) for k in sorted(ks)}


# ---------------------------------------------------------------- fit


@dataclass
class FitResult:
    params: object
    best_metrics: dict
    best_epoch: int
    epochs_run: int


def fit(cfg, fold, on_epoch=None):
    """Train on one fold with periodic evaluation and early stopping.

    The rng stream and initialization derive from cfg.seed + fold_index,
    so folds are independent and the whole run is reproducible.  Keeps
    the parameters of the best Recall@20 evaluation; stops after
    `patience` evaluations without improvement.

    ``on_epoch(epoch, report, metrics, row, params, ctx)``, when given,
    runs as each epoch ends: ``report`` is the epoch's mean LossReport,
    ``metrics`` its Recall/NDCG@20 RankingMetrics (None when the epoch
    was not evaluated), ``row`` its history row, and ``params``/``ctx``
    the live parameters and training context.  A hook that writes as it
    goes leaves a record of the finished epochs when a later one fails.
    """
    derived_seed = cfg.seed + fold.fold_index
    rng = np.random.default_rng(derived_seed)
    ctx = build_context(fold.train, cfg)
    params = init_params(ctx.num_users, ctx.num_items, cfg.d, cfg.h,
                         seed=derived_seed)
    state = AdamState()
    best = None
    best_epoch = 0
    stale = 0
    epochs_run = 0

    for epoch in range(1, cfg.epochs_max + 1):
        report = train_epoch(params, ctx, cfg, rng, state)
        epochs_run = epoch
        eval_cols, metrics = ",", None
        if epoch % cfg.eval_interval == 0 or epoch == cfg.epochs_max:
            metrics = evaluate_model(params, ctx, fold.test, cfg, ks=(20,))[20]
            eval_cols = f"{metrics.recall!r},{metrics.ndcg!r}"
            if best is None or metrics.recall > best:
                best = metrics.recall
                best_params = params.copy()
                best_epoch = epoch
                stale = 0
            else:
                stale += 1
        row = ",".join([str(epoch), *map(repr, astuple(report)), eval_cols])
        if on_epoch is not None:
            on_epoch(epoch, report, metrics, row, params, ctx)
        if stale >= cfg.patience:
            break

    best_metrics = evaluate_model(best_params, ctx, fold.test, cfg)
    return FitResult(
        params=best_params,
        best_metrics=best_metrics,
        best_epoch=best_epoch,
        epochs_run=epochs_run,
    )
