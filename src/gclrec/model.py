"""Model parameters, the noise generator/reconstructor pair, and the
noisy propagation encoder.

The encoder runs two channels from one shared embedding table: the
user-item channel propagates over the normalized bipartite adjacency, the
complement channel propagates item embeddings over the normalized item
co-occurrence matrix.  At every layer a generator MLP maps that layer's
input embeddings to a Gaussian (mu, log variance) pair, a noise sample is
drawn by reparameterization, row-normalized, and added before the sparse
product.  Final representations average layers 1..L; the input layer is
excluded.  The output keeps the table's layout: one row per user, then
one per item, and in the complement channel one per item.

A noise block builds its sample from the generator output [mu |
log-variance] out of generic nodes, mu + sigma^2 * epsilon with sigma^2 =
exp(log-variance), and then releases the values no later node reads
(:func:`diffcore.release`): the product sigma^2 * epsilon, the
log-variance view and the generator output, and mu unless its sigma^2
is read; no backward closure holds an array of the generator output.
Each layer adds the sample, row-normalized, to its input and propagates
the sum as one :func:`diffcore.inject_spmm` node, which keeps no noisy
input.  The first user-item block, when it is gaussian, keeps its mu
and sigma^2 nodes for the KL term; it copies mu into an array of its
own before any closure takes it, so that the 2d-wide output can go.

That block's (m+n) x d sample is then rebuilt rather than kept: layer
1's node holds the block's ``rebuild``, which computes mu + sigma^2 *
epsilon from the arrays the KL, exp and product closures hold, with the
forward pass's operations in its order, so it has the same bits.  Once
layer 1's product and the terms built beside it (``ui1_terms``, see
below) have read the sample, its value is dropped and nothing holds it.
Layer 1's node holds a uniform sample (a GELU), and mode random's.

A training step builds the two terms that read the first user-item
block, the reconstruction term and the KL term, through :func:`encode`'s
``ui1_terms``: right after layer 1's product, before any layer-2 node.
The backward sweep runs in reverse creation order, so it allocates their
full-height gradients only as it reaches layer 1.  The bits do not
change: the nodes these terms share with the encoder, the block's mu,
sigma^2 and sample, are still read by them after the encoder's own
readers, so each receives its gradient pieces in the same order.

A training step keeps of each propagated layer only the rows it reads:
once a layer's rows are gathered, for the next layer and for the kept
rows, the layer drops its value.  A layer that the next layer's
generator reads whole, with no gather between them, stays alive in
that generator's backward closure, which reads its input.

The encoder computes only what its caller reads, the demand: the
user-item rows whose final representations are read and the complement
views read.  A training step reads the rows of its batch.  Layer L then
computes only those rows, and layer k < L only those rows and the
neighbours layer k+1 reads, so a layer k >= 2 runs its generator and
its product over that neighbourhood only.  The complement channel walks
back the same way from the demanded items, or from every item.  Only
the user-item layer-1 generator runs over every row, because the KL
term averages over all of its rows.  ``rows=None`` computes every
user-item row, the full-height reference that tests compare a demanded
run against.

Epsilon is drawn in :func:`encode` and nowhere else: one full-height
standard normal draw per (channel, layer), user-item layers first, also
for a layer or a channel nothing reads.  A noise block takes the rows of
its draw that its generator reads, so the random stream does not depend
on the demand.

After the gamma filter most items have no complement neighbour: no
complement layer reads such an item, so its generator never runs, and
its own rows come out of the sparse product as exact zeros.

Values and most gradients equal those of the full-height computation bit
for bit, because each gathered row is summed in the same order; only
the generator weight gradients may differ in the last bits, where BLAS
blocks a sum over fewer rows differently.
"""

import io
import zipfile
from dataclasses import dataclass, replace

import numpy as np

from . import diffcore as dc
from .dataset import DataError
from .diffcore import DiffError

__all__ = [
    "ModelParams",
    "NoiseBlock",
    "EncoderOutput",
    "init_params",
    "mlp_forward",
    "generate_noise",
    "propagate",
    "encode",
    "reconstruct",
    "save_checkpoint",
    "load_checkpoint",
]


# weight names of each perceptron, in the argument order of ``dc.mlp3``
_MLP_WEIGHTS = ("w1", "b1", "w2", "b2", "w3", "b3")


def _param_shapes(m, n, d, h):
    """Name -> shape of every trainable array, in table order: the
    embedding table (user rows first, then item rows), the noise generator
    mapping d -> h -> h -> 2d, and the reconstructor mapping d -> h -> h -> d."""
    shapes = {"base_embedding": (m + n, d)}
    for prefix, widths in (("gen", (d, h, h, 2 * d)), ("rec", (d, h, h, d))):
        layers = []
        for fan_in, fan_out in zip(widths, widths[1:]):
            layers += [(fan_in, fan_out), (1, fan_out)]
        shapes.update({f"{prefix}.{w}": shape
                       for w, shape in zip(_MLP_WEIGHTS, layers)})
    return shapes


@dataclass
class ModelParams:
    """All trainable arrays as one name -> array table in
    :func:`_param_shapes` order."""

    num_users: int
    num_items: int
    dim: int
    hidden: int
    table: dict

    @property
    def base_embedding(self):
        return self.table["base_embedding"]

    def param_arrays(self):
        """The name -> array table; updating its arrays updates the model."""
        return self.table

    def leaves(self, tape):
        """Differentiable tape leaves for every parameter array."""
        return {name: tape.leaf(arr, name=name)
                for name, arr in self.table.items()}

    def copy(self):
        return replace(self, table={name: arr.copy()
                                    for name, arr in self.table.items()})


def init_params(m, n, d, h, seed):
    """Xavier-uniform embeddings over fan (m+n, d); MLP weights
    Xavier-uniform with zero biases.  Deterministic per seed."""
    if d < 1 or h < 1:
        raise ValueError("d and h must be >= 1")
    rng = np.random.default_rng(seed)
    table = {}
    for name, shape in _param_shapes(m, n, d, h).items():
        if ".b" in name:  # biases start at zero and draw nothing
            table[name] = np.zeros(shape)
        else:
            bound = np.sqrt(6.0 / (shape[0] + shape[1]))
            table[name] = rng.uniform(-bound, bound, shape)
    return ModelParams(num_users=m, num_items=n, dim=d, hidden=h, table=table)


def mlp_forward(x, leaves, prefix):
    """3-layer perceptron on tape nodes: GELU hidden layers, linear out."""
    return dc.mlp3(x, *(leaves[f"{prefix}.{w}"] for w in _MLP_WEIGHTS))


# sigma^2 of mode random's zero-mean sample sigma^2 * epsilon (w/-rand).
# inject_spmm adds the sample row-normalized, so with gaussian noise 0.1
# and 1 inject the same rows; the factor acts only through uniform's GELU
_RANDOM_VARIANCE = 0.1


@dataclass
class NoiseBlock:
    """One layer's noise: the sample mu + sigma^2 * epsilon, with mu and
    sigma^2 as tape nodes where sigma^2 is read, None elsewhere.  Where
    they are nodes, ``rebuild`` computes a gaussian sample again."""

    mu: object
    sigma2: object
    sample: object
    rebuild: object = None


def generate_noise(tape, z_prev, leaves, eps, cfg, sigma2=True):
    """Produce a :class:`NoiseBlock` for one layer from its input
    embeddings and its epsilon draw ``eps`` (an array shaped like
    ``z_prev``), in ``cfg.noise_mode`` generative or random, drawn from
    ``cfg.noise_distribution`` (see :class:`trainer.TrainConfig`).  Mode
    none draws no noise; it and any value of either setting beyond those
    raise ValueError before a node is built.

    Only the generator reads ``z_prev``; mode random may pass None.
    ``sigma2`` says whether sigma^2 is read beyond scaling the noise:
    True keeps mu, with a buffer of its own, and sigma^2 as the block's
    nodes, and gives a gaussian block its ``rebuild``.  The sample is
    mu + sigma^2 * epsilon on generic nodes either way; the gradient of
    sigma^2 then sums every use before the exp backward.
    """
    if cfg.noise_distribution not in ("gaussian", "uniform"):
        raise ValueError(
            f"unknown noise distribution {cfg.noise_distribution!r}")
    if cfg.noise_mode == "generative":
        d = z_prev.shape[1]
        # an overflow is reported below, naming where it happened
        with np.errstate(over="ignore", invalid="ignore"):
            out = mlp_forward(z_prev, leaves, "gen")
            mu = dc.col_slice(out, 0, d)
            logvar = dc.col_slice(out, d, 2 * d)
            var = dc.exp(logvar)
            noise = tape.constant(eps)
            spread = dc.mul(var, noise)
            sample = dc.add(mu, spread)
        if not np.isfinite(sample.value).all():
            halves = (("mu", out.value[:, :d]),
                      ("log-variance", out.value[:, d:]))
            part = next((f"generator output {name}" for name, half in halves
                         if not np.isfinite(half).all()),
                        "sigma^2 = exp(log-variance)")
            raise DiffError(f"non-finite noise: {part} is not finite")
        if sigma2:
            # mu gets a buffer of its own, so the 2d-wide output can go, and
            # rebuild reads only arrays the KL, exp and mul closures hold
            mu.value = mu.value.copy()
            mu_v, var_v, eps_v = mu.value, var.value, noise.value

            def rebuild():
                return mu_v + var_v * eps_v

        # no later node reads the output, the log-variance, the product
        # or, unless its sigma^2 is read, mu
        dc.release((out, logvar, spread) + (() if sigma2 else (mu,)))
        if not sigma2:
            mu = var = rebuild = None
    elif cfg.noise_mode == "random":  # zero mean, fixed sigma^2
        mu = var = rebuild = None
        sample = dc.scale(tape.constant(eps), _RANDOM_VARIANCE)
    elif cfg.noise_mode == "none":
        raise ValueError("generate_noise: noise mode 'none' draws no noise")
    else:
        raise ValueError(f"unknown noise mode {cfg.noise_mode!r}")

    if cfg.noise_distribution == "uniform":
        sample, rebuild = dc.gelu(sample), None
    return NoiseBlock(mu=mu, sigma2=var, sample=sample, rebuild=rebuild)


def propagate(a_norm, z_prev, noise):
    """One layer: a_norm @ (z_prev + row-normalized noise sample)."""
    if noise is None:
        return dc.spmm(a_norm, z_prev)
    return dc.inject_spmm(a_norm, z_prev, noise.sample,
                          rebuild=noise.rebuild)


@dataclass
class EncoderOutput:
    """Per-layer embeddings, their averages and the noise blocks.

    Each channel is one table in the embedding table's layout: the
    user-item layers and average hold the rows :func:`encode` was asked
    for, users before items, and the complement layers and average the
    items among them.  ``comp_layers`` is None without a complement
    channel, ``comp_avg`` None where no view reads it."""

    ui_layers: list
    ui_avg: object
    comp_layers: list | None
    comp_avg: object
    noise_blocks: dict

    def view(self, selector, channel):
        """Contrastive view of one channel ("ui" or "comp"): layer
        ``selector`` (counted from 1) or the layer average when
        ``selector`` is "avg"."""
        if selector == "avg":
            return self.ui_avg if channel == "ui" else self.comp_avg
        layers = self.ui_layers if channel == "ui" else self.comp_layers
        return layers[int(selector) - 1]


def _positions(sub, sup):
    """Positions of the sorted ids ``sub`` among the sorted ids ``sup``
    that hold them, or None when they are all of them."""
    return None if len(sub) == len(sup) else np.searchsorted(sup, sub)


def _walk_back(op, rows, num_layers, full_first=True):
    """What each layer must compute for the final representations of
    ``rows`` (sorted; None for every row), as one (op_k, in_k, take_k,
    keep_k) tuple per layer k = 1..L.

    Layer L outputs out_L = rows.  Layer k reads the rows in_k of layer
    k-1, the columns of op[out_k], so layer k-1 outputs out_{k-1} = rows
    | in_k, and the input layer 0 holds every row.  op_k is op[out_k]
    restricted to the columns in_k, take_k the positions of in_k among
    out_{k-1}, keep_k those of ``rows`` among out_k.  in_k are also the
    rows of the layer's epsilon draw its noise block holds.  None marks
    an identity gather; ``full_first`` makes in_1 None, for a layer-1
    noise block that is read in full.
    """
    if rows is None:
        if full_first:
            return [(op, None, None, None)] * num_layers
        rows = np.arange(op.shape[0])
    plan, out = [], rows
    for k in range(num_layers, 1 if full_first else 0, -1):
        sub = op[out]
        need = np.zeros(op.shape[1], dtype=bool)
        need[sub.indices] = True
        reads = np.flatnonzero(need)
        need[rows] = True
        below = np.flatnonzero(need) if k > 1 else np.arange(op.shape[1])
        plan.append((sub[:, reads], reads, _positions(reads, below),
                     _positions(rows, out)))
        out = below
    if full_first:
        plan.append((op[out], None, None, _positions(rows, out)))
    return plan[::-1]


def encode(tape, leaves, ctx, cfg, rng, rows=None, comp_views=("avg",),
           ui1_terms=None):
    """Run both channels of ``cfg.L`` layers over the fold's graphs
    ``ctx.ui`` and ``ctx.comp`` (a :class:`graphs.NormalizedGraph`; comp
    None skips the complement channel) and average layers 1..L.  Noise
    follows ``cfg.noise_mode`` and ``cfg.noise_distribution`` (see
    :func:`generate_noise`).

    The demand says what the caller reads of the output; the defaults
    read all of it.  ``rows`` are the sorted, distinct user-item rows
    (users 0..m-1, items m..m+n-1) whose layers and averages are read:
    the user-item output then holds those rows only, in their order, and
    the complement output the items among them, and each layer of either
    channel computes only what they need (see :func:`_walk_back`).
    ``comp_views`` are the complement view selectors read: "avg" needs
    every layer and the average, layer selectors need the layers up to
    the highest, none skips the channel.
    A gaussian first user-item block keeps its mu and sigma^2 nodes (see
    :func:`generate_noise`).
    ``ui1_terms``, when given, builds the terms that read that block: it
    is called with the block right after layer 1's product, before any
    layer-2 node, and is the last forward reader of the block's sample,
    which it may drop (see the module docstring).

    Each (channel, layer) draws its epsilon from ``rng`` at full height,
    m+n rows for "ui" and n for "comp", user-item layers first, whether
    or not it is computed; a block holds the rows of the draw its
    generator reads.  ``rng`` may be None in mode none, which draws
    nothing.
    """
    if cfg.L < 1:
        raise ValueError(f"number of layers must be >= 1, got {cfg.L}")
    m, n = ctx.num_users, ctx.num_items
    e_all = leaves["base_embedding"]
    d = e_all.shape[1]
    blocks = {}  # (channel, layer) -> NoiseBlock, of both channels

    def draw(height):
        return rng.standard_normal((height, d))

    def taken(z, take, share=None):
        return z if take is None else dc.gather(z, take, share=share)

    def run_channel(channel, plan, z, height):
        # the generator and the propagation gather their rows each as a
        # node of its own, sharing one value, and the rows read of each
        # layer are gathered after the loop: the backward sweep then adds
        # a row's gradients in the order the full-height encoder does
        layers = []
        for k, (op, reads, take, _) in enumerate(plan, start=1):
            block = source = None
            if cfg.noise_mode != "none":
                eps = draw(height) if reads is None else draw(height)[reads]
                if cfg.noise_mode == "generative":
                    source = taken(z, take)
                block = generate_noise(
                    tape, source, leaves, eps, cfg,
                    sigma2=(channel, k) == ("ui", 1)
                    and cfg.noise_distribution == "gaussian")
                blocks[(channel, k)] = block
            z = propagate(op, taken(z, take, share=source), block)
            if (channel, k) == ("ui", 1) and ui1_terms is not None:
                ui1_terms(block)
                if block.rebuild is not None:
                    # no forward node reads the sample from here on, and
                    # no backward pass holds it: layer 1's rebuilds it
                    block.sample.value = None
            layers.append(z)
        kept = [taken(z, keep) for z, (*_, keep) in zip(layers, plan)]
        # once its rows are copied out, a layer is read again only by a
        # generator that takes it whole: mlp3's backward reads its input
        dc.release(z for z, out in zip(layers, kept) if out is not z)
        return kept

    ui_layers = run_channel(
        "ui", _walk_back(ctx.ui, rows, cfg.L), e_all, m + n)
    out = EncoderOutput(ui_layers=ui_layers, ui_avg=dc.mean_of(ui_layers),
                        comp_layers=None, comp_avg=None, noise_blocks=blocks)

    if ctx.comp is not None:
        average = "avg" in comp_views
        top = cfg.L if average else max(map(int, comp_views), default=0)
        out.comp_layers = []
        if top:
            items = None if rows is None else rows[rows >= m] - m
            plan = _walk_back(ctx.comp, items, top, full_first=False)
            out.comp_layers = run_channel(
                "comp", plan, dc.row_slice(e_all, m, m + n), n)
            if average:
                out.comp_avg = dc.mean_of(out.comp_layers)
        if cfg.noise_mode != "none":
            for _ in range(top, cfg.L):
                draw(n)  # an unread layer keeps its place in the stream
    return out


def reconstruct(noise_sample, leaves, pairs, num_users):
    """Predicted interaction entries from reconstructed noise rows.

    ``noise_sample`` is the ui-channel noise node whose rows [0, m) are
    users and [m, m+n) are items; for each (u, i) pair the prediction is
    dot(f(N_u), f(N_i)), with f the reconstructor MLP read from ``leaves``.
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    n_u = dc.gather(noise_sample, pairs[:, 0])
    n_i = dc.gather(noise_sample, num_users + pairs[:, 1])
    n_u = mlp_forward(n_u, leaves, "rec")
    n_i = mlp_forward(n_i, leaves, "rec")
    return dc.reduce_sum(dc.mul(n_u, n_i), axis=1)


# ------------------------------------------------------------ checkpoints


def _write_npz_deterministic(path, arrays):
    """npz writing with pinned zip metadata so identical arrays give
    byte-identical files across runs."""
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as zf:
        for name, arr in arrays.items():
            buf = io.BytesIO()
            np.lib.format.write_array(buf, np.ascontiguousarray(arr),
                                      version=(1, 0))
            info = zipfile.ZipInfo(name + ".npy", date_time=(1980, 1, 1, 0, 0, 0))
            info.compress_type = zipfile.ZIP_STORED
            info.external_attr = 0o644 << 16
            zf.writestr(info, buf.getvalue())


def save_checkpoint(params, path, seed):
    """Write shapes, seed, and every weight array; bit-exact round trip."""
    arrays = {"meta": np.array([params.num_users, params.num_items,
                                params.dim, params.hidden, seed],
                               dtype=np.int64)}
    arrays.update(params.param_arrays())
    _write_npz_deterministic(path, arrays)


def load_checkpoint(path):
    """Read a checkpoint back into (ModelParams, seed).

    Raises :class:`DataError` naming the file when it is not an npz
    archive, when its arrays are not exactly those :func:`init_params`
    makes for the shapes recorded in its ``meta``, or when one is not
    finite float64.
    """
    try:
        data = np.load(path)
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise ValueError("a single array, not an npz archive")
        with data:
            table = {name: data[name] for name in data.files}
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise DataError(f"{path}: not a checkpoint: {exc}") from exc
    meta = table.pop("meta", None)
    if meta is None or meta.shape != (5,):
        raise DataError(f"{path}: no meta array of 5 entries")
    m, n, d, h, seed = (int(v) for v in meta)
    shapes = _param_shapes(m, n, d, h)
    missing = [name for name in shapes if name not in table]
    extra = [name for name in table if name not in shapes]
    if missing or extra:
        raise DataError(f"{path}: missing arrays {missing}, "
                        f"unexpected arrays {extra}")
    for name, shape in shapes.items():
        if table[name].shape != shape:
            raise DataError(f"{path}: array {name} has shape "
                            f"{table[name].shape}, its meta gives {shape}")
        if table[name].dtype != np.float64:
            raise DataError(f"{path}: array {name} is {table[name].dtype}, "
                            "not float64")
        if not np.isfinite(table[name]).all():
            raise DataError(f"{path}: array {name} has non-finite values")
    return ModelParams(num_users=m, num_items=n, dim=d, hidden=h,
                       table={name: table[name] for name in shapes}), seed
