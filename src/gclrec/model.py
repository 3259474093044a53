"""Model parameters, the noise generator/reconstructor pair, and the
noisy propagation encoder.

The encoder runs two channels from one shared embedding table: the
user-item channel propagates over the normalized bipartite adjacency, the
complement channel propagates item embeddings over the normalized item
co-occurrence matrix.  At every layer a generator MLP maps that layer's
input embeddings to a Gaussian (mu, log variance) pair, a noise sample is
drawn by reparameterization, row-normalized, and added before the sparse
product.  Final representations average layers 1..L; the input layer is
excluded.

Epsilon is drawn in :func:`encode` and nowhere else: one full-height
standard normal draw per (channel, layer), user-item layers first.

After the gamma filter most items have no complement neighbour.  Such an
item's complement row and column are empty: its noise reaches no output
and its layers are zero.  The complement channel therefore generates
noise and propagates only over the items with a complement neighbour,
taking their rows of each epsilon draw, and places exact zeros at the
others.  The random stream does not depend on how many items are live.
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
    "NoiseSettings",
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


# variance of mode random's zero-mean noise, the fixed magnitude of the
# w/-rand ablation
_RANDOM_VARIANCE = 0.1


@dataclass(frozen=True)
class NoiseSettings:
    """How noise samples are produced.

    mode: generative (learned mu/sigma), random (zero mean, fixed
    variance 0.1), or none.  distribution gaussian keeps the raw
    reparameterized sample; uniform passes it through GELU and pairs with
    a uniform prior.  scale selects whether epsilon is multiplied by the
    variance or by the standard deviation.
    """

    mode: str = "generative"
    distribution: str = "gaussian"
    scale: str = "variance"

    def __post_init__(self):
        if self.mode not in ("generative", "random", "none"):
            raise ValueError(f"unknown noise mode {self.mode!r}")
        if self.distribution not in ("gaussian", "uniform"):
            raise ValueError(f"unknown noise distribution {self.distribution!r}")
        if self.scale not in ("variance", "stddev"):
            raise ValueError(f"unknown noise scale {self.scale!r}")


@dataclass
class NoiseBlock:
    """One layer's noise: mu, sigma^2 and the sample mu + scale(sigma) *
    epsilon.  mu/sigma2 are tape nodes in mode generative and None in
    mode random."""

    mu: object
    sigma2: object
    sample: object


def generate_noise(tape, z_prev, leaves, eps, settings):
    """Produce a :class:`NoiseBlock` for one layer from its input
    embeddings and its epsilon draw ``eps`` (an array shaped like
    ``z_prev``), in mode generative or random (mode none draws no noise).
    """
    if settings.mode == "none":
        raise ValueError("generate_noise: noise mode 'none' draws no noise")
    d = z_prev.shape[1]

    if settings.mode == "generative":
        out = mlp_forward(z_prev, leaves, "gen")
        if not np.all(np.isfinite(out.value)):
            raise DiffError("noise generator produced non-finite values")
        mu = dc.col_slice(out, 0, d)
        logvar = dc.col_slice(out, d, 2 * d)
        sigma2 = dc.exp(logvar)
        scale_node = sigma2 if settings.scale == "variance" \
            else dc.exp(dc.scale(logvar, 0.5))
        sample = dc.add(mu, dc.mul(scale_node, tape.constant(eps)))
    else:  # random: zero mean, fixed variance, nothing to learn
        mu = sigma2 = None
        s = _RANDOM_VARIANCE if settings.scale == "variance" \
            else np.sqrt(_RANDOM_VARIANCE)
        sample = dc.scale(tape.constant(eps), s)

    if settings.distribution == "uniform":
        sample = dc.gelu(sample)
    return NoiseBlock(mu=mu, sigma2=sigma2, sample=sample)


def propagate(a_norm, z_prev, noise):
    """One layer: a_norm @ (z_prev + row-normalized noise sample)."""
    if noise is None:
        return dc.spmm(a_norm, z_prev)
    return dc.spmm(a_norm, dc.add(z_prev, dc.rownorm(noise.sample)))


@dataclass
class EncoderOutput:
    """Per-layer embeddings, noise blocks and averaged representations."""

    ui_layers: list
    comp_layers: list | None
    noise_blocks: dict
    z_u: object
    z_i: object
    z_c: object

    def view(self, selector, cls):
        """Contrastive view of one entity class ("user", "item" or
        "comp"): layer ``selector`` (counted from 1) or the layer average
        when ``selector`` is "avg"."""
        if selector == "avg":
            return {"user": self.z_u, "item": self.z_i, "comp": self.z_c}[cls]
        layer = int(selector) - 1
        if cls == "comp":
            return self.comp_layers[layer]
        full, m = self.ui_layers[layer], self.z_u.shape[0]
        return (dc.row_slice(full, 0, m) if cls == "user"
                else dc.row_slice(full, m, full.shape[0]))


def encode(tape, leaves, ui_op, comp_op, num_users, num_items, num_layers,
           rng, settings):
    """Run both channels over the CSR matrices ``ui_op`` and ``comp_op``
    (None skips the complement channel) and average layers 1..L.

    Each (channel, layer) draws its epsilon from ``rng`` at full height,
    m+n rows for "ui" and n for "comp", user-item layers first; the
    complement noise blocks hold only the rows of the live items.  ``rng``
    may be None in mode none, which draws nothing.
    """
    if num_layers < 1:
        raise ValueError(f"number of layers must be >= 1, got {num_layers}")
    m, n = num_users, num_items
    e_all = leaves["base_embedding"]
    d = e_all.shape[1]

    def run_channel(op, z, channel, height, rows=slice(None)):
        layers, blocks = [], {}
        for k in range(1, num_layers + 1):
            block = None
            if settings.mode != "none":
                eps = rng.standard_normal((height, d))[rows]
                block = generate_noise(tape, z, leaves, eps, settings)
                blocks[(channel, k)] = block
            z = propagate(op, z, block)
            layers.append(z)
        return layers, blocks

    ui_layers, ui_blocks = run_channel(ui_op, e_all, "ui", m + n)
    ui_avg = dc.mean_of(ui_layers)

    out = EncoderOutput(
        ui_layers=ui_layers,
        comp_layers=None,
        noise_blocks=ui_blocks,
        z_u=dc.row_slice(ui_avg, 0, m),
        z_i=dc.row_slice(ui_avg, m, m + n),
        z_c=None,
    )

    if comp_op is not None:
        # propagate over the live items only: every entry sits in a live
        # row and column, so the restricted product equals the live rows
        # of the full one bit for bit.  The full-height layers are placed
        # after the loop so that the backward sweep adds each layer's
        # gradients in the order the full-row channel did: the layer's
        # own uses first, then the next layer's
        live = np.flatnonzero(np.diff(comp_op.indptr)
                              + np.bincount(comp_op.indices, minlength=n))
        e_live = dc.gather(dc.row_slice(e_all, m, m + n), live)
        live_layers, comp_blocks = run_channel(
            comp_op[live][:, live], e_live, "comp", n, live)
        comp_layers = [dc.scatter_rows(z, live, n) for z in live_layers]
        out.comp_layers = comp_layers
        out.noise_blocks.update(comp_blocks)
        out.z_c = dc.mean_of(comp_layers)
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
