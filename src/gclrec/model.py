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
"""

import io
import zipfile
from dataclasses import dataclass, field

import numpy as np

from . import diffcore as dc
from .diffcore import DiffError

__all__ = [
    "MLPParams",
    "ModelParams",
    "NoiseSettings",
    "NoiseBlock",
    "EncoderOutput",
    "init_params",
    "mlp_forward",
    "generate_noise",
    "propagate",
    "encode",
    "predict_scores",
    "reconstruct",
    "save_checkpoint",
    "load_checkpoint",
]


@dataclass
class MLPParams:
    """Weights of one 3-layer perceptron (GELU hidden, linear output)."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w3: np.ndarray
    b3: np.ndarray

    def arrays(self, prefix):
        return {f"{prefix}.{name}": getattr(self, name)
                for name in ("w1", "b1", "w2", "b2", "w3", "b3")}

    @classmethod
    def from_arrays(cls, prefix, table):
        return cls(**{name: table[f"{prefix}.{name}"]
                      for name in ("w1", "b1", "w2", "b2", "w3", "b3")})


def _init_mlp(rng, dims):
    """Xavier-uniform weights, zero biases, for consecutive layer widths."""
    weights = []
    for fan_in, fan_out in zip(dims, dims[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, (fan_in, fan_out)))
        weights.append(np.zeros((1, fan_out)))
    return MLPParams(*weights)


@dataclass
class ModelParams:
    """All trainable arrays: one embedding table (user rows first, then
    item rows), the noise generator mapping d -> h -> h -> 2d, and the
    reconstructor mapping d -> h -> h -> d."""

    num_users: int
    num_items: int
    dim: int
    hidden: int
    base_embedding: np.ndarray
    generator: MLPParams
    reconstructor: MLPParams

    def param_arrays(self):
        """Flat name -> array table, in a fixed order."""
        table = {"base_embedding": self.base_embedding}
        table.update(self.generator.arrays("gen"))
        table.update(self.reconstructor.arrays("rec"))
        return table

    def leaves(self, tape):
        """Differentiable tape leaves for every parameter array."""
        return {name: tape.leaf(arr, name=name)
                for name, arr in self.param_arrays().items()}

    def copy(self):
        return ModelParams(
            num_users=self.num_users,
            num_items=self.num_items,
            dim=self.dim,
            hidden=self.hidden,
            base_embedding=self.base_embedding.copy(),
            generator=MLPParams(*(a.copy() for a in (
                self.generator.w1, self.generator.b1, self.generator.w2,
                self.generator.b2, self.generator.w3, self.generator.b3))),
            reconstructor=MLPParams(*(a.copy() for a in (
                self.reconstructor.w1, self.reconstructor.b1,
                self.reconstructor.w2, self.reconstructor.b2,
                self.reconstructor.w3, self.reconstructor.b3))),
        )


def init_params(m, n, d, h, seed):
    """Xavier-uniform embeddings over fan (m+n, d); MLP weights
    Xavier-uniform with zero biases.  Deterministic per seed."""
    if d < 1 or h < 1:
        raise ValueError("d and h must be >= 1")
    rng = np.random.default_rng(seed)
    bound = np.sqrt(6.0 / ((m + n) + d))
    emb = rng.uniform(-bound, bound, (m + n, d))
    generator = _init_mlp(rng, (d, h, h, 2 * d))
    reconstructor = _init_mlp(rng, (d, h, h, d))
    return ModelParams(
        num_users=m, num_items=n, dim=d, hidden=h,
        base_embedding=emb, generator=generator, reconstructor=reconstructor,
    )


def mlp_forward(x, leaves, prefix):
    """3-layer perceptron on tape nodes: GELU hidden layers, linear out."""
    return dc.mlp3(x, *(leaves[f"{prefix}.{name}"]
                        for name in ("w1", "b1", "w2", "b2", "w3", "b3")))


@dataclass(frozen=True)
class NoiseSettings:
    """How noise samples are produced.

    mode: generative (learned mu/sigma), random (fixed-scale, zero-mean),
    or none.  distribution gaussian keeps the raw reparameterized sample;
    uniform passes it through GELU and pairs with a uniform prior.  scale
    selects whether epsilon is multiplied by the variance or by the
    standard deviation.  s_fixed is the variance used by mode random.
    """

    mode: str = "generative"
    distribution: str = "gaussian"
    scale: str = "variance"
    s_fixed: float = 0.1

    def __post_init__(self):
        if self.mode not in ("generative", "random", "none"):
            raise ValueError(f"unknown noise mode {self.mode!r}")
        if self.distribution not in ("gaussian", "uniform"):
            raise ValueError(f"unknown noise distribution {self.distribution!r}")
        if self.scale not in ("variance", "stddev"):
            raise ValueError(f"unknown noise scale {self.scale!r}")


@dataclass
class NoiseBlock:
    """One layer's noise: mu, sigma^2, the epsilon draw, and the sample
    mu + scale(sigma) * epsilon.  mu/sigma2 are tape nodes only in mode
    generative; modes random and none leave them None."""

    mu: object
    sigma2: object
    epsilon: np.ndarray
    sample: object


def generate_noise(tape, z_prev, leaves, rng, settings, frozen_eps=None):
    """Produce a :class:`NoiseBlock` for one layer from its input
    embeddings.

    epsilon is drawn fresh from ``rng`` per call unless ``frozen_eps``
    pins it (finite-difference checks need a fixed sample path).
    """
    rows, d = z_prev.shape
    if settings.mode == "none":
        zero = tape.constant(np.zeros((rows, d)))
        return NoiseBlock(mu=None, sigma2=None,
                          epsilon=np.zeros((rows, d)), sample=zero)

    if frozen_eps is not None:
        eps = np.asarray(frozen_eps, dtype=np.float64)
    else:
        eps = rng.standard_normal((rows, d))

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
        s = settings.s_fixed if settings.scale == "variance" \
            else np.sqrt(settings.s_fixed)
        sample = dc.scale(tape.constant(eps), s)

    if settings.distribution == "uniform":
        sample = dc.gelu(sample)
    return NoiseBlock(mu=mu, sigma2=sigma2, epsilon=eps, sample=sample)


def propagate(a_norm, z_prev, noise):
    """One layer: a_norm @ (z_prev + row-normalized noise sample)."""
    if noise is None:
        return dc.spmm(a_norm, z_prev)
    return dc.spmm(a_norm, dc.add(z_prev, dc.rownorm(noise.sample)))


def _layer_average(layers):
    acc = layers[0]
    for z in layers[1:]:
        acc = dc.add(acc, z)
    return dc.scale(acc, 1.0 / len(layers))


@dataclass
class EncoderOutput:
    """Per-layer embeddings, noise blocks, averaged representations, and
    the two contrastive views (first layer, layer average) per class."""

    ui_layers: list
    comp_layers: list | None
    noise_blocks: dict
    z_u: object
    z_i: object
    z_c: object
    view_first: dict = field(default_factory=dict)
    view_avg: dict = field(default_factory=dict)


def encode(tape, leaves, ui_op, comp_op, num_users, num_items, num_layers,
           rng, settings, frozen_eps=None):
    """Run both channels and average layers 1..L.

    ``frozen_eps`` maps (channel, layer) -> epsilon array for
    deterministic replay; channel is "ui" or "comp", layer counts from 1.
    """
    if num_layers < 1:
        raise ValueError(f"number of layers must be >= 1, got {num_layers}")
    m, n = num_users, num_items
    skip_noise = settings.mode == "none"

    def run_channel(op, z0, channel):
        layers, blocks = [], {}
        z = z0
        for k in range(1, num_layers + 1):
            if skip_noise:
                z = propagate(op, z, None)
            else:
                pinned = None if frozen_eps is None else frozen_eps[(channel, k)]
                block = generate_noise(tape, z, leaves, rng, settings,
                                       frozen_eps=pinned)
                blocks[(channel, k)] = block
                z = propagate(op, z, block)
            layers.append(z)
        return layers, blocks

    e_all = leaves["base_embedding"]
    ui_layers, ui_blocks = run_channel(ui_op, e_all, "ui")
    ui_avg = _layer_average(ui_layers)

    out = EncoderOutput(
        ui_layers=ui_layers,
        comp_layers=None,
        noise_blocks=ui_blocks,
        z_u=dc.row_slice(ui_avg, 0, m),
        z_i=dc.row_slice(ui_avg, m, m + n),
        z_c=None,
    )
    out.view_first["user"] = dc.row_slice(ui_layers[0], 0, m)
    out.view_first["item"] = dc.row_slice(ui_layers[0], m, m + n)
    out.view_avg["user"] = out.z_u
    out.view_avg["item"] = out.z_i

    if comp_op is not None:
        e_item = dc.row_slice(e_all, m, m + n)
        comp_layers, comp_blocks = run_channel(comp_op, e_item, "comp")
        out.comp_layers = comp_layers
        out.noise_blocks.update(comp_blocks)
        out.z_c = _layer_average(comp_layers)
        out.view_first["comp"] = comp_layers[0]
        out.view_avg["comp"] = out.z_c
    return out


def predict_scores(z_u, z_i, users):
    """Dense score rows: score(u, i) = z_u[u] . z_i[i]."""
    z_u = np.asarray(z_u)
    z_i = np.asarray(z_i)
    return z_u[np.asarray(users, dtype=np.int64)] @ z_i.T


def reconstruct(noise_sample, leaves, pairs, num_users):
    """Predicted interaction entries from reconstructed noise rows.

    ``noise_sample`` is the ui-channel noise node whose rows [0, m) are
    users and [m, m+n) are items; for each (u, i) pair the prediction is
    dot(f(N_u), f(N_i)).  ``leaves`` None applies the identity map instead
    of the reconstructor MLP.
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    n_u = dc.gather(noise_sample, pairs[:, 0])
    n_i = dc.gather(noise_sample, num_users + pairs[:, 1])
    if leaves is not None:
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
    """Read a checkpoint back into (ModelParams, seed)."""
    with np.load(path) as data:
        table = {name: data[name] for name in data.files}
    m, n, d, h, seed = (int(v) for v in table.pop("meta"))
    params = ModelParams(
        num_users=m, num_items=n, dim=d, hidden=h,
        base_embedding=table["base_embedding"],
        generator=MLPParams.from_arrays("gen", table),
        reconstructor=MLPParams.from_arrays("rec", table),
    )
    return params, seed
