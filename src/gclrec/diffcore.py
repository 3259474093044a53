"""Minimal reverse-mode differentiation over dense float64 matrices and
fixed scipy CSR matrices.

Every value on the tape is a 2-D float64 array; scalars are (1, 1)
matrices produced by the reductions.  The primitive set is closed and
small: enough to express the encoder, the losses, and nothing else.
Five fused nodes stand for compositions a training step runs, each
with the composition's values and gradients bit for bit and only the
buffers its backward pass reads: :func:`mlp3` is a whole 3-layer
perceptron, so the generator and reconstructor keep two hidden
activations and their GELU slopes per call instead of eight
intermediate nodes, and runs its forward pass in row tiles;
:func:`inject_spmm` is one encoder layer, the row-normalized noise added
to the layer input and propagated, without keeping the noisy input;
:func:`kl_normal` is the KL term, which keeps nothing of its own; and
:func:`infonce` (one view pair's contrastive loss) and :func:`rbf_mmd`
(the MMD term) keep no B x B matrix where their compositions keep
several: their backward passes recompute the ones they read.  A
composition is fused only where it must keep more or compute more than
the fused node: one whose generic nodes can drop every value no backward
pass reads once it is built, as the reparameterized noise sample's can,
stays generic.  :func:`spmm` takes a scipy CSR matrix as it is and
multiplies by its transpose view in the backward pass.  Row and column
slices are views of their parent's value, and :func:`gather` can lend
one gather's value to a second gather of the same rows.

What a node keeps: its value, its shape, and what its backward closure
holds.  Each primitive's closure takes the arrays its backward pass
reads when the node is built, and no backward pass reads a node's
``value``: ``exp`` holds its output, ``gelu`` its input and cdf,
``rownorm`` and ``inject_spmm`` their input and inverse norms, ``mlp3``
its hidden activations and slopes, ``infonce`` its views, row shifts
and sums, ``rbf_mmd`` its samples and squared row norms, and a product
an operand only where the other operand needs a gradient.  A node with
no backward pass holds nothing.  :func:`release` drops the value (value
None) of each node it is given, apart from leaves and constants; the
caller gives only nodes whose values no later forward node reads, and
an array stays alive exactly as long as a node or a closure holds it.
A node records its shape when it is built, so the backward passes that
read only a parent's shape, those of :func:`gather`, the slices and the
reductions, hold no array of it.  :func:`inject_spmm` can take, in
place of its noise input's array, a function that computes it again.

:func:`gather`'s backward pass adds its rows' gradient into the
parent's own gradient buffer in place (a first gradient is a zero array
with the rows placed), with no full-height array of zeros beside it;
repeated indices are summed from zero first, in index order, as
``np.add.at`` sums them.  Its bits equal the zeros-and-add form's, save
one sign: where the parent's gradient already holds -0.0 in a row no
index names, adding that row's zero gave +0.0 and the scatter keeps
-0.0.  A zero's sign reaches neither a parameter nor Adam's moments:
the first moment starts at +0.0, +0.0 + -0.0 is +0.0, and the second
adds g * g.

:func:`backward` empties the tape it swept, so a step's values are freed
when its last user lets go of them rather than at the next garbage
collection.  Gradients are validated against central finite differences
by :func:`check_gradients`.

``scipy.special`` is imported where it is first used, in :func:`gelu`'s
forward pass and :func:`softplus`'s backward pass: importing it costs a
process about 5.5 MB of resident memory and 0.05 s of CPU, and a process
that only prepares data or evaluates runs neither.
"""

import numpy as np

__all__ = [
    "Tape",
    "Node",
    "ShapeError",
    "DiffError",
    "spmm",
    "add",
    "sub",
    "mul",
    "scale",
    "mean_of",
    "exp",
    "softplus",
    "gelu",
    "mlp3",
    "rownorm",
    "inject_spmm",
    "kl_normal",
    "infonce",
    "rbf_mmd",
    "gather",
    "row_slice",
    "col_slice",
    "reduce_sum",
    "reduce_mean",
    "square",
    "release",
    "backward",
    "check_gradients",
]

ROWNORM_EPS = 1e-12
# rows per tile of mlp3's forward pass and of the rownorm gradient
MLP_TILE_ROWS = 512
_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


class ShapeError(ValueError):
    """Primitive applied to incompatible shapes."""


class DiffError(RuntimeError):
    """Non-finite value where a finite one is required."""


def _as_matrix(value):
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"tape values must be 2-D, got shape {arr.shape}")
    return arr


class Node:
    """One value in the recorded computation, with its gradient slot."""

    __slots__ = ("tape", "value", "shape", "grad", "op", "parents",
                 "needs_grad", "name", "_backward", "_grad_owned")

    def __init__(self, tape, value, op, parents, needs_grad,
                 backward_fn=None, name=None):
        self.tape = tape
        self.value = value
        # kept apart from the value, which a node may drop once built
        self.shape = value.shape
        self.grad = None
        self.op = op
        self.parents = parents
        self.needs_grad = needs_grad
        self.name = name
        self._backward = backward_fn
        self._grad_owned = False
        tape.nodes.append(self)

    def __repr__(self):
        return f"Node(op={self.op!r}, shape={self.shape})"


class Tape:
    """Creation-ordered node list for one forward pass.

    Nodes are appended as they are built, so parents always precede
    children and a reverse sweep is a valid backward order.
    """

    def __init__(self):
        self.nodes = []

    def leaf(self, value, name=None):
        """A differentiable input (parameter)."""
        return Node(self, _as_matrix(value), "leaf", (), True, name=name)

    def constant(self, value):
        """A non-differentiated input (data, frozen samples, masks)."""
        return Node(self, _as_matrix(value), "constant", (), False)


def _tape_of(*nodes):
    tape = nodes[0].tape
    for n in nodes[1:]:
        if n.tape is not tape:
            raise ValueError("inputs recorded on different tapes")
    return tape


def _accum(node, g, owned):
    # First contribution is stored as-is; a second forces an out-of-place
    # add unless we own the buffer, so pass-through gradients are never
    # corrupted by fan-out accumulation.
    if node.grad is None:
        node.grad = g
        node._grad_owned = owned
    elif node._grad_owned:
        node.grad += g
    else:
        node.grad = node.grad + g
        node._grad_owned = True


def _owned_grad(node):
    """The node's gradient buffer, safe to write into: zeros when it has
    none yet, a private copy when it holds a pass-through gradient."""
    if node.grad is None:
        node.grad = np.zeros(node.shape)
    elif not node._grad_owned:
        node.grad = node.grad.copy()
    node._grad_owned = True
    return node.grad


def _op(op, parents, value, backward_fn):
    """A new node.  ``backward_fn`` holds the arrays its backward pass
    reads; a node no parent of which needs a gradient drops it, and with
    it what it holds."""
    tape = _tape_of(*parents)
    needs = any(p.needs_grad for p in parents)
    return Node(tape, value, op, tuple(parents), needs,
                backward_fn if needs else None)


def _require(cond, op, detail):
    if not cond:
        raise ShapeError(f"{op}: {detail}")


# ---------------------------------------------------------------- linear


# read only by benchmarks/spans.py's WRAPPED and tests; ROADMAP item 4 drops it
def matmul(a, b, trans_b=False):
    """Dense product a @ b, or a @ b.T when trans_b is set."""
    if trans_b:
        _require(a.shape[1] == b.shape[1], "matmul",
                 f"shapes {a.shape} x {b.shape}^T incompatible")
        value = a.value @ b.value.T
    else:
        _require(a.shape[1] == b.shape[0], "matmul",
                 f"shapes {a.shape} x {b.shape} incompatible")
        value = a.value @ b.value
    av = a.value if b.needs_grad else None
    bv = b.value if a.needs_grad else None

    def bw(g):
        if trans_b:
            if a.needs_grad:
                _accum(a, g @ bv, owned=True)
            if b.needs_grad:
                _accum(b, g.T @ av, owned=True)
        else:
            if a.needs_grad:
                _accum(a, g @ bv.T, owned=True)
            if b.needs_grad:
                _accum(b, av.T @ g, owned=True)

    return _op("matmul", (a, b), value, bw)


def spmm(op, x):
    """Sparse-dense product op @ x with a constant scipy CSR matrix.  The
    backward pass multiplies by ``op.T``, a CSC view of the same arrays;
    ``op`` itself would do only for a bit-symmetric matrix."""
    _require(op.shape[1] == x.shape[0], "spmm",
             f"shapes {op.shape} x {x.shape} incompatible")
    value = op @ x.value

    def bw(g):
        if x.needs_grad:
            _accum(x, op.T @ g, owned=True)

    return _op("spmm", (x,), value, bw)


# ----------------------------------------------------------- elementwise


def add(a, b):
    _require(a.shape == b.shape, "add", f"shapes {a.shape} and {b.shape} differ")

    def bw(g):
        if a.needs_grad:
            _accum(a, g, owned=False)
        if b.needs_grad:
            _accum(b, g, owned=False)

    return _op("add", (a, b), a.value + b.value, bw)


def sub(a, b):
    _require(a.shape == b.shape, "sub", f"shapes {a.shape} and {b.shape} differ")

    def bw(g):
        if a.needs_grad:
            _accum(a, g, owned=False)
        if b.needs_grad:
            _accum(b, -g, owned=True)

    return _op("sub", (a, b), a.value - b.value, bw)


def mul(a, b):
    _require(a.shape == b.shape, "mul", f"shapes {a.shape} and {b.shape} differ")
    value = a.value * b.value
    av = a.value if b.needs_grad else None
    bv = b.value if a.needs_grad else None

    def bw(g):
        if a.needs_grad:
            _accum(a, g * bv, owned=True)
        if b.needs_grad:
            _accum(b, g * av, owned=True)

    return _op("mul", (a, b), value, bw)


def scale(x, c):
    """Multiply by a plain scalar constant."""
    c = float(c)

    def bw(g):
        _accum(x, c * g, owned=True)

    return _op("scale", (x,), c * x.value, bw)


def mean_of(nodes):
    """Elementwise mean of equally shaped nodes, summed left to right."""
    acc = nodes[0]
    for node in nodes[1:]:
        acc = add(acc, node)
    return scale(acc, 1.0 / len(nodes))


def square(x):
    xv = x.value

    def bw(g):
        _accum(x, g * (2.0 * xv), owned=True)

    return _op("square", (x,), xv * xv, bw)


def exp(x):
    value = np.exp(x.value)

    def bw(g):
        _accum(x, g * value, owned=True)

    return _op("exp", (x,), value, bw)


def softplus(x):
    xv = x.value

    def bw(g):
        from scipy.special import expit

        _accum(x, g * expit(xv), owned=True)

    return _op("softplus", (x,), np.logaddexp(0.0, xv), bw)


def _gelu_cdf(a):
    """Phi(a) = 0.5 * (1 + erf(a / sqrt 2)), in one new array."""
    from scipy.special import erf

    cdf = a * _INV_SQRT2
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    return cdf


def _gelu_slope(a, cdf, out=None):
    """Derivative of a * Phi(a): Phi(a) + a * phi(a), in one new array or
    in ``out``.  The operations are those of ``cdf + a * (c * exp(-0.5 *
    a * a))`` in that order; each swaps only the operands of one product
    or sum, which rounds the same."""
    slope = np.multiply(a, -0.5, out=out)
    slope *= a
    np.exp(slope, out=slope)
    slope *= _INV_SQRT2PI
    slope *= a
    slope += cdf
    return slope


def gelu(x):
    """Exact GELU x * Phi(x) via the error function."""
    xv = x.value
    cdf = _gelu_cdf(xv)

    def bw(g):
        _accum(x, g * _gelu_slope(xv, cdf), owned=True)

    return _op("gelu", (x,), xv * cdf, bw)


def _row_tiles(rows):
    """Row slices of MLP_TILE_ROWS rows that cover ``rows`` rows in
    order.  A last slice shorter than half a tile joins the slice before
    it, so a slice has one row only when ``rows`` is 1."""
    starts = list(range(0, rows, MLP_TILE_ROWS))
    if len(starts) > 1 and rows - starts[-1] < MLP_TILE_ROWS // 2:
        starts.pop()
    return [np.s_[lo:hi] for lo, hi in zip(starts, starts[1:] + [rows])]


def mlp3(x, w1, b1, w2, b2, w3, b3):
    """3-layer perceptron gelu(x w1 + b1) -> gelu(. w2 + b2) -> . w3 + b3
    as one node; the biases are (1, n) rows.

    Values and gradients equal the product/bias-row/gelu composition bit
    for bit on inputs of two or more rows.  numpy multiplies a single row
    through a matrix-vector routine, which rounds differently from the
    same row inside a larger block, so the products of a one-row input
    and of its gradient run on a two-row stack and keep its first row.
    That only moves a one-row input and its gradient from the
    matrix-vector routine onto the two-row path.  The forward product
    ``h @ w`` gives a row the same bits in a block of any height of two
    or more; the backward pass's ``g @ w.T`` does not: OpenBLAS 0.3.31
    rounds it differently in blocks of about 2 to 18 rows than in a
    larger block, so a row's input gradient can differ in its last bits
    with the number of rows that share its block.  Only the hidden
    activations and their GELU slopes are kept for the backward pass,
    which reuses the slopes instead of evaluating erf and exp again.

    The forward pass runs in row tiles of :data:`MLP_TILE_ROWS` rows
    (see :func:`_row_tiles`), each written straight into the full
    hidden, slope and output arrays, so only a tile's temporaries, which
    stay in cache, are alive beside them.  Of several tiles none is
    shorter than half a tile: a block of a few rows may take a BLAS path
    that rounds differently, and tiles of hundreds of rows round as the
    whole block does.  The backward pass runs on the whole block: its
    weight and bias gradients are sums over every row, which tiles would
    split, and its products with a transposed weight, which OpenBLAS
    rounds differently in blocks of up to about 18 rows, measured no
    faster in tiles.
    """
    weights = ((w1, b1), (w2, b2), (w3, b3))
    width = x.shape[1]
    for layer, (w, b) in enumerate(weights, start=1):
        _require(w.shape[0] == width and b.shape == (1, w.shape[1]), "mlp3",
                 f"layer {layer}: weight {w.shape} and bias {b.shape} do "
                 f"not fit input width {width}")
        width = w.shape[1]

    def rows_times(h, w, out=None):
        """h @ w, a one-row h through a two-row stack; into ``out`` when
        given."""
        if h.shape[0] != 1:
            return np.matmul(h, w, out=out)
        product = (np.concatenate((h, h)) @ w)[:1]
        if out is None:
            return product
        out[...] = product
        return out

    def dense(h, w, b, out):
        rows_times(h, w.value, out)
        out += b.value
        return out

    height = x.shape[0]
    h1, d1 = np.empty((height, w1.shape[1])), np.empty((height, w1.shape[1]))
    h2, d2 = np.empty((height, w2.shape[1])), np.empty((height, w2.shape[1]))
    value = np.empty((height, w3.shape[1]))
    for rows in _row_tiles(height):
        for h_in, w, b, h, slope in ((x.value, w1, b1, h1, d1),
                                     (h1, w2, b2, h2, d2)):
            a = dense(h_in[rows], w, b, h[rows])
            cdf = _gelu_cdf(a)
            _gelu_slope(a, cdf, out=slope[rows])
            a *= cdf
        dense(h2[rows], w3, b3, value[rows])

    # per layer: its input, for its weight's gradient, its weight, for the
    # product with the weight's transpose, and the GELU slope before it
    layers = ((h2, w3, b3, w3.value, d2), (h1, w2, b2, w2.value, d1),
              (x.value if w1.needs_grad else None, w1, b1,
               w1.value if x.needs_grad else None, None))

    def bw(g):
        for h, w, b, wv, slope in layers:
            if b.needs_grad:
                _accum(b, g.sum(axis=0, keepdims=True), owned=True)
            if w.needs_grad:
                _accum(w, h.T @ g, owned=True)
            if wv is not None:
                g = rows_times(g, wv.T)
            if slope is not None:
                g *= slope
        if x.needs_grad:
            _accum(x, g, owned=True)

    return _op("mlp3", (x, w1, b1, w2, b2, w3, b3), value, bw)


# ----------------------------------------------------- rows and columns


def _inv_norms(x):
    """(m, 1) inverse row norms of x, zero where a norm is <= 1e-12."""
    norms = np.sqrt(np.sum(x * x, axis=1, keepdims=True))
    return np.where(norms > ROWNORM_EPS, 1.0 / np.maximum(norms, ROWNORM_EPS), 0.0)


def _rownorm_grad(g, x, inv):
    """d(x/|x|) = g/|x| - x (g.x)/|x|^3; inv is zero on guarded rows so
    both terms vanish there.  Every operation is row-local, so it runs
    in the row tiles of :func:`_row_tiles` with the whole block's bits,
    and only a tile's temporaries are alive beside the result."""
    out = np.empty(g.shape)
    for rows in _row_tiles(g.shape[0]):
        g_t, x_t, inv_t = g[rows], x[rows], inv[rows]
        dot = np.sum(g_t * x_t, axis=1, keepdims=True)
        np.subtract(g_t * inv_t, x_t * (dot * inv_t ** 3), out=out[rows])
    return out


def rownorm(x):
    """Row-wise L2 normalization; rows with norm <= 1e-12 map to zero
    rows and receive zero gradient."""
    xv = x.value
    inv = _inv_norms(xv)

    def bw(g):
        _accum(x, _rownorm_grad(g, xv, inv), owned=True)

    return _op("rownorm", (x,), xv * inv, bw)


def gather(x, indices, share=None):
    """Select rows by an integer index array (repeats allowed).

    ``share``, an earlier gather of the same rows of ``x``, lends its
    value array: the new node holds no copy of its own, and it stays a
    node of its own, so its gradient reaches ``x`` in its own turn.
    """
    idx = np.asarray(indices, dtype=np.int64)
    _require(idx.ndim == 1, "gather", f"index array must be 1-D, got {idx.shape}")
    if len(idx) and (idx.min() < 0 or idx.max() >= x.shape[0]):
        raise IndexError(f"gather: index out of range for {x.shape[0]} rows")
    if share is None:
        value = x.value[idx]
    else:
        _require(share.op == "gather" and share.parents == (x,)
                 and share.shape == (len(idx), x.shape[1]), "gather",
                 f"a {share.op} node of shape {share.shape} is no gather "
                 f"of {len(idx)} rows of this parent")
        value = share.value
    # strictly increasing indices name each row at most once, so their
    # gradient rows need no summing
    distinct = bool(np.all(idx[1:] > idx[:-1]))

    def bw(g):
        rows = idx
        if not distinct:
            # each row's pieces summed from zero in index order, as
            # np.add.at sums them
            rows, where = np.unique(idx, return_inverse=True)
            summed = np.zeros((len(rows), g.shape[1]))
            np.add.at(summed, where, g)
            g = summed
        first = x.grad is None
        gx = _owned_grad(x)
        if first:
            gx[rows] = g
        else:
            gx[rows] += g

    return _op("gather", (x,), value, bw)


def _slice(x, index, opname):
    # the value is a view of the parent's; no primitive writes into a
    # value, so sharing the buffer is safe
    def bw(g):
        _owned_grad(x)[index] += g

    return _op(opname, (x,), x.value[index], bw)


def row_slice(x, start, stop):
    """Contiguous row range [start, stop), as a view."""
    _require(0 <= start <= stop <= x.shape[0], "row_slice",
             f"range [{start}, {stop}) invalid for {x.shape[0]} rows")
    return _slice(x, np.s_[start:stop], "row_slice")


def col_slice(x, start, stop):
    """Contiguous column range [start, stop), as a view."""
    _require(0 <= start <= stop <= x.shape[1], "col_slice",
             f"range [{start}, {stop}) invalid for {x.shape[1]} columns")
    return _slice(x, np.s_[:, start:stop], "col_slice")


# ------------------------------------------------------------ reductions


def _reduce(x, axis, mean, opname):
    if axis not in (None, 0, 1):
        raise ValueError(f"{opname}: axis must be None, 0, or 1")
    if axis is None:
        value = np.array([[x.value.sum()]])
        count = x.value.size
    else:
        value = x.value.sum(axis=axis, keepdims=True)
        count = x.shape[axis]
    if mean:
        value = value / count

    def bw(g):
        gx = np.broadcast_to(g / count if mean else g, x.shape).copy()
        _accum(x, gx, owned=True)

    return _op(opname, (x,), value, bw)


def reduce_sum(x, axis=None):
    """Sum over all entries (axis None, giving 1x1), rows (0), or columns (1)."""
    return _reduce(x, axis, mean=False, opname="reduce_sum")


def reduce_mean(x, axis=None):
    return _reduce(x, axis, mean=True, opname="reduce_mean")


# ----------------------------------------------------------------- fused
#
# Each fused node runs the operations of the composition it replaces, in
# that composition's order, so values and gradients equal it bit for
# bit; it keeps only what its backward pass reads.


def inject_spmm(op, z, x, rebuild=None):
    """op @ (z + rownorm(x)) with a constant scipy CSR matrix ``op``, one
    noisy encoder layer, as one node.  It keeps x and the (m, 1) column of
    inverse norms, or in place of x ``rebuild``, a function that returns
    x's value with its bits; the noisy input z + rownorm(x) is freed once
    the product is taken."""
    _require(z.shape == x.shape, "inject_spmm",
             f"shapes {z.shape} and {x.shape} differ")
    _require(op.shape[1] == z.shape[0], "inject_spmm",
             f"shapes {op.shape} x {z.shape} incompatible")
    inv = _inv_norms(x.value)
    noisy = x.value * inv
    noisy += z.value
    value = op @ noisy
    xv = x.value if x.needs_grad and rebuild is None else None

    def bw(g):
        g = op.T @ g
        if z.needs_grad:
            _accum(z, g, owned=False)
        if x.needs_grad:
            _accum(x, _rownorm_grad(g, xv if rebuild is None else rebuild(),
                                    inv), owned=True)

    return _op("inject_spmm", (z, x), value, bw)


def kl_normal(mu, sigma2):
    """Mean over every entry of the KL divergence of N(mu, sigma2) from
    the unit Gaussian, 0.5 * mean(mu^2 + sigma2 - log sigma2 - 1), as one
    (1, 1) node; sigma2 must be positive.  The node keeps nothing of its
    own: its closure holds mu and sigma2 where each needs a gradient, and
    its backward pass adds each gradient piece in the composition's order.
    """
    _require(mu.shape == sigma2.shape, "kl_normal",
             f"shapes {mu.shape} and {sigma2.shape} differ")
    count = mu.value.size
    inner = mu.value * mu.value
    inner += sigma2.value
    inner -= np.log(sigma2.value)
    inner += -1.0
    value = 0.5 * (np.array([[inner.sum()]]) / count)
    mu_v = mu.value if mu.needs_grad else None
    sigma2_v = sigma2.value if sigma2.needs_grad else None

    def bw(g):
        c = (0.5 * float(g[0, 0])) / count
        if sigma2.needs_grad:
            _accum(sigma2, (-c) / sigma2_v, owned=True)
            # sigma2 owns its gradient now, so the constant is added
            # in place as the composition's full array of c would be
            _accum(sigma2, c, owned=False)
        if mu.needs_grad:
            gmu = 2.0 * mu_v
            gmu *= c
            _accum(mu, gmu, owned=True)

    return _op("kl_normal", (mu, sigma2), value, bw)


def infonce(a, b, tau):
    """Mean contrastive loss with in-batch negatives as one node: row x
    of ``a`` is positive with row x of ``b`` against every other row of
    ``b``, over dot products scaled by 1/tau, with a max-shifted
    log-sum-exp.

    The forward pass runs one GEMM, scales, shifts and exponentiates it
    in place, and keeps only the row shifts and the row sums of that exp
    matrix: no B x B array.  The backward pass recomputes the exp matrix
    with the forward's operations in the forward's order, so it has the
    forward's bits, turns it into the logits' gradient in place and runs
    two GEMMs.  Views of different shapes raise ShapeError, and a
    temperature that is not positive raises ValueError.
    """
    _require(a.shape == b.shape, "infonce",
             f"view shapes {a.shape} and {b.shape} differ")
    if tau <= 0:
        raise ValueError(f"temperature must be positive, got {tau}")
    inv_tau = 1.0 / tau
    count = a.shape[0]
    av, bv = a.value, b.value

    def scaled_logits():
        logits = av @ bv.T
        logits *= inv_tau
        return logits

    def exp_shifted(logits):
        logits += neg_shift
        return np.exp(logits, out=logits)

    e = scaled_logits()
    shift = e.max(axis=1, keepdims=True)
    neg_shift = -shift
    sums = exp_shifted(e).sum(axis=1, keepdims=True)
    del e
    lse = np.log(sums)
    lse += shift
    pos = (av * bv).sum(axis=1, keepdims=True)
    value = np.array([[(lse - inv_tau * pos).sum()]]) / count

    def bw(g):
        g = g / count
        g_pos = inv_tau * -g
        if a.needs_grad:
            _accum(a, bv * g_pos, owned=True)
        if b.needs_grad:
            _accum(b, av * g_pos, owned=True)
        # the gradient of the scaled logits, in the recomputed exp
        # matrix's buffer
        g_logits = exp_shifted(scaled_logits())
        g_logits *= g / sums
        g_logits *= inv_tau
        if a.needs_grad:
            _accum(a, g_logits @ bv, owned=True)
        if b.needs_grad:
            _accum(b, g_logits.T @ av, owned=True)

    return _op("infonce", (a, b), value, bw)


def rbf_mmd(x, y, bandwidth):
    """MMD^2 V-statistic mean k(x, x) + mean k(y, y) - 2 mean k(x, y) of
    the rows of ``x`` and ``y``, k(a, b) = exp(-|a - b|^2 / (2 bandwidth^2)),
    as one (1, 1) node.  Each kernel block is built in one buffer with
    the composition's operations in its order (a @ b.T, times -2, plus
    a's squared norms as a column and b's as a row, times the
    coefficient, exp), and only its sum is kept.  The backward pass
    builds again, one at a time, each block a parent needs, and adds the
    pieces in the composition's sweep order: blocks x-y, y-y, x-x, each
    giving column sums to b's squared norms, row sums to a's, products
    to a and b; the squared norms' gradients go to y, then x.
    """
    _require(x.shape[1] == y.shape[1], "rbf_mmd",
             f"sample dimensions {x.shape[1]} and {y.shape[1]} differ")
    coeff = -1.0 / (2.0 * bandwidth * bandwidth)
    pair, values = (x, y), (x.value, y.value)
    sq = [np.sum(v * v, axis=1, keepdims=True) for v in values]

    def kernel(i, j):
        k = values[i] @ values[j].T
        k *= -2.0
        k += sq[i]
        k += sq[j].T
        k *= coeff
        return np.exp(k, out=k)

    def mean(i, j):
        return np.array([[kernel(i, j).sum()]]) / (len(sq[i]) * len(sq[j]))

    value = (mean(0, 0) + mean(1, 1)) + -2.0 * mean(0, 1)

    def bw(g):
        needs = (x.needs_grad, y.needs_grad)
        # each squared-norm column's gradient pieces, in arrival order
        sq_pieces = ([], [])
        for i, j, g_mean in ((0, 1, -2.0 * g), (1, 1, g), (0, 0, g)):
            if not (needs[i] or needs[j]):
                continue
            # the gradient of the block's squared distances, in its buffer
            k = kernel(i, j)
            k *= g_mean / k.size
            k *= coeff
            if needs[j]:
                sq_pieces[j].append(k.sum(axis=0, keepdims=True).T)
            if needs[i]:
                sq_pieces[i].append(k.sum(axis=1, keepdims=True))
            k *= -2.0
            if needs[i]:
                _accum(pair[i], k @ values[j], owned=True)
            if needs[j]:
                _accum(pair[j], k.T @ values[i], owned=True)
            del k
        for i in (1, 0):
            if sq_pieces[i]:
                sq_grad = sum(sq_pieces[i][1:], sq_pieces[i][0])
                _accum(pair[i], sq_grad * (2.0 * values[i]), owned=True)

    return _op("rbf_mmd", pair, value, bw)


# -------------------------------------------------------------- backward


def release(nodes):
    """Drop the value of each of ``nodes`` but the leaves and constants.
    The caller names only nodes whose values no later forward node
    reads; a backward closure still holds the arrays it reads."""
    for node in nodes:
        if node.op not in ("leaf", "constant"):
            node.value = None


def backward(loss):
    """Reverse sweep from a scalar loss; returns gradients for every named
    differentiable leaf (zeros for leaves the loss does not reach).

    The sweep consumes the tape: it is empty afterwards.  Nodes refer to
    their tape, so clearing it breaks the only reference cycle and the
    step's remaining values (constants, leaves, nodes the loss does not
    reach) are freed as soon as the caller drops them.
    """
    if loss.value.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
    tape = loss.tape
    loss.grad = np.ones_like(loss.value)
    loss._grad_owned = True
    for node in reversed(tape.nodes):
        if node.grad is None or node._backward is None:
            continue
        node._backward(node.grad)
        # consumers ran earlier in the sweep, so nothing reads this node
        # again; retiring it keeps peak memory at the live frontier
        # instead of the whole tape
        node._backward = None
        node.grad = None
        if node is not loss:
            node.value = None
    table = {}
    for node in tape.nodes:
        if node.op == "leaf" and node.needs_grad and node.name is not None:
            table[node.name] = (node.grad if node.grad is not None
                                else np.zeros(node.shape))
    tape.nodes.clear()
    return table


def check_gradients(f, point, h=1e-5):
    """Max relative error between analytic gradients and central finite
    differences.

    ``f(point) -> (value, grads)`` evaluates a scalar function of the
    parameter dict ``point`` (name -> float64 array) and returns its value
    with a gradient table.  Each coordinate is perturbed by ±h in place
    and restored; relative error is |analytic − fd| / max(1, |analytic|).
    """
    value, grads = f(point)
    if not np.isfinite(value):
        raise DiffError(f"function value at the check point is not finite: {value}")
    worst = 0.0
    for name, base in point.items():
        analytic = grads.get(name)
        if analytic is None:
            analytic = np.zeros_like(base)
        it = np.nditer(base, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = base[idx]
            base[idx] = orig + h
            plus, _ = f(point)
            base[idx] = orig - h
            minus, _ = f(point)
            base[idx] = orig
            fd = (plus - minus) / (2.0 * h)
            err = abs(float(analytic[idx]) - fd) / max(1.0, abs(float(analytic[idx])))
            worst = max(worst, err)
    return worst
