"""Minimal reverse-mode differentiation over dense float64 matrices and
fixed scipy CSR matrices.

Every value on the tape is a 2-D float64 array; scalars are (1, 1)
matrices produced by the reductions.  The primitive set is closed and
small: enough to express the encoder, the losses, and nothing else.
Four fused nodes stand for compositions a training step runs, each
with the composition's values and gradients bit for bit and only the
buffers its backward pass reads: :func:`mlp3` is a whole 3-layer
perceptron, so the generator and reconstructor keep two hidden
activations and their GELU slopes per call instead of eight
intermediate nodes, and runs its forward pass in row tiles;
:func:`inject_spmm` is one encoder layer, the row-normalized noise added
to the layer input and propagated, without keeping the noisy input;
:func:`kl_normal` is the KL term, which keeps nothing of its own; and
:func:`infonce` is the contrastive loss of one view pair, which keeps no
B x B matrix where the composition keeps four: its backward pass
recomputes the one it reads.  A composition
is fused only where it must keep more or compute more than the fused
node: one whose generic nodes can drop every value no backward pass
reads once it is built, as the reparameterized noise sample's can,
stays generic.  :func:`spmm` takes a scipy CSR matrix as it is and
multiplies by its transpose view in the backward pass.  Row and column
slices are views of their parent's value, and :func:`gather` can lend
one gather's value to a second gather of the same rows.

What a node keeps: its value, its shape, and what its backward closure
holds (``exp`` its output, ``gelu`` its cdf, ``rownorm`` and
``inject_spmm`` their inverse norms, ``mlp3`` its hidden activations and
slopes, ``infonce`` its row shifts and sums).  Each primitive declares
which values its backward pass reads: ``Node.reads`` names the parents
whose values it reads, and ``Node.reads_own`` says whether it reads its
own, as ``exp`` does; a product reads an operand's value only where the
other operand needs a gradient.  :func:`release` drops the value (value
None) of each node it is given that no declaration of a node recorded so
far names, apart from leaves and constants; the caller gives only nodes
whose values no later forward node reads.  A node records its shape when
it is built, so the backward passes that read only a parent's shape,
those of :func:`gather`, the slices and the reductions, work on a
dropped value.  A dropped ``add`` or ``mul`` value that a backward pass
reads is computed again from its parents' values with the forward
operation (:func:`_value`), which :func:`inject_spmm` does for a noise
sample its caller dropped.

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
    "matmul",
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
    "gather",
    "row_slice",
    "col_slice",
    "reduce_sum",
    "reduce_mean",
    "square",
    "badd_row",
    "badd_col",
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
                 "needs_grad", "name", "reads", "reads_own", "_backward",
                 "_grad_owned")

    def __init__(self, tape, value, op, parents, needs_grad,
                 backward_fn=None, name=None, reads=(), reads_own=False):
        self.tape = tape
        self.value = value
        # kept apart from the value, which a node may drop once built
        self.shape = value.shape
        self.grad = None
        self.op = op
        self.parents = parents
        self.needs_grad = needs_grad
        self.name = name
        # the parents whose values the backward pass reads, and whether
        # it reads the node's own
        self.reads = reads
        self.reads_own = reads_own
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

    def constant(self, value, name=None):
        """A non-differentiated input (data, frozen samples, masks)."""
        return Node(self, _as_matrix(value), "constant", (), False, name=name)


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


def _op(op, parents, value, backward_fn, reads=(), reads_own=False):
    """A new node.  ``reads`` and ``reads_own`` declare the values its
    backward pass reads: those of the parents in ``reads``, and its own
    when ``reads_own`` is set.  A node without a backward pass reads
    none."""
    tape = _tape_of(*parents)
    needs = any(p.needs_grad for p in parents)
    if not needs:
        backward_fn, reads, reads_own = None, (), False
    return Node(tape, value, op, tuple(parents), needs, backward_fn,
                reads=tuple(reads), reads_own=reads_own)


def _crossed(a, b):
    """The values a product of ``a`` and ``b`` reads backward: each
    operand's where the other needs a gradient."""
    return tuple(p for p, q in ((a, b), (b, a)) if q.needs_grad)


def _require(cond, op, detail):
    if not cond:
        raise ShapeError(f"{op}: {detail}")


# ---------------------------------------------------------------- linear


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

    def bw(g):
        if trans_b:
            if a.needs_grad:
                _accum(a, g @ b.value, owned=True)
            if b.needs_grad:
                _accum(b, g.T @ a.value, owned=True)
        else:
            if a.needs_grad:
                _accum(a, g @ b.value.T, owned=True)
            if b.needs_grad:
                _accum(b, a.value.T @ g, owned=True)

    return _op("matmul", (a, b), value, bw, reads=_crossed(a, b))


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

    def bw(g):
        if a.needs_grad:
            _accum(a, g * b.value, owned=True)
        if b.needs_grad:
            _accum(b, g * a.value, owned=True)

    return _op("mul", (a, b), a.value * b.value, bw, reads=_crossed(a, b))


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
    def bw(g):
        _accum(x, g * (2.0 * x.value), owned=True)

    return _op("square", (x,), x.value * x.value, bw, reads=(x,))


def exp(x):
    value = np.exp(x.value)

    def bw(g):
        _accum(x, g * value, owned=True)

    return _op("exp", (x,), value, bw, reads_own=True)


def softplus(x):
    value = np.logaddexp(0.0, x.value)

    def bw(g):
        from scipy.special import expit

        _accum(x, g * expit(x.value), owned=True)

    return _op("softplus", (x,), value, bw, reads=(x,))


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
    cdf = _gelu_cdf(x.value)

    def bw(g):
        _accum(x, g * _gelu_slope(x.value, cdf), owned=True)

    return _op("gelu", (x,), x.value * cdf, bw, reads=(x,))


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

    Values and gradients equal the matmul/badd_row/gelu composition bit
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

    def bw(g):
        for h, w, b, slope in ((h2, w3, b3, d2), (h1, w2, b2, d1),
                               (x.value, w1, b1, None)):
            if b.needs_grad:
                _accum(b, g.sum(axis=0, keepdims=True), owned=True)
            if w.needs_grad:
                _accum(w, h.T @ g, owned=True)
            if slope is not None:
                g = rows_times(g, w.value.T)
                g *= slope
        if x.needs_grad:
            _accum(x, rows_times(g, w1.value.T), owned=True)

    # the weights every product with a transposed weight reads, and the
    # input that w1's gradient reads
    reads = (w2, w3) + (w1,) * x.needs_grad + (x,) * w1.needs_grad
    return _op("mlp3", (x, w1, b1, w2, b2, w3, b3), value, bw, reads=reads)


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
    inv = _inv_norms(x.value)

    def bw(g):
        _accum(x, _rownorm_grad(g, x.value, inv), owned=True)

    return _op("rownorm", (x,), x.value * inv, bw, reads=(x,))


def _value(node):
    """The node's value; a dropped ``add`` or ``mul`` value is computed
    again from its parents' with the forward pass's operation, so it has
    the same bits."""
    if node.value is not None:
        return node.value
    forward = {"add": np.add, "mul": np.multiply}.get(node.op)
    if forward is None:
        raise ValueError(f"the value of a {node.op} node was dropped")
    return forward(*(_value(p) for p in node.parents))


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


def badd_row(x, r):
    """Add a (1, n) row vector to every row of an (m, n) matrix."""
    _require(r.shape == (1, x.shape[1]), "badd_row",
             f"expected (1, {x.shape[1]}) row, got {r.shape} for matrix {x.shape}")

    def bw(g):
        if x.needs_grad:
            _accum(x, g, owned=False)
        if r.needs_grad:
            _accum(r, g.sum(axis=0, keepdims=True), owned=True)

    return _op("badd_row", (x, r), x.value + r.value, bw)


def badd_col(x, c):
    """Add an (m, 1) column vector to every column of an (m, n) matrix."""
    _require(c.shape == (x.shape[0], 1), "badd_col",
             f"expected ({x.shape[0]}, 1) column, got {c.shape} for matrix {x.shape}")

    def bw(g):
        if x.needs_grad:
            _accum(x, g, owned=False)
        if c.needs_grad:
            _accum(c, g.sum(axis=1, keepdims=True), owned=True)

    return _op("badd_col", (x, c), x.value + c.value, bw)


# ----------------------------------------------------------------- fused
#
# Each fused node runs the operations of the composition it replaces, in
# that composition's order, so values and gradients equal it bit for
# bit; it keeps only what its backward pass reads.


def inject_spmm(op, z, x):
    """op @ (z + rownorm(x)) with a constant scipy CSR matrix ``op``, one
    noisy encoder layer, as one node.  Only the (m, 1) column of inverse
    norms is kept; the noisy input z + rownorm(x) is freed once the
    product is taken."""
    _require(z.shape == x.shape, "inject_spmm",
             f"shapes {z.shape} and {x.shape} differ")
    _require(op.shape[1] == z.shape[0], "inject_spmm",
             f"shapes {op.shape} x {z.shape} incompatible")
    inv = _inv_norms(x.value)
    noisy = x.value * inv
    noisy += z.value
    value = op @ noisy

    def bw(g):
        g = op.T @ g
        if z.needs_grad:
            _accum(z, g, owned=False)
        if x.needs_grad:
            _accum(x, _rownorm_grad(g, _value(x), inv), owned=True)

    return _op("inject_spmm", (z, x), value, bw,
               reads=(x,) if x.needs_grad else ())


def kl_normal(mu, sigma2):
    """Mean over every entry of the KL divergence of N(mu, sigma2) from
    the unit Gaussian, 0.5 * mean(mu^2 + sigma2 - log sigma2 - 1), as one
    (1, 1) node; sigma2 must be positive.  The node keeps nothing: its
    backward pass reads the values of mu and sigma2 and adds each
    gradient piece in the composition's order.
    """
    _require(mu.shape == sigma2.shape, "kl_normal",
             f"shapes {mu.shape} and {sigma2.shape} differ")
    count = mu.value.size
    inner = mu.value * mu.value
    inner += sigma2.value
    inner -= np.log(sigma2.value)
    inner += -1.0
    value = 0.5 * (np.array([[inner.sum()]]) / count)

    def bw(g):
        c = (0.5 * float(g[0, 0])) / count
        if sigma2.needs_grad:
            _accum(sigma2, (-c) / sigma2.value, owned=True)
            # sigma2 owns its gradient now, so the constant is added
            # in place as the composition's full array of c would be
            _accum(sigma2, c, owned=False)
        if mu.needs_grad:
            gmu = 2.0 * mu.value
            gmu *= c
            _accum(mu, gmu, owned=True)

    return _op("kl_normal", (mu, sigma2), value, bw,
               reads=(p for p in (sigma2, mu) if p.needs_grad))


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
    two GEMMs.
    """
    _require(a.shape == b.shape, "infonce",
             f"view shapes {a.shape} and {b.shape} differ")
    inv_tau = 1.0 / tau
    count = a.shape[0]

    def scaled_logits():
        logits = a.value @ b.value.T
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
    pos = (a.value * b.value).sum(axis=1, keepdims=True)
    value = np.array([[(lse - inv_tau * pos).sum()]]) / count

    def bw(g):
        g = g / count
        g_pos = inv_tau * -g
        if a.needs_grad:
            _accum(a, b.value * g_pos, owned=True)
        if b.needs_grad:
            _accum(b, a.value * g_pos, owned=True)
        # the gradient of the scaled logits, in the recomputed exp
        # matrix's buffer
        g_logits = exp_shifted(scaled_logits())
        g_logits *= g / sums
        g_logits *= inv_tau
        if a.needs_grad:
            _accum(a, g_logits @ b.value, owned=True)
        if b.needs_grad:
            _accum(b, g_logits.T @ a.value, owned=True)

    return _op("infonce", (a, b), value, bw, reads=(a, b))


# -------------------------------------------------------------- backward


def release(nodes):
    """Drop the value of each of ``nodes`` that no backward pass on its
    tape reads, by the declarations of the nodes recorded so far; leaves
    and constants keep theirs.  The caller names only nodes whose values
    no later forward node reads."""
    nodes = list(nodes)
    if not nodes:
        return
    read = set()
    for node in nodes[0].tape.nodes:
        if node._backward is not None:
            read.update(node.reads)
            if node.reads_own:
                read.add(node)
    for node in nodes:
        if node.op not in ("leaf", "constant") and node not in read:
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
