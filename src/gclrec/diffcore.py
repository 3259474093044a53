"""Minimal reverse-mode differentiation over dense float64 matrices and
fixed scipy CSR matrices.

Every value on the tape is a 2-D float64 array; scalars are (1, 1)
matrices produced by the reductions.  The primitive set is closed and
small: enough to express the encoder, the losses, and nothing else.
Six fused nodes stand for the compositions a training step runs most,
each with the composition's values and gradients bit for bit and only
the buffers its backward pass reads: :func:`mlp3` is a whole 3-layer
perceptron, so the generator and reconstructor keep two hidden
activations and their GELU slopes per call instead of eight
intermediate nodes; :func:`reparam` is the reparameterized noise
sample from a generator output, and :func:`mul_add` the same sample
from separate mean and scale nodes; :func:`inject_spmm` is one encoder
layer, the row-normalized noise added to the layer input and
propagated, without keeping the noisy input; :func:`kl_normal` is the
KL term, which keeps nothing of its own; and :func:`infonce` is the
contrastive loss of one view pair, which keeps one B x B matrix
instead of four.  :func:`spmm` takes a scipy CSR matrix as it is and
multiplies by its transpose view in the backward pass.  Row and column
slices are views of their parent's value, and :func:`gather` can lend
one gather's value to a second gather of the same rows.  A node whose
value no backward pass reads may drop it (value None) once it is
built.  A node records its shape when it is built, so the backward
passes that read only a parent's shape, those of :func:`gather`, the
slices and the reductions, work on a dropped value.  :func:`backward`
empties the tape it swept, so a step's values are freed when its last
user lets go of them rather than at the next garbage collection.
Gradients are validated against central finite differences by
:func:`check_gradients`.
"""

import numpy as np
from scipy.special import erf, expit

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
    "reparam",
    "mul_add",
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
    "backward",
    "check_gradients",
]

ROWNORM_EPS = 1e-12
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


def _op(op, parents, value, backward_fn):
    tape = _tape_of(*parents)
    needs = any(p.needs_grad for p in parents)
    return Node(tape, value, op, tuple(parents), needs,
                backward_fn if needs else None)


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

    def bw(g):
        if a.needs_grad:
            _accum(a, g * b.value, owned=True)
        if b.needs_grad:
            _accum(b, g * a.value, owned=True)

    return _op("mul", (a, b), a.value * b.value, bw)


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

    return _op("square", (x,), x.value * x.value, bw)


def exp(x):
    value = np.exp(x.value)

    def bw(g):
        _accum(x, g * value, owned=True)

    return _op("exp", (x,), value, bw)


def softplus(x):
    value = np.logaddexp(0.0, x.value)

    def bw(g):
        _accum(x, g * expit(x.value), owned=True)

    return _op("softplus", (x,), value, bw)


def _gelu_cdf(a):
    """Phi(a) = 0.5 * (1 + erf(a / sqrt 2)), in one new array."""
    cdf = a * _INV_SQRT2
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    return cdf


def _gelu_slope(a, cdf):
    """Derivative of a * Phi(a): Phi(a) + a * phi(a), in one new array.
    The operations are those of ``cdf + a * (c * exp(-0.5 * a * a))`` in
    that order; each swaps only the operands of one product or sum, which
    rounds the same."""
    slope = a * -0.5
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

    return _op("gelu", (x,), x.value * cdf, bw)


def mlp3(x, w1, b1, w2, b2, w3, b3):
    """3-layer perceptron gelu(x w1 + b1) -> gelu(. w2 + b2) -> . w3 + b3
    as one node; the biases are (1, n) rows.

    Values and gradients equal the matmul/badd_row/gelu composition bit
    for bit.  Only the hidden activations and their GELU slopes are kept
    for the backward pass, which reuses the slopes instead of evaluating
    erf and exp again.
    """
    weights = ((w1, b1), (w2, b2), (w3, b3))
    width = x.shape[1]
    for layer, (w, b) in enumerate(weights, start=1):
        _require(w.shape[0] == width and b.shape == (1, w.shape[1]), "mlp3",
                 f"layer {layer}: weight {w.shape} and bias {b.shape} do "
                 f"not fit input width {width}")
        width = w.shape[1]

    def dense(h, w, b):
        a = h @ w.value
        a += b.value
        return a

    def gelu_layer(h, w, b):
        a = dense(h, w, b)
        cdf = _gelu_cdf(a)
        slope = _gelu_slope(a, cdf)
        a *= cdf
        return a, slope

    h1, d1 = gelu_layer(x.value, w1, b1)
    h2, d2 = gelu_layer(h1, w2, b2)

    def bw(g):
        for h, w, b, slope in ((h2, w3, b3, d2), (h1, w2, b2, d1),
                               (x.value, w1, b1, None)):
            if b.needs_grad:
                _accum(b, g.sum(axis=0, keepdims=True), owned=True)
            if w.needs_grad:
                _accum(w, h.T @ g, owned=True)
            if slope is not None:
                g = g @ w.value.T
                g *= slope
        if x.needs_grad:
            _accum(x, g @ w1.value.T, owned=True)

    return _op("mlp3", (x, w1, b1, w2, b2, w3, b3),
               dense(h2, w3, b3), bw)


# ----------------------------------------------------- rows and columns


def _inv_norms(x):
    """(m, 1) inverse row norms of x, zero where a norm is <= 1e-12."""
    norms = np.sqrt(np.sum(x * x, axis=1, keepdims=True))
    return np.where(norms > ROWNORM_EPS, 1.0 / np.maximum(norms, ROWNORM_EPS), 0.0)


def _rownorm_grad(g, x, inv):
    # d(x/|x|) = g/|x| - x (g.x)/|x|^3; inv is zero on guarded rows so
    # both terms vanish there.
    dot = np.sum(g * x, axis=1, keepdims=True)
    return g * inv - x * (dot * inv ** 3)


def rownorm(x):
    """Row-wise L2 normalization; rows with norm <= 1e-12 map to zero
    rows and receive zero gradient."""
    inv = _inv_norms(x.value)

    def bw(g):
        _accum(x, _rownorm_grad(g, x.value, inv), owned=True)

    return _op("rownorm", (x,), x.value * inv, bw)


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
    # strictly increasing indices name each row at most once, so the
    # backward pass can assign instead of accumulating
    distinct = bool(np.all(idx[1:] > idx[:-1]))

    def bw(g):
        gx = np.zeros(x.shape)
        if distinct:
            gx[idx] = g
        else:
            np.add.at(gx, idx, g)
        _accum(x, gx, owned=True)

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
            _accum(x, _rownorm_grad(g, x.value, inv), owned=True)

    return _op("inject_spmm", (z, x), value, bw)


def reparam(out, eps, stddev=False):
    """Reparameterized sample mu + s * eps from a generator output
    ``out`` = [mu | log-variance] of shape (m, 2d) and a constant (m, d)
    epsilon array, as one node.  s is exp(log-variance), or
    exp(0.5 * log-variance) when ``stddev`` is set.

    Replaces two col_slice, exp (and scale), mul and add nodes.  s and
    epsilon are kept; the backward pass writes one (m, 2d) gradient and
    reads nothing of ``out``, whose value the caller may then drop.
    """
    eps = _as_matrix(eps)
    m, width = out.shape
    d = width // 2
    _require(width == 2 * d and eps.shape == (m, d), "reparam",
             f"output {out.shape} needs an epsilon of ({m}, {d}) and an "
             f"even width, got {eps.shape}")
    if stddev:
        s = 0.5 * out.value[:, d:]
        np.exp(s, out=s)
    else:
        s = np.exp(out.value[:, d:])
    value = s * eps
    value += out.value[:, :d]

    def bw(g):
        gout = np.empty((m, width))
        # the composition adds each half into zeros; adding 0.0 rounds
        # the same, turning -0.0 into 0.0
        np.add(g, 0.0, out=gout[:, :d])
        glv = gout[:, d:]
        np.multiply(g, eps, out=glv)
        glv *= s
        if stddev:
            glv *= 0.5
        glv += 0.0
        _accum(out, gout, owned=True)

    return _op("reparam", (out,), value, bw)


def mul_add(mu, s, eps):
    """mu + s * eps with a constant array ``eps``, as one node: the
    reparameterized sample from separate mean and scale nodes.  Only
    epsilon is kept."""
    eps = _as_matrix(eps)
    _require(mu.shape == s.shape == eps.shape, "mul_add",
             f"shapes {mu.shape}, {s.shape} and {eps.shape} differ")
    value = s.value * eps
    value += mu.value

    def bw(g):
        if mu.needs_grad:
            _accum(mu, g, owned=False)
        if s.needs_grad:
            _accum(s, g * eps, owned=True)

    return _op("mul_add", (mu, s), value, bw)


def kl_normal(mu, sigma2, paper=False):
    """Mean over every entry of the KL divergence of N(mu, sigma2) from
    the unit Gaussian, as one (1, 1) node; sigma2 must be positive.

    The standard form is 0.5 * mean(mu^2 + sigma2 - log sigma2 - 1); the
    paper's printed form, with ``paper`` set, is
    mean(-0.5 * log sigma2 + 0.5 * (sigma2 + mu) - 0.5).  The node keeps
    nothing: its backward pass reads the values of mu and sigma2 and
    adds each gradient piece in the composition's order.
    """
    _require(mu.shape == sigma2.shape, "kl_normal",
             f"shapes {mu.shape} and {sigma2.shape} differ")
    count = mu.value.size
    if paper:
        inner = np.log(sigma2.value)
        inner *= -0.5
        half = sigma2.value + mu.value
        half *= 0.5
        inner += half
        inner += -0.5
        value = np.array([[inner.sum()]]) / count
    else:
        inner = mu.value * mu.value
        inner += sigma2.value
        inner -= np.log(sigma2.value)
        inner += -1.0
        value = 0.5 * (np.array([[inner.sum()]]) / count)

    def bw(g):
        if paper:
            c = float(g[0, 0]) / count
            # the composition hands one buffer to both, unowned
            half = np.full(mu.shape, 0.5 * c)
            if sigma2.needs_grad:
                _accum(sigma2, half, owned=False)
            if mu.needs_grad:
                _accum(mu, half, owned=False)
            if sigma2.needs_grad:
                _accum(sigma2, (-0.5 * c) / sigma2.value, owned=True)
        else:
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

    return _op("kl_normal", (mu, sigma2), value, bw)


def infonce(a, b, tau):
    """Mean contrastive loss with in-batch negatives as one node: row x
    of ``a`` is positive with row x of ``b`` against every other row of
    ``b``, over dot products scaled by 1/tau, with a max-shifted
    log-sum-exp.

    The forward pass runs one GEMM, scales, shifts and exponentiates it
    in place and keeps only that exp matrix and its row sums.  The
    backward pass turns the exp matrix into the logits' gradient in
    place and runs two GEMMs.
    """
    _require(a.shape == b.shape, "infonce",
             f"view shapes {a.shape} and {b.shape} differ")
    inv_tau = 1.0 / tau
    count = a.shape[0]
    e = a.value @ b.value.T
    e *= inv_tau
    shift = e.max(axis=1, keepdims=True)
    e += -shift
    np.exp(e, out=e)
    sums = e.sum(axis=1, keepdims=True)
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
        # the gradient of the scaled logits, in the exp matrix's buffer
        g_logits = e
        g_logits *= g / sums
        g_logits *= inv_tau
        if a.needs_grad:
            _accum(a, g_logits @ b.value, owned=True)
        if b.needs_grad:
            _accum(b, g_logits.T @ a.value, owned=True)

    return _op("infonce", (a, b), value, bw)


# -------------------------------------------------------------- backward


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
    for node in tape.nodes:
        node.grad = None
        node._grad_owned = False
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
