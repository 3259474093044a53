"""Minimal reverse-mode differentiation over dense float64 matrices and
fixed scipy CSR matrices.

Every value on the tape is a 2-D float64 array; scalars are (1, 1)
matrices produced by the reductions.  The primitive set is closed and
small: enough to express the encoder, the losses, and nothing else.
:func:`mlp3` records a whole 3-layer perceptron as one node, so the
generator and reconstructor keep two hidden activations and their GELU
slopes per call instead of eight intermediate nodes.  :func:`spmm`
takes a scipy CSR matrix as it is and multiplies by its transpose view in
the backward pass.  Row and column
slices are views of their parent's value.  :func:`backward` empties the
tape it swept, so a step's values are freed when its last user lets go
of them rather than at the next garbage collection.  Gradients are
validated against central finite differences by :func:`check_gradients`.
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
    "log",
    "softplus",
    "gelu",
    "mlp3",
    "rownorm",
    "gather",
    "scatter_rows",
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

    __slots__ = ("tape", "value", "grad", "op", "parents", "needs_grad",
                 "name", "_backward", "_grad_owned")

    def __init__(self, tape, value, op, parents, needs_grad,
                 backward_fn=None, name=None):
        self.tape = tape
        self.value = value
        self.grad = None
        self.op = op
        self.parents = parents
        self.needs_grad = needs_grad
        self.name = name
        self._backward = backward_fn
        self._grad_owned = False
        tape.nodes.append(self)

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Node(op={self.op!r}, shape={self.value.shape})"


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
        node.grad = np.zeros_like(node.value)
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


def log(x):
    def bw(g):
        _accum(x, g / x.value, owned=True)

    return _op("log", (x,), np.log(x.value), bw)


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


def rownorm(x):
    """Row-wise L2 normalization; rows with norm <= 1e-12 map to zero
    rows and receive zero gradient."""
    norms = np.sqrt(np.sum(x.value * x.value, axis=1, keepdims=True))
    inv = np.where(norms > ROWNORM_EPS, 1.0 / np.maximum(norms, ROWNORM_EPS), 0.0)
    value = x.value * inv

    def bw(g):
        # d(x/|x|) = g/|x| - x (g.x)/|x|^3; inv is zero on guarded rows so
        # both terms vanish there.
        dot = np.sum(g * x.value, axis=1, keepdims=True)
        _accum(x, g * inv - x.value * (dot * inv ** 3), owned=True)

    return _op("rownorm", (x,), value, bw)


def gather(x, indices):
    """Select rows by an integer index array (repeats allowed)."""
    idx = np.asarray(indices, dtype=np.int64)
    _require(idx.ndim == 1, "gather", f"index array must be 1-D, got {idx.shape}")
    if len(idx) and (idx.min() < 0 or idx.max() >= x.shape[0]):
        raise IndexError(f"gather: index out of range for {x.shape[0]} rows")
    value = x.value[idx]
    # strictly increasing indices name each row at most once, so the
    # backward pass can assign instead of accumulating
    distinct = bool(np.all(idx[1:] > idx[:-1]))

    def bw(g):
        gx = np.zeros_like(x.value)
        if distinct:
            gx[idx] = g
        else:
            np.add.at(gx, idx, g)
        _accum(x, gx, owned=True)

    return _op("gather", (x,), value, bw)


def scatter_rows(x, indices, rows):
    """A ``rows``-row matrix of zeros with the rows of x placed at the
    given distinct, sorted indices; the adjoint of :func:`gather`."""
    idx = np.asarray(indices, dtype=np.int64)
    _require(idx.shape == (x.shape[0],), "scatter_rows",
             f"need one index per row of {x.shape}, got {idx.shape}")
    if len(idx) and (idx[0] < 0 or idx[-1] >= rows
                     or np.any(idx[1:] <= idx[:-1])):
        raise IndexError(f"scatter_rows: indices must be sorted, distinct "
                         f"and inside {rows} rows")
    value = np.zeros((rows, x.shape[1]))
    value[idx] = x.value

    def bw(g):
        _accum(x, g[idx], owned=True)

    return _op("scatter_rows", (x,), value, bw)


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
                                else np.zeros_like(node.value))
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
