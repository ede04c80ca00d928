"""Dense float64 tensors with reverse-mode automatic differentiation.

Shapes are kept deliberately small: scalars (rank 0), vectors (rank 1) and
matrices (rank 2, batch axis first). Binary operations broadcast a vector or
scalar operand along the leading axis of a matrix operand and nothing else.
All data is contiguous row-major float64.

Tensors are immutable once forward-evaluated; graph construction and backward
are single-threaded per training run. A read-out's workers share
`_grad_enabled` and `_check_ops`, which the caller sets before the first
worker starts and restores after the last one stops.

A value and its graph node are two objects, as with saved tensors in
PyTorch's autograd. An op's `Tensor` holds the value and a reference to its
`_Node`; the node holds its parents' nodes, its backward rule and `_saved`,
exactly the arrays that rule reads, but never its own value: a rule reads
shapes from its parents, and a binary op saves an operand only when the
other operand's adjoint reads it. So a value that no rule reads is freed as
soon as the caller drops its `Tensor`: a matmul output that feeds a bias
add, or an activation scaled by a constant, lives only until that op has
run. Each op has one rule, a module-level function `rule(g, node)` shared
by every node of the op, so an op call builds no closure.
"""

from __future__ import annotations

import contextlib
import itertools
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, DimensionError, NumericError

EPS_FLOOR = 1e-10
_F64 = np.dtype(np.float64)

_grad_enabled = True
_check_ops = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the context (evaluation, optimizer steps)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _finite(x, what: str):
    """`x` itself, or a NumericError naming `what` when it holds a non-finite value."""
    if not np.isfinite(x).all():
        raise NumericError(f"non-finite {what}")
    return x


def _checked_once(compute: Callable[[], object], rng: np.random.Generator | None = None):
    """Run `compute()` without the per-op finiteness check and return its result.

    `compute` checks the values it keeps with `_finite` instead (a loss and the
    gradients it steps with, a chunk of log-weights). When one is non-finite,
    `rng` is put back to its state before the first run and `compute()` runs
    again with the per-op check as it was (on unless nested), so the error
    names the op. The replay sees the same values and draws only if the first
    run wrote no state that `compute` reads.
    """
    global _check_ops
    prev = _check_ops
    snapshot = None if rng is None else rng.bit_generator.state
    _check_ops = False
    try:
        return compute()
    except NumericError:
        pass
    finally:
        _check_ops = prev
    if rng is not None:
        rng.bit_generator.state = snapshot
    return compute()


class Tensor:
    """A numpy-backed value participating in the autodiff graph.

    `grad` accumulates only on leaf tensors created with `requires_grad=True`
    (parameters and explicitly tracked inputs). A tensor built by an op while
    grad is on and some parent requires grad keeps its graph node in `_node`
    (see `_Node`); any other tensor is a leaf, whose `_node` is None. A leaf
    that requires grad is its own graph node: it has no parents and no rule
    (`_parents` and `_bw` are class defaults), and `backward` adds its adjoint
    into its `grad`, using its `_adj` and `_mark` slots as a `_Node` does.
    """

    __slots__ = ("data", "grad", "requires_grad", "_node", "_adj", "_mark")
    _parents: tuple = ()
    _bw = None

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64, order="C")
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._node: _Node | None = None
        self._adj: np.ndarray | None = None
        self._mark = 0

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        op = "leaf" if self._node is None else self._node._op
        return f"Tensor(op={op}, shape={self.data.shape})"

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data.reshape(()))

    # -- operator sugar --------------------------------------------------------

    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __truediv__(self, other):
        return div(self, _as_tensor(other))


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def constant(data) -> Tensor:
    return Tensor(data)


def parameter(data) -> Tensor:
    return Tensor(data, requires_grad=True)


# -- graph construction ---------------------------------------------------------


class _Node:
    """The graph node of an op's output, without its value.

    It keeps `_op` (the op name), `shape` (its value's shape), `_parents`
    (one per operand: the operand's node, the operand itself when it is a
    leaf that requires grad, None when it does not require grad), `_bw`, the
    op's module-level rule, and `_saved`, the arrays that rule reads besides
    the adjoint: an operand, the output or a slope, a floor mask, plus an
    axis and count, the index of a row or sub's flag (None when it reads
    only shapes, which it takes from `_parents`). An operand is saved only
    when the other operand requires grad, since only that one's adjoint
    reads it, and None stands in its place otherwise, as for a mask when
    nothing was floored. The rule `_bw(g, node)` returns one adjoint per
    parent, or None for a parent that does not require grad. A node's
    adjoint lives in its `_adj` slot while a `backward` runs: each call
    resets it on every node it visits (`_mark` holds the call's stamp) and
    clears it when it runs the node's rule, so repeated `backward` calls
    accumulate cleanly on the leaves.
    """

    __slots__ = ("_op", "shape", "_parents", "_bw", "_saved", "_adj", "_mark")


def _as_f64(data) -> np.ndarray:
    """`data` as the C-contiguous float64 array that `Tensor` keeps: `data`
    itself when a kernel already made one. An op that saves its output
    converts it first, so that its node saves the array its tensor keeps (a
    kernel on a 0-d input returns a numpy scalar)."""
    if type(data) is not np.ndarray or data.dtype is not _F64 or not data.flags.c_contiguous:
        data = np.asarray(data, dtype=np.float64, order="C")
    return data


def _make(data: np.ndarray, op: str, parents: tuple[Tensor, ...], rule, saved=None) -> Tensor:
    """The tensor of `op` with value `data`. While grad is on and a parent
    requires grad, it gets a node that keeps the parents' nodes, the backward
    `rule` and `saved` (see `_Node`); otherwise it is a leaf."""
    if _check_ops and not np.isfinite(data).all():
        raise NumericError(f"non-finite result in op '{op}'")
    out = object.__new__(Tensor)
    out.data, out.grad, out._adj, out._mark = _as_f64(data), None, None, 0
    if _grad_enabled:
        for p in parents:
            if p.requires_grad:
                node = object.__new__(_Node)
                node._op, node.shape, node._bw, node._saved = op, out.data.shape, rule, saved
                node._parents = tuple([q._node or (q if q.requires_grad else None)
                                       for q in parents])
                node._adj, node._mark = None, 0
                out.requires_grad, out._node = True, node
                return out
    out.requires_grad, out._node = False, None
    return out


def _broadcast_check(a: Tensor, b: Tensor, op: str) -> None:
    sa, sb = a.data.shape, b.data.shape
    if sa == sb:
        return
    # scalar against anything
    if sa == () or sb == ():
        return
    # vector against the trailing axis of a matrix (leading-axis broadcast)
    if len(sa) == 2 and sb == sa[1:]:
        return
    if len(sb) == 2 and sa == sb[1:]:
        return
    raise DimensionError(f"{op}: shapes {sa} and {sb} are not broadcastable")


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce `grad` back to `shape` after leading-axis broadcasting."""
    if grad.shape == shape:
        return grad
    if shape == ():
        return np.asarray(grad.sum())
    # vector broadcast along the leading axis: sum it out
    return grad.sum(axis=0)


def _above_floor(x: np.ndarray) -> bool:
    """True when no element of `x` lies below EPS_FLOOR."""
    if x.ndim == 0:
        return x >= EPS_FLOOR
    return x.size == 0 or x.min() >= EPS_FLOOR


def _where_inside(inside: np.ndarray | None, adjoint: np.ndarray) -> np.ndarray:
    """`adjoint`, zeroed where an op floored its input: `inside` is False
    there, and None when the op floored nothing."""
    return adjoint if inside is None else np.where(inside, adjoint, 0.0)


def _saved_operands(a: Tensor, b: Tensor) -> tuple:
    """The operands a binary rule reads: each one whose partner requires
    grad, None in place of one whose partner does not."""
    return (a.data if b.requires_grad else None, b.data if a.requires_grad else None)


# -- backward rules ---------------------------------------------------------------
# `rule(g, node)` maps the adjoint `g` of `node` to one adjoint per parent, in
# the order of `node._parents`. A binary rule leaves None for a parent that does
# not require grad (data, constants) and reduces a broadcast operand's adjoint
# back to its shape. A rule reads shapes from `node._parents` and arrays only
# from `node._saved` (see `_Node`); a docstring names what each op of the rule saves.


def _add_rule(g, node):
    """Saved: True for sub, whose second adjoint is negated."""
    a, b = node._parents
    return (None if a is None else _unbroadcast(g, a.shape),
            None if b is None else _unbroadcast(-g if node._saved else g, b.shape))


def _mul_rule(g, node):
    """Saved: each operand whose partner requires grad."""
    a, b = node._parents
    ad, bd = node._saved
    return (None if a is None else _unbroadcast(g * bd, a.shape),
            None if b is None else _unbroadcast(g * ad, b.shape))


def _div_rule(g, node):
    """Saved: the numerator if the denominator requires grad, the floored
    denominator and where the true one is not floored (see `_where_inside`)."""
    a, b = node._parents
    ad, bd, inside = node._saved
    return (None if a is None else _unbroadcast(g / bd, a.shape),
            None if b is None else
            _unbroadcast(_where_inside(inside, -g * ad / (bd * bd)), b.shape))


def _quotient_rule(g, node):
    """Saved: the divisor d of the derivative 1 / d (log's floored input,
    twice sqrt's output) and where the input is not floored."""
    d, inside = node._saved
    return (_where_inside(inside, g / d),)


def _square_rule(g, node):
    """Saved: the input."""
    return (2.0 * g * node._saved,)


def _tanh_rule(g, node):
    """Saved: the output."""
    out = node._saved
    return (g * (1.0 - out * out),)


def _relu_rule(g, node):
    """Saved: the output, which is > 0 exactly where the input is (never for
    -0.0 or NaN)."""
    # a float mask multiplies without a cast in the loop and gives the bool
    # mask's bits
    return (g * (node._saved > 0).astype(np.float64),)


def _sigmoid_rule(g, node):
    """Saved: the output."""
    out = node._saved
    return (g * out * (1.0 - out),)


def _slope_rule(g, node):
    """Saved: the op's derivative at its input (exp's output, softplus, abs,
    -1.0 for neg, clip's pass-through mask)."""
    return (g * node._saved,)


def _matmul_rule(g, node):
    """Saved: each operand whose partner requires grad."""
    a, b = node._parents
    ad, bd = node._saved
    return (None if a is None else g @ bd.T,
            None if b is None else ad.T @ g)


def _transpose_rule(g, node):
    return (g.T,)


def _concat_rule(g, node):
    """Saved: each part's (first, end) column."""
    return tuple(g[:, lo:hi] for lo, hi in node._saved)


def _row_rule(g, node):
    """Saved: the row index."""
    full = np.zeros(node._parents[0].shape)
    full[node._saved] = g
    return (full,)


def _reshape_col_rule(g, node):
    return (g.reshape(-1),)


def _sum_rule(g, node):
    """Saved: the reduced axis (None for all) and, for mean, the count
    averaged over (None for sum)."""
    axis, n = node._saved
    return (_spread(g if n is None else g / n, node._parents[0].shape, axis),)


def _logsumexp_rule(g, node):
    """Saved: exp(x - max) and its sum, both with the reduced axes kept."""
    e, s = node._saved
    return (np.reshape(g, s.shape) * (e / s),)


def _eigenvalue_rule(g, node):
    """Saved: the eigenvectors."""
    vec = node._saved
    da = vec @ np.diag(g) @ vec.T
    return (0.5 * (da + da.T),)


def _eigenvector_rule(g, node):
    """Saved: the eigenvalues and the eigenvectors (the output)."""
    lam, vec = node._saved
    diff = lam[None, :] - lam[:, None]
    small = np.abs(diff) < 1e-12
    safe = np.where(small, 1.0, diff)
    f = np.where(small, 0.0, 1.0 / safe)
    da = vec @ (f * (vec.T @ g)) @ vec.T
    return (0.5 * (da + da.T),)


# -- elementwise ops ------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    _broadcast_check(a, b, "add")
    return _make(a.data + b.data, "add", (a, b), _add_rule)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _broadcast_check(a, b, "sub")
    return _make(a.data - b.data, "sub", (a, b), _add_rule, True)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _broadcast_check(a, b, "mul")
    return _make(a.data * b.data, "mul", (a, b), _mul_rule, _saved_operands(a, b))


def div(a: Tensor, b: Tensor) -> Tensor:
    """Division with the epsilon floor applied to the denominator magnitude."""
    _broadcast_check(a, b, "div")
    ad, bd, inside = a.data, b.data, None
    if not (_above_floor(bd) or _above_floor(-bd)):
        inside = np.abs(bd) >= EPS_FLOOR
        bd = np.where(np.abs(bd) < EPS_FLOOR, np.where(bd < 0, -EPS_FLOOR, EPS_FLOOR), bd)
    return _make(ad / bd, "div", (a, b), _div_rule,
                 (ad if b.requires_grad else None, bd, inside))


def neg(a: Tensor) -> Tensor:
    return _make(-a.data, "neg", (a,), _slope_rule, -1.0)


def exp(a: Tensor) -> Tensor:
    out = _as_f64(np.exp(a.data))
    return _make(out, "exp", (a,), _slope_rule, out)


def log(a: Tensor) -> Tensor:
    """Natural log with inputs floored at EPS_FLOOR (clamp, do not error)."""
    x, inside = a.data, None
    if not _above_floor(x):
        x, inside = np.maximum(x, EPS_FLOOR), x >= EPS_FLOOR
    return _make(np.log(x), "log", (a,), _quotient_rule, (x, inside))


def sqrt(a: Tensor) -> Tensor:
    """Square root with inputs floored at EPS_FLOOR."""
    x, inside = a.data, None
    if not _above_floor(x):
        x, inside = np.maximum(x, EPS_FLOOR), x >= EPS_FLOOR
    out = np.sqrt(x)
    return _make(out, "sqrt", (a,), _quotient_rule, (2.0 * out, inside))


def square(a: Tensor) -> Tensor:
    ad = a.data
    return _make(ad * ad, "square", (a,), _square_rule, ad)


def tanh(a: Tensor) -> Tensor:
    out = _as_f64(np.tanh(a.data))
    return _make(out, "tanh", (a,), _tanh_rule, out)


def relu(a: Tensor) -> Tensor:
    # np.maximum(x, 0.0) maps -0.0 to +0.0, like the mask it replaces
    out = _as_f64(np.maximum(a.data, 0.0))
    return _make(out, "relu", (a,), _relu_rule, out)


def sigmoid(a: Tensor) -> Tensor:
    out = _as_f64(_stable_sigmoid(a.data))
    return _make(out, "sigmoid", (a,), _sigmoid_rule, out)


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softplus(a: Tensor) -> Tensor:
    """log(1 + exp(x)), computed stably."""
    x = a.data
    out = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    return _make(out, "softplus", (a,), _slope_rule, _stable_sigmoid(x))


def absolute(a: Tensor) -> Tensor:
    sign = np.sign(a.data)
    return _make(np.abs(a.data), "abs", (a,), _slope_rule, sign)


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp values into [lo, hi]; gradient passes only inside the range."""
    out = np.clip(a.data, lo, hi)
    # for lo <= hi, out == x exactly where lo <= x <= hi (never for NaN)
    return _make(out, "clip", (a,), _slope_rule, out == a.data)


# -- matrix ops -------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DimensionError(
            f"matmul: expected rank-2 operands, got {a.data.shape} and {b.data.shape}"
        )
    if a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(
            f"matmul: inner dimensions disagree: {a.data.shape} x {b.data.shape}"
        )
    return _make(a.data @ b.data, "matmul", (a, b), _matmul_rule, _saved_operands(a, b))


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise DimensionError(f"transpose: expected rank-2, got {a.data.shape}")
    return _make(np.ascontiguousarray(a.data.T), "transpose", (a,), _transpose_rule)


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate rank-2 tensors along axis 1."""
    parts = tuple(parts)
    if not parts:
        raise ContractError("concat_cols: empty input")
    rows = parts[0].data.shape[0]
    for p in parts:
        if p.data.ndim != 2 or p.data.shape[0] != rows:
            raise DimensionError("concat_cols: operands must share the batch axis")
    ends = list(itertools.accumulate(p.data.shape[1] for p in parts))
    spans = tuple(zip([0] + ends, ends))
    return _make(np.concatenate([p.data for p in parts], axis=1), "concat", parts,
                 _concat_rule, spans)


def row(a: Tensor, i: int) -> Tensor:
    """Select row `i` of a rank-2 tensor as a vector."""
    if a.data.ndim != 2:
        raise DimensionError(f"row: expected rank-2, got {a.data.shape}")
    if not 0 <= i < a.data.shape[0]:
        raise DimensionError(f"row: index {i} out of range for {a.data.shape}")
    return _make(a.data[i].copy(), "row", (a,), _row_rule, i)


def reshape_col(a: Tensor) -> Tensor:
    """View a batch vector (B,) as a single column (B, 1)."""
    if a.data.ndim != 1:
        raise DimensionError(f"reshape_col: expected rank-1, got {a.data.shape}")
    return _make(a.data.reshape(-1, 1), "reshape_col", (a,), _reshape_col_rule)


# -- reductions ---------------------------------------------------------------------


def _check_axis(a: Tensor, axis: int | None, op: str) -> None:
    if axis is None:
        if a.data.size == 0:
            raise DimensionError(f"{op}: empty reduction")
        return
    if axis < 0 or axis >= a.data.ndim:
        raise DimensionError(f"{op}: axis {axis} out of range for shape {a.data.shape}")
    if a.data.shape[axis] == 0:
        raise DimensionError(f"{op}: empty reduction axis {axis}")


def _spread(g: np.ndarray, shape: tuple[int, ...], axis: int | None) -> np.ndarray:
    """`g` repeated along the reduced `axis` (every axis when None) into a fresh
    contiguous array of `shape`, the adjoint of a sum."""
    out = np.empty(shape)
    # a reduced leading axis needs no new axis to broadcast along
    out[...] = g if not axis else np.expand_dims(g, axis)
    return out


def sum_(a: Tensor, axis: int | None = None) -> Tensor:
    _check_axis(a, axis, "sum")
    return _make(a.data.sum(axis=axis), "sum", (a,), _sum_rule, (axis, None))


def mean(a: Tensor, axis: int | None = None) -> Tensor:
    _check_axis(a, axis, "mean")
    n = a.data.size if axis is None else a.data.shape[axis]
    # numpy's mean is this sum divided by the count
    return _make(a.data.sum(axis=axis) / n, "mean", (a,), _sum_rule, (axis, n))


def logsumexp(a: Tensor, axis: int | None = None) -> Tensor:
    """Max-shifted log-sum-exp; never overflows for finite input."""
    _check_axis(a, axis, "logsumexp")
    x = a.data
    # kept dims broadcast against `x`, also when every axis is reduced
    m = x.max(axis=axis, keepdims=True)
    # the shifted copy is exponentiated in place (a fresh array, also for a 0-d x)
    e = np.subtract(x, m, out=np.empty_like(x))
    np.exp(e, out=e)
    s = e.sum(axis=axis, keepdims=True)
    return _make(np.squeeze(m + np.log(s), axis=axis), "logsumexp", (a,),
                 _logsumexp_rule, (e, s))


# -- backward pass -----------------------------------------------------------------


_stamps = itertools.count(1)


def _toposort(root: _Node | Tensor) -> list[_Node | Tensor]:
    """The graph nodes reachable from `root`, parents first (depth first).
    Each is stamped as visited by this call and its adjoint reset."""
    stamp = next(_stamps)
    order: list[_Node | Tensor] = []
    stack: list[tuple[_Node | Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node._mark == stamp:
            continue
        node._mark = stamp
        node._adj = None
        stack.append((node, True))
        for parent in node._parents:
            if parent is not None and parent._mark != stamp:
                stack.append((parent, False))
    return order


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into every reachable requires-grad leaf.

    Repeated calls without zeroing add up. An interior node's adjoint is kept
    in its `_adj` slot only during a call: `_toposort` resets it on every node
    the call visits, so a call that raised part-way leaves nothing stale for
    the next, and the call clears it again when it runs the node's rule.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward: loss must be scalar, got shape {loss.data.shape}")
    if not loss.requires_grad:
        return
    root = loss._node or loss
    order = _toposort(root)
    root._adj = np.ones_like(loss.data)
    for node in reversed(order):
        g = node._adj
        node._adj = None
        if node._bw is None:
            if node.grad is None:
                # a fresh array with the bits of zeros + g (-0.0 becomes +0.0)
                node.grad = np.add(g, 0.0, out=np.empty_like(node.data))
            else:
                node.grad += g
            continue
        for parent, pg in zip(node._parents, node._bw(g, node)):
            if parent is not None:
                # adjoints are never written in place, so `pg` need not be copied
                adj = parent._adj
                parent._adj = pg if adj is None else adj + pg


# -- symmetric eigendecomposition ----------------------------------------------------


def sym_eig(a: Tensor) -> tuple[Tensor, Tensor]:
    """Eigendecomposition of a symmetric matrix (eigenvalues descending).

    Both outputs are differentiable with respect to the input; contributions
    from the eigenvalue and eigenvector paths accumulate independently into
    the adjoint of `a`.
    """
    mat = a.data
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionError(f"sym_eig: expected square matrix, got {mat.shape}")
    d = mat.shape[0]
    if d > 256:
        raise ContractError(f"sym_eig: dimension {d} exceeds the 256 desk-scale guard")
    asym = np.abs(mat - mat.T).max()
    if asym > 1e-8:
        raise ContractError(f"sym_eig: input not symmetric (max asymmetry {asym:.3e})")
    try:
        lam, vec = np.linalg.eigh(0.5 * (mat + mat.T))
    except np.linalg.LinAlgError as err:
        raise NumericError(f"sym_eig: eigendecomposition failed ({err})") from None
    # descending eigenvalues; the stable sort keeps ties in eigh's order
    idx = np.argsort(-lam, kind="stable")
    lam, vec = lam[idx], np.ascontiguousarray(vec[:, idx])

    lam_t = _make(lam, "sym_eig.values", (a,), _eigenvalue_rule, vec)
    vec_t = _make(vec, "sym_eig.vectors", (a,), _eigenvector_rule, (lam, vec))
    return lam_t, vec_t
