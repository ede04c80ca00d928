"""Dense float64 tensors with reverse-mode automatic differentiation.

Shapes are kept deliberately small: scalars (rank 0), vectors (rank 1) and
matrices (rank 2, batch axis first). Binary operations broadcast a vector or
scalar operand along the leading axis of a matrix operand and nothing else.
All data is contiguous row-major float64.

Tensors are immutable once forward-evaluated; graph construction and backward
are single-threaded per training run.
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
    (parameters and explicitly tracked inputs). A node's adjoint lives in its
    `_adj` slot while a `backward` runs: each call resets it on every node it
    visits (`_mark` holds the call's stamp) and clears it when it runs the
    node's rule, so repeated `backward` calls accumulate cleanly on the leaves.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_bw", "_op", "_adj", "_mark")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64, order="C")
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._bw: Callable[[np.ndarray], Sequence[np.ndarray]] | None = None
        self._op = "leaf"
        self._adj: np.ndarray | None = None
        self._mark = 0

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(op={self._op}, shape={self.data.shape})"

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data.reshape(()))

    # -- operator sugar --------------------------------------------------------

    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __radd__(self, other):
        return add(_as_tensor(other), self)

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __rsub__(self, other):
        return sub(_as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __rmul__(self, other):
        return mul(_as_tensor(other), self)

    def __truediv__(self, other):
        return div(self, _as_tensor(other))

    def __rtruediv__(self, other):
        return div(_as_tensor(other), self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def constant(data) -> Tensor:
    return Tensor(data)


def parameter(data) -> Tensor:
    return Tensor(data, requires_grad=True)


# -- graph construction ---------------------------------------------------------


def _make(data: np.ndarray, op: str, parents: tuple[Tensor, ...], bw) -> Tensor:
    if _check_ops and not np.isfinite(data).all():
        raise NumericError(f"non-finite result in op '{op}'")
    # a kernel's output is kept as it is when it is already what __init__ makes
    if type(data) is not np.ndarray or data.dtype is not _F64 or not data.flags.c_contiguous:
        data = np.asarray(data, dtype=np.float64, order="C")
    out = object.__new__(Tensor)
    out.data, out.grad, out._adj, out._mark = data, None, None, 0
    if _grad_enabled:
        for p in parents:
            if p.requires_grad:
                out.requires_grad, out._parents, out._bw, out._op = True, parents, bw, op
                return out
    out.requires_grad, out._parents, out._bw, out._op = False, (), None, "leaf"
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


def _binary(op: str, a: Tensor, b: Tensor, data, da, db) -> Tensor:
    # a parent that does not require grad (data, constants) gets no adjoint
    def bw(g: np.ndarray):
        return (
            _unbroadcast(da(g), a.data.shape) if a.requires_grad else None,
            _unbroadcast(db(g), b.data.shape) if b.requires_grad else None,
        )

    return _make(data, op, (a, b), bw)


def _above_floor(x: np.ndarray) -> bool:
    """True when no element of `x` lies below EPS_FLOOR."""
    if x.ndim == 0:
        return x >= EPS_FLOOR
    return x.size == 0 or x.min() >= EPS_FLOOR


# -- elementwise ops ------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    _broadcast_check(a, b, "add")
    return _binary("add", a, b, a.data + b.data, lambda g: g, lambda g: g)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _broadcast_check(a, b, "sub")
    return _binary("sub", a, b, a.data - b.data, lambda g: g, lambda g: -g)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _broadcast_check(a, b, "mul")
    ad, bd = a.data, b.data
    return _binary("mul", a, b, ad * bd, lambda g: g * bd, lambda g: g * ad)


def div(a: Tensor, b: Tensor) -> Tensor:
    """Division with the epsilon floor applied to the denominator magnitude."""
    _broadcast_check(a, b, "div")
    ad, bd = a.data, b.data
    if _above_floor(bd) or _above_floor(-bd):
        return _binary("div", a, b, ad / bd, lambda g: g / bd,
                       lambda g: -g * ad / (bd * bd))
    safe = np.where(np.abs(bd) < EPS_FLOOR, np.where(bd < 0, -EPS_FLOOR, EPS_FLOOR), bd)
    inside = np.abs(bd) >= EPS_FLOOR
    return _binary(
        "div",
        a,
        b,
        ad / safe,
        lambda g: g / safe,
        lambda g: np.where(inside, -g * ad / (safe * safe), 0.0),
    )


def neg(a: Tensor) -> Tensor:
    return _make(-a.data, "neg", (a,), lambda g: (-g,))


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return _make(out, "exp", (a,), lambda g: (g * out,))


def log(a: Tensor) -> Tensor:
    """Natural log with inputs floored at EPS_FLOOR (clamp, do not error)."""
    x = a.data
    if _above_floor(x):
        return _make(np.log(x), "log", (a,), lambda g: (g / x,))
    x = np.maximum(x, EPS_FLOOR)
    inside = a.data >= EPS_FLOOR
    return _make(np.log(x), "log", (a,), lambda g: (np.where(inside, g / x, 0.0),))


def sqrt(a: Tensor) -> Tensor:
    """Square root with inputs floored at EPS_FLOOR."""
    if _above_floor(a.data):
        out = np.sqrt(a.data)
        return _make(out, "sqrt", (a,), lambda g: (g / (2.0 * out),))
    x = np.maximum(a.data, EPS_FLOOR)
    inside = a.data >= EPS_FLOOR
    out = np.sqrt(x)
    return _make(out, "sqrt", (a,), lambda g: (np.where(inside, g / (2.0 * out), 0.0),))


def square(a: Tensor) -> Tensor:
    ad = a.data
    return _make(ad * ad, "square", (a,), lambda g: (2.0 * g * ad,))


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)
    return _make(out, "tanh", (a,), lambda g: (g * (1.0 - out * out),))


def relu(a: Tensor) -> Tensor:
    ad = a.data
    # np.maximum(x, 0.0) maps -0.0 to +0.0, like the mask it replaces; a float
    # mask multiplies without a cast in the loop and gives the bool mask's bits
    return _make(np.maximum(ad, 0.0), "relu", (a,),
                 lambda g: (g * (ad > 0).astype(np.float64),))


def sigmoid(a: Tensor) -> Tensor:
    out = _stable_sigmoid(a.data)
    return _make(out, "sigmoid", (a,), lambda g: (g * out * (1.0 - out),))


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
    sig = _stable_sigmoid(x)
    return _make(out, "softplus", (a,), lambda g: (g * sig,))


def absolute(a: Tensor) -> Tensor:
    sign = np.sign(a.data)
    return _make(np.abs(a.data), "abs", (a,), lambda g: (g * sign,))


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp values into [lo, hi]; gradient passes only inside the range."""
    x = a.data
    out = np.clip(x, lo, hi)
    # for lo <= hi, out == x exactly where lo <= x <= hi (never for NaN)
    return _make(out, "clip", (a,), lambda g: (g * (out == x),))


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
    ad, bd = a.data, b.data

    def bw(g: np.ndarray):
        return (g @ bd.T if a.requires_grad else None,
                ad.T @ g if b.requires_grad else None)

    return _make(ad @ bd, "matmul", (a, b), bw)


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise DimensionError(f"transpose: expected rank-2, got {a.data.shape}")
    return _make(np.ascontiguousarray(a.data.T), "transpose", (a,), lambda g: (g.T,))


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate rank-2 tensors along axis 1."""
    parts = list(parts)
    if not parts:
        raise ContractError("concat_cols: empty input")
    rows = parts[0].data.shape[0]
    for p in parts:
        if p.data.ndim != 2 or p.data.shape[0] != rows:
            raise DimensionError("concat_cols: operands must share the batch axis")
    widths = [p.data.shape[1] for p in parts]
    offsets = np.cumsum([0] + widths)

    def bw(g: np.ndarray):
        return tuple(g[:, offsets[i]:offsets[i + 1]] for i in range(len(parts)))

    return _make(np.concatenate([p.data for p in parts], axis=1), "concat", tuple(parts), bw)


def row(a: Tensor, i: int) -> Tensor:
    """Select row `i` of a rank-2 tensor as a vector."""
    if a.data.ndim != 2:
        raise DimensionError(f"row: expected rank-2, got {a.data.shape}")
    if not 0 <= i < a.data.shape[0]:
        raise DimensionError(f"row: index {i} out of range for {a.data.shape}")

    def bw(g: np.ndarray):
        full = np.zeros_like(a.data)
        full[i] = g
        return (full,)

    return _make(a.data[i].copy(), "row", (a,), bw)


def reshape_col(a: Tensor) -> Tensor:
    """View a batch vector (B,) as a single column (B, 1)."""
    if a.data.ndim != 1:
        raise DimensionError(f"reshape_col: expected rank-1, got {a.data.shape}")
    return _make(a.data.reshape(-1, 1), "reshape_col", (a,), lambda g: (g.reshape(-1),))


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
    shape = a.data.shape
    return _make(a.data.sum(axis=axis), "sum", (a,), lambda g: (_spread(g, shape, axis),))


def mean(a: Tensor, axis: int | None = None) -> Tensor:
    _check_axis(a, axis, "mean")
    shape = a.data.shape
    n = a.data.size if axis is None else shape[axis]
    # numpy's mean is this sum divided by the count
    return _make(a.data.sum(axis=axis) / n, "mean", (a,),
                 lambda g: (_spread(g / n, shape, axis),))


def logsumexp(a: Tensor, axis: int | None = None) -> Tensor:
    """Max-shifted log-sum-exp; never overflows for finite input."""
    _check_axis(a, axis, "logsumexp")
    x = a.data
    # kept dims broadcast against `x`, also when every axis is reduced
    m = x.max(axis=axis, keepdims=True)
    e = np.exp(x - m)
    s = e.sum(axis=axis, keepdims=True)
    return _make(np.squeeze(m + np.log(s), axis=axis), "logsumexp", (a,),
                 lambda g: (np.reshape(g, s.shape) * (e / s),))


# -- backward pass -----------------------------------------------------------------


_stamps = itertools.count(1)


def _toposort(root: Tensor) -> list[Tensor]:
    """The requires-grad nodes reachable from `root`, parents first (depth
    first). Each is stamped as visited by this call and its adjoint reset."""
    stamp = next(_stamps)
    order: list[Tensor] = []
    stack: list[tuple[Tensor, bool]] = [(root, False)]
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
            if parent._mark != stamp and parent.requires_grad:
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
    order = _toposort(loss)
    loss._adj = np.ones_like(loss.data)
    for node in reversed(order):
        g = node._adj
        if g is None:
            continue
        node._adj = None
        if node._bw is None:
            if node.grad is None:
                # a fresh array with the bits of zeros + g (-0.0 becomes +0.0)
                node.grad = np.add(g, 0.0, out=np.empty_like(node.data))
            else:
                node.grad += g
            continue
        for parent, pg in zip(node._parents, node._bw(g)):
            if parent.requires_grad:
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

    def bw_lam(g: np.ndarray):
        da = vec @ np.diag(g) @ vec.T
        return (0.5 * (da + da.T),)

    def bw_vec(g: np.ndarray):
        diff = lam[None, :] - lam[:, None]
        small = np.abs(diff) < 1e-12
        safe = np.where(small, 1.0, diff)
        f = np.where(small, 0.0, 1.0 / safe)
        da = vec @ (f * (vec.T @ g)) @ vec.T
        return (0.5 * (da + da.T),)

    lam_t = _make(lam, "sym_eig.values", (a,), bw_lam)
    vec_t = _make(vec, "sym_eig.vectors", (a,), bw_vec)
    return lam_t, vec_t
