"""Tensor core: op semantics, gradient rules vs finite differences, eigensolver."""

import ast
from pathlib import Path

import numpy as np
import pytest

from mvx import numcore as nc
from mvx.errors import ContractError, DimensionError, NumericError

from helpers import assert_grad_close, assert_per_op_check_on, finite_difference_grad


def test_exp_identity():
    out = nc.exp(nc.constant([0.0, 0.0]))
    assert np.array_equal(out.data, [1.0, 1.0])


def test_mul_forward_and_grad():
    a = nc.parameter([2.0, 3.0])
    b = nc.parameter([4.0, 5.0])
    out = nc.mul(a, b)
    assert np.array_equal(out.data, [8.0, 15.0])
    nc.backward(nc.sum_(out))
    assert np.array_equal(a.grad, b.data)
    assert np.array_equal(b.grad, a.data)


def test_sigmoid_gradient_matches_finite_difference():
    x = nc.parameter([0.0])
    nc.backward(nc.sum_(nc.sigmoid(x)))
    assert abs(x.grad[0] - 0.25) < 1e-12
    fd = finite_difference_grad(lambda: nc.sigmoid(x).data.sum(), x)
    assert abs(fd[0] - x.grad[0]) < 1e-6


@pytest.mark.parametrize("op", ["add", "sub", "mul", "div"])
def test_binary_op_gradients(op):
    rng = np.random.default_rng(11)
    a = nc.parameter(rng.uniform(-2, 2, size=(3, 4)))
    b = nc.parameter(rng.uniform(0.5, 2, size=(3, 4)))

    fn = getattr(nc, op)

    def loss():
        return nc.sum_(nc.square(fn(a, b))).item()

    nc.backward(nc.sum_(nc.square(fn(a, b))))
    for p in (a, b):
        fd = finite_difference_grad(loss, p)
        assert_grad_close(p.grad, fd, rel=1e-4, label=op)
        p.grad = None


@pytest.mark.parametrize("op", ["exp", "log", "tanh", "relu", "sigmoid", "square", "sqrt"])
def test_unary_op_gradients(op):
    rng = np.random.default_rng(7)
    raw = rng.uniform(-2, 2, size=(2, 5))
    if op in ("log", "sqrt"):
        raw = np.abs(raw) + 0.1
    if op == "relu":
        raw += np.where(np.abs(raw) < 0.05, 0.2, 0.0)  # keep clear of the kink
    a = nc.parameter(raw)
    fn = getattr(nc, op)

    def loss():
        return nc.sum_(fn(a)).item()

    nc.backward(nc.sum_(fn(a)))
    fd = finite_difference_grad(loss, a)
    assert_grad_close(a.grad, fd, rel=1e-4, label=op)


def test_softplus_abs_clip_gradients():
    rng = np.random.default_rng(13)
    a = nc.parameter(rng.uniform(-2, 2, size=(6,)) + 0.3)
    for fn in (nc.softplus, nc.absolute, lambda t: nc.clip(t, -1.5, 1.5)):
        a.grad = None
        nc.backward(nc.sum_(fn(a)))
        fd = finite_difference_grad(lambda: nc.sum_(fn(a)).item(), a)
        assert_grad_close(a.grad, fd, rel=1e-4)


def test_broadcast_vector_along_batch():
    a = nc.parameter(np.ones((4, 3)))
    b = nc.parameter(np.array([1.0, 2.0, 3.0]))
    out = a + b
    assert out.shape == (4, 3)
    nc.backward(nc.sum_(out))
    assert np.array_equal(b.grad, [4.0, 4.0, 4.0])
    assert np.array_equal(a.grad, np.ones((4, 3)))


def test_broadcast_rejects_bad_shapes():
    with pytest.raises(DimensionError):
        nc.add(nc.constant(np.ones((4, 3))), nc.constant(np.ones((2, 3))))
    with pytest.raises(DimensionError):
        nc.add(nc.constant(np.ones((4, 3))), nc.constant(np.ones((4, 1))))


def test_matmul_identity_and_hand_case():
    m = np.arange(9.0).reshape(3, 3)
    out = nc.matmul(nc.constant(np.eye(3)), nc.constant(m))
    assert np.array_equal(out.data, m)
    out2 = nc.matmul(nc.constant([[1.0, 2.0], [3.0, 4.0]]), nc.constant([[1.0], [1.0]]))
    assert np.array_equal(out2.data, [[3.0], [7.0]])
    with pytest.raises(DimensionError):
        nc.matmul(nc.constant(np.ones((2, 3))), nc.constant(np.ones((2, 3))))


def test_matmul_gradients_vs_finite_differences():
    rng = np.random.default_rng(3)
    a = nc.parameter(rng.normal(size=(4, 3)))
    b = nc.parameter(rng.normal(size=(3, 2)))

    def loss():
        return nc.sum_(nc.square(nc.matmul(a, b))).item()

    nc.backward(nc.sum_(nc.square(nc.matmul(a, b))))
    for p in (a, b):
        fd = finite_difference_grad(loss, p)
        assert_grad_close(p.grad, fd, rel=1e-5, label="matmul")


def test_reduce_examples():
    assert abs(nc.logsumexp(nc.constant([0.0, 0.0])).item() - np.log(2)) < 1e-12
    assert abs(nc.logsumexp(nc.constant([1000.0, 1000.0])).item() - (1000 + np.log(2))) < 1e-9
    out = nc.mean(nc.constant([[1.0, 2.0], [3.0, 4.0]]), axis=0)
    assert np.array_equal(out.data, [2.0, 3.0])


def test_logsumexp_equals_naive_for_small_inputs():
    rng = np.random.default_rng(5)
    x = rng.uniform(-10, 10, size=(4, 6))
    ours = nc.logsumexp(nc.constant(x), axis=1).data
    naive = np.log(np.sum(np.exp(x), axis=1))
    assert np.max(np.abs(ours - naive)) < 1e-12


def test_logsumexp_gradient():
    rng = np.random.default_rng(8)
    a = nc.parameter(rng.normal(size=(3, 5)))
    nc.backward(nc.sum_(nc.logsumexp(a, axis=1)))
    fd = finite_difference_grad(lambda: nc.logsumexp(a, axis=1).data.sum(), a)
    assert_grad_close(a.grad, fd, rel=1e-4)


def test_reduce_empty_axis_errors():
    with pytest.raises(DimensionError):
        nc.sum_(nc.constant(np.ones((3, 2))), axis=2)


def test_backward_requires_scalar():
    with pytest.raises(ContractError):
        nc.backward(nc.parameter(np.ones(3)))


def test_backward_accumulates_across_calls():
    w = nc.parameter([1.0, 2.0])
    loss = nc.sum_(nc.square(w))
    nc.backward(loss)
    assert np.array_equal(w.grad, [2.0, 4.0])
    nc.backward(loss)
    assert np.array_equal(w.grad, [4.0, 8.0])


def test_backward_through_shared_subexpression():
    # d/dx of (x*x + x*x) = 4x; the shared node must not double-run its rule
    x = nc.parameter([3.0])
    sq = nc.square(x)
    nc.backward(nc.sum_(sq + sq))
    assert np.array_equal(x.grad, [12.0])


def test_forward_determinism():
    rng = np.random.default_rng(21)
    x = rng.normal(size=(8, 8))
    w = rng.normal(size=(8, 4))
    a = nc.matmul(nc.tanh(nc.constant(x)), nc.constant(w)).data
    b = nc.matmul(nc.tanh(nc.constant(x)), nc.constant(w)).data
    assert a.tobytes() == b.tobytes()


def test_non_finite_raises_numeric_error():
    with pytest.warns(RuntimeWarning), pytest.raises(NumericError):
        nc.exp(nc.constant(np.full(3, 1e4)))


def test_log_floor_clamps_instead_of_error():
    out = nc.log(nc.constant([0.0]))
    assert np.isfinite(out.data).all()
    assert abs(out.item() - np.log(nc.EPS_FLOOR)) < 1e-12


# -- check once, replay with per-op checks ----------------------------------------


def _overflowing_exp(shift=0.0) -> nc.Tensor:
    return nc.exp(nc.constant(np.full(3, 1e4) + shift))


def test_checked_once_runs_unchecked_and_passes_the_result_through():
    seen = []

    def compute():
        seen.append(_overflowing_exp().data)
        return "kept"

    # nothing checks what compute keeps, so the first run is the only one
    with pytest.warns(RuntimeWarning):
        assert nc._checked_once(compute) == "kept"
    assert len(seen) == 1 and np.isinf(seen[0]).all()
    assert_per_op_check_on()


def test_checked_once_replays_the_same_draws_and_names_the_op():
    rng = np.random.default_rng(5)
    draws = []

    def compute():
        draws.append(rng.standard_normal(3))
        return nc._finite(_overflowing_exp(np.abs(draws[-1])).data, "result")

    with (pytest.warns(RuntimeWarning),
          pytest.raises(NumericError, match="non-finite result in op 'exp'")):
        nc._checked_once(compute, rng)
    assert len(draws) == 2
    assert draws[0].tobytes() == draws[1].tobytes()
    with pytest.raises(NumericError, match="^non-finite result$"):
        nc._checked_once(lambda: nc._finite(np.array([np.nan]), "result"))


def test_checked_once_restores_the_per_op_check():
    nc._checked_once(lambda: None)
    assert_per_op_check_on()

    calls = []

    def fails_otherwise():
        calls.append(nc._check_ops)
        raise ValueError("not numeric")

    with pytest.raises(ValueError):
        nc._checked_once(fails_otherwise)
    assert calls == [False]
    assert_per_op_check_on()

    def inner():
        calls.append(nc._check_ops)
        return nc._finite(_overflowing_exp().data, "inner result")

    # the inner replay keeps the outer run's unchecked state; the outer
    # replay checks every op, so the inner replay names the op
    calls.clear()
    with pytest.warns(RuntimeWarning), pytest.raises(NumericError, match="op 'exp'"):
        nc._checked_once(lambda: nc._checked_once(inner))
    assert calls == [False, False, False, True]
    assert_per_op_check_on()


def test_only_checked_once_turns_the_per_op_check_off():
    src = Path(nc.__file__).parent
    for path in sorted(src.glob("*.py")):
        if path.name == "numcore.py":
            continue
        named = {getattr(node, "id", getattr(node, "attr", getattr(node, "value", None)))
                 for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, (ast.Name, ast.Attribute, ast.Constant))}
        assert "_check_ops" not in named, path.name
    # a function rebinds the module's flag only through a `global` statement
    tree = ast.parse((src / "numcore.py").read_text(encoding="utf-8"))
    writers = {stmt.name for stmt in tree.body for node in ast.walk(stmt)
               if isinstance(node, ast.Global) and "_check_ops" in node.names}
    assert writers == {"_checked_once"}
    inits = [stmt for stmt in tree.body if isinstance(stmt, ast.Assign)
             and any(getattr(t, "id", None) == "_check_ops" for t in stmt.targets)]
    assert len(inits) == 1


# -- fast paths against the floored kernels ----------------------------------------

EPS = nc.EPS_FLOOR


def _floored_div(a, b, g):
    safe = np.where(np.abs(b) < EPS, np.where(b < 0, -EPS, EPS), b)
    inside = np.abs(b) >= EPS
    return a / safe, g / safe, np.where(inside, -g * a / (safe * safe), 0.0)


def _floored_log(x, g):
    floored = np.maximum(x, EPS)
    return np.log(floored), np.where(x >= EPS, g / floored, 0.0)


def _floored_sqrt(x, g):
    out = np.sqrt(np.maximum(x, EPS))
    return out, np.where(x >= EPS, g / (2.0 * out), 0.0)


def _masked_relu(x, g):
    mask = x > 0
    return np.where(mask, x, 0.0), g * mask


def _value_and_grads(op, *inputs, g):
    params = [nc.parameter(x) for x in inputs]
    out = op(*params)
    nc.backward(nc.sum_(out * nc.constant(g)))
    return out.data, [p.grad for p in params]


def _assert_bitwise(ours, reference, label):
    assert ours.shape == reference.shape, label
    assert ours.tobytes() == reference.tobytes(), f"{label}: {ours} vs {reference}"


@pytest.mark.parametrize("denominator", [
    [EPS, 2 * EPS, 0.5, 3.0],
    [-EPS, -2 * EPS, -0.5, -3.0],
    [-2 * EPS, -EPS, -0.5 * EPS, -0.0],
    [0.0, 0.5 * EPS, EPS, 2 * EPS],
    [-3.0, -EPS, EPS, 0.5],
], ids=["positive", "negative", "below-negative", "below-positive", "mixed-signs"])
def test_div_matches_the_floored_kernel_bitwise(denominator):
    b = np.array(denominator)
    a = np.array([1.5, -2.0, 0.25, 4.0])
    g = np.array([0.5, -1.25, 2.0, -0.0])
    out, (da, db) = _value_and_grads(nc.div, a, b, g=g)
    ref_out, ref_da, ref_db = _floored_div(a, b, g)
    _assert_bitwise(out, ref_out, "div value")
    # leaf gradients accumulate onto zeros
    _assert_bitwise(da, 0.0 + ref_da, "div grad a")
    _assert_bitwise(db, 0.0 + ref_db, "div grad b")


def test_div_broadcast_denominator_matches_the_floored_kernel():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(3, 4))
    g = rng.normal(size=(3, 4))
    for b in (rng.uniform(0.5, 2.0, size=4), np.array([EPS, 0.0, -EPS, 1.0])):
        out, (da, db) = _value_and_grads(nc.div, a, b, g=g)
        ref_out, ref_da, ref_db = _floored_div(a, b, g)
        _assert_bitwise(out, ref_out, "div value")
        _assert_bitwise(da, 0.0 + ref_da, "div grad a")
        _assert_bitwise(db, 0.0 + ref_db.sum(axis=0), "div grad b")


@pytest.mark.parametrize("op, floored", [(nc.log, _floored_log), (nc.sqrt, _floored_sqrt)],
                         ids=["log", "sqrt"])
@pytest.mark.parametrize("x", [
    [EPS, 2 * EPS, 1.0, 7.5],
    [0.0, EPS, 2 * EPS, 1.0],
    [-1.0, -0.0, EPS, 2 * EPS],
], ids=["above-floor", "at-zero", "negative"])
def test_log_and_sqrt_match_the_floored_kernel_bitwise(op, floored, x):
    x = np.array(x)
    g = np.array([0.5, -1.25, 2.0, 3.0])
    out, (dx,) = _value_and_grads(op, x, g=g)
    ref_out, ref_dx = floored(x, g)
    _assert_bitwise(out, ref_out, "value")
    _assert_bitwise(dx, 0.0 + ref_dx, "grad")


def test_relu_matches_the_masked_kernel_bitwise():
    x = np.array([-1.0, -0.0, 0.0, 5e-324, 2.0])
    g = np.array([0.5, -1.25, 2.0, 3.0, -0.75])
    out, (dx,) = _value_and_grads(nc.relu, x, g=g)
    ref_out, ref_dx = _masked_relu(x, g)
    _assert_bitwise(out, ref_out, "relu value")
    _assert_bitwise(dx, 0.0 + ref_dx, "relu grad")


@pytest.mark.parametrize("denominator", [3.0, EPS, 0.5 * EPS, 0.0, -0.0, -EPS, -2.0])
def test_a_scalar_denominator_matches_the_floored_kernel_bitwise(denominator):
    a = np.array([1.5, -2.0, 0.25, 4.0])
    g = np.array([0.5, -1.25, 2.0, -0.0])
    out, (da, db) = _value_and_grads(nc.div, a, np.array(denominator), g=g)
    ref_out, ref_da, ref_db = _floored_div(a, np.array(denominator), g)
    _assert_bitwise(out, ref_out, "div value")
    _assert_bitwise(da, 0.0 + ref_da, "div grad a")
    _assert_bitwise(db, 0.0 + np.asarray(ref_db.sum()), "div grad b")


# -- each rule against the formula it replaced, applied to the node itself ---------

_SIGNED_ZEROS = np.array([[-0.0, 0.0, -1.5, 2.0], [0.0, -0.0, 3.25, -0.5], [1.0, -2.0, -0.0, 0.0]])


def _rule(node: nc.Tensor, g: np.ndarray) -> np.ndarray:
    (adjoint,) = node._bw(g)
    return adjoint


def _old_spread(g, shape, axis):
    return np.broadcast_to(g if axis is None else np.expand_dims(g, axis), shape).copy()


def test_relu_and_clip_rules_match_the_old_masks_bitwise(monkeypatch):
    monkeypatch.setattr(nc, "_check_ops", False)  # lets a NaN through clip
    x = np.concatenate([_SIGNED_ZEROS, [[-1.0, 1.0, 0.5, np.nan]]])
    g = _SIGNED_ZEROS[[1, 2, 0, 1]] * np.array([1.0, -1.0, 1.0, -1.0])
    relu = nc.relu(nc.parameter(x))
    _assert_bitwise(_rule(relu, g), g * (x > 0), "relu rule")
    for lo, hi in [(-1.0, 1.0), (0.0, 2.0), (-0.0, 0.5), (-1.5, np.inf)]:
        clip = nc.clip(nc.parameter(x), lo, hi)
        _assert_bitwise(clip.data, np.clip(x, lo, hi), f"clip value [{lo}, {hi}]")
        _assert_bitwise(_rule(clip, g), g * ((x >= lo) & (x <= hi)), f"clip rule [{lo}, {hi}]")


@pytest.mark.parametrize("axis", [None, 0, 1])
def test_reduction_rules_match_the_old_formulas_bitwise(axis):
    x = _SIGNED_ZEROS * 1.7
    shape = x.shape
    g = np.asarray(-0.0 if axis is None else -_SIGNED_ZEROS.sum(axis=axis))
    n = x.size if axis is None else shape[axis]
    total, mean = nc.sum_(nc.parameter(x), axis), nc.mean(nc.parameter(x), axis)
    _assert_bitwise(total.data, np.asarray(x.sum(axis=axis)), "sum value")
    _assert_bitwise(mean.data, np.asarray(x.mean(axis=axis)), "mean value")
    _assert_bitwise(_rule(total, g), _old_spread(g, shape, axis), "sum rule")
    old_mean = np.broadcast_to(g / n if axis is None else np.expand_dims(g, axis) / n, shape)
    _assert_bitwise(_rule(mean, g), old_mean.copy(), "mean rule")

    lse = nc.logsumexp(nc.parameter(x), axis)
    m = x.max(axis=axis, keepdims=axis is not None)
    e = np.exp(x - m)
    s = e.sum(axis=axis, keepdims=axis is not None)
    _assert_bitwise(lse.data, np.asarray(np.squeeze(m + np.log(s), axis=axis)), "logsumexp value")
    soft = e / s
    old = g * soft if axis is None else np.expand_dims(g, axis) * soft
    _assert_bitwise(_rule(lse, g), old, "logsumexp rule")


@pytest.mark.parametrize("axis", [None, 0, 1])
def test_sum_and_mean_return_fresh_writable_adjoints(axis):
    x = nc.parameter(_SIGNED_ZEROS)
    g = np.asarray(2.0 if axis is None else np.ones(x.shape[1 - axis]))
    for node in (nc.sum_(x, axis), nc.mean(x, axis)):
        first, second = _rule(node, g), _rule(node, g)
        for adjoint in (first, second):
            assert adjoint.shape == x.shape and adjoint.flags.c_contiguous
            assert adjoint.flags.writeable and adjoint.flags.owndata
            assert not np.shares_memory(adjoint, g) and not np.shares_memory(adjoint, x.data)
        assert not np.shares_memory(first, second)


def _failing(a: nc.Tensor) -> nc.Tensor:
    """`a` passed through a node whose rule raises."""
    def bw(g):
        raise RuntimeError("rule failed")

    return nc._make(a.data.copy(), "failing", (a,), bw)


def test_a_backward_that_raised_leaves_no_stale_adjoint():
    rng = np.random.default_rng(11)
    values, c = rng.normal(size=(3, 4)), nc.constant(rng.normal(size=(3, 4)))

    def loss(w, fail=False):
        # the square's rule runs, and adds into w's adjoint, before the failing one
        t = nc.tanh(w * c)
        return nc.sum_(nc.square(w) + (_failing(t) if fail else t))

    w = nc.parameter(values)
    with pytest.raises(RuntimeError, match="rule failed"):
        nc.backward(loss(w, fail=True))
    assert w.grad is None
    nc.backward(loss(w))
    clean = nc.parameter(values)
    nc.backward(loss(clean))
    _assert_bitwise(w.grad, clean.grad, "grad after a failed backward")


def test_losses_over_a_shared_subgraph_accumulate_the_exact_sum():
    rng = np.random.default_rng(12)
    values, v = rng.normal(size=(4, 3)), nc.constant(rng.normal(size=(3, 2)))

    def losses(x):
        shared = nc.tanh(nc.matmul(x, v))
        return nc.sum_(nc.square(shared)), nc.mean(nc.exp(shared) * shared)

    x = nc.parameter(values)
    first, second = losses(x)
    nc.backward(first)
    nc.backward(second)
    alone = []
    for i in range(2):
        y = nc.parameter(values)
        nc.backward(losses(y)[i])
        alone.append(y.grad)
    _assert_bitwise(x.grad, alone[0] + alone[1], "accumulated grad")


def test_constant_operands_get_no_gradient():
    rng = np.random.default_rng(3)
    x = nc.constant(rng.normal(size=(4, 2)))
    w = nc.parameter(rng.normal(size=(2, 3)))
    half, var = nc.constant(-0.5), nc.constant(2.0)
    nc.backward(nc.sum_(half * nc.matmul(x, w) / var))
    assert x.grad is None and half.grad is None and var.grad is None
    assert np.allclose(w.grad, x.data.T @ np.full((4, 3), -0.25))


def test_no_grad_suppresses_graph():
    w = nc.parameter([1.0])
    with nc.no_grad():
        out = nc.square(w)
    assert not out.requires_grad


def test_concat_and_row_ops():
    a = nc.parameter(np.ones((2, 2)))
    b = nc.parameter(np.full((2, 1), 2.0))
    cat = nc.concat_cols([a, b])
    assert cat.shape == (2, 3)
    nc.backward(nc.sum_(cat * nc.constant(np.array([[1.0, 2, 3], [4, 5, 6]]))))
    assert np.array_equal(a.grad, [[1, 2], [4, 5]])
    assert np.array_equal(b.grad, [[3], [6]])
    m = nc.parameter(np.arange(6.0).reshape(3, 2))
    r = nc.row(m, 1)
    assert np.array_equal(r.data, [2.0, 3.0])
    nc.backward(nc.sum_(r))
    expect = np.zeros((3, 2))
    expect[1] = 1.0
    assert np.array_equal(m.grad, expect)


# -- symmetric eigendecomposition --------------------------------------------------


def test_sym_eig_diagonal():
    lam, vec = nc.sym_eig(nc.constant(np.diag([3.0, 1.0])))
    assert np.allclose(lam.data, [3.0, 1.0])
    assert np.allclose(np.abs(vec.data), np.eye(2))


def test_sym_eig_analytic_2x2():
    lam, _ = nc.sym_eig(nc.constant([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(lam.data, [3.0, 1.0], atol=1e-12)


def test_sym_eig_reconstruction_oracle():
    rng = np.random.default_rng(17)
    m = rng.normal(size=(8, 8))
    m = 0.5 * (m + m.T)
    lam, vec = nc.sym_eig(nc.constant(m))
    recon = vec.data @ np.diag(lam.data) @ vec.data.T
    assert np.abs(recon - m).max() < 1e-8
    # A.V = V.diag within 1e-8
    assert np.abs(m @ vec.data - vec.data @ np.diag(lam.data)).max() < 1e-8
    # independent oracle: numpy's eigensolver
    ref = np.linalg.eigvalsh(m)[::-1]
    assert np.abs(ref - lam.data).max() < 1e-10


def test_sym_eig_eigenvalue_sum_equals_trace():
    rng = np.random.default_rng(23)
    for d in (2, 5, 12):
        m = rng.normal(size=(d, d))
        m = 0.5 * (m + m.T)
        lam, _ = nc.sym_eig(nc.constant(m))
        assert abs(lam.data.sum() - np.trace(m)) < 1e-9


def test_sym_eig_rejects_asymmetric():
    with pytest.raises(ContractError):
        nc.sym_eig(nc.constant([[1.0, 2.0], [0.0, 1.0]]))


def test_sym_eig_eigenvalue_gradients():
    rng = np.random.default_rng(29)
    m = rng.normal(size=(4, 4))
    m = 0.5 * (m + m.T)
    a = nc.parameter(m)

    def loss():
        sym = nc.constant(0.5) * (a + nc.transpose(a))
        lam, _ = nc.sym_eig(sym)
        return nc.sum_(nc.square(lam)).item()

    sym = nc.constant(0.5) * (a + nc.transpose(a))
    lam, _ = nc.sym_eig(sym)
    nc.backward(nc.sum_(nc.square(lam)))
    fd = finite_difference_grad(loss, a)
    assert_grad_close(a.grad, fd, rel=1e-4, label="sym_eig.values")


def test_sym_eig_eigenvector_gradients():
    rng = np.random.default_rng(31)
    m = rng.normal(size=(3, 3))
    m = 0.5 * (m + m.T) + np.diag([3.0, 1.0, 0.2])  # well-separated spectrum
    a = nc.parameter(m)
    mix = nc.constant(rng.normal(size=(3, 3)))

    def build():
        sym = nc.constant(0.5) * (a + nc.transpose(a))
        _, vec = nc.sym_eig(sym)
        return nc.sum_(nc.square(nc.matmul(vec, mix)))

    nc.backward(build())
    fd = finite_difference_grad(lambda: build().item(), a)
    assert_grad_close(a.grad, fd, rel=1e-3, label="sym_eig.vectors")


def test_gradient_property_random_ops_in_range():
    # composite expression over the documented op set, inputs in [-2, 2]
    rng = np.random.default_rng(37)
    for trial in range(5):
        x = nc.parameter(rng.uniform(-2, 2, size=(3, 3)))
        y = nc.parameter(rng.uniform(0.5, 2, size=(3, 3)))

        def build():
            t = nc.tanh(x) * y + nc.sigmoid(x / y)
            t = nc.exp(nc.constant(0.3) * t) + nc.square(x)
            return nc.mean(nc.log(t + nc.constant(1.0)))

        nc.backward(build())
        for p in (x, y):
            fd = finite_difference_grad(lambda: build().item(), p)
            assert_grad_close(p.grad, fd, rel=1e-4, label=f"composite[{trial}]")
            p.grad = None
