"""Distribution layer: closed forms vs Monte-Carlo / quadrature oracles."""

import math

import numpy as np
import pytest
from scipy import integrate

from mvx import numcore as nc
from mvx.distributions import (
    GaussianParams,
    Likelihood,
    gaussian_log_prob,
    kl_normal,
    kl_sparse,
    rsample,
)
from mvx.errors import DimensionError, DomainError

from helpers import assert_grad_close, finite_difference_grad


def _gp(mean, log_var):
    return GaussianParams(nc.constant(np.asarray(mean, float)),
                          nc.constant(np.asarray(log_var, float)))


def test_rsample_standard_normal_passthrough():
    eps = nc.constant(np.array([[0.3, -1.2]]))
    z = rsample(_gp([[0.0, 0.0]], [[0.0, 0.0]]), eps)
    assert np.array_equal(z.data, eps.data)


def test_rsample_zero_variance_limit():
    # log_var below the clamp floor: z collapses to the mean
    z = rsample(_gp([[2.0]], [[-1e9]]), nc.constant([[5.0]]))
    assert abs(z.item() - 2.0) < 1e-3


def test_rsample_gradient_wrt_log_var():
    mean = nc.parameter(np.zeros((1, 2)))
    log_var = nc.parameter(np.array([[0.4, -0.7]]))
    eps_val = np.array([[0.9, -1.3]])

    def build():
        return nc.sum_(rsample(GaussianParams(mean, log_var), nc.constant(eps_val)))

    nc.backward(build())
    # dz/dlog_var = 0.5 * sigma * eps
    expect = 0.5 * np.exp(0.5 * log_var.data) * eps_val
    assert np.allclose(log_var.grad, expect, atol=1e-12)
    fd = finite_difference_grad(lambda: build().item(), log_var)
    assert_grad_close(log_var.grad, fd, rel=1e-6)


def test_rsample_moments_match():
    rng = np.random.default_rng(0)
    n = 100_000
    mean, log_var = 0.7, math.log(2.25)
    p = _gp(np.full((n, 1), mean), np.full((n, 1), log_var))
    z = rsample(p, nc.constant(rng.standard_normal((n, 1)))).data
    se_mean = math.sqrt(2.25 / n)
    assert abs(z.mean() - mean) < 3 * se_mean
    var = z.var()
    se_var = 2.25 * math.sqrt(2.0 / n)
    assert abs(var - 2.25) < 3 * se_var


def test_kl_normal_identity_and_analytic():
    q = _gp([[1.0]], [[0.0]])
    p = _gp([[0.0]], [[0.0]])
    assert abs(kl_normal(q, q).item()) < 1e-12
    assert abs(kl_normal(q, p).item() - 0.5) < 1e-12


def test_kl_normal_vs_monte_carlo():
    rng = np.random.default_rng(42)
    n = 100_000
    mq, lq = 0.3, math.log(0.8)
    mp, lp = -0.5, math.log(1.7)
    q = _gp([[mq]], [[lq]])
    p = _gp([[mp]], [[lp]])
    closed = kl_normal(q, p).item()
    z = mq + math.sqrt(math.exp(lq)) * rng.standard_normal(n)
    log_q = -0.5 * (np.log(2 * np.pi) + lq + (z - mq) ** 2 / math.exp(lq))
    log_p = -0.5 * (np.log(2 * np.pi) + lp + (z - mp) ** 2 / math.exp(lp))
    samples = log_q - log_p
    mc = samples.mean()
    se = samples.std(ddof=1) / math.sqrt(n)
    assert abs(closed - mc) < 3 * se


def test_kl_normal_non_negative_property():
    rng = np.random.default_rng(9)
    for _ in range(50):
        q = _gp(rng.normal(size=(4, 3)), rng.uniform(-2, 2, (4, 3)))
        p = _gp(rng.normal(size=(4, 3)), rng.uniform(-2, 2, (4, 3)))
        assert np.all(kl_normal(q, p).data >= -1e-9)
    # zero iff equal parameters
    m = rng.normal(size=(2, 3))
    lv = rng.uniform(-1, 1, (2, 3))
    assert np.all(np.abs(kl_normal(_gp(m, lv), _gp(m, lv)).data) < 1e-12)


def test_gaussian_log_prob_matches_scipy_formula():
    rng = np.random.default_rng(4)
    mean = rng.normal(size=(3, 2))
    log_var = rng.uniform(-1, 1, (3, 2))
    z = rng.normal(size=(3, 2))
    ours = gaussian_log_prob(_gp(mean, log_var), nc.constant(z)).data
    var = np.exp(log_var)
    ref = (-0.5 * (np.log(2 * np.pi * var) + (z - mean) ** 2 / var)).sum(axis=1)
    assert np.allclose(ours, ref, atol=1e-12)


# -- sparse (variational dropout) KL ---------------------------------------------


def _exact_sparse_kl(alpha: float) -> float:
    """Quadrature of the exact dropout-posterior KL, normalized to vanish as
    alpha -> inf (same convention as the approximation)."""
    euler_gamma = 0.5772156649015329
    e_log_abs_eps = -(euler_gamma + math.log(2.0)) / 2.0

    def integrand(e):
        return math.log(abs(1.0 + math.sqrt(alpha) * e)) * math.exp(-e * e / 2) / math.sqrt(2 * math.pi)

    val, _ = integrate.quad(integrand, -40, 40, points=[-1.0 / math.sqrt(alpha)], limit=400)
    return -0.5 * math.log(alpha) + val - e_log_abs_eps


def _kl_sparse_per_dim(alpha: float) -> float:
    return kl_sparse(nc.constant(np.array([alpha])), 1).item()


def test_kl_sparse_matches_quadrature_oracle():
    for alpha in (0.05, 0.1, 0.5, 1.0, 2.0, 10.0, 100.0):
        approx = _kl_sparse_per_dim(alpha)
        exact = _exact_sparse_kl(alpha)
        assert abs(approx - exact) < 0.01, (alpha, approx, exact)


def test_kl_sparse_alpha_one_near_spec_value():
    val = _kl_sparse_per_dim(1.0)
    assert abs(val - 0.45) < 0.05
    # frozen quadrature value
    assert abs(val - 0.43124) < 5e-4


def test_kl_sparse_limit_and_monotonicity():
    assert _kl_sparse_per_dim(1e8) < 1e-6
    assert _kl_sparse_per_dim(0.1) > _kl_sparse_per_dim(1.0) > _kl_sparse_per_dim(10.0)


def test_kl_sparse_rejects_non_positive_alpha():
    with pytest.raises(DomainError):
        kl_sparse(nc.constant(np.array([0.0])), 1)


def test_kl_sparse_batch_broadcast():
    out = kl_sparse(nc.constant(np.array([0.5, 1.0, 2.0])), 5)
    assert out.shape == (5,)
    assert np.allclose(out.data, out.data[0])


# -- likelihood kinds ----------------------------------------------------------------


def test_normal_log_prob_at_mode():
    params = nc.constant(np.zeros((1, 4)))
    lik = Likelihood("Normal", params, scale=1.0)
    lp = lik.log_prob(nc.constant(np.zeros((1, 4)))).item()
    assert abs(lp - 4 * (-0.5 * math.log(2 * math.pi))) < 1e-12


def test_bernoulli_uniform_log_prob():
    d = 6
    lik = Likelihood("Bernoulli", nc.constant(np.zeros((1, d))))
    x = nc.constant((np.arange(d) % 2).astype(float).reshape(1, d))
    assert abs(lik.log_prob(x).item() - d * math.log(0.5)) < 1e-12


def test_laplace_log_prob_analytic():
    lik = Likelihood("Laplace", nc.constant(np.zeros((1, 1))), scale=0.75)
    lp = lik.log_prob(nc.constant([[0.75]])).item()
    assert abs(lp - (-(1.0 + math.log(1.5)))) < 1e-12


def test_default_is_negative_sse():
    lik = Likelihood("Default", nc.constant(np.zeros((1, 3))))
    lp = lik.log_prob(nc.constant([[1.0, 2.0, 2.0]])).item()
    assert abs(lp - (-9.0)) < 1e-12


def test_bernoulli_rejects_out_of_range_targets():
    lik = Likelihood("Bernoulli", nc.constant(np.zeros((1, 2))))
    with pytest.raises(DomainError):
        lik.log_prob(nc.constant([[1.5, 0.0]]))


def test_log_prob_never_positive_for_discrete_kinds():
    rng = np.random.default_rng(2)
    logits = nc.constant(rng.normal(size=(8, 5)))
    bern = Likelihood("Bernoulli", logits)
    x = nc.constant((rng.random((8, 5)) > 0.5).astype(float))
    assert np.all(bern.log_prob(x).data <= 1e-12)
    cat = Likelihood("Categorical", logits)
    onehot = np.zeros((8, 5))
    onehot[np.arange(8), rng.integers(0, 5, 8)] = 1.0
    assert np.all(cat.log_prob(nc.constant(onehot)).data <= 1e-12)


def test_normalization_on_grid_or_support():
    # Normal and Laplace integrate to 1 on a fine grid; Bernoulli and
    # Categorical sum to 1 exactly.
    grid = np.linspace(-12, 12, 20001).reshape(-1, 1)
    dx = grid[1, 0] - grid[0, 0]
    for kind, scale in (("Normal", 1.0), ("Normal", 0.5), ("Laplace", 0.75)):
        lik = Likelihood(kind, nc.constant(np.full_like(grid, 0.3)), scale=scale)
        dens = np.exp(lik.log_prob(nc.constant(grid)).data)
        assert abs(dens.sum() * dx - 1.0) < 1e-3, kind
    bern = Likelihood("Bernoulli", nc.constant([[0.7]]))
    total = sum(
        math.exp(bern.log_prob(nc.constant([[v]])).item()) for v in (0.0, 1.0)
    )
    assert abs(total - 1.0) < 1e-12
    cat = Likelihood("Categorical", nc.constant([[0.3, -0.2, 1.4]]))
    probs = cat.mean().data
    assert abs(probs.sum() - 1.0) < 1e-6


def test_likelihood_means():
    logits = nc.constant([[0.0, 2.0]])
    assert np.allclose(Likelihood("Bernoulli", logits).mean().data,
                       [[0.5, 1 / (1 + math.exp(-2.0))]])
    params = nc.constant([[1.5, -0.5]])
    assert np.array_equal(Likelihood("Normal", params).mean().data, params.data)


def test_shape_mismatch_raises():
    with pytest.raises(DimensionError):
        rsample(_gp(np.zeros((2, 2)), np.zeros((2, 2))), nc.constant(np.zeros((2, 3))))
    lik = Likelihood("Normal", nc.constant(np.zeros((2, 2))))
    with pytest.raises(DimensionError):
        lik.log_prob(nc.constant(np.zeros((2, 3))))
