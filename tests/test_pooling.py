"""Expert pooling: grid-density oracles, reductions, subset enumeration."""

import math

import numpy as np
import pytest

from mvx import numcore as nc
from mvx.distributions import GaussianParams, standard_normal
from mvx.errors import CapacityError, ContractError, DomainError
from mvx.pooling import (
    ExpertSet,
    enumerate_subsets,
    gpoe,
    mean_pool,
    moe_log_prob,
    poe,
)


def _gp(mean, var):
    mean = np.asarray(mean, float)
    var = np.asarray(var, float)
    return GaussianParams(nc.constant(mean), nc.constant(np.log(var)))


def _normal_pdf(x, mean, var):
    return np.exp(-((x - mean) ** 2) / (2 * var)) / np.sqrt(2 * np.pi * var)


def test_poe_symmetric_case():
    pooled = poe([_gp([[1.0]], [[1.0]]), _gp([[3.0]], [[1.0]])])
    assert abs(pooled.mean.item() - 2.0) < 1e-12
    assert abs(math.exp(pooled.log_var.item()) - 0.5) < 1e-12


def test_poe_single_expert_with_prior():
    mu, var = 1.8, 0.25
    pooled = poe([_gp([[mu]], [[var]]), standard_normal((1, 1))])
    prec = 1.0 / var + 1.0
    assert abs(pooled.mean.item() - (mu / var) / prec) < 1e-12
    assert abs(math.exp(pooled.log_var.item()) - 1.0 / prec) < 1e-12


def test_poe_matches_grid_product_density():
    # normalized pointwise product of expert densities on a 1-d grid
    experts = [([[0.5]], [[0.6]]), ([[-1.0]], [[2.0]]), ([[0.2]], [[0.9]])]
    pooled = poe([_gp(m, v) for m, v in experts])
    grid = np.linspace(-8, 8, 160001)
    dx = grid[1] - grid[0]
    prod = np.ones_like(grid)
    for m, v in experts:
        prod *= _normal_pdf(grid, m[0][0], v[0][0])
    prod /= prod.sum() * dx
    ours = _normal_pdf(grid, pooled.mean.item(), math.exp(pooled.log_var.item()))
    assert np.abs(prod - ours).max() < 1e-6


def test_gpoe_alpha_one_equals_poe_bitwise():
    rng = np.random.default_rng(3)
    experts = [_gp(rng.normal(size=(4, 3)), rng.uniform(0.3, 2, (4, 3))) for _ in range(3)]
    p = poe(list(experts))
    g = gpoe(list(experts), [nc.constant(np.ones(3)) for _ in range(3)])
    assert p.mean.data.tobytes() == g.mean.data.tobytes()
    assert p.log_var.data.tobytes() == g.log_var.data.tobytes()


def test_gpoe_uniform_weights_scale_variance():
    rng = np.random.default_rng(5)
    m_total = 4
    experts = [_gp(rng.normal(size=(2, 2)), rng.uniform(0.5, 1.5, (2, 2)))
               for _ in range(m_total)]
    p = poe(list(experts))
    g = gpoe(list(experts), [nc.constant(np.full(2, 1.0 / m_total)) for _ in range(m_total)])
    assert np.allclose(np.exp(g.log_var.data), m_total * np.exp(p.log_var.data))


def test_gpoe_identical_experts_fixed_point():
    e = _gp([[0.7, -0.2]], [[1.3, 0.5]])
    g = gpoe([e, e], [nc.constant(np.full(2, 0.5)), nc.constant(np.full(2, 0.5))])
    assert np.allclose(g.mean.data, e.mean.data)
    assert np.allclose(np.exp(g.log_var.data), np.exp(e.log_var.data))


def test_gpoe_vanishing_weight_limit():
    a = _gp([[0.0]], [[1.0]])
    b = _gp([[5.0]], [[0.01]])
    g = gpoe([a, b], [nc.constant(np.array([1.0])), nc.constant(np.array([1e-9]))])
    assert abs(g.mean.item()) < 1e-6
    assert abs(math.exp(g.log_var.item()) - 1.0) < 1e-6


def test_gpoe_rejects_non_positive_weights():
    e = _gp([[0.0]], [[1.0]])
    with pytest.raises(DomainError):
        gpoe([e], [nc.constant(np.array([0.0]))])
    with pytest.raises(ContractError):
        gpoe([e], [])


def test_poe_precision_dominates_components():
    rng = np.random.default_rng(11)
    experts = [_gp(rng.normal(size=(3, 2)), rng.uniform(0.2, 3, (3, 2))) for _ in range(3)]
    pooled = poe(list(experts))
    pooled_prec = np.exp(-pooled.log_var.data)
    for e in experts:
        assert np.all(pooled_prec >= np.exp(-e.log_var.data) - 1e-12)


def test_pooling_permutation_invariance():
    rng = np.random.default_rng(13)
    experts = [_gp(rng.normal(size=(2, 3)), rng.uniform(0.4, 2, (2, 3))) for _ in range(3)]
    w = rng.uniform(0.2, 1.0, (3, 3))
    perm = [2, 0, 1]
    for pool in (poe, lambda e: mean_pool(ExpertSet(e))):
        a = pool(list(experts))
        b = pool([experts[i] for i in perm])
        assert np.allclose(a.mean.data, b.mean.data, atol=1e-12)
        assert np.allclose(a.log_var.data, b.log_var.data, atol=1e-12)
    ga = gpoe(list(experts), [nc.constant(row) for row in w])
    gb = gpoe([experts[i] for i in perm], [nc.constant(w[i]) for i in perm])
    assert np.allclose(ga.mean.data, gb.mean.data, atol=1e-12)


def test_moe_mixture_density_integrates_to_one():
    grid = np.linspace(-10, 10, 40001).reshape(-1, 1)
    dx = grid[1, 0] - grid[0, 0]
    n = grid.shape[0]
    experts = [
        _gp(np.full((n, 1), -1.5), np.full((n, 1), 0.7)),
        _gp(np.full((n, 1), 2.0), np.full((n, 1), 1.8)),
    ]
    log_density = moe_log_prob(ExpertSet(experts), nc.constant(grid)).data
    assert abs(np.exp(log_density).sum() * dx - 1.0) < 1e-3


def test_mean_pool_examples():
    e0 = _gp([[0.0]], [[1.0]])
    e1 = _gp([[2.0]], [[3.0]])
    pooled = mean_pool(ExpertSet([e0, e1]))
    assert abs(pooled.mean.item() - 1.0) < 1e-12
    assert abs(math.exp(pooled.log_var.item()) - 2.0) < 1e-12
    same = mean_pool(ExpertSet([e0, e0]))
    assert np.allclose(same.mean.data, e0.mean.data)
    assert np.allclose(same.log_var.data, e0.log_var.data, atol=1e-12)


def test_enumerate_subsets_counts_and_order():
    assert enumerate_subsets(1) == [(0,)]
    assert enumerate_subsets(2) == [(0,), (1,), (0, 1)]
    assert len(enumerate_subsets(5)) == 31
    for m in range(1, 9):
        subs = enumerate_subsets(m)
        assert len(subs) == 2 ** m - 1
        assert len(set(subs)) == len(subs)
    with pytest.raises(CapacityError):
        enumerate_subsets(11)
    with pytest.raises(ContractError):
        enumerate_subsets(0)
