"""Joint-posterior pooling: product/mixture style combination of per-modality experts."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import numcore as nc
from .distributions import GaussianParams, gaussian_log_prob
from .errors import CapacityError, ContractError, DimensionError, DomainError
from .numcore import Tensor

MAX_SUBSET_MODALITIES = 10


def _check_experts(experts: list[GaussianParams], who: str) -> None:
    if not experts:
        raise ContractError(f"{who}: at least one expert required")
    shape = experts[0].shape
    for e in experts:
        if e.shape != shape:
            raise DimensionError(f"{who}: experts must share shape")


@dataclass
class ExpertSet:
    """A uniform mixture of per-modality Gaussian experts of one shape."""

    experts: list[GaussianParams]

    def __post_init__(self):
        _check_experts(self.experts, "ExpertSet")


def _product_pool(experts: list[GaussianParams], alphas: list[Tensor | float]) -> GaussianParams:
    """Precision-weighted fusion: precision_m scaled by alpha_m."""
    precision_sum: Tensor | None = None
    weighted_mean_sum: Tensor | None = None
    for e, a in zip(experts, alphas):
        prec = nc.exp(nc.neg(e.log_var))
        if not isinstance(a, (int, float)) or a != 1.0:
            a_t = a if isinstance(a, Tensor) else nc.constant(a)
            prec = prec * a_t
        term_mean = e.mean * prec
        precision_sum = prec if precision_sum is None else precision_sum + prec
        weighted_mean_sum = (
            term_mean if weighted_mean_sum is None else weighted_mean_sum + term_mean
        )
    mean = weighted_mean_sum / precision_sum
    log_var = nc.neg(nc.log(precision_sum))
    return GaussianParams(mean, log_var)


def poe(experts: list[GaussianParams]) -> GaussianParams:
    """Inverse-variance-weighted product of experts."""
    _check_experts(experts, "poe")
    return _product_pool(experts, [1.0] * len(experts))


def gpoe(experts: list[GaussianParams], weights: list[Tensor | float]) -> GaussianParams:
    """Generalised PoE: each expert's precision scaled by its weight, a (d,)
    row of per-dimension exponents or one number for every dimension.

    Weights that sum to 1 make it a normalized product: identical experts are
    then a fixed point, unlike the plain product, whose precisions add.
    """
    _check_experts(experts, "gpoe")
    if len(weights) != len(experts):
        raise ContractError(f"gpoe: {len(weights)} weights for {len(experts)} experts")
    dim = experts[0].shape[1:]
    for w in weights:
        if isinstance(w, Tensor) and w.shape != dim:
            raise DimensionError(f"gpoe: weight {w.shape} vs experts of dim {dim}")
        if np.any((w.data if isinstance(w, Tensor) else w) <= 0.0):
            raise DomainError("gpoe: weights must be strictly positive")
    return _product_pool(experts, weights)


def moe_log_prob(e: ExpertSet, z: Tensor) -> Tensor:
    """Log-density of the uniform mixture at z -> [batch], via logsumexp."""
    cols = [nc.reshape_col(gaussian_log_prob(comp, z)) for comp in e.experts]
    stacked = nc.concat_cols(cols)
    return nc.logsumexp(stacked, axis=1) - nc.constant(np.log(len(e.experts)))


def mean_pool(e: ExpertSet) -> GaussianParams:
    """Arithmetic mean of expert means and of expert variances."""
    m = float(len(e.experts))
    mean_sum: Tensor | None = None
    var_sum: Tensor | None = None
    for comp in e.experts:
        mean_sum = comp.mean if mean_sum is None else mean_sum + comp.mean
        v = comp.variance()
        var_sum = v if var_sum is None else var_sum + v
    return GaussianParams(mean_sum / nc.constant(m), nc.log(var_sum / nc.constant(m)))


def enumerate_subsets(n_modalities: int) -> list[tuple[int, ...]]:
    """All non-empty subsets of range(M), ordered by size then lexicographically."""
    if n_modalities < 1:
        raise ContractError("enumerate_subsets: M must be >= 1")
    if n_modalities > MAX_SUBSET_MODALITIES:
        raise CapacityError(
            f"enumerate_subsets: M={n_modalities} exceeds the powerset guard "
            f"of {MAX_SUBSET_MODALITIES}"
        )
    return [combo for size in range(1, n_modalities + 1)
            for combo in combinations(range(n_modalities), size)]
