"""Joint-posterior pooling: product/mixture style combination of per-modality experts."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import numcore as nc
from .distributions import GaussianParams, gaussian_log_prob, standard_normal
from .errors import CapacityError, ContractError, DimensionError, DomainError
from .numcore import Tensor

MAX_SUBSET_MODALITIES = 10


@dataclass
class ExpertSet:
    """Per-modality Gaussian posteriors plus optional gPoE weights.

    `weights` is an (M, d) tensor of per-modality, per-dimension exponents;
    `include_prior_expert` appends a standard-normal expert to product pooling.
    """

    experts: list[GaussianParams]
    weights: Tensor | None = None
    include_prior_expert: bool = False

    def __post_init__(self):
        if not self.experts:
            raise ContractError("ExpertSet: at least one expert required")
        shape = self.experts[0].shape
        for e in self.experts:
            if e.shape != shape:
                raise DimensionError("ExpertSet: experts must share shape")
        if self.weights is not None:
            m, d = self.weights.shape
            if m != len(self.experts) or d != shape[1]:
                raise DimensionError(
                    f"ExpertSet: weights {self.weights.shape} vs "
                    f"{len(self.experts)} experts of dim {shape[1]}"
                )

    @property
    def n_experts(self) -> int:
        return len(self.experts)


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


def poe(e: ExpertSet) -> GaussianParams:
    """Inverse-variance-weighted product of experts; optional prior expert."""
    experts = list(e.experts)
    if e.include_prior_expert:
        experts.append(standard_normal(experts[0].shape))
    return _product_pool(experts, [1.0] * len(experts))


def gpoe(e: ExpertSet) -> GaussianParams:
    """Generalised PoE: each expert's precision scaled by its weight row.

    A prior expert, when included, enters with unit weight.
    """
    if e.weights is None:
        raise ContractError("gpoe: ExpertSet.weights required")
    if np.any(e.weights.data <= 0.0):
        raise DomainError("gpoe: weights must be strictly positive")
    experts = list(e.experts)
    alphas: list[Tensor | float] = [nc.row(e.weights, m) for m in range(len(experts))]
    if e.include_prior_expert:
        experts.append(standard_normal(experts[0].shape))
        alphas.append(1.0)
    return _product_pool(experts, alphas)


def geometric_poe(components: list[GaussianParams], pi) -> GaussianParams:
    """Exponent-weighted normalized product: precision = sum(pi_v * prec_v).

    With weights summing to 1 this is the geometric mean of the components,
    so identical components are a fixed point (unlike the plain product,
    whose precisions add).
    """
    pi = np.asarray(pi, dtype=np.float64)
    if len(pi) != len(components):
        raise ContractError(
            f"geometric_poe: {len(pi)} weights for {len(components)} components"
        )
    if np.any(pi <= 0.0):
        raise DomainError("geometric_poe: weights must be strictly positive")
    return _product_pool(components, [float(w) for w in pi])


def moe_log_prob(e: ExpertSet, z: Tensor) -> Tensor:
    """Log-density of the uniform mixture at z -> [batch], via logsumexp."""
    cols = [nc.reshape_col(gaussian_log_prob(comp, z)) for comp in e.experts]
    stacked = nc.concat_cols(cols)
    return nc.logsumexp(stacked, axis=1) - nc.constant(np.log(e.n_experts))


def mean_pool(e: ExpertSet) -> GaussianParams:
    """Arithmetic mean of expert means and of expert variances."""
    m = float(e.n_experts)
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
