"""Probability distributions: reparameterized sampling, log-likelihoods, KL terms.

Gaussian posteriors are carried as (mean, log_var) pairs; likelihood heads are
thin wrappers over decoder outputs. Everything is differentiable through the
numcore graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .errors import DimensionError, DomainError
from .numcore import Tensor

LOG_VAR_MIN = -20.0
LOG_VAR_MAX = 20.0

LOG_2PI = math.log(2.0 * math.pi)
CATEGORICAL_ROW_TOL = 1e-6


@dataclass
class GaussianParams:
    """Diagonal-Gaussian moments; log-variance is clamped on construction."""

    mean: Tensor
    log_var: Tensor

    def __post_init__(self):
        if self.mean.shape != self.log_var.shape:
            raise DimensionError(
                f"GaussianParams: mean {self.mean.shape} vs log_var {self.log_var.shape}"
            )
        self.log_var = nc.clip(self.log_var, LOG_VAR_MIN, LOG_VAR_MAX)

    @property
    def shape(self):
        return self.mean.shape

    def variance(self) -> Tensor:
        return nc.exp(self.log_var)


def standard_normal(shape) -> GaussianParams:
    return GaussianParams(nc.constant(np.zeros(shape)), nc.constant(np.zeros(shape)))


def rsample(p: GaussianParams, eps: Tensor) -> Tensor:
    """z = mean + exp(0.5 * log_var) * eps, differentiable in both moments."""
    if eps.shape != p.mean.shape:
        raise DimensionError(f"rsample: eps {eps.shape} vs mean {p.mean.shape}")
    std = nc.exp(nc.mul(nc.constant(0.5), p.log_var))
    return p.mean + std * eps


def gaussian_log_prob(p: GaussianParams, z: Tensor) -> Tensor:
    """log N(z; mean, exp(log_var)) summed over the feature axis -> [batch]."""
    if z.shape != p.mean.shape:
        raise DimensionError(f"gaussian_log_prob: z {z.shape} vs mean {p.mean.shape}")
    diff = z - p.mean
    term = nc.square(diff) / p.variance() + p.log_var + nc.constant(LOG_2PI)
    return nc.sum_(nc.constant(-0.5) * term, axis=1)


def kl_normal(q: GaussianParams, p: GaussianParams) -> Tensor:
    """Closed-form KL(q || p) for diagonal Gaussians, summed over dims -> [batch]."""
    if q.mean.shape != p.mean.shape:
        raise DimensionError(f"kl_normal: q {q.mean.shape} vs p {p.mean.shape}")
    lq, lp = q.log_var, p.log_var
    per_dim = (
        nc.exp(lq - lp)
        + nc.square(q.mean - p.mean) / nc.exp(lp)
        - nc.constant(1.0)
        + lp
        - lq
    )
    return nc.sum_(nc.constant(0.5) * per_dim, axis=1)


def kl_to_standard(q: GaussianParams) -> Tensor:
    return kl_normal(q, standard_normal(q.shape))


_SPARSE_K1 = 0.63576
_SPARSE_K2 = 1.87320
_SPARSE_K3 = 1.48695


def kl_sparse(alpha: Tensor, batch: int) -> Tensor:
    """KL of the dropout posterior N(mu, alpha*mu^2) from the log-uniform prior,
    for each of `batch` rows.

    Uses the sigmoid-polynomial fit
        -KL(a) ~= k1*sigmoid(k2 + k3*ln a) - 0.5*ln(1 + 1/a) - k1
    summed over the per-dimension rates `alpha`, which every row shares, so
    each row gets the same total. Monotone decreasing in alpha; tends to 0
    as alpha -> inf.
    """
    if np.any(alpha.data <= 0.0):
        raise DomainError("kl_sparse: alpha must be strictly positive")
    log_alpha = nc.log(alpha)
    neg_kl = (
        nc.constant(_SPARSE_K1) * nc.sigmoid(nc.constant(_SPARSE_K2) + nc.constant(_SPARSE_K3) * log_alpha)
        - nc.constant(0.5) * nc.softplus(nc.neg(log_alpha))
        - nc.constant(_SPARSE_K1)
    )
    total = nc.sum_(nc.neg(neg_kl))
    ones = nc.constant(np.ones((batch, 1)))
    return nc.sum_(ones * total, axis=1)


def dropout_rate(alpha: np.ndarray) -> np.ndarray:
    """Dropout probability p = alpha / (1 + alpha) for a raw alpha array."""
    return alpha / (1.0 + alpha)


class Likelihood:
    """Decoder output distribution over one modality's feature space.

    `params` are raw network outputs: means for Normal/Laplace/Default,
    logits for Bernoulli/Categorical. `log_prob` sums over features and
    trusts its targets: `SUPPORT` gives each kind an entrywise test of the
    targets it accepts and the rule it states, checked by `check_targets`.
    """

    SUPPORT = {
        "Normal": (np.isfinite, "finite"),
        "Bernoulli": (lambda x: (x >= 0.0) & (x <= 1.0), "in [0, 1]"),
        "Laplace": (np.isfinite, "finite"),
        "Categorical": (
            lambda x: (x >= 0.0) & (np.abs(x.sum(axis=1, keepdims=True) - 1.0)
                                    <= CATEGORICAL_ROW_TOL),
            f"non-negative, in rows that sum to 1 within {CATEGORICAL_ROW_TOL}"),
        "Default": (np.isfinite, "finite"),
    }
    KINDS = tuple(SUPPORT)
    SCALED = ("Normal", "Laplace")

    def __init__(self, kind: str, params: Tensor, scale: float = 1.0):
        if kind not in self.KINDS:
            raise DomainError(f"Likelihood: unknown kind '{kind}'")
        if kind in self.SCALED and scale <= 0:
            raise DomainError(f"Likelihood: scale must be positive, got {scale}")
        self.kind = kind
        self.params = params
        self.scale = float(scale)

    def log_prob(self, x: Tensor) -> Tensor:
        if x.shape != self.params.shape:
            raise DimensionError(
                f"log_prob: data {x.shape} vs params {self.params.shape}"
            )
        if self.kind == "Normal":
            var = self.scale * self.scale
            per = nc.square(x - self.params) / nc.constant(var) + nc.constant(
                LOG_2PI + 2.0 * math.log(self.scale)
            )
            return nc.sum_(nc.constant(-0.5) * per, axis=1)
        if self.kind == "Laplace":
            per = nc.absolute(x - self.params) / nc.constant(self.scale) + nc.constant(
                math.log(2.0 * self.scale)
            )
            return nc.sum_(nc.neg(per), axis=1)
        if self.kind == "Bernoulli":
            logits = self.params
            per = x * nc.softplus(nc.neg(logits)) + (nc.constant(1.0) - x) * nc.softplus(logits)
            return nc.sum_(nc.neg(per), axis=1)
        if self.kind == "Categorical":
            return nc.sum_(x * self._log_softmax(), axis=1)
        # Default: negative sum of squared errors (factor 1)
        return nc.neg(nc.sum_(nc.square(x - self.params), axis=1))

    def mean(self) -> Tensor:
        """Deterministic reconstruction (distribution mean)."""
        if self.kind in ("Normal", "Laplace", "Default"):
            return self.params
        if self.kind == "Bernoulli":
            return nc.sigmoid(self.params)
        # Categorical: softmax rows
        return nc.exp(self._log_softmax())

    def _log_softmax(self) -> Tensor:
        """The Categorical logits normalized per row. The per-row normalizer is
        expanded back to (B, D) via an outer product, since (B,1)-against-(B,D)
        broadcasting is outside the numcore contract."""
        log_norm = nc.logsumexp(self.params, axis=1)
        ones = nc.constant(np.ones((1, self.params.shape[1])))
        return self.params - nc.matmul(nc.reshape_col(log_norm), ones)


def check_targets(kind: str, x: np.ndarray, view: int) -> None:
    """Raise a DomainError naming `view`, the row and the value when an entry
    of the (n, d) targets `x` is outside the support of likelihood `kind`."""
    ok, rule = Likelihood.SUPPORT[kind]
    if ok(x).all():
        return
    row, col = np.argwhere(~ok(x))[0]
    if kind == "Categorical":
        col = np.argmin(x[row] >= 0.0)  # the row's first negative entry, if any
    value = f"value {float(x[row, col])}"
    if kind == "Categorical" and x[row, col] >= 0.0:
        value = f"row sum {float(x[row].sum())}"
    raise DomainError(f"view {view} row {row}: {kind} targets must be {rule}, got {value}")
