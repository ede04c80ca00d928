"""One loss function per model. Every objective is a minimization target
(negated bound where the model defines one) returned as a LossBreakdown whose
terms sum exactly to the total.

Reparameterization draws come from an EpsStream in a documented order (see
each function's docstring), so a recorded stream can be replayed by
independent recomputations.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import numcore as nc
from .distributions import (
    GaussianParams,
    gaussian_log_prob,
    kl_normal,
    kl_sparse,
    kl_to_standard,
    rsample,
    standard_normal,
)
from .errors import ContractError, DimensionError, NumericError
from .networks import Decoder, Discriminator, Encoder, VariationalEncoder
from .numcore import Tensor
from .pooling import (
    ExpertSet,
    enumerate_subsets,
    geometric_poe,
    gpoe,
    mean_pool,
    moe_log_prob,
    poe,
    subset_experts,
)

DCCAE_RIDGE = 1e-3
MVTCAE_ALPHA_RANGE = (0.0, 1.0)


class EpsStream:
    """Seeded source of standard-normal draws (and subset picks) for objectives."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng

    def normal(self, shape) -> Tensor:
        return nc.constant(self.rng.standard_normal(shape))

    def integers(self, n: int, high: int) -> np.ndarray:
        return self.rng.integers(0, high, size=n)


@dataclass
class LossBreakdown:
    """Total plus its named, signed components; total == sum(terms) exactly."""

    total: Tensor
    terms: dict[str, Tensor]

    @classmethod
    def from_terms(cls, terms: dict[str, Tensor]) -> "LossBreakdown":
        total: Tensor | None = None
        for t in terms.values():
            total = t if total is None else total + t
        if total is None:
            raise ContractError("LossBreakdown: no terms")
        if not np.isfinite(total.data):
            bad = [k for k, v in terms.items() if not np.all(np.isfinite(v.data))]
            raise NumericError(f"loss is non-finite; offending terms: {bad}")
        return cls(total=total, terms=terms)

    def scalars(self) -> dict[str, float]:
        out = {k: v.item() for k, v in self.terms.items()}
        out["total"] = self.total.item()
        return out


@dataclass
class AdversarialLosses:
    """Phase-separated losses for alternating optimization, plus the audit total."""

    reconstruction: LossBreakdown
    discriminator: Tensor
    generator: Tensor
    total: Tensor

    def scalars(self) -> dict[str, float]:
        out = self.reconstruction.scalars()
        out["discriminator"] = self.discriminator.item()
        out["generator"] = self.generator.item()
        out["total"] = self.total.item()
        return out


@dataclass
class ModelState:
    """Everything a loss function needs: networks, trainable extras, hyperparameters."""

    name: str
    n_views: int
    z_dim: int
    s_dim: int = 0
    encoders: list = field(default_factory=list)
    decoders: list[Decoder] = field(default_factory=list)
    joint_encoder: VariationalEncoder | None = None
    private_encoders: list[VariationalEncoder] | None = None
    log_alphas: list[Tensor] | None = None
    alpha_logits: Tensor | None = None
    aux_log_scales: list[Tensor] | None = None
    discriminator: Discriminator | None = None
    beta: float = 1.0
    alpha: float = 1.0
    K: int = 1
    lam: list[float] | None = None
    pi: list[float] | None = None
    sparse: bool = False
    private: bool = False
    non_saturating: bool = False
    stochastic_subsets: bool = False
    threshold: float = 0.0
    join_type: str = "PoE"

    def parameters(self) -> list[tuple[str, Tensor]]:
        """All trainable tensors in fixed declaration order."""
        out: list[tuple[str, Tensor]] = []
        for enc in self.encoders:
            out.extend(enc.parameters())
        if self.joint_encoder is not None:
            out.extend(self.joint_encoder.parameters())
        if self.private_encoders is not None:
            for enc in self.private_encoders:
                out.extend(enc.parameters())
        if self.log_alphas is not None:
            for m, t in enumerate(self.log_alphas):
                out.append((f"log_alpha{m}", t))
        if self.alpha_logits is not None:
            out.append(("gpoe_alpha_logits", self.alpha_logits))
        if self.aux_log_scales is not None:
            for m, t in enumerate(self.aux_log_scales):
                out.append((f"aux_log_scale{m}", t))
        for dec in self.decoders:
            out.extend(dec.parameters())
        if self.discriminator is not None:
            out.extend(self.discriminator.parameters())
        return out

    def autoencoder_parameters(self) -> list[tuple[str, Tensor]]:
        return [p for p in self.parameters() if not p[0].startswith("disc")]

    def discriminator_parameters(self) -> list[tuple[str, Tensor]]:
        if self.discriminator is None:
            return []
        return self.discriminator.parameters()


def _check_views(state: ModelState, views: list[Tensor]) -> None:
    if len(views) != state.n_views:
        raise DimensionError(
            f"{state.name}: got {len(views)} views, model has {state.n_views}"
        )
    batch = views[0].shape[0]
    for v in views:
        if v.data.ndim != 2 or v.shape[0] != batch:
            raise DimensionError(f"{state.name}: views must be (batch, dim) with a shared batch")


def _encode_variational(state: ModelState, views: list[Tensor]) -> list[GaussianParams]:
    return [enc.forward(x) for enc, x in zip(state.encoders, views)]


def _neg_mean(t: Tensor) -> Tensor:
    return nc.neg(nc.mean(t))


def _scaled(w: float, t: Tensor) -> Tensor:
    return nc.constant(w) * t


# ---------------------------------------------------------------------------
# plain autoencoder
# ---------------------------------------------------------------------------


def ae_loss(state: ModelState, views: list[Tensor], eps: EpsStream) -> LossBreakdown:
    """Same- and cross-modality squared reconstruction error, weight 1/M^2.

    Draws: none.
    """
    _check_views(state, views)
    m_total = state.n_views
    latents = [enc.forward(x) for enc, x in zip(state.encoders, views)]
    w = 1.0 / (m_total * m_total)
    terms: dict[str, Tensor] = {}
    for m in range(m_total):
        for n in range(m_total):
            lp = state.decoders[m].decode(latents[n]).log_prob(views[m])
            terms[f"recon[{m}<-{n}]"] = _scaled(w, _neg_mean(lp))
    return LossBreakdown.from_terms(terms)


# ---------------------------------------------------------------------------
# JMVAE / JMVAE-kl
# ---------------------------------------------------------------------------


def jmvae_kl_loss(state: ModelState, views: list[Tensor], eps: EpsStream) -> LossBreakdown:
    """Joint-encoder ELBO plus alpha-weighted KL calibration to the uni-modal
    encoders; alpha == 0 recovers plain JMVAE (calibration terms omitted).

    Draws: one (B, z) normal for the joint posterior sample.
    """
    _check_views(state, views)
    if state.n_views != 2:
        raise ContractError("jmvae_kl_loss: exactly 2 views required")
    q_joint = state.joint_encoder.forward(nc.concat_cols(views))
    z = rsample(q_joint, eps.normal(q_joint.shape))
    terms: dict[str, Tensor] = {}
    for m in range(2):
        lp = state.decoders[m].decode(z).log_prob(views[m])
        terms[f"recon[{m}<-joint]"] = _neg_mean(lp)
    terms["kl[joint]"] = _scaled(state.beta, nc.mean(kl_to_standard(q_joint)))
    if state.alpha != 0.0:
        for m in range(2):
            q_m = state.encoders[m].forward(views[m])
            terms[f"kl[joint||uni{m}]"] = _scaled(
                state.alpha, nc.mean(kl_normal(q_joint, q_m))
            )
    return LossBreakdown.from_terms(terms)


# ---------------------------------------------------------------------------
# DCCAE
# ---------------------------------------------------------------------------


def _center(h: Tensor) -> Tensor:
    return h - nc.mean(h, axis=0)


def _inv_sqrt_psd(s: Tensor) -> Tensor:
    lam, vec = nc.sym_eig(s)
    w = nc.constant(1.0) / nc.sqrt(nc.clip(lam, nc.EPS_FLOOR, math.inf))
    return nc.matmul(vec * w, nc.transpose(vec))


def canonical_correlation_sum(h1: Tensor, h2: Tensor, ridge: float = DCCAE_RIDGE) -> Tensor:
    """Sum of canonical correlations between two projected batches.

    Covariance blocks get `ridge` added to their diagonals before whitening;
    the correlations are the singular values of the whitened cross-covariance.
    """
    n = h1.shape[0]
    if n < 2:
        raise ContractError("canonical correlation needs at least 2 samples")
    c1, c2 = _center(h1), _center(h2)
    denom = nc.constant(1.0 / (n - 1))
    eye1 = nc.constant(ridge * np.eye(h1.shape[1]))
    eye2 = nc.constant(ridge * np.eye(h2.shape[1]))
    s11 = nc.matmul(nc.transpose(c1), c1) * denom + eye1
    s22 = nc.matmul(nc.transpose(c2), c2) * denom + eye2
    s12 = nc.matmul(nc.transpose(c1), c2) * denom
    t = nc.matmul(nc.matmul(_inv_sqrt_psd(s11), s12), _inv_sqrt_psd(s22))
    mu, _ = nc.sym_eig(nc.matmul(nc.transpose(t), t))
    return nc.sum_(nc.sqrt(nc.clip(mu, nc.EPS_FLOOR, math.inf)))


def dccae_loss(state: ModelState, views: list[Tensor], eps: EpsStream) -> LossBreakdown:
    """Negative total correlation plus lambda-weighted autoencoder error.

    Full-batch only (the trainer enforces it). Draws: none.
    """
    _check_views(state, views)
    if state.n_views != 2:
        raise ContractError("dccae_loss: exactly 2 views required")
    lam_weight = state.lam[0] if state.lam else 1.0
    h = [enc.forward(x) for enc, x in zip(state.encoders, views)]
    terms: dict[str, Tensor] = {
        "corr": nc.neg(canonical_correlation_sum(h[0], h[1]))
    }
    for m in range(2):
        lp = state.decoders[m].decode(h[m]).log_prob(views[m])
        terms[f"recon[{m}<-{m}]"] = _scaled(lam_weight, _neg_mean(lp))
    return LossBreakdown.from_terms(terms)


# ---------------------------------------------------------------------------
# DVCCA / VCCA-private
# ---------------------------------------------------------------------------


def dvcca_loss(state: ModelState, views: list[Tensor], eps: EpsStream) -> LossBreakdown:
    """Single-reference-encoder ELBO over both views; the private variant adds
    per-view private encoders and their KL terms.

    Draws: z from q(z|x1); with private=True additionally h_m for m = 0, 1.
    """
    _check_views(state, views)
    if state.n_views != 2:
        raise ContractError("dvcca_loss: exactly 2 views required")
    q_z = state.encoders[0].forward(views[0])
    z = rsample(q_z, eps.normal(q_z.shape))
    terms: dict[str, Tensor] = {}
    if not state.private:
        for m in range(2):
            lp = state.decoders[m].decode(z).log_prob(views[m])
            terms[f"recon[{m}<-joint]"] = _neg_mean(lp)
        terms["kl[z]"] = _scaled(state.beta, nc.mean(kl_to_standard(q_z)))
        return LossBreakdown.from_terms(terms)
    q_h = [enc.forward(x) for enc, x in zip(state.private_encoders, views)]
    hs = [rsample(q, eps.normal(q.shape)) for q in q_h]
    for m in range(2):
        lp = state.decoders[m].decode(nc.concat_cols([z, hs[m]])).log_prob(views[m])
        terms[f"recon[{m}<-joint]"] = _neg_mean(lp)
    terms["kl[z]"] = _scaled(state.beta, nc.mean(kl_to_standard(q_z)))
    for m in range(2):
        terms[f"kl[h{m}]"] = _scaled(state.beta, nc.mean(kl_to_standard(q_h[m])))
    return LossBreakdown.from_terms(terms)


# ---------------------------------------------------------------------------
# mcVAE / sparse mcVAE
# ---------------------------------------------------------------------------


def _sparse_posterior(state: ModelState, m: int, x: Tensor) -> tuple[Tensor, Tensor]:
    """Dropout posterior for modality m: mean network + per-dimension alpha."""
    mu = state.encoders[m].forward(x)
    alpha = nc.exp(state.log_alphas[m])
    return mu, alpha


def mcvae_loss(state: ModelState, views: list[Tensor], eps: EpsStream) -> LossBreakdown:
    """Per-modality ELBOs with same- and cross-modality reconstruction.

    Draws: one (B, z) normal per modality, in modality order. The sparse
    variant samples z = mu * (1 + sqrt(alpha) * eps) and swaps the Gaussian
    KL for the log-uniform-prior approximation.
    """
    _check_views(state, views)
    m_total = state.n_views
    terms: dict[str, Tensor] = {}
    for m in range(m_total):
        if state.sparse:
            mu, alpha = _sparse_posterior(state, m, views[m])
            e = eps.normal(mu.shape)
            z_m = mu + mu * (nc.sqrt(alpha) * e)
            q_for_kl = GaussianParams(mu, nc.constant(np.zeros(mu.shape)))
            kl_m = nc.mean(kl_sparse(q_for_kl, alpha))
        else:
            q_m = state.encoders[m].forward(views[m])
            z_m = rsample(q_m, eps.normal(q_m.shape))
            kl_m = nc.mean(kl_to_standard(q_m))
        for n in range(m_total):
            lp = state.decoders[n].decode(z_m).log_prob(views[n])
            terms[f"recon[{n}<-{m}]"] = _neg_mean(lp)
        terms[f"kl[{m}]"] = _scaled(state.beta, kl_m)
    return LossBreakdown.from_terms(terms)


# ---------------------------------------------------------------------------
# MVAE / me_mVAE
# ---------------------------------------------------------------------------


def _poe_joint(state: ModelState, experts: list[GaussianParams], include_prior: bool) -> GaussianParams:
    return poe(ExpertSet(experts, include_prior_expert=include_prior))


def mvae_loss(state: ModelState, views: list[Tensor], eps: EpsStream) -> LossBreakdown:
    """Single ELBO under the PoE joint posterior (prior expert included).

    Draws: one (B, z) normal for the joint sample.
    """
    _check_views(state, views)
    experts = _encode_variational(state, views)
    q = _poe_joint(state, experts, include_prior=True)
    z = rsample(q, eps.normal(q.shape))
    terms: dict[str, Tensor] = {}
    for m in range(state.n_views):
        lp = state.decoders[m].decode(z).log_prob(views[m])
        terms[f"recon[{m}<-joint]"] = _neg_mean(lp)
    terms["kl[joint]"] = _scaled(state.beta, nc.mean(kl_to_standard(q)))
    return LossBreakdown.from_terms(terms)


def me_mvae_loss(state: ModelState, views: list[Tensor], eps: EpsStream) -> LossBreakdown:
    """Full-set ELBO plus the M uni-modal ELBOs (no random subsets).

    Every posterior is a PoE that includes the prior expert. Draws: joint
    sample first, then one per uni-modal ELBO in modality order.
    """
    _check_views(state, views)
    experts = _encode_variational(state, views)
    q_joint = _poe_joint(state, experts, include_prior=True)
    z = rsample(q_joint, eps.normal(q_joint.shape))
    terms: dict[str, Tensor] = {}
    for m in range(state.n_views):
        lp = state.decoders[m].decode(z).log_prob(views[m])
        terms[f"recon[{m}<-joint]"] = _neg_mean(lp)
    terms["kl[joint]"] = _scaled(state.beta, nc.mean(kl_to_standard(q_joint)))
    for m in range(state.n_views):
        q_m = _poe_joint(state, [experts[m]], include_prior=True)
        z_m = rsample(q_m, eps.normal(q_m.shape))
        lp = state.decoders[m].decode(z_m).log_prob(views[m])
        terms[f"recon[{m}<-uni{m}]"] = _neg_mean(lp)
        terms[f"kl[uni{m}]"] = _scaled(state.beta, nc.mean(kl_to_standard(q_m)))
    return LossBreakdown.from_terms(terms)


# ---------------------------------------------------------------------------
# mmVAE (IWAE bound over the mixture of experts)
# ---------------------------------------------------------------------------


def mmvae_iwae_loss(state: ModelState, views: list[Tensor], eps: EpsStream) -> LossBreakdown:
    """K-sample IWAE bound, stratified over mixture components.

    Draws: for each modality m (outer), K normals (B, z) in k order.
    """
    _check_views(state, views)
    experts = _encode_variational(state, views)
    moe = ExpertSet(experts)
    k_samples = max(1, state.K)
    log_k = math.log(k_samples)
    terms: dict[str, Tensor] = {}
    for m in range(state.n_views):
        cols = []
        for _ in range(k_samples):
            z = rsample(experts[m], eps.normal(experts[m].shape))
            lw = gaussian_log_prob(standard_normal(z.shape), z)
            for n in range(state.n_views):
                lw = lw + state.decoders[n].decode(z).log_prob(views[n])
            lw = lw - moe_log_prob(moe, z)
            cols.append(nc.reshape_col(lw))
        iw = nc.logsumexp(nc.concat_cols(cols), axis=1) - nc.constant(log_k)
        terms[f"iwae[{m}]"] = _scaled(1.0 / state.n_views, _neg_mean(iw))
    return LossBreakdown.from_terms(terms)


# ---------------------------------------------------------------------------
# MVTCAE
# ---------------------------------------------------------------------------


def mvtcae_loss(state: ModelState, views: list[Tensor], eps: EpsStream) -> LossBreakdown:
    """Total-correlation lower bound: joint PoE (no prior expert), weighted
    reconstruction, prior KL and per-modality CVIB KL terms.

    Draws: one (B, z) normal for the joint sample.
    """
    _check_views(state, views)
    lo, hi = MVTCAE_ALPHA_RANGE
    if not lo <= state.alpha <= hi:
        raise ContractError(f"mvtcae_loss: alpha must lie in [{lo:g}, {hi:g}]")
    if state.beta <= 0.0:
        raise ContractError("mvtcae_loss: beta must be positive")
    m_total = state.n_views
    experts = _encode_variational(state, views)
    q = _poe_joint(state, experts, include_prior=False)
    z = rsample(q, eps.normal(q.shape))
    rec_coef = (m_total - state.alpha) / m_total
    terms: dict[str, Tensor] = {}
    for m in range(m_total):
        lp = state.decoders[m].decode(z).log_prob(views[m])
        terms[f"recon[{m}<-joint]"] = _scaled(rec_coef, _neg_mean(lp))
    if state.alpha < 1.0:
        terms["kl[prior]"] = _scaled(
            state.beta * (1.0 - state.alpha), nc.mean(kl_to_standard(q))
        )
    if state.alpha > 0.0:
        for m in range(m_total):
            terms[f"kl[cvib{m}]"] = _scaled(
                state.beta * state.alpha / m_total, nc.mean(kl_normal(q, experts[m]))
            )
    return LossBreakdown.from_terms(terms)


# ---------------------------------------------------------------------------
# MoPoE
# ---------------------------------------------------------------------------


def mopoe_loss(state: ModelState, views: list[Tensor], eps: EpsStream) -> LossBreakdown:
    """Mixture over all non-empty subset PoE posteriors.

    Deterministic mode (default) averages the per-subset ELBO contributions
    with weight 1/N and uses the convex upper bound on the mixture KL;
    stochastic mode assigns each batch row a uniformly drawn subset.

    Draws: stochastic mode first takes one uniform subset index per row, then
    both modes take one (B, z) normal per subset in enumeration order.
    """
    _check_views(state, views)
    subsets = enumerate_subsets(state.n_views)
    n_subsets = len(subsets)
    experts = _encode_variational(state, views)
    base = ExpertSet(experts, include_prior_expert=False)
    selection = None
    batch = views[0].shape[0]
    if state.stochastic_subsets:
        selection = eps.integers(batch, n_subsets)
    terms: dict[str, Tensor] = {}
    for k, subset in enumerate(subsets):
        q_k = poe(subset_experts(base, subset))
        z_k = rsample(q_k, eps.normal(q_k.shape))
        label = "+".join(str(i) for i in subset.members)
        if selection is None:
            weight = 1.0 / n_subsets
            kl_mask = None
        else:
            weight = 1.0
            kl_mask = nc.constant((selection == k).astype(np.float64))
        for m in range(state.n_views):
            lp = state.decoders[m].decode(z_k).log_prob(views[m])
            if kl_mask is not None:
                lp = lp * kl_mask
            terms[f"recon[{m}<-{{{label}}}]"] = _scaled(weight, _neg_mean(lp))
        kl_k = kl_to_standard(q_k)
        if kl_mask is not None:
            kl_k = kl_k * kl_mask
        terms[f"kl[{{{label}}}]"] = _scaled(state.beta * weight, nc.mean(kl_k))
    return LossBreakdown.from_terms(terms)


# ---------------------------------------------------------------------------
# weighted mVAE (gPoE)
# ---------------------------------------------------------------------------


def gpoe_weights(state: ModelState) -> Tensor:
    """Softmax of the trainable logits across modalities, per latent dimension."""
    logits = nc.clip(state.alpha_logits, -30.0, 30.0)
    norm = nc.logsumexp(logits, axis=0)
    return nc.exp(logits - norm)


def weighted_mvae_loss(state: ModelState, views: list[Tensor], eps: EpsStream) -> LossBreakdown:
    """MVAE objective with generalised-PoE fusion; the per-modality,
    per-dimension weights are trainable (softmax over modalities) and the
    prior expert enters with unit weight.

    Draws: one (B, z) normal for the joint sample.
    """
    _check_views(state, views)
    experts = _encode_variational(state, views)
    weights = gpoe_weights(state)
    q = gpoe(ExpertSet(experts, weights=weights, include_prior_expert=True))
    z = rsample(q, eps.normal(q.shape))
    terms: dict[str, Tensor] = {}
    for m in range(state.n_views):
        lp = state.decoders[m].decode(z).log_prob(views[m])
        terms[f"recon[{m}<-joint]"] = _neg_mean(lp)
    terms["kl[joint]"] = _scaled(state.beta, nc.mean(kl_to_standard(q)))
    return LossBreakdown.from_terms(terms)


# ---------------------------------------------------------------------------
# mmJSD
# ---------------------------------------------------------------------------


def mmjsd_loss(state: ModelState, views: list[Tensor], eps: EpsStream) -> LossBreakdown:
    """Reconstruction from stratified mixture samples plus the pi-weighted
    JS terms against the PoE dynamic prior.

    The dynamic prior is the pi-exponent normalized product of the uni-modal
    posteriors and the prior, so identical components leave it fixed and the
    JS term vanishes iff all posteriors equal the prior.

    Draws: one (B, z) normal per modality, in modality order.
    """
    _check_views(state, views)
    m_total = state.n_views
    pi = state.pi if state.pi else [1.0 / (m_total + 1)] * (m_total + 1)
    if len(pi) != m_total + 1:
        raise ContractError(f"mmjsd_loss: need {m_total + 1} weights, got {len(pi)}")
    experts = _encode_variational(state, views)
    dynamic_prior = geometric_poe(
        experts + [standard_normal(experts[0].shape)], pi
    )
    terms: dict[str, Tensor] = {}
    for m in range(m_total):
        z_m = rsample(experts[m], eps.normal(experts[m].shape))
        for n in range(m_total):
            lp = state.decoders[n].decode(z_m).log_prob(views[n])
            terms[f"recon[{n}<-{m}]"] = _scaled(1.0 / m_total, _neg_mean(lp))
    for m in range(m_total):
        terms[f"kl[js{m}]"] = _scaled(
            state.beta * pi[m], nc.mean(kl_normal(experts[m], dynamic_prior))
        )
    prior = standard_normal(experts[0].shape)
    terms["kl[js_prior]"] = _scaled(
        state.beta * pi[m_total], nc.mean(kl_normal(prior, dynamic_prior))
    )
    return LossBreakdown.from_terms(terms)


# ---------------------------------------------------------------------------
# MMVAE+
# ---------------------------------------------------------------------------


def mmvaeplus_loss(state: ModelState, views: list[Tensor], eps: EpsStream) -> LossBreakdown:
    """Mixture-of-experts bound with shared and private latents; cross
    reconstructions draw the private code from the learnable-scale auxiliary
    prior of the target modality.

    Draws, for each modality m (outer) and each k (inner): z from the shared
    posterior, h_m from the private posterior, then one auxiliary draw per
    n != m in ascending n.
    """
    _check_views(state, views)
    m_total = state.n_views
    shared = _encode_variational(state, views)
    privates = [enc.forward(x) for enc, x in zip(state.private_encoders, views)]
    moe_shared = ExpertSet(shared)
    k_samples = max(1, state.K)
    log_k = math.log(k_samples)
    terms: dict[str, Tensor] = {}
    for m in range(m_total):
        cols = []
        for _ in range(k_samples):
            z = rsample(shared[m], eps.normal(shared[m].shape))
            h_m = rsample(privates[m], eps.normal(privates[m].shape))
            lw = state.decoders[m].decode(nc.concat_cols([z, h_m])).log_prob(views[m])
            lw = lw + gaussian_log_prob(standard_normal(z.shape), z)
            lw = lw + gaussian_log_prob(standard_normal(h_m.shape), h_m)
            lw = lw - moe_log_prob(moe_shared, z)
            lw = lw - gaussian_log_prob(privates[m], h_m)
            for n in range(m_total):
                if n == m:
                    continue
                scale_n = nc.exp(state.aux_log_scales[n])
                h_tilde = scale_n * eps.normal(privates[n].shape)
                lw = lw + state.decoders[n].decode(
                    nc.concat_cols([z, h_tilde])
                ).log_prob(views[n])
            cols.append(nc.reshape_col(lw))
        iw = nc.logsumexp(nc.concat_cols(cols), axis=1) - nc.constant(log_k)
        terms[f"iwae[{m}]"] = _scaled(1.0 / m_total, _neg_mean(iw))
    return LossBreakdown.from_terms(terms)


# ---------------------------------------------------------------------------
# DMVAE
# ---------------------------------------------------------------------------


def dmvae_loss(state: ModelState, views: list[Tensor], eps: EpsStream) -> LossBreakdown:
    """Shared/private objective with a PoE joint (prior expert included):
    joint-path reconstruction per modality plus all (m, n) pairwise paths,
    each with its literal KL terms.

    Draws: joint z, then h_m per modality, then uni-modal z_n per modality.
    """
    _check_views(state, views)
    m_total = state.n_views
    lam = state.lam if state.lam else [1.0] * m_total
    if len(lam) == 1 and m_total > 1:
        lam = lam * m_total
    if len(lam) != m_total:
        raise ContractError(f"dmvae_loss: need {m_total} lambda weights, got {len(lam)}")
    shared = _encode_variational(state, views)
    privates = [enc.forward(x) for enc, x in zip(state.private_encoders, views)]
    q_joint = _poe_joint(state, shared, include_prior=True)
    z_joint = rsample(q_joint, eps.normal(q_joint.shape))
    hs = [rsample(q, eps.normal(q.shape)) for q in privates]
    z_uni = [rsample(q, eps.normal(q.shape)) for q in shared]
    kl_joint = nc.mean(kl_to_standard(q_joint))
    kl_priv = [nc.mean(kl_to_standard(q)) for q in privates]
    kl_shared = [nc.mean(kl_to_standard(q)) for q in shared]
    terms: dict[str, Tensor] = {}
    for m in range(m_total):
        lp = state.decoders[m].decode(nc.concat_cols([z_joint, hs[m]])).log_prob(views[m])
        terms[f"recon[{m}<-joint]"] = _scaled(lam[m], _neg_mean(lp))
        terms[f"kl[h{m}@joint]"] = _scaled(state.beta, kl_priv[m])
        terms[f"kl[joint@{m}]"] = _scaled(state.beta, kl_joint)
        for n in range(m_total):
            lp = state.decoders[m].decode(
                nc.concat_cols([z_uni[n], hs[m]])
            ).log_prob(views[m])
            terms[f"recon[{m}<-{n}]"] = _scaled(lam[m], _neg_mean(lp))
            terms[f"kl[h{m}@{m},{n}]"] = _scaled(state.beta, kl_priv[m])
            terms[f"kl[z{n}@{m},{n}]"] = _scaled(state.beta, kl_shared[n])
    return LossBreakdown.from_terms(terms)


# ---------------------------------------------------------------------------
# adversarial models
# ---------------------------------------------------------------------------


def _ae_reconstruction(state: ModelState, views: list[Tensor], latents: list[Tensor]) -> LossBreakdown:
    m_total = state.n_views
    w = 1.0 / (m_total * m_total)
    terms: dict[str, Tensor] = {}
    for m in range(m_total):
        for n in range(m_total):
            lp = state.decoders[m].decode(latents[n]).log_prob(views[m])
            terms[f"recon[{m}<-{n}]"] = _scaled(w, _neg_mean(lp))
    return LossBreakdown.from_terms(terms)


def maae_losses(state: ModelState, views: list[Tensor], eps: EpsStream) -> AdversarialLosses:
    """Adversarial autoencoder: squared-error reconstruction, a discriminator
    loss over prior-vs-encoding samples, and the generator loss (literal
    log(1 - D(G(x))) by default; non-saturating variant behind the flag).

    Draws: one (B, z) prior sample per modality, in modality order.
    """
    _check_views(state, views)
    m_total = state.n_views
    latents = [enc.forward(x) for enc, x in zip(state.encoders, views)]
    recon = _ae_reconstruction(state, views, latents)
    disc_total: Tensor | None = None
    gen_total: Tensor | None = None
    gan_value: Tensor | None = None
    for m in range(m_total):
        z_prior = eps.normal(latents[m].shape)
        d_prior = state.discriminator.score(z_prior)
        d_enc = state.discriminator.score(latents[m])
        log_d_prior = nc.mean(nc.log(d_prior))
        log_one_minus = nc.mean(nc.log(nc.constant(1.0) - d_enc))
        pair = log_d_prior + log_one_minus
        disc_total = pair if disc_total is None else disc_total + pair
        gan_value = pair if gan_value is None else gan_value + pair
        if state.non_saturating:
            g = nc.neg(nc.mean(nc.log(d_enc)))
        else:
            g = nc.mean(nc.log(nc.constant(1.0) - d_enc))
        gen_total = g if gen_total is None else gen_total + g
    inv_m = nc.constant(1.0 / m_total)
    disc_loss = nc.neg(disc_total) * inv_m
    gen_loss = gen_total * inv_m
    audit_total = recon.total + gan_value * inv_m
    return AdversarialLosses(
        reconstruction=recon,
        discriminator=disc_loss,
        generator=gen_loss,
        total=audit_total,
    )


def mwae_losses(state: ModelState, views: list[Tensor], eps: EpsStream) -> AdversarialLosses:
    """Wasserstein variant: an unbounded critic scores prior vs encoded
    samples; the trainer clips critic weights after each critic step.

    Draws: one (B, z) prior sample per modality, in modality order.
    """
    _check_views(state, views)
    m_total = state.n_views
    latents = [enc.forward(x) for enc, x in zip(state.encoders, views)]
    recon = _ae_reconstruction(state, views, latents)
    critic_obj: Tensor | None = None
    gen_obj: Tensor | None = None
    for m in range(m_total):
        z_prior = eps.normal(latents[m].shape)
        c_prior = nc.mean(state.discriminator.score(z_prior))
        c_enc = nc.mean(state.discriminator.score(latents[m]))
        pair = c_prior - c_enc
        critic_obj = pair if critic_obj is None else critic_obj + pair
        gen_obj = c_enc if gen_obj is None else gen_obj + c_enc
    inv_m = nc.constant(1.0 / m_total)
    critic_loss = nc.neg(critic_obj) * inv_m
    gen_loss = nc.neg(gen_obj) * inv_m
    audit_total = recon.total - (critic_obj * inv_m + gen_obj * inv_m)
    return AdversarialLosses(
        reconstruction=recon,
        discriminator=critic_loss,
        generator=gen_loss,
        total=audit_total,
    )


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

VARIATIONAL_OBJECTIVES = {
    "jmvae": jmvae_kl_loss,
    "dvcca": dvcca_loss,
    "mcvae": mcvae_loss,
    "mvae": mvae_loss,
    "me_mvae": me_mvae_loss,
    "mmvae": mmvae_iwae_loss,
    "mvtcae": mvtcae_loss,
    "mopoe": mopoe_loss,
    "weighted_mvae": weighted_mvae_loss,
    "mmjsd": mmjsd_loss,
    "mmvaeplus": mmvaeplus_loss,
    "dmvae": dmvae_loss,
}

PLAIN_OBJECTIVES = {
    "ae": ae_loss,
    "dccae": dccae_loss,
}

ADVERSARIAL_OBJECTIVES = {
    "maae": maae_losses,
    "mwae": mwae_losses,
}


# A pooling hook maps (state, posteriors, members) to the posterior of the
# modalities in `members`: a GaussianParams, a uniform mixture (ExpertSet), or
# None when the model has none. `posteriors` holds one posterior per encoder
# in `state.encoders`, then the joint encoder's when the model has one.
PoolHook = Callable[[ModelState, list[GaussianParams], tuple[int, ...]],
                    "GaussianParams | ExpertSet | None"]


def _chosen(posteriors: list[GaussianParams], members: tuple[int, ...]) -> list[GaussianParams]:
    return [posteriors[i] for i in members]


def _pool_product(state, posteriors, members):
    return poe(ExpertSet(_chosen(posteriors, members)))


def _pool_product_with_prior(state, posteriors, members):
    return poe(ExpertSet(_chosen(posteriors, members), include_prior_expert=True))


def _pool_gpoe(state, posteriors, members):
    w = gpoe_weights(state)
    # rows come back as columns; rebuild the (|S|, d) weight matrix
    sub_w = nc.transpose(nc.concat_cols([nc.reshape_col(nc.row(w, i)) for i in members]))
    return gpoe(ExpertSet(_chosen(posteriors, members), weights=sub_w,
                          include_prior_expert=True))


def _pool_geometric(state, posteriors, members, pi=None):
    """Normalized product of the members and the prior; uniform exponents unless `pi`."""
    chosen = _chosen(posteriors, members)
    k = len(chosen) + 1
    return geometric_poe(chosen + [standard_normal(chosen[0].shape)], pi or [1.0 / k] * k)


def _dynamic_prior(state, posteriors, members):
    """mmJSD's joint: the geometric pooling with `model.pi` as exponents when set."""
    return _pool_geometric(state, posteriors, members, state.pi)


def _pool_mean(state, posteriors, members):
    return mean_pool(ExpertSet(_chosen(posteriors, members)))


def _mixture(state, posteriors, members):
    return ExpertSet(_chosen(posteriors, members))


def _subset_mixture(state, posteriors, members):
    """MoPoE: the uniform mixture of the PoEs of all non-empty subsets of the members."""
    base = ExpertSet(_chosen(posteriors, members))
    return ExpertSet([poe(subset_experts(base, s)) for s in enumerate_subsets(len(members))])


def _pool_by_join_type(state, posteriors, members):
    """mcVAE pools by `model.join_type`; its sparse variant has no joint."""
    if state.sparse:
        return None
    if state.join_type == "Mean":
        return _pool_mean(state, posteriors, members)
    return _pool_product(state, posteriors, members)


def _joint_encoder_posterior(state, posteriors, members):
    return posteriors[-1]


def _reference_posterior(state, posteriors, members):
    """The reference view's encoder gives the posterior of the shared latent."""
    return posteriors[0]


def _sparse_log_alphas(state: ModelState) -> None:
    if state.sparse:
        state.log_alphas = [nc.parameter(np.full(state.z_dim, -3.0))
                            for _ in range(state.n_views)]


def _gpoe_logits(state: ModelState) -> None:
    state.alpha_logits = nc.parameter(np.zeros((state.n_views, state.z_dim)))


def _aux_log_scales(state: ModelState) -> None:
    state.aux_log_scales = [nc.parameter(np.zeros(state.s_dim)) for _ in range(state.n_views)]


@dataclass(frozen=True)
class ModelSpec:
    """Everything but the objective that sets one model apart.

    `pool` pools any modality subset (coherence needs it); `joint` is the
    joint posterior that the prediction API reports (a mixture by its mean
    pooling); `proposal` is the importance-sampling proposal of the joint
    log-likelihood. A model lacks whatever its entry leaves as None.
    """

    # "plain", "variational", or "reference": one variational encoder, of view 0
    encoder: str = "variational"
    joint_encoder: bool = False
    # private latents: "never", "always", or "optional" (switched on by model.private)
    private: str = "never"
    n_views: int | None = None
    # decoder likelihood forced on every view, overriding the config
    likelihood: str | None = None
    # "discriminator" or "critic" (unbounded scores, clipped weights, several steps)
    adversary: str | None = None
    # adds the model's trainable tensors that are not network weights
    extras: Callable[[ModelState], None] | None = None
    # forced on: the objective degrades under mini-batching
    full_batch: bool = False
    # model.sparse is allowed; the sparse variant has plain encoders
    sparse: bool = False
    alpha_range: tuple[float, float] | None = None
    # a per-view weight list the objective reads: its config key, and the
    # list lengths allowed for a given view count
    view_weights: tuple[str, Callable[[int], tuple[int, ...]]] | None = None
    pool: PoolHook | None = None
    joint: PoolHook | None = None
    proposal: PoolHook | None = None

    def has_private(self, private: bool) -> bool:
        return self.private == "always" or (self.private == "optional" and private)


MODEL_SPECS = {
    "ae": ModelSpec(encoder="plain", likelihood="Default"),
    "jmvae": ModelSpec(n_views=2, joint_encoder=True, joint=_joint_encoder_posterior,
                       proposal=_joint_encoder_posterior),
    "dccae": ModelSpec(encoder="plain", n_views=2, likelihood="Default", full_batch=True),
    "dvcca": ModelSpec(encoder="reference", n_views=2, private="optional",
                       proposal=_reference_posterior),
    "mcvae": ModelSpec(sparse=True, extras=_sparse_log_alphas, joint=_pool_by_join_type),
    "mvae": ModelSpec(pool=_pool_product_with_prior, joint=_pool_product_with_prior,
                      proposal=_pool_product_with_prior),
    "me_mvae": ModelSpec(pool=_pool_product_with_prior, joint=_pool_product_with_prior,
                         proposal=_pool_product_with_prior),
    "mmvae": ModelSpec(pool=_pool_mean, joint=_mixture, proposal=_mixture),
    "mvtcae": ModelSpec(alpha_range=MVTCAE_ALPHA_RANGE, pool=_pool_product,
                        joint=_pool_product, proposal=_pool_product),
    "mopoe": ModelSpec(pool=_pool_product, joint=_subset_mixture, proposal=_subset_mixture),
    "weighted_mvae": ModelSpec(extras=_gpoe_logits, pool=_pool_gpoe, joint=_pool_gpoe,
                               proposal=_pool_gpoe),
    "mmjsd": ModelSpec(view_weights=("model.pi", lambda n: (n + 1,)), pool=_pool_geometric,
                       joint=_dynamic_prior, proposal=_dynamic_prior),
    "mmvaeplus": ModelSpec(private="always", extras=_aux_log_scales, pool=_pool_mean,
                           joint=_mixture),
    "dmvae": ModelSpec(private="always", view_weights=("model.lambda", lambda n: (1, n)),
                       pool=_pool_product_with_prior, joint=_pool_product_with_prior),
    "maae": ModelSpec(encoder="plain", likelihood="Default", adversary="discriminator"),
    "mwae": ModelSpec(encoder="plain", likelihood="Default", adversary="critic"),
}
