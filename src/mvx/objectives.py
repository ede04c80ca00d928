"""One loss function per model. Every objective is a minimization target
(negated bound where the model defines one) returned as a LossBreakdown whose
terms sum exactly to the total.

Reparameterization draws come from an EpsStream in a documented order (see
each function's docstring), so a recorded stream can be replayed by
independent recomputations.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from . import numcore as nc
from .distributions import (
    GaussianParams,
    Likelihood,
    gaussian_log_prob,
    kl_normal,
    kl_sparse,
    kl_to_standard,
    rsample,
    standard_normal,
)
from .errors import ContractError, DimensionError
from .networks import Decoder, Discriminator, VariationalEncoder
from .numcore import Tensor
from .pooling import ExpertSet, enumerate_subsets, gpoe, mean_pool, moe_log_prob, poe

if TYPE_CHECKING:  # config imports this module
    from .config import ModelConfig

DCCAE_RIDGE = 1e-3


class EpsStream:
    """Seeded source of standard-normal draws (and subset picks) for objectives."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng

    def normal(self, shape) -> Tensor:
        return nc.constant(self.rng.standard_normal(shape))

    def sample(self, q: GaussianParams) -> Tensor:
        """A reparameterized draw from `q`, taking one normal of its shape."""
        return rsample(q, self.normal(q.shape))

    def integers(self, n: int, high: int) -> np.ndarray:
        return self.rng.integers(0, high, size=n)


@dataclass
class LossBreakdown:
    """Total plus its named, signed components; total == sum(terms) exactly."""

    total: Tensor
    terms: dict[str, Tensor]

    @classmethod
    def from_terms(cls, terms: dict[str, Tensor]) -> "LossBreakdown":
        if not terms:
            raise ContractError("LossBreakdown: no terms")
        return cls(total=functools.reduce(operator.add, terms.values()), terms=terms)

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


@dataclass(slots=True)
class ModelState:
    """Everything a loss function needs: networks and trainable extras, and
    the model config, whose fields are the hyperparameters (`state.cfg.beta`)."""

    cfg: ModelConfig
    n_views: int
    encoders: list = field(default_factory=list)
    decoders: list[Decoder] = field(default_factory=list)
    joint_encoder: VariationalEncoder | None = None
    private_encoders: list[VariationalEncoder] | None = None
    log_alphas: list[Tensor] | None = None
    alpha_logits: Tensor | None = None
    aux_log_scales: list[Tensor] | None = None
    discriminator: Discriminator | None = None
    # every trainable tensor, named, in the order `build_model` draws them
    params: list[tuple[str, Tensor]] = field(default_factory=list)

    def built(self, net):
        """`net`, its parameters appended to `params`."""
        self.params.extend(net.parameters())
        return net

    def new_param(self, name: str, value: np.ndarray) -> Tensor:
        """A trainable tensor holding `value`, appended to `params` as `name`."""
        t = nc.parameter(value)
        self.params.append((name, t))
        return t

    def parameters(self) -> list[tuple[str, Tensor]]:
        """All trainable tensors, in the order `build_model` draws them."""
        return list(self.params)

    def phase_groups(self) -> tuple[list[tuple[str, Tensor]], list[tuple[str, Tensor]]]:
        """The parameter groups that the trainer steps, each with its own Adam
        step count: the autoencoder's, then the discriminator's (maybe empty),
        which `parameters` lists last."""
        params = self.parameters()
        split = len(params) - (0 if self.discriminator is None
                               else len(self.discriminator.parameters()))
        return params[:split], params[split:]


def _check_views(state: ModelState, views: list[Tensor]) -> None:
    """Reject a batch of another view count than the model's, or whose views
    are not (batch, dim) with a shared batch. The entry's own rules, such as
    its view count and alpha range, are config's to enforce."""
    name = state.cfg.name
    if len(views) != state.n_views:
        raise DimensionError(
            f"{name}: got {len(views)} views, model has {state.n_views}"
        )
    batch = views[0].shape[:1]
    for v in views:
        if v.data.ndim != 2 or v.shape[:1] != batch:
            raise DimensionError(f"{name}: views must be (batch, dim) with a shared batch")


def _encode(encoders: list, views: list[Tensor]) -> list:
    """Each encoder's output for its view."""
    return [enc.forward(x) for enc, x in zip(encoders, views)]


def _posteriors(state: ModelState, views: list[Tensor]) -> list:
    """What the pooling hooks read, after `_check_views`: each encoder's output
    for its view, then the joint encoder's for all views when the model has
    one. Every loss encodes its views here, so each checks them before any op
    or draw."""
    _check_views(state, views)
    if state.joint_encoder is None:
        return _encode(state.encoders, views)
    return _encode(state.encoders + [state.joint_encoder], views + [nc.concat_cols(views)])


def _decode(state: ModelState, m: int, z: Tensor, private: Tensor | None = None) -> Likelihood:
    """View `m`'s likelihood given the shared latent `z` and, for a model with
    private latents, the private code `private`."""
    return state.decoders[m].decode(z if private is None else nc.concat_cols([z, private]))


def _neg_mean(t: Tensor) -> Tensor:
    return nc.neg(nc.mean(t))


def _scaled(w: float, t: Tensor) -> Tensor:
    return nc.constant(w) * t


def _mean_kl(weight: float, q: GaussianParams, p: GaussianParams) -> Tensor:
    """`weight` times the mean over rows of KL(q || p)."""
    return _scaled(weight, nc.mean(kl_normal(q, p)))


def _recon(terms: dict[str, Tensor], state: ModelState, views: list[Tensor], z: Tensor,
           source, weight: float | None = None, mask: Tensor | None = None,
           targets: tuple[int, ...] | None = None, private: list[Tensor] | None = None) -> None:
    """Add `recon[<view><-<source>]` for every view in `targets` (default:
    every view): the negated mean log-likelihood of the view decoded from `z`
    and the view's code in `private` when given, its rows multiplied by `mask`
    and the mean scaled by `weight` when given."""
    for m in range(state.n_views) if targets is None else targets:
        lp = _decode(state, m, z, None if private is None else private[m]).log_prob(views[m])
        if mask is not None:
            lp = lp * mask
        term = _neg_mean(lp)
        terms[f"recon[{m}<-{source}]"] = term if weight is None else _scaled(weight, term)


def _kl_prior(state: ModelState, q: GaussianParams, weight: float | None = None,
              mask: Tensor | None = None) -> Tensor:
    """beta (times `weight` when given) times the mean KL of `q` to the prior,
    its rows multiplied by `mask` when given."""
    beta = state.cfg.beta if weight is None else state.cfg.beta * weight
    kl = kl_to_standard(q)
    if mask is not None:
        kl = kl * mask
    return _scaled(beta, nc.mean(kl))


def _elbo(terms: dict[str, Tensor], state: ModelState, views: list[Tensor], q: GaussianParams,
          eps: EpsStream, source, weight: float | None = None, mask: Tensor | None = None,
          targets: tuple[int, ...] | None = None) -> None:
    """Add the ELBO terms of the posterior `q`: `recon[<view><-<source>]` of
    one draw from `q` for every view in `targets` (default: every view), then
    `kl[<source>]`, each scaled by `weight` and its rows multiplied by `mask`
    when given (see `_recon` and `_kl_prior`)."""
    _recon(terms, state, views, eps.sample(q), source, weight, mask, targets)
    terms[f"kl[{source}]"] = _kl_prior(state, q, weight, mask)


def _log_weight(state: ModelState, views: list[Tensor], z: Tensor,
                proposal: GaussianParams | ExpertSet, codes: list[Tensor] | None = None) -> Tensor:
    """The importance log-weight of `z` drawn from `proposal`, a Gaussian or a
    uniform mixture q: log p(z) + sum_m log p(x_m | z) - log q(z). Given
    `codes`, view m is decoded from z and the private code `codes[m]`."""
    lw = gaussian_log_prob(standard_normal(z.shape), z)
    for m in range(state.n_views):
        lw = lw + _decode(state, m, z, None if codes is None else codes[m]).log_prob(views[m])
    if isinstance(proposal, ExpertSet):
        return lw - moe_log_prob(proposal, z)
    return lw - gaussian_log_prob(proposal, z)


def _k_sample_bound(log_weights: list[Tensor], n_views: int) -> Tensor:
    """The negated K-sample bound of one mixture component, weighted 1/M:
    the mean over rows of the logsumexp of the K log-weights, minus log K."""
    stacked = nc.concat_cols([nc.reshape_col(lw) for lw in log_weights])
    iw = nc.logsumexp(stacked, axis=1) - nc.constant(math.log(len(log_weights)))
    return _scaled(1.0 / n_views, _neg_mean(iw))


def _joint(state: ModelState, posteriors: list[GaussianParams]):
    """The joint posterior of every view by the model's `joint` hook; None without one."""
    hook = MODEL_SPECS[state.cfg.name].joint
    return None if hook is None else hook(state, posteriors, tuple(range(state.n_views)))


# ---------------------------------------------------------------------------
# plain autoencoder
# ---------------------------------------------------------------------------


def ae_loss(state: ModelState, views: list[Tensor], eps: EpsStream) -> LossBreakdown:
    """Same- and cross-modality squared reconstruction error, weight 1/M^2.

    Draws: none.
    """
    return _ae_reconstruction(state, views, _posteriors(state, views))


# ---------------------------------------------------------------------------
# JMVAE / JMVAE-kl
# ---------------------------------------------------------------------------


def jmvae_kl_loss(state: ModelState, views: list[Tensor], eps: EpsStream) -> LossBreakdown:
    """Joint-encoder ELBO plus alpha-weighted KL calibration to the uni-modal
    encoders; alpha == 0 recovers plain JMVAE (calibration terms omitted).

    Draws: one (B, z) normal for the joint posterior sample.
    """
    (*unimodal, q_joint), terms = _joint_elbo(state, views, eps)
    if state.cfg.alpha != 0.0:
        for m, q_m in enumerate(unimodal):
            terms[f"kl[joint||uni{m}]"] = _mean_kl(state.cfg.alpha, q_joint, q_m)
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
    lam_weight = state.cfg.lam[0] if state.cfg.lam else 1.0
    h = _posteriors(state, views)
    terms: dict[str, Tensor] = {
        "corr": nc.neg(canonical_correlation_sum(h[0], h[1]))
    }
    for m in range(2):
        _recon(terms, state, views, h[m], m, lam_weight, targets=(m,))
    return LossBreakdown.from_terms(terms)


# ---------------------------------------------------------------------------
# DVCCA / VCCA-private
# ---------------------------------------------------------------------------


def dvcca_loss(state: ModelState, views: list[Tensor], eps: EpsStream) -> LossBreakdown:
    """Single-reference-encoder ELBO over both views; the private variant adds
    per-view private encoders and their KL terms.

    Draws: z from q(z|x1); with private=True additionally h_m for m = 0, 1.
    """
    [q_z] = _posteriors(state, views)
    z = eps.sample(q_z)
    q_h = _encode(state.private_encoders, views) if state.cfg.private else []
    hs = [eps.sample(q) for q in q_h]
    terms: dict[str, Tensor] = {}
    _recon(terms, state, views, z, "joint", private=hs or None)
    terms["kl[z]"] = _kl_prior(state, q_z)
    for m, q in enumerate(q_h):
        terms[f"kl[h{m}]"] = _kl_prior(state, q)
    return LossBreakdown.from_terms(terms)


# ---------------------------------------------------------------------------
# mcVAE / sparse mcVAE
# ---------------------------------------------------------------------------


def mcvae_loss(state: ModelState, views: list[Tensor], eps: EpsStream) -> LossBreakdown:
    """Per-modality ELBOs with same- and cross-modality reconstruction.

    Draws: one (B, z) normal per modality, in modality order. The sparse
    variant samples z = mu * (1 + sqrt(alpha) * eps) and swaps the Gaussian
    KL for the log-uniform-prior approximation.
    """
    terms: dict[str, Tensor] = {}
    for m, q_m in enumerate(_posteriors(state, views)):
        if not state.cfg.sparse:
            _elbo(terms, state, views, q_m, eps, m)
            continue
        # a dropout posterior: the mean network and a per-dimension alpha
        alpha = nc.exp(state.log_alphas[m])
        z_m = q_m + q_m * (nc.sqrt(alpha) * eps.normal(q_m.shape))
        kl_m = _scaled(state.cfg.beta, nc.mean(kl_sparse(alpha, q_m.shape[0])))
        _recon(terms, state, views, z_m, m)
        terms[f"kl[{m}]"] = kl_m
    return LossBreakdown.from_terms(terms)


# ---------------------------------------------------------------------------
# MVAE / me_mVAE
# ---------------------------------------------------------------------------


def _joint_elbo(state: ModelState, views: list[Tensor],
                eps: EpsStream) -> tuple[list[GaussianParams], dict[str, Tensor]]:
    """The `_posteriors` of the views, and the ELBO terms under the model's
    joint of them: `recon[*<-joint]` from one joint sample, then `kl[joint]`.

    Draws: one (B, z) normal for the joint sample.
    """
    experts = _posteriors(state, views)
    terms: dict[str, Tensor] = {}
    _elbo(terms, state, views, _joint(state, experts), eps, "joint")
    return experts, terms


def mvae_loss(state: ModelState, views: list[Tensor], eps: EpsStream) -> LossBreakdown:
    """Single ELBO under the model's joint posterior: the PoE with the prior
    expert (mvae), or the gPoE whose per-modality, per-dimension weights are
    trainable (weighted_mvae).

    Draws: one (B, z) normal for the joint sample.
    """
    return LossBreakdown.from_terms(_joint_elbo(state, views, eps)[1])


def me_mvae_loss(state: ModelState, views: list[Tensor], eps: EpsStream) -> LossBreakdown:
    """Full-set ELBO plus the M uni-modal ELBOs (no random subsets).

    Every posterior is a PoE that includes the prior expert. Draws: joint
    sample first, then one per uni-modal ELBO in modality order.
    """
    experts, terms = _joint_elbo(state, views, eps)
    for m in range(state.n_views):
        q_m = MODEL_SPECS[state.cfg.name].pool(state, experts, (m,))
        _elbo(terms, state, views, q_m, eps, f"uni{m}", targets=(m,))
    return LossBreakdown.from_terms(terms)


# ---------------------------------------------------------------------------
# mmVAE (IWAE bound over the mixture of experts)
# ---------------------------------------------------------------------------


def mmvae_iwae_loss(state: ModelState, views: list[Tensor], eps: EpsStream) -> LossBreakdown:
    """K-sample IWAE bound, stratified over mixture components.

    Draws: for each modality m (outer), K normals (B, z) in k order.
    """
    experts = _posteriors(state, views)
    moe = ExpertSet(experts)
    terms: dict[str, Tensor] = {}
    for m in range(state.n_views):
        log_weights = []
        for _ in range(state.cfg.K):
            log_weights.append(_log_weight(state, views, eps.sample(experts[m]), moe))
        terms[f"iwae[{m}]"] = _k_sample_bound(log_weights, state.n_views)
    return LossBreakdown.from_terms(terms)


# ---------------------------------------------------------------------------
# MVTCAE
# ---------------------------------------------------------------------------


def mvtcae_loss(state: ModelState, views: list[Tensor], eps: EpsStream) -> LossBreakdown:
    """Total-correlation lower bound: joint PoE (no prior expert), weighted
    reconstruction, prior KL and per-modality CVIB KL terms.

    Draws: one (B, z) normal for the joint sample.
    """
    m_total = state.n_views
    experts = _posteriors(state, views)
    q = _joint(state, experts)
    terms: dict[str, Tensor] = {}
    _recon(terms, state, views, eps.sample(q), "joint", (m_total - state.cfg.alpha) / m_total)
    if state.cfg.alpha < 1.0:
        terms["kl[prior]"] = _kl_prior(state, q, 1.0 - state.cfg.alpha)
    if state.cfg.alpha > 0.0:
        for m in range(m_total):
            terms[f"kl[cvib{m}]"] = _mean_kl(state.cfg.beta * state.cfg.alpha / m_total,
                                             q, experts[m])
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
    subsets = enumerate_subsets(state.n_views)
    n_subsets = len(subsets)
    experts = _posteriors(state, views)
    selection = None
    batch = views[0].shape[0]
    if state.cfg.stochastic_subsets:
        selection = eps.integers(batch, n_subsets)
    terms: dict[str, Tensor] = {}
    for k, subset in enumerate(subsets):
        q_k = MODEL_SPECS[state.cfg.name].pool(state, experts, subset)
        label = "+".join(str(i) for i in subset)
        if selection is None:
            weight = 1.0 / n_subsets
            mask = None
        else:
            weight = 1.0
            mask = nc.constant((selection == k).astype(np.float64))
        _elbo(terms, state, views, q_k, eps, f"{{{label}}}", weight, mask)
    return LossBreakdown.from_terms(terms)


# ---------------------------------------------------------------------------
# weighted mVAE (gPoE)
# ---------------------------------------------------------------------------


def gpoe_weights(state: ModelState) -> Tensor:
    """Softmax of the trainable logits across modalities, per latent dimension."""
    logits = nc.clip(state.alpha_logits, -30.0, 30.0)
    norm = nc.logsumexp(logits, axis=0)
    return nc.exp(logits - norm)


# ---------------------------------------------------------------------------
# mmJSD
# ---------------------------------------------------------------------------


def mmjsd_loss(state: ModelState, views: list[Tensor], eps: EpsStream) -> LossBreakdown:
    """Reconstruction from stratified mixture samples plus the pi-weighted
    JS terms against the PoE dynamic prior.

    The dynamic prior is the model's joint (`_pool_geometric`): the
    pi-exponent normalized product of the uni-modal posteriors and the prior,
    so identical components leave it fixed and the JS term vanishes iff all
    posteriors equal the prior.

    Draws: one (B, z) normal per modality, in modality order.
    """
    m_total = state.n_views
    pi = state.cfg.pi or [1.0 / (m_total + 1)] * (m_total + 1)
    experts = _posteriors(state, views)
    dynamic_prior = _joint(state, experts)
    terms: dict[str, Tensor] = {}
    for m in range(m_total):
        _recon(terms, state, views, eps.sample(experts[m]), m, 1.0 / m_total)
    for m in range(m_total):
        terms[f"kl[js{m}]"] = _mean_kl(state.cfg.beta * pi[m], experts[m], dynamic_prior)
    prior = standard_normal(experts[0].shape)
    terms["kl[js_prior]"] = _mean_kl(state.cfg.beta * pi[m_total], prior, dynamic_prior)
    return LossBreakdown.from_terms(terms)


# ---------------------------------------------------------------------------
# MMVAE+
# ---------------------------------------------------------------------------


def mmvaeplus_loss(state: ModelState, views: list[Tensor], eps: EpsStream) -> LossBreakdown:
    """mmVAE's bound with private latents: each log-weight gains log p(h_m) -
    log q(h_m | x_m), and a view n != m is decoded with a private code drawn
    from its learnable-scale auxiliary prior.

    Draws, for each modality m (outer) and each k (inner): z from the shared
    posterior, h_m from the private posterior, then one auxiliary draw per
    n != m in ascending n.
    """
    m_total = state.n_views
    shared = _posteriors(state, views)
    privates = _encode(state.private_encoders, views)
    moe_shared = ExpertSet(shared)
    terms: dict[str, Tensor] = {}
    for m in range(m_total):
        log_weights = []
        for _ in range(state.cfg.K):
            z = eps.sample(shared[m])
            h_m = eps.sample(privates[m])
            codes = [h_m if n == m else nc.exp(state.aux_log_scales[n]) * eps.normal(q.shape)
                     for n, q in enumerate(privates)]
            lw = _log_weight(state, views, z, moe_shared, codes)
            lw = lw + gaussian_log_prob(standard_normal(h_m.shape), h_m)
            log_weights.append(lw - gaussian_log_prob(privates[m], h_m))
        terms[f"iwae[{m}]"] = _k_sample_bound(log_weights, m_total)
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
    m_total = state.n_views
    # config and `check_views` allow 1 or M weights; an empty list means 1
    lam = state.cfg.lam or [1.0]
    if len(lam) == 1:
        lam = lam * m_total
    shared = _posteriors(state, views)
    privates = _encode(state.private_encoders, views)
    q_joint = _joint(state, shared)
    z_joint = eps.sample(q_joint)
    hs = [eps.sample(q) for q in privates]
    z_uni = [eps.sample(q) for q in shared]
    kl_joint = nc.mean(kl_to_standard(q_joint))
    kl_priv = [nc.mean(kl_to_standard(q)) for q in privates]
    kl_shared = [nc.mean(kl_to_standard(q)) for q in shared]
    terms: dict[str, Tensor] = {}
    for m in range(m_total):
        _recon(terms, state, views, z_joint, "joint", lam[m], targets=(m,), private=hs)
        terms[f"kl[h{m}@joint]"] = _scaled(state.cfg.beta, kl_priv[m])
        terms[f"kl[joint@{m}]"] = _scaled(state.cfg.beta, kl_joint)
        for n in range(m_total):
            _recon(terms, state, views, z_uni[n], n, lam[m], targets=(m,), private=hs)
            terms[f"kl[h{m}@{m},{n}]"] = _scaled(state.cfg.beta, kl_priv[m])
            terms[f"kl[z{n}@{m},{n}]"] = _scaled(state.cfg.beta, kl_shared[n])
    return LossBreakdown.from_terms(terms)


# ---------------------------------------------------------------------------
# adversarial models
# ---------------------------------------------------------------------------


def _ae_reconstruction(state: ModelState, views: list[Tensor],
                       latents: list[Tensor]) -> LossBreakdown:
    m_total = state.n_views
    w = 1.0 / (m_total * m_total)
    terms: dict[str, Tensor] = {}
    for m in range(m_total):
        for n in range(m_total):
            _recon(terms, state, views, latents[n], n, w, targets=(m,))
    return LossBreakdown.from_terms(terms)


def _adversarial_scores(state: ModelState, views: list[Tensor],
                        eps: EpsStream) -> tuple[LossBreakdown, list[tuple[Tensor, Tensor]]]:
    """What both adversarial models build: the reconstruction terms of the
    encodings, and per view the discriminator's scores of one prior sample and
    of the view's encoding.

    Draws: one (B, z) prior sample per modality, in modality order.
    """
    latents = _posteriors(state, views)
    recon = _ae_reconstruction(state, views, latents)
    score = state.discriminator.score
    return recon, [(score(eps.normal(z.shape)), score(z)) for z in latents]


def maae_losses(state: ModelState, views: list[Tensor], eps: EpsStream) -> AdversarialLosses:
    """Adversarial autoencoder: squared-error reconstruction, a discriminator
    loss over prior-vs-encoding samples, and the generator loss (literal
    log(1 - D(G(x))) by default; non-saturating variant behind the flag).

    Draws: one (B, z) prior sample per modality, in modality order.
    """
    recon, scores = _adversarial_scores(state, views, eps)
    pairs, gens = [], []
    for d_prior, d_enc in scores:
        log_d_prior = nc.mean(nc.log(d_prior))
        log_one_minus = nc.mean(nc.log(nc.constant(1.0) - d_enc))
        pairs.append(log_d_prior + log_one_minus)
        gens.append(nc.neg(nc.mean(nc.log(d_enc))) if state.cfg.non_saturating
                    else log_one_minus)
    disc_total = functools.reduce(operator.add, pairs)
    gen_total = functools.reduce(operator.add, gens)
    inv_m = nc.constant(1.0 / state.n_views)
    disc_loss = nc.neg(disc_total) * inv_m
    gen_loss = gen_total * inv_m
    audit_total = recon.total + disc_total * inv_m
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
    recon, scores = _adversarial_scores(state, views, eps)
    pairs, encs = [], []
    for s_prior, s_enc in scores:
        c_prior, c_enc = nc.mean(s_prior), nc.mean(s_enc)
        pairs.append(c_prior - c_enc)
        encs.append(c_enc)
    critic_obj = functools.reduce(operator.add, pairs)
    gen_obj = functools.reduce(operator.add, encs)
    inv_m = nc.constant(1.0 / state.n_views)
    critic_loss = nc.neg(critic_obj) * inv_m
    gen_loss = nc.neg(gen_obj) * inv_m
    audit_total = recon.total - (critic_obj * inv_m + gen_obj * inv_m)
    return AdversarialLosses(
        reconstruction=recon,
        discriminator=critic_loss,
        generator=gen_loss,
        total=audit_total,
    )


# A pooling hook maps (state, posteriors, members) to the posterior of the
# modalities in `members`: a GaussianParams, a uniform mixture (ExpertSet), or
# None when the model has none. `posteriors` holds one posterior per encoder
# in `state.encoders`, then the joint encoder's when the model has one.
PoolHook = Callable[[ModelState, list[GaussianParams], tuple[int, ...]],
                    "GaussianParams | ExpertSet | None"]


def _chosen(posteriors: list[GaussianParams], members: tuple[int, ...]) -> list[GaussianParams]:
    return [posteriors[i] for i in members]


def _with_prior(experts: list[GaussianParams]) -> list[GaussianParams]:
    """`experts` followed by the standard-normal prior expert."""
    return [*experts, standard_normal(experts[0].shape)]


def _pool_product(state, posteriors, members):
    return poe(_chosen(posteriors, members))


def _pool_product_with_prior(state, posteriors, members):
    return poe(_with_prior(_chosen(posteriors, members)))


def _pool_gpoe(state, posteriors, members):
    """The gPoE of the members and the prior: each member's precision scaled
    by its row of `gpoe_weights`, the prior's by 1."""
    weights = gpoe_weights(state)
    return gpoe(_with_prior(_chosen(posteriors, members)),
                [nc.row(weights, i) for i in members] + [1.0])


def _pool_geometric(state, posteriors, members):
    """mmJSD's dynamic prior: the normalized product of the members and the
    prior, with `model.pi` restricted to them and renormalized as exponents
    (uniform exponents when `model.pi` is unset)."""
    pi = state.cfg.pi
    pi = [pi[i] for i in members] + [pi[-1]] if pi else [1.0] * (len(members) + 1)
    total = math.fsum(pi)
    return gpoe(_with_prior(_chosen(posteriors, members)), [w / total for w in pi])


def _pool_mean(state, posteriors, members):
    return mean_pool(ExpertSet(_chosen(posteriors, members)))


def _mixture(state, posteriors, members):
    return ExpertSet(_chosen(posteriors, members))


def _subset_mixture(state, posteriors, members):
    """MoPoE: the uniform mixture of the PoEs of all non-empty subsets of the members."""
    chosen = _chosen(posteriors, members)
    return ExpertSet([_pool_product(state, chosen, s)
                      for s in enumerate_subsets(len(members))])


def _pool_by_join_type(state, posteriors, members):
    """mcVAE pools by `model.join_type`; its sparse variant has no joint."""
    if state.cfg.sparse:
        return None
    if state.cfg.join_type == "Mean":
        return _pool_mean(state, posteriors, members)
    return _pool_product(state, posteriors, members)


def _joint_encoder_posterior(state, posteriors, members):
    return posteriors[-1]


def _reference_posterior(state, posteriors, members):
    """The reference view's encoder gives the posterior of the shared latent."""
    return posteriors[0]


def _sparse_log_alphas(state: ModelState) -> None:
    if state.cfg.sparse:
        state.log_alphas = [state.new_param(f"log_alpha{m}", np.full(state.cfg.z_dim, -3.0))
                            for m in range(state.n_views)]


def _gpoe_logits(state: ModelState) -> None:
    state.alpha_logits = state.new_param("gpoe_alpha_logits",
                                         np.zeros((state.n_views, state.cfg.z_dim)))


def _aux_log_scales(state: ModelState) -> None:
    state.aux_log_scales = [state.new_param(f"aux_log_scale{m}", np.zeros(state.cfg.s_dim))
                            for m in range(state.n_views)]


@dataclass(frozen=True)
class ModelSpec:
    """Everything that sets one model apart, its loss `objective` first.

    `keys` names the model-specific config keys (`model.<key>`) that the
    model reads; config rejects a non-default value of any other one, and
    the union of every entry's `keys` is the set of model-specific keys. A
    model whose `keys` name "s_dim" has private latents (see `has_private`).
    `pool` pools any modality subset (coherence and the subset terms of the
    objectives); `joint` is the joint posterior of every view, which the
    objective trains, the prediction API reports (a mixture by its mean
    pooling) and the joint log-likelihood samples. A model lacks whatever its
    entry leaves as None. The objectives pool only through these hooks, so
    each pooling rule is written once; config alone enforces the entry's
    rules, such as `n_views` and `alpha_range`. A plain autoencoder
    (`encoder == "plain"`) scores squared error, so config refuses a decoder
    `distribution` for it.
    """

    # the loss: (state, views, eps) -> the terms that the trainer minimizes
    objective: Callable[..., LossBreakdown | AdversarialLosses]
    keys: frozenset[str] = frozenset()
    # "plain", "variational", or "reference": one variational encoder, of view 0
    encoder: str = "variational"
    joint_encoder: bool = False
    n_views: int | None = None
    # the objective pools every non-empty view subset, so config caps the view
    # count at the powerset guard, pooling.MAX_SUBSET_MODALITIES
    subsets: bool = False
    # "discriminator" or "critic" (unbounded scores, clipped weights, several steps)
    adversary: str | None = None
    # makes the model's trainable non-network tensors by `ModelState.new_param`
    extras: Callable[[ModelState], None] | None = None
    # forced on: the objective degrades under mini-batching
    full_batch: bool = False
    alpha_range: tuple[float, float] | None = None
    # a per-view weight list the objective reads: its config key, and the
    # list lengths allowed for a given view count
    view_weights: tuple[str, Callable[[int], tuple[int, ...]]] | None = None
    pool: PoolHook | None = None
    joint: PoolHook | None = None

    def has_private(self, cfg: ModelConfig) -> bool:
        """Whether the model of config `cfg` has private latents: its `keys`
        hold "s_dim" and, when they hold "private" too, `cfg.private` is set."""
        return "s_dim" in self.keys and ("private" not in self.keys or cfg.private)


MODEL_SPECS = {
    "ae": ModelSpec(ae_loss, encoder="plain"),
    "jmvae": ModelSpec(jmvae_kl_loss, keys=frozenset({"beta", "alpha"}), n_views=2,
                       joint_encoder=True, joint=_joint_encoder_posterior),
    "dccae": ModelSpec(dccae_loss, keys=frozenset({"lambda"}), encoder="plain", n_views=2,
                       full_batch=True, view_weights=("lambda", lambda n: (1,))),
    "dvcca": ModelSpec(dvcca_loss, keys=frozenset({"beta", "private", "s_dim"}),
                       encoder="reference", n_views=2, joint=_reference_posterior),
    "mcvae": ModelSpec(mcvae_loss, keys=frozenset({"beta", "sparse", "threshold", "join_type"}),
                       extras=_sparse_log_alphas, joint=_pool_by_join_type),
    "mvae": ModelSpec(mvae_loss, keys=frozenset({"beta"}), pool=_pool_product_with_prior,
                      joint=_pool_product_with_prior),
    "me_mvae": ModelSpec(me_mvae_loss, keys=frozenset({"beta"}), pool=_pool_product_with_prior,
                         joint=_pool_product_with_prior),
    "mmvae": ModelSpec(mmvae_iwae_loss, keys=frozenset({"K"}), pool=_pool_mean, joint=_mixture),
    "mvtcae": ModelSpec(mvtcae_loss, keys=frozenset({"beta", "alpha"}), alpha_range=(0.0, 1.0),
                        pool=_pool_product, joint=_pool_product),
    "mopoe": ModelSpec(mopoe_loss, keys=frozenset({"beta", "stochastic_subsets"}), subsets=True,
                       pool=_pool_product, joint=_subset_mixture),
    "weighted_mvae": ModelSpec(mvae_loss, keys=frozenset({"beta"}), extras=_gpoe_logits,
                               pool=_pool_gpoe, joint=_pool_gpoe),
    "mmjsd": ModelSpec(mmjsd_loss, keys=frozenset({"beta", "pi"}),
                       view_weights=("pi", lambda n: (n + 1,)),
                       pool=_pool_geometric, joint=_pool_geometric),
    "mmvaeplus": ModelSpec(mmvaeplus_loss, keys=frozenset({"s_dim", "K"}),
                           extras=_aux_log_scales, pool=_pool_mean, joint=_mixture),
    "dmvae": ModelSpec(dmvae_loss, keys=frozenset({"s_dim", "beta", "lambda"}),
                       view_weights=("lambda", lambda n: (1, n)),
                       pool=_pool_product_with_prior, joint=_pool_product_with_prior),
    "maae": ModelSpec(maae_losses, keys=frozenset({"non_saturating"}), encoder="plain",
                      adversary="discriminator"),
    "mwae": ModelSpec(mwae_losses, encoder="plain", adversary="critic"),
}


def _loss_kind(spec: ModelSpec) -> str:
    """The objective table of an entry: "adversarial" when it sets an
    adversary, else "plain" when its encoder is plain, else "variational"."""
    if spec.adversary is not None:
        return "adversarial"
    return "plain" if spec.encoder == "plain" else "variational"


# Each entry's loss, by kind. The trainer looks every loss up here, where the
# benchmark's tracer finds and wraps them.
VARIATIONAL_OBJECTIVES, PLAIN_OBJECTIVES, ADVERSARIAL_OBJECTIVES = (
    {name: spec.objective for name, spec in MODEL_SPECS.items() if _loss_kind(spec) == kind}
    for kind in ("variational", "plain", "adversarial"))
