"""Structural and reduction properties of the model objectives."""

import math

import numpy as np
import pytest

from mvx import numcore as nc
from mvx.distributions import gaussian_log_prob, rsample, standard_normal
from mvx.errors import DimensionError
from mvx.objectives import (
    EpsStream,
    PLAIN_OBJECTIVES,
    VARIATIONAL_OBJECTIVES,
    ae_loss,
    canonical_correlation_sum,
    dccae_loss,
    dmvae_loss,
    dvcca_loss,
    jmvae_kl_loss,
    maae_losses,
    mcvae_loss,
    me_mvae_loss,
    mmjsd_loss,
    mmvae_iwae_loss,
    mmvaeplus_loss,
    mopoe_loss,
    mvae_loss,
    mvtcae_loss,
    mwae_losses,
)

from helpers import make_tiny_state, make_tiny_views, zero_encoders

weighted_mvae_loss = VARIATIONAL_OBJECTIVES["weighted_mvae"]


def _eps(seed=5):
    return EpsStream(np.random.default_rng(seed))


def test_every_breakdown_recombines_to_total():
    views = make_tiny_views()
    for name, obj in {**VARIATIONAL_OBJECTIVES, **PLAIN_OBJECTIVES}.items():
        kw = {"alpha": 0.5} if name == "mvtcae" else {}
        state = make_tiny_state(name, **kw)
        out = obj(state, views, _eps())
        recombined = sum(v.item() for v in out.terms.values())
        assert abs(recombined - out.total.item()) < 1e-9, name
        assert np.isfinite(out.total.item())


# -- AE ------------------------------------------------------------------------------


def test_ae_identity_model_zero_loss_on_equal_views():
    state = make_tiny_state("ae", dims=(2, 2))
    # identity encoders/decoders (affine nets forced to the identity map)
    for net in list(state.encoders) + list(state.decoders):
        assert len(net.layers) >= 1
        net.spec.non_linear = False
        first_w, first_b = net.layers[0]
        for w, b in net.layers:
            w.data[...] = 0.0
            if b is not None:
                b.data[...] = 0.0
        # chain of identities
        for w, _ in net.layers:
            n = min(w.data.shape)
            w.data[:n, :n] = np.eye(n)
    x = np.random.default_rng(0).normal(size=(4, 2))
    views = [nc.constant(x), nc.constant(x)]
    out = ae_loss(state, views, _eps())
    assert abs(out.total.item()) < 1e-18


def test_ae_single_view_reduces_to_plain_autoencoder():
    state = make_tiny_state("ae", dims=(3,))
    views = make_tiny_views(dims=(3,))
    out = ae_loss(state, views, _eps())
    assert set(out.terms) == {"recon[0<-0]"}
    z = state.encoders[0].forward(views[0])
    recon = state.decoders[0].decode(z)
    mse = -nc.mean(recon.log_prob(views[0])).item()
    assert abs(out.total.item() - mse) < 1e-12


def test_ae_term_grid_shape():
    state = make_tiny_state("ae", dims=(2, 3, 2))
    views = make_tiny_views(dims=(2, 3, 2))
    out = ae_loss(state, views, _eps())
    assert len(out.terms) == 9


# -- JMVAE ----------------------------------------------------------------------------


def test_jmvae_alpha_zero_equals_plain_jmvae_terms():
    views = make_tiny_views()
    state = make_tiny_state("jmvae", alpha=1.0)
    state.cfg.alpha = 0.0
    out = jmvae_kl_loss(state, views, _eps())
    assert set(out.terms) == {"recon[0<-joint]", "recon[1<-joint]", "kl[joint]"}
    state.cfg.alpha = 0.7
    out_kl = jmvae_kl_loss(state, views, _eps())
    assert set(out_kl.terms) == {
        "recon[0<-joint]", "recon[1<-joint]", "kl[joint]",
        "kl[joint||uni0]", "kl[joint||uni1]",
    }
    # the shared terms agree exactly (same seeds, same draws)
    for key in out.terms:
        assert abs(out.terms[key].item() - out_kl.terms[key].item()) < 1e-12


def test_jmvae_prior_encoders_zero_kl():
    state = make_tiny_state("jmvae")
    zero_encoders(state)
    views = make_tiny_views()
    out = jmvae_kl_loss(state, views, _eps())
    assert abs(out.terms["kl[joint]"].item()) < 1e-12
    assert abs(out.terms["kl[joint||uni0]"].item()) < 1e-12
    assert abs(out.terms["kl[joint||uni1]"].item()) < 1e-12


def test_jmvae_requires_two_views():
    state = make_tiny_state("jmvae")
    with pytest.raises(DimensionError, match=r"^jmvae: got 3 views, model has 2$"):
        jmvae_kl_loss(state, make_tiny_views(dims=(2, 2, 2)), _eps())


# -- DCCAE ----------------------------------------------------------------------------


def test_dccae_self_correlation_is_maximal():
    # identical projections of the same large-scale data: every canonical
    # correlation is 1 up to the ridge term
    rng = np.random.default_rng(2)
    h = nc.constant(1e4 * rng.normal(size=(64, 3)))
    corr = canonical_correlation_sum(h, h).item()
    assert abs(corr - 3.0) < 1e-6


def test_dccae_invertible_map_gives_full_correlation():
    # X2 = A X1 with invertible A: CCA is invariant under invertible linear maps
    rng = np.random.default_rng(4)
    x1 = 1e3 * rng.normal(size=(128, 2))
    a = np.array([[2.0, 0.5], [-0.3, 1.5]])
    x2 = x1 @ a.T
    corr = canonical_correlation_sum(nc.constant(x1), nc.constant(x2)).item()
    assert abs(corr - 2.0) < 1e-5
    # independent oracle: direct CCA solve with the same ridge
    def direct_cca(h1, h2, ridge=1e-3):
        h1 = h1 - h1.mean(0)
        h2 = h2 - h2.mean(0)
        n = h1.shape[0]
        s11 = h1.T @ h1 / (n - 1) + ridge * np.eye(h1.shape[1])
        s22 = h2.T @ h2 / (n - 1) + ridge * np.eye(h2.shape[1])
        s12 = h1.T @ h2 / (n - 1)
        def inv_sqrt(s):
            lam, v = np.linalg.eigh(s)
            return v @ np.diag(lam ** -0.5) @ v.T
        t = inv_sqrt(s11) @ s12 @ inv_sqrt(s22)
        return np.linalg.svd(t, compute_uv=False).sum()
    assert abs(corr - direct_cca(x1, x2)) < 1e-8


def test_dccae_lambda_zero_is_pure_dcca():
    state = make_tiny_state("dccae", **{"lambda": 0.0})
    views = make_tiny_views(batch=16)
    out = dccae_loss(state, views, _eps())
    assert abs(out.total.item() - out.terms["corr"].item()) < 1e-12
    assert abs(out.terms["recon[0<-0]"].item()) < 1e-12


# -- DVCCA ----------------------------------------------------------------------------


def test_dvcca_term_structure():
    views = make_tiny_views()
    plain = dvcca_loss(make_tiny_state("dvcca"), views, _eps())
    kl_terms = [k for k in plain.terms if k.startswith("kl")]
    assert kl_terms == ["kl[z]"]
    private = dvcca_loss(make_tiny_state("dvcca", private=True), views, _eps())
    kl_terms = sorted(k for k in private.terms if k.startswith("kl"))
    assert kl_terms == ["kl[h0]", "kl[h1]", "kl[z]"]


# -- mcVAE ----------------------------------------------------------------------------


def test_mcvae_single_view_is_standard_vae():
    state = make_tiny_state("mcvae", dims=(3,))
    views = make_tiny_views(dims=(3,))
    eps = _eps()
    out = mcvae_loss(state, views, eps)
    assert set(out.terms) == {"recon[0<-0]", "kl[0]"}
    # recompute the standard one-sample VAE loss with the same draw
    eps2 = _eps()
    q = state.encoders[0].forward(views[0])
    z = rsample(q, eps2.normal(q.shape))
    recon = -nc.mean(state.decoders[0].decode(z).log_prob(views[0])).item()
    from mvx.distributions import kl_to_standard

    kl = nc.mean(kl_to_standard(q)).item()
    assert abs(out.total.item() - (recon + kl)) < 1e-12


def test_mcvae_has_m_squared_recon_terms():
    state = make_tiny_state("mcvae", dims=(2, 2, 2))
    out = mcvae_loss(state, make_tiny_views(dims=(2, 2, 2)), _eps())
    recon_terms = [k for k in out.terms if k.startswith("recon")]
    assert len(recon_terms) == 9
    kl_terms = [k for k in out.terms if k.startswith("kl")]
    assert len(kl_terms) == 3


def test_mcvae_sparse_runs_and_uses_sparse_kl():
    state = make_tiny_state("mcvae", sparse=True)
    views = make_tiny_views()
    out = mcvae_loss(state, views, _eps())
    assert np.isfinite(out.total.item())
    # KL terms depend only on alpha, hence equal across modalities at init
    assert abs(out.terms["kl[0]"].item() - out.terms["kl[1]"].item()) < 1e-12
    # gradient reaches the dropout rates
    nc.backward(out.total)
    assert all(la.grad is not None for la in state.log_alphas)


# -- MVAE / me_mVAE ---------------------------------------------------------------------


def test_me_mvae_has_m_plus_one_elbo_groups():
    state = make_tiny_state("me_mvae", dims=(2, 2, 2))
    out = me_mvae_loss(state, make_tiny_views(dims=(2, 2, 2)), _eps())
    kl_terms = [k for k in out.terms if k.startswith("kl")]
    assert sorted(kl_terms) == ["kl[joint]", "kl[uni0]", "kl[uni1]", "kl[uni2]"]


def test_single_view_me_mvae_doubles_mvae():
    views = make_tiny_views(dims=(3,))
    mv = mvae_loss(make_tiny_state("mvae", dims=(3,)), views, _eps())
    me = me_mvae_loss(make_tiny_state("me_mvae", dims=(3,)), views, _eps())
    assert set(mv.terms) == {"recon[0<-joint]", "kl[joint]"}
    assert set(me.terms) == {"recon[0<-joint]", "kl[joint]", "recon[0<-uni0]", "kl[uni0]"}
    # both ELBO groups in me_mvae see the same posterior; the KL halves match
    assert abs(me.terms["kl[joint]"].item() - me.terms["kl[uni0]"].item()) < 1e-12


def _max_variance_encoders(state):
    """Zero-precision experts: with the prior expert included, the PoE joint
    collapses to the prior (zero-weight encoders alone cannot achieve this
    because precisions add)."""
    for enc in state.encoders:
        for name, p in enc.parameters():
            p.data[...] = 0.0
            if name.endswith("log_var.b"):
                p.data[...] = 20.0


def test_mvae_zero_kl_reduces_to_reconstruction():
    state = make_tiny_state("mvae")
    _max_variance_encoders(state)
    out = mvae_loss(state, make_tiny_views(), _eps())
    assert abs(out.terms["kl[joint]"].item()) < 1e-6
    recon = sum(v.item() for k, v in out.terms.items() if k.startswith("recon"))
    assert abs(out.total.item() - recon) < 1e-6


def test_me_mvae_zero_kl_reduces_to_reconstruction():
    state = make_tiny_state("me_mvae")
    _max_variance_encoders(state)
    out = me_mvae_loss(state, make_tiny_views(), _eps())
    for key, term in out.terms.items():
        if key.startswith("kl"):
            assert abs(term.item()) < 1e-6, key


# -- mmVAE -------------------------------------------------------------------------------


def test_mmvae_k1_m1_equals_single_view_elbo():
    state = make_tiny_state("mmvae", dims=(3,), K=1)
    views = make_tiny_views(dims=(3,))
    out = mmvae_iwae_loss(state, views, _eps())
    # one-sample ELBO computed with the same draw and a sampled KL estimate
    eps2 = _eps()
    q = state.encoders[0].forward(views[0])
    z = rsample(q, eps2.normal(q.shape))
    elbo = (
        state.decoders[0].decode(z).log_prob(views[0])
        + gaussian_log_prob(standard_normal(z.shape), z)
        - gaussian_log_prob(q, z)
    )
    assert abs(out.total.item() - (-nc.mean(elbo).item())) < 1e-9


def test_mmvae_iwae_monotone_in_k():
    # paired comparison on the same instance, averaged over eps draws
    state = make_tiny_state("mmvae", K=1)
    views = make_tiny_views(batch=4)
    k1, k8 = [], []
    for trial in range(200):
        state.cfg.K = 1
        k1.append(mmvae_iwae_loss(state, views, _eps(seed=1000 + trial)).total.item())
        state.cfg.K = 8
        k8.append(mmvae_iwae_loss(state, views, _eps(seed=1000 + trial)).total.item())
    # tighter bound: smaller negated objective
    assert np.mean(k8) <= np.mean(k1)


# -- MVTCAE ------------------------------------------------------------------------------


def test_mvtcae_alpha_zero_has_no_cvib_terms():
    state = make_tiny_state("mvtcae", alpha=0.5)
    state.cfg.alpha = 0.0
    out = mvtcae_loss(state, make_tiny_views(), _eps())
    assert not [k for k in out.terms if "cvib" in k]
    assert "kl[prior]" in out.terms


def test_mvtcae_alpha_one_drops_prior_term_and_scales_recon():
    views = make_tiny_views()
    state = make_tiny_state("mvtcae", alpha=0.5)
    state.cfg.alpha = 1.0
    out = mvtcae_loss(state, views, _eps())
    assert "kl[prior]" not in out.terms
    assert len([k for k in out.terms if "cvib" in k]) == 2
    # reconstruction coefficient (M-1)/M: compare against alpha=0 at equal draws
    state.cfg.alpha = 0.0
    base = mvtcae_loss(state, views, _eps())
    m = 2
    for key in ("recon[0<-joint]", "recon[1<-joint]"):
        assert abs(out.terms[key].item() - base.terms[key].item() * (m - 1) / m) < 1e-12


# -- MoPoE --------------------------------------------------------------------------------


def test_mopoe_single_view_is_standard_vae_shape():
    state = make_tiny_state("mopoe", dims=(3,))
    out = mopoe_loss(state, make_tiny_views(dims=(3,)), _eps())
    assert set(out.terms) == {"recon[0<-{0}]", "kl[{0}]"}


def test_mopoe_two_views_has_three_subset_posteriors():
    state = make_tiny_state("mopoe")
    out = mopoe_loss(state, make_tiny_views(), _eps())
    kl_terms = [k for k in out.terms if k.startswith("kl")]
    assert sorted(kl_terms) == ["kl[{0+1}]", "kl[{0}]", "kl[{1}]"]
    recon_terms = [k for k in out.terms if k.startswith("recon")]
    assert len(recon_terms) == 6


def test_mopoe_stochastic_mode_runs():
    state = make_tiny_state("mopoe", stochastic_subsets=True)
    out = mopoe_loss(state, make_tiny_views(batch=8), _eps())
    assert np.isfinite(out.total.item())


# -- weighted mVAE ---------------------------------------------------------------------------


def test_weighted_mvae_uniform_alpha_matches_scaled_poe():
    # frozen uniform weights 1/M: the gPoE precisions are the PoE precisions
    # scaled by 1/M (plus the unit prior expert in both cases)
    state = make_tiny_state("weighted_mvae")
    views = make_tiny_views()
    from mvx.distributions import kl_to_standard  # noqa: F401
    from mvx.pooling import gpoe, poe
    from mvx.objectives import gpoe_weights

    experts = [enc.forward(x) for enc, x in zip(state.encoders, views)]
    w = gpoe_weights(state)
    assert np.allclose(w.data, 0.5)
    fused = gpoe(experts + [standard_normal(experts[0].shape)],
                 [nc.row(w, m) for m in range(len(experts))] + [1.0])
    prec = np.exp(-fused.log_var.data)
    expect = 1.0 + 0.5 * sum(np.exp(-e.log_var.data) for e in experts)
    assert np.allclose(prec, expect, atol=1e-12)


def test_weighted_mvae_alpha_gets_gradient():
    state = make_tiny_state("weighted_mvae")
    out = weighted_mvae_loss(state, make_tiny_views(), _eps())
    nc.backward(out.total)
    assert state.alpha_logits.grad is not None
    assert np.any(state.alpha_logits.grad != 0)


# -- mmJSD -------------------------------------------------------------------------------------


def test_mmjsd_zero_posteriors_zero_divergence():
    state = make_tiny_state("mmjsd")
    zero_encoders(state)
    out = mmjsd_loss(state, make_tiny_views(), _eps())
    for key in ("kl[js0]", "kl[js1]", "kl[js_prior]"):
        assert abs(out.terms[key].item()) < 1e-12


def test_mmjsd_term_count_and_default_weights():
    state = make_tiny_state("mmjsd", dims=(2, 2, 2))
    out = mmjsd_loss(state, make_tiny_views(dims=(2, 2, 2)), _eps())
    kl_terms = [k for k in out.terms if k.startswith("kl")]
    assert len(kl_terms) == 4  # M + 1


# -- MMVAE+ ---------------------------------------------------------------------------------------


def test_mmvaeplus_single_view_reduces_to_vae_over_both_latents():
    state = make_tiny_state("mmvaeplus", dims=(3,), K=1)
    views = make_tiny_views(dims=(3,))
    out = mmvaeplus_loss(state, views, _eps())
    eps2 = _eps()
    q_z = state.encoders[0].forward(views[0])
    z = rsample(q_z, eps2.normal(q_z.shape))
    q_h = state.private_encoders[0].forward(views[0])
    h = rsample(q_h, eps2.normal(q_h.shape))
    elbo = (
        state.decoders[0].decode(nc.concat_cols([z, h])).log_prob(views[0])
        + gaussian_log_prob(standard_normal(z.shape), z)
        + gaussian_log_prob(standard_normal(h.shape), h)
        - gaussian_log_prob(q_z, z)
        - gaussian_log_prob(q_h, h)
    )
    assert abs(out.total.item() - (-nc.mean(elbo).item())) < 1e-9


def test_mmvaeplus_cross_privates_independent_of_inputs():
    # permutation oracle: replaying the objective on a permuted batch leaves
    # the auxiliary-prior draws untouched, while the posterior samples (which
    # do depend on the inputs) change row-wise
    from helpers import RecordingEps

    state = make_tiny_state("mmvaeplus", K=1, seed=7)
    rng = np.random.default_rng(0)
    x0 = rng.normal(size=(6, 2))
    x1 = rng.normal(size=(6, 2))
    perm = np.random.default_rng(1).permutation(6)

    rec_a = RecordingEps(np.random.default_rng(9))
    mmvaeplus_loss(state, [nc.constant(x0), nc.constant(x1)], rec_a)
    rec_b = RecordingEps(np.random.default_rng(9))
    mmvaeplus_loss(state, [nc.constant(x0[perm]), nc.constant(x1[perm])], rec_b)

    # draw order per modality m: z_m, h_m, then one aux draw per other view;
    # for M=2, K=1 the aux draws sit at positions 2 and 5
    assert len(rec_a.draws) == 6
    for pos in (2, 5):
        assert np.array_equal(rec_a.draws[pos], rec_b.draws[pos])
    # the cross private code fed to the decoder is scale * eps: identical
    # arrays for both batches, so it carries no information about the inputs
    scale1 = np.exp(state.aux_log_scales[1].data)
    h_tilde_a = scale1 * rec_a.draws[2]
    h_tilde_b = scale1 * rec_b.draws[2]
    assert np.array_equal(h_tilde_a, h_tilde_b)
    # whereas the modality-0 posterior sample differs once rows move
    q0_a = state.encoders[0].forward(nc.constant(x0))
    q0_b = state.encoders[0].forward(nc.constant(x0[perm]))
    z_a = rsample(q0_a, nc.constant(rec_a.draws[0])).data
    z_b = rsample(q0_b, nc.constant(rec_b.draws[0])).data
    assert not np.allclose(z_a, z_b)


def test_mmvaeplus_aux_scale_receives_gradient():
    state = make_tiny_state("mmvaeplus", K=2)
    out = mmvaeplus_loss(state, make_tiny_views(), _eps())
    nc.backward(out.total)
    assert all(t.grad is not None for t in state.aux_log_scales)


# -- DMVAE ------------------------------------------------------------------------------------------


def test_dmvae_group_structure():
    m = 2
    state = make_tiny_state("dmvae")
    out = dmvae_loss(state, make_tiny_views(), _eps())
    joint_recon = [k for k in out.terms if k.startswith("recon") and "joint" in k]
    pair_recon = [k for k in out.terms if k.startswith("recon") and "joint" not in k]
    assert len(joint_recon) == m
    assert len(pair_recon) == m * m


def test_dmvae_zero_posteriors_kl_structure():
    # with every posterior at the prior, the private and pairwise shared KLs
    # vanish; the joint KL equals the analytic constant left by the prior
    # expert (PoE of M priors + prior = N(0, 1/(M+1)))
    state = make_tiny_state("dmvae")
    zero_encoders(state)
    out = dmvae_loss(state, make_tiny_views(), _eps())
    m, z_dim = 2, 2
    var = 1.0 / (m + 1)
    expected_joint = 0.5 * z_dim * (var - 1.0 - math.log(var))
    for key, term in out.terms.items():
        if key.startswith("kl[h") or key.startswith("kl[z"):
            assert abs(term.item()) < 1e-12, key
        elif key.startswith("kl[joint"):
            assert abs(term.item() - expected_joint) < 1e-12, key


# -- adversarial --------------------------------------------------------------------------------------


def test_maae_untrained_discriminator_loss():
    state = make_tiny_state("maae")
    for _, p in state.discriminator.parameters():
        p.data[...] = 0.0
    out = maae_losses(state, make_tiny_views(), _eps())
    assert abs(out.discriminator.item() - (-2.0 * math.log(0.5))) < 1e-12


def test_maae_reconstruction_equals_ae_loss():
    views = make_tiny_views()
    state = make_tiny_state("maae")
    ae_state = make_tiny_state("ae")
    # same seed: identical encoder/decoder init
    out_adv = maae_losses(state, views, _eps())
    out_ae = ae_loss(ae_state, views, _eps())
    assert abs(out_adv.reconstruction.total.item() - out_ae.total.item()) < 1e-12


def test_maae_non_saturating_flag():
    views = make_tiny_views()
    state = make_tiny_state("maae")
    sat = maae_losses(state, views, _eps()).generator.item()
    state.cfg.non_saturating = True
    nonsat = maae_losses(state, views, _eps()).generator.item()
    assert sat != nonsat


def test_mwae_zero_critic_gives_zero_losses():
    state = make_tiny_state("mwae")
    for _, p in state.discriminator.parameters():
        p.data[...] = 0.0
    out = mwae_losses(state, make_tiny_views(), _eps())
    assert abs(out.discriminator.item()) < 1e-12
    assert abs(out.generator.item()) < 1e-12
    assert abs(out.total.item() - out.reconstruction.total.item()) < 1e-12


def test_mwae_audit_total_combines_terms():
    state = make_tiny_state("mwae")
    out = mwae_losses(state, make_tiny_views(), _eps())
    combined = (out.reconstruction.total.item()
                + out.discriminator.item() + out.generator.item())
    assert abs(out.total.item() - combined) < 1e-9
