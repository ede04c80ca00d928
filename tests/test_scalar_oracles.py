"""Every objective vs an independent plain-scalar recomputation (1e-6)."""

import numpy as np
import pytest

from mvx import numcore as nc
from mvx.objectives import (
    ADVERSARIAL_OBJECTIVES,
    PLAIN_OBJECTIVES,
    VARIATIONAL_OBJECTIVES,
)

import oracle
from helpers import RecordingEps, make_tiny_state

TOL = 1e-6


def _views(dims=(2, 2), batch=2, seed=31):
    rng = np.random.default_rng(seed)
    return [nc.constant(rng.normal(size=(batch, d))) for d in dims]


CASES = [
    # (case id, model, oracle fn, extra model keys)
    ("ae", "ae", oracle.oracle_ae, {}),
    ("jmvae_kl", "jmvae", oracle.oracle_jmvae, {"alpha": 0.7}),
    ("jmvae_alpha0", "jmvae", oracle.oracle_jmvae, {}),
    ("dccae", "dccae", oracle.oracle_dccae, {"lambda": 0.5}),
    ("dvcca", "dvcca", oracle.oracle_dvcca, {}),
    ("dvcca_private", "dvcca", oracle.oracle_dvcca, {"private": True}),
    ("mcvae", "mcvae", oracle.oracle_mcvae, {}),
    ("mcvae_sparse", "mcvae", oracle.oracle_mcvae, {"sparse": True}),
    ("mvae", "mvae", oracle.oracle_mvae, {}),
    ("me_mvae", "me_mvae", oracle.oracle_me_mvae, {}),
    ("mmvae_k2", "mmvae", oracle.oracle_mmvae, {"K": 2}),
    ("mvtcae", "mvtcae", oracle.oracle_mvtcae, {"alpha": 0.5, "beta": 2.5}),
    ("mopoe", "mopoe", oracle.oracle_mopoe, {}),
    ("weighted_mvae", "weighted_mvae", oracle.oracle_weighted_mvae, {}),
    ("mmjsd", "mmjsd", oracle.oracle_mmjsd, {}),
    ("mmvaeplus_k2", "mmvaeplus", oracle.oracle_mmvaeplus, {"K": 2}),
    ("dmvae", "dmvae", oracle.oracle_dmvae, {"lambda": [0.8, 1.2]}),
]


@pytest.mark.parametrize("case_id,name,oracle_fn,keys", CASES,
                         ids=[c[0] for c in CASES])
def test_objective_matches_scalar_oracle(case_id, name, oracle_fn, keys):
    state = make_tiny_state(name, seed=7, **keys)
    if case_id == "jmvae_alpha0":
        state.cfg.alpha = 0.0
    # the correlation objective needs batch > latent dim for a full-rank
    # covariance (it is a full-batch model); everything else runs at batch 2
    views = _views(seed=31, batch=8 if name == "dccae" else 2)
    rec = RecordingEps(np.random.default_rng(97))
    objective = {**VARIATIONAL_OBJECTIVES, **PLAIN_OBJECTIVES}[name]
    ours = objective(state, views, rec).total.item()
    ref = oracle_fn(state, views, rec.draws)
    assert abs(ours - ref) < TOL, f"{case_id}: {ours} vs {ref}"


@pytest.mark.parametrize("name,oracle_fn", [
    ("maae", oracle.oracle_maae),
    ("mwae", oracle.oracle_mwae),
])
def test_adversarial_matches_scalar_oracle(name, oracle_fn):
    state = make_tiny_state(name, seed=7)
    views = _views(seed=31)
    rec = RecordingEps(np.random.default_rng(97))
    out = ADVERSARIAL_OBJECTIVES[name](state, views, rec)
    ref_recon, ref_disc, ref_gen = oracle_fn(state, views, rec.draws)
    assert abs(out.reconstruction.total.item() - ref_recon) < TOL
    assert abs(out.discriminator.item() - ref_disc) < TOL
    assert abs(out.generator.item() - ref_gen) < TOL


def test_maae_non_saturating_oracle():
    state = make_tiny_state("maae", seed=7, non_saturating=True)
    views = _views(seed=31)
    rec = RecordingEps(np.random.default_rng(97))
    out = ADVERSARIAL_OBJECTIVES["maae"](state, views, rec)
    _, _, ref_gen = oracle.oracle_maae(state, views, rec.draws)
    assert abs(out.generator.item() - ref_gen) < TOL


def test_oracle_consumes_all_draws():
    # guards the draw-order documentation: the oracle must interpret every
    # recorded draw exactly once
    state = make_tiny_state("mmvaeplus", seed=7, K=2)
    views = _views(seed=31)
    rec = RecordingEps(np.random.default_rng(97))
    VARIATIONAL_OBJECTIVES["mmvaeplus"](state, views, rec)
    q = oracle.DrawQueue(rec.draws)
    m_total, k_total = 2, 2
    for m in range(m_total):
        for _ in range(k_total):
            q.next()
            q.next()
            for n in range(m_total):
                if n != m:
                    q.next()
    assert q.done()
