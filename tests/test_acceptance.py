"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The desk-scale experiment (criterion 5) dominates the runtime; the
learning check of the two IWAE models reuses its data.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from mvx import numcore as nc
from mvx.config import build_config, load_config
from mvx.data import MultiViewBatch, SyntheticSpec, generate_synthetic
from mvx.distributions import GaussianParams, gaussian_log_prob, kl_normal, rsample, standard_normal
from mvx.errors import ConfigError
from mvx.evaluation import coherence, joint_log_likelihood, train_probe_classifier
from mvx.objectives import (
    ADVERSARIAL_OBJECTIVES,
    EpsStream,
    PLAIN_OBJECTIVES,
    VARIATIONAL_OBJECTIVES,
    jmvae_kl_loss,
    mmvae_iwae_loss,
    mvtcae_loss,
)
from mvx.pooling import enumerate_subsets, gpoe, poe
from mvx.training import fit, predict_reconstruction

import oracle
from helpers import RecordingEps, make_tiny_state, make_tiny_views, s_dim_key

FIXTURES = Path(__file__).parent / "fixtures"


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num} ({name}): {status}" + (f" [{detail}]" if detail else ""))
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# -- criterion 1: gradient suite ------------------------------------------------


def test_criterion_1_gradient_suite():
    import test_objective_gradients as g

    start = time.monotonic()
    for case in g.VARIATIONAL_CASES:
        g.test_variational_objective_gradients(case)
    for case in ("ae", "dccae"):
        g.test_plain_objective_gradients(case)
    for case in ("maae", "mwae"):
        g.test_adversarial_objective_gradients(case)
    elapsed = time.monotonic() - start
    _report(1, "gradient suite", elapsed < 60.0,
            f"all 18 model gradient checks passed in {elapsed:.1f}s")


# -- criterion 2: closed-form oracles -----------------------------------------------


def test_criterion_2_closed_form_oracles():
    # kl_normal vs Monte-Carlo at 3 sigma
    rng = np.random.default_rng(0)
    mq, lq, mp, lp = 0.4, math.log(0.7), -0.8, math.log(1.9)
    q = GaussianParams(nc.constant([[mq]]), nc.constant([[lq]]))
    p = GaussianParams(nc.constant([[mp]]), nc.constant([[lp]]))
    closed = kl_normal(q, p).item()
    n = 100_000
    z = mq + math.sqrt(math.exp(lq)) * rng.standard_normal(n)
    log_ratio = (-0.5 * (np.log(2 * np.pi) + lq + (z - mq) ** 2 / math.exp(lq))
                 + 0.5 * (np.log(2 * np.pi) + lp + (z - mp) ** 2 / math.exp(lp)))
    mc, se = log_ratio.mean(), log_ratio.std(ddof=1) / math.sqrt(n)
    kl_ok = abs(closed - mc) < 3 * se

    # poe vs normalized grid product
    experts_spec = [(0.5, 0.6), (-1.0, 2.0), (0.2, 0.9)]
    experts = [GaussianParams(nc.constant([[m]]), nc.constant([[math.log(v)]]))
               for m, v in experts_spec]
    pooled = poe(experts)
    grid = np.linspace(-8, 8, 160001)
    dx = grid[1] - grid[0]
    prod = np.ones_like(grid)
    for m, v in experts_spec:
        prod *= np.exp(-((grid - m) ** 2) / (2 * v)) / np.sqrt(2 * np.pi * v)
    prod /= prod.sum() * dx
    mu, var = pooled.mean.item(), math.exp(pooled.log_var.item())
    ours = np.exp(-((grid - mu) ** 2) / (2 * var)) / np.sqrt(2 * np.pi * var)
    poe_dev = float(np.abs(prod - ours).max())

    # gpoe(alpha=1) bitwise equals poe
    rng2 = np.random.default_rng(5)
    experts2 = [GaussianParams(nc.constant(rng2.normal(size=(4, 3))),
                               nc.constant(rng2.uniform(-1, 1, (4, 3))))
                for _ in range(3)]
    p_ref = poe(list(experts2))
    g_ref = gpoe(list(experts2), [nc.constant(np.ones(3)) for _ in range(3)])
    bitwise = (p_ref.mean.data.tobytes() == g_ref.mean.data.tobytes()
               and p_ref.log_var.data.tobytes() == g_ref.log_var.data.tobytes())

    counts_ok = all(len(enumerate_subsets(m)) == 2 ** m - 1 for m in range(1, 9))

    _report(2, "closed-form oracles",
            kl_ok and poe_dev < 1e-6 and bitwise and counts_ok,
            f"kl |closed-mc|={abs(closed - mc):.2e} (3se={3*se:.2e}), "
            f"poe grid dev={poe_dev:.2e}, gpoe bitwise={bitwise}, subsets ok={counts_ok}")


# -- criterion 3: reduction identities ------------------------------------------------


def test_criterion_3_reduction_identities():
    views = make_tiny_views()
    # jmvae alpha=0 term-equals JMVAE
    state = make_tiny_state("jmvae")
    state.cfg.alpha = 0.0
    plain = jmvae_kl_loss(state, views, EpsStream(np.random.default_rng(5)))
    jmvae_terms = set(plain.terms) == {"recon[0<-joint]", "recon[1<-joint]", "kl[joint]"}
    state.cfg.alpha = 0.9
    with_kl = jmvae_kl_loss(state, views, EpsStream(np.random.default_rng(5)))
    shared_equal = all(
        abs(plain.terms[k].item() - with_kl.terms[k].item()) < 1e-12
        for k in plain.terms
    )

    # mvtcae alpha=0 has no CVIB terms
    state_tc = make_tiny_state("mvtcae", alpha=0.5)
    state_tc.cfg.alpha = 0.0
    out_tc = mvtcae_loss(state_tc, views, EpsStream(np.random.default_rng(5)))
    no_cvib = not [k for k in out_tc.terms if "cvib" in k]

    # mmvae IWAE K=1, M=1 equals the single-view ELBO within 1e-9
    state_mm = make_tiny_state("mmvae", dims=(3,), K=1)
    views1 = make_tiny_views(dims=(3,))
    out_mm = mmvae_iwae_loss(state_mm, views1, EpsStream(np.random.default_rng(5)))
    eps2 = EpsStream(np.random.default_rng(5))
    q = state_mm.encoders[0].forward(views1[0])
    z = rsample(q, eps2.normal(q.shape))
    elbo = (state_mm.decoders[0].decode(z).log_prob(views1[0])
            + gaussian_log_prob(standard_normal(z.shape), z)
            - gaussian_log_prob(q, z))
    iwae_match = abs(out_mm.total.item() - (-nc.mean(elbo).item())) < 1e-9

    _report(3, "reduction identities",
            jmvae_terms and shared_equal and no_cvib and iwae_match,
            f"jmvae terms={jmvae_terms}, shared equal={shared_equal}, "
            f"no cvib={no_cvib}, iwae elbo match={iwae_match}")


# -- criterion 4: scalar-oracle equivalence ---------------------------------------------


def test_criterion_4_scalar_oracles():
    cases = [
        ("ae", "ae", oracle.oracle_ae, {}),
        ("jmvae_kl", "jmvae", oracle.oracle_jmvae, {"alpha": 0.7}),
        ("dccae", "dccae", oracle.oracle_dccae, {"lambda": 0.5}),
        ("dvcca", "dvcca", oracle.oracle_dvcca, {}),
        ("dvcca_private", "dvcca", oracle.oracle_dvcca, {"private": True}),
        ("mcvae", "mcvae", oracle.oracle_mcvae, {}),
        ("mcvae_sparse", "mcvae", oracle.oracle_mcvae, {"sparse": True}),
        ("mvae", "mvae", oracle.oracle_mvae, {}),
        ("me_mvae", "me_mvae", oracle.oracle_me_mvae, {}),
        ("mmvae", "mmvae", oracle.oracle_mmvae, {"K": 2}),
        ("mvtcae", "mvtcae", oracle.oracle_mvtcae, {"alpha": 0.5, "beta": 2.5}),
        ("mopoe", "mopoe", oracle.oracle_mopoe, {}),
        ("weighted_mvae", "weighted_mvae", oracle.oracle_weighted_mvae, {}),
        ("mmjsd", "mmjsd", oracle.oracle_mmjsd, {}),
        ("mmvaeplus", "mmvaeplus", oracle.oracle_mmvaeplus, {"K": 2}),
        ("dmvae", "dmvae", oracle.oracle_dmvae, {"lambda": [0.8, 1.2]}),
    ]
    worst = 0.0
    rng_views = np.random.default_rng(31)
    for case_id, name, fn, keys in cases:
        state = make_tiny_state(name, seed=7, **keys)
        batch = 8 if name == "dccae" else 2
        views = [nc.constant(rng_views.normal(size=(batch, d))) for d in (2, 2)]
        rec = RecordingEps(np.random.default_rng(97))
        ours = {**VARIATIONAL_OBJECTIVES, **PLAIN_OBJECTIVES}[name](
            state, views, rec).total.item()
        ref = fn(state, views, rec.draws)
        worst = max(worst, abs(ours - ref))
        assert abs(ours - ref) < 1e-6, case_id
    # the two adversarial objectives complete the 16-model roster
    for name, fn in (("maae", oracle.oracle_maae), ("mwae", oracle.oracle_mwae)):
        state = make_tiny_state(name, seed=7)
        views = [nc.constant(rng_views.normal(size=(2, d))) for d in (2, 2)]
        rec = RecordingEps(np.random.default_rng(97))
        out = ADVERSARIAL_OBJECTIVES[name](state, views, rec)
        ref_recon, ref_disc, ref_gen = fn(state, views, rec.draws)
        for ours_v, ref_v in ((out.reconstruction.total.item(), ref_recon),
                              (out.discriminator.item(), ref_disc),
                              (out.generator.item(), ref_gen)):
            worst = max(worst, abs(ours_v - ref_v))
            assert abs(ours_v - ref_v) < 1e-6, name
    _report(4, "scalar-oracle equivalence", worst < 1e-6,
            f"16 objectives, worst |impl - oracle| = {worst:.2e}")


# -- criterion 5: desk-scale coherence experiment -----------------------------------------


@pytest.fixture(scope="module")
def synthetic_splits():
    spec = SyntheticSpec(n_classes=8, n_samples=2500, dims=[24, 24, 24],
                         style_noise=0.1, background_noise=1.0, seed=0)
    full = generate_synthetic(spec)
    idx = np.arange(2500)
    return full.subset(idx[:2000]), full.subset(idx[2000:])


def test_criterion_5_desk_scale_coherence(synthetic_splits):
    train, test = synthetic_splits
    start = time.monotonic()
    probes = [train_probe_classifier(v, train.labels, seed=0) for v in train.views]
    base = {
        "model.z_dim": 8, "model.seed": 0,
        "encoder.default.hidden_layer_dim": [32],
        "decoder.default.hidden_layer_dim": [32],
        "decoder.default.distribution": "Normal",
        "decoder.default.scale": 0.75,
        "trainer.max_epochs": 200, "trainer.batch_size": 256,
    }
    results = {}
    for name, extra in [
        ("me_mvae", {}),
        ("mvtcae", {"model.beta": 2.5, "model.alpha": 0.5}),
        ("mopoe", {}),
        ("weighted_mvae", {}),
    ]:
        flat = dict(base)
        flat["model.name"] = name
        flat.update(extra)
        run = fit(build_config(flat), train)
        results[name] = coherence(run, test, probes)
    elapsed = time.monotonic() - start
    all_above = all(rep.mean_cross_modal() >= 0.80 for rep in results.values())
    tc = results["mvtcae"].per_size
    sizes = sorted(tc)
    nondecreasing = all(tc[sizes[i]] <= tc[sizes[i + 1]] + 1e-12
                        for i in range(len(sizes) - 1))
    summary = "; ".join(
        f"{name}: mean_cross={rep.mean_cross_modal():.3f} "
        + "/".join(f"{rep.per_size[s]:.2f}" for s in sorted(rep.per_size))
        for name, rep in results.items()
    )
    _report(5, "desk-scale coherence",
            all_above and nondecreasing and elapsed < 600.0,
            f"{summary}; mvtcae non-decreasing={nondecreasing}; {elapsed:.0f}s")


@pytest.mark.parametrize("name, extra", [("mmvae", {}), ("mmvaeplus", {"model.s_dim": 4})])
def test_the_iwae_models_learn_at_desk_scale(synthetic_splits, name, extra):
    # model seeds 0/1/2 gave coherence 0.894/0.871/0.824 and error
    # 0.677/0.672/0.673 (mmvae), 0.863/0.879/0.799 and 0.663/0.659/0.679
    # (mmvaeplus); seed 0 is asserted
    train, test = synthetic_splits
    probes = [train_probe_classifier(v, train.labels, seed=0) for v in train.views]
    flat = {"model.name": name, "model.z_dim": 8, "model.seed": 0, "model.K": 4,
            "encoder.default.hidden_layer_dim": [32], "decoder.default.hidden_layer_dim": [32],
            "decoder.default.distribution": "Normal", "decoder.default.scale": 0.75,
            "trainer.max_epochs": 20, "trainer.batch_size": 256, **extra}
    run = fit(build_config(flat), train)
    assert coherence(run, test, probes).mean_cross_modal() >= 0.75
    # the worst held-out self-reconstruction error, over the view's variance
    recon = predict_reconstruction(run, test)
    assert max(np.mean((recon[m][m] - x) ** 2) / x.var()
               for m, x in enumerate(test.views)) <= 0.72


# -- criterion 6: joint log-likelihood estimator -------------------------------------------


def test_criterion_6_joint_log_likelihood():
    from test_evaluation import _linear_gaussian_run

    run, data, exact = _linear_gaussian_run(exact_posterior=False, perturb=0.08)
    est = joint_log_likelihood(run, data, K=1000, eval_seed=0)
    err = abs(est - exact)
    _report(6, "joint log-likelihood", err < 0.05,
            f"K=1000 estimate {est:.4f} vs exact {exact:.4f} (|err|={err:.4f} nats)")


# -- criterion 7: optimization sanity ----------------------------------------------------------


@pytest.fixture(scope="module")
def linear_gaussian_toy():
    rng = np.random.default_rng(12)
    z = rng.standard_normal((64, 2))
    w1 = rng.normal(size=(2, 3))
    w2 = rng.normal(size=(2, 4))
    return MultiViewBatch(views=[
        z @ w1 + 0.1 * rng.standard_normal((64, 3)),
        z @ w2 + 0.1 * rng.standard_normal((64, 4)),
    ])


def test_criterion_7_optimization_sanity(linear_gaussian_toy):
    data = linear_gaussian_toy
    cases = [
        ("jmvae", {}), ("dvcca", {}), ("dvcca", {"model.private": True}),
        ("mcvae", {}), ("mcvae", {"model.sparse": True}), ("mvae", {}),
        ("me_mvae", {}), ("mmvae", {}), ("mvtcae", {"model.alpha": 0.5}),
        ("mopoe", {}), ("weighted_mvae", {}), ("mmjsd", {}),
        ("mmvaeplus", {}), ("dmvae", {}),
    ]
    failures = []
    for name, extra in cases:
        flat = {"model.name": name, "model.z_dim": 2,
                **s_dim_key(name, 2, extra.get("model.private", False)),
                "model.seed": 1,
                "encoder.default.hidden_layer_dim": [16],
                "decoder.default.hidden_layer_dim": [16],
                "trainer.max_epochs": 200, "trainer.batch_size": 64}
        flat.update(extra)
        run = fit(build_config(flat), data)
        if not run.history[-1]["total"] < run.history[0]["total"]:
            failures.append(f"{name}{extra}")
    disc_accs = {}
    for name in ("maae", "mwae"):
        flat = {"model.name": name, "model.z_dim": 2, "model.seed": 1,
                "encoder.default.hidden_layer_dim": [16],
                "decoder.default.hidden_layer_dim": [16],
                "trainer.max_epochs": 200, "trainer.batch_size": 64}
        run = fit(build_config(flat), data)
        recon_keys = [k for k in run.history[0] if k.startswith("recon")]
        r0 = sum(run.history[0][k] for k in recon_keys)
        r1 = sum(run.history[-1][k] for k in recon_keys)
        if not r1 < r0:
            failures.append(f"{name} recon")
        state = run.state
        views = [nc.constant(v) for v in data.views]
        es = EpsStream(np.random.default_rng(99))
        with nc.no_grad():
            correct = []
            for m in range(2):
                z_enc = state.encoders[m].forward(views[m])
                z_prior = es.normal(z_enc.shape)
                d_enc = state.discriminator.score(z_enc).data
                d_prior = state.discriminator.score(z_prior).data
                if name == "maae":
                    correct.append(np.concatenate([d_prior > 0.5, d_enc < 0.5]))
                else:
                    correct.append(d_prior > d_enc)
            acc = float(np.mean(np.concatenate(correct)))
        disc_accs[name] = acc
        if not 0.3 < acc < 0.95:
            failures.append(f"{name} disc_acc={acc:.3f}")
    _report(7, "optimization sanity", not failures,
            f"14 variational runs decreased; adversarial disc accs {disc_accs}"
            + (f"; failures: {failures}" if failures else ""))


# -- criterion 8: reproducibility -----------------------------------------------------------------


def test_criterion_8_reproducibility(tmp_path):
    data = generate_synthetic(SyntheticSpec(
        n_classes=3, n_samples=48, dims=[4, 5], seed=6, background_noise=0.4))
    blobs = []
    for i in range(2):
        out = tmp_path / f"run{i}"
        cfg = build_config({"model.name": "mmjsd", "model.z_dim": 3,
                            "model.seed": 11, "trainer.max_epochs": 5,
                            "trainer.batch_size": 16})
        fit(cfg, data, out_dir=out)
        blobs.append(((out / "checkpoint.mvxc").read_bytes(),
                      (out / "metrics.csv").read_bytes()))
    same_ckpt = blobs[0][0] == blobs[1][0]
    same_metrics = blobs[0][1] == blobs[1][1]
    _report(8, "reproducibility", same_ckpt and same_metrics,
            f"checkpoint bitwise={same_ckpt}, metrics bitwise={same_metrics}")


# -- criterion 9: config validation -----------------------------------------------------------------


def test_criterion_9_config_validation():
    neg = sorted(FIXTURES.glob("neg_*.cfg"))
    pos = sorted(FIXTURES.glob("pos_*.cfg"))
    assert neg and pos
    wrongly_accepted = []
    missing_key_path = []
    for path in neg:
        try:
            load_config(path)
            wrongly_accepted.append(path.name)
        except ConfigError as err:
            msg = str(err)
            if not (msg.startswith("model.") or msg.startswith("trainer.")
                    or msg.startswith("encoder.") or msg.startswith("decoder.")):
                missing_key_path.append(f"{path.name}: {msg}")
    rejected_positive = []
    for path in pos:
        try:
            load_config(path)
        except ConfigError as err:
            rejected_positive.append(f"{path.name}: {err}")
    ok = not wrongly_accepted and not missing_key_path and not rejected_positive
    _report(9, "config validation", ok,
            f"{len(neg)} negative fixtures rejected with key paths, "
            f"{len(pos)} positive fixtures accepted"
            + (f"; bad: {wrongly_accepted + missing_key_path + rejected_positive}"
               if not ok else ""))
