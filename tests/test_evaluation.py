"""Evaluation metrics: probe oracle, coherence gates, exact-loglik checks."""

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from mvx import evaluation
from mvx import numcore as nc
from mvx.config import build_config
from mvx.data import MultiViewBatch, SyntheticSpec, generate_synthetic
from mvx.errors import ContractError, DegenerateLabelError, NumericError, UnsupportedMetricError
from mvx.distributions import gaussian_log_prob, rsample, standard_normal
from mvx.evaluation import (
    LOGLIK_CHUNK_ROWS,
    coherence,
    coherence_csv,
    joint_log_likelihood,
    metric_csv,
    train_probe_classifier,
)
from mvx.objectives import MODEL_SPECS
from mvx.pooling import MAX_SUBSET_MODALITIES, ExpertSet, moe_log_prob
from mvx.training import _read, fit

from helpers import (
    assert_per_op_check_on,
    gaussian_log_density,
    linear_gaussian_views,
    linear_model_log_likelihood,
    poison_layers,
    ppca_log_likelihood,
)


# -- probe classifier -----------------------------------------------------------


def _clean_data(n=120, classes=4, dims=(8, 6), seed=2, noise=0.0):
    return generate_synthetic(SyntheticSpec(
        n_classes=classes, n_samples=n, dims=list(dims), seed=seed,
        background_noise=noise))


def test_probe_reaches_full_accuracy_on_separable_data():
    data = _clean_data()
    probe = train_probe_classifier(data.views[0], data.labels, seed=0)
    assert probe.accuracy(data.views[0], data.labels) == 1.0


def test_untrained_probe_is_at_chance():
    # unstructured inputs with balanced labels: prediction and label are
    # independent, so the match rate sits at 1/C
    rng = np.random.default_rng(5)
    x = rng.normal(size=(2000, 6))
    labels = np.arange(2000) % 4
    probe = train_probe_classifier(x, labels, seed=0, epochs=0)
    acc = probe.accuracy(x, labels)
    assert abs(acc - 0.25) < 0.05


def test_probe_deterministic_per_seed():
    data = _clean_data()
    a = train_probe_classifier(data.views[0], data.labels, seed=3)
    b = train_probe_classifier(data.views[0], data.labels, seed=3)
    assert np.array_equal(a.predict(data.views[0]), b.predict(data.views[0]))


def test_probe_rejects_single_class():
    with pytest.raises(DegenerateLabelError):
        train_probe_classifier(np.zeros((10, 3)), np.zeros(10, dtype=int))


@pytest.mark.parametrize("labels, message", [
    (np.arange(10) % 3 - 1, "labels must be non-negative"),
    ((np.arange(10) % 3).astype(float), "labels must be an integer vector of length 10, "
                                        "got float64 of shape (10,)"),
    (np.arange(9) % 3, "labels must be an integer vector of length 10, got int64 of shape (9,)"),
    ((np.arange(10) % 3)[:, None], "labels must be an integer vector of length 10, "
                                   "got int64 of shape (10, 1)"),
], ids=["negative", "float", "short", "column"])
def test_probe_rejects_labels_that_are_not_a_class_per_row(labels, message):
    # a label of -1 would index the last class of the one-hot target
    with pytest.raises(ContractError) as err:
        train_probe_classifier(np.zeros((10, 3)), labels)
    assert str(err.value) == f"train_probe_classifier: {message}"


# -- coherence --------------------------------------------------------------------


def _oracle_mvtcae_run(data, classes):
    """Hand-built generative model that is exact on noiseless data."""
    cfg = build_config({
        "model.name": "mvtcae", "model.z_dim": classes, "model.alpha": 0.5,
        "encoder.default.hidden_layer_dim": [],
        "encoder.default.non_linear": False,
        "decoder.default.hidden_layer_dim": [],
        "decoder.default.non_linear": False,
        "trainer.max_epochs": 0,
    })
    run = fit(cfg, data)
    # recover the per-view class templates from the data itself
    for m, view in enumerate(data.views):
        templates = np.stack([view[data.labels == c][0] for c in range(classes)])
        enc = run.state.encoders[m]
        enc.w_mean.data = np.linalg.pinv(templates)
        enc.b_mean.data[...] = 0.0
        dec = run.state.decoders[m]
        dec.layers[0][0].data = templates.copy()
        dec.layers[0][1].data[...] = 0.0
    return run


def test_coherence_perfect_model_on_noiseless_data():
    classes = 3
    data = _clean_data(n=90, classes=classes, dims=(6, 5), noise=0.0)
    run = _oracle_mvtcae_run(data, classes)
    probes = [train_probe_classifier(v, data.labels, seed=0) for v in data.views]
    report = coherence(run, data, probes)
    assert set(report.per_size) == {1, 2}
    for acc in report.per_size.values():
        assert acc == 1.0


def test_coherence_random_decoder_is_at_chance():
    classes = 4
    data = _clean_data(n=600, classes=classes, dims=(8, 6), noise=0.0)
    probes = [train_probe_classifier(v, data.labels, seed=0) for v in data.views]
    cfg = build_config({"model.name": "mvtcae", "model.z_dim": 3,
                        "model.alpha": 0.5, "trainer.max_epochs": 0})
    run = fit(cfg, data)
    shuffled = MultiViewBatch(
        views=data.views,
        labels=np.random.default_rng(7).permutation(data.labels),
    )
    report = coherence(run, shuffled, probes)
    n = 600
    sigma = math.sqrt(0.25 * 0.75 / n)
    for acc in report.per_size.values():
        assert 0.0 <= acc <= 1.0
        assert abs(acc - 1.0 / classes) < max(3 * sigma, 0.08)


def test_coherence_unsupported_for_dvcca():
    data = _clean_data(n=40, classes=2, dims=(4, 4))
    cfg = build_config({"model.name": "dvcca", "model.z_dim": 2,
                        "trainer.max_epochs": 0})
    run = fit(cfg, data)
    probes = [train_probe_classifier(v, data.labels, seed=0) for v in data.views]
    with pytest.raises(UnsupportedMetricError):
        coherence(run, data, probes)


def test_coherence_refuses_more_views_than_the_subsets_allow_before_it_encodes():
    n_views = MAX_SUBSET_MODALITIES + 1
    data = generate_synthetic(SyntheticSpec(n_classes=2, n_samples=8, dims=[2] * n_views,
                                            seed=0))
    cfg = build_config({"model.name": "mvae", "model.z_dim": 2, "trainer.max_epochs": 1,
                        "trainer.batch_size": 8})
    run = fit(cfg, data)
    # data of another width fails the read-out, so the refusal comes before it
    wider = generate_synthetic(SyntheticSpec(n_classes=2, n_samples=8, dims=[3] * n_views,
                                             seed=0))
    with pytest.raises(UnsupportedMetricError) as err:
        coherence(run, wider, [])
    assert str(err.value) == ("coherence: model 'mvae' has 11 views, more than "
                              "pooling.MAX_SUBSET_MODALITIES = 10")


def test_coherence_deterministic_and_csv(tmp_path):
    data = _clean_data(n=60, classes=3, dims=(5, 4), noise=0.1)
    cfg = build_config({"model.name": "mvae", "model.z_dim": 3,
                        "trainer.max_epochs": 2, "trainer.batch_size": 16})
    run = fit(cfg, data)
    probes = [train_probe_classifier(v, data.labels, seed=1) for v in data.views]
    a = coherence(run, data, probes)
    b = coherence(run, data, probes)
    assert a.per_size == b.per_size
    coherence_csv(a, tmp_path / "c.csv")
    lines = (tmp_path / "c.csv").read_text().splitlines()
    assert lines[0] == "subset_size,accuracy"
    assert len(lines) == 1 + len(a.per_size)


# -- joint log-likelihood ------------------------------------------------------------


def _linear_gaussian_run(seed=0, z_dim=2, dims=(3, 4), scale=0.8,
                         exact_posterior=True, perturb=0.0):
    """MVAE with linear decoder p(x_m|z) = N(W_m z + b_m, scale^2) and
    encoders set (optionally perturbed) to the exact posterior factors."""
    rng = np.random.default_rng(seed)
    cfg = build_config({
        "model.name": "mvae", "model.z_dim": z_dim,
        "encoder.default.hidden_layer_dim": [],
        "encoder.default.non_linear": False,
        "decoder.default.hidden_layer_dim": [],
        "decoder.default.non_linear": False,
        "decoder.default.scale": scale,
        "trainer.max_epochs": 0,
    })
    n = 50
    ws, bs = [], []
    for d in dims:
        raw = rng.normal(size=(d, z_dim))
        q, _ = np.linalg.qr(raw)
        c = rng.uniform(1.0, 2.0)
        ws.append(q * math.sqrt(c))
        bs.append(rng.normal(size=d))
    views = linear_gaussian_views(ws, bs, scale, n, rng)
    data = MultiViewBatch(views=views)
    run = fit(cfg, data)
    var = scale * scale
    for m, (w, b) in enumerate(zip(ws, bs)):
        c = float((w.T @ w)[0, 0])
        dec = run.state.decoders[m]
        dec.layers[0][0].data = w.T.copy()
        dec.layers[0][1].data = b.copy()
        enc = run.state.encoders[m]
        enc.w_mean.data = (w / c).copy()
        enc.b_mean.data = (-(b @ w) / c).copy()
        enc.w_log_var.data[...] = 0.0
        enc.b_log_var.data[...] = math.log(var / c)
        if not exact_posterior:
            enc.w_mean.data += perturb * rng.normal(size=enc.w_mean.data.shape)
            enc.b_log_var.data += perturb
    exact = linear_model_log_likelihood(run.state, views)
    return run, data, exact


def test_loglik_exact_when_proposal_is_posterior():
    run, data, exact = _linear_gaussian_run(exact_posterior=True)
    est = joint_log_likelihood(run, data, K=3, eval_seed=0)
    assert abs(est - exact) < 1e-8


def test_loglik_k1000_close_to_exact_with_imperfect_proposal():
    run, data, exact = _linear_gaussian_run(exact_posterior=False, perturb=0.08)
    est = joint_log_likelihood(run, data, K=1000, eval_seed=0)
    assert abs(est - exact) < 0.05


def _linear_gaussian_fit(name: str, epochs: int, **model_keys) -> tuple[float, float, float]:
    """Model `name` fit to views of 3, 4 and 5 dims from z in R^2 with noise
    scale 0.5 (data seed 0), with linear encoders and decoders whose scale is
    fixed at that value (model seed 1, lr 0.01, 1000 rows in batches of 250).
    Returns, per row of 500 test rows: the PPCA ceiling, the model's exact
    log p and its K=1000 estimate."""
    dims, z_dim, sigma = (3, 4, 5), 2, 0.5
    rng = np.random.default_rng(0)
    ws = [rng.normal(size=(d, z_dim)) for d in dims]
    bs = [rng.normal(size=d) for d in dims]
    train = linear_gaussian_views(ws, bs, sigma, 1000, rng)
    test = linear_gaussian_views(ws, bs, sigma, 500, rng)
    ceiling = ppca_log_likelihood(np.hstack(train), np.hstack(test), z_dim, sigma)
    # the true parameters read -12.065 nats per row, the ceiling -12.075
    w = np.vstack(ws)
    truth = gaussian_log_density(np.hstack(test), np.concatenate(bs),
                                 w @ w.T + sigma * sigma * np.eye(sum(dims)))
    assert abs(ceiling - truth) < 0.02
    cfg = build_config({
        "model.name": name, "model.z_dim": z_dim, "model.seed": 1,
        "model.learning_rate": 0.01, **{f"model.{k}": v for k, v in model_keys.items()},
        "encoder.default.hidden_layer_dim": [], "encoder.default.non_linear": False,
        "decoder.default.hidden_layer_dim": [], "decoder.default.non_linear": False,
        "decoder.default.scale": sigma, "trainer.max_epochs": epochs, "trainer.batch_size": 250,
    })
    run = fit(cfg, MultiViewBatch(views=train))
    exact = linear_model_log_likelihood(run.state, test)
    return ceiling, exact, joint_log_likelihood(run, MultiViewBatch(views=test), K=1000)


def test_trained_linear_mvae_reaches_the_ppca_ceiling_and_the_estimate_its_exact_loglik():
    # 300 epochs. Over model seeds 1-3 the gap to the ceiling read 0.049, 0.031
    # and 0.029 nats for mvae, 0.045, 0.030 and 0.013 for weighted_mvae, and
    # 0.067, 0.041 and 0.013 for me_mvae; the estimate minus the exact value
    # was at most 0.0008 in all nine runs. Each gap bound is twice the widest
    for name, gap in (("mvae", 0.1), ("weighted_mvae", 0.1), ("me_mvae", 0.15)):
        ceiling, exact, estimate = _linear_gaussian_fit(name, 300)
        assert ceiling - exact < gap, name
        assert abs(estimate - exact) < 0.01, name


@pytest.mark.parametrize("join_type", ["PoE", "Mean"])
def test_trained_linear_mcvae_estimate_is_a_loose_lower_bound_of_its_exact_loglik(join_type):
    # mcvae's joint has no prior expert, so it is narrower than the posterior
    # and K = 1000 leaves a loose bound. 300 epochs; over model seeds 1-3 the
    # estimate minus the exact value read -0.570, -0.595 and -0.581 nats for
    # the PoE, and -0.073, -0.090 and -0.059 for the mean
    _, exact, estimate = _linear_gaussian_fit("mcvae", 300, join_type=join_type)
    assert math.isfinite(estimate)
    assert estimate <= exact + 0.01


def test_trained_linear_mvtcae_reaches_the_ppca_ceiling_and_the_estimate_its_exact_loglik():
    # alpha 0.5, 600 epochs. Over model seeds 1-3 the gap to the ceiling read
    # 0.026, 0.013 and 0.006 nats, the estimate minus the exact value at most 0.0013
    ceiling, exact, estimate = _linear_gaussian_fit("mvtcae", 600, alpha=0.5)
    assert ceiling - exact < 0.05
    assert abs(estimate - exact) < 0.01


def test_loglik_decoder_independent_of_z_is_exact_at_k1():
    # posterior = prior and decoders independent of z: the importance weight
    # is exactly the product model's likelihood
    run, data, _ = _linear_gaussian_run()
    scale = 0.8
    dims = data.dims
    means = []
    for m, dec in enumerate(run.state.decoders):
        dec.layers[0][0].data[...] = 0.0
        means.append(dec.layers[0][1].data.copy())
    for enc in run.state.encoders:
        enc.w_mean.data[...] = 0.0
        enc.b_mean.data[...] = 0.0
        enc.w_log_var.data[...] = 0.0
        # zero-precision experts: PoE(prior, q1, q2) collapses to the prior
        enc.b_log_var.data[...] = 20.0

    est = joint_log_likelihood(run, data, K=1, eval_seed=3)
    expect = 0.0
    for m, d in enumerate(dims):
        diff = data.views[m] - means[m]
        expect += float(np.mean(
            -0.5 * (d * math.log(2 * math.pi * scale ** 2)
                    + (diff ** 2).sum(axis=1) / scale ** 2)))
    assert abs(est - expect) < 1e-6


def test_loglik_nondecreasing_in_k_in_expectation():
    run, data, _ = _linear_gaussian_run(exact_posterior=False, perturb=0.3)
    small = np.mean([joint_log_likelihood(run, data, K=4, eval_seed=s)
                     for s in range(50)])
    large = np.mean([joint_log_likelihood(run, data, K=64, eval_seed=s)
                     for s in range(50)])
    assert large >= small


def test_loglik_never_nan_and_deterministic(tmp_path):
    run, data, _ = _linear_gaussian_run(exact_posterior=False, perturb=0.5)
    a = joint_log_likelihood(run, data, K=16, eval_seed=1)
    b = joint_log_likelihood(run, data, K=16, eval_seed=1)
    assert math.isfinite(a) and a == b
    metric_csv("joint_log_likelihood", a, tmp_path / "m.csv")
    assert "joint_log_likelihood" in (tmp_path / "m.csv").read_text()


def test_loglik_unsupported_models():
    # a model without a joint hook, sparse mcvae, whose hook returns None, and
    # the models whose decoders need a private code besides z
    data = _clean_data(n=20, classes=2, dims=(4, 4))
    for name, keys in (("maae", {}), ("mcvae", {"model.sparse": True}),
                       ("dvcca", {"model.private": True, "model.s_dim": 2}),
                       ("mmvaeplus", {"model.s_dim": 2}), ("dmvae", {"model.s_dim": 2})):
        cfg = build_config({"model.name": name, "model.z_dim": 2,
                            "trainer.max_epochs": 0, **keys})
        run = fit(cfg, data)
        with pytest.raises(UnsupportedMetricError) as err:
            joint_log_likelihood(run, data, K=4)
        assert str(err.value) == f"joint_log_likelihood: model '{name}' is not supported"


def test_loglik_default_k_keeps_variance_small():
    # backs the CLI default K=1000: estimator spread under 0.1 nats on a toy model
    run, data, _ = _linear_gaussian_run(exact_posterior=False, perturb=0.15)
    vals = [joint_log_likelihood(run, data, K=1000, eval_seed=s) for s in range(8)]
    assert float(np.std(vals)) < 0.1


def test_loglik_mixture_models_run():
    data = _clean_data(n=30, classes=2, dims=(4, 4), noise=0.2)
    for name in ("mmvae", "mopoe"):
        cfg = build_config({"model.name": name, "model.z_dim": 2,
                            "trainer.max_epochs": 1, "trainer.batch_size": 15})
        run = fit(cfg, data)
        val = joint_log_likelihood(run, data, K=8, eval_seed=0)
        assert math.isfinite(val)


def _sequential_log_likelihood(run, test, K, eval_seed=0):
    """The estimator one importance sample at a time, as it was computed
    before samples were stacked into chunks."""
    state = run.state
    eval_rng = np.random.default_rng(eval_seed)
    with nc.no_grad():
        views, posteriors = _read(run, test, "sequential")
        proposal = MODEL_SPECS[state.cfg.name].joint(state, posteriors,
                                                     tuple(range(state.n_views)))
        mixture = isinstance(proposal, ExpertSet)
        cols = []
        for _ in range(K):
            if mixture:
                comp = proposal.experts[eval_rng.integers(len(proposal.experts))]
                z = rsample(comp, nc.constant(eval_rng.standard_normal(comp.shape)))
            else:
                z = rsample(proposal, nc.constant(eval_rng.standard_normal(proposal.shape)))
            lw = gaussian_log_prob(standard_normal(z.shape), z)
            for m in range(state.n_views):
                lw = lw + state.decoders[m].decode(z).log_prob(views[m])
            log_q = moe_log_prob(proposal, z) if mixture else gaussian_log_prob(proposal, z)
            lw = lw - log_q
            cols.append(nc.reshape_col(lw))
        log_w = nc.concat_cols(cols)
        per_sample = nc.logsumexp(log_w, axis=1) - nc.constant(np.log(K))
        return float(nc.mean(per_sample).item())


def _small_run(name: str, rows: int):
    """A model with 6-unit networks fitted for one epoch on `rows` rows of 3 views."""
    data = generate_synthetic(SyntheticSpec(n_classes=3, n_samples=rows, dims=[4, 3, 5],
                                            seed=4, background_noise=0.5))
    cfg = build_config({"model.name": name, "model.z_dim": 2, "model.seed": 3,
                        "encoder.default.hidden_layer_dim": [6],
                        "decoder.default.hidden_layer_dim": [6],
                        "trainer.max_epochs": 1, "trainer.batch_size": rows // 3})
    return fit(cfg, data), data


@pytest.mark.parametrize("name", ["mvae", "mopoe"])
def test_chunked_loglik_equals_the_sequential_estimator_bitwise(name):
    # 300 rows: chunks of 13 samples on one worker and of 6 on two, and
    # K = 1000 ends on a partial chunk either way
    rows = 300
    chunk = LOGLIK_CHUNK_ROWS // rows
    run, data = _small_run(name, rows)
    for K in (1, chunk + 3, 1000):
        assert joint_log_likelihood(run, data, K=K) == _sequential_log_likelihood(run, data, K)


def test_loglik_at_benchmark_scale_keeps_its_traced_peak_under_15_mb():
    # mopoe's 7-component mixture proposal on 3 views of 24 dims and 500 rows:
    # K = 1000 runs as 125 chunks of 8 samples on 4000-row tiles, and the
    # (500, 1000) log-weights alone take 4 MB
    data = generate_synthetic(SyntheticSpec(n_classes=8, n_samples=500, dims=[24, 24, 24],
                                            style_noise=0.1, background_noise=1.0, seed=3))
    cfg = build_config({"model.name": "mopoe", "model.z_dim": 8,
                        "encoder.default.hidden_layer_dim": [32],
                        "decoder.default.hidden_layer_dim": [32],
                        "decoder.default.scale": 0.75, "trainer.max_epochs": 0})
    run = fit(cfg, data)
    tracemalloc.start()
    try:
        value = joint_log_likelihood(run, data, K=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert math.isfinite(value)
    assert peak < 15e6, f"traced peak {peak / 1e6:.1f} MB"


_BLAS = evaluation._openblas()
_needs_openblas = pytest.mark.skipif(_BLAS is None, reason="numpy bundles no OpenBLAS")
_needs_two_workers = pytest.mark.skipif(
    evaluation._loglik_workers(_BLAS) < 2, reason="needs 2 CPUs and numpy's bundled OpenBLAS")


def _record_log_weight_calls(monkeypatch) -> list[tuple[int, int, int | None]]:
    """(thread, rows, OpenBLAS threads) of each `_log_weight` call of the log-likelihood."""
    calls = []
    log_weight = evaluation._log_weight

    def recording(state, views, z, proposal):
        calls.append((threading.get_ident(), z.shape[0], None if _BLAS is None else _BLAS[0]()))
        return log_weight(state, views, z, proposal)

    monkeypatch.setattr(evaluation, "_log_weight", recording)
    return calls


@_needs_two_workers
@pytest.mark.parametrize("name", ["mvae", "mopoe"])
def test_two_workers_give_the_one_worker_estimate_bitwise(name, monkeypatch):
    # 48 rows: two workers take chunks of 41 samples, one worker of 83, and
    # K = 100 ends on a partial chunk either way
    rows, K = 48, 100
    run, data = _small_run(name, rows)
    calls = _record_log_weight_calls(monkeypatch)
    two = joint_log_likelihood(run, data, K=K)
    chunk = LOGLIK_CHUNK_ROWS // (2 * rows)
    assert sorted(n for _, n, _ in calls) == sorted([chunk * rows, chunk * rows,
                                                     (K - 2 * chunk) * rows])
    calls.clear()
    monkeypatch.setattr(evaluation, "_openblas", lambda: None)
    one = joint_log_likelihood(run, data, K=K)
    chunk = LOGLIK_CHUNK_ROWS // rows
    assert [n for _, n, _ in calls] == [chunk * rows, (K - chunk) * rows]
    assert two == one


def test_more_workers_than_cores_under_fast_thread_switching_keep_the_bits(monkeypatch):
    # 4 workers on chunks of 3 samples, switching threads every microsecond:
    # a chunk written to another's columns would change the estimate
    run, data = _small_run("mopoe", 300)
    monkeypatch.setattr(evaluation, "_loglik_workers", lambda blas: 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        value = joint_log_likelihood(run, data, K=100)
    finally:
        sys.setswitchinterval(interval)
    assert value == _sequential_log_likelihood(run, data, 100)


@_needs_openblas
@pytest.mark.parametrize("fault", [False, True], ids=["return", "numeric_error"])
def test_loglik_holds_openblas_to_one_thread_and_gives_its_count_back(fault, monkeypatch):
    get, put = _BLAS
    original = get()
    put(2)
    try:
        if get() != 2:
            pytest.skip("OpenBLAS keeps one thread here")
        data = _clean_data(n=40)
        cfg = build_config({"model.name": "mvae", "model.z_dim": 2, "trainer.max_epochs": 1,
                            "trainer.batch_size": 20})
        run = fit(cfg, data)
        calls = _record_log_weight_calls(monkeypatch)
        # 40 rows: K = 200 spans several chunks, so the fault arises in a worker
        if fault:
            poison_layers(run.state.decoders[1])
            with (pytest.warns(RuntimeWarning),
                  pytest.raises(NumericError, match="non-finite result in op 'matmul'")):
                joint_log_likelihood(run, data, K=200)
            assert_per_op_check_on()
        else:
            assert math.isfinite(joint_log_likelihood(run, data, K=200))
        assert get() == 2
        assert nc._grad_enabled
        assert calls and {blas for _, _, blas in calls} == {1}
        assert threading.get_ident() not in {thread for thread, _, _ in calls}
    finally:
        put(original)


@pytest.mark.parametrize("call", ["loglik", "coherence", "probe_fit"])
def test_non_finite_evaluation_names_the_op(call):
    data = _clean_data(n=40)
    cfg = build_config({"model.name": "mvae", "model.z_dim": 2, "trainer.max_epochs": 1,
                        "trainer.batch_size": 20})
    run = fit(cfg, data)
    probes = [train_probe_classifier(v, data.labels, epochs=2) for v in data.views]
    poison_layers(run.state.decoders[1])
    poison_layers(probes[0].net)
    with (pytest.warns(RuntimeWarning),
          pytest.raises(NumericError, match="non-finite result in op 'matmul'")):
        if call == "loglik":
            joint_log_likelihood(run, data, K=3)
        elif call == "coherence":
            coherence(run, data, probes)
        else:
            probes[0].fit(data.views[0], data.labels, epochs=2)
    assert_per_op_check_on()
