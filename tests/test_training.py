"""Config validation, optimizer behaviour, determinism, checkpoint resume."""

from pathlib import Path

import numpy as np
import pytest

from mvx import numcore as nc
from mvx.config import ModelConfig, build_config, load_config
from mvx.data import MultiViewBatch, SyntheticSpec, generate_synthetic
from mvx.errors import ConfigError, FormatError, NumericError
from mvx.training import (
    Adam,
    RunState,
    build_model,
    continue_fit,
    fit,
    load_run,
    predict_latent,
    predict_reconstruction,
)

from helpers import corrupt_first_moment_size

FIXTURES = Path(__file__).parent / "fixtures"


# -- config validation ---------------------------------------------------------


def test_all_negative_fixtures_rejected():
    failures = []
    for path in sorted(FIXTURES.glob("neg_*.cfg")):
        try:
            load_config(path)
        except ConfigError:
            continue
        failures.append(path.name)
    assert not failures, f"fixtures accepted but should fail: {failures}"


def test_all_positive_fixtures_accepted():
    for path in sorted(FIXTURES.glob("pos_*.cfg")):
        cfg = load_config(path)
        assert isinstance(cfg, ModelConfig)


def test_validation_messages_name_key_paths():
    with pytest.raises(ConfigError) as err:
        load_config(FIXTURES / "neg_learning_rate_high.cfg")
    assert "model.learning_rate" in str(err.value)
    with pytest.raises(ConfigError) as err:
        load_config(FIXTURES / "neg_join_type.cfg")
    assert str(err.value) == "model.join_type: unsupported or invalid join type"
    with pytest.raises(ConfigError) as err:
        load_config(FIXTURES / "neg_unknown_key.cfg")
    assert "model.zdim" in str(err.value)
    with pytest.raises(ConfigError) as err:
        load_config(FIXTURES / "neg_mvtcae_alpha_above_one.cfg")
    assert str(err.value).startswith("model.alpha:")


def test_defaults_filled():
    cfg = build_config({"model.name": "mvtcae", "model.z_dim": 4})
    assert cfg.beta == 1.0
    assert cfg.learning_rate == 1e-3
    assert cfg.K == 1
    assert cfg.join_type == "PoE"
    assert cfg.trainer.max_epochs == 50


def test_shipped_example_configs_validate():
    for path in sorted((Path(__file__).parent.parent / "configs").glob("*.cfg")):
        load_config(path)


def test_dccae_forces_full_batch():
    cfg = build_config({"model.name": "dccae", "model.z_dim": 2,
                        "trainer.full_batch": False})
    assert cfg.trainer.full_batch is True


def test_private_models_require_s_dim():
    with pytest.raises(ConfigError) as err:
        build_config({"model.name": "mmvaeplus", "model.z_dim": 4, "model.s_dim": 0})
    assert "model.s_dim" in str(err.value)


# -- optimizer -------------------------------------------------------------------


def test_adam_zero_gradient_is_identity():
    p = nc.parameter(np.array([1.0, -2.0]))
    p.grad = np.zeros(2)
    opt = Adam(0.1)
    opt.step([("p", p)])
    assert np.array_equal(p.data, [1.0, -2.0])


def test_adam_first_step_magnitude():
    # with bias correction the first step is learning_rate * sign(grad)
    p = nc.parameter(np.array([0.0]))
    p.grad = np.array([3.0])
    opt = Adam(0.05)
    opt.step([("p", p)])
    assert abs(p.data[0] + 0.05) < 1e-6


# -- fit / determinism -------------------------------------------------------------


def _toy_data(seed=0, n=24, dims=(3, 4)):
    return generate_synthetic(SyntheticSpec(
        n_classes=2, n_samples=n, dims=list(dims), seed=seed,
        background_noise=0.3))


def test_fit_zero_epochs_returns_initialized_state():
    cfg = build_config({"model.name": "mvae", "model.z_dim": 2,
                        "trainer.max_epochs": 0})
    run = fit(cfg, _toy_data())
    assert run.epoch == 0
    assert run.history == []


def test_modality_keys_beyond_the_view_count_are_rejected():
    for key in ("decoder.5.distribution", "encoder.2.activation"):
        value = "Bernoulli" if key.startswith("decoder") else "tanh"
        cfg = build_config({"model.name": "mvae", "model.z_dim": 2, key: value})
        with pytest.raises(ConfigError) as err:
            fit(cfg, _toy_data(), max_epochs=1)
        assert str(err.value).startswith(key.rsplit(".", 1)[0] + ":")


@pytest.mark.parametrize("name, key, value", [
    ("mmjsd", "model.pi", [0.5, 0.5]),
    ("dmvae", "model.lambda", [1.0, 2.0]),
])
def test_per_view_weights_must_fit_the_view_count(name, key, value):
    data = _toy_data(dims=(3, 4, 2))
    flat = {"model.name": name, "model.z_dim": 2, "model.s_dim": 1}
    with pytest.raises(ConfigError) as err:
        fit(build_config({**flat, key: value}), data, max_epochs=0)
    assert str(err.value).startswith(key + ":")
    # a config that declares its view count is checked without data
    with pytest.raises(ConfigError) as err:
        build_config({**flat, key: value, "model.input_dims": [3, 4, 2]})
    assert str(err.value).startswith(key + ":")
    # mmjsd needs one weight per view plus the prior's; dmvae 1 or one per view
    fitting = [0.25] * 4 if name == "mmjsd" else [1.0, 2.0, 3.0]
    fit(build_config({**flat, key: fitting}), data, max_epochs=1)


def test_fit_same_seed_is_bitwise_identical():
    data = _toy_data()
    runs = []
    for _ in range(2):
        cfg = build_config({"model.name": "mvae", "model.z_dim": 2,
                            "model.seed": 5, "trainer.max_epochs": 4,
                            "trainer.batch_size": 8})
        runs.append(fit(cfg, data))
    for (na, pa), (nb, pb) in zip(runs[0].state.parameters(),
                                  runs[1].state.parameters()):
        assert na == nb
        assert pa.data.tobytes() == pb.data.tobytes()
    assert runs[0].history == runs[1].history


def test_metrics_csv_written_and_bitwise_stable(tmp_path):
    data = _toy_data()
    texts = []
    for i in range(2):
        out = tmp_path / f"run{i}"
        cfg = build_config({"model.name": "mcvae", "model.z_dim": 2,
                            "model.seed": 1, "trainer.max_epochs": 3,
                            "trainer.batch_size": 8})
        fit(cfg, data, out_dir=out)
        texts.append((out / "metrics.csv").read_bytes())
        assert (out / "checkpoint.mvxc").exists()
        assert (out / "resolved.cfg").exists()
    assert texts[0] == texts[1]
    header = texts[0].decode().splitlines()[0]
    assert header == "epoch,term,value"


def test_checkpoints_bitwise_identical_across_runs(tmp_path):
    data = _toy_data()
    blobs = []
    for i in range(2):
        out = tmp_path / f"run{i}"
        cfg = build_config({"model.name": "mvtcae", "model.z_dim": 2,
                            "model.alpha": 0.5, "model.seed": 9,
                            "trainer.max_epochs": 3, "trainer.batch_size": 8})
        fit(cfg, data, out_dir=out)
        blobs.append((out / "checkpoint.mvxc").read_bytes())
    assert blobs[0] == blobs[1]


def test_checkpoint_resume_reproduces_trajectory(tmp_path):
    data = _toy_data()
    # straight run: 6 epochs
    cfg_a = build_config({"model.name": "mvae", "model.z_dim": 2,
                          "model.seed": 3, "trainer.max_epochs": 6,
                          "trainer.batch_size": 8})
    straight = fit(cfg_a, data, out_dir=tmp_path / "straight")
    # split run: 3 epochs, checkpoint, reload, 3 more
    cfg_b = build_config({"model.name": "mvae", "model.z_dim": 2,
                          "model.seed": 3, "trainer.max_epochs": 3,
                          "trainer.batch_size": 8})
    fit(cfg_b, data, out_dir=tmp_path / "split")
    resumed = load_run(tmp_path / "split")
    continue_fit(resumed, data, 3)
    for (na, pa), (nb, pb) in zip(straight.state.parameters(),
                                  resumed.state.parameters()):
        assert pa.data.tobytes() == pb.data.tobytes(), na
    assert resumed.epoch == 6


def test_load_run_round_trips_parameters(tmp_path):
    data = _toy_data()
    cfg = build_config({"model.name": "mmvaeplus", "model.z_dim": 2,
                        "model.s_dim": 2, "model.seed": 2,
                        "trainer.max_epochs": 2, "trainer.batch_size": 8})
    run = fit(cfg, data, out_dir=tmp_path)
    back = load_run(tmp_path)
    for (na, pa), (nb, pb) in zip(run.state.parameters(),
                                  back.state.parameters()):
        assert na == nb
        assert pa.data.tobytes() == pb.data.tobytes()


def test_wrong_moment_size_in_checkpoint_is_a_format_error(tmp_path):
    cfg = build_config({"model.name": "mvae", "model.z_dim": 2,
                        "trainer.max_epochs": 1, "trainer.batch_size": 8})
    run = fit(cfg, _toy_data(), out_dir=tmp_path)
    path = tmp_path / "checkpoint.mvxc"
    offset = corrupt_first_moment_size(path)
    with pytest.raises(FormatError) as err:
        load_run(tmp_path)
    message = str(err.value)
    assert run.state.parameters()[0][0] in message
    assert f"byte {offset}" in message


def test_mwae_weights_stay_clipped(tmp_path):
    data = _toy_data()
    cfg = build_config({"model.name": "mwae", "model.z_dim": 2,
                        "model.seed": 0, "trainer.max_epochs": 2,
                        "trainer.batch_size": 8})
    run = fit(cfg, data)
    for name, p in run.state.discriminator_parameters():
        assert np.all(np.abs(p.data) <= cfg.trainer.clip + 1e-12), name


def test_optimization_sanity_mcvae_200_epochs():
    data = _toy_data(n=64)
    cfg = build_config({"model.name": "mcvae", "model.z_dim": 2,
                        "model.seed": 0, "trainer.max_epochs": 200,
                        "trainer.batch_size": 64})
    run = fit(cfg, data)
    assert run.history[-1]["total"] < run.history[0]["total"]


# -- prediction API ------------------------------------------------------------------


def test_predict_latent_shapes_ae_vs_mvae():
    data = _toy_data()
    cfg = build_config({"model.name": "ae", "model.z_dim": 2,
                        "trainer.max_epochs": 1, "trainer.batch_size": 8})
    run = fit(cfg, data)
    lat = predict_latent(run, data)
    assert len(lat.per_modality) == 2
    assert lat.joint is None
    cfg2 = build_config({"model.name": "mvae", "model.z_dim": 2,
                         "trainer.max_epochs": 1, "trainer.batch_size": 8})
    run2 = fit(cfg2, data)
    lat2 = predict_latent(run2, data)
    assert lat2.joint is not None
    assert lat2.joint.shape == (24, 2)


def test_predict_latent_sparse_threshold_masks():
    data = _toy_data()
    cfg = build_config({"model.name": "mcvae", "model.z_dim": 4,
                        "model.sparse": True, "model.threshold": 0.5,
                        "trainer.max_epochs": 1, "trainer.batch_size": 8})
    run = fit(cfg, data)
    lat = predict_latent(run, data)
    assert lat.kept_masks is not None
    for mask, lat_m in zip(lat.kept_masks, lat.per_modality):
        assert mask.dtype == bool
        assert lat_m.shape[1] == int(mask.sum())


def test_predict_reconstruction_grid_shape():
    data = _toy_data()
    cfg = build_config({"model.name": "ae", "model.z_dim": 2,
                        "trainer.max_epochs": 1, "trainer.batch_size": 8})
    run = fit(cfg, data)
    grid = predict_reconstruction(run, data)
    assert len(grid) == 2 and len(grid[0]) == 2
    assert grid[0][1].shape == (24, 4)
    cfg2 = build_config({"model.name": "mvae", "model.z_dim": 2,
                         "trainer.max_epochs": 1, "trainer.batch_size": 8})
    run2 = fit(cfg2, data)
    grid2 = predict_reconstruction(run2, data)
    assert len(grid2) == 3  # two modalities + joint


def test_predict_reconstruction_identity_toy():
    # hand-build an identity AE: reconstruction equals input
    cfg = build_config({"model.name": "ae", "model.z_dim": 3,
                        "encoder.default.hidden_layer_dim": [],
                        "encoder.default.non_linear": False,
                        "decoder.default.hidden_layer_dim": [],
                        "decoder.default.non_linear": False,
                        "trainer.max_epochs": 0})
    rng = np.random.default_rng(0)
    data = MultiViewBatch(views=[rng.normal(size=(5, 3))])
    run = fit(cfg, data)
    for net in list(run.state.encoders) + list(run.state.decoders):
        net.layers[0][0].data[...] = np.eye(3)
        net.layers[0][1].data[...] = 0.0
    grid = predict_reconstruction(run, data)
    assert np.abs(grid[0][0] - data.views[0]).max() < 1e-6


def test_predict_reconstruction_deterministic():
    data = _toy_data()
    cfg = build_config({"model.name": "mmvaeplus", "model.z_dim": 2,
                        "model.s_dim": 2, "trainer.max_epochs": 1,
                        "trainer.batch_size": 8})
    run = fit(cfg, data)
    a = predict_reconstruction(run, data)
    b = predict_reconstruction(run, data)
    for ra, rb in zip(a, b):
        for xa, xb in zip(ra, rb):
            assert xa.tobytes() == xb.tobytes()


def test_nan_loss_aborts_with_diagnostics():
    data = _toy_data()
    cfg = build_config({"model.name": "mvae", "model.z_dim": 2,
                        "model.learning_rate": 0.9, "trainer.max_epochs": 50,
                        "trainer.batch_size": 8})
    rng = np.random.default_rng(0)
    state = build_model(cfg, data.dims, rng)
    # poison a decoder weight so the loss blows up immediately
    state.decoders[0].layers[0][0].data[...] = 1e200
    run = RunState(cfg=cfg, state=state, optimizer=Adam(cfg.learning_rate), rng=rng)
    with pytest.raises(NumericError) as err:
        continue_fit(run, data, 1)
    assert "epoch" in str(err.value)
