"""Config validation, optimizer behaviour, determinism, checkpoint resume."""

import ast
import copy
import io
import re
import shutil
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mvx import numcore as nc
from mvx import training
from mvx.config import ModelConfig, build_config, load_config, parse_config_text, resolved_lines
from mvx.data import MultiViewBatch, SyntheticSpec, generate_synthetic
from mvx.errors import (ConfigError, ContractError, DimensionError, DomainError, FormatError,
                        NumericError)
from mvx.objectives import ADVERSARIAL_OBJECTIVES, MODEL_SPECS, VARIATIONAL_OBJECTIVES, EpsStream
from mvx.pooling import MAX_SUBSET_MODALITIES
from mvx.training import (
    Adam,
    RunState,
    _as_views,
    _backward_phase,
    build_model,
    continue_fit,
    fit,
    load_checkpoint,
    load_run,
    predict_latent,
    predict_reconstruction,
    save_checkpoint,
)

import oracle
from helpers import (
    assert_per_op_check_on,
    corrupt_first_moment_size,
    make_tiny_state,
    s_dim_key,
    step_count_offsets,
)

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
    for fixture, message in [
        ("neg_eps_zero.cfg", "model.eps: unknown key"),
        ("neg_threshold_bool.cfg", "model.threshold: expected a number, got False"),
        ("neg_input_dims_empty.cfg", "model.input_dims: must list at least one view"),
        ("neg_mopoe_eleven_views.cfg", "model.name: 'mopoe' allows at most 10 views "
                                       "(pooling.MAX_SUBSET_MODALITIES), got 11"),
    ]:
        with pytest.raises(ConfigError) as err:
            load_config(FIXTURES / fixture)
        assert str(err.value) == message


@pytest.mark.parametrize("text, message", [
    ("model.name mvae", "line 1: expected 'section.key = value', got 'model.name mvae'"),
    ("name = mvae", "line 1: key must be dotted (section.key), got 'name'"),
    ("model.name = mvae\nmodel.name = mvae", "line 2: duplicate key 'model.name'"),
    ("model.a.b = 1", "model.a.b: malformed model key"),
    ("encoder.x = 1", "encoder.x: expected encoder.<modality|default>.<key>"),
    ("loss.beta = 1", "loss.beta: unknown section 'loss'"),
], ids=["no_equals", "undotted", "duplicate", "model_depth", "encoder_depth", "section"])
def test_config_text_errors_name_the_line_or_key(tmp_path, text, message):
    path = tmp_path / "bad.cfg"
    path.write_text(text + "\n", encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert str(err.value) == message


def test_a_missing_config_file_is_a_config_error(tmp_path):
    path = tmp_path / "absent.cfg"
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert str(err.value) == f"config file not found: {path}"


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


# every model-specific key at its default, as `resolved_lines` writes it
# (an unset `model.pi` is not written)
_MODEL_KEY_DEFAULTS = {
    "model.s_dim": 0, "model.beta": 1.0, "model.alpha": 1.0, "model.K": 1,
    "model.lambda": [1.0], "model.sparse": False, "model.threshold": 0.0,
    "model.private": False, "model.join_type": "PoE", "model.non_saturating": False,
    "model.stochastic_subsets": False,
}

# models that, between them, set every model-specific key to a non-default value
_ROUND_TRIP_MODELS = [
    # a sparse mcvae reads the threshold, a dense one the join type
    ("mcvae", [3, 4, 2], {"model.beta": 2.5, "model.sparse": True, "model.threshold": 0.5}),
    ("mcvae", [3, 4, 2], {"model.join_type": "Mean"}),
    ("dvcca", [3, 4], {"model.s_dim": 2, "model.private": True}),
    ("jmvae", [3, 4], {"model.alpha": 0.5}),
    ("mmvae", [3, 4, 2], {"model.K": 3}),
    ("dmvae", [3, 4, 2], {"model.s_dim": 2, "model.lambda": [0.5, 2.0, 1.5]}),
    ("mmjsd", [3, 4, 2], {"model.pi": [0.1, 0.2, 0.3, 0.4]}),
    ("mopoe", [3, 4, 2], {"model.stochastic_subsets": True}),
    ("maae", [3, 4, 2], {"model.non_saturating": True}),
    ("mwae", [3, 4, 2], {}),
]
# the trainer keys that only a critic reads: set on mwae, at their defaults elsewhere
_CRITIC_KEYS = {"trainer.critic_steps": 2, "trainer.clip": 0.05}
_CRITIC_KEY_DEFAULTS = {"trainer.critic_steps": 5, "trainer.clip": 0.01}
# a config that sets `trainer.full_batch` leaves the batch size unread: full
# batch on mopoe, a batch size of 16 elsewhere
_FULL_BATCH_KEYS = {"trainer.batch_size": 64, "trainer.full_batch": True}
_BATCH_KEYS = {"trainer.batch_size": 16, "trainer.full_batch": False}


def test_resolved_config_round_trips_every_key():
    keys = {f"model.{key}" for spec in MODEL_SPECS.values() for key in spec.keys}
    assert keys == {*_MODEL_KEY_DEFAULTS, "model.pi"}
    assert set().union(*(extra for _, _, extra in _ROUND_TRIP_MODELS)) == keys
    # every other key set to a non-default value; distribution and scale on decoders only
    net = {"hidden_layer_dim": [5, 3], "bias": False, "non_linear": False, "activation": "tanh"}
    for name, dims, extra in _ROUND_TRIP_MODELS:
        # a plain autoencoder reads no decoder distribution: the default on maae and mwae
        distribution = "Normal" if MODEL_SPECS[name].encoder == "plain" else "Laplace"
        flat = {
            **_MODEL_KEY_DEFAULTS, **extra,
            "model.name": name, "model.z_dim": 3,
            "model.learning_rate": 0.02, "model.seed": 7, "model.seed_everything": False,
            "model.save_model": False, "model.input_dims": dims,
            **{f"encoder.{slot}.{k}": v for slot in ("default", 1) for k, v in net.items()},
            **{f"decoder.{slot}.{k}": v for slot in ("default", 0) for k, v in net.items()},
            **{f"decoder.{slot}.distribution": distribution for slot in ("default", 0)},
            **{f"decoder.{slot}.scale": 0.5 for slot in ("default", 0)},
            "trainer.max_epochs": 7,
            **(_FULL_BATCH_KEYS if name == "mopoe" else _BATCH_KEYS),
            **(_CRITIC_KEYS if name == "mwae" else _CRITIC_KEY_DEFAULTS),
        }
        cfg = build_config(flat)
        lines = resolved_lines(cfg)
        assert parse_config_text("\n".join(lines)) == flat, name
        again = build_config(parse_config_text("\n".join(lines)))
        assert again == cfg, name
        assert resolved_lines(again) == lines, name


_BAD_VALUES = [
    ("model.name", 3, "expected a string, got 3"),
    ("model.name", "supervae", "unknown model 'supervae'"),
    ("model.z_dim", 2.5, "expected an integer, got 2.5"),
    ("model.z_dim", 0, "must be >= 1"),
    ("model.s_dim", "a", "expected an integer, got 'a'"),
    ("model.s_dim", -1, "must be >= 0"),
    ("model.beta", "a", "expected a number, got 'a'"),
    ("model.beta", 0, "must satisfy x > 0"),
    ("model.alpha", True, "expected a number, got True"),
    ("model.alpha", -1.0, "must satisfy x > 0"),
    ("model.K", 1.5, "expected an integer, got 1.5"),
    ("model.K", 0, "must satisfy x >= 1"),
    ("model.lambda", "a", "expected a number, got 'a'"),
    ("model.lambda", [1.0, -1.0], "weights must be >= 0"),
    ("model.pi", 0.5, "expected a bracketed list, got 0.5"),
    ("model.pi", [0.5, 0.6], "weights must sum to 1"),
    ("model.pi", [0.0, 0.5, 0.5], "weights must be > 0"),
    ("model.learning_rate", "a", "expected a number, got 'a'"),
    ("model.learning_rate", 1.5, "must satisfy 0 < x < 1"),
    ("model.seed", 1.0, "expected an integer, got 1.0"),
    ("model.seed", -1, "must satisfy 0 <= x <= 4294967295"),
    ("model.seed_everything", "yes", "expected true/false, got 'yes'"),
    ("model.save_model", 5, "expected true/false, got 5"),
    ("model.sparse", 1, "expected true/false, got 1"),
    ("model.threshold", "a", "expected a number, got 'a'"),
    ("model.threshold", 1.0, "must satisfy 0 < x < 1, or 0"),
    ("model.private", "maybe", "expected true/false, got 'maybe'"),
    ("model.join_type", 1, "expected a string, got 1"),
    ("model.join_type", "XoE", "unsupported or invalid join type"),
    ("model.non_saturating", 0, "expected true/false, got 0"),
    ("model.stochastic_subsets", "no", "expected true/false, got 'no'"),
    ("model.input_dims", 3, "expected a bracketed list, got 3"),
    ("model.input_dims", [3, 0], "dims must be >= 1"),
    ("trainer.max_epochs", 1.5, "expected an integer, got 1.5"),
    ("trainer.max_epochs", -1, "must be >= 0"),
    ("trainer.batch_size", "a", "expected an integer, got 'a'"),
    ("trainer.batch_size", 0, "must be >= 1"),
    ("trainer.full_batch", 1, "expected true/false, got 1"),
    ("trainer.critic_steps", 2.0, "expected an integer, got 2.0"),
    ("trainer.critic_steps", 0, "must be >= 1"),
    ("trainer.clip", "a", "expected a number, got 'a'"),
    ("trainer.clip", 0, "must be > 0"),
    ("encoder.default.hidden_layer_dim", 32, "expected a bracketed list, got 32"),
    ("encoder.default.hidden_layer_dim", [32, 0], "hidden dims must be >= 1"),
    ("encoder.0.bias", 1, "expected true/false, got 1"),
    ("encoder.default.non_linear", "yes", "expected true/false, got 'yes'"),
    ("encoder.default.activation", 1, "expected a string, got 1"),
    ("encoder.default.activation", "sigmoid",
     "unsupported activation (choose from ('relu', 'tanh'))"),
    ("encoder.default.distribution", "Normal", "distribution applies to decoders only"),
    ("decoder.default.distribution", 1, "expected a string, got 1"),
    ("decoder.default.distribution", "Gaussian",
     "unsupported distribution (choose from "
     "('Normal', 'Bernoulli', 'Laplace', 'Categorical', 'Default'))"),
    ("encoder.1.scale", 1.0, "scale applies to decoders only"),
    ("decoder.1.scale", "a", "expected a number, got 'a'"),
    ("decoder.1.scale", 0.0, "scale must be positive"),
    ("encoder.01.activation", "tanh", "modality must be an index or 'default'"),
    ("encoder.1_0.bias", True, "modality must be an index or 'default'"),
    ("decoder.+1.scale", 1.0, "modality must be an index or 'default'"),
    ("decoder.-1.scale", 1.0, "modality must be an index or 'default'"),
]


@pytest.mark.parametrize("key, value, message", _BAD_VALUES,
                         ids=[f"{k}={v!r}" for k, v, _ in _BAD_VALUES])
def test_bad_values_are_rejected_with_the_key_path(key, value, message):
    with pytest.raises(ConfigError) as err:
        build_config({"model.name": "mvae", "model.z_dim": 4, key: value})
    assert str(err.value) == f"{key}: {message}"


def test_jmvae_refuses_alpha_zero():
    # at alpha = 0 the uni-modal encoders get no gradient, so a step could not run
    with pytest.raises(ConfigError) as err:
        build_config({"model.name": "jmvae", "model.z_dim": 4, "model.alpha": 0.0})
    assert str(err.value) == "model.alpha: must satisfy x > 0"


# -- optimizer -------------------------------------------------------------------


def test_adam_zero_gradient_is_identity():
    p = nc.parameter(np.array([1.0, -2.0]))
    p.grad = np.zeros(2)
    opt = Adam(0.1)
    opt.step([("p", p)])
    assert np.array_equal(p.data, [1.0, -2.0])


def test_adam_step_of_no_parameters_changes_nothing_and_makes_no_group():
    p = nc.parameter(np.array([1.0, -2.0]))
    p.grad = np.array([0.5, 0.5])
    opt = Adam(0.1)
    opt.step([])
    assert opt.moments == {}
    opt.step([("p", p)])
    m, v, t = opt.moments["p"]
    data, m, v = p.data.copy(), m.copy(), v.copy()
    opt.step([])
    assert np.array_equal(p.data, data)
    assert list(opt.moments) == ["p"]
    m_after, v_after, t_after = opt.moments["p"]
    assert np.array_equal(m_after, m) and np.array_equal(v_after, v) and t_after == t


def test_adam_first_step_magnitude():
    # with bias correction the first step is learning_rate * sign(grad)
    p = nc.parameter(np.array([0.0]))
    p.grad = np.array([3.0])
    opt = Adam(0.05)
    opt.step([("p", p)])
    assert abs(p.data[0] + 0.05) < 1e-6


def test_flat_adam_equals_the_per_parameter_loop_bitwise():
    rng = np.random.default_rng(0)
    shapes = {"w": (3, 2), "b": (4,), "s": (1,), "u": (2, 2), "c": (3,)}
    groups = [("w", "b", "s"), ("u", "c")]
    init = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
    flat = {name: nc.parameter(x.copy()) for name, x in init.items()}
    loop = {name: nc.parameter(x.copy()) for name, x in init.items()}
    opt, ref = Adam(0.05), oracle.LoopAdam(0.05)
    for i in range(5):
        if i == 2:  # rebound between steps: the group binds it again
            for tensors in (flat, loop):
                tensors["b"].data = tensors["b"].data * 0.5
        for group, rate in zip(groups, (1, 2)):
            for k in range(rate):
                for name in group:
                    g = rng.standard_normal(shapes[name])
                    if k == 0:
                        flat[name].grad, loop[name].grad = g, g.copy()
                    else:  # accumulated in place into the arrays the last step read
                        flat[name].grad += g
                        loop[name].grad += g
                if i == 4:  # rebound to a new array before the step
                    for tensors in (flat, loop):
                        tensors[group[0]].grad = tensors[group[0]].grad * 2.0
                opt.step([(name, flat[name]) for name in group])
                ref.step([(name, loop[name]) for name in group])
            opt.clip([(name, flat[name]) for name in groups[1]], 0.5)
            oracle.clip_each([(name, loop[name]) for name in groups[1]], 0.5)
        for name in shapes:
            assert flat[name].data.tobytes() == loop[name].data.tobytes(), (i, name)
    moments = opt.moments
    assert moments.keys() == ref.moments.keys()
    for name, (m, v, t) in ref.moments.items():
        assert moments[name][0].tobytes() == m.tobytes(), name
        assert moments[name][1].tobytes() == v.tobytes(), name
        assert moments[name][2] == t == (5 if name in groups[0] else 10), name


def test_adam_refuses_a_non_finite_gradient_before_writing():
    a, b = nc.parameter(np.ones((2, 2))), nc.parameter(np.zeros(3))
    a.grad, b.grad = np.ones((2, 2)), np.ones(3)
    opt = Adam(0.1)
    opt.step([("a", a), ("b", b)])
    group = opt._groups[("a", "b")]

    def snapshot():
        moments = {name: (m.tobytes(), v.tobytes(), t) for name, (m, v, t) in opt.moments.items()}
        return group.theta.tobytes(), group.m.tobytes(), group.v.tobytes(), group.t, moments

    before = snapshot()
    b.grad = np.array([0.5, np.nan, 0.5])
    with pytest.raises(NumericError, match="^non-finite gradient of parameter 'b'$"):
        opt.step([("a", a), ("b", b)])
    assert snapshot() == before
    # a group whose first step fails is not created
    c = nc.parameter(np.ones(2))
    c.grad = np.array([np.inf, 0.0])
    with pytest.raises(NumericError, match="^non-finite gradient of parameter 'c'$"):
        opt.step([("c", c)])
    assert snapshot() == before and "c" not in opt.moments


def test_only_the_phase_steps_an_optimizer():
    # so that every step is checked once and replayed with the per-op check on
    callers = []
    for path in sorted(Path(training.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for fn in top.body if isinstance(top, ast.ClassDef) else [top]:
                callers += [(path.name, getattr(fn, "name", None)) for node in ast.walk(fn)
                            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                            and node.func.attr == "step"]
    assert callers == [("training.py", "_backward_phase")]


def test_adam_contract_errors_name_the_parameter():
    a, b = nc.parameter(np.ones((2, 2))), nc.parameter(np.ones(3))
    a.grad = np.ones((2, 2))
    opt = Adam(0.1)
    with pytest.raises(ContractError, match="^parameter 'b' has no gradient$"):
        opt.step([("a", a), ("b", b)])
    assert opt.moments == {} and np.array_equal(a.data, np.ones((2, 2)))
    b.grad = np.ones(3)
    opt.step([("a", a), ("b", b)])
    with pytest.raises(ContractError, match="parameter 'b' is already in another phase group"):
        opt.step([("b", b)])
    a.data = np.ones(3)
    with pytest.raises(ContractError, match=r"parameter 'a' changed shape from \(2, 2\) to \(3,\)"):
        opt.step([("a", a), ("b", b)])


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


@pytest.mark.parametrize("override, message", [
    ({"batch_size": 0}, "trainer.batch_size: must be >= 1"),
    ({"max_epochs": -1}, "trainer.max_epochs: must be >= 0"),
    ({"batch_size": 2.5}, "trainer.batch_size: expected an integer, got 2.5"),
    ({"max_epochs": True}, "trainer.max_epochs: expected an integer, got True"),
], ids=["batch_size=0", "max_epochs=-1", "batch_size=2.5", "max_epochs=True"])
def test_fit_overrides_are_checked_as_config_keys(tmp_path, override, message):
    cfg = build_config({"model.name": "mvae", "model.z_dim": 2, "trainer.max_epochs": 1})
    with pytest.raises(ConfigError) as err:
        fit(cfg, _toy_data(), out_dir=tmp_path / "run", **override)
    assert str(err.value) == message
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("name, overrides", [
    ("mvae", {"max_epochs": 3, "batch_size": 0}),
    ("mvae", {"max_epochs": 3, "batch_size": 2.5}),
    ("dccae", {"max_epochs": 3}),  # two views only, and the data has three
], ids=["batch_size=0", "batch_size=2.5", "view_count"])
def test_a_failed_fit_leaves_the_config_unchanged(name, overrides):
    cfg = build_config({"model.name": name, "model.z_dim": 2, "trainer.max_epochs": 1})
    before = copy.deepcopy(cfg)
    with pytest.raises(ConfigError):
        fit(cfg, _toy_data(dims=(3, 4, 2)), **overrides)
    assert cfg == before


def test_fit_refuses_data_of_other_dims_than_configured_before_writing(tmp_path):
    cfg = build_config({"model.name": "mvae", "model.z_dim": 2, "model.input_dims": [3, 5],
                        "trainer.max_epochs": 1})
    before = copy.deepcopy(cfg)
    with pytest.raises(DimensionError) as err:
        fit(cfg, _toy_data(dims=(3, 4)), out_dir=tmp_path / "run")
    assert str(err.value) == "fit: configured input_dims [3, 5] do not match data [3, 4]"
    assert cfg == before and not (tmp_path / "run").exists()


def test_fit_starts_the_metrics_of_an_out_dir_afresh(tmp_path):
    cfg = build_config({"model.name": "mvae", "model.z_dim": 2, "trainer.max_epochs": 1,
                        "trainer.batch_size": 8})
    fit(copy.deepcopy(cfg), _toy_data(), out_dir=tmp_path / "fresh")
    (tmp_path / "used").mkdir()
    (tmp_path / "used" / "metrics.csv").write_text("epoch,term,value\n7,total,1.0\n")
    fit(cfg, _toy_data(), out_dir=tmp_path / "used")
    assert ((tmp_path / "used" / "metrics.csv").read_bytes()
            == (tmp_path / "fresh" / "metrics.csv").read_bytes())


def test_continue_fit_rejects_negative_epochs(tmp_path):
    data = _toy_data()
    cfg = build_config({"model.name": "mvae", "model.z_dim": 2, "trainer.batch_size": 8})
    fit(cfg, data, max_epochs=1, out_dir=tmp_path / "a")
    run = load_run(tmp_path / "a")
    files = {f.name: f.read_bytes() for f in (tmp_path / "a").iterdir()}
    stamps = {f.name: f.stat().st_mtime_ns for f in (tmp_path / "a").iterdir()}
    rng_state = run.rng.bit_generator.state
    for out_dir in (tmp_path / "a", tmp_path / "b"):
        with pytest.raises(ContractError, match="^continue_fit: epochs must be >= 0, got -3$"):
            continue_fit(run, data, -3, out_dir=out_dir)
    assert run.epoch == 1 and run.history == [] and run.rng.bit_generator.state == rng_state
    assert {f.name: f.read_bytes() for f in (tmp_path / "a").iterdir()} == files
    assert {f.name: f.stat().st_mtime_ns for f in (tmp_path / "a").iterdir()} == stamps
    assert not (tmp_path / "b").exists()


def test_continue_fit_checks_the_data_before_it_draws():
    data = _toy_data(dims=(3, 4, 2))
    cfg = build_config({"model.name": "mvae", "model.z_dim": 2, "trainer.batch_size": 8})
    uninterrupted = fit(copy.deepcopy(cfg), data, max_epochs=2)
    run = fit(cfg, data, max_epochs=1)
    wrong = _toy_data(dims=(3, 5, 2))
    with pytest.raises(DimensionError) as err:
        continue_fit(run, wrong, 1)
    assert str(err.value) == "continue_fit: data dims [3, 5, 2] vs model [3, 4, 2]"
    continue_fit(run, data, 1)
    assert run.history[-1] == uninterrupted.history[-1]
    for (name, a), (_, b) in zip(run.state.parameters(), uninterrupted.state.parameters()):
        assert a.data.tobytes() == b.data.tobytes(), name


def _into_support(data, kind):
    """`data` with each view mapped into the support of likelihood `kind`:
    the logistic for Bernoulli, the row softmax for Categorical."""
    views = data.views
    if kind == "Bernoulli":
        views = [1.0 / (1.0 + np.exp(-v)) for v in views]
    if kind == "Categorical":
        views = [np.exp(v) / np.exp(v).sum(axis=1, keepdims=True) for v in views]
    return MultiViewBatch(views=views, labels=data.labels)


def _with_entry(data, view, row, value):
    views = [v.copy() for v in data.views]
    views[view][row, 1] = value
    return MultiViewBatch(views=views, labels=data.labels)


# (model, decoder likelihood, bad entry, how the message names it)
_BAD_TARGETS = [
    ("mvae", "Normal", np.nan, "finite, got value nan"),
    ("mvae", "Laplace", -np.inf, "finite, got value -inf"),
    ("ae", "Default", np.inf, "finite, got value inf"),
    ("mvae", "Bernoulli", 2.0, "in [0, 1], got value 2.0"),
    ("mvae", "Categorical", -0.5, "non-negative, in rows that sum to 1 within 1e-06, "
                                  "got value -0.5"),
]


def _target_run(name, kind):
    flat = {"model.name": name, "model.z_dim": 2, "trainer.batch_size": 8}
    if name != "ae":
        flat["decoder.default.distribution"] = kind
    return build_config(flat), _into_support(_toy_data(), kind)


@pytest.mark.parametrize("name, kind, value, message", _BAD_TARGETS,
                         ids=[kind for _, kind, _, _ in _BAD_TARGETS])
def test_fit_refuses_targets_outside_the_support_before_writing(tmp_path, name, kind, value,
                                                               message):
    cfg, data = _target_run(name, kind)
    before = copy.deepcopy(cfg)
    with pytest.raises(DomainError) as err:
        fit(cfg, _with_entry(data, 1, 17, value), max_epochs=1, out_dir=tmp_path / "run")
    assert str(err.value) == f"view 1 row 17: {kind} targets must be {message}"
    assert cfg == before
    assert not (tmp_path / "run").exists()
    fit(cfg, data, max_epochs=1, out_dir=tmp_path / "run")


def test_continue_fit_and_the_read_outs_refuse_targets_before_they_draw_or_encode(monkeypatch):
    from mvx.evaluation import joint_log_likelihood

    cfg, data = _target_run("mvae", "Bernoulli")
    run = fit(cfg, data, max_epochs=1)
    bad = _with_entry(data, 0, 3, -0.25)
    rng_state = run.rng.bit_generator.state
    with pytest.raises(DomainError, match=r"^view 0 row 3: Bernoulli .* got value -0.25$"):
        continue_fit(run, bad, 1)
    assert run.epoch == 1 and len(run.history) == 1
    assert run.rng.bit_generator.state == rng_state

    def no_encode(*args, **kwargs):
        raise AssertionError("the data were encoded")

    monkeypatch.setattr(training, "_posteriors", no_encode)
    for read in (lambda: predict_latent(run, bad), lambda: joint_log_likelihood(run, bad, K=3)):
        with pytest.raises(DomainError, match="^view 0 row 3: "):
            read()


def test_a_hand_built_run_reads_against_the_dims_it_was_built_with():
    data = _toy_data()
    cfg = build_config({"model.name": "mvae", "model.z_dim": 2, "trainer.batch_size": 8})
    rng = np.random.default_rng(0)
    run = RunState(cfg=cfg, state=build_model(cfg, data.dims, rng),
                   optimizer=Adam(cfg.learning_rate), rng=rng)
    assert cfg.input_dims == [3, 4]
    with pytest.raises(DimensionError) as err:
        build_model(cfg, [3, 5], np.random.default_rng(0))
    assert str(err.value) == "build_model: input_dims [3, 5] vs configured [3, 4]"
    assert predict_latent(run, data).joint.shape == (24, 2)
    wrong = _toy_data(dims=(3, 5))
    with pytest.raises(DimensionError) as err:
        predict_latent(run, wrong)
    assert str(err.value) == "predict_latent: data dims [3, 5] vs model [3, 4]"
    rng_state = rng.bit_generator.state
    with pytest.raises(DimensionError) as err:
        continue_fit(run, wrong, 1)
    assert str(err.value) == "continue_fit: data dims [3, 5] vs model [3, 4]"
    assert run.epoch == 0 and run.history == [] and rng.bit_generator.state == rng_state
    continue_fit(run, data, 1)
    assert run.epoch == 1


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
    flat = {"model.name": name, "model.z_dim": 2, **s_dim_key(name, 1)}
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


def test_mopoe_views_are_capped_at_the_powerset_guard(tmp_path):
    dims = [2] * (MAX_SUBSET_MODALITIES + 1)
    data = _toy_data(n=8, dims=dims)
    flat = {"model.name": "mopoe", "model.z_dim": 2}
    message = (f"model.name: 'mopoe' allows at most {MAX_SUBSET_MODALITIES} views "
               f"(pooling.MAX_SUBSET_MODALITIES), got {len(dims)}")
    with pytest.raises(ConfigError) as err:
        build_config({**flat, "model.input_dims": dims})
    assert str(err.value) == message
    with pytest.raises(ConfigError) as err:
        fit(build_config(flat), data, out_dir=tmp_path / "run")
    assert str(err.value) == message
    assert not (tmp_path / "run").exists()
    # mopoe at the guard, and mvae, which pools no subsets, past it
    build_config({**flat, "model.input_dims": dims[1:]})
    fit(build_config({**flat, "model.name": "mvae"}), data, max_epochs=1)


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
    # mwae has two phase groups stepped at different rates, and clipping
    for name, extra in [("mvae", {}), ("mwae", {"trainer.critic_steps": 2})]:
        flat = {"model.name": name, "model.z_dim": 2, "model.seed": 3,
                "trainer.batch_size": 8, **extra}
        # straight run: 6 epochs
        straight = fit(build_config({**flat, "trainer.max_epochs": 6}), data,
                       out_dir=tmp_path / name / "straight")
        # split run: 3 epochs, checkpoint, reload, 3 more
        fit(build_config({**flat, "trainer.max_epochs": 3}), data,
            out_dir=tmp_path / name / "split")
        resumed = load_run(tmp_path / name / "split")
        continue_fit(resumed, data, 3)
        for (na, pa), (nb, pb) in zip(straight.state.parameters(),
                                      resumed.state.parameters()):
            assert pa.data.tobytes() == pb.data.tobytes(), (name, na)
        assert resumed.epoch == 6
        assert resumed.history == straight.history[3:], name


def test_continue_fit_creates_a_missing_out_dir(tmp_path):
    data = _toy_data()
    cfg = build_config({"model.name": "mvae", "model.z_dim": 2, "trainer.batch_size": 8})
    fit(cfg, data, max_epochs=1, out_dir=tmp_path / "a")
    run = continue_fit(load_run(tmp_path / "a"), data, 1, out_dir=tmp_path / "b")
    assert run.epoch == 2
    lines = (tmp_path / "b" / "metrics.csv").read_text().splitlines()
    assert lines[0] == "epoch,term,value" and all(ln.startswith("2,") for ln in lines[1:])
    assert load_run(tmp_path / "a").epoch == 1
    shutil.copy(tmp_path / "a" / "resolved.cfg", tmp_path / "b")
    assert load_run(tmp_path / "b").epoch == 2


# run directories written by the per-parameter Adam: mvae, and mwae with
# trainer.critic_steps = 2, whose two phase groups have step counts 3 and 6
_V1_RUNS = ["run_mvae", "run_mwae_critic2"]


@pytest.mark.parametrize("run_dir", _V1_RUNS)
def test_a_v1_checkpoint_is_written_back_byte_for_byte(tmp_path, run_dir):
    run = load_run(FIXTURES / run_dir)
    save_checkpoint(run, tmp_path / "checkpoint.mvxc")
    raw = (FIXTURES / run_dir / "checkpoint.mvxc").read_bytes()
    assert (tmp_path / "checkpoint.mvxc").read_bytes() == raw
    steps = {t for _, _, t in run.optimizer.moments.values()}
    assert steps == ({3} if run_dir == "run_mvae" else {3, 6})


def test_a_step_count_that_differs_inside_a_phase_group_is_rejected(tmp_path):
    fixture = FIXTURES / "run_mwae_critic2"
    run = load_run(fixture)
    params = run.state.parameters()
    raw = bytearray((fixture / "checkpoint.mvxc").read_bytes())
    offsets = step_count_offsets(raw)
    struct.pack_into("<Q", raw, offsets[1], 4)
    (tmp_path / "checkpoint.mvxc").write_bytes(bytes(raw))
    before = [p.data.copy() for _, p in params]
    moments = copy.deepcopy(run.optimizer.moments)
    rng_state = run.rng.bit_generator.state
    message = (f"step count of {params[1][0]} at byte {offsets[1]} is 4, "
               f"{params[0][0]} in the same phase group has 3")
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        load_checkpoint(run, tmp_path / "checkpoint.mvxc")
    assert all(np.array_equal(b, p.data) for b, (_, p) in zip(before, params))
    assert moments.keys() == run.optimizer.moments.keys()
    for name, (m, v, t) in moments.items():
        m2, v2, t2 = run.optimizer.moments[name]
        assert np.array_equal(m, m2) and np.array_equal(v, v2) and t == t2
    assert run.rng.bit_generator.state == rng_state and run.epoch == 1


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


def test_load_run_refuses_a_resolved_config_without_input_dims(tmp_path):
    cfg = build_config({"model.name": "mvae", "model.z_dim": 2, "trainer.max_epochs": 1})
    fit(cfg, _toy_data(), out_dir=tmp_path)
    resolved = tmp_path / "resolved.cfg"
    lines = resolved.read_text().splitlines()
    kept = [line for line in lines if not line.startswith("model.input_dims")]
    assert len(kept) == len(lines) - 1
    resolved.write_text("\n".join(kept) + "\n")
    with pytest.raises(ConfigError) as err:
        load_run(tmp_path)
    assert str(err.value) == "model.input_dims: missing from resolved config"


def _mlp_names(name: str) -> list[str]:
    return [f"{name}.layer{i}.{p}" for i in range(2) for p in "Wb"]


def _variational_names(name: str) -> list[str]:
    return [f"{name}.{layer}.{p}" for layer in ("layer0", "mean", "log_var") for p in "Wb"]


@pytest.mark.parametrize("name, keys, names", [
    ("mcvae", {"sparse": True}, _mlp_names("enc0") + _mlp_names("enc1")
     + ["log_alpha0", "log_alpha1"] + _mlp_names("dec0") + _mlp_names("dec1")),
    ("weighted_mvae", {}, _variational_names("enc0") + _variational_names("enc1")
     + ["gpoe_alpha_logits"] + _mlp_names("dec0") + _mlp_names("dec1")),
    ("mmvaeplus", {}, _variational_names("enc0") + _variational_names("enc1")
     + _variational_names("penc0") + _variational_names("penc1")
     + ["aux_log_scale0", "aux_log_scale1"] + _mlp_names("dec0") + _mlp_names("dec1")),
    ("maae", {}, _mlp_names("enc0") + _mlp_names("enc1") + _mlp_names("dec0")
     + _mlp_names("dec1") + _mlp_names("disc")),
], ids=["mcvae-sparse", "weighted_mvae", "mmvaeplus", "maae"])
def test_parameters_are_listed_in_the_order_the_model_is_built(name, keys, names):
    state = make_tiny_state(name, **keys)
    params = state.parameters()
    assert [n for n, _ in params] == names
    # the networks' and the extras' own tensors, each listed once
    networks = [*state.encoders, *(state.private_encoders or []), *state.decoders]
    if state.discriminator is not None:
        networks.append(state.discriminator)
    owned = [t for net in networks for _, t in net.parameters()]
    owned += [*(state.log_alphas or []), *(state.aux_log_scales or [])]
    if state.alpha_logits is not None:
        owned.append(state.alpha_logits)
    assert sorted(map(id, owned)) == sorted(id(t) for _, t in params)


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


def test_checkpoint_sizes_beyond_the_file_and_trailing_bytes_are_rejected(tmp_path):
    cfg = build_config({"model.name": "mvae", "model.z_dim": 2,
                        "trainer.max_epochs": 1, "trainer.batch_size": 8})
    fit(cfg, _toy_data(), out_dir=tmp_path)
    path = tmp_path / "checkpoint.mvxc"
    raw = path.read_bytes()
    # the rng state sits between its u32 length and the u32 epoch at the end
    rng_offset = raw.rindex(b'{"bit_generator"')
    assert struct.unpack_from("<I", raw, rng_offset - 4)[0] == len(raw) - 4 - rng_offset
    cases = [
        (12, "parameter name at byte 16"),
        (rng_offset - 4, f"rng state at byte {rng_offset}"),
    ]
    for field_offset, message in cases:
        huge = bytearray(raw)
        struct.pack_into("<I", huge, field_offset, 2**32 - 1)
        path.write_bytes(bytes(huge))
        with pytest.raises(FormatError, match=message):
            load_run(tmp_path)
    path.write_bytes(raw + b"\0")
    with pytest.raises(FormatError, match=f"trailing bytes at byte {len(raw)}"):
        load_run(tmp_path)


def test_a_corrupt_checkpoint_leaves_the_run_unchanged(tmp_path):
    data = _toy_data()
    flat = {"model.name": "mvae", "model.z_dim": 2, "trainer.batch_size": 8}
    fit(build_config({**flat, "model.seed": 1}), data, max_epochs=1, out_dir=tmp_path)
    path = tmp_path / "checkpoint.mvxc"
    raw = path.read_bytes()
    path.write_bytes(raw.replace(b'"PCG64"', b'"PCG65"'))
    run = fit(build_config({**flat, "model.seed": 2}), data, max_epochs=0)
    before = [p.data.copy() for _, p in run.state.parameters()]
    rng_state = run.rng.bit_generator.state
    rng_offset = raw.rindex(b'{"bit_generator"')
    with pytest.raises(FormatError, match=f"bad rng state at byte {rng_offset}"):
        load_checkpoint(run, path)
    assert all(np.array_equal(b, p.data) for b, (_, p) in zip(before, run.state.parameters()))
    assert run.optimizer.moments == {} and run.epoch == 0
    assert run.rng.bit_generator.state == rng_state


def test_a_checkpoint_write_that_fails_partway_keeps_the_previous_file(tmp_path, monkeypatch):
    data = _toy_data()
    cfg = build_config({"model.name": "mvae", "model.z_dim": 2,
                        "trainer.max_epochs": 1, "trainer.batch_size": 8})
    run = fit(cfg, data, out_dir=tmp_path)
    path = tmp_path / "checkpoint.mvxc"
    before = path.read_bytes()
    write = training._write_checkpoint

    def write_half(run, fh):
        buf = io.BytesIO()
        write(run, buf)
        fh.write(buf.getvalue()[: buf.tell() // 2])
        raise OSError("no space left on device")

    monkeypatch.setattr(training, "_write_checkpoint", write_half)
    with pytest.raises(OSError, match="no space"):
        continue_fit(run, data, 1, out_dir=tmp_path)
    assert path.read_bytes() == before
    assert sorted(f.name for f in tmp_path.iterdir()) == [
        "checkpoint.mvxc", "metrics.csv", "resolved.cfg"]


def test_mwae_weights_stay_clipped(tmp_path):
    data = _toy_data()
    cfg = build_config({"model.name": "mwae", "model.z_dim": 2,
                        "model.seed": 0, "trainer.max_epochs": 2,
                        "trainer.batch_size": 8})
    run = fit(cfg, data)
    for name, p in run.state.phase_groups()[1]:
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
    with pytest.warns(RuntimeWarning), pytest.raises(NumericError) as err:
        continue_fit(run, data, 1)
    assert "epoch 0: non-finite result in op 'square'" in str(err.value)
    assert_per_op_check_on()


def test_nan_in_a_critic_step_names_the_op():
    data = _toy_data()
    cfg = build_config({"model.name": "mwae", "model.z_dim": 2, "trainer.batch_size": 8})
    run = fit(cfg, data, max_epochs=0)
    # the autoencoder step moves each weight by about the learning rate, so
    # the critic step after it overflows
    run.optimizer.learning_rate = 1e200
    with pytest.warns(RuntimeWarning), pytest.raises(NumericError) as err:
        continue_fit(run, data, 1)
    assert "epoch 0: non-finite result in op 'matmul'" in str(err.value)
    steps = {name: t for name, (_, _, t) in run.optimizer.moments.items()}
    assert steps and set(steps.values()) == {1}
    assert not any(name.startswith("disc") for name in steps)
    assert all(p.requires_grad for _, p in run.state.parameters())
    assert_per_op_check_on()


def _phase_grads(state, views, phase, seed):
    """Zero every gradient, then run one phase's objective and backward."""
    out = ADVERSARIAL_OBJECTIVES[state.cfg.name](state, views, EpsStream(np.random.default_rng(seed)))
    loss = out.discriminator if phase == "critic" else out.reconstruction.total + out.generator
    for _, p in state.parameters():
        p.grad = None
    nc.backward(loss)
    return loss


@pytest.mark.parametrize("name,non_saturating", [
    ("mwae", False), ("maae", False), ("maae", True),
], ids=["mwae", "maae", "maae_non_saturating"])
@pytest.mark.parametrize("phase", ["autoencoder", "critic"])
def test_a_phase_differentiates_only_the_group_it_steps(name, non_saturating, phase):
    data = _toy_data()
    cfg = build_config({"model.name": name, "model.z_dim": 2,
                        "model.non_saturating": non_saturating})
    state = build_model(cfg, data.dims, np.random.default_rng(4))
    views = _as_views(data)
    params = state.parameters()
    ae_params, disc_params = state.phase_groups()
    stepped = disc_params if phase == "critic" else ae_params
    frozen = [p for p in params if p not in stepped]
    assert stepped and frozen
    _phase_grads(state, views, phase, seed=7)
    full = {name: p.grad for name, p in stepped}
    assert any(p.grad is not None for _, p in frozen)
    _backward_phase(lambda: (_phase_grads(state, views, phase, seed=7), {}), stepped, frozen,
                    Adam(0.1))
    for name, p in stepped:
        assert np.array_equal(p.grad, full[name]), name
    for name, p in frozen:
        assert p.grad is None, name
    assert all(p.requires_grad for _, p in params)


_EVERY_MODEL = [(name, {}) for name in MODEL_SPECS] + [
    ("dvcca", {"model.private": True}), ("mcvae", {"model.sparse": True})]


@pytest.mark.parametrize("name, extra", _EVERY_MODEL,
                         ids=[name + "".join("-" + key.split(".")[1] for key in extra)
                              for name, extra in _EVERY_MODEL])
def test_every_stepped_parameter_has_a_gradient_at_every_step(monkeypatch, name, extra):
    missing = []
    step = Adam.step

    def checked_step(self, params):
        missing.append([n for n, p in params if p.grad is None])
        step(self, params)

    monkeypatch.setattr(Adam, "step", checked_step)
    data = _toy_data(dims=(3, 4, 2)[:MODEL_SPECS[name].n_views or 3])
    cfg = build_config({"model.name": name, "model.z_dim": 2,
                        **s_dim_key(name, 1, extra.get("model.private", False)),
                        **({} if MODEL_SPECS[name].full_batch else {"trainer.batch_size": 8}),
                        **({"trainer.critic_steps": 2} if name == "mwae" else {}), **extra})
    fit(cfg, data, max_epochs=2)
    assert missing and all(names == [] for names in missing), missing


def test_every_parameter_requires_grad_after_adversarial_training():
    data = _toy_data()
    cfg = build_config({"model.name": "mwae", "model.z_dim": 2, "trainer.batch_size": 8})
    run = fit(cfg, data, max_epochs=1)
    continue_fit(run, data, 1)
    assert all(p.requires_grad for _, p in run.state.parameters())


@pytest.mark.parametrize("name, bound_mb", [("mvae", 1.75), ("mopoe", 6.0)])
def test_an_epoch_at_benchmark_scale_keeps_its_traced_peak_under_the_bound(name, bound_mb):
    # the benchmark's shape: 3 views of 24 dims, 2000 rows, batch 256, z_dim 8,
    # hidden [32]. A graph node keeps only the arrays its backward rule reads,
    # and a mul, div or matmul operand only when its partner requires grad:
    # the peaks are about 4.8 (mopoe) and 1.6 MB (mvae). Nodes that also saved
    # an operand whose partner is a constant would take them to 7.1 and 1.9 MB,
    # and nodes that also kept their values to 16.4 and 3.8 MB
    data = generate_synthetic(SyntheticSpec(n_classes=8, n_samples=2000, dims=[24, 24, 24],
                                            style_noise=0.1, background_noise=1.0, seed=1))
    cfg = build_config({"model.name": name, "model.z_dim": 8, "model.seed": 3,
                        "encoder.default.hidden_layer_dim": [32],
                        "decoder.default.hidden_layer_dim": [32],
                        "decoder.default.distribution": "Normal",
                        "decoder.default.scale": 0.75,
                        "trainer.max_epochs": 1, "trainer.batch_size": 256})
    run = fit(cfg, data)
    tracemalloc.start()
    try:
        continue_fit(run, data, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mb * 1e6, f"traced peak {peak / 1e6:.2f} MB"


def test_non_finite_gradient_names_the_parameter_and_steps_nothing():
    data = _toy_data()
    cfg = build_config({"model.name": "mvae", "model.z_dim": 2, "trainer.batch_size": 8})
    run = fit(cfg, data, max_epochs=1)
    (_, hidden_bias), (out_weight, out_bias) = run.state.decoders[0].layers
    # the relu of a dead hidden layer hides the huge weights after it from
    # the forward pass; the backward pass multiplies by them and overflows
    hidden_bias.data[...] = -1e10
    out_weight.data[...] = 1e308
    out_bias.data[...] = -100.0
    params = dict(run.state.parameters())
    before = {name: p.data.copy() for name, p in params.items()}
    moments = copy.deepcopy(run.optimizer.moments)
    rng = np.random.default_rng()
    rng.bit_generator.state = run.rng.bit_generator.state
    with pytest.warns(RuntimeWarning), pytest.raises(NumericError) as err:
        continue_fit(run, data, 1)
    named = re.search(r"epoch 1: non-finite gradient of parameter '(.+)'", str(err.value))
    assert named and not np.isfinite(params[named.group(1)].grad).all()
    assert all(np.array_equal(before[name], p.data) for name, p in params.items())
    assert moments.keys() == run.optimizer.moments.keys()
    for name, (m, v, t) in moments.items():
        m2, v2, t2 = run.optimizer.moments[name]
        assert np.array_equal(m, m2) and np.array_equal(v, v2) and t == t2
    # the replay restored the generator: it has drawn one step's worth
    order = rng.permutation(data.n_samples)
    with nc.no_grad():
        VARIATIONAL_OBJECTIVES["mvae"](run.state, _as_views(data.subset(order[:8])),
                                       EpsStream(rng))
    assert rng.bit_generator.state == run.rng.bit_generator.state
    assert_per_op_check_on()


def test_drawn_seed_is_recorded_and_reproduces_the_run(tmp_path):
    data = _toy_data()
    flat = {"model.name": "mvae", "model.z_dim": 2, "model.seed_everything": False,
            "trainer.max_epochs": 2, "trainer.batch_size": 8}
    run = fit(build_config(flat), data, out_dir=tmp_path)
    resolved = load_config(tmp_path / "resolved.cfg")
    assert resolved.seed_everything
    again = fit(resolved, data)
    assert again.history == run.history
