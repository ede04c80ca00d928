"""The model table: every model's capabilities across the prediction and
evaluation API, pinned on tiny untrained models."""

import ast
import copy
import inspect
import textwrap
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import mvx
from mvx import evaluation, objectives, training
from mvx import numcore as nc
from mvx.config import (
    MODEL_KEYS,
    ModelConfig,
    NetSpecConfig,
    TrainerConfig,
    _declared_keys,
    build_config,
    parse_config_text,
    resolved_lines,
)
from mvx.data import SyntheticSpec, generate_synthetic
from mvx.distributions import standard_normal
from mvx.errors import ConfigError, DimensionError, UnsupportedMetricError
from mvx.evaluation import coherence, joint_log_likelihood, train_probe_classifier
from mvx.objectives import (
    ADVERSARIAL_OBJECTIVES,
    MODEL_SPECS,
    PLAIN_OBJECTIVES,
    EpsStream,
    ModelState,
    VARIATIONAL_OBJECTIVES,
)
from mvx.pooling import gpoe
from mvx.training import fit, predict_latent, predict_reconstruction

from helpers import make_tiny_state, make_tiny_views, s_dim_key

# name, extra config keys, views, has joint, reconstruction rows, coherence, loglik
CAPABILITIES = [
    ("ae", {}, 3, False, 3, False, False),
    ("jmvae", {}, 2, True, 3, False, True),
    ("dccae", {}, 2, False, 2, False, False),
    ("dvcca", {}, 2, True, 2, False, True),
    ("dvcca", {"model.private": True}, 2, True, 2, False, False),
    ("mcvae", {}, 3, True, 4, False, True),
    ("mvae", {}, 3, True, 4, True, True),
    ("me_mvae", {}, 3, True, 4, True, True),
    ("mmvae", {}, 3, True, 4, True, True),
    ("mvtcae", {}, 3, True, 4, True, True),
    ("mopoe", {}, 3, True, 4, True, True),
    ("weighted_mvae", {}, 3, True, 4, True, True),
    ("mmjsd", {}, 3, True, 4, True, True),
    ("mmvaeplus", {}, 3, True, 4, True, False),
    ("dmvae", {}, 3, True, 4, True, False),
    ("maae", {}, 3, False, 3, False, False),
    ("mwae", {}, 3, False, 3, False, False),
]


def test_every_model_has_one_entry_and_one_objective():
    # the three objective tables partition the model table by its entries'
    # adversary and encoder, and hold each entry's own objective
    tables = {"variational": VARIATIONAL_OBJECTIVES, "plain": PLAIN_OBJECTIVES,
              "adversarial": ADVERSARIAL_OBJECTIVES}
    for name, spec in MODEL_SPECS.items():
        kind = ("adversarial" if spec.adversary is not None
                else "plain" if spec.encoder == "plain" else "variational")
        assert [k for k, table in tables.items() if name in table] == [kind], name
        assert tables[kind][name] is spec.objective, name
    assert sum(map(len, tables.values())) == len(MODEL_SPECS)
    assert sorted({case[0] for case in CAPABILITIES}) == sorted(MODEL_SPECS)


def test_objectives_draw_a_posterior_sample_only_through_the_eps_stream():
    # every reparameterized draw of the losses is `EpsStream.sample`: the
    # only reference to `rsample` in objectives.py outside its import
    def references(node):
        return [n for n in ast.walk(node)
                if getattr(n, "id", getattr(n, "attr", None)) == "rsample"]
    tree = ast.parse(inspect.getsource(objectives))
    [stream] = [n for n in tree.body if getattr(n, "name", None) == "EpsStream"]
    [sample] = [n for n in stream.body if getattr(n, "name", None) == "sample"]
    assert len(references(tree)) == len(references(sample)) == 1


def test_model_state_copies_no_config_key():
    keys = {f.name for f in fields(ModelConfig) if "parse" in f.metadata}
    assert not {f.name for f in fields(ModelState)} & keys


def test_model_state_rejects_a_hyperparameter_write():
    state = make_tiny_state("mvtcae", alpha=0.5)
    with pytest.raises(AttributeError):
        state.alpha = 0.5
    assert state.cfg.alpha == 0.5


@pytest.mark.parametrize("name, extra, n_views, joint, rows, coherent, loglik", CAPABILITIES,
                         ids=[case[0] + "-private" * bool(case[1]) for case in CAPABILITIES])
def test_capability_matrix(name, extra, n_views, joint, rows, coherent, loglik):
    data = generate_synthetic(SyntheticSpec(
        n_classes=2, n_samples=10, dims=[2, 3, 2][:n_views], seed=0))
    cfg = build_config({"model.name": name, "model.z_dim": 2,
                        **s_dim_key(name, 1, extra.get("model.private", False)),
                        "encoder.default.hidden_layer_dim": [4],
                        "decoder.default.hidden_layer_dim": [4], **extra})
    run = fit(cfg, data, max_epochs=0)

    assert (predict_latent(run, data).joint is not None) == joint
    grid = predict_reconstruction(run, data)
    assert len(grid) == rows
    assert all(len(row) == n_views for row in grid)

    probes = [train_probe_classifier(v, data.labels, epochs=1) for v in data.views]
    if coherent:
        assert set(coherence(run, data, probes).per_size) == set(range(1, n_views + 1))
    else:
        with pytest.raises(UnsupportedMetricError):
            coherence(run, data, probes)
    if loglik:
        assert np.isfinite(joint_log_likelihood(run, data, K=2))
    else:
        with pytest.raises(UnsupportedMetricError):
            joint_log_likelihood(run, data, K=2)

    # data with one view fewer or one more is refused by every read-out
    readouts = [("predict_latent", lambda d: predict_latent(run, d)),
                ("predict_reconstruction", lambda d: predict_reconstruction(run, d))]
    if coherent:
        readouts.append(("coherence", lambda d: coherence(run, d, probes)))
    if loglik:
        readouts.append(("joint_log_likelihood", lambda d: joint_log_likelihood(run, d, K=2)))
    for count in (n_views - 1, n_views + 1):
        other = generate_synthetic(SyntheticSpec(
            n_classes=2, n_samples=10, dims=[2, 3, 2, 2][:count], seed=0))
        for caller, read in readouts:
            with pytest.raises(DimensionError) as err:
                read(other)
            assert str(err.value) == f"{caller}: data dims {other.dims} vs model {data.dims}"


@pytest.mark.parametrize("extra", [{}, {"model.private": True, "model.s_dim": 1}],
                         ids=["dvcca", "dvcca-private"])
def test_dvccas_joint_row_is_its_reference_row_bit_for_bit(extra):
    # the reference encoder's posterior is dvcca's joint: the read-outs report
    # it once per encoder and once as the joint
    data = generate_synthetic(SyntheticSpec(n_classes=2, n_samples=10, dims=[2, 3], seed=0))
    cfg = build_config({"model.name": "dvcca", "model.z_dim": 2, "trainer.batch_size": 5,
                        **extra})
    run = fit(cfg, data, max_epochs=2)
    latent = predict_latent(run, data)
    assert np.array_equal(latent.joint, latent.per_modality[0])
    [reference, joint] = predict_reconstruction(run, data)
    for ref, jnt in zip(reference, joint, strict=True):
        assert np.array_equal(ref, jnt)


def test_objectives_pool_only_through_the_table_hooks():
    pooling = {"poe", "gpoe"}
    for table in (VARIATIONAL_OBJECTIVES, PLAIN_OBJECTIVES, ADVERSARIAL_OBJECTIVES):
        for fn in table.values():
            tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
            called = {getattr(node.func, "id", getattr(node.func, "attr", None))
                      for node in ast.walk(tree) if isinstance(node, ast.Call)}
            assert not called & pooling, fn.__name__


class _NetworkReads(ast.NodeVisitor):
    """(innermost function, attribute, receiver) for every read of a
    network's `decode`, `forward` or `score`."""

    def __init__(self):
        self.function = None
        self.found = set()

    def visit_FunctionDef(self, node):
        outer, self.function = self.function, node.name
        self.generic_visit(node)
        self.function = outer

    def visit_Attribute(self, node):
        if node.attr in ("decode", "forward", "score"):
            self.found.add((self.function, node.attr, ast.unparse(node.value)))
        self.generic_visit(node)


def test_losses_decode_only_through_the_shared_helpers():
    # the losses, the read-out and the metrics call each kind of model network
    # from one function; an alias of the method counts as a call
    reads = _NetworkReads()
    for module in (objectives, evaluation, training):
        reads.visit(ast.parse(inspect.getsource(module)))
    assert reads.found == {
        ("_decode", "decode", "state.decoders[m]"),
        ("_encode", "forward", "enc"),
        ("_adversarial_scores", "score", "state.discriminator"),
        # the probe classifier's own network, and bytes read from a checkpoint
        ("_loss", "forward", "self.net"),
        ("predict", "forward", "self.net"),
        ("load_checkpoint", "decode", "stored"),
        ("load_checkpoint", "decode", "blob"),
    }


class _Callers(ast.NodeVisitor):
    """The innermost function around every call of `callee`."""

    def __init__(self, callee: str):
        self.callee = callee
        self.function = None
        self.found = []

    def visit_FunctionDef(self, node):
        outer, self.function = self.function, node.name
        self.generic_visit(node)
        self.function = outer

    def visit_Call(self, node):
        if getattr(node.func, "id", getattr(node.func, "attr", None)) == self.callee:
            self.found.append(self.function)
        self.generic_visit(node)


def test_the_views_are_checked_only_where_the_losses_encode_them():
    callers = _Callers("_check_views")
    for path in sorted(Path(mvx.__file__).parent.glob("*.py")):
        callers.visit(ast.parse(path.read_text(encoding="utf-8")))
    assert callers.found == ["_posteriors"]


def _loss_refusal(monkeypatch, name: str, views, error, message: str) -> None:
    """The loss of `name`, on the views that `views(state)` returns for a tiny
    model, raises `error` with exactly `message` before any op runs or any
    number is drawn."""
    n_views = MODEL_SPECS[name].n_views or 3
    state = make_tiny_state(name, dims=(2,) * n_views)

    def no_op(*args, **kwargs):
        raise AssertionError("an op ran before the views were checked")

    monkeypatch.setattr(nc, "_make", no_op)
    rng = np.random.default_rng(5)
    before = rng.bit_generator.state
    with pytest.raises(error) as err:
        MODEL_SPECS[name].objective(state, views(state), EpsStream(rng))
    assert str(err.value) == message
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("name", MODEL_SPECS)
def test_every_loss_refuses_one_view_too_few_before_any_op_or_draw(monkeypatch, name):
    n = MODEL_SPECS[name].n_views or 3
    _loss_refusal(monkeypatch, name, lambda state: make_tiny_views(dims=(2,) * (n - 1)),
                  DimensionError, f"{name}: got {n - 1} views, model has {n}")


@pytest.mark.parametrize("name", MODEL_SPECS)
@pytest.mark.parametrize("first", ["matrix", "scalar"])
def test_every_loss_refuses_a_ragged_batch_before_any_op_or_draw(monkeypatch, name, first):
    n = MODEL_SPECS[name].n_views or 3

    def ragged(state):
        views = make_tiny_views(dims=(2,) * n, batch=3)
        if first == "scalar":
            views[0] = nc.constant(1.0)
        return views[:-1] + make_tiny_views(dims=(2,), batch=2)

    _loss_refusal(monkeypatch, name, ragged, DimensionError,
                  f"{name}: views must be (batch, dim) with a shared batch")


def test_mmjsd_pools_every_subset_by_one_rule():
    state = make_tiny_state("mmjsd", pi=[0.2, 0.3, 0.5])
    posteriors = [enc.forward(x) for enc, x in zip(state.encoders, make_tiny_views())]
    spec = MODEL_SPECS["mmjsd"]
    full = spec.pool(state, posteriors, (0, 1))
    q = spec.joint(state, posteriors, (0, 1))
    assert np.array_equal(q.mean.data, full.mean.data)
    assert np.array_equal(q.log_var.data, full.log_var.data)
    # a subset takes the exponents of its members and the prior, renormalized
    sub = spec.pool(state, posteriors, (1,))
    ref = gpoe([posteriors[1], standard_normal(posteriors[1].shape)],
               [0.3 / 0.8, 0.5 / 0.8])
    assert np.allclose(sub.mean.data, ref.mean.data, rtol=0, atol=1e-12)
    assert np.allclose(sub.log_var.data, ref.log_var.data, rtol=0, atol=1e-12)


# a non-default value of every model-specific key; threshold 0.01 lies below
# the dropout rate that sparse mcVAE starts from, so it masks every dimension
_OTHER_VALUES = {
    "s_dim": 2, "beta": 2.0, "alpha": 0.5, "K": 3, "lambda": [0.5], "sparse": True,
    "threshold": 0.01, "private": True, "join_type": "Mean", "non_saturating": True,
    "stochastic_subsets": True, "pi": [0.1, 0.2, 0.3, 0.4],
}
# keys that only act together with another one
_COMPANIONS = {("dvcca", "s_dim"): {"private": True, "s_dim": 1},
               ("dvcca", "private"): {"s_dim": 1}, ("mcvae", "threshold"): {"sparse": True}}


def _base_keys(name: str) -> dict:
    return {"model.name": name, "model.z_dim": 2, **s_dim_key(name, 1),
            "encoder.default.hidden_layer_dim": [4], "decoder.default.hidden_layer_dim": [4]}


def test_the_model_keys_are_the_union_of_the_entries_keys():
    assert MODEL_KEYS == _OTHER_VALUES.keys()
    assert sum(len(MODEL_KEYS - spec.keys) for spec in MODEL_SPECS.values()) == 166
    for spec in MODEL_SPECS.values():
        assert spec.view_weights is None or spec.view_weights[0] in spec.keys


@pytest.mark.parametrize("name", MODEL_SPECS)
def test_a_model_accepts_only_the_defaults_of_keys_it_does_not_read(name):
    defaults = build_config({"model.name": "ae", "model.z_dim": 1})
    for key in sorted(MODEL_KEYS - MODEL_SPECS[name].keys):
        with pytest.raises(ConfigError) as err:
            build_config({**_base_keys(name), f"model.{key}": _OTHER_VALUES[key]})
        assert str(err.value) == f"model.{key}: model '{name}' does not use this key"
        default = getattr(defaults, _declared_keys(ModelConfig)[key].name)
        if default is not None:  # an unset model.pi is its default
            build_config({**_base_keys(name), f"model.{key}": default})


# a key or encoder slot that a flag turns off: (model, key, a value of it,
# the flag, the flag's value under which the model reads the key)
_FLAGGED = [
    ("dvcca", "model.s_dim", 3, "model.private", True),
    ("mcvae", "model.threshold", 0.3, "model.sparse", True),
    ("mcvae", "model.join_type", "Mean", "model.sparse", False),
    ("dvcca", "encoder.1.hidden_layer_dim", [3], "model.private", True),
]


@pytest.mark.parametrize("name, key, value, flag, on", _FLAGGED,
                         ids=[f"{name}-{key}" for name, key, *_ in _FLAGGED])
def test_a_key_that_a_flag_turns_off_is_refused(name, key, value, flag, on):
    base = {"model.name": name, "model.z_dim": 2, key: value}
    with pytest.raises(ConfigError) as err:
        build_config({**base, flag: not on})
    where, what = (key, "key") if key.startswith("model.") else (key.rsplit(".", 1)[0], "slot")
    assert str(err.value) == f"{where}: model '{name}' does not use this {what}"
    cfg = build_config({**s_dim_key(name, 1, flag == "model.private"), **base, flag: on})
    assert parse_config_text("\n".join(resolved_lines(cfg)))[key] == value


def _outputs(cfg: ModelConfig) -> tuple:
    """The 2-epoch history and the predictions of `cfg`, as comparable values."""
    n_views = MODEL_SPECS[cfg.name].n_views or 3
    data = generate_synthetic(SyntheticSpec(
        n_classes=2, n_samples=16, dims=[2, 3, 2][:n_views], seed=0))
    batched = not MODEL_SPECS[cfg.name].full_batch
    run = fit(cfg, data, max_epochs=2, batch_size=8 if batched else None)
    lat = predict_latent(run, data)
    arrays = [*lat.per_modality, lat.joint, *(lat.private or []), *(lat.kept_masks or []),
              *(x for row in predict_reconstruction(run, data) for x in row)]
    return run.history, [None if a is None else (a.shape, a.tobytes()) for a in arrays]


def _set(cfg: ModelConfig, keys: dict) -> ModelConfig:
    """A copy of `cfg` with `keys` written into it, past `build_config`'s checks."""
    cfg = copy.deepcopy(cfg)
    for key, value in keys.items():
        setattr(cfg, _declared_keys(ModelConfig)[key].name, value)
    return cfg


@pytest.mark.parametrize("name", MODEL_SPECS)
def test_a_model_reads_exactly_the_keys_of_its_entry(name):
    cfg = build_config(_base_keys(name))
    reference = _outputs(cfg)
    for key in sorted(MODEL_KEYS - MODEL_SPECS[name].keys):
        assert _outputs(_set(cfg, {key: _OTHER_VALUES[key]})) == reference, key
    for key in sorted(MODEL_SPECS[name].keys):
        base = _set(cfg, _COMPANIONS.get((name, key), {}))
        assert _outputs(_set(base, {key: _OTHER_VALUES[key]})) != _outputs(base), key


@pytest.mark.parametrize("name", MODEL_SPECS)
def test_a_full_batch_model_refuses_a_batch_size(name):
    data = generate_synthetic(SyntheticSpec(
        n_classes=2, n_samples=16, dims=[2, 3, 2][:MODEL_SPECS[name].n_views or 3], seed=0))
    default = TrainerConfig().batch_size
    build_config({**_base_keys(name), "trainer.batch_size": default})
    fit(build_config(_base_keys(name)), data, max_epochs=0, batch_size=default)
    calls = [lambda: build_config({**_base_keys(name), "trainer.batch_size": 8}),
             lambda: fit(build_config(_base_keys(name)), data, max_epochs=0, batch_size=8)]
    for call in calls:
        if not MODEL_SPECS[name].full_batch:
            call()
            continue
        with pytest.raises(ConfigError) as err:
            call()
        assert str(err.value) == f"trainer.batch_size: model '{name}' does not use this key"


def test_a_full_batch_config_refuses_a_batch_size():
    data = generate_synthetic(SyntheticSpec(n_classes=2, n_samples=16, dims=[2, 3, 2], seed=0))
    keys = {**_base_keys("mvae"), "trainer.full_batch": True}
    calls = [lambda: build_config({**keys, "trainer.batch_size": 4}),
             lambda: fit(build_config(keys), data, max_epochs=0, batch_size=4)]
    for call in calls:
        with pytest.raises(ConfigError) as err:
            call()
        assert str(err.value) == "trainer.batch_size: model 'mvae' does not use this key"
    fit(build_config({**keys, "trainer.batch_size": 64}), data, max_epochs=0, batch_size=64)
    build_config({**_base_keys("mvae"), "trainer.batch_size": 4})


@pytest.mark.parametrize("name", MODEL_SPECS)
def test_a_plain_autoencoder_refuses_a_decoder_distribution(name):
    # its decoders score squared error whatever the config says. It still
    # accepts a scale, which it does not read either: the benchmark's mwae
    # workload sets one
    plain = MODEL_SPECS[name].encoder == "plain"
    for slot in ("default", 0):
        flat = {**_base_keys(name), f"decoder.{slot}.distribution": "Laplace"}
        if plain:
            with pytest.raises(ConfigError) as err:
                build_config(flat)
            assert str(err.value) == (
                f"decoder.{slot}.distribution: model '{name}' does not use this key")
        else:
            build_config(flat)
        build_config({**_base_keys(name), f"decoder.{slot}.distribution": "Normal",
                      f"decoder.{slot}.scale": 0.5})
    cfg = build_config(_base_keys(name))
    moved = copy.deepcopy(cfg)
    moved.decoders = {"default": NetSpecConfig(hidden_layer_dim=[4], distribution="Laplace",
                                               scale=0.5)}
    assert (_outputs(moved) != _outputs(cfg)) == (not plain)


def test_a_decoder_likelihood_without_a_scale_refuses_one():
    for distribution in ("Bernoulli", "Categorical", "Default"):
        keys = {**_base_keys("mvae"), "decoder.default.distribution": distribution}
        with pytest.raises(ConfigError) as err:
            build_config({**keys, "decoder.default.scale": 3.0})
        assert str(err.value) == "decoder.default.scale: model 'mvae' does not use this key"
        build_config({**keys, "decoder.default.scale": 1.0})
    # each slot's own likelihood decides, and a model with plain encoders but
    # variational losses (sparse mcVAE) reads both keys
    build_config({**_base_keys("mvae"), "decoder.0.distribution": "Bernoulli",
                  "decoder.default.scale": 3.0})
    with pytest.raises(ConfigError, match="decoder.0.scale: model 'mvae' does not use"):
        build_config({**_base_keys("mvae"), "decoder.0.distribution": "Bernoulli",
                      "decoder.0.scale": 3.0})
    build_config({**_base_keys("mcvae"), "model.sparse": True,
                  "decoder.default.distribution": "Laplace", "decoder.default.scale": 0.5})


@pytest.mark.parametrize("name", MODEL_SPECS)
def test_only_a_critic_model_reads_the_critic_trainer_keys(name):
    critic = MODEL_SPECS[name].adversary == "critic"
    cfg = build_config(_base_keys(name))
    reference = _outputs(cfg)
    for key, value in (("critic_steps", 7), ("clip", 0.5)):
        flat = {**_base_keys(name), f"trainer.{key}": value}
        if critic:
            build_config(flat)
        else:
            with pytest.raises(ConfigError) as err:
                build_config(flat)
            assert str(err.value) == f"trainer.{key}: model '{name}' does not use this key"
        build_config({**_base_keys(name), f"trainer.{key}": getattr(TrainerConfig(), key)})
        moved = copy.deepcopy(cfg)
        setattr(moved.trainer, key, value)
        assert (_outputs(moved) != reference) == critic, key
