"""Analytic gradients of every objective vs central finite differences.

Each model runs on a seeded 2-view toy instance (2-4 dims) with pinned eps
draws; tanh activations keep the check clear of relu kinks.
"""

import numpy as np
import pytest

from mvx import numcore as nc
from mvx.config import build_config
from mvx.objectives import (
    ADVERSARIAL_OBJECTIVES,
    PLAIN_OBJECTIVES,
    VARIATIONAL_OBJECTIVES,
)
from mvx.training import build_model

from helpers import (
    RecordingEps,
    ReplayEps,
    assert_grad_close,
    finite_difference_grad,
    s_dim_key,
)

REL_TOL = 1e-3

MODEL_KEYS = {
    "mvtcae": {"model.alpha": 0.5, "model.beta": 1.5},
    "jmvae": {"model.alpha": 0.7},
    "mmvae": {"model.K": 2},
    "mmvaeplus": {"model.K": 2},
    "mcvae_sparse": {"model.sparse": True},
    "dvcca_private": {"model.private": True},
    "dccae": {"model.lambda": 0.4},
    "dmvae": {"model.lambda": [0.8, 1.2]},
}


def _build(name: str, seed: int = 3):
    base_name = name.replace("_sparse", "").replace("_private", "")
    flat = {
        "model.name": base_name,
        "model.z_dim": 2,
        **s_dim_key(base_name, 2, name.endswith("_private")),
        "encoder.default.hidden_layer_dim": [3],
        "encoder.default.activation": "tanh",
        "decoder.default.hidden_layer_dim": [3],
        "decoder.default.activation": "tanh",
    }
    flat.update(MODEL_KEYS.get(name, {}))
    cfg = build_config(flat)
    dims = [2, 3]
    state = build_model(cfg, dims, np.random.default_rng(seed))
    batch = 8 if base_name == "dccae" else 3
    rng = np.random.default_rng(seed + 100)
    views = [nc.constant(rng.normal(size=(batch, d))) for d in dims]
    return state, views


def _record_and_replay(state, views, scalar_of):
    """Capture one eps stream, then return f() that re-evaluates with it."""
    rec = RecordingEps(np.random.default_rng(17))
    first = scalar_of(state, views, rec)
    replay = ReplayEps(rec.draws, rec.integer_draws)

    def f() -> float:
        replay.reset()
        return scalar_of(state, views, replay)

    return first, f


def _check_all_params(state, f, build_loss, params=None):
    loss = build_loss()
    for _, p in state.parameters():
        p.grad = None
    nc.backward(loss)
    checked = 0
    for name, p in params if params is not None else state.parameters():
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        numeric = finite_difference_grad(f, p)
        assert_grad_close(analytic, numeric, rel=REL_TOL, abs_tol=1e-6, label=name)
        checked += p.data.size
    assert checked > 0


VARIATIONAL_CASES = [
    "jmvae", "dvcca", "dvcca_private", "mcvae", "mcvae_sparse", "mvae",
    "me_mvae", "mmvae", "mvtcae", "mopoe", "weighted_mvae", "mmjsd",
    "mmvaeplus", "dmvae",
]


@pytest.mark.parametrize("name", VARIATIONAL_CASES)
def test_variational_objective_gradients(name):
    base = name.replace("_sparse", "").replace("_private", "")
    objective = VARIATIONAL_OBJECTIVES[base]
    state, views = _build(name)

    def scalar_of(state, views, eps):
        return objective(state, views, eps).total.item()

    _, f = _record_and_replay(state, views, scalar_of)
    rec = RecordingEps(np.random.default_rng(17))
    _check_all_params(state, f, lambda: objective(state, views, rec).total)


@pytest.mark.parametrize("name", ["ae", "dccae"])
def test_plain_objective_gradients(name):
    objective = PLAIN_OBJECTIVES[name]
    state, views = _build(name)

    def f() -> float:
        return objective(state, views, ReplayEps([])).total.item()

    _check_all_params(state, f, lambda: objective(state, views, ReplayEps([])).total)


@pytest.mark.parametrize("name", ["maae", "mwae"])
def test_adversarial_objective_gradients(name):
    objective = ADVERSARIAL_OBJECTIVES[name]
    state, views = _build(name)

    def ae_scalar(state, views, eps):
        out = objective(state, views, eps)
        return (out.reconstruction.total + out.generator).item()

    _, f_ae = _record_and_replay(state, views, ae_scalar)
    rec = RecordingEps(np.random.default_rng(17))
    _check_all_params(
        state,
        f_ae,
        lambda: (lambda o: o.reconstruction.total + o.generator)(
            objective(state, views, rec)
        ),
        params=state.phase_groups()[0],
    )

    def disc_scalar(state, views, eps):
        return objective(state, views, eps).discriminator.item()

    _, f_disc = _record_and_replay(state, views, disc_scalar)
    rec2 = RecordingEps(np.random.default_rng(17))
    _check_all_params(
        state,
        f_disc,
        lambda: objective(state, views, rec2).discriminator,
        params=state.phase_groups()[1],
    )
