"""The model table: every model's capabilities across the prediction and
evaluation API, pinned on tiny untrained models."""

import numpy as np
import pytest

from mvx.config import build_config
from mvx.data import SyntheticSpec, generate_synthetic
from mvx.errors import UnsupportedMetricError
from mvx.evaluation import coherence, joint_log_likelihood, train_probe_classifier
from mvx.objectives import (
    ADVERSARIAL_OBJECTIVES,
    MODEL_SPECS,
    PLAIN_OBJECTIVES,
    VARIATIONAL_OBJECTIVES,
)
from mvx.training import fit, predict_latent, predict_reconstruction

# name, extra config keys, views, has joint, reconstruction rows, coherence, loglik
CAPABILITIES = [
    ("ae", {}, 3, False, 3, False, False),
    ("jmvae", {}, 2, True, 3, False, True),
    ("dccae", {}, 2, False, 2, False, False),
    ("dvcca", {}, 2, False, 1, False, True),
    ("dvcca", {"model.private": True}, 2, False, 1, False, False),
    ("mcvae", {}, 3, True, 4, False, False),
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
    objectives = [*VARIATIONAL_OBJECTIVES, *PLAIN_OBJECTIVES, *ADVERSARIAL_OBJECTIVES]
    assert sorted(objectives) == sorted(MODEL_SPECS)
    assert sorted({case[0] for case in CAPABILITIES}) == sorted(MODEL_SPECS)


@pytest.mark.parametrize("name, extra, n_views, joint, rows, coherent, loglik", CAPABILITIES,
                         ids=[case[0] + "-private" * bool(case[1]) for case in CAPABILITIES])
def test_capability_matrix(name, extra, n_views, joint, rows, coherent, loglik):
    data = generate_synthetic(SyntheticSpec(
        n_classes=2, n_samples=10, dims=[2, 3, 2][:n_views], seed=0))
    cfg = build_config({"model.name": name, "model.z_dim": 2, "model.s_dim": 1,
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
