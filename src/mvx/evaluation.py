"""Evaluation metrics: conditional coherence accuracy and the importance-
sampled joint log-likelihood."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import numcore as nc
from .data import MultiViewBatch
from .distributions import GaussianParams, Likelihood, rsample
from .errors import ContractError, DegenerateLabelError, UnsupportedMetricError
from .networks import Mlp, MlpSpec
from .numcore import Tensor
from .objectives import MODEL_SPECS, ModelState, _joint, _log_weight
from .pooling import MAX_SUBSET_MODALITIES, ExpertSet, enumerate_subsets
from .training import Adam, RunState, _backward_phase, _decode_mean, _read

PROBE_HIDDEN = 64
PROBE_EPOCHS = 100
PROBE_LR = 1e-2
# rows per stacked batch of the log-likelihood (8 samples of 500 test rows):
# large enough that per-op overhead no longer dominates, small enough that a
# chunk's activations stay at a few MB
LOGLIK_CHUNK_ROWS = 4000


class ProbeClassifier:
    """Single-hidden-layer softmax classifier used to score generated samples."""

    def __init__(self, input_dim: int, n_classes: int, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.n_classes = n_classes
        self.net = Mlp(MlpSpec(input_dim, [PROBE_HIDDEN], n_classes), rng, name="probe")

    def _loss(self, x: Tensor, one_hot: Tensor) -> Tensor:
        logits = self.net.forward(x)
        lik = Likelihood("Categorical", logits)
        return nc.neg(nc.mean(lik.log_prob(one_hot)))

    def fit(self, x: np.ndarray, labels: np.ndarray, epochs: int = PROBE_EPOCHS) -> None:
        one_hot = np.zeros((len(labels), self.n_classes))
        one_hot[np.arange(len(labels)), labels] = 1.0
        xt = nc.constant(x)
        yt = nc.constant(one_hot)
        opt = Adam(PROBE_LR)
        params = self.net.parameters()
        for _ in range(epochs):
            _backward_phase(lambda: (self._loss(xt, yt), {}), params, [], opt)

    def predict(self, x: np.ndarray) -> np.ndarray:
        with nc.no_grad():
            logits = nc._finite(self.net.forward(nc.constant(x)).data, "probe logits")
        # argmax breaks ties toward the lowest class index
        return np.argmax(logits, axis=1)

    def accuracy(self, x: np.ndarray, labels: np.ndarray) -> float:
        return float(np.mean(self.predict(x) == labels))


def train_probe_classifier(view: np.ndarray, labels: np.ndarray, seed: int = 0,
                           epochs: int = PROBE_EPOCHS) -> ProbeClassifier:
    labels = np.asarray(labels)
    if labels.shape != (len(view),) or not np.issubdtype(labels.dtype, np.integer):
        raise ContractError(f"train_probe_classifier: labels must be an integer vector of "
                            f"length {len(view)}, got {labels.dtype} of shape {labels.shape}")
    if (labels < 0).any():
        raise ContractError("train_probe_classifier: labels must be non-negative")
    classes = np.unique(labels)
    if classes.size < 2:
        raise DegenerateLabelError("train_probe_classifier: need at least 2 classes")
    probe = ProbeClassifier(view.shape[1], int(labels.max()) + 1, seed=seed)
    probe.fit(view, labels, epochs=epochs)
    return probe


@dataclass
class CoherenceReport:
    """Mean generated-label accuracy per subset size.

    `per_size` covers sizes 1..M (size M present only when the model defines
    a full joint); `cross_modal` restricts to proper subsets (1..M-1)."""

    per_size: dict[int, float]
    n_views: int

    @property
    def cross_modal(self) -> list[float]:
        return [self.per_size[s] for s in range(1, self.n_views) if s in self.per_size]

    def mean_cross_modal(self) -> float:
        vals = self.cross_modal
        return float(np.mean(vals)) if vals else float("nan")


def coherence(run: RunState, test: MultiViewBatch, probes: list[ProbeClassifier],
              eval_seed: int = 0) -> CoherenceReport:
    """For every modality subset, generate the remaining modalities from the
    pooled posterior mean and score them with the per-modality probes.

    Proper subsets contribute cross-modal accuracies; the full set (when the
    model defines a joint) is reported as self-coherence at size M.
    """
    state = run.state
    pool = _coherence_pool(state)
    if test.labels is None:
        raise ContractError("coherence: test batch has no labels")
    if len(probes) != state.n_views:
        raise ContractError(f"coherence: need {state.n_views} probes, got {len(probes)}")
    per_size = nc._checked_once(
        lambda: _coherence_per_size(run, pool, test, probes, eval_seed))
    return CoherenceReport(per_size=per_size, n_views=state.n_views)


def _coherence_pool(state: ModelState):
    """The model's `pool` hook. A model without one, or with more views than
    the subsets can be enumerated for, raises `UnsupportedMetricError`."""
    name = state.cfg.name
    if MODEL_SPECS[name].pool is None:
        raise UnsupportedMetricError(f"coherence: model '{name}' does not support subset encoding")
    if state.n_views > MAX_SUBSET_MODALITIES:
        raise UnsupportedMetricError(
            f"coherence: model '{name}' has {state.n_views} views, more than "
            f"pooling.MAX_SUBSET_MODALITIES = {MAX_SUBSET_MODALITIES}")
    return MODEL_SPECS[name].pool


def _coherence_per_size(run: RunState, pool, test: MultiViewBatch,
                        probes: list[ProbeClassifier], eval_seed: int) -> dict[int, float]:
    state = run.state
    eval_rng = np.random.default_rng(eval_seed)
    with nc.no_grad():
        _, posteriors = _read(run, test, "coherence")
        by_size: dict[int, list[float]] = {}
        for subset in enumerate_subsets(state.n_views):
            z = pool(state, posteriors, subset).mean
            absent = [m for m in range(state.n_views) if m not in subset]
            targets = absent if absent else list(range(state.n_views))
            accs = []
            for m in targets:
                generated = nc._finite(_decode_mean(state, z, m, None, eval_rng),
                                       f"generated mean of view {m}")
                predicted = probes[m].predict(generated)
                accs.append(float(np.mean(predicted == test.labels)))
            by_size.setdefault(len(subset), []).append(float(np.mean(accs)))
    return {size: float(np.mean(vals)) for size, vals in by_size.items()}


def _tiled(p: GaussianParams, copies: int) -> GaussianParams:
    """`copies` stacked copies of a (B, z) Gaussian, as one (copies * B, z)."""
    return GaussianParams(nc.constant(np.tile(p.mean.data, (copies, 1))),
                          nc.constant(np.tile(p.log_var.data, (copies, 1))))


def joint_log_likelihood(run: RunState, test: MultiViewBatch, K: int = 1000,
                         eval_seed: int = 0) -> float:
    """Importance-sampled estimate of the mean per-sample log p(X) in nats.

    The proposal is the model's `joint`; a model without one, or with private
    latents, raises `UnsupportedMetricError` once the data are checked. A
    joint narrower than the true posterior, such as mcvae's PoE without a
    prior expert, gives a valid but loose lower bound at K = 1000.

    Draws from `eval_seed`, per importance sample k = 1..K in turn: for a
    mixture proposal a uniform component index, then one (B, z) standard
    normal. The samples are evaluated in chunks of C = LOGLIK_CHUNK_ROWS // B
    (at least 1): each chunk stacks its samples into one (C * B, z) batch,
    so every decoder runs once per chunk. At K = 1000 and B = 500 that is
    125 chunks of 8 samples, and the (B, K) log-weights take 4 MB.
    """
    if K < 1:
        raise ContractError("joint_log_likelihood: K must be >= 1")
    return nc._checked_once(lambda: _log_likelihood(run, test, K, eval_seed))


def _log_likelihood(run: RunState, test: MultiViewBatch, K: int, eval_seed: int) -> float:
    state = run.state
    eval_rng = np.random.default_rng(eval_seed)
    with nc.no_grad():
        views, posteriors = _read(run, test, "joint_log_likelihood")
        proposal = _joint(state, posteriors)
        # the decoders of a private-latent model need a private code besides z
        if proposal is None or state.private_encoders is not None:
            raise UnsupportedMetricError(
                f"joint_log_likelihood: model '{state.cfg.name}' is not supported"
            )
        mixture = isinstance(proposal, ExpertSet)
        components = proposal.experts if mixture else [proposal]
        rows = views[0].shape[0]
        chunk = min(K, max(1, LOGLIK_CHUNK_ROWS // rows))

        def stacked(copies: int):
            return ([nc.constant(np.tile(v.data, (copies, 1))) for v in views],
                    [_tiled(comp, copies) for comp in components])

        full = stacked(chunk)
        log_w = np.empty((rows, K))
        for start in range(0, K, chunk):
            n = min(chunk, K - start)
            xs, tiled = full if n == chunk else stacked(n)
            picks, eps = [], []
            for _ in range(n):
                # i.i.d. mixture draws: uniform component pick per sample
                comp = components[eval_rng.integers(len(components))] if mixture else proposal
                picks.append(comp)
                eps.append(eval_rng.standard_normal(comp.shape))
            q = GaussianParams(nc.constant(np.concatenate([p.mean.data for p in picks])),
                               nc.constant(np.concatenate([p.log_var.data for p in picks])))
            z = rsample(q, nc.constant(np.concatenate(eps)))
            q_tiled = ExpertSet(tiled) if mixture else tiled[0]
            lw = nc._finite(_log_weight(state, xs, z, q_tiled).data, "importance log-weights")
            log_w[:, start:start + n] = lw.reshape(n, rows).T
        # released first: the reduction's (rows, K) temporaries would come on top
        del full, xs, tiled, q, z, q_tiled, lw
        per_sample = nc.logsumexp(nc.constant(log_w), axis=1) - nc.constant(np.log(K))
        return float(nc.mean(per_sample).item())


def coherence_csv(report: CoherenceReport, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("subset_size,accuracy\n")
        for size in sorted(report.per_size):
            fh.write(f"{size},{report.per_size[size]:.17g}\n")


def metric_csv(name: str, value: float, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("metric,value\n")
        fh.write(f"{name},{value:.17g}\n")
