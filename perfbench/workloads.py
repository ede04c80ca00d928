"""The benchmark workloads: set-up and one measured round each, driving only
the public mvx API.

Every workload uses the desk setting of acceptance criterion 5: synthetic
data with 8 classes, 3 views of 24 dims, style noise 0.1, background noise
1.0; 2000 training rows, batch 256; z_dim 8, hidden [32], Normal decoders
with scale 0.75. Data and model seeds are derived from the benchmark seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from mvx import config, data, evaluation, training

N_CLASSES = 8
DIMS = [24, 24, 24]
TRAIN_ROWS = 2000
TEST_ROWS = 500
BATCH = 256
BATCHES_PER_EPOCH = -(-TRAIN_ROWS // BATCH)
LOGLIK_K = 1000
# mopoe reaches a mean cross-modal coherence of about 0.8 after 20 epochs
EVAL_TRAIN_EPOCHS = 20
# "well above chance": four times the 1/8 of a uniform guess
COHERENCE_FLOOR = 4.0 / N_CLASSES
REFERENCE_STEPS = 300
# the kernel keeps at most this many arrays alive, about 3 MB
REFERENCE_CHAIN = 50


@dataclass(frozen=True)
class Workload:
    model: str
    round_epochs: int
    extra: dict = field(default_factory=dict)
    evaluate: bool = False


WORKLOADS = {
    "train_poe": Workload("mvae", round_epochs=30),
    "train_fanout": Workload("mopoe", round_epochs=10),
    "train_critic": Workload("mwae", round_epochs=6, extra={"trainer.critic_steps": 5}),
    "eval_mixture": Workload("mopoe", round_epochs=EVAL_TRAIN_EPOCHS, evaluate=True),
}


def derived_seeds(seed: int) -> tuple[int, int, int]:
    """Training-data, test-data and model seeds for one benchmark seed."""
    train_seed, test_seed, model_seed = np.random.SeedSequence(seed).generate_state(3)
    return int(train_seed), int(test_seed), int(model_seed)


def make_config(wl: Workload, model_seed: int) -> config.ModelConfig:
    flat = {
        "model.name": wl.model,
        "model.z_dim": 8,
        "model.seed": model_seed,
        "encoder.default.hidden_layer_dim": [32],
        "decoder.default.hidden_layer_dim": [32],
        "decoder.default.distribution": "Normal",
        "decoder.default.scale": 0.75,
        "trainer.max_epochs": wl.round_epochs,
        "trainer.batch_size": BATCH,
    }
    flat.update(wl.extra)
    return config.build_config(flat)


def _dataset(rows: int, seed: int, path: Path) -> data.MultiViewBatch:
    """Generate, then round-trip through the on-disk format as the CLI does."""
    spec = data.SyntheticSpec(N_CLASSES, rows, DIMS, style_noise=0.1,
                              background_noise=1.0, seed=seed)
    data.write_dataset(path, data.generate_synthetic(spec))
    return data.read_dataset(path)


@dataclass
class Context:
    wl: Workload
    model_seed: int
    train: data.MultiViewBatch
    test: data.MultiViewBatch | None = None
    run: training.RunState | None = None
    history: list = field(default_factory=list)


def setup(wl: Workload, seed: int, workdir: Path) -> Context:
    """Data generation and file round trip, config and model build. For an
    evaluation workload also train the model, save it and load it back."""
    train_seed, test_seed, model_seed = derived_seeds(seed)
    ctx = Context(wl, model_seed, _dataset(TRAIN_ROWS, train_seed, workdir / "train.mvds"))
    if not wl.evaluate:
        ctx.run = fresh_run(ctx)
        return ctx
    ctx.test = _dataset(TEST_ROWS, test_seed, workdir / "test.mvds")
    trained = training.fit(make_config(wl, model_seed), ctx.train, out_dir=workdir / "run")
    ctx.history = trained.history
    ctx.run = training.load_run(workdir / "run")
    return ctx


def fresh_run(ctx: Context) -> training.RunState:
    """An untrained model, identical for every call with the same context."""
    return training.fit(make_config(ctx.wl, ctx.model_seed), ctx.train, max_epochs=0)


@dataclass
class Sample:
    """Seconds of one operation, and of the reference kernel around it."""

    seconds: float
    reference: float


class _Node:
    __slots__ = ("data", "parents")

    def __init__(self, data, parents):
        self.data = data
        self.parents = parents


class Clock:
    """Times operations, and runs a fixed reference kernel after each one.

    The kernel imitates building a numcore graph: REFERENCE_STEPS nodes, each
    a small object holding its parent and a (256, 32) numpy sum checked for
    finiteness. Other tenants of the machine slow it and the program alike,
    so an operation's time over the mean reference time just before and
    after it is much steadier than the operation's time alone.
    """

    def __init__(self):
        self._operand = np.random.default_rng(0).standard_normal((256, 32))
        # the first runs of the kernel are slower while its memory is fresh
        for _ in range(3):
            self._reference_before = self._reference()

    def _reference(self) -> float:
        start = time.perf_counter()
        node = _Node(self._operand, ())
        for i in range(REFERENCE_STEPS):
            out = node.data + self._operand
            if not np.all(np.isfinite(out)):
                raise FloatingPointError("reference kernel overflowed")
            node = _Node(out, (node,) if i % REFERENCE_CHAIN else ())
        return time.perf_counter() - start

    def __call__(self, fn):
        """Run `fn()` and return its result and its Sample."""
        start = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - start
        after = self._reference()
        sample = Sample(seconds, (self._reference_before + after) / 2)
        self._reference_before = after
        return result, sample


def train_round(run: training.RunState, ctx: Context, clock: Clock,
                deadline: float | None = None) -> list[Sample]:
    """Train `round_epochs` epochs one `continue_fit` call at a time.

    Returns one sample per epoch; stops early once `deadline` (a
    `time.perf_counter` value) has passed. The history is left on `run`.
    """
    samples = []
    for _ in range(ctx.wl.round_epochs):
        if deadline is not None and time.perf_counter() >= deadline:
            break
        samples.append(clock(lambda: training.continue_fit(run, ctx.train, 1))[1])
    return samples


@dataclass
class EvalResult:
    loglik: Sample
    probe_fits: list[Sample]
    coherence_call: Sample
    loglik_nats: float
    coherence: dict

    @property
    def calls(self) -> list[Sample]:
        return [self.loglik, *self.probe_fits, self.coherence_call]

    @property
    def coherence_eval_s(self) -> float:
        return sum(s.seconds for s in self.calls[1:])


def eval_round(ctx: Context, clock: Clock) -> EvalResult:
    """Importance-sampled log-likelihood, probe training, then coherence,
    each call timed on its own."""
    loglik, loglik_sample = clock(
        lambda: evaluation.joint_log_likelihood(ctx.run, ctx.test, K=LOGLIK_K))
    probes, probe_samples = [], []
    for view in ctx.train.views:
        probe, sample = clock(
            lambda: evaluation.train_probe_classifier(view, ctx.train.labels, seed=0))
        probes.append(probe)
        probe_samples.append(sample)
    report, sample = clock(lambda: evaluation.coherence(ctx.run, ctx.test, probes))
    return EvalResult(loglik_sample, probe_samples, sample, loglik, report.per_size)


def mean_cross_modal(per_size: dict) -> float:
    return evaluation.CoherenceReport(per_size, len(DIMS)).mean_cross_modal()


def loss_problems(history: list[dict]) -> list[str]:
    """Output checks of one training history."""
    problems = [f"epoch {i + 1}: non-finite term {k}"
                for i, epoch in enumerate(history)
                for k, v in epoch.items() if not np.isfinite(v)]
    if len(history) > 1 and not history[-1]["total"] < history[0]["total"]:
        problems.append(f"final loss {history[-1]['total']} not below "
                        f"first-epoch loss {history[0]['total']}")
    return problems


def eval_problems(result: EvalResult) -> list[str]:
    problems = []
    if not np.isfinite(result.loglik_nats):
        problems.append(f"log-likelihood {result.loglik_nats} is not finite")
    acc = mean_cross_modal(result.coherence)
    if not acc >= COHERENCE_FLOOR:
        problems.append(f"coherence {acc} below {COHERENCE_FLOOR}")
    return problems
