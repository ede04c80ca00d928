"""Model construction, the Adam loop, and the fit / predict_latent /
predict_reconstruction API. One training run is single-threaded and fully
determined by (seed, config, data)."""

from __future__ import annotations

import contextlib
import functools
import json
import operator
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import numcore as nc
from .config import ModelConfig, check_key, check_views, load_config, save_resolved
from .data import MultiViewBatch, read_exact
from .distributions import GaussianParams, check_targets, dropout_rate
from .errors import ConfigError, ContractError, DimensionError, FormatError, NumericError
from .networks import Decoder, Discriminator, Encoder, MlpSpec, VariationalEncoder
from .numcore import Tensor
from .objectives import (
    ADVERSARIAL_OBJECTIVES,
    MODEL_SPECS,
    EpsStream,
    ModelState,
    PLAIN_OBJECTIVES,
    VARIATIONAL_OBJECTIVES,
    _decode,
    _encode,
    _joint,
    _posteriors,
)
from .pooling import ExpertSet, mean_pool

CHECKPOINT_MAGIC = b"MVXC"
CHECKPOINT_VERSION = 1
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def _mlp_spec(cfg_spec, input_dim: int, output_dim: int) -> MlpSpec:
    return MlpSpec(
        input_dim=input_dim,
        hidden_layer_dims=list(cfg_spec.hidden_layer_dim),
        output_dim=output_dim,
        non_linear=cfg_spec.non_linear,
        bias=cfg_spec.bias,
        activation=cfg_spec.activation,
    )


def _decoder_kind(cfg: ModelConfig, m: int) -> str:
    """The likelihood kind of view `m`'s decoder: squared error (Default) for
    a plain autoencoder, else the configured distribution."""
    plain = MODEL_SPECS[cfg.name].encoder == "plain"
    return "Default" if plain else cfg.decoder_spec(m).distribution


def _check_targets(cfg: ModelConfig, data: MultiViewBatch) -> None:
    for m, x in enumerate(data.views):
        check_targets(_decoder_kind(cfg, m), x, m)


def build_model(cfg: ModelConfig, input_dims: list[int], rng: np.random.Generator) -> ModelState:
    """Construct all networks for the configured model from its MODEL_SPECS entry.

    Parameter initialization consumes `rng` in a fixed order, which
    `state.params` lists: per-modality encoders, joint encoder, private
    encoders, the extras (which draw nothing), decoders, discriminator.
    `cfg.input_dims` records `input_dims`, which the read-outs check data against.
    """
    spec = MODEL_SPECS[cfg.name]
    m_total = len(input_dims)
    check_views(cfg, m_total)
    if cfg.input_dims is not None and cfg.input_dims != list(input_dims):
        raise DimensionError(
            f"build_model: input_dims {list(input_dims)} vs configured {cfg.input_dims}")
    cfg.input_dims = list(input_dims)
    state = ModelState(cfg=cfg, n_views=m_total)

    # encoders
    # mcvae's sparse variant has plain encoders
    kind = "plain" if "sparse" in spec.keys and cfg.sparse else spec.encoder
    encoder_cls = Encoder if kind == "plain" else VariationalEncoder
    n_encoders = 1 if kind == "reference" else m_total
    state.encoders = [
        state.built(encoder_cls(_mlp_spec(cfg.encoder_spec(m), input_dims[m], cfg.z_dim), rng,
                                name=f"enc{m}"))
        for m in range(n_encoders)
    ]

    if spec.joint_encoder:
        state.joint_encoder = state.built(VariationalEncoder(
            _mlp_spec(cfg.encoder_spec(0), sum(input_dims), cfg.z_dim), rng, name="enc_joint"
        ))

    dec_in = cfg.z_dim
    if spec.has_private(cfg):
        state.private_encoders = [
            state.built(VariationalEncoder(
                _mlp_spec(cfg.encoder_spec(m), input_dims[m], cfg.s_dim), rng,
                name=f"penc{m}"
            ))
            for m in range(m_total)
        ]
        dec_in = cfg.z_dim + cfg.s_dim

    if spec.extras is not None:
        spec.extras(state)

    for m in range(m_total):
        dec_spec = cfg.decoder_spec(m)
        state.decoders.append(state.built(
            Decoder(_mlp_spec(dec_spec, dec_in, input_dims[m]), rng,
                    distribution=_decoder_kind(cfg, m), scale=dec_spec.scale, name=f"dec{m}")
        ))

    if spec.adversary is not None:
        state.discriminator = state.built(Discriminator(
            _mlp_spec(cfg.encoder_spec(0), cfg.z_dim, 1), rng,
            critic=(spec.adversary == "critic"), name="disc"))
    return state


_DATA = operator.attrgetter("data")
_GRAD = operator.attrgetter("grad")


def _flat_grads(params: list[tuple[str, Tensor]]) -> np.ndarray:
    """The gradients of `params`, flattened into one vector in list order."""
    try:
        return np.concatenate(list(map(_GRAD, map(operator.itemgetter(1), params))),
                              axis=None, dtype=np.float64)
    except TypeError:
        missing = [name for name, p in params if p.grad is None]
        if not missing:
            raise
        raise ContractError(f"parameter '{missing[0]}' has no gradient") from None


class _Group:
    """A phase group: its parameters' values as views into one flat vector
    `theta`, its flat Adam moments `m` and `v`, the step count `t` that its
    parameters share, and the gradient `grad` of its last step."""

    def __init__(self, names: tuple[str, ...], tensors: tuple[Tensor, ...]):
        self.names = names
        self.shapes = [p.data.shape for p in tensors]
        ends = np.cumsum([p.data.size for p in tensors]).tolist()
        self.slices = [slice(a, b) for a, b in zip([0] + ends, ends)]
        self.m = np.zeros(ends[-1])
        self.v = np.zeros(ends[-1])
        self.t = 0
        self.grad: np.ndarray | None = None
        self.bind(tensors)

    def bind(self, tensors: tuple[Tensor, ...]) -> None:
        """Copy the values of `tensors` into a new `theta` and rebind each
        one's `data` to its view of it."""
        for name, shape, p in zip(self.names, self.shapes, tensors):
            if p.data.shape != shape:
                raise ContractError(
                    f"Adam: parameter '{name}' changed shape from {shape} to {p.data.shape}"
                )
        self.theta = np.concatenate(list(map(_DATA, tensors)), axis=None)
        for p, s, shape in zip(tensors, self.slices, self.shapes):
            p.data = self.theta[s].reshape(shape)
        self.views = list(map(_DATA, tensors))


class Adam:
    """Adam over phase groups (Kingma & Ba 2014, arXiv:1412.6980).

    Each list of parameters passed to `step` is a phase group, keyed by its
    names: the group's values live in one flat vector that each parameter's
    `data` is a view of, so a step is a few whole-array operations, and the
    group's parameters share one step count. When a parameter's `data` has
    been rebound since, the group copies the current values into a new
    vector before it steps or clips.
    """

    def __init__(self, learning_rate: float):
        self.learning_rate = learning_rate
        self._groups: dict[tuple[str, ...], _Group] = {}

    @property
    def moments(self) -> dict[str, tuple[np.ndarray, np.ndarray, int]]:
        """Each grouped parameter's (m, v, t): views into its group's moments."""
        return {name: (g.m[s].reshape(shape), g.v[s].reshape(shape), g.t)
                for g in self._groups.values()
                for name, s, shape in zip(g.names, g.slices, g.shapes)}

    def _group(self, params: list[tuple[str, Tensor]]) -> _Group:
        """The group of `params`, built on first use, its `theta` current."""
        names, tensors = zip(*params)
        group = self._groups.get(names)
        if group is None:
            grouped = {name for g in self._groups.values() for name in g.names}
            taken = [name for name in names if name in grouped]
            if taken:
                raise ContractError(
                    f"Adam: parameter '{taken[0]}' is already in another phase group"
                )
            group = self._groups[names] = _Group(names, tensors)
        elif not all(map(operator.is_, map(_DATA, tensors), group.views)):
            group.bind(tensors)
        return group

    def step(self, params: list[tuple[str, Tensor]]) -> None:
        """One Adam step of the group of `params`; every one needs a gradient.

        The gradients are gathered into one vector and checked as one: a
        non-finite one raises a `NumericError` naming its parameter before
        anything is written. The vector is kept until the group's next step.
        Gathered after `backward`, it keeps each phase's freed graph below it
        on the heap, so that the allocator does not return that memory to the
        system and fault it back in at every phase.
        """
        if not params:
            return
        grad = _flat_grads(params)
        if not np.isfinite(grad).all():
            for name, p in params:
                nc._finite(p.grad, f"gradient of parameter '{name}'")
        group = self._group(params)
        group.grad = grad
        group.t += 1
        m, v, t = group.m, group.v, group.t
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * grad
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (grad * grad)
        m_hat = m / (1.0 - ADAM_BETA1 ** t)
        v_hat = v / (1.0 - ADAM_BETA2 ** t)
        group.theta -= self.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)

    def clip(self, params: list[tuple[str, Tensor]], bound: float) -> None:
        """Clip every value of the group of `params` into [-bound, bound]."""
        theta = self._group(params).theta
        np.clip(theta, -bound, bound, out=theta)

    def set_moments(self, params: list[tuple[str, Tensor]], m: np.ndarray,
                    v: np.ndarray, t: int) -> None:
        """Set the group of `params` to the flat moments `m`, `v` and step count `t`."""
        group = self._group(params)
        group.m[...] = m
        group.v[...] = v
        group.t = t


def _zero_grads(params: list[tuple[str, Tensor]]) -> None:
    for _, p in params:
        p.grad = None


@dataclass
class RunState:
    """A training run: model, optimizer moments, epoch counter, RNG, history."""

    cfg: ModelConfig
    state: ModelState
    optimizer: Adam
    rng: np.random.Generator
    epoch: int = 0
    history: list[dict[str, float]] = field(default_factory=list)


def _new_run(cfg: ModelConfig, input_dims: list[int]) -> RunState:
    """A fresh run of `cfg`: the generator seeded with `cfg.seed`, the model
    built from it and an Adam optimizer with no steps."""
    rng = np.random.default_rng(cfg.seed)
    state = build_model(cfg, input_dims, rng)
    return RunState(cfg=cfg, state=state, optimizer=Adam(cfg.learning_rate), rng=rng)


def _as_views(batch: MultiViewBatch) -> list[Tensor]:
    return [nc.constant(v) for v in batch.views]


def _objective_for(name: str):
    return {**VARIATIONAL_OBJECTIVES, **PLAIN_OBJECTIVES, **ADVERSARIAL_OBJECTIVES}[name]


@contextlib.contextmanager
def _frozen(params: list[tuple[str, Tensor]]):
    """Keep the parameters `params` out of the graph inside the context."""
    for _, p in params:
        p.requires_grad = False
    try:
        yield
    finally:
        for _, p in params:
            p.requires_grad = True


def _backward_phase(forward, stepped: list[tuple[str, Tensor]],
                    frozen: list[tuple[str, Tensor]], optimizer: Adam,
                    rng: np.random.Generator | None = None) -> dict[str, float]:
    """One optimizer phase: forward, backward and the step of `stepped`,
    checked once at its end.

    `forward()` returns the loss to differentiate and the named scalars the
    caller keeps. It and `backward` run without the per-op finiteness check
    (`nc._checked_once`); the loss and those scalars are checked before
    `backward`, and `optimizer.step(stepped)` checks the gradients after it,
    before it writes anything. On a non-finite value the phase is replayed
    with the per-op check on, from the same `rng` state: no parameter has
    been written yet, so the replay sees the same values and draws, and its
    error names the op. A replay that finds no bad op leaves the fault in
    `backward`, and the step's error names the parameter.

    The parameters of `frozen` are frozen for the phase: their ops record no
    graph, so `backward` neither walks nor differentiates them, and their
    `grad` stays None. Every op still runs, so the values and the checks are
    those of the unfrozen phase.
    """
    def attempt() -> dict[str, float]:
        loss, kept = forward()
        # checked before `backward`, which would only spread the fault
        nc._finite(loss.data, "loss")
        for k, v in kept.items():
            nc._finite(v, f"term '{k}'")
        _zero_grads(stepped + frozen)
        nc.backward(loss)
        optimizer.step(stepped)
        return kept

    with _frozen(frozen):
        return nc._checked_once(attempt, rng)


def _train_epoch(run: RunState, data: MultiViewBatch) -> dict[str, float]:
    cfg, state = run.cfg, run.state
    objective = _objective_for(cfg.name)
    n = data.n_samples
    order = run.rng.permutation(n)
    batch_size = n if cfg.trainer.full_batch else cfg.trainer.batch_size
    sums: dict[str, float] = {}
    counts = 0
    ae_params, disc_params = state.phase_groups()
    adversary = MODEL_SPECS[cfg.name].adversary
    disc_steps = {None: 0, "discriminator": 1, "critic": cfg.trainer.critic_steps}[adversary]
    for start in range(0, n, batch_size):
        idx = order[start:start + batch_size]
        views = _as_views(data.subset(idx))
        eps = EpsStream(run.rng)

        def autoencoder_phase():
            out = objective(state, views, eps)
            if adversary is None:
                return out.total, out.scalars()
            return out.reconstruction.total + out.generator, out.scalars()

        def discriminator_phase():
            out = objective(state, views, eps)
            return out.discriminator, out.scalars()

        try:
            scalars = _backward_phase(autoencoder_phase, ae_params, disc_params,
                                      run.optimizer, run.rng)
            for _ in range(disc_steps):
                _backward_phase(discriminator_phase, disc_params, ae_params,
                                run.optimizer, run.rng)
                if adversary == "critic":
                    run.optimizer.clip(disc_params, cfg.trainer.clip)
        except NumericError as err:
            raise NumericError(f"epoch {run.epoch}: {err}") from err
        for k, v in scalars.items():
            sums[k] = sums.get(k, 0.0) + v
        counts += 1
    return {k: v / counts for k, v in sums.items()}


def _append_metrics(path: Path, epoch: int, metrics: dict[str, float]) -> None:
    new = not path.exists()
    with open(path, "a", encoding="utf-8") as fh:
        if new:
            fh.write("epoch,term,value\n")
        for term in sorted(metrics):
            fh.write(f"{epoch},{term},{metrics[term]:.17g}\n")


def fit(
    cfg: ModelConfig,
    data: MultiViewBatch,
    max_epochs: int | None = None,
    batch_size: int | None = None,
    out_dir: str | Path | None = None,
) -> RunState:
    """Train from scratch; overrides win over the config's trainer section.

    The data, their targets included, and the overrides are checked before
    anything is written into `cfg`, so a call that raises leaves it as it was.
    """
    if cfg.input_dims is not None and cfg.input_dims != data.dims:
        raise DimensionError(
            f"fit: configured input_dims {cfg.input_dims} do not match data {data.dims}"
        )
    check_views(cfg, len(data.dims))
    _check_targets(cfg, data)
    overrides = {key: check_key(cfg.trainer, "trainer", key, value, cfg.name)
                 for key, value in (("max_epochs", max_epochs), ("batch_size", batch_size))
                 if value is not None}
    cfg.input_dims = data.dims
    for key, value in overrides.items():
        setattr(cfg.trainer, key, value)
    if not cfg.seed_everything:
        # record the drawn seed as a seeded run, so resolved.cfg reproduces the run
        cfg.seed = int(np.random.SeedSequence().entropy % (2 ** 32))
        cfg.seed_everything = True
    run = _new_run(cfg, data.dims)
    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
        save_resolved(cfg, out_path / "resolved.cfg")
        metrics_file = out_path / "metrics.csv"
        if metrics_file.exists():
            metrics_file.unlink()
    return continue_fit(run, data, cfg.trainer.max_epochs, out_dir=out_dir)


def continue_fit(
    run: RunState,
    data: MultiViewBatch,
    epochs: int,
    out_dir: str | Path | None = None,
) -> RunState:
    """Run `epochs` more epochs on an existing state (used by checkpoint resume).

    The arguments are checked before anything is drawn or written."""
    if epochs < 0:
        raise ContractError(f"continue_fit: epochs must be >= 0, got {epochs}")
    _check_data(run, data, "continue_fit")
    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
    target = run.epoch + epochs
    while run.epoch < target:
        metrics = _train_epoch(run, data)
        run.history.append(metrics)
        run.epoch += 1
        if out_path is not None:
            _append_metrics(out_path / "metrics.csv", run.epoch, metrics)
    if out_path is not None and run.cfg.save_model:
        save_checkpoint(run, out_path / "checkpoint.mvxc")
    return run


# ---------------------------------------------------------------------------
# prediction API
# ---------------------------------------------------------------------------


@dataclass
class LatentResult:
    """Posterior means per modality, the model's pooled joint, optional
    private means, and the sparse retained-dimension masks."""

    per_modality: list[np.ndarray]
    joint: np.ndarray | None = None
    private: list[np.ndarray] | None = None
    kept_masks: list[np.ndarray] | None = None


def _check_data(run: RunState, data: MultiViewBatch, caller: str) -> None:
    """Raise a DimensionError naming `caller` when `data`'s dims differ from
    the model's, then `_check_targets`."""
    if data.dims != run.cfg.input_dims:
        raise DimensionError(f"{caller}: data dims {data.dims} vs model {run.cfg.input_dims}")
    _check_targets(run.cfg, data)


def _read(run: RunState, data: MultiViewBatch,
          caller: str) -> tuple[list[Tensor], list[GaussianParams]]:
    """The read-out of `data` by the model of `run`, after `_check_data`: its
    views as constants and their `_posteriors`, a plain encoder's with zero
    log-variance. Call it with graph recording off."""
    _check_data(run, data, caller)
    views = _as_views(data)
    return views, [q if isinstance(q, GaussianParams)
                   else GaussianParams(q, nc.constant(np.zeros(q.shape)))
                   for q in _posteriors(run.state, views)]


def _latents(run: RunState, data: MultiViewBatch, caller: str) -> LatentResult:
    """The full-width latents of `data`: every per-modality mean unmasked,
    the model's joint (a mixture by its mean pooling), the private means and
    the sparse kept-dimension masks."""
    state = run.state
    with nc.no_grad():
        views, posteriors = _read(run, data, caller)
        joint = _joint(state, posteriors)
        if isinstance(joint, ExpertSet):
            joint = mean_pool(joint)
        result = LatentResult(
            per_modality=[q.mean.data.copy() for q in posteriors[:len(state.encoders)]],
            joint=None if joint is None else joint.mean.data.copy(),
        )
        if state.private_encoders is not None:
            result.private = [q.mean.data.copy()
                              for q in _encode(state.private_encoders, views)]
    if state.log_alphas is not None:
        threshold = state.cfg.threshold
        rates = [dropout_rate(np.exp(log_alpha.data)) for log_alpha in state.log_alphas]
        result.kept_masks = [rate <= threshold if threshold > 0
                             else np.ones_like(rate, dtype=bool) for rate in rates]
    return result


def _decode_mean(state: ModelState, z: Tensor, target: int, private: np.ndarray | None,
                 eval_rng: np.random.Generator) -> np.ndarray:
    """Mean of view `target`'s likelihood given the shared latent `z`.

    A private-latent model also takes `private`, the source's own private
    code; without one it draws the code from the target's auxiliary prior
    where the model learns one (seeded by `eval_rng`), else uses the prior mean.
    """
    if state.private_encoders is not None and private is None:
        shape = (z.shape[0], state.cfg.s_dim)
        if state.aux_log_scales is None:
            private = np.zeros(shape)
        else:
            scale = np.exp(state.aux_log_scales[target].data)
            private = scale * eval_rng.standard_normal(shape)
    code = None if private is None else nc.constant(private)
    return _decode(state, target, z, code).mean().data


def predict_latent(run: RunState, data: MultiViewBatch) -> LatentResult:
    """Deterministic latents: posterior means, model-specific joint pooling,
    private means where defined, and sparse retained-dimension masks; a sparse
    model's per-modality means keep only the retained dimensions."""
    result = _latents(run, data, "predict_latent")
    if result.kept_masks is not None:
        result.per_modality = [lat[:, mask]
                               for lat, mask in zip(result.per_modality, result.kept_masks)]
    return result


def predict_reconstruction(run: RunState, data: MultiViewBatch,
                           eval_seed: int = 0) -> list[list[np.ndarray]]:
    """Nested [source][target] grid of deterministic reconstructions.

    Sources are the per-modality latents (a sparse model's with the dropped
    dimensions zeroed) followed by the joint latent when the model defines
    one; a reference encoder's latent is the shared one. Private-latent
    models decode each target with the source's own private mean when the
    source covers the target, else as `_decode_mean` says.
    """
    state = run.state
    latents = _latents(run, data, "predict_reconstruction")
    masks = latents.kept_masks
    shared = MODEL_SPECS[state.cfg.name].encoder == "reference"
    sources = [(lat if masks is None else lat * masks[m], None if shared else m)
               for m, lat in enumerate(latents.per_modality)]
    if latents.joint is not None:
        sources.append((latents.joint, None))
    private = latents.private
    eval_rng = np.random.default_rng(eval_seed)
    with nc.no_grad():
        return [[_decode_mean(state, nc.constant(lat), t,
                              private[t] if private and src in (None, t) else None,
                              eval_rng).copy()
                 for t in range(state.n_views)]
                for lat, src in sources]


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------


def save_checkpoint(run: RunState, path: str | Path) -> None:
    """Write the run's checkpoint to `path` atomically: a write that fails
    partway leaves the previous file as it was."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            _write_checkpoint(run, fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _write_checkpoint(run: RunState, fh) -> None:
    params = run.state.parameters()
    fh.write(CHECKPOINT_MAGIC)
    fh.write(struct.pack("<I", CHECKPOINT_VERSION))
    fh.write(struct.pack("<I", len(params)))
    for name, p in params:
        blob = name.encode("utf-8")
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(struct.pack("<I", p.data.ndim))
        for dim in p.data.shape:
            fh.write(struct.pack("<I", dim))
        fh.write(p.data.astype("<f8").tobytes(order="C"))
    moments = run.optimizer.moments
    for name, p in params:
        m, v, t = moments.get(name, (np.zeros_like(p.data), np.zeros_like(p.data), 0))
        fh.write(struct.pack("<Q", t))
        fh.write(struct.pack("<I", m.size))
        fh.write(m.astype("<f8").tobytes(order="C"))
        fh.write(struct.pack("<I", v.size))
        fh.write(v.astype("<f8").tobytes(order="C"))
    rng_blob = json.dumps(run.rng.bit_generator.state).encode("utf-8")
    fh.write(struct.pack("<I", len(rng_blob)))
    fh.write(rng_blob)
    fh.write(struct.pack("<I", run.epoch))


_read_exact = functools.partial(read_exact, fmt="checkpoint")


def _read_moment(fh, name: str, what: str, shape: tuple[int, ...]) -> np.ndarray:
    """One Adam moment of parameter `name`, its stored size checked first."""
    offset = fh.tell()
    (size,) = struct.unpack("<I", _read_exact(fh, 4, f"{what} size"))
    expected = int(np.prod(shape))
    if size != expected:
        raise FormatError(
            f"{what} size of {name} at byte {offset} is {size}, parameter has {expected}"
        )
    raw = _read_exact(fh, 8 * size, f"{what} of {name}")
    return np.frombuffer(raw, dtype="<f8").reshape(shape).copy()


def load_run(run_dir: str | Path) -> RunState:
    """Rebuild a RunState from a run directory (resolved.cfg + checkpoint.mvxc)."""
    run_dir = Path(run_dir)
    cfg = load_config(run_dir / "resolved.cfg")
    if cfg.input_dims is None:
        raise ConfigError("model.input_dims: missing from resolved config")
    run = _new_run(cfg, cfg.input_dims)
    load_checkpoint(run, run_dir / "checkpoint.mvxc")
    return run


def load_checkpoint(run: RunState, path: str | Path) -> None:
    """Load a checkpoint into `run`; a corrupt file raises a FormatError
    naming the byte offset and leaves `run` unchanged."""
    params = run.state.parameters()
    values: list[np.ndarray] = []
    moments: dict[str, tuple[np.ndarray, np.ndarray, int, int]] = {}
    with open(path, "rb") as fh:
        magic = _read_exact(fh, 4, "magic")
        if magic != CHECKPOINT_MAGIC:
            raise FormatError(f"bad checkpoint magic {magic!r} at byte 0")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, "version"))
        if version != CHECKPOINT_VERSION:
            raise FormatError(f"unsupported checkpoint version {version} at byte 4")
        (count,) = struct.unpack("<I", _read_exact(fh, 4, "parameter count"))
        if count != len(params):
            raise FormatError(
                f"checkpoint has {count} parameters at byte 8, model expects {len(params)}"
            )
        for name, p in params:
            (name_len,) = struct.unpack("<I", _read_exact(fh, 4, "name length"))
            offset = fh.tell()
            stored = _read_exact(fh, name_len, "parameter name")
            if stored != name.encode("utf-8"):
                raise FormatError(
                    f"parameter order mismatch at byte {offset}: "
                    f"{stored.decode('utf-8', 'replace')!r} vs {name!r}"
                )
            offset = fh.tell()
            (ndim,) = struct.unpack("<I", _read_exact(fh, 4, "ndim"))
            if ndim != p.data.ndim:
                raise FormatError(
                    f"ndim of {name} at byte {offset} is {ndim}, parameter has {p.data.ndim}"
                )
            shape = tuple(
                struct.unpack("<I", _read_exact(fh, 4, "dim"))[0] for _ in range(ndim)
            )
            if shape != p.data.shape:
                raise FormatError(
                    f"shape mismatch for {name} at byte {offset + 4}: {shape} vs {p.data.shape}"
                )
            raw = _read_exact(fh, 8 * p.data.size, f"data of {name}")
            values.append(np.frombuffer(raw, dtype="<f8").reshape(shape).copy())
        for name, p in params:
            offset = fh.tell()
            (t,) = struct.unpack("<Q", _read_exact(fh, 8, "step count"))
            m = _read_moment(fh, name, "m", p.data.shape)
            v = _read_moment(fh, name, "v", p.data.shape)
            moments[name] = (m, v, t, offset)
        groups = [group for group in run.state.phase_groups() if group]
        for (first, _), *rest in groups:
            for name, _ in rest:
                t, offset = moments[name][2:]
                if t != moments[first][2]:
                    raise FormatError(
                        f"step count of {name} at byte {offset} is {t}, "
                        f"{first} in the same phase group has {moments[first][2]}"
                    )
        (rng_len,) = struct.unpack("<I", _read_exact(fh, 4, "rng length"))
        offset = fh.tell()
        blob = _read_exact(fh, rng_len, "rng state")
        try:
            rng_state = json.loads(blob.decode("utf-8"))
            type(run.rng.bit_generator)().state = rng_state  # checked on a throwaway
        except (ValueError, TypeError, KeyError, OverflowError) as err:
            raise FormatError(f"bad rng state at byte {offset}: {err}") from None
        (epoch,) = struct.unpack("<I", _read_exact(fh, 4, "epoch"))
        if fh.read(1):
            raise FormatError(f"unexpected trailing bytes at byte {fh.tell() - 1}")
    # the whole file is valid: only now write it into the run
    for (_, p), data in zip(params, values):
        p.data[...] = data
    for group in groups:
        m, v, t, _ = zip(*(moments[name] for name, _ in group))
        run.optimizer.set_moments(group, np.concatenate(m, axis=None),
                                  np.concatenate(v, axis=None), t[0])
    run.rng.bit_generator.state = rng_state
    run.epoch = epoch
    run.history = []
