"""Model construction, the Adam loop, and the fit / predict_latent /
predict_reconstruction API. One training run is single-threaded and fully
determined by (seed, config, data)."""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import numcore as nc
from .config import ModelConfig, check_views, load_config, save_resolved
from .data import MultiViewBatch
from .distributions import GaussianParams, dropout_rate
from .errors import ConfigError, DimensionError, FormatError, NumericError
from .networks import Decoder, Discriminator, Encoder, MlpSpec, VariationalEncoder
from .numcore import Tensor
from .objectives import (
    ADVERSARIAL_OBJECTIVES,
    MODEL_SPECS,
    EpsStream,
    ModelState,
    PLAIN_OBJECTIVES,
    VARIATIONAL_OBJECTIVES,
)
from .pooling import ExpertSet, mean_pool

CHECKPOINT_MAGIC = b"MVXC"
CHECKPOINT_VERSION = 1


def _mlp_spec(cfg_spec, input_dim: int, output_dim: int) -> MlpSpec:
    return MlpSpec(
        input_dim=input_dim,
        hidden_layer_dims=list(cfg_spec.hidden_layer_dim),
        output_dim=output_dim,
        non_linear=cfg_spec.non_linear,
        bias=cfg_spec.bias,
        activation=cfg_spec.activation,
    )


def build_model(cfg: ModelConfig, input_dims: list[int], rng: np.random.Generator) -> ModelState:
    """Construct all networks for the configured model from its MODEL_SPECS entry.

    Parameter initialization consumes `rng` in a fixed order: per-modality
    encoders, joint encoder, private encoders, decoders, discriminator.
    """
    spec = MODEL_SPECS[cfg.name]
    m_total = len(input_dims)
    check_views(cfg, m_total)
    state = ModelState(
        name=cfg.name,
        n_views=m_total,
        z_dim=cfg.z_dim,
        s_dim=cfg.s_dim,
        beta=cfg.beta,
        alpha=cfg.alpha,
        K=cfg.K,
        lam=list(cfg.lam),
        pi=list(cfg.pi) if cfg.pi is not None else None,
        sparse=cfg.sparse,
        private=cfg.private,
        non_saturating=cfg.non_saturating,
        stochastic_subsets=cfg.stochastic_subsets,
        threshold=cfg.threshold,
        join_type=cfg.join_type,
    )

    # encoders
    kind = "plain" if cfg.sparse else spec.encoder
    encoder_cls = Encoder if kind == "plain" else VariationalEncoder
    n_encoders = 1 if kind == "reference" else m_total
    state.encoders = [
        encoder_cls(_mlp_spec(cfg.encoder_spec(m), input_dims[m], cfg.z_dim), rng,
                    name=f"enc{m}")
        for m in range(n_encoders)
    ]

    if spec.joint_encoder:
        state.joint_encoder = VariationalEncoder(
            _mlp_spec(cfg.encoder_spec(0), sum(input_dims), cfg.z_dim), rng, name="enc_joint"
        )

    dec_in = cfg.z_dim
    if spec.has_private(cfg.private):
        state.private_encoders = [
            VariationalEncoder(
                _mlp_spec(cfg.encoder_spec(m), input_dims[m], cfg.s_dim), rng,
                name=f"penc{m}"
            )
            for m in range(m_total)
        ]
        dec_in = cfg.z_dim + cfg.s_dim

    if spec.extras is not None:
        spec.extras(state)

    decoders = []
    for m in range(m_total):
        dec_spec = cfg.decoder_spec(m)
        decoders.append(
            Decoder(_mlp_spec(dec_spec, dec_in, input_dims[m]), rng,
                    distribution=spec.likelihood or dec_spec.distribution,
                    scale=dec_spec.scale, name=f"dec{m}")
        )
    state.decoders = decoders

    if spec.adversary is not None:
        disc_spec = cfg.encoder_spec(0)
        state.discriminator = Discriminator(
            MlpSpec(cfg.z_dim, list(disc_spec.hidden_layer_dim), 1,
                    non_linear=disc_spec.non_linear, bias=disc_spec.bias,
                    activation=disc_spec.activation),
            rng,
            critic=(spec.adversary == "critic"),
            name="disc",
        )
    return state


class Adam:
    """Adam with per-parameter step counts so phase groups stay independent."""

    def __init__(self, learning_rate: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.moments: dict[str, tuple[np.ndarray, np.ndarray, int]] = {}

    def step(self, params: list[tuple[str, Tensor]]) -> None:
        for name, p in params:
            if p.grad is None:
                continue
            m, v, t = self.moments.get(
                name, (np.zeros_like(p.data), np.zeros_like(p.data), 0)
            )
            t += 1
            g = p.grad
            m = self.beta1 * m + (1.0 - self.beta1) * g
            v = self.beta2 * v + (1.0 - self.beta2) * (g * g)
            m_hat = m / (1.0 - self.beta1 ** t)
            v_hat = v / (1.0 - self.beta2 ** t)
            p.data -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.eps)
            self.moments[name] = (m, v, t)


def _zero_grads(params: list[tuple[str, Tensor]]) -> None:
    for _, p in params:
        p.grad = None


def _clip_params(params: list[tuple[str, Tensor]], bound: float) -> None:
    for _, p in params:
        np.clip(p.data, -bound, bound, out=p.data)


@dataclass
class RunState:
    """A training run: model, optimizer moments, epoch counter, RNG, history."""

    cfg: ModelConfig
    state: ModelState
    optimizer: Adam
    rng: np.random.Generator
    epoch: int = 0
    history: list[dict[str, float]] = field(default_factory=list)


def _as_views(batch: MultiViewBatch) -> list[Tensor]:
    return [nc.constant(v) for v in batch.views]


def _objective_for(name: str):
    for table in (VARIATIONAL_OBJECTIVES, PLAIN_OBJECTIVES, ADVERSARIAL_OBJECTIVES):
        if name in table:
            return table[name]


def _train_epoch(run: RunState, data: MultiViewBatch, batch_size: int) -> dict[str, float]:
    cfg, state = run.cfg, run.state
    objective = _objective_for(state.name)
    n = data.n_samples
    order = run.rng.permutation(n)
    if cfg.trainer.full_batch:
        batch_size = n
    sums: dict[str, float] = {}
    counts = 0
    all_params = state.parameters()
    ae_params = state.autoencoder_parameters()
    disc_params = state.discriminator_parameters()
    for start in range(0, n, batch_size):
        idx = order[start:start + batch_size]
        views = _as_views(data.subset(idx))
        eps = EpsStream(run.rng)
        try:
            if state.discriminator is None:
                loss = objective(state, views, eps)
                _zero_grads(all_params)
                nc.backward(loss.total)
                run.optimizer.step(all_params)
                scalars = loss.scalars()
            else:
                losses = objective(state, views, eps)
                _zero_grads(all_params)
                nc.backward(losses.reconstruction.total + losses.generator)
                run.optimizer.step(ae_params)
                critic = state.discriminator.critic
                steps = cfg.trainer.critic_steps if critic else 1
                for _ in range(steps):
                    fresh = objective(state, views, eps)
                    _zero_grads(all_params)
                    nc.backward(fresh.discriminator)
                    run.optimizer.step(disc_params)
                    if critic:
                        _clip_params(disc_params, cfg.trainer.clip)
                scalars = losses.scalars()
        except NumericError as err:
            raise NumericError(f"epoch {run.epoch}: {err}") from err
        for k, v in scalars.items():
            if not np.isfinite(v):
                raise NumericError(
                    f"epoch {run.epoch}: term '{k}' became non-finite"
                )
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
    """Train from scratch; overrides win over the config's trainer section."""
    if cfg.input_dims is not None and cfg.input_dims != data.dims:
        raise DimensionError(
            f"fit: configured input_dims {cfg.input_dims} do not match data {data.dims}"
        )
    cfg.input_dims = data.dims
    if max_epochs is not None:
        cfg.trainer.max_epochs = max_epochs
    if batch_size is not None:
        cfg.trainer.batch_size = batch_size
    seed = cfg.seed if cfg.seed_everything else np.random.SeedSequence().entropy % (2 ** 32)
    rng = np.random.default_rng(seed)
    state = build_model(cfg, data.dims, rng)
    run = RunState(cfg=cfg, state=state, optimizer=Adam(cfg.learning_rate), rng=rng)
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
    """Run `epochs` more epochs on an existing state (used by checkpoint resume)."""
    out_path = Path(out_dir) if out_dir is not None else None
    target = run.epoch + epochs
    while run.epoch < target:
        metrics = _train_epoch(run, data, run.cfg.trainer.batch_size)
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


def _encoder_posteriors(state: ModelState, views: list[Tensor]) -> list[GaussianParams]:
    """One posterior per encoder in `state.encoders` (a plain encoder's has zero
    log-variance), then the joint encoder's when the model has one."""
    out = []
    for enc, x in zip(state.encoders, views):
        if isinstance(enc, VariationalEncoder):
            out.append(enc.forward(x))
        else:
            mu = enc.forward(x)
            out.append(GaussianParams(mu, nc.constant(np.zeros(mu.shape))))
    if state.joint_encoder is not None:
        out.append(state.joint_encoder.forward(nc.concat_cols(views)))
    return out


def _joint_posterior(state: ModelState, posteriors: list[GaussianParams]) -> GaussianParams | None:
    """The model's joint posterior, a mixture summarised by its mean pooling."""
    hook = MODEL_SPECS[state.name].joint
    joint = hook(state, posteriors, tuple(range(state.n_views))) if hook else None
    return mean_pool(joint) if isinstance(joint, ExpertSet) else joint


def _decode_mean(state: ModelState, z: Tensor, target: int, private: np.ndarray | None,
                 eval_rng: np.random.Generator) -> np.ndarray:
    """Mean of view `target`'s likelihood given the shared latent `z`.

    A private-latent model also takes `private`, the source's own private
    code; without one it draws the code from the target's auxiliary prior
    where the model learns one (seeded by `eval_rng`), else uses the prior mean.
    """
    decoder = state.decoders[target]
    if state.private_encoders is None:
        return decoder.decode(z).mean().data
    if private is None:
        shape = (z.shape[0], state.s_dim)
        if state.aux_log_scales is None:
            private = np.zeros(shape)
        else:
            scale = np.exp(state.aux_log_scales[target].data)
            private = scale * eval_rng.standard_normal(shape)
    return decoder.decode(nc.concat_cols([z, nc.constant(private)])).mean().data


def _sparse_masks(state: ModelState) -> list[np.ndarray]:
    masks = []
    for log_alpha in state.log_alphas:
        rate = dropout_rate(np.exp(log_alpha.data))
        if state.threshold > 0:
            masks.append(rate <= state.threshold)
        else:
            masks.append(np.ones_like(rate, dtype=bool))
    return masks


def _private_means(state: ModelState, views: list[Tensor]) -> list[np.ndarray] | None:
    if state.private_encoders is None:
        return None
    return [enc.forward(x).mean.data.copy() for enc, x in zip(state.private_encoders, views)]


def predict_latent(run: RunState, data: MultiViewBatch) -> LatentResult:
    """Deterministic latents: posterior means, model-specific joint pooling,
    private means where defined, and sparse retained-dimension masks."""
    state = run.state
    if data.dims != run.cfg.input_dims:
        raise DimensionError(
            f"predict_latent: data dims {data.dims} vs model {run.cfg.input_dims}"
        )
    with nc.no_grad():
        views = _as_views(data)
        posteriors = _encoder_posteriors(state, views)
        joint = _joint_posterior(state, posteriors)
        result = LatentResult(
            per_modality=[q.mean.data.copy() for q in posteriors[:len(state.encoders)]],
            joint=None if joint is None else joint.mean.data.copy(),
            private=_private_means(state, views),
        )
        if state.log_alphas is not None:
            masks = _sparse_masks(state)
            result.kept_masks = masks
            result.per_modality = [
                lat[:, mask] for lat, mask in zip(result.per_modality, masks)
            ]
        return result


def predict_reconstruction(run: RunState, data: MultiViewBatch,
                           eval_seed: int = 0) -> list[list[np.ndarray]]:
    """Nested [source][target] grid of deterministic reconstructions.

    Sources are the per-modality latents followed by the joint latent when
    the model defines one; a reference encoder's latent is the shared one.
    Private-latent models decode each target with the source's own private
    mean when the source covers the target, else as `_decode_mean` says.
    """
    state = run.state
    if data.dims != run.cfg.input_dims:
        raise DimensionError(
            f"predict_reconstruction: data dims {data.dims} vs model {run.cfg.input_dims}"
        )
    eval_rng = np.random.default_rng(eval_seed)
    shared = MODEL_SPECS[state.name].encoder == "reference"
    with nc.no_grad():
        views = _as_views(data)
        posteriors = _encoder_posteriors(state, views)
        masks = _sparse_masks(state) if state.log_alphas is not None else None
        latent_sources: list[tuple[np.ndarray, int | None]] = []
        for m, q in enumerate(posteriors[:len(state.encoders)]):
            lat = q.mean.data.copy()
            if masks is not None:
                lat = lat * masks[m]
            latent_sources.append((lat, None if shared else m))
        joint = _joint_posterior(state, posteriors)
        if joint is not None:
            latent_sources.append((joint.mean.data.copy(), None))
        private_means = _private_means(state, views)
        grid: list[list[np.ndarray]] = []
        for lat, src in latent_sources:
            z = nc.constant(lat)
            row = []
            for t in range(state.n_views):
                own = private_means[t] if private_means and src in (None, t) else None
                row.append(_decode_mean(state, z, t, own, eval_rng).copy())
            grid.append(row)
        return grid


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------


def save_checkpoint(run: RunState, path: str | Path) -> None:
    params = run.state.parameters()
    with open(path, "wb") as fh:
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
        for name, p in params:
            m, v, t = run.optimizer.moments.get(
                name, (np.zeros_like(p.data), np.zeros_like(p.data), 0)
            )
            fh.write(struct.pack("<Q", t))
            fh.write(struct.pack("<I", m.size))
            fh.write(m.astype("<f8").tobytes(order="C"))
            fh.write(struct.pack("<I", v.size))
            fh.write(v.astype("<f8").tobytes(order="C"))
        rng_blob = json.dumps(run.rng.bit_generator.state).encode("utf-8")
        fh.write(struct.pack("<I", len(rng_blob)))
        fh.write(rng_blob)
        fh.write(struct.pack("<I", run.epoch))


def _read_exact(fh, n: int, what: str) -> bytes:
    offset = fh.tell()
    buf = fh.read(n)
    if len(buf) != n:
        raise FormatError(
            f"truncated checkpoint reading {what} at byte {offset}: "
            f"expected {n} bytes, got {len(buf)}"
        )
    return buf


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
    rng = np.random.default_rng(cfg.seed)
    state = build_model(cfg, cfg.input_dims, rng)
    run = RunState(cfg=cfg, state=state, optimizer=Adam(cfg.learning_rate), rng=rng)
    load_checkpoint(run, run_dir / "checkpoint.mvxc")
    return run


def load_checkpoint(run: RunState, path: str | Path) -> None:
    params = run.state.parameters()
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
                f"checkpoint has {count} parameters, model expects {len(params)}"
            )
        for name, p in params:
            (name_len,) = struct.unpack("<I", _read_exact(fh, 4, "name length"))
            stored = _read_exact(fh, name_len, "parameter name").decode("utf-8")
            if stored != name:
                raise FormatError(f"parameter order mismatch: {stored!r} vs {name!r}")
            (ndim,) = struct.unpack("<I", _read_exact(fh, 4, "ndim"))
            shape = tuple(
                struct.unpack("<I", _read_exact(fh, 4, "dim"))[0] for _ in range(ndim)
            )
            if shape != p.data.shape:
                raise FormatError(f"shape mismatch for {name}: {shape} vs {p.data.shape}")
            raw = _read_exact(fh, 8 * p.data.size, f"data of {name}")
            p.data = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
        for name, p in params:
            (t,) = struct.unpack("<Q", _read_exact(fh, 8, "step count"))
            m = _read_moment(fh, name, "m", p.data.shape)
            v = _read_moment(fh, name, "v", p.data.shape)
            run.optimizer.moments[name] = (m, v, t)
        (rng_len,) = struct.unpack("<I", _read_exact(fh, 4, "rng length"))
        rng_state = json.loads(_read_exact(fh, rng_len, "rng state").decode("utf-8"))
        run.rng.bit_generator.state = rng_state
        (epoch,) = struct.unpack("<I", _read_exact(fh, 4, "epoch"))
        run.epoch = epoch
        run.history = []
