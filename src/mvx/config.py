"""Configuration files: `section.key = value` lines, strict validation.

Sections are {model, encoder, decoder, trainer}. Encoder/decoder keys live
under a modality index or `default` (e.g. `decoder.0.distribution = Bernoulli`).
Lists are written as comma-separated brackets: `[256, 256]`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError
from .objectives import MODEL_SPECS

SUPPORTED_JOIN = ("PoE", "Mean")
SUPPORTED_DISTRIBUTIONS = ("Normal", "Bernoulli", "Laplace", "Categorical", "Default")
SUPPORTED_ACTIVATIONS = ("relu", "tanh")


@dataclass
class NetSpecConfig:
    hidden_layer_dim: list[int] = field(default_factory=lambda: [32])
    bias: bool = True
    non_linear: bool = True
    activation: str = "relu"
    distribution: str = "Normal"
    scale: float = 1.0


@dataclass
class TrainerConfig:
    max_epochs: int = 50
    batch_size: int = 64
    full_batch: bool = False
    critic_steps: int = 5
    clip: float = 0.01


@dataclass
class ModelConfig:
    name: str
    z_dim: int
    s_dim: int = 0
    beta: float = 1.0
    alpha: float = 1.0
    K: int = 1
    lam: list[float] = field(default_factory=lambda: [1.0])
    pi: list[float] | None = None
    learning_rate: float = 1e-3
    seed: int = 0
    seed_everything: bool = True
    save_model: bool = True
    sparse: bool = False
    threshold: float = 0.0
    private: bool = False
    join_type: str = "PoE"
    eps: float | None = None
    non_saturating: bool = False
    stochastic_subsets: bool = False
    input_dims: list[int] | None = None
    encoders: dict = field(default_factory=dict)
    decoders: dict = field(default_factory=dict)
    trainer: TrainerConfig = field(default_factory=TrainerConfig)

    def encoder_spec(self, m: int) -> NetSpecConfig:
        return self.encoders.get(m, self.encoders.get("default", NetSpecConfig()))

    def decoder_spec(self, m: int) -> NetSpecConfig:
        return self.decoders.get(m, self.decoders.get("default", NetSpecConfig()))


def _parse_scalar(raw: str):
    text = raw.strip()
    if text.startswith("[") and text.endswith("]"):
        inner = text[1:-1].strip()
        if not inner:
            return []
        return [_parse_scalar(part) for part in inner.split(",")]
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def parse_config_text(text: str) -> dict[str, object]:
    """Parse `section.key = value` lines into a flat {dotted_key: value} map."""
    out: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'section.key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if not key or "." not in key:
            raise ConfigError(f"line {lineno}: key must be dotted (section.key), got {key!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
        out[key] = _parse_scalar(raw)
    return out


def _expect(cond: bool, key: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"{key}: {message}")


def check_seed(seed: int, key: str) -> int:
    """`seed` when it lies in [0, 2**32 - 1], else a ConfigError naming `key`."""
    _expect(0 <= seed <= 4294967295, key, "must satisfy 0 <= x <= 4294967295")
    return seed


def _as_float(value, key: str) -> float:
    _expect(isinstance(value, (int, float)) and not isinstance(value, bool), key,
            f"expected a number, got {value!r}")
    return float(value)


def _as_int(value, key: str) -> int:
    _expect(isinstance(value, int) and not isinstance(value, bool), key,
            f"expected an integer, got {value!r}")
    return value


def _as_bool(value, key: str) -> bool:
    _expect(isinstance(value, bool), key, f"expected true/false, got {value!r}")
    return value


def _as_str(value, key: str) -> str:
    _expect(isinstance(value, str), key, f"expected a string, got {value!r}")
    return value


def _as_int_list(value, key: str) -> list[int]:
    _expect(isinstance(value, list), key, f"expected a bracketed list, got {value!r}")
    return [_as_int(v, key) for v in value]


def _as_float_list(value, key: str) -> list[float]:
    _expect(isinstance(value, list), key, f"expected a bracketed list, got {value!r}")
    return [_as_float(v, key) for v in value]


_MODEL_KEYS = {
    "name", "z_dim", "s_dim", "beta", "alpha", "K", "lambda", "pi",
    "learning_rate", "seed", "seed_everything", "save_model", "sparse",
    "threshold", "private", "join_type", "eps", "non_saturating",
    "stochastic_subsets", "input_dims",
}
_NET_KEYS = {"hidden_layer_dim", "bias", "non_linear", "activation", "distribution", "scale"}
_TRAINER_KEYS = {"max_epochs", "batch_size", "full_batch", "critic_steps", "clip"}


def _validate_net_section(section: str, entries: dict[str, dict[str, object]],
                          is_decoder: bool) -> dict:
    specs: dict = {}
    for slot, keys in entries.items():
        spec = NetSpecConfig()
        for key, value in keys.items():
            path = f"{section}.{slot}.{key}"
            if key not in _NET_KEYS:
                raise ConfigError(f"{path}: unknown key")
            if key == "hidden_layer_dim":
                dims = _as_int_list(value, path)
                _expect(all(d >= 1 for d in dims), path, "hidden dims must be >= 1")
                spec.hidden_layer_dim = dims
            elif key == "bias":
                spec.bias = _as_bool(value, path)
            elif key == "non_linear":
                spec.non_linear = _as_bool(value, path)
            elif key == "activation":
                act = _as_str(value, path)
                _expect(act in SUPPORTED_ACTIVATIONS, path,
                        f"unsupported activation (choose from {SUPPORTED_ACTIVATIONS})")
                spec.activation = act
            elif key == "distribution":
                _expect(is_decoder, path, "distribution applies to decoders only")
                dist = _as_str(value, path)
                _expect(dist in SUPPORTED_DISTRIBUTIONS, path,
                        f"unsupported distribution (choose from {SUPPORTED_DISTRIBUTIONS})")
                spec.distribution = dist
            elif key == "scale":
                _expect(is_decoder, path, "scale applies to decoders only")
                s = _as_float(value, path)
                _expect(s > 0, path, "scale must be positive")
                spec.scale = s
        specs[slot if slot == "default" else int(slot)] = spec
    return specs


def build_config(flat: dict[str, object]) -> ModelConfig:
    """Validate a flat key map and construct a ModelConfig with defaults filled."""
    model_keys: dict[str, object] = {}
    trainer_keys: dict[str, object] = {}
    net_entries: dict[str, dict[str, dict[str, object]]] = {"encoder": {}, "decoder": {}}
    for key, value in flat.items():
        parts = key.split(".")
        section = parts[0]
        if section == "model":
            if len(parts) != 2:
                raise ConfigError(f"{key}: malformed model key")
            if parts[1] not in _MODEL_KEYS:
                raise ConfigError(f"{key}: unknown key")
            model_keys[parts[1]] = value
        elif section == "trainer":
            if len(parts) != 2:
                raise ConfigError(f"{key}: malformed trainer key")
            if parts[1] not in _TRAINER_KEYS:
                raise ConfigError(f"{key}: unknown key")
            trainer_keys[parts[1]] = value
        elif section in ("encoder", "decoder"):
            if len(parts) != 3:
                raise ConfigError(f"{key}: expected {section}.<modality|default>.<key>")
            slot = parts[1]
            if slot != "default":
                try:
                    slot_idx = int(slot)
                except ValueError:
                    raise ConfigError(f"{key}: modality must be an index or 'default'")
                if slot_idx < 0:
                    raise ConfigError(f"{key}: modality index must be >= 0")
            net_entries[section].setdefault(slot, {})[parts[2]] = value
        else:
            raise ConfigError(f"{key}: unknown section '{section}'")

    if "name" not in model_keys:
        raise ConfigError("model.name: required key missing")
    name = _as_str(model_keys["name"], "model.name")
    if name not in MODEL_SPECS:
        raise ConfigError(f"model.name: unknown model '{name}'")
    if "z_dim" not in model_keys:
        raise ConfigError("model.z_dim: required key missing")
    z_dim = _as_int(model_keys["z_dim"], "model.z_dim")
    _expect(z_dim >= 1, "model.z_dim", "must be >= 1")

    cfg = ModelConfig(name=name, z_dim=z_dim)

    if "s_dim" in model_keys:
        cfg.s_dim = _as_int(model_keys["s_dim"], "model.s_dim")
        _expect(cfg.s_dim >= 0, "model.s_dim", "must be >= 0")
    if "beta" in model_keys:
        cfg.beta = _as_float(model_keys["beta"], "model.beta")
        _expect(cfg.beta > 0, "model.beta", "must satisfy x > 0")
    if "alpha" in model_keys:
        cfg.alpha = _as_float(model_keys["alpha"], "model.alpha")
        _expect(cfg.alpha > 0, "model.alpha", "must satisfy x > 0")
    if "K" in model_keys:
        cfg.K = _as_int(model_keys["K"], "model.K")
        _expect(cfg.K >= 1, "model.K", "must satisfy x >= 1")
    if "lambda" in model_keys:
        value = model_keys["lambda"]
        if isinstance(value, list):
            cfg.lam = _as_float_list(value, "model.lambda")
        else:
            cfg.lam = [_as_float(value, "model.lambda")]
        _expect(all(v >= 0 for v in cfg.lam), "model.lambda", "weights must be >= 0")
    if "pi" in model_keys:
        cfg.pi = _as_float_list(model_keys["pi"], "model.pi")
        _expect(all(v >= 0 for v in cfg.pi), "model.pi", "weights must be >= 0")
        _expect(abs(sum(cfg.pi) - 1.0) <= 1e-6, "model.pi", "weights must sum to 1")
    if "learning_rate" in model_keys:
        cfg.learning_rate = _as_float(model_keys["learning_rate"], "model.learning_rate")
        _expect(0.0 < cfg.learning_rate < 1.0, "model.learning_rate",
                "must satisfy 0 < x < 1")
    if "seed" in model_keys:
        cfg.seed = check_seed(_as_int(model_keys["seed"], "model.seed"), "model.seed")
    if "seed_everything" in model_keys:
        cfg.seed_everything = _as_bool(model_keys["seed_everything"], "model.seed_everything")
    if "save_model" in model_keys:
        cfg.save_model = _as_bool(model_keys["save_model"], "model.save_model")
    if "sparse" in model_keys:
        cfg.sparse = _as_bool(model_keys["sparse"], "model.sparse")
    if "threshold" in model_keys:
        value = model_keys["threshold"]
        if value == 0:
            cfg.threshold = 0.0
        else:
            cfg.threshold = _as_float(value, "model.threshold")
            _expect(0.0 < cfg.threshold < 1.0, "model.threshold",
                    "must satisfy 0 < x < 1, or 0")
    if "private" in model_keys:
        cfg.private = _as_bool(model_keys["private"], "model.private")
    if "join_type" in model_keys:
        jt = _as_str(model_keys["join_type"], "model.join_type")
        if jt not in SUPPORTED_JOIN:
            raise ConfigError("model.join_type: unsupported or invalid join type")
        cfg.join_type = jt
    if "eps" in model_keys:
        cfg.eps = _as_float(model_keys["eps"], "model.eps")
        _expect(0.0 < cfg.eps <= 1e-10, "model.eps", "must satisfy 0 < x <= 1e-10")
    if "non_saturating" in model_keys:
        cfg.non_saturating = _as_bool(model_keys["non_saturating"], "model.non_saturating")
    if "stochastic_subsets" in model_keys:
        cfg.stochastic_subsets = _as_bool(model_keys["stochastic_subsets"],
                                          "model.stochastic_subsets")
    if "input_dims" in model_keys:
        cfg.input_dims = _as_int_list(model_keys["input_dims"], "model.input_dims")
        _expect(all(d >= 1 for d in cfg.input_dims), "model.input_dims",
                "dims must be >= 1")

    cfg.encoders = _validate_net_section("encoder", net_entries["encoder"], is_decoder=False)
    cfg.decoders = _validate_net_section("decoder", net_entries["decoder"], is_decoder=True)

    trainer = TrainerConfig()
    if "max_epochs" in trainer_keys:
        trainer.max_epochs = _as_int(trainer_keys["max_epochs"], "trainer.max_epochs")
        _expect(trainer.max_epochs >= 0, "trainer.max_epochs", "must be >= 0")
    if "batch_size" in trainer_keys:
        trainer.batch_size = _as_int(trainer_keys["batch_size"], "trainer.batch_size")
        _expect(trainer.batch_size >= 1, "trainer.batch_size", "must be >= 1")
    if "full_batch" in trainer_keys:
        trainer.full_batch = _as_bool(trainer_keys["full_batch"], "trainer.full_batch")
    if "critic_steps" in trainer_keys:
        trainer.critic_steps = _as_int(trainer_keys["critic_steps"], "trainer.critic_steps")
        _expect(trainer.critic_steps >= 1, "trainer.critic_steps", "must be >= 1")
    if "clip" in trainer_keys:
        trainer.clip = _as_float(trainer_keys["clip"], "trainer.clip")
        _expect(trainer.clip > 0, "trainer.clip", "must be > 0")
    cfg.trainer = trainer

    # cross-field checks
    spec = MODEL_SPECS[name]
    if spec.has_private(cfg.private):
        _expect(cfg.s_dim >= 1, "model.s_dim",
                f"model '{name}' requires a private latent dimension (s_dim >= 1)")
    if spec.full_batch:
        cfg.trainer.full_batch = True
    if spec.alpha_range is not None:
        lo, hi = spec.alpha_range
        _expect(lo <= cfg.alpha <= hi, "model.alpha",
                f"model '{name}' requires {lo:g} <= alpha <= {hi:g}")
    if cfg.sparse and not spec.sparse:
        allowed = ", ".join(f"'{n}'" for n, other in MODEL_SPECS.items() if other.sparse)
        raise ConfigError(f"model.sparse: only supported for model {allowed}")
    if cfg.input_dims is not None:
        check_views(cfg, len(cfg.input_dims))
    return cfg


def check_views(cfg: ModelConfig, n_views: int) -> None:
    """Reject data whose view count the model, or a per-modality key, does not fit."""
    spec = MODEL_SPECS[cfg.name]
    if spec.n_views is not None and n_views != spec.n_views:
        raise ConfigError(
            f"model.name: '{cfg.name}' requires exactly {spec.n_views} views, got {n_views}"
        )
    if spec.view_weights is not None:
        key, lengths = spec.view_weights
        weights = {"model.pi": cfg.pi, "model.lambda": cfg.lam}[key]
        allowed = sorted(set(lengths(n_views)))
        # an empty or unset list means the objective's default weights
        if weights and len(weights) not in allowed:
            raise ConfigError(
                f"{key}: model '{cfg.name}' needs {' or '.join(map(str, allowed))} "
                f"entries for {n_views} views, got {len(weights)}"
            )
    for section, specs in (("encoder", cfg.encoders), ("decoder", cfg.decoders)):
        for slot in specs:
            if slot != "default" and slot >= n_views:
                raise ConfigError(
                    f"{section}.{slot}: modality index out of range for {n_views} views"
                )


def load_config(path: str | Path) -> ModelConfig:
    """Read, parse and validate a config file."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    return build_config(parse_config_text(p.read_text(encoding="utf-8")))


def resolved_lines(cfg: ModelConfig) -> list[str]:
    """Serialize a fully resolved config back to `section.key = value` lines."""

    def fmt(value) -> str:
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, list):
            return "[" + ", ".join(fmt(v) for v in value) + "]"
        return str(value)

    lines = [
        f"model.name = {cfg.name}",
        f"model.z_dim = {cfg.z_dim}",
        f"model.s_dim = {cfg.s_dim}",
        f"model.beta = {fmt(cfg.beta)}",
        f"model.alpha = {fmt(cfg.alpha)}",
        f"model.K = {cfg.K}",
        f"model.lambda = {fmt(cfg.lam)}",
        f"model.learning_rate = {fmt(cfg.learning_rate)}",
        f"model.seed = {cfg.seed}",
        f"model.seed_everything = {fmt(cfg.seed_everything)}",
        f"model.save_model = {fmt(cfg.save_model)}",
        f"model.sparse = {fmt(cfg.sparse)}",
        f"model.threshold = {fmt(cfg.threshold)}",
        f"model.private = {fmt(cfg.private)}",
        f"model.join_type = {cfg.join_type}",
        f"model.non_saturating = {fmt(cfg.non_saturating)}",
        f"model.stochastic_subsets = {fmt(cfg.stochastic_subsets)}",
    ]
    if cfg.pi is not None:
        lines.append(f"model.pi = {fmt(cfg.pi)}")
    if cfg.eps is not None:
        lines.append(f"model.eps = {fmt(cfg.eps)}")
    if cfg.input_dims is not None:
        lines.append(f"model.input_dims = {fmt(cfg.input_dims)}")
    for section, specs in (("encoder", cfg.encoders), ("decoder", cfg.decoders)):
        slots = sorted(specs, key=lambda s: (s != "default", s if isinstance(s, int) else -1))
        for slot in slots:
            spec = specs[slot]
            lines.append(f"{section}.{slot}.hidden_layer_dim = {fmt(spec.hidden_layer_dim)}")
            lines.append(f"{section}.{slot}.bias = {fmt(spec.bias)}")
            lines.append(f"{section}.{slot}.non_linear = {fmt(spec.non_linear)}")
            lines.append(f"{section}.{slot}.activation = {spec.activation}")
            if section == "decoder":
                lines.append(f"{section}.{slot}.distribution = {spec.distribution}")
                lines.append(f"{section}.{slot}.scale = {fmt(spec.scale)}")
    lines.extend([
        f"trainer.max_epochs = {cfg.trainer.max_epochs}",
        f"trainer.batch_size = {cfg.trainer.batch_size}",
        f"trainer.full_batch = {fmt(cfg.trainer.full_batch)}",
        f"trainer.critic_steps = {cfg.trainer.critic_steps}",
        f"trainer.clip = {fmt(cfg.trainer.clip)}",
    ])
    return lines


def save_resolved(cfg: ModelConfig, path: str | Path) -> None:
    Path(path).write_text("\n".join(resolved_lines(cfg)) + "\n", encoding="utf-8")
