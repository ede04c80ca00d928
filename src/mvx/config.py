"""Configuration files: `section.key = value` lines, strict validation.

Sections are {model, encoder, decoder, trainer}. Encoder/decoder keys live
under a modality index or `default` (e.g. `decoder.0.distribution = Bernoulli`).
Lists are written as comma-separated brackets: `[256, 256]`.

Each key is declared once, on its config field (`_key`): parsing, checking,
defaults and `resolved_lines` all read the dataclass fields.
"""

from __future__ import annotations

from dataclasses import MISSING, Field, dataclass, field, fields
from functools import cache
from pathlib import Path

from .distributions import Likelihood
from .errors import ConfigError
from .networks import ACTIVATIONS
from .objectives import MODEL_SPECS
from .pooling import MAX_SUBSET_MODALITIES

SUPPORTED_JOIN = ("PoE", "Mean")
# the model-specific keys: a model accepts only the defaults of those that
# its MODEL_SPECS entry does not name
MODEL_KEYS = frozenset().union(*(spec.keys for spec in MODEL_SPECS.values()))


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


def _as_weights(value, key: str) -> list[float]:
    """A list of numbers, or one number as a one-entry list."""
    if isinstance(value, list):
        return _as_float_list(value, key)
    return [_as_float(value, key)]


def _as_threshold(value, key: str) -> float:
    # 0 and -0.0 are both stored as 0.0
    return _as_float(value, key) or 0.0


def _as_seed(value, key: str) -> int:
    return check_seed(_as_int(value, key), key)


def _key(parse, *rules, default=MISSING, key: str | None = None,
         decoder_only: bool = False, read_by=None) -> Field:
    """Declare a config key on a dataclass field.

    `parse(value, path)` type-checks the parsed value and converts it; each
    rule is a (predicate, message) pair checked on the result, and `{x}` in a
    message stands for the value. `key` is the key name when it is not the
    field name. A field without a default is a required key. A model reads
    every key but the model-specific ones outside its `keys`, and, given
    `read_by(spec, section)`, only where it says that the model of
    `MODEL_SPECS` entry `spec` reads the key of the parsed `section`.
    """
    meta = {"parse": parse, "rules": rules, "key": key, "decoder_only": decoder_only,
            "read_by": read_by}
    if isinstance(default, list):
        return field(default_factory=lambda: list(default), metadata=meta)
    return field(default=default, metadata=meta)


@dataclass
class NetSpecConfig:
    hidden_layer_dim: list[int] = _key(
        _as_int_list, (lambda x: all(d >= 1 for d in x), "hidden dims must be >= 1"),
        default=[32])
    bias: bool = _key(_as_bool, default=True)
    non_linear: bool = _key(_as_bool, default=True)
    activation: str = _key(
        _as_str, (lambda x: x in ACTIVATIONS,
                  f"unsupported activation (choose from {ACTIVATIONS})"),
        default="relu")
    distribution: str = _key(
        _as_str, (lambda x: x in Likelihood.KINDS,
                  f"unsupported distribution (choose from {Likelihood.KINDS})"),
        default="Normal", decoder_only=True, read_by=lambda spec, _: spec.encoder != "plain")
    # read by the likelihoods in Likelihood.SCALED. A plain autoencoder's
    # decoders score squared error and read neither key, but it still accepts
    # any scale: the benchmark's mwae workload sets one
    scale: float = _key(
        _as_float, (lambda x: x > 0, "scale must be positive"), default=1.0, decoder_only=True,
        read_by=lambda _, net: net.distribution in Likelihood.SCALED)


@dataclass
class TrainerConfig:
    max_epochs: int = _key(_as_int, (lambda x: x >= 0, "must be >= 0"), default=50)
    batch_size: int = _key(_as_int, (lambda x: x >= 1, "must be >= 1"), default=64,
                           read_by=lambda spec, t: not (spec.full_batch or t.full_batch))
    full_batch: bool = _key(_as_bool, default=False)
    critic_steps: int = _key(_as_int, (lambda x: x >= 1, "must be >= 1"), default=5,
                             read_by=lambda spec, _: spec.adversary == "critic")
    clip: float = _key(_as_float, (lambda x: x > 0, "must be > 0"), default=0.01,
                       read_by=lambda spec, _: spec.adversary == "critic")


@dataclass
class ModelConfig:
    name: str = _key(_as_str, (lambda x: x in MODEL_SPECS, "unknown model '{x}'"))
    z_dim: int = _key(_as_int, (lambda x: x >= 1, "must be >= 1"))
    s_dim: int = _key(_as_int, (lambda x: x >= 0, "must be >= 0"), default=0,
                      read_by=lambda spec, cfg: spec.has_private(cfg))
    beta: float = _key(_as_float, (lambda x: x > 0, "must satisfy x > 0"), default=1.0)
    alpha: float = _key(_as_float, (lambda x: x > 0, "must satisfy x > 0"), default=1.0)
    K: int = _key(_as_int, (lambda x: x >= 1, "must satisfy x >= 1"), default=1)
    lam: list[float] = _key(
        _as_weights, (lambda x: all(v >= 0 for v in x), "weights must be >= 0"),
        default=[1.0], key="lambda")
    learning_rate: float = _key(
        _as_float, (lambda x: 0.0 < x < 1.0, "must satisfy 0 < x < 1"), default=1e-3)
    seed: int = _key(_as_seed, default=0)
    seed_everything: bool = _key(_as_bool, default=True)
    save_model: bool = _key(_as_bool, default=True)
    sparse: bool = _key(_as_bool, default=False)
    threshold: float = _key(
        _as_threshold, (lambda x: x == 0 or 0.0 < x < 1.0, "must satisfy 0 < x < 1, or 0"),
        default=0.0, read_by=lambda _, cfg: cfg.sparse)
    private: bool = _key(_as_bool, default=False)
    join_type: str = _key(
        _as_str, (lambda x: x in SUPPORTED_JOIN, "unsupported or invalid join type"),
        default="PoE", read_by=lambda _, cfg: not cfg.sparse)
    non_saturating: bool = _key(_as_bool, default=False)
    stochastic_subsets: bool = _key(_as_bool, default=False)
    pi: list[float] | None = _key(
        _as_float_list,
        (lambda x: all(v > 0 for v in x), "weights must be > 0"),
        (lambda x: abs(sum(x) - 1.0) <= 1e-6, "weights must sum to 1"),
        default=None)
    input_dims: list[int] | None = _key(
        _as_int_list,
        (lambda x: len(x) >= 1, "must list at least one view"),
        (lambda x: all(d >= 1 for d in x), "dims must be >= 1"),
        default=None)
    encoders: dict = field(default_factory=dict)
    decoders: dict = field(default_factory=dict)
    trainer: TrainerConfig = field(default_factory=TrainerConfig)

    def encoder_spec(self, m: int) -> NetSpecConfig:
        return self.encoders.get(m, self.encoders.get("default", NetSpecConfig()))

    def decoder_spec(self, m: int) -> NetSpecConfig:
        return self.decoders.get(m, self.decoders.get("default", NetSpecConfig()))


@cache
def _declared_keys(cls) -> dict[str, Field]:
    """The config keys that `cls` declares, by key name, in declaration order."""
    return {f.metadata["key"] or f.name: f for f in fields(cls) if "parse" in f.metadata}


def _parse_section(cls, keys: dict[str, object], prefix: str, is_decoder: bool = False):
    """Parse and check one section's {key: value} map into a `cls` instance."""
    declared = _declared_keys(cls)
    for key in keys:
        if key not in declared:
            raise ConfigError(f"{prefix}.{key}: unknown key")
    values = {}
    for key, f in declared.items():
        path = f"{prefix}.{key}"
        if key not in keys:
            _expect(f.default is not MISSING or f.default_factory is not MISSING,
                    path, "required key missing")
            continue
        _expect(is_decoder or not f.metadata["decoder_only"], path,
                f"{key} applies to decoders only")
        values[f.name] = _parse_key(f, keys[key], path)
    return cls(**values)


def _parse_key(f: Field, value, path: str):
    """`value` parsed and checked as the key that field `f` declares."""
    value = f.metadata["parse"](value, path)
    for ok, message in f.metadata["rules"]:
        _expect(ok(value), path, message.format(x=value))
    return value


def check_key(section, prefix: str, key: str, value, model: str):
    """`value` parsed and checked as the config line `<prefix>.<key> = value`
    of the parsed section `section` of a `model` config would be."""
    f = _declared_keys(type(section))[key]
    value = _parse_key(f, value, f"{prefix}.{key}")
    _check_read(model, section, prefix, key, f, value)
    return value


def _check_read(model: str, section, prefix: str, key: str, f: Field, value) -> None:
    """Refuse a non-default `value` of a key that `model` does not read in `section`."""
    spec = MODEL_SPECS[model]
    read_by = f.metadata["read_by"]
    reads = (key not in MODEL_KEYS or key in spec.keys) and (not read_by or read_by(spec, section))
    if not reads and value != _default(f):
        raise ConfigError(f"{prefix}.{key}: model '{model}' does not use this key")


def _default(f: Field):
    return f.default if f.default_factory is MISSING else f.default_factory()


def _parse_nets(section: str, slots: dict[int | str, dict[str, object]]) -> dict:
    return {slot: _parse_section(NetSpecConfig, keys, f"{section}.{slot}", section == "decoder")
            for slot, keys in slots.items()}


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


def build_config(flat: dict[str, object]) -> ModelConfig:
    """Validate a flat key map and construct a ModelConfig with defaults filled."""
    sections: dict[str, dict] = {"model": {}, "trainer": {}, "encoder": {}, "decoder": {}}
    for key, value in flat.items():
        parts = key.split(".")
        section = parts[0]
        if section in ("model", "trainer"):
            if len(parts) != 2:
                raise ConfigError(f"{key}: malformed {section} key")
            sections[section][parts[1]] = value
        elif section in ("encoder", "decoder"):
            if len(parts) != 3:
                raise ConfigError(f"{key}: expected {section}.<modality|default>.<key>")
            slot = parts[1]
            if slot != "default":
                # one spelling per index, so that two keys never share a slot
                _expect(slot.isdecimal() and str(int(slot)) == slot, key,
                        "modality must be an index or 'default'")
                slot = int(slot)
            sections[section].setdefault(slot, {})[parts[2]] = value
        else:
            raise ConfigError(f"{key}: unknown section '{section}'")

    cfg = _parse_section(ModelConfig, sections["model"], "model")
    cfg.encoders = _parse_nets("encoder", sections["encoder"])
    cfg.decoders = _parse_nets("decoder", sections["decoder"])
    cfg.trainer = _parse_section(TrainerConfig, sections["trainer"], "trainer")

    # cross-field checks
    name = cfg.name
    spec = MODEL_SPECS[name]
    checked = [("model", cfg), ("trainer", cfg.trainer),
               *((f"decoder.{slot}", net) for slot, net in cfg.decoders.items())]
    for prefix, section in checked:
        for key, f in _declared_keys(type(section)).items():
            _check_read(name, section, prefix, key, f, getattr(section, f.name))
    if spec.has_private(cfg):
        _expect(cfg.s_dim >= 1, "model.s_dim",
                f"model '{name}' requires a private latent dimension (s_dim >= 1)")
    elif spec.encoder == "reference":
        for slot in cfg.encoders:
            _expect(slot in (0, "default"), f"encoder.{slot}",
                    f"model '{name}' does not use this slot")
    if spec.full_batch:
        cfg.trainer.full_batch = True
    if spec.alpha_range is not None:
        lo, hi = spec.alpha_range
        _expect(lo <= cfg.alpha <= hi, "model.alpha",
                f"model '{name}' requires {lo:g} <= alpha <= {hi:g}")
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
    if spec.subsets and n_views > MAX_SUBSET_MODALITIES:
        raise ConfigError(
            f"model.name: '{cfg.name}' allows at most {MAX_SUBSET_MODALITIES} views "
            f"(pooling.MAX_SUBSET_MODALITIES), got {n_views}"
        )
    if spec.view_weights is not None:
        key, lengths = spec.view_weights
        weights = getattr(cfg, _declared_keys(ModelConfig)[key].name)
        allowed = sorted(set(lengths(n_views)))
        # an empty or unset list means the objective's default weights
        if weights and len(weights) not in allowed:
            raise ConfigError(
                f"model.{key}: model '{cfg.name}' needs {' or '.join(map(str, allowed))} "
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

    def section_lines(obj, prefix: str, is_decoder: bool = False) -> list[str]:
        lines = []
        for key, f in _declared_keys(type(obj)).items():
            value = getattr(obj, f.name)
            if value is not None and (is_decoder or not f.metadata["decoder_only"]):
                lines.append(f"{prefix}.{key} = {fmt(value)}")
        return lines

    lines = section_lines(cfg, "model")
    for section, specs in (("encoder", cfg.encoders), ("decoder", cfg.decoders)):
        slots = sorted(specs, key=lambda s: (s != "default", s if isinstance(s, int) else -1))
        for slot in slots:
            lines += section_lines(specs[slot], f"{section}.{slot}", section == "decoder")
    return lines + section_lines(cfg.trainer, "trainer")


def save_resolved(cfg: ModelConfig, path: str | Path) -> None:
    Path(path).write_text("\n".join(resolved_lines(cfg)) + "\n", encoding="utf-8")
