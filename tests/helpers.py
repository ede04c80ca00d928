"""Shared test utilities: finite differences, recording eps streams, tiny models."""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from mvx import numcore as nc
from mvx.config import build_config
from mvx.numcore import Tensor
from mvx.objectives import EpsStream, ModelState
from mvx.training import build_model


def make_tiny_state(name: str, dims=(2, 2), z_dim=2, s_dim=2, seed=3,
                    **model_keys) -> ModelState:
    """Seeded micro-instance of any model over `dims` views."""
    flat = {"model.name": name, "model.z_dim": z_dim, "model.s_dim": s_dim}
    for key, value in model_keys.items():
        flat[f"model.{key}"] = value
    cfg = build_config(flat)
    return build_model(cfg, list(dims), np.random.default_rng(seed))


def make_tiny_views(dims=(2, 2), batch=3, seed=11) -> list[Tensor]:
    rng = np.random.default_rng(seed)
    return [nc.constant(rng.normal(size=(batch, d))) for d in dims]


def zero_encoders(state: ModelState) -> None:
    """Force every posterior to the prior (zero-weight encoder heads)."""
    encoders = list(state.encoders)
    if state.joint_encoder is not None:
        encoders.append(state.joint_encoder)
    if state.private_encoders is not None:
        encoders.extend(state.private_encoders)
    for enc in encoders:
        for _, p in enc.parameters():
            p.data[...] = 0.0


def finite_difference_grad(f, param: Tensor, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of the scalar function f() w.r.t. param.data."""
    grad = np.zeros_like(param.data)
    flat = param.data.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f()
        flat[i] = orig - h
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def assert_grad_close(analytic: np.ndarray, numeric: np.ndarray, rel: float = 1e-4,
                      abs_tol: float = 1e-7, label: str = "") -> None:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1.0)
    err = np.abs(analytic - numeric)
    ok = err <= rel * denom + abs_tol
    assert np.all(ok), (
        f"{label}: gradient mismatch, max err {err.max():.3e} "
        f"(analytic {analytic.reshape(-1)[np.argmax(err)]:.6e}, "
        f"numeric {numeric.reshape(-1)[np.argmax(err)]:.6e})"
    )


class RecordingEps(EpsStream):
    """EpsStream that remembers every draw so oracles can replay them."""

    def __init__(self, rng: np.random.Generator):
        super().__init__(rng)
        self.draws: list[np.ndarray] = []
        self.integer_draws: list[np.ndarray] = []

    def normal(self, shape):
        t = super().normal(shape)
        self.draws.append(t.data.copy())
        return t

    def integers(self, n, high):
        out = super().integers(n, high)
        self.integer_draws.append(out.copy())
        return out


class ReplayEps(EpsStream):
    """EpsStream that replays a recorded list of draws (restartable)."""

    def __init__(self, draws: list[np.ndarray], integer_draws: list[np.ndarray] | None = None):
        self._draws = draws
        self._ints = integer_draws or []
        self.reset()

    def reset(self):
        self._i = 0
        self._j = 0

    def normal(self, shape):
        draw = self._draws[self._i]
        self._i += 1
        assert draw.shape == tuple(shape), f"replay shape {draw.shape} vs {tuple(shape)}"
        return nc.constant(draw)

    def integers(self, n, high):
        out = self._ints[self._j]
        self._j += 1
        return out


def corrupt_first_moment_size(path: Path) -> int:
    """Add 1 to the first parameter's stored Adam m size in a `.mvxc`
    checkpoint; return the byte offset of that size field."""
    raw = bytearray(path.read_bytes())
    (count,) = struct.unpack_from("<I", raw, 8)
    offset = 12
    for _ in range(count):
        (name_len,) = struct.unpack_from("<I", raw, offset)
        offset += 4 + name_len
        (ndim,) = struct.unpack_from("<I", raw, offset)
        shape = struct.unpack_from(f"<{ndim}I", raw, offset + 4)
        offset += 4 + 4 * ndim + 8 * int(np.prod(shape))
    offset += 8  # the step count
    (size,) = struct.unpack_from("<I", raw, offset)
    struct.pack_into("<I", raw, offset, size + 1)
    path.write_bytes(bytes(raw))
    return offset
