"""Shared test utilities: finite differences, recording eps streams, tiny models,
linear-Gaussian data with its exact log-likelihoods."""

from __future__ import annotations

import importlib.util
import math
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

from mvx import numcore as nc
from mvx.config import ModelConfig, build_config
from mvx.errors import NumericError
from mvx.numcore import Tensor
from mvx.objectives import MODEL_SPECS, EpsStream, ModelState
from mvx.training import build_model


TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load_tool(name: str):
    """The script `tools/<name>.py` as a module, with `tools/` importable as
    it is when the script runs."""
    if str(TOOLS) not in sys.path:
        sys.path.append(str(TOOLS))
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def assert_per_op_check_on() -> None:
    """A direct op call still raises on a non-finite result."""
    with pytest.warns(RuntimeWarning), pytest.raises(NumericError, match="op 'exp'"):
        nc.exp(nc.constant(np.full(3, 1e4)))


def poison_layers(net) -> None:
    """Weights so large that the second matmul of `net` overflows."""
    for w, _ in net.layers:
        w.data[...] = 1e200


def s_dim_key(name: str, s_dim: int, private: bool = False) -> dict[str, int]:
    """`model.s_dim = s_dim` for a model that has private latents given
    `model.private = private`, else nothing."""
    cfg = ModelConfig(name=name, z_dim=1, private=private)
    return {"model.s_dim": s_dim} if MODEL_SPECS[name].has_private(cfg) else {}


def make_tiny_state(name: str, dims=(2, 2), z_dim=2, s_dim=2, seed=3,
                    **model_keys) -> ModelState:
    """Seeded micro-instance of any model over `dims` views; `s_dim` is set
    only on a model with private latents."""
    flat = {"model.name": name, "model.z_dim": z_dim,
            **s_dim_key(name, s_dim, model_keys.get("private", False))}
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


def step_count_offsets(raw: bytes) -> list[int]:
    """The byte offset of each parameter's Adam step count in a `.mvxc`
    checkpoint, in parameter order."""
    (count,) = struct.unpack_from("<I", raw, 8)
    offset = 12
    for _ in range(count):
        (name_len,) = struct.unpack_from("<I", raw, offset)
        offset += 4 + name_len
        (ndim,) = struct.unpack_from("<I", raw, offset)
        shape = struct.unpack_from(f"<{ndim}I", raw, offset + 4)
        offset += 4 + 4 * ndim + 8 * int(np.prod(shape))
    offsets = []
    for _ in range(count):
        offsets.append(offset)
        (size,) = struct.unpack_from("<I", raw, offset + 8)
        offset += 8 + 2 * (4 + 8 * size)  # the step count, then m and v
    return offsets


def corrupt_first_moment_size(path: Path) -> int:
    """Add 1 to the first parameter's stored Adam m size in a `.mvxc`
    checkpoint; return the byte offset of that size field."""
    raw = bytearray(path.read_bytes())
    offset = step_count_offsets(raw)[0] + 8
    (size,) = struct.unpack_from("<I", raw, offset)
    struct.pack_into("<I", raw, offset, size + 1)
    path.write_bytes(bytes(raw))
    return offset


# -- linear-Gaussian data: x_m = W_m z + b_m + sigma * eps --------------------------


def linear_gaussian_views(ws: list[np.ndarray], bs: list[np.ndarray], sigma: float, n: int,
                          rng: np.random.Generator) -> list[np.ndarray]:
    """`n` rows of every view x_m = W_m z + b_m + sigma * eps_m, with z and the
    eps_m standard normal: z is drawn first, then each view's noise in turn."""
    z = rng.standard_normal((n, ws[0].shape[1]))
    return [z @ w.T + b + sigma * rng.standard_normal((n, len(b))) for w, b in zip(ws, bs)]


def gaussian_log_density(x: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> float:
    """The mean over the rows of `x` of log N(x; mean, cov)."""
    sign, logdet = np.linalg.slogdet(cov)
    assert sign > 0
    diff = x - mean
    maha = np.einsum("ij,ij->i", diff @ np.linalg.inv(cov), diff)
    return float(np.mean(-0.5 * (x.shape[1] * math.log(2 * math.pi) + logdet + maha)))


def linear_model_log_likelihood(state: ModelState, views: list[np.ndarray]) -> float:
    """The exact mean log p(x) of `views` under a model whose decoders are
    single affine maps x_m = W_m z + b_m with Normal likelihoods of one scale
    sigma: the views stacked are N(b, W W^T + sigma^2 I)."""
    decoders = state.decoders
    sigma = decoders[0].scale
    assert all(len(dec.layers) == 1 and dec.distribution == "Normal" and dec.scale == sigma
               for dec in decoders)
    w = np.vstack([dec.layers[0][0].data.T for dec in decoders])
    b = np.concatenate([dec.layers[0][1].data for dec in decoders])
    return gaussian_log_density(np.hstack(views), b, w @ w.T + sigma * sigma * np.eye(len(b)))


def ppca_log_likelihood(train: np.ndarray, test: np.ndarray, z_dim: int, sigma: float) -> float:
    """The mean log-likelihood of `test` under the maximum-likelihood
    probabilistic PCA fit of `train` with the noise scale `sigma` known
    (Tipping & Bishop 1999): the train mean, and W W^T from the top `z_dim`
    eigenpairs of the train covariance, each eigenvalue less sigma^2 and
    floored at 0."""
    mean = train.mean(axis=0)
    lam, vec = np.linalg.eigh(np.cov(train, rowvar=False, bias=True))
    lam, vec = lam[-z_dim:], vec[:, -z_dim:]
    var = sigma * sigma
    cov = (vec * np.maximum(lam - var, 0.0)) @ vec.T + var * np.eye(len(mean))
    return gaussian_log_density(test, mean, cov)
