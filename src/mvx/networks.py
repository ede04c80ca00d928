"""MLP encoders, decoders, and discriminator/critic networks.

Initialization is uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) per layer from the
caller's seeded generator; variational log-variance heads start at zero so
training begins at unit posterior variance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .distributions import GaussianParams, Likelihood
from .errors import ContractError, DimensionError
from .numcore import Tensor

ACTIVATIONS = ("relu", "tanh")


@dataclass
class MlpSpec:
    input_dim: int
    hidden_layer_dims: list[int]
    output_dim: int
    non_linear: bool = True
    bias: bool = True
    activation: str = "relu"

    def __post_init__(self):
        if self.input_dim < 1 or self.output_dim < 1:
            raise ContractError("MlpSpec: dims must be >= 1")
        if any(h < 1 for h in self.hidden_layer_dims):
            raise ContractError("MlpSpec: hidden dims must be >= 1")
        if self.activation not in ACTIVATIONS:
            raise ContractError(f"MlpSpec: unknown activation '{self.activation}'")


def _init_layer(rng: np.random.Generator, fan_in: int, fan_out: int, bias: bool):
    bound = 1.0 / np.sqrt(fan_in)
    w = nc.parameter(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
    b = nc.parameter(np.zeros(fan_out)) if bias else None
    return w, b


def _apply_activation(h: Tensor, activation: str) -> Tensor:
    if activation == "tanh":
        return nc.tanh(h)
    return nc.relu(h)


class Mlp:
    """Plain multilayer perceptron; final layer is affine.

    With `non_linear=False` the network composes to a single affine map.
    """

    def __init__(self, spec: MlpSpec, rng: np.random.Generator, name: str = "mlp"):
        self.spec = spec
        self.name = name
        self.layers: list[tuple[Tensor, Tensor | None]] = []
        dims = [spec.input_dim] + list(spec.hidden_layer_dims) + [spec.output_dim]
        for i in range(len(dims) - 1):
            self.layers.append(_init_layer(rng, dims[i], dims[i + 1], spec.bias))

    def forward(self, x: Tensor) -> Tensor:
        if x.data.ndim != 2 or x.shape[1] != self.spec.input_dim:
            raise DimensionError(
                f"{self.name}: input {x.shape} vs expected (batch, {self.spec.input_dim})"
            )
        h = x
        last = len(self.layers) - 1
        for i, (w, b) in enumerate(self.layers):
            h = nc.matmul(h, w)
            if b is not None:
                h = h + b
            if i < last and self.spec.non_linear:
                h = _apply_activation(h, self.spec.activation)
        return h

    def parameters(self) -> list[tuple[str, Tensor]]:
        out = []
        for i, (w, b) in enumerate(self.layers):
            out.append((f"{self.name}.layer{i}.W", w))
            if b is not None:
                out.append((f"{self.name}.layer{i}.b", b))
        return out

    def parameter_count(self) -> int:
        return sum(p.data.size for _, p in self.parameters())


class Encoder(Mlp):
    """Deterministic encoder: features -> latent point."""


class VariationalEncoder:
    """Encoder with mean and log-variance heads on a shared trunk."""

    def __init__(self, spec: MlpSpec, rng: np.random.Generator, name: str = "venc"):
        self.spec = spec
        self.name = name
        dims = [spec.input_dim] + list(spec.hidden_layer_dims)
        self.trunk: list[tuple[Tensor, Tensor | None]] = []
        for i in range(len(dims) - 1):
            self.trunk.append(_init_layer(rng, dims[i], dims[i + 1], spec.bias))
        head_in = dims[-1]
        self.w_mean, self.b_mean = _init_layer(rng, head_in, spec.output_dim, spec.bias)
        # zero-initialised log-variance head: posterior starts at the prior scale
        self.w_log_var = nc.parameter(np.zeros((head_in, spec.output_dim)))
        self.b_log_var = nc.parameter(np.zeros(spec.output_dim)) if spec.bias else None

    def forward(self, x: Tensor) -> GaussianParams:
        if x.data.ndim != 2 or x.shape[1] != self.spec.input_dim:
            raise DimensionError(
                f"{self.name}: input {x.shape} vs expected (batch, {self.spec.input_dim})"
            )
        h = x
        for w, b in self.trunk:
            h = nc.matmul(h, w)
            if b is not None:
                h = h + b
            if self.spec.non_linear:
                h = _apply_activation(h, self.spec.activation)
        mean = nc.matmul(h, self.w_mean)
        if self.b_mean is not None:
            mean = mean + self.b_mean
        log_var = nc.matmul(h, self.w_log_var)
        if self.b_log_var is not None:
            log_var = log_var + self.b_log_var
        return GaussianParams(mean, log_var)

    def parameters(self) -> list[tuple[str, Tensor]]:
        out = []
        for i, (w, b) in enumerate(self.trunk):
            out.append((f"{self.name}.layer{i}.W", w))
            if b is not None:
                out.append((f"{self.name}.layer{i}.b", b))
        out.append((f"{self.name}.mean.W", self.w_mean))
        if self.b_mean is not None:
            out.append((f"{self.name}.mean.b", self.b_mean))
        out.append((f"{self.name}.log_var.W", self.w_log_var))
        if self.b_log_var is not None:
            out.append((f"{self.name}.log_var.b", self.b_log_var))
        return out


class Decoder(Mlp):
    """Latents -> likelihood over one modality's feature space."""

    def __init__(
        self,
        spec: MlpSpec,
        rng: np.random.Generator,
        distribution: str = "Normal",
        scale: float = 1.0,
        name: str = "dec",
    ):
        super().__init__(spec, rng, name=name)
        if distribution not in Likelihood.KINDS:
            raise ContractError(f"Decoder: unknown distribution '{distribution}'")
        self.distribution = distribution
        self.scale = scale

    def decode(self, z: Tensor) -> Likelihood:
        return Likelihood(self.distribution, self.forward(z), scale=self.scale)


class Discriminator(Mlp):
    """Latent -> probability-of-prior in (0, 1); `critic=True` omits the sigmoid."""

    def __init__(self, spec: MlpSpec, rng: np.random.Generator, critic: bool = False,
                 name: str = "disc"):
        if spec.output_dim != 1:
            raise ContractError("Discriminator: output_dim must be 1")
        super().__init__(spec, rng, name=name)
        self.critic = critic

    def score(self, z: Tensor) -> Tensor:
        """Per-sample score of shape [batch]."""
        out = super().forward(z)
        flat = nc.sum_(out, axis=1)
        if self.critic:
            return flat
        return nc.sigmoid(flat)
