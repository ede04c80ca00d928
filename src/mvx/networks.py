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


def _init_layers(rng: np.random.Generator, dims: list[int], bias: bool):
    return [_init_layer(rng, fan_in, fan_out, bias) for fan_in, fan_out in zip(dims, dims[1:])]


def _layer_stack(h: Tensor, layers, spec: MlpSpec, activate_last: bool) -> Tensor:
    """`h` through the affine `layers`, each followed by the activation when
    `spec.non_linear`, except the last unless `activate_last`."""
    last = len(layers) - 1
    for i, (w, b) in enumerate(layers):
        h = nc.matmul(h, w)
        if b is not None:
            h = h + b
        if spec.non_linear and (activate_last or i < last):
            h = nc.tanh(h) if spec.activation == "tanh" else nc.relu(h)
    return h


def _checked(net, x: Tensor) -> Tensor:
    if x.data.ndim != 2 or x.shape[1] != net.spec.input_dim:
        raise DimensionError(
            f"{net.name}: input {x.shape} vs expected (batch, {net.spec.input_dim})"
        )
    return x


def _named_parameters(name: str, layers: dict[str, tuple[Tensor, Tensor | None]]
                      ) -> list[tuple[str, Tensor]]:
    """`<name>.<label>.W`, then `.b` when the layer has a bias, per labelled layer."""
    out = []
    for label, (w, b) in layers.items():
        out.append((f"{name}.{label}.W", w))
        if b is not None:
            out.append((f"{name}.{label}.b", b))
    return out


class Mlp:
    """Plain multilayer perceptron; final layer is affine.

    With `non_linear=False` the network composes to a single affine map.
    """

    def __init__(self, spec: MlpSpec, rng: np.random.Generator, name: str = "mlp"):
        self.spec = spec
        self.name = name
        dims = [spec.input_dim] + list(spec.hidden_layer_dims) + [spec.output_dim]
        self.layers: list[tuple[Tensor, Tensor | None]] = _init_layers(rng, dims, spec.bias)

    def forward(self, x: Tensor) -> Tensor:
        return _layer_stack(_checked(self, x), self.layers, self.spec, activate_last=False)

    def parameters(self) -> list[tuple[str, Tensor]]:
        return _named_parameters(self.name, {f"layer{i}": lay for i, lay in enumerate(self.layers)})

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
        self.trunk: list[tuple[Tensor, Tensor | None]] = _init_layers(rng, dims, spec.bias)
        head_in = dims[-1]
        self.w_mean, self.b_mean = _init_layer(rng, head_in, spec.output_dim, spec.bias)
        # zero-initialised log-variance head: posterior starts at the prior scale
        self.w_log_var = nc.parameter(np.zeros((head_in, spec.output_dim)))
        self.b_log_var = nc.parameter(np.zeros(spec.output_dim)) if spec.bias else None

    def forward(self, x: Tensor) -> GaussianParams:
        h = _layer_stack(_checked(self, x), self.trunk, self.spec, activate_last=True)
        mean = _layer_stack(h, [(self.w_mean, self.b_mean)], self.spec, activate_last=False)
        log_var = _layer_stack(h, [(self.w_log_var, self.b_log_var)], self.spec,
                               activate_last=False)
        return GaussianParams(mean, log_var)

    def parameters(self) -> list[tuple[str, Tensor]]:
        layers = {f"layer{i}": lay for i, lay in enumerate(self.trunk)}
        layers["mean"] = (self.w_mean, self.b_mean)
        layers["log_var"] = (self.w_log_var, self.b_log_var)
        return _named_parameters(self.name, layers)


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
