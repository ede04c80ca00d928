"""Network layer: head contracts, parameter counts, scalar recomputation."""

import math

import numpy as np
import pytest

from mvx import numcore as nc
from mvx.errors import ContractError, DimensionError
from mvx.networks import Decoder, Discriminator, Encoder, MlpSpec, VariationalEncoder

from helpers import assert_grad_close, finite_difference_grad


def test_zero_network_emits_prior():
    rng = np.random.default_rng(0)
    enc = VariationalEncoder(MlpSpec(3, [4], 2), rng)
    for _, p in enc.parameters():
        p.data[...] = 0.0
    out = enc.forward(nc.constant(np.random.default_rng(1).normal(size=(5, 3))))
    assert np.array_equal(out.mean.data, np.zeros((5, 2)))
    assert np.array_equal(out.log_var.data, np.zeros((5, 2)))


def test_log_var_head_starts_at_zero():
    rng = np.random.default_rng(0)
    enc = VariationalEncoder(MlpSpec(3, [4], 2), rng)
    x = nc.constant(np.random.default_rng(2).normal(size=(6, 3)))
    out = enc.forward(x)
    assert np.array_equal(out.log_var.data, np.zeros((6, 2)))


def test_affine_identity_encoder():
    rng = np.random.default_rng(0)
    enc = VariationalEncoder(MlpSpec(3, [], 3), rng)
    enc.w_mean.data = np.eye(3)
    enc.b_mean.data[...] = 0.0
    x = np.random.default_rng(3).normal(size=(4, 3))
    out = enc.forward(nc.constant(x))
    assert np.allclose(out.mean.data, x, atol=1e-12)


def test_forward_scalar_recomputation_oracle():
    rng = np.random.default_rng(42)
    enc = VariationalEncoder(MlpSpec(2, [3, 3], 2, activation="relu"), rng)
    x = np.random.default_rng(5).normal(size=(3, 2))
    out = enc.forward(nc.constant(x))

    def relu(v):
        return [max(0.0, u) for u in v]

    def affine(w, b, v):
        return [sum(w.data[i][j] * v[i] for i in range(len(v))) + (b.data[j] if b is not None else 0.0)
                for j in range(w.data.shape[1])]

    for row in range(3):
        h = list(x[row])
        for w, b in enc.trunk:
            h = relu(affine(w, b, h))
        mean = affine(enc.w_mean, enc.b_mean, h)
        log_var = affine(enc.w_log_var, enc.b_log_var, h)
        assert np.abs(np.array(mean) - out.mean.data[row]).max() < 1e-9
        assert np.abs(np.array(log_var) - out.log_var.data[row]).max() < 1e-9


def test_parameter_count_matches_spec():
    rng = np.random.default_rng(1)
    spec = MlpSpec(5, [7, 3], 2, bias=True)
    net = Encoder(spec, rng)
    expect = 5 * 7 + 7 + 7 * 3 + 3 + 3 * 2 + 2
    assert sum(p.data.size for _, p in net.parameters()) == expect
    no_bias = Encoder(MlpSpec(5, [7], 2, bias=False), rng)
    assert sum(p.data.size for _, p in no_bias.parameters()) == 5 * 7 + 7 * 2


def test_linear_network_is_single_affine_map():
    rng = np.random.default_rng(6)
    net = Encoder(MlpSpec(4, [5, 6], 3, non_linear=False), rng)
    x = np.random.default_rng(7).normal(size=(10, 4))
    out = net.forward(nc.constant(x)).data
    w_total = np.eye(4)
    b_total = np.zeros(4)
    for w, b in net.layers:
        b_total = b_total @ w.data + (b.data if b is not None else 0.0)
        w_total = w_total @ w.data
    assert np.abs(out - (x @ w_total + b_total)).max() < 1e-9


def test_decoder_bernoulli_zero_logits_gives_half():
    rng = np.random.default_rng(8)
    dec = Decoder(MlpSpec(2, [3], 4), rng, distribution="Bernoulli")
    for _, p in dec.parameters():
        p.data[...] = 0.0
    lik = dec.decode(nc.constant(np.random.default_rng(9).normal(size=(5, 2))))
    assert np.allclose(lik.mean().data, 0.5)


def test_decoder_normal_head_passthrough():
    rng = np.random.default_rng(10)
    dec = Decoder(MlpSpec(2, [], 3), rng, distribution="Normal")
    z = np.random.default_rng(11).normal(size=(4, 2))
    lik = dec.decode(nc.constant(z))
    expect = z @ dec.layers[0][0].data + dec.layers[0][1].data
    assert np.allclose(lik.params.data, expect, atol=1e-12)


def test_decoder_accepts_concatenated_latents():
    rng = np.random.default_rng(12)
    z_dim, s_dim = 4, 3
    dec = Decoder(MlpSpec(z_dim + s_dim, [5], 6), rng)
    z = nc.constant(np.random.default_rng(13).normal(size=(2, z_dim)))
    h = nc.constant(np.random.default_rng(14).normal(size=(2, s_dim)))
    out = dec.decode(nc.concat_cols([z, h]))
    assert out.params.shape == (2, 6)


def test_discriminator_outputs():
    rng = np.random.default_rng(15)
    disc = Discriminator(MlpSpec(3, [4], 1), rng)
    for _, p in disc.parameters():
        p.data[...] = 0.0
    z = nc.constant(np.random.default_rng(16).normal(size=(7, 3)))
    out = disc.score(z)
    assert out.shape == (7,)
    assert np.allclose(out.data, 0.5)
    critic = Discriminator(MlpSpec(3, [4], 1), rng, critic=True)
    for _, p in critic.parameters():
        p.data[...] = 0.0
    assert np.allclose(critic.score(z).data, 0.0)


def test_discriminator_gradient_flows_to_input():
    rng = np.random.default_rng(17)
    disc = Discriminator(MlpSpec(3, [6], 1), rng)
    z = nc.parameter(np.random.default_rng(18).normal(size=(4, 3)))

    def build():
        return nc.sum_(nc.log(disc.score(z)))

    nc.backward(build())
    assert z.grad is not None and np.any(z.grad != 0)
    fd = finite_difference_grad(lambda: build().item(), z)
    assert_grad_close(z.grad, fd, rel=1e-4, label="discriminator input")


def test_forward_determinism():
    rng = np.random.default_rng(19)
    enc = Encoder(MlpSpec(3, [8], 2), rng)
    x = nc.constant(np.random.default_rng(20).normal(size=(6, 3)))
    a = enc.forward(x).data
    b = enc.forward(x).data
    assert a.tobytes() == b.tobytes()


def test_dim_mismatch_raises():
    rng = np.random.default_rng(21)
    enc = Encoder(MlpSpec(3, [4], 2), rng)
    with pytest.raises(DimensionError):
        enc.forward(nc.constant(np.zeros((2, 5))))
    with pytest.raises(ContractError):
        MlpSpec(0, [], 2)
    with pytest.raises(ContractError):
        Discriminator(MlpSpec(3, [4], 2), rng)


def test_tanh_activation_option():
    rng = np.random.default_rng(22)
    net = Encoder(MlpSpec(2, [3], 2, activation="tanh"), rng)
    x = np.random.default_rng(23).normal(size=(4, 2))
    h = np.tanh(x @ net.layers[0][0].data + net.layers[0][1].data)
    expect = h @ net.layers[1][0].data + net.layers[1][1].data
    assert np.allclose(net.forward(nc.constant(x)).data, expect, atol=1e-12)


def test_initialization_bounds_and_determinism():
    spec = MlpSpec(9, [4], 2)
    a = Encoder(spec, np.random.default_rng(99))
    b = Encoder(spec, np.random.default_rng(99))
    for (_, pa), (_, pb) in zip(a.parameters(), b.parameters()):
        assert pa.data.tobytes() == pb.data.tobytes()
    w = a.layers[0][0].data
    assert np.abs(w).max() <= 1.0 / math.sqrt(9)
