"""Encoder stack: identity edges, partition invariance, gradients."""

import numpy as np
import numpy.testing as npt
import pytest

import _tape
from _oracles import numerical_grad, rel_err
from _tape import apply_layers, embed_low, high_pairs
from conceptshot import tensor as T
from conceptshot.encoder import PREFIX, EncoderConfig, layer_pairs
from conceptshot.errors import ConfigError


def init_encoder(cfg, rng):
    """The encoder's parameters as ``meta.Model`` draws them."""
    return T.init_layers(rng, PREFIX, cfg.input_dim, cfg.widths)


def layer_names(cfg):
    return T.layer_names(PREFIX, len(cfg.widths))


def test_low_zero_layers_is_identity():
    cfg = EncoderConfig(input_dim=3, widths=[4, 4], low_layers=0)
    params = init_encoder(cfg, T.Rng(0))
    x = T.Tensor(np.random.default_rng(0).standard_normal((5, 3)))
    assert embed_low(params, cfg, x) is x


def test_high_all_layers_low_is_identity():
    cfg = EncoderConfig(input_dim=3, widths=[4, 4], low_layers=2)
    params = init_encoder(cfg, T.Rng(0))
    z = T.Tensor(np.ones((2, 4)))
    assert apply_layers(high_pairs(params, cfg), z, cfg.slope) is z
    assert high_pairs(params, cfg) == []


def test_identity_weights_pass_positive_input():
    cfg = EncoderConfig(input_dim=3, widths=[3], low_layers=1)
    params = init_encoder(cfg, T.Rng(0))
    params["enc.0.W"].data = np.eye(3)
    x = np.abs(np.random.default_rng(1).standard_normal((4, 3))) + 0.1
    npt.assert_array_equal(embed_low(params, cfg, T.Tensor(x)).data, x)


def test_zero_input_gives_activated_bias():
    cfg = EncoderConfig(input_dim=2, widths=[3], low_layers=1)
    params = init_encoder(cfg, T.Rng(3))
    params["enc.0.b"].data = np.array([1.0, -1.0, 0.5])
    out = embed_low(params, cfg, T.Tensor(np.zeros((2, 2))))
    npt.assert_array_equal(out.data, np.tile([1.0, -0.1, 0.5], (2, 1)))


def test_output_shape_and_feature_dim():
    cfg = EncoderConfig(input_dim=7, widths=[5, 6, 4], low_layers=1)
    assert cfg.feature_dim == 4
    params = init_encoder(cfg, T.Rng(2))
    x = T.Tensor(np.random.default_rng(2).standard_normal((9, 7)))
    out = apply_layers(high_pairs(params, cfg), embed_low(params, cfg, x), cfg.slope)
    assert out.shape == (9, 4)


@pytest.mark.parametrize("split", [0, 1, 2, 3, 4])
def test_partition_invariance_bitwise(split):
    # same parameters, any low/high split: composite output identical
    base = EncoderConfig(input_dim=5, widths=[6, 6, 6, 6], low_layers=2)
    params = init_encoder(base, T.Rng(7))
    x = T.Tensor(np.random.default_rng(7).standard_normal((8, 5)))
    full_ref = apply_layers(layer_pairs(params, base), x).data
    cfg = EncoderConfig(input_dim=5, widths=[6, 6, 6, 6], low_layers=split)
    out = apply_layers(high_pairs(params, cfg), embed_low(params, cfg, x), cfg.slope).data
    npt.assert_array_equal(out, full_ref)


def test_layer_names_key_the_pairs_in_order():
    cfg = EncoderConfig(input_dim=3, widths=[4, 5, 2], low_layers=1)
    params = init_encoder(cfg, T.Rng(1))
    assert [n for pair in layer_names(cfg) for n in pair] == list(params)
    assert layer_pairs(params, cfg) == [(params[w], params[b])
                                        for w, b in layer_names(cfg)]


def test_init_bounds_and_zero_bias():
    cfg = EncoderConfig(input_dim=10, widths=[20], low_layers=0)
    params = init_encoder(cfg, T.Rng(5))
    a = np.sqrt(6.0 / 30.0)
    w = params["enc.0.W"].data
    assert w.shape == (10, 20) and np.abs(w).max() <= a
    npt.assert_array_equal(params["enc.0.b"].data, np.zeros(20))
    # deterministic by seed
    again = init_encoder(cfg, T.Rng(5))
    npt.assert_array_equal(again["enc.0.W"].data, w)


def test_fd_gradients_through_encoder():
    cfg = EncoderConfig(input_dim=4, widths=[5, 3], low_layers=1, slope=0.1)
    params = init_encoder(cfg, T.Rng(9))
    rng = np.random.default_rng(9)
    x = rng.standard_normal((6, 4))
    r = rng.standard_normal((6, 3))

    def forward():
        out = apply_layers(high_pairs(params, cfg), embed_low(params, cfg, T.Tensor(x)),
                           cfg.slope)
        return _tape.sum_all(_tape.mul(out, T.Tensor(r)))

    names = list(params)
    analytic = _tape.grad(forward(), [params[n] for n in names])
    for n, g in zip(names, analytic):
        keep = params[n].data.copy()

        def f(v, n=n, keep=keep):
            params[n].data = v
            val = forward().item()
            params[n].data = keep
            return val

        assert rel_err(g, numerical_grad(f, keep)) < 1e-6, n


def test_config_validation():
    with pytest.raises(ConfigError):
        EncoderConfig(input_dim=0, widths=[3], low_layers=0)
    with pytest.raises(ConfigError):
        EncoderConfig(input_dim=3, widths=[3], low_layers=2)
    with pytest.raises(ConfigError):
        EncoderConfig(input_dim=3, widths=[0], low_layers=0)
