"""The attention gate: mask range, dimensionality, composition, and init."""

import numpy as np
import numpy.testing as npt
import pytest

from conftest import make_gate
from llanet import tensor
from llanet.attention import attention_conv_spec, attention_forward, attention_forward_graph
from llanet.autodiff import GradGraph, Param
from llanet.network import kaiming_uniform


def random_pair(rng, c=4, h=5, w=5, n=2):
    return rng.standard_normal((n, c, h, w)), rng.standard_normal((n, c, h, w))


def test_mask_matches_feature_dimensionality():
    rng = np.random.default_rng(0)
    f_pre, f_cur = random_pair(rng)
    refined, mask = attention_forward(f_pre, f_cur, *make_gate(4, 3, rng))
    assert mask.shape == f_cur.shape  # full (N, C, H, W), no squeezing
    assert refined.shape == f_cur.shape


def test_mask_strictly_inside_unit_interval():
    rng = np.random.default_rng(1)
    f_pre, f_cur = random_pair(rng)
    # huge weights drive the conv output to extreme magnitudes
    weight, bias, spec = make_gate(4, 3, rng)
    weight.value *= 1e4
    _, mask = attention_forward(f_pre, f_cur, weight, bias, spec)
    assert np.all(mask > 0.0) and np.all(mask < 1.0)


def test_zero_gate_halves_current_features():
    rng = np.random.default_rng(2)
    f_pre, f_cur = random_pair(rng)
    state = rng.bit_generator.state
    weight, bias, spec = make_gate(4, 3, rng, attention="frozen")
    assert rng.bit_generator.state == state  # a frozen gate draws nothing
    refined, mask = attention_forward(f_pre, f_cur, weight, bias, spec)
    npt.assert_array_equal(mask, np.full_like(mask, 0.5))
    npt.assert_allclose(refined, 0.5 * f_cur, atol=1e-15)
    assert not weight.trainable and not bias.trainable


def test_composition_matches_kernel_pipeline():
    # the gate must be exactly concat -> conv -> sigmoid -> hadamard
    rng = np.random.default_rng(3)
    f_pre, f_cur = random_pair(rng, c=3, h=4, w=6)
    weight, bias, spec = make_gate(3, 3, rng)
    refined, mask = attention_forward(f_pre, f_cur, weight, bias, spec)

    cat = tensor.concat_channels(f_pre, f_cur)
    pre = tensor.conv2d(cat, weight.value, bias.value, spec)
    mask_ref = tensor.activation(pre, "sigmoid")
    npt.assert_allclose(mask, mask_ref, atol=1e-12)
    npt.assert_allclose(refined, f_cur * mask_ref, atol=1e-12)


def test_refinement_only_attenuates():
    rng = np.random.default_rng(4)
    for _ in range(20):
        f_pre, f_cur = random_pair(rng)
        refined, _ = attention_forward(f_pre, f_cur, *make_gate(4, 3, rng))
        assert np.all(np.abs(refined) < np.abs(f_cur) + 1e-15)
        assert np.all(np.sign(refined) == np.sign(f_cur))


def test_previous_features_influence_the_mask():
    rng = np.random.default_rng(5)
    f_pre, f_cur = random_pair(rng)
    gate = make_gate(4, 3, rng)
    _, mask_a = attention_forward(f_pre, f_cur, *gate)
    _, mask_b = attention_forward(f_pre + rng.standard_normal(f_pre.shape), f_cur, *gate)
    assert np.max(np.abs(mask_a - mask_b)) > 1e-6


def test_graph_forward_agrees_with_pure():
    rng = np.random.default_rng(6)
    f_pre, f_cur = random_pair(rng)
    gate = make_gate(4, 3, rng)
    refined, mask = attention_forward(f_pre, f_cur, *gate)

    g = GradGraph()
    r_node, m_node = attention_forward_graph(g, g.constant(f_pre), g.constant(f_cur), *gate)
    npt.assert_allclose(r_node.value, refined, atol=1e-14)
    npt.assert_allclose(m_node.value, mask, atol=1e-14)


def test_gate_gradient_reaches_both_streams():
    rng = np.random.default_rng(7)
    f_pre = Param("f_pre", rng.standard_normal((1, 3, 4, 4)))
    f_cur = Param("f_cur", rng.standard_normal((1, 3, 4, 4)))
    weight, bias, spec = make_gate(3, 3, rng)
    g = GradGraph()
    refined, _ = attention_forward_graph(g, g.leaf(f_pre), g.leaf(f_cur), weight, bias, spec)
    grads = g.backward(g.weighted_sum(refined, np.ones(refined.value.shape)))
    # f_pre only feeds the mask, yet it must still receive signal
    assert np.max(np.abs(grads["f_pre"])) > 0
    assert np.max(np.abs(grads["f_cur"])) > 0
    assert np.max(np.abs(grads[weight.name])) > 0


def test_spec_rejects_even_kernel():
    with pytest.raises(ValueError):
        attention_conv_spec(4, kernel=2)
    with pytest.raises(ValueError):
        make_gate(4, 4, np.random.default_rng(0))


def test_spec_rejects_bad_channels():
    with pytest.raises(ValueError):
        attention_conv_spec(0)


def test_weight_shape_reduces_channel_doubling():
    weight, bias, spec = make_gate(4, 3, np.random.default_rng(0))
    assert weight.value.shape == (4, 8, 3, 3)
    assert bias.value.shape == (4,)
    assert spec.in_channels == 8 and spec.out_channels == 4


def test_wider_kernel_keeps_spatial_dims():
    rng = np.random.default_rng(8)
    f_pre, f_cur = random_pair(rng, c=2, h=7, w=9)
    refined, mask = attention_forward(f_pre, f_cur, *make_gate(2, 5, rng))
    assert mask.shape == (2, 2, 7, 9) and refined.shape == (2, 2, 7, 9)


def test_mismatched_streams_rejected():
    rng = np.random.default_rng(9)
    gate = make_gate(4, 3, rng)
    a = rng.standard_normal((1, 4, 5, 5))
    b = rng.standard_normal((1, 4, 6, 5))
    with pytest.raises(tensor.DimensionError):
        attention_forward(a, b, *gate)
    with pytest.raises(tensor.DimensionError):
        attention_forward(a[:, :3], a[:, :3], *gate)  # channel count vs gate


@pytest.mark.parametrize("pre_shape, cur_shape, axis", [
    ((2, 4, 5, 5), (1, 4, 5, 5), "batch"),
    ((1, 4, 5, 5), (1, 4, 6, 5), "height"),
    ((1, 4, 5, 5), (1, 4, 5, 6), "width"),
    ((1, 3, 5, 5), (1, 3, 5, 5), "channels"),  # 6 channels into an 8-channel conv
    ((1, 5, 5, 5), (1, 3, 5, 5), "channels"),  # 8 channels in, but the mask has 4
    ((1, 3, 5, 5), (1, 5, 5, 5), "channels"),
])
def test_each_pair_mismatch_is_refused_on_its_axis(pre_shape, cur_shape, axis):
    # the conv and the hadamard check the pair; the gate adds no check of its own
    rng = np.random.default_rng(10)
    gate = make_gate(4, 3, rng)
    with pytest.raises(tensor.DimensionError) as err:
        attention_forward(rng.standard_normal(pre_shape), rng.standard_normal(cur_shape), *gate)
    assert err.value.axis == axis


def test_init_is_deterministic_in_the_seed():
    w1, b1, _ = make_gate(4, 3, np.random.default_rng(42))
    w2, b2, _ = make_gate(4, 3, np.random.default_rng(42))
    npt.assert_array_equal(w1.value, w2.value)
    npt.assert_array_equal(b1.value, b2.value)


def test_init_bounds_and_bias():
    bound = np.sqrt(6.0 / (8 * 3 * 3))
    for seed in range(10):
        weight, bias, _ = make_gate(4, 3, np.random.default_rng(seed))
        w = weight.value
        assert np.all(np.abs(w) <= bound)
        assert np.max(np.abs(w)) > 0.5 * bound  # actually spread out, not collapsed
        npt.assert_array_equal(bias.value, 0.0)
        assert bias.decay_exempt
        assert weight.trainable and bias.trainable


def test_kaiming_uniform_bound():
    rng = np.random.default_rng(0)
    draws = kaiming_uniform(rng, (10000,), fan_in=24)
    bound = np.sqrt(6.0 / 24)
    assert np.all(np.abs(draws) <= bound)
    assert abs(draws.mean()) < 0.02
