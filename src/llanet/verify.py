"""Finite-difference verification drivers.

Each check builds a tiny randomized instance of one differentiable kernel
(or the attention gate, or the whole small network) and compares tape
gradients against central differences. Every kernel check but
softmax cross-entropy, whose loss is already a scalar, goes through
``_probed``: after the check has drawn its params, it draws one fixed random
probe of the op's output shape and reduces the output to the scalar
``<probe, op(params)>``, so every output element influences the loss.

Convention: ReLU inputs are only checked where |x| > 0.1 - the kernel is
nondifferentiable at 0 and a central difference straddling the kink is
meaningless. The sampling mask enforces this.
"""

from __future__ import annotations

import numpy as np

from .attention import attention_conv_spec, attention_forward_graph
from .autodiff import GradCheckReport, GradGraph, Param, grad_check
from .network import Layer, ParamStore, _add_layer, init_network, network_loss_graph, preset
from .tensor import ConvSpec

RELU_KINK_MARGIN = 0.1


def _param(rng, name, shape, scale=1.0):
    return Param(name, scale * rng.standard_normal(shape))


def _probed(eps, rng, params, op, out_shape, select=None):
    """Check ``op(graph, *leaves)`` through a probe drawn once from ``rng``
    and reused across every finite-difference re-evaluation.

    ``op`` is looked up when the check runs (``GradGraph.relu``, or a lambda
    that adds the op's settings), so a wrapper installed on a ``GradGraph``
    method is the one that gets called.
    """
    probe = rng.standard_normal(out_shape)
    return grad_check(lambda g: g.weighted_sum(op(g, *(g.leaf(p) for p in params)), probe),
                      params, eps=eps, select=select)


def check_conv2d(eps, rng):
    spec = ConvSpec(out_channels=2, in_channels=3, kernel_h=3, kernel_w=3,
                    stride=2, padding=1, has_bias=True)
    x = _param(rng, "x", (2, 3, 5, 5))
    w = _param(rng, "w", spec.weight_shape, scale=0.5)
    b = _param(rng, "b", (2,), scale=0.1)
    return _probed(eps, rng, [x, w, b], lambda g, *leaves: g.conv2d(*leaves, spec), (2, 2, 3, 3))


def check_batchnorm(eps, rng, train):
    x = _param(rng, "x", (2, 3, 4, 4))
    gamma = Param("gamma", 0.5 + rng.random(3))
    beta = _param(rng, "beta", (3,), scale=0.3)
    running_mean, running_var = rng.standard_normal(3), 0.5 + rng.random(3)
    return _probed(eps, rng, [x, gamma, beta], lambda g, *leaves: g.batchnorm2d(
        *leaves, running_mean, running_var, train=train, update_running=False), x.value.shape)


def check_relu(eps, rng):
    x = Param("x", rng.standard_normal((2, 3, 4, 4)))
    mask = np.abs(x.value) > RELU_KINK_MARGIN
    return _probed(eps, rng, [x], GradGraph.relu, x.value.shape, select={"x": mask})


def check_sigmoid(eps, rng):
    x = Param("x", 2.0 * rng.standard_normal((2, 3, 4, 4)))
    return _probed(eps, rng, [x], GradGraph.sigmoid, x.value.shape)


def check_concat(eps, rng):
    a = _param(rng, "a", (2, 2, 3, 3))
    b = _param(rng, "b", (2, 3, 3, 3))
    return _probed(eps, rng, [a, b], GradGraph.concat_channels, (2, 5, 3, 3))


def check_hadamard(eps, rng):
    a = _param(rng, "a", (2, 3, 4, 4))
    b = _param(rng, "b", (2, 3, 4, 4))
    return _probed(eps, rng, [a, b], GradGraph.hadamard, a.value.shape)


def check_maxpool(eps, rng):
    # well-separated values so +/- eps nudges never flip a window's argmax
    vals = rng.permutation(2 * 2 * 6 * 6).astype(float) * 0.1
    x = Param("x", vals.reshape(2, 2, 6, 6))
    return _probed(eps, rng, [x], lambda g, x: g.maxpool(x, window=2, stride=2), (2, 2, 3, 3))


def check_global_avg_pool(eps, rng):
    x = _param(rng, "x", (2, 3, 4, 5))
    return _probed(eps, rng, [x], GradGraph.global_avg_pool, (2, 3, 1, 1))


def check_linear(eps, rng):
    x = _param(rng, "x", (2, 5))
    w = _param(rng, "w", (3, 5), scale=0.5)
    b = _param(rng, "b", (3,), scale=0.1)
    return _probed(eps, rng, [x, w, b], GradGraph.linear, (2, 3))


def check_softmax_cross_entropy(eps, rng):
    logits = _param(rng, "logits", (2, 7))
    labels = np.array([3, 6])
    return grad_check(lambda g: g.softmax_cross_entropy(g.leaf(logits), labels), [logits], eps=eps)


def check_attention_gate(eps, rng):
    f_pre = _param(rng, "f_pre", (1, 2, 3, 3))
    f_cur = _param(rng, "f_cur", (1, 2, 3, 3))
    layer, gate = Layer("gate", "gate", attention_conv_spec(2, 3)), ParamStore()
    _add_layer(gate, layer, rng, "learned")
    weight, bias = gate
    # the gate enters its own weight and bias; the repeated leaves are the same nodes
    return _probed(eps, rng, [f_pre, f_cur, weight, bias],
                   lambda g, f_pre, f_cur, *_: attention_forward_graph(
                       g, f_pre, f_cur, weight, bias, layer.spec)[0],
                   f_cur.value.shape)


KERNEL_CHECKS = (
    ("conv2d", check_conv2d),
    ("batchnorm2d[train]", lambda eps, rng: check_batchnorm(eps, rng, train=True)),
    ("batchnorm2d[eval]", lambda eps, rng: check_batchnorm(eps, rng, train=False)),
    ("activation[relu]", check_relu),
    ("activation[sigmoid]", check_sigmoid),
    ("concat_channels", check_concat),
    ("hadamard", check_hadamard),
    ("pool2d[max]", check_maxpool),
    ("pool2d[global_avg]", check_global_avg_pool),
    ("linear", check_linear),
    ("softmax_cross_entropy", check_softmax_cross_entropy),
    ("attention_gate", check_attention_gate),
)


def network_gradcheck(eps: float = 1e-5, seed: int = 0,
                      max_entries: int | None = None,
                      preset_name: str = "micro") -> tuple[str, GradCheckReport]:
    """End-to-end check: mean cross-entropy through a complete network
    (stem, combined modules, head) at the given preset size, train mode.

    The micro preset (one module at width 4, 8x8 input) is small enough to
    check every entry; for bigger presets pass ``max_entries`` to subsample.
    """
    rng = np.random.default_rng([seed, 99])
    cfg = preset(preset_name, seed=seed)
    store = init_network(cfg)
    x = rng.standard_normal((1,) + cfg.input_shape)
    labels = np.array([2])
    report = grad_check(lambda g: network_loss_graph(g, x, labels, store, cfg, train=True,
                                                     update_running=False)[1],
                        store.trainable(), eps=eps, max_entries=max_entries, rng=rng)
    tag = ",sampled" if max_entries is not None else ""
    return f"network[{preset_name},e2e{tag}]", report


def run_suite(which: str = "all", eps: float = 1e-5) -> list[tuple[str, GradCheckReport]]:
    """The CLI's gradcheck entry point: "ops", "net" (end-to-end), or "all"."""
    results = []
    if which in ("ops", "all"):
        results.extend((name, fn(eps, np.random.default_rng([0, i])))
                       for i, (name, fn) in enumerate(KERNEL_CHECKS))
    if which in ("net", "all"):
        # micro exhaustively, tiny subsampled (a few entries from every parameter)
        results.append(network_gradcheck(eps=eps))
        results.append(network_gradcheck(eps=eps, max_entries=3, preset_name="tiny"))
    if not results:
        raise ValueError(f"unknown suite {which!r}; choose ops, net, or all")
    return results
