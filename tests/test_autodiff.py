"""Tape differentiation: adjoint rules, accumulation, and the finite-difference verifier."""

import dataclasses
import gc
import math
import tracemalloc
import weakref

import numpy as np
import numpy.testing as npt
import pytest

import oracles
from conftest import make_gate
from llanet import attention, autodiff, network, tensor
from llanet.autodiff import GradGraph, Param, grad_check, relative_error
from llanet.tensor import ConvSpec, DimensionError, FORWARD_KERNELS
from llanet.verify import KERNEL_CHECKS, run_suite


def ones_probe(g, node):
    return g.weighted_sum(node, np.ones_like(node.value))


def test_product_rule_on_hadamard():
    rng = np.random.default_rng(0)
    a = Param("a", rng.standard_normal((1, 2, 3, 3)))
    b = Param("b", rng.standard_normal((1, 2, 3, 3)))
    g = GradGraph()
    loss = ones_probe(g, g.hadamard(g.leaf(a), g.leaf(b)))
    grads = g.backward(loss)
    npt.assert_allclose(grads["a"], b.value, atol=1e-15)
    npt.assert_allclose(grads["b"], a.value, atol=1e-15)


def test_concat_adjoint_is_slice():
    rng = np.random.default_rng(1)
    a = Param("a", rng.standard_normal((1, 2, 2, 2)))
    b = Param("b", rng.standard_normal((1, 3, 2, 2)))
    g = GradGraph()
    loss = ones_probe(g, g.concat_channels(g.leaf(a), g.leaf(b)))
    grads = g.backward(loss)
    npt.assert_array_equal(grads["a"], np.ones_like(a.value))
    npt.assert_array_equal(grads["b"], np.ones_like(b.value))


def test_fanout_accumulates_like_doubling():
    rng = np.random.default_rng(2)
    x_val = rng.standard_normal((1, 2, 2, 2))

    x1 = Param("x", x_val.copy())
    g1 = GradGraph()
    n1 = g1.leaf(x1)
    loss1 = ones_probe(g1, g1.add(n1, n1))  # y = x + x
    grad_sum = g1.backward(loss1)["x"]

    x2 = Param("x", x_val.copy())
    g2 = GradGraph()
    two = g2.constant(np.full_like(x_val, 2.0))
    loss2 = ones_probe(g2, g2.hadamard(g2.leaf(x2), two))  # y = 2 * x
    grad_two = g2.backward(loss2)["x"]

    npt.assert_allclose(grad_sum, grad_two, atol=1e-15)
    npt.assert_allclose(grad_sum, 2.0, atol=1e-15)


def test_gradient_linearity_in_loss_scale():
    rng = np.random.default_rng(3)
    x = Param("x", rng.standard_normal((2, 3)))
    w = Param("w", rng.standard_normal((4, 3)))
    b = Param("b", rng.standard_normal(4))
    alpha = 3.7

    def run(scale):
        g = GradGraph()
        y = g.linear(g.leaf(x), g.leaf(w), g.leaf(b))
        probe = np.full(y.value.shape, scale)
        return g.backward(g.weighted_sum(y, probe))

    g1, ga = run(1.0), run(alpha)
    for name in ("x", "w", "b"):
        npt.assert_allclose(ga[name], alpha * g1[name], rtol=1e-13)


def test_backward_requires_scalar_root():
    x = Param("x", np.ones((1, 1, 2, 2)))
    g = GradGraph()
    node = g.relu(g.leaf(x))
    with pytest.raises(ValueError):
        g.backward(node)


def test_unreachable_leaf_gets_zero_gradient():
    a = Param("a", np.ones((2, 2)))
    lonely = Param("lonely", np.ones(3))
    g = GradGraph()
    g.leaf(lonely)  # registered but never used by the loss
    loss = g.weighted_sum(g.leaf(a), np.ones((2, 2)))
    grads = g.backward(loss)
    npt.assert_array_equal(grads["lonely"], np.zeros(3))
    npt.assert_array_equal(grads["a"], np.ones((2, 2)))


def test_no_adjoint_writes_into_the_cotangent_it_is_given():
    # backward keeps each first cotangent as sent, and add sends its dy to
    # both inputs, so an adjoint that wrote into its dy would corrupt a sum
    cfg = dataclasses.replace(network.preset("micro"), stages=(
        network.StageSpec(1, 4, 1), network.StageSpec(1, 8, 2)))
    store = network.init_network(cfg)
    rng = np.random.default_rng(25)
    x = rng.standard_normal((2, *cfg.input_shape))
    extra = [Param(name, rng.standard_normal((1, 2, 4, 4))) for name in ("p", "q")]

    def build(g):
        _, loss = network.network_loss_graph(g, x, [0, 1], store, cfg, train=True,
                                             update_running=False)
        p, q = (g.leaf(param) for param in extra)
        pooled = g.maxpool(g.concat_channels(g.relu(p), g.sigmoid(q)), 2)
        return g.add(loss, g.weighted_sum(g.add(pooled, pooled), np.ones(pooled.shape)))

    g = GradGraph()
    root = build(g)
    labels = []
    for handle in g._tape:
        def checked(dy, send, backprop=handle._backprop, label=handle.label):
            before = np.array(dy, copy=True)
            backprop(dy, send)
            assert np.asarray(dy).tobytes() == before.tobytes(), label
            labels.append(label)
        handle._backprop = checked
    grads = g.backward(root)
    assert {"conv2d", "batchnorm2d", "relu", "sigmoid", "hadamard", "add", "maxpool", "concat",
            "global_avg_pool", "flatten", "linear", "softmax_cross_entropy",
            "weighted_sum"} <= set(labels)
    ref = GradGraph()
    want = ref.backward(build(ref))
    assert list(grads) == list(want)
    for name, grad in want.items():
        assert grads[name].tobytes() == grad.tobytes(), name


def test_frozen_leaves_are_not_reported():
    frozen = Param("frozen", np.ones(2), trainable=False)
    live = Param("live", np.ones(2))
    g = GradGraph()
    loss = g.weighted_sum(g.hadamard(g.leaf(frozen), g.leaf(live)), np.ones(2))
    grads = g.backward(loss)
    assert "frozen" not in grads and "live" in grads


def test_the_sink_gets_each_leaf_gradient_once_as_soon_as_it_is_final():
    rng = np.random.default_rng(4)
    early, w, a, b, lonely = (Param(name, rng.standard_normal((1, 2, 3, 3)))
                              for name in ("early", "w", "a", "b", "lonely"))
    probe = rng.standard_normal((1, 2, 3, 3))

    def build(g):
        e = g.leaf(early)                        # entered before an op that does not read it
        x = g.leaf(w)
        h = g.hadamard(g.relu(x), x)             # w is read by two ops
        la, lb = g.leaf(a), g.leaf(b)
        ha = g.hadamard(la, g.constant(probe))   # a's second contribution, swept last
        s = g.add(g.add(h, g.add(la, lb)), e)    # a and b get the same first cotangent
        s = g.add(s, ha)
        g.leaf(lonely)
        return g.weighted_sum(s, probe)

    ref = GradGraph()
    want = ref.backward(build(ref))
    events = []
    g = GradGraph(sink=lambda name, grad: events.append((name, grad)))
    loss = build(g)
    for handle in g._tape:
        def logged(dy, send, backprop=handle._backprop, label=handle.label):
            events.append((label, None))
            backprop(dy, send)
        handle._backprop = logged
    assert g.backward(loss) is None
    assert [e for e, grad in events] == [
        "weighted_sum", "lonely", "add", "add", "add", "add", "hadamard", "b", "a",
        "hadamard", "relu", "w", "early"]
    got = {name: grad for name, grad in events if grad is not None}
    assert list(want) == ["early", "w", "a", "b", "lonely"]
    for name, grad in want.items():
        assert got[name].tobytes() == grad.tobytes(), name
    npt.assert_array_equal(want["lonely"], 0.0)
    npt.assert_array_equal(want["b"], probe)
    npt.assert_array_equal(want["a"], probe + probe * probe)
    npt.assert_array_equal(want["early"], probe)
    npt.assert_allclose(want["w"], probe * (w.value > 0) * w.value + probe * np.maximum(w.value, 0))


def test_same_name_different_params_rejected():
    g = GradGraph()
    g.leaf(Param("x", np.ones(2)))
    with pytest.raises(ValueError):
        g.leaf(Param("x", np.ones(2)))


def test_every_forward_kernel_has_an_adjoint():
    # map each tensor-module kernel to the graph ops that differentiate it
    coverage = {
        "conv2d": (GradGraph.conv2d,),
        "batchnorm2d": (GradGraph.batchnorm2d,),
        "activation": (GradGraph.relu, GradGraph.sigmoid),
        "concat_channels": (GradGraph.concat_channels,),
        "hadamard": (GradGraph.hadamard,),
        "pool2d": (GradGraph.maxpool, GradGraph.global_avg_pool),
        "linear": (GradGraph.linear,),
        "softmax_cross_entropy": (GradGraph.softmax_cross_entropy,),
    }
    assert set(coverage) == set(FORWARD_KERNELS)
    for ops in coverage.values():
        for op in ops:
            assert callable(op)
    # and the finite-difference suite exercises every one of them
    checked = {name.split("[")[0] for name, _ in KERNEL_CHECKS}
    assert set(FORWARD_KERNELS) <= checked


def test_grad_check_quadratic_is_nearly_exact():
    rng = np.random.default_rng(4)
    x = Param("x", rng.standard_normal((2, 2)))

    def make_loss(g):
        n = g.leaf(x)
        return g.weighted_sum(g.hadamard(n, n), np.ones((2, 2)))

    report = grad_check(make_loss, [x])
    assert report.max_error < 1e-9
    assert report.checked == 4


def test_grad_check_softmax_cross_entropy():
    rng = np.random.default_rng(5)
    logits = Param("logits", rng.standard_normal((2, 7)))
    labels = np.array([2, 5])

    def make_loss(g):
        return g.softmax_cross_entropy(g.leaf(logits), labels)

    assert grad_check(make_loss, [logits]).max_error < 1e-6


def test_grad_check_honors_selection_mask():
    x = Param("x", np.array([0.0, 1.0, -1.0, 0.05]))
    probe = np.ones(4)

    def make_loss(g):
        # reshape through a 4d view so relu applies
        n = g.leaf(x)
        return g.weighted_sum(n, probe)

    report = grad_check(make_loss, [x], select={"x": np.abs(x.value) > 0.1})
    assert report.checked == 2  # only the entries the mask admits


def test_grad_check_max_entries_subsamples():
    rng = np.random.default_rng(6)
    x = Param("x", rng.standard_normal(50))

    def make_loss(g):
        return g.weighted_sum(g.leaf(x), np.ones(50))

    report = grad_check(make_loss, [x], max_entries=7)
    assert report.checked == 7


def test_grad_check_fails_on_non_finite_gradient():
    # a NaN compares False against any running maximum; it must still fail the check
    x = Param("x", np.array([0.5, -1.0, 2.0]))
    probe = np.array([1.0, np.nan, 1.0])

    def make_loss(g):
        return g.weighted_sum(g.leaf(x), probe)

    report = grad_check(make_loss, [x])
    assert report.checked == 3
    assert report.max_error == math.inf


def test_grad_check_names_a_param_the_loss_never_enters():
    x = Param("x", np.array([0.5, -1.0, 2.0]))
    y = Param("y", np.array([1.0, 2.0]))
    frozen = Param("frozen", np.array([3.0]), trainable=False)

    def make_loss(g):
        return g.weighted_sum(g.leaf(x), np.ones(3))

    assert grad_check(make_loss, [x, frozen]).checked == 3
    with pytest.raises(ValueError, match="'y'"):
        grad_check(make_loss, [x, y])


def plain_grad_check(make_loss, params, eps=1e-5, max_entries=None, rng=None):
    """Central differences with every re-evaluation on a fresh ``GradGraph(record=False)``."""
    g = GradGraph()
    analytic = g.backward(make_loss(g))
    rng = np.random.default_rng(0) if rng is None else rng
    report = autodiff.GradCheckReport()
    for param in params:
        if not param.trainable:
            continue
        grad = analytic[param.name].reshape(-1)
        indices = np.arange(param.value.size)
        if max_entries is not None and indices.size > max_entries:
            indices = rng.choice(indices, size=max_entries, replace=False)
        for idx in indices:
            at = np.unravel_index(idx, param.value.shape)
            saved = param.value[at]
            param.value[at] = saved + eps
            up = float(make_loss(GradGraph(record=False)).value)
            param.value[at] = saved - eps
            down = float(make_loss(GradGraph(record=False)).value)
            param.value[at] = saved
            report.checked += 1
            report.max_error = max(report.max_error,
                                   relative_error(float(grad[idx]), (up - down) / (2.0 * eps)))
    return report


def projected_config():
    """micro plus a downsampling module, so a shortcut and an align conv are built too."""
    return dataclasses.replace(network.preset("micro"), stages=(
        network.StageSpec(1, 4, 1), network.StageSpec(1, 8, 2)))


def micro_loss(seed, cfg=None):
    cfg = network.preset("micro") if cfg is None else cfg
    store = network.init_network(cfg)
    x = np.random.default_rng(seed).standard_normal((2, *cfg.input_shape))

    def make_loss(g):
        return network.network_loss_graph(g, x, [0, 1], store, cfg, train=True,
                                          update_running=False)[1]

    return make_loss, store


def raw_array_loss(seed):
    # w is first read as a constant over its own array, u as weighted_sum's
    # weights and v, a param over a view of w, through that same constant;
    # each enters as a leaf only later. A replay that missed any of these
    # first reads would reuse a stale value. The tape sees only the leaves,
    # so their numeric gradients exceed their tape ones; with a, the probe
    # and so every path's slope positive, their relative errors stay below 1
    # and move with each path.
    rng = np.random.default_rng(seed)
    a = Param("a", 0.5 + rng.random((1, 2, 3, 3)))
    w = Param("w", rng.standard_normal((1, 2, 3, 3)))
    v = Param("v", w.value[:, :1])
    probe = 0.5 + rng.random((1, 2, 3, 3))
    u = Param("u", rng.standard_normal((1, 2, 3, 3)))

    def make_loss(g):
        la = g.leaf(a)
        through_constant = g.weighted_sum(g.hadamard(la, g.constant(w.value)), probe)
        as_weights = g.weighted_sum(g.sigmoid(la), u.value)
        leaves = g.add(g.add(g.weighted_sum(g.leaf(w), probe), g.weighted_sum(g.leaf(u), probe)),
                       g.weighted_sum(g.leaf(v), probe[:, :1]))
        return g.add(g.add(through_constant, as_weights), leaves)

    return make_loss, [a, w, v, u]


@pytest.mark.parametrize("case", ["micro", "projected", "raw_arrays"])
def test_grad_check_matches_fresh_graphs_bit_for_bit(case):
    if case != "raw_arrays":
        make_loss, store = micro_loss(24, projected_config() if case == "projected" else None)
        params, max_entries = store.trainable(), 3
    else:
        (make_loss, params), max_entries = raw_array_loss(25), None
    # one param at a time, so no param's error can hide a stale value in another's
    for param in params:
        want = plain_grad_check(make_loss, [param], max_entries=max_entries,
                                rng=np.random.default_rng(26))
        got = grad_check(make_loss, [param], max_entries=max_entries,
                         rng=np.random.default_rng(26))
        assert got.checked > 0 and got == want, param.name


def spy_ops(monkeypatch):
    """Log ``(graph, op name)`` for every ``GradGraph`` op that runs."""
    ran = []
    for name in autodiff._OPS:
        op = getattr(GradGraph, name)
        monkeypatch.setattr(GradGraph, name, lambda g, *args, name=name, op=op, **kwargs:
                            ran.append((g, name)) or op(g, *args, **kwargs))
    return ran


def ops_per_graph(ran, make_loss, param):
    """The ops each graph of a one-entry ``grad_check`` of ``param`` ran, in graph order."""
    ran.clear()
    report = grad_check(make_loss, [param], max_entries=1)
    assert report.checked == 1 and report.max_error < 1e-4
    graphs = list(dict.fromkeys(g for g, _ in ran))  # in the order they ran an op
    return [[op for g, op in ran if g is graph] for graph in graphs]


def test_grad_check_reruns_only_the_ops_a_nudge_reaches(monkeypatch):
    make_loss, store = micro_loss(27)
    ran = spy_ops(monkeypatch)
    # the taped graph, which keeps the outputs, then two re-evaluations
    taped, *nudged = ops_per_graph(ran, make_loss, store["head.weight"])
    assert taped[0] == "conv2d" and len(taped) > 10
    assert nudged == [["linear", "softmax_cross_entropy"]] * 2
    assert ops_per_graph(ran, make_loss, store["stem.conv.weight"]) == [taped] * 3


def test_a_nudge_reruns_every_op_from_its_params_first_read(monkeypatch):
    make_loss, store = micro_loss(31, projected_config())
    ran = spy_ops(monkeypatch)
    taped, *nudged = ops_per_graph(ran, make_loss, store["s1b0.conv1.weight"])
    rerun = taped[len(taped) - len(nudged[0]):]
    assert nudged == [rerun] * 2
    # the re-runs start at the fifth conv, the downsampling module's conv1
    # (after the stem's and the first module's conv1, conv2 and gate), and
    # take in its shortcut and align convs, which read only the module's input
    assert taped[:len(taped) - len(rerun)].count("conv2d") == 4
    assert rerun[:3] == ["conv2d", "batchnorm2d", "relu"] and rerun.count("conv2d") == 5
    assert rerun[-2:] == ["linear", "softmax_cross_entropy"]


@pytest.mark.parametrize("change", ["inserted", "trailing", "reshaped"])
def test_grad_check_rejects_a_loss_that_changes_its_ops(change):
    value = np.random.default_rng(28).standard_normal((1, 2, 3, 3))
    x = Param("x", value.copy())
    built = []

    def make_loss(g):
        built.append(g)
        y = g.leaf(x)
        if len(built) > 1 and change == "inserted":
            y = g.relu(y)
        if len(built) > 1 and change == "reshaped":
            y = g.constant(x.value[:, :1])  # a view of x, so the sigmoid runs again
        loss = ones_probe(g, g.sigmoid(y))
        if len(built) == 1 and change == "trailing":
            g.relu(y)  # only the unperturbed forward runs a third op
        return loss

    match = {"inserted": "op 0 is relu", "trailing": "ended after op 2",
             "reshaped": r"op 0 \(sigmoid\) has shape \(1, 1, 3, 3\)"}[change]
    with pytest.raises(RuntimeError, match=match):
        grad_check(make_loss, [x])
    assert x.value.tobytes() == value.tobytes()  # the nudged entry is put back


def test_grad_check_nudges_a_transposed_param_in_place():
    a = np.random.default_rng(29).standard_normal((3, 4))
    before = a.copy()
    x = Param("x", a.T)
    assert x.value.base is a and not x.value.flags.c_contiguous
    probe = np.random.default_rng(30).standard_normal((4, 3))
    report = grad_check(lambda g: g.weighted_sum(g.hadamard(g.leaf(x), g.leaf(x)), probe), [x])
    assert report.checked == 12 and report.max_error < 1e-8
    assert x.value.base is a and a.tobytes() == before.tobytes()


def test_kernel_suite_checks_every_entry_it_draws():
    # a check that silently drops a param (or a mask that admits too few
    # entries) shows up here as a smaller count
    assert {name: report.checked for name, report in run_suite("ops")} == {
        "conv2d": 206,
        "batchnorm2d[train]": 102,
        "batchnorm2d[eval]": 102,
        "activation[relu]": 87,
        "activation[sigmoid]": 96,
        "concat_channels": 90,
        "hadamard": 192,
        "pool2d[max]": 144,
        "pool2d[global_avg]": 120,
        "linear": 28,
        "softmax_cross_entropy": 14,
        "attention_gate": 110,
    }


def test_relu_gradient_zero_at_origin_convention():
    x = Param("x", np.array([[[[0.0, -1.0, 2.0]]]]))
    g = GradGraph()
    loss = ones_probe(g, g.relu(g.leaf(x)))
    grads = g.backward(loss)
    npt.assert_array_equal(grads["x"][0, 0, 0], [0.0, 0.0, 1.0])


def test_conv_adjoint_against_finite_differences_strided():
    rng = np.random.default_rng(7)
    spec = ConvSpec(2, 2, 3, 3, stride=2, padding=1, has_bias=True)
    x = Param("x", rng.standard_normal((1, 2, 6, 6)))
    w = Param("w", rng.standard_normal(spec.weight_shape) * 0.5)
    b = Param("b", rng.standard_normal(2) * 0.1)
    probe = rng.standard_normal(tensor.conv2d(x.value, w.value, b.value, spec).shape)

    def make_loss(g):
        return g.weighted_sum(g.conv2d(g.leaf(x), g.leaf(w), g.leaf(b), spec), probe)

    assert grad_check(make_loss, [x, w, b]).max_error < 1e-6


# (batch, in, out, kernel, padding, stride, bias, h, w): shapes on each side of
# the conv layout rule in ``tensor``
CONV_CASES = [
    (1, 64, 2, 3, 1, 1, True, 6, 7),    # taps
    (2, 64, 1, 5, 2, 1, False, 5, 8),   # taps, batched
    (2, 3, 2, 3, 0, 1, True, 9, 6),     # narrow: taps
    (2, 6, 1, 5, 0, 1, False, 9, 11),   # narrow: taps
    (2, 64, 2, 5, 1, 1, True, 8, 6),    # map small for the kernel: im2col
    (1, 4, 8, 3, 1, 1, False, 4, 5),    # map small for the out channels: im2col
    (1, 1, 12, 3, 1, 1, True, 12, 11),  # fewer column rows than out channels: im2col
    (2, 3, 2, 3, 1, 2, True, 13, 10),   # stride 2, on a map taps would take: im2col
    (3, 4, 3, 1, 0, 1, True, 5, 6),     # 1x1: im2col
    (1, 64, 4, 1, 2, 2, False, 6, 5),   # 1x1, stride 2: im2col
    (1, 64, 2, 3, 3, 1, True, 6, 7),    # padding not below the kernel: im2col
]


def conv_case(case, seed):
    n, c, o, k, padding, stride, has_bias, h, w = case
    spec = ConvSpec(o, c, k, k, stride=stride, padding=padding, has_bias=has_bias)
    rng = np.random.default_rng(seed)
    x = Param("x", rng.standard_normal((n, c, h, w)))
    weight = Param("w", rng.standard_normal(spec.weight_shape) * 0.5)
    bias = Param("b", rng.standard_normal(o) * 0.1) if has_bias else None
    return spec, x, weight, bias


def layouts(spec, x):
    """The layout the forward and both adjoint halves of this conv run in."""
    oh, ow = tensor.conv_output_hw(spec, *x.value.shape[2:])
    return "taps" if tensor._on_taps(spec, oh, ow) else "im2col"


def test_conv_cases_cover_every_layout_pair():
    picks = {layouts(*conv_case(case, 0)[:2]) for case in CONV_CASES}
    assert picks == {"taps", "im2col"}


@pytest.mark.parametrize("case", CONV_CASES)
def test_conv_layouts_against_oracle_and_finite_differences(case):
    spec, x, weight, bias = conv_case(case, 20)
    params = [x, weight] + ([bias] if bias is not None else [])
    bias_value = None if bias is None else bias.value
    out = tensor.conv2d(x.value, weight.value, bias_value, spec)
    want = oracles.conv2d_naive(x.value, weight.value, bias_value, spec.stride, spec.padding)
    npt.assert_allclose(out, want, rtol=1e-12, atol=1e-12)
    probe = np.random.default_rng(21).standard_normal(out.shape)

    def make_loss(g):
        b = None if bias is None else g.leaf(bias)
        return g.weighted_sum(g.conv2d(g.leaf(x), g.leaf(weight), b, spec), probe)

    report = grad_check(make_loss, params, max_entries=12, rng=np.random.default_rng(22))
    assert report.checked == sum(min(12, p.value.size) for p in params)
    assert report.max_error < 1e-6
    if spec.stride == 1 and spec.kernel_h > 1 and spec.padding < spec.kernel_h:
        # both layouts can run: they agree, dx on taps as the transposed conv
        xv, wv, dy = x.value, weight.value, probe
        (oh, ow), (h, w) = out.shape[2:], xv.shape[2:]
        for taps, im2col in [(tensor._tap_forward(xv, wv, spec, oh, ow),
                              tensor._im2col_forward(xv, wv, spec, oh, ow)),
                             (tensor._tap_weight_grad(xv, dy, spec),
                              tensor._im2col_weight_grad(xv, dy, spec)),
                             (tensor._tap_forward(dy, *tensor._transposed(wv, spec), h, w),
                              tensor._im2col_input_grad(wv, dy, spec, h, w))]:
            npt.assert_allclose(taps, im2col, rtol=1e-12, atol=1e-12)


def test_tap_adjoint_skips_a_frozen_weight_and_a_constant_input(monkeypatch):
    spec, x, weight, bias = conv_case(CONV_CASES[0], 23)
    assert layouts(spec, x) == "taps"
    # each tap kernel call with the spec it ran for: the forward and the input
    # gradient both run _tap_forward, the latter on the transposed conv
    transposed = tensor._transposed(weight.value, spec)[1]
    calls = []
    for name in ("_tap_forward", "_tap_weight_grad"):
        kernel = getattr(tensor, name)
        monkeypatch.setattr(tensor, name, lambda *a, name=name, kernel=kernel:
                            calls.append((name, a[2])) or kernel(*a))
    weight.trainable = False

    def grads(image):
        calls.clear()
        g = GradGraph()
        x_node = g.constant(x.value) if image else g.leaf(x)
        conv = g.conv2d(x_node, g.leaf(weight), g.leaf(bias), spec)
        return g.backward(g.weighted_sum(conv, np.ones(conv.shape)))

    forward = ("_tap_forward", spec)
    assert set(grads(image=True)) == {"b"} and calls == [forward]
    assert set(grads(image=False)) == {"b", "x"} and calls == [forward, ("_tap_forward", transposed)]
    weight.trainable = True
    assert set(grads(image=True)) == {"b", "w"} and calls == [forward, ("_tap_weight_grad", spec)]


def test_maxpool_overlapping_adjoint():
    # overlapping windows route gradient to the same winner multiple times
    rng = np.random.default_rng(8)
    vals = rng.permutation(16).astype(float).reshape(1, 1, 4, 4)
    x = Param("x", vals)
    g = GradGraph()
    loss = ones_probe(g, g.maxpool(g.leaf(x), window=3, stride=1))
    grads = g.backward(loss)
    # the global max (value 15) wins every window it appears in
    total_windows = 4  # 2x2 output positions
    assert grads["x"].sum() == total_windows
    winner = np.unravel_index(np.argmax(vals), vals.shape)
    assert grads["x"][winner] >= 1


def test_eval_batchnorm_treats_running_stats_as_constants():
    rng = np.random.default_rng(9)
    x = Param("x", rng.standard_normal((2, 2, 3, 3)))
    gamma = Param("gamma", np.array([1.5, 0.5]))
    beta = Param("beta", np.zeros(2))
    running_mean, running_var = np.array([0.3, -0.2]), np.array([1.2, 0.7])
    g = GradGraph()
    y = g.batchnorm2d(g.leaf(x), g.leaf(gamma), g.leaf(beta), running_mean, running_var,
                      train=False)
    grads = g.backward(ones_probe(g, y))
    inv = 1.0 / np.sqrt(running_var + 1e-5)
    expected = np.broadcast_to((gamma.value * inv)[None, :, None, None], x.value.shape)
    npt.assert_allclose(grads["x"], expected, atol=1e-12)


def test_eval_batchnorm_adjoint_reads_the_stats_its_forward_used():
    rng = np.random.default_rng(21)
    x = Param("x", rng.standard_normal((2, 2, 3, 3)))
    gamma = Param("gamma", np.array([1.5, 0.5]))
    beta = Param("beta", np.zeros(2))
    used_mean, used_var = np.array([0.3, -0.2]), np.array([1.2, 0.7])
    running_mean, running_var = used_mean.copy(), used_var.copy()
    g = GradGraph()
    y = g.batchnorm2d(g.leaf(x), g.leaf(gamma), g.leaf(beta), running_mean, running_var,
                      train=False)
    loss = ones_probe(g, y)
    running_mean += 5.0  # in place, as a train-mode forward updates them
    running_var *= 3.0
    grads = g.backward(loss)
    inv = 1.0 / np.sqrt(used_var + 1e-5)
    npt.assert_allclose(grads["x"], np.broadcast_to(
        (gamma.value * inv)[None, :, None, None], x.value.shape), atol=1e-12)
    xhat = (x.value - used_mean[None, :, None, None]) * inv[None, :, None, None]
    npt.assert_allclose(grads["gamma"], xhat.sum(axis=(0, 2, 3)), atol=1e-12)


@pytest.mark.parametrize("train", [True, False])
@pytest.mark.parametrize("shape", [(4, 3, 5, 5), (2, 5, 7, 3)])
def test_batchnorm_adjoint_matches_the_textbook_formula(train, shape):
    # channel 0 has a zero gamma, channel 1 is near constant (var << eps)
    rng = np.random.default_rng(26)
    xv = rng.standard_normal(shape) * 2.0 + 0.5
    xv[:, 1] = 3.0 + 1e-7 * rng.standard_normal(xv[:, 1].shape)
    gv = rng.standard_normal(shape[1])
    gv[0] = 0.0
    x, gamma = Param("x", xv), Param("gamma", gv)
    beta = Param("beta", rng.standard_normal(shape[1]))
    running_mean, running_var = rng.standard_normal(shape[1]), rng.uniform(0.5, 2.0, shape[1])
    mean, var = tensor.batch_moments(xv) if train else (running_mean.copy(), running_var.copy())
    dy = rng.standard_normal(shape)
    g = GradGraph()
    y = g.batchnorm2d(g.leaf(x), g.leaf(gamma), g.leaf(beta), running_mean, running_var,
                      train=train, update_running=False)
    grads = g.backward(g.weighted_sum(y, dy))
    want = oracles.batchnorm_adjoint_naive(xv, gv, dy, mean, var, tensor.BN_EPS, train)
    for name, ref in zip(("x", "gamma", "beta"), want):
        npt.assert_allclose(grads[name], ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max(),
                            err_msg=name)
    assert not grads["x"][:, 0].any()


def test_graph_batchnorm_rejects_what_the_kernel_rejects():
    g = GradGraph()
    x = g.constant(np.zeros((2, 3, 2, 2)))
    with pytest.raises(DimensionError) as e:  # would broadcast if unchecked
        g.batchnorm2d(x, g.constant(np.ones(1)), g.constant(np.zeros(3)),
                      np.zeros(3), np.ones(3), train=True)
    assert e.value.axis == "channels"
    with pytest.raises(ValueError):
        g.batchnorm2d(g.constant(np.zeros((1, 3, 1, 1))), g.constant(np.ones(3)),
                      g.constant(np.zeros(3)), np.zeros(3), np.ones(3), train=True)


def test_tape_is_freed_by_reference_counting():
    cfg = network.preset("micro")
    store = network.init_network(cfg)
    x = np.random.default_rng(10).standard_normal((2, *cfg.input_shape))
    gc.disable()
    try:
        g = GradGraph()
        logits, loss = network.network_loss_graph(g, x, [0, 1], store, cfg, train=True)
        g.backward(loss)
        alive = weakref.ref(g)
        del g, logits, loss
        assert alive() is None  # no gc.collect(): nothing may keep the tape in a cycle
    finally:
        gc.enable()


def test_backward_frees_each_adjoints_arrays_as_it_sweeps():
    # 40 ReLUs on a 1 MiB map: each adjoint keeps its own output, 40 MiB in all
    mib = 1 << 20
    x = Param("x", np.random.default_rng(11).standard_normal((1, 1, 256, 512)))
    probe = np.ones_like(x.value)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        g = GradGraph()
        y = g.leaf(x)
        for _ in range(40):
            y = g.relu(y)
        root = g.weighted_sum(y, probe)
        del y
        taped = tracemalloc.get_traced_memory()[0] - before
        grads = g.backward(root)
        left = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert taped > 40 * mib
    # the graph and its root are still referenced, yet only the gradient is left
    assert len(g._tape) == 41 and root.handle is not None
    assert grads["x"].nbytes == mib and left < 2 * mib


def test_a_graph_can_be_backpropagated_once():
    x = Param("x", np.random.default_rng(12).standard_normal((1, 2, 3, 3)))
    g = GradGraph()
    root = ones_probe(g, g.relu(g.leaf(x)))
    npt.assert_array_equal(g.backward(root)["x"], x.value > 0)
    with pytest.raises(RuntimeError, match="already ran on this graph"):
        g.backward(root)


def test_tape_keeps_only_what_an_adjoint_reads(monkeypatch, module_spy):
    cfg = projected_config()  # so a shortcut batch norm is built too
    store = network.init_network(cfg)
    x = np.random.default_rng(16).standard_normal((2, *cfg.input_shape))
    made = {}  # what made an output -> weak references to the output values

    def spy(owner, name, when=lambda *args: True):
        fn = getattr(owner, name)

        def logged(*args, **kwargs):
            out = fn(*args, **kwargs)
            if when(*args):
                made.setdefault(name, []).append(weakref.ref(getattr(out, "value", out)))
            return out

        monkeypatch.setattr(owner, name, logged)

    for owner, name in ((GradGraph, "batchnorm2d"), (GradGraph, "add"),
                        (tensor, "concat_channels")):
        spy(owner, name)
    # only the gate convs, the ones given a pair: a backbone conv output is
    # read by its batch norm's adjoint and stays alive
    spy(GradGraph, "conv2d", when=lambda graph, x, *rest: isinstance(x, tuple))

    def forward(g):
        return network.network_loss_graph(g, x, [0, 1], store, cfg, train=True,
                                          update_running=False)

    g = GradGraph()
    gc.disable()  # only reference counting may free a value
    try:
        logits, loss = forward(g)
        # the tape is alive: the outputs no adjoint reads are not. They are
        # every batch-norm output (stem, bn1, bn2, shortcut), both residual
        # sums and both pre-sigmoid gate outputs; no gate forms a concat
        assert {k: len(v) for k, v in made.items()} == {"batchnorm2d": 6, "add": 2, "conv2d": 2}
        assert [k for k, refs in made.items() if any(r() is not None for r in refs)] == []
        # each module's input, f_pre, f_cur, mask and output are alive too (the
        # spy holds them), and so are the logits, as in train_step
        assert len(module_spy.modules) == 2
        assert logits.value.shape == (2, cfg.num_classes)
    finally:
        gc.enable()
    assert set(g.backward(loss)) == {p.name for p in store.trainable()}
    # grad_check's taped graph keeps every output on purpose; its gradients
    # still match central differences through the same spies
    report = grad_check(lambda g: forward(g)[1], store.trainable(), max_entries=4)
    assert report.checked > 0 and report.max_error < 1e-4


def test_gate_conv_runs_through_the_one_conv_op(monkeypatch):
    cfg = network.preset("micro")
    store = network.init_network(cfg)
    x = np.random.default_rng(22).standard_normal((2, *cfg.input_shape))
    conv = GradGraph.conv2d
    inputs = []
    monkeypatch.setattr(GradGraph, "conv2d",
                        lambda graph, x, *rest: inputs.append(x) or conv(graph, x, *rest))
    network.network_forward_graph(GradGraph(), x, store, cfg, train=True)
    # stem, the module's two convs, and the gate, which is given the pair (F_pre, F_cur)
    assert len(inputs) == 4
    assert [type(v) for v in inputs].count(tuple) == 1
    assert not hasattr(GradGraph, "concat_conv2d")


@pytest.mark.parametrize("cfg, layout", [
    (network.preset("tiny"), "taps"),
    # a 3x3 gate on a small, wide map, as resnet18's stage 3 at 112 px
    (network.NetworkConfig(input_shape=(3, 6, 6), stem_channels=4,
                           stages=(network.StageSpec(1, 16, 1),)), "im2col"),
    (network.preset("micro", attention_kernel=1), "im2col"),
])
def test_no_gate_forms_a_concat(monkeypatch, cfg, layout):
    store = network.init_network(cfg)
    x = np.random.default_rng(24).standard_normal((2, *cfg.input_shape))
    calls = []  # (kernel, layout) of each call given a pair, and every concat
    for name in ("concat_channels", "conv2d", "conv2d_weight_grad"):
        kernel = getattr(tensor, name)

        def logged(*a, name=name, kernel=kernel):
            if name == "concat_channels":
                calls.append((name, None))
            elif isinstance(a[0], tuple):
                spec, (h, w) = a[-1], a[0][0].shape[2:]
                calls.append((name, "taps" if tensor._on_taps(spec, h, w) else "im2col"))
            return kernel(*a)

        monkeypatch.setattr(tensor, name, logged)
    g = GradGraph()
    _, loss = network.network_loss_graph(g, x, [0, 1], store, cfg, train=True,
                                         update_running=False)
    grads = g.backward(loss)
    # each gate's forward and dW read the pair (F_pre, F_cur) itself
    gates = len(network.module_plan(cfg))
    assert calls == [("conv2d", layout)] * gates + [("conv2d_weight_grad", layout)] * gates
    for plan in network.module_plan(cfg):
        assert np.abs(grads[f"{plan.layers['gate'].prefix}.weight"]).sum() > 0


def test_train_batchnorm_takes_its_moments_once_a_step(monkeypatch):
    cfg = network.preset("micro")
    store = network.init_network(cfg)
    x = np.random.default_rng(23).standard_normal((2, *cfg.input_shape))
    calls = {"batch_moments": 0, "batchnorm2d": 0}

    def count(owner, name):
        fn = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count(tensor, "batch_moments")
    count(GradGraph, "batchnorm2d")
    g = GradGraph()
    _, loss = network.network_loss_graph(g, x, [0, 1], store, cfg, train=True)
    g.backward(loss)
    assert calls["batchnorm2d"] == 3  # the stem's and the module's two
    assert calls["batch_moments"] == calls["batchnorm2d"]


def test_relu_adjoint_masks_like_its_input_on_special_values():
    tiny = np.finfo(np.float64).tiny
    v = np.array([np.nan, -np.nan, 0.0, -0.0, 5e-324, -5e-324, tiny / 2, -tiny / 2,
                  np.inf, -np.inf, 1.0, -1.0])
    x = Param("x", v.reshape(1, 1, 3, 4))
    probe = np.random.default_rng(17).standard_normal(x.value.shape)
    g = GradGraph()
    with np.errstate(invalid="ignore"):
        grads = g.backward(g.weighted_sum(g.relu(g.leaf(x)), probe))
    positive = x.value > 0
    npt.assert_array_equal(positive.reshape(-1), [0, 0, 0, 0, 1, 0, 1, 0, 1, 0, 1, 0])
    npt.assert_array_equal(tensor.activation(x.value, "relu") > 0, positive)
    assert grads["x"].tobytes() == (probe * positive).tobytes()


def test_backward_frees_each_cotangent_once_used():
    # 40 chained ops on a ~1 MB map: keeping every cotangent would peak near 40 MB
    x = Param("x", np.random.default_rng(11).standard_normal((1, 1, 362, 362)))
    g = GradGraph()
    y = g.leaf(x)
    for _ in range(40):
        y = g.relu(y)
    loss = ones_probe(g, y)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        g.backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - before) / 2 ** 20 < 10


def spy_graphs(monkeypatch, module, name="GradGraph"):
    """Log every graph that ``module`` creates through its class ``name``."""
    made = []

    class Spy(getattr(module, name)):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(module, name, Spy)
    return made


def test_inference_records_no_tape(monkeypatch, module_spy):
    cfg = network.preset("tiny")
    store = network.init_network(cfg)
    x = np.random.default_rng(12).standard_normal((2, 3, 16, 16))
    recorded = network.network_forward_graph(GradGraph(), x, store, cfg, train=False)
    recorded_modules = list(module_spy.modules)
    made = spy_graphs(monkeypatch, network)
    logits = network.network_forward(x, store, cfg)
    assert [g._tape for g in made] == [[]]
    npt.assert_array_equal(logits, recorded.value)
    g = GradGraph(record=False)
    module_spy.modules.clear()
    out = network.network_forward_graph(g, x, store, cfg, train=False)
    assert g._tape == []
    for mod, ref in zip(module_spy.modules, recorded_modules, strict=True):
        npt.assert_array_equal(mod.mask.value, ref.mask.value)
    with pytest.raises(RuntimeError):
        g.backward(ones_probe(g, out))
    made = spy_graphs(monkeypatch, attention)
    gate = make_gate(1, 3, np.random.default_rng(0))
    attention.attention_forward(x[:, :1], x[:, 1:2], *gate)
    assert [g._tape for g in made] == [[]]


def test_grad_check_reevaluates_without_a_tape(monkeypatch):
    x = Param("x", np.random.default_rng(13).standard_normal((1, 2, 3, 3)))
    taped = spy_graphs(monkeypatch, autodiff)
    replays = spy_graphs(monkeypatch, autodiff, "_Replay")
    built = []
    report = grad_check(lambda g: built.append(g) or ones_probe(g, g.relu(g.leaf(x))), [x])
    # make_loss builds once on the one graph that records, for the gradients,
    # and keeps the unperturbed outputs; then once for each of the two
    # re-evaluations of each entry, which record nothing
    assert report.checked == 18 and taped == [] and built == replays
    assert len(replays) == 1 + 2 * 18
    kept, *nudged = replays
    assert kept.record and [op for op, _, _ in kept._outputs] == ["relu", "weighted_sum"]
    assert all(not g.record and g._tape == [] for g in nudged)


def test_the_replay_covers_every_op_of_the_graph():
    ops = {name for name, fn in vars(GradGraph).items()
           if callable(fn) and not name.startswith("_")} - {"leaf", "constant", "backward"}
    assert ops == set(autodiff._OPS)


def log_sends(graph):
    """Wrap each adjoint on the tape so every input it sends a cotangent to is logged."""
    sent = []
    for handle in graph._tape:
        def logged(dy, send, backprop=handle._backprop):
            backprop(dy, lambda parent, grad: (sent.append(parent), send(parent, grad)))
        handle._backprop = logged
    return sent


def test_frozen_gate_backward_skips_unneeded_gradients(monkeypatch):
    cfg = network.preset("micro", attention="frozen")
    store = network.init_network(cfg)
    x = np.random.default_rng(14).standard_normal((2, *cfg.input_shape))
    gate = [p for p in store if ".attn." in p.name]
    weight_grad = tensor.conv2d_weight_grad

    def run():
        g = GradGraph()
        constants = []
        g.constant = lambda value, make=g.constant: constants.append(make(value)) or constants[-1]
        _, loss = network.network_loss_graph(g, x, [0, 1], store, cfg, train=True,
                                             update_running=False)
        image, = constants  # the image batch, the one constant the forward enters
        npt.assert_array_equal(image.value, x)
        sent = log_sends(g)
        dw_channels = []  # input channels of each conv weight gradient the adjoints form
        with monkeypatch.context() as m:
            m.setattr(tensor, "conv2d_weight_grad",
                      lambda v, *a: dw_channels.append(tensor._conv_input_shape(v)[1])
                      or weight_grad(v, *a))
            grads = g.backward(loss)
        return grads, sent, dw_channels, image, [g.leaf(p) for p in gate]

    grads, sent, dw_channels, image, gate_leaves = run()
    # the gate conv takes 2C = 8 channels: its weight gradient is never formed
    assert dw_channels == [4, 4, 3]
    assert all(isinstance(parent, autodiff.Handle) for parent in sent)
    assert not any(parent is node.handle for parent in sent for node in [image, *gate_leaves])
    # the same step with the gate trainable computes the very same other gradients
    for p in gate:
        p.trainable = True
    try:
        full, *_ = run()
    finally:
        for p in gate:
            p.trainable = False
    assert set(full) - set(grads) == {p.name for p in gate}
    for name, grad in grads.items():
        npt.assert_array_equal(grad, full[name])


def test_eval_forward_holds_only_the_last_modules_maps(monkeypatch):
    cfg = network.preset("tiny")
    store = network.init_network(cfg)
    x = np.random.default_rng(25).standard_normal((2, *cfg.input_shape))
    made = {}  # what made an output -> weak references to the output values
    alive = {}  # the same, as the head's linear runs: which values are still alive

    def spy(name):
        fn = getattr(GradGraph, name)

        def logged(*args, **kwargs):
            out = fn(*args, **kwargs)
            made.setdefault(name, []).append(weakref.ref(out.value))
            return out

        monkeypatch.setattr(GradGraph, name, logged)

    # relu: the stem's, then each module's conv1 and f_cur; sigmoid: each
    # module's mask; hadamard: each module's output
    for name in ("relu", "sigmoid", "hadamard"):
        spy(name)
    linear = GradGraph.linear

    def head(graph, *args):
        alive.update({k: [r() is not None for r in refs] for k, refs in made.items()})
        return linear(graph, *args)

    monkeypatch.setattr(GradGraph, "linear", head)
    gc.disable()  # only reference counting may free a value
    try:
        network.network_forward(x, store, cfg)
    finally:
        gc.enable()
    assert {k: len(v) for k, v in alive.items()} == {"relu": 5, "sigmoid": 2, "hadamard": 2}
    # nothing of the stem or of module 0 is alive; the last output feeds the head
    assert alive["relu"][:3] == [False] * 3
    assert alive["sigmoid"][0] is False and alive["hadamard"] == [False, True]


def test_tencrop_forward_holds_no_tape():
    # eight modules on ten 28 px crops: keeping the tape through the forward
    # peaks near 56 MB; holding one module's maps at a time, it peaks near 4 MB
    cfg = network.NetworkConfig(input_shape=(3, 28, 28), stem_channels=8,
                                stages=(network.StageSpec(8, 8, 1),))
    store = network.init_network(cfg)
    crops = np.random.default_rng(15).standard_normal((10, 3, 28, 28))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        network.network_forward(crops, store, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - before) / 2 ** 20 < 35


def test_relative_error_denominator_floor():
    assert relative_error(0.0, 0.0) == 0.0
    assert relative_error(1e-15, 0.0) == pytest.approx(1e-3)
    # anything not finite is an infinite error, never a pass
    assert relative_error(np.nan, 1.0) == math.inf
    assert relative_error(1.0, np.nan) == math.inf
    assert relative_error(math.inf, 1.0) == math.inf
    assert relative_error(-math.inf, -math.inf) == math.inf
