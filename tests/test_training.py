"""Optimizer mechanics, epoch loops, and evaluation behaviour."""

import gc
import io
import json
import math
import tracemalloc
import weakref

import numpy as np
import numpy.testing as npt
import pytest

import oracles
from llanet import autodiff, data, tensor, training
from llanet.autodiff import Param
from llanet.data import Image, SampleRecord
from llanet.network import init_network, network_forward, preset
from llanet.training import (AugmentConfig, DivergenceError, LoadedDataset, Normalization,
                             OptimizerState, TrainConfig, evaluate, fit, lr_at_epoch, sgd_step,
                             train_epoch)
from llanet.network import ParamStore


def store_with(*params):
    store = ParamStore()
    for p in params:
        store.add(p)
    return store


def grads_for(store, **named):
    g = {}
    for name, val in named.items():
        g[name] = np.asarray(val, dtype=float)
    return g


# -- learning-rate schedule -------------------------------------------------------


def test_lr_flat_then_exponential():
    cfg = TrainConfig(base_lr=0.01, decay_start_epoch=60, decay_rate=0.9)
    assert lr_at_epoch(0, cfg) == 0.01
    assert lr_at_epoch(59, cfg) == 0.01
    assert lr_at_epoch(60, cfg) == pytest.approx(0.009)
    assert lr_at_epoch(61, cfg) == pytest.approx(0.0081)


def test_lr_never_increases():
    cfg = TrainConfig(base_lr=0.1, decay_start_epoch=5, decay_rate=0.7, max_epochs=30)
    rates = [lr_at_epoch(e, cfg) for e in range(30)]
    assert all(a >= b for a, b in zip(rates, rates[1:]))
    assert rates[0] == 0.1 and rates[-1] < 0.01


def test_lr_rejects_negative_epoch():
    with pytest.raises(ValueError):
        lr_at_epoch(-1, TrainConfig())


def test_train_config_validation():
    for bad in ("base_lr", "momentum", "weight_decay", "decay_rate"):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                TrainConfig(**{bad: value})
    with pytest.raises(ValueError):
        TrainConfig(base_lr=0.0)
    with pytest.raises(ValueError):
        TrainConfig(momentum=1.0)
    with pytest.raises(ValueError):
        TrainConfig(weight_decay=-1e-4)
    with pytest.raises(ValueError):
        TrainConfig(decay_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)


# -- SGD step ---------------------------------------------------------------------


def test_sgd_without_momentum_is_plain_descent():
    p = Param("x", np.array([1.0, -2.0]))
    store = store_with(p)
    state = OptimizerState(store, TrainConfig(momentum=0.0, weight_decay=0.0))
    sgd_step(store, grads_for(store, x=[0.5, -0.5]), state, lr=0.1)
    npt.assert_allclose(p.value, [0.95, -1.95])
    assert state.step_count == 1


def test_sgd_two_steps_on_quadratic():
    # f(x) = x^2/2 from x0=1 with lr 0.1, momentum 0.9: x1=0.9, x2=0.72
    p = Param("x", np.array([1.0]))
    store = store_with(p)
    state = OptimizerState(store, TrainConfig(momentum=0.9, weight_decay=0.0))
    sgd_step(store, grads_for(store, x=p.value.copy()), state, lr=0.1)
    npt.assert_allclose(p.value, [0.9])
    sgd_step(store, grads_for(store, x=p.value.copy()), state, lr=0.1)
    npt.assert_allclose(p.value, [0.72])


def test_sgd_matches_scalar_recurrence():
    trajectory = oracles.sgd_recurrence(lambda x: x, x0=1.0, lr=0.1, momentum=0.9, steps=6)
    p = Param("x", np.array([1.0]))
    store = store_with(p)
    state = OptimizerState(store, TrainConfig(momentum=0.9, weight_decay=0.0))
    for want in trajectory:
        sgd_step(store, grads_for(store, x=p.value.copy()), state, lr=0.1)
        npt.assert_allclose(p.value, [want], atol=1e-14)


def test_sgd_momentum_keeps_moving_after_zero_gradient():
    p = Param("x", np.array([0.0]))
    store = store_with(p)
    state = OptimizerState(store, TrainConfig(momentum=0.5, weight_decay=0.0))
    sgd_step(store, grads_for(store, x=[1.0]), state, lr=1.0)  # buf=1, x=-1
    sgd_step(store, grads_for(store, x=[0.0]), state, lr=1.0)  # buf=0.5, x=-1.5
    npt.assert_allclose(p.value, [-1.5])


def test_sgd_zero_lr_is_a_no_op():
    p = Param("x", np.array([3.0]))
    store = store_with(p)
    state = OptimizerState(store, TrainConfig(momentum=0.9))
    sgd_step(store, grads_for(store, x=[5.0]), state, lr=0.0)
    npt.assert_array_equal(p.value, [3.0])
    assert state.buffers["x"][0] != 0.0  # the buffer still charged up


def test_sgd_step_is_linear_in_the_gradient():
    def displacement(scale):
        p = Param("x", np.array([1.0]))
        store = store_with(p)
        state = OptimizerState(store, TrainConfig(momentum=0.0, weight_decay=0.0))
        sgd_step(store, grads_for(store, x=[scale]), state, lr=0.01)
        return 1.0 - p.value[0]

    assert displacement(2.0) == pytest.approx(2 * displacement(1.0))


def test_weight_decay_pulls_toward_zero():
    p = Param("x", np.array([10.0]))
    store = store_with(p)
    state = OptimizerState(store, TrainConfig(momentum=0.0, weight_decay=0.1))
    sgd_step(store, grads_for(store, x=[0.0]), state, lr=1.0)
    npt.assert_allclose(p.value, [9.0])  # g = 0 + 0.1*10


def test_decay_exemption_honoured():
    exempt = Param("beta", np.array([10.0]), decay_exempt=True)
    plain = Param("w", np.array([10.0]))
    store = store_with(exempt, plain)
    state = OptimizerState(store, TrainConfig(momentum=0.0, weight_decay=0.1))
    sgd_step(store, grads_for(store, beta=[0.0], w=[0.0]), state, lr=1.0)
    npt.assert_allclose(exempt.value, [10.0])
    npt.assert_allclose(plain.value, [9.0])


def test_decay_exemption_can_be_disabled():
    exempt = Param("beta", np.array([10.0]), decay_exempt=True)
    store = store_with(exempt)
    state = OptimizerState(store, TrainConfig(momentum=0.0, weight_decay=0.1,
                                              decay_exempt_norm_bias=False))
    sgd_step(store, grads_for(store, beta=[0.0]), state, lr=1.0)
    npt.assert_allclose(exempt.value, [9.0])


def test_chunked_sgd_is_bit_identical_to_the_whole_array_formula():
    rng = np.random.default_rng(3)
    shapes = {"w": (3, 2 * training.SGD_CHUNK // 3 + 5),    # rows split across chunks
              "wide": (2, training.SGD_CHUNK + 3),          # one row larger than a chunk
              "v": (2 * training.SGD_CHUNK + 7,),           # 1-d, larger than one chunk
              "t": (4, 6),                                  # strided (transposed) value
              "beta": (5,)}                                 # decay-exempt
    start = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
    params = [Param(name, start[name].T if name == "t" else start[name],
                    decay_exempt=name == "beta") for name in shapes]
    store = store_with(*params)
    tc = TrainConfig(momentum=0.9, weight_decay=5e-4)
    state = OptimizerState(store, tc)
    want = {p.name: p.value.copy() for p in params}
    bufs = {p.name: np.zeros_like(p.value) for p in params}
    for step in range(3):
        grads = {p.name: rng.standard_normal(p.value.shape) for p in params}
        lr = 0.1 / (step + 1)
        sgd_step(store, grads, state, lr)
        for p in params:
            g = grads[p.name]
            if not p.decay_exempt:
                g = g + tc.weight_decay * want[p.name]
            bufs[p.name] *= tc.momentum
            bufs[p.name] += g
            want[p.name] -= lr * bufs[p.name]
    for p in params:
        assert p.value.tobytes() == want[p.name].tobytes(), p.name
        assert state.buffers[p.name].tobytes() == bufs[p.name].tobytes(), p.name


def test_sgd_validates_gradients():
    p = Param("x", np.array([1.0, 2.0]))
    store = store_with(p)
    state = OptimizerState(store, TrainConfig())
    with pytest.raises(ValueError):
        sgd_step(store, {}, state, lr=0.1)
    with pytest.raises(ValueError):
        sgd_step(store, grads_for(store, x=[1.0, 2.0, 3.0]), state, lr=0.1)


def test_frozen_params_have_no_buffers():
    frozen = Param("f", np.array([1.0]), trainable=False)
    live = Param("w", np.array([1.0]))
    state = OptimizerState(store_with(frozen, live), TrainConfig())
    assert set(state.buffers) == {"w"}


# -- synthetic micro dataset for loop tests ----------------------------------------


def micro_dataset(n_per_class=2, classes=(0, 3), size=8, seed=0):
    rng = np.random.default_rng(seed)
    records, images, labels = [], [], []
    for label in classes:
        for i in range(n_per_class):
            base = np.full((3, size, size), 40 + 30 * label, dtype=np.uint8)
            noise = rng.integers(0, 20, size=base.shape).astype(np.uint8)
            images.append(Image(base + noise))
            records.append(SampleRecord(f"c{label}", i, "", label))
            labels.append(label)
    return LoadedDataset(records, images, labels)


NORM = Normalization(mean=(0.5, 0.5, 0.5), std=(0.5, 0.5, 0.5))


def test_train_epoch_is_deterministic():
    def run():
        cfg = preset("micro", seed=1)
        store = init_network(cfg)
        tc = TrainConfig(base_lr=0.05, batch_size=2, weight_decay=0.0, max_epochs=1)
        state = OptimizerState(store, tc)
        rng = np.random.default_rng(7)
        stats = train_epoch(store, state, micro_dataset(), cfg, tc, NORM,
                            AugmentConfig(enabled=False), rng, epoch=0)
        return stats, store

    (s1, st1), (s2, st2) = run(), run()
    assert s1 == s2
    for p in st1:
        npt.assert_array_equal(p.value, st2[p.name].value)


def test_train_epoch_frees_each_tape_before_the_next_forward(monkeypatch):
    # Weak references to each step's graph and to the logits on its tape.
    refs, alive = [], []
    loss_graph = training.network_loss_graph

    def spy(graph, *args, **kwargs):
        alive.append([graph() is not None or logits() is not None for graph, logits in refs])
        logits, loss = loss_graph(graph, *args, **kwargs)
        refs.append((weakref.ref(graph), weakref.ref(logits.value)))
        return logits, loss

    monkeypatch.setattr(training, "network_loss_graph", spy)
    cfg = preset("micro", seed=0)
    store = init_network(cfg)
    tc = TrainConfig(batch_size=1)
    gc.disable()  # only reference counting may free a tape
    try:
        train_epoch(store, OptimizerState(store, tc), micro_dataset(), cfg, tc, NORM, None,
                    np.random.default_rng(0), epoch=0)
    finally:
        gc.enable()
    assert alive == [[False] * i for i in range(4)]


def test_train_epoch_rejects_empty_dataset():
    cfg = preset("micro")
    store = init_network(cfg)
    tc = TrainConfig()
    with pytest.raises(ValueError):
        train_epoch(store, OptimizerState(store, tc), LoadedDataset([], [], []),
                    cfg, tc, NORM, None, np.random.default_rng(0), 0)


def test_memorizes_a_single_image():
    cfg = preset("micro", seed=0)
    store = init_network(cfg)
    ds = micro_dataset(n_per_class=1, classes=(3,))
    tc = TrainConfig(base_lr=0.1, momentum=0.9, weight_decay=0.0, batch_size=1,
                     max_epochs=60, decay_start_epoch=1000)
    state = OptimizerState(store, tc)
    rng = np.random.default_rng(0)
    losses = []
    for epoch in range(60):
        stats = train_epoch(store, state, ds, cfg, tc, NORM, None, rng, epoch)
        losses.append(stats.loss)
        if stats.loss < 0.01:
            break
    assert losses[-1] < 0.01, f"failed to memorize one image: losses {losses[-5:]}"


def test_epoch_counter_advances():
    cfg = preset("micro", seed=0)
    store = init_network(cfg)
    tc = TrainConfig(batch_size=4)
    state = OptimizerState(store, tc)
    train_epoch(store, state, micro_dataset(), cfg, tc, NORM, None,
                np.random.default_rng(0), epoch=0)
    assert state.epoch == 1 and state.step_count == 1  # 4 images, one batch


def test_divergence_stops_the_epoch_before_the_update():
    cfg = preset("micro", seed=0)
    store = init_network(cfg)
    store["head.bias"].value[0] = np.inf  # every logit row gets an inf: the loss is NaN
    before = {p.name: p.value.copy() for p in store.trainable()}
    tc = TrainConfig(batch_size=2)
    state = OptimizerState(store, tc)
    with pytest.raises(DivergenceError, match=r"epoch 3, batch 0: .* tape op 'linear'"), \
            np.errstate(invalid="ignore"):
        train_epoch(store, state, micro_dataset(), cfg, tc, NORM, None,
                    np.random.default_rng(0), epoch=3)
    assert state.step_count == 0
    for p in store.trainable():
        npt.assert_array_equal(p.value, before[p.name])


def test_divergence_moves_the_running_stats_once(monkeypatch):
    # the failure path rebuilds the step's forward to name the op; the running
    # statistics must stay as the one train-mode forward of the step left them
    batches = []
    loss_graph = training.network_loss_graph

    def spy(graph, x, labels, *args, **kwargs):
        batches.append((x, labels))
        return loss_graph(graph, x, labels, *args, **kwargs)

    monkeypatch.setattr(training, "network_loss_graph", spy)
    cfg = preset("micro", seed=0)
    store, expected = init_network(cfg), init_network(cfg)
    for s in (store, expected):
        s["head.bias"].value[0] = np.inf
    tc = TrainConfig(batch_size=2)
    with pytest.raises(DivergenceError, match=r"tape op 'linear'"), np.errstate(invalid="ignore"):
        train_epoch(store, OptimizerState(store, tc), micro_dataset(), cfg, tc, NORM, None,
                    np.random.default_rng(0), epoch=0)
    assert len(batches) == 2 and batches[0][0] is batches[1][0]  # the step, then its rebuild
    with np.errstate(invalid="ignore"):
        loss_graph(training.GradGraph(record=False), *batches[0], expected, cfg, train=True)
    stats = [p.name for p in store if ".running_" in p.name]
    assert len(stats) == 6  # stem.bn, bn1 and bn2: a mean and a var each
    for name in stats:
        assert not np.array_equal(store[name].value, init_network(cfg)[name].value)
        npt.assert_array_equal(store[name].value, expected[name].value)


@pytest.mark.parametrize("attention", ["learned", "frozen"])
def test_divergence_names_the_param_of_the_first_non_finite_op(attention):
    cfg = preset("micro", seed=0, attention=attention)
    store = init_network(cfg)
    store["s0b0.attn.weight"].value[0, 0, 1, 1] = np.nan
    tc = TrainConfig(batch_size=2)
    with pytest.raises(DivergenceError, match=r"first at tape op 'conv2d' \(s0b0\.attn\.weight\)$"), \
            np.errstate(invalid="ignore"):
        train_epoch(store, OptimizerState(store, tc), micro_dataset(), cfg, tc, NORM, None,
                    np.random.default_rng(0), epoch=0)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e308])
def test_finite_check_scans_a_large_gradient_without_a_gradient_sized_temporary(value):
    g = np.zeros(8 * training.SGD_CHUNK + 5)
    g[-1] = value
    tracemalloc.start()
    try:
        finite = training._all_finite(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert finite == np.isfinite(value)
    assert peak < g.size // 4  # a bool array the size of g would take g.size bytes


def test_divergence_names_the_first_non_finite_gradient(monkeypatch):
    cfg = preset("micro", seed=0)
    store = init_network(cfg)
    before = {p.name: p.value.copy() for p in store.trainable()}
    planted = {}

    class Planted(training.GradGraph):
        """Plants -inf and NaN in the second and fourth gradient, in leaf
        order, on their way to the sink."""

        def __init__(self, *args, sink=None, **kwargs):
            def planting(name, grad):
                names = [n for n, (p, _) in self._leaves.items() if p.trainable]
                planted["first"] = names[1]
                fill = {names[1]: -np.inf, names[3]: np.nan}.get(name)
                sink(name, grad if fill is None else np.full_like(grad, fill))

            super().__init__(*args, sink=planting, **kwargs)

    monkeypatch.setattr(training, "GradGraph", Planted)
    tc = TrainConfig(batch_size=2)
    state = OptimizerState(store, tc)
    with pytest.raises(DivergenceError) as e:
        train_epoch(store, state, micro_dataset(), cfg, tc, NORM, None,
                    np.random.default_rng(0), epoch=0)
    assert str(e.value).endswith(f"first at the gradient of {planted['first']!r}")
    assert state.step_count == 0
    for p in store.trainable():
        npt.assert_array_equal(p.value, before[p.name])


# -- the step streams each gradient into its momentum buffer -----------------------


def micro_batch(cfg, n=2, seed=21):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, *cfg.input_shape)), rng.integers(0, cfg.num_classes, n)


def test_each_gradient_is_dropped_before_the_sweep_goes_on(monkeypatch):
    cfg = preset("micro", seed=0)
    store = init_network(cfg)
    handed = []  # (name, weak reference to the gradient) in the order the sink got them
    live = []    # at each adjoint and each sink call: whether the last gradient handed is alive

    def last_alive():
        live.append(bool(handed) and handed[-1][1]() is not None)

    class Watched(training.GradGraph):
        def __init__(self, *args, sink=None, **kwargs):
            def watching(name, grad):
                last_alive()
                handed.append((name, weakref.ref(grad)))
                sink(name, grad)

            super().__init__(*args, sink=watching, **kwargs)

        def backward(self, root):
            for handle in self._tape:
                def watched(dy, send, backprop=handle._backprop):
                    last_alive()
                    backprop(dy, send)
                handle._backprop = watched
            return super().backward(root)

    monkeypatch.setattr(training, "GradGraph", Watched)
    tc = TrainConfig(batch_size=2)
    gc.disable()  # only reference counting may free a gradient
    try:
        training.train_step(store, OptimizerState(store, tc), *micro_batch(cfg), cfg, 0.1)
    finally:
        gc.enable()
    assert sorted(name for name, _ in handed) == sorted(p.name for p in store.trainable())
    assert len(live) > len(handed) and not any(live)
    assert handed[-1][1]() is None


@pytest.mark.parametrize("attention", ["learned", "frozen", "off"])
def test_a_streamed_step_is_bit_identical_to_sgd_step_on_the_gradient_dict(attention):
    cfg = preset("micro", seed=3, attention=attention)
    streamed, whole = init_network(cfg), init_network(cfg)
    tc = TrainConfig(momentum=0.9, weight_decay=5e-4)
    s_state, w_state = OptimizerState(streamed, tc), OptimizerState(whole, tc)
    for step in range(3):
        x, labels = micro_batch(cfg, seed=step)
        loss, predicted = training.train_step(streamed, s_state, x, labels, cfg, 0.1)
        graph = training.GradGraph()
        logits, want = training.network_loss_graph(graph, x, labels, whole, cfg, train=True)
        sgd_step(whole, graph.backward(want), w_state, 0.1)
        assert np.float64(loss).tobytes() == np.float64(want.value).tobytes()
        npt.assert_array_equal(predicted, np.argmax(logits.value, axis=1))
    assert s_state.step_count == w_state.step_count == 3
    for p in streamed:
        assert p.value.tobytes() == whole[p.name].value.tobytes(), p.name
    assert s_state.buffers.keys() == w_state.buffers.keys()
    for name, buf in s_state.buffers.items():
        assert buf.tobytes() == w_state.buffers[name].tobytes(), name


@pytest.mark.parametrize("attention", ["learned", "frozen", "off"])
def test_the_dtype_set_where_values_enter_carries_through_a_step(monkeypatch, attention):
    # Params, graph constants and image tensors take DEFAULT_DTYPE; every
    # kernel, adjoint and optimizer buffer then follows its inputs
    monkeypatch.setattr(autodiff, "DEFAULT_DTYPE", np.float32)
    monkeypatch.setattr(data, "DEFAULT_DTYPE", np.float32)
    cfg = preset("micro", seed=0, attention=attention)
    store = init_network(cfg)
    dataset = micro_dataset()
    x = training._batch_tensor(dataset.images[:2], NORM)
    outputs, handed = [], []

    class Watched(training.GradGraph):
        def __init__(self, *args, sink=None, **kwargs):
            def watching(name, grad):
                handed.append((name, grad.dtype))
                sink(name, grad)

            super().__init__(*args, sink=watching, **kwargs)

        def _record(self, value, backprop, label, *inputs):
            outputs.append((label, np.asarray(value).dtype))
            return super()._record(value, backprop, label, *inputs)

    monkeypatch.setattr(training, "GradGraph", Watched)
    state = OptimizerState(store, TrainConfig(weight_decay=5e-4))
    training.train_step(store, state, x, dataset.labels[:2], cfg, 0.1)
    assert x.dtype == np.float32
    assert outputs.pop() == ("softmax_cross_entropy", np.float64)
    gate = {"sigmoid", "hadamard"} if attention != "off" else set()
    assert {label for label, _ in outputs} >= {"conv2d", "batchnorm2d", "relu", "add", "linear",
                                               "global_avg_pool", "flatten", *gate}
    assert all(dtype == np.float32 for _, dtype in outputs), outputs
    assert sorted(name for name, _ in handed) == sorted(p.name for p in store.trainable())
    assert all(dtype == np.float32 for _, dtype in handed), handed
    assert all(p.value.dtype == np.float32 for p in store)
    assert all(buf.dtype == np.float32 for buf in state.buffers.values())
    assert state._scratch.dtype == np.float32


def test_a_step_rejects_a_trainable_param_the_graph_never_entered():
    cfg = preset("micro", seed=0)
    store = init_network(cfg)
    store.add(Param("stray", np.ones(3)))
    before = {p.name: p.value.copy() for p in store.trainable()}
    state = OptimizerState(store, TrainConfig())
    with pytest.raises(ValueError, match="gradient missing for trainable parameter 'stray'"):
        training.train_step(store, state, *micro_batch(cfg), cfg, 0.1)
    assert state.step_count == 0
    for p in store.trainable():
        npt.assert_array_equal(p.value, before[p.name])


# -- evaluation --------------------------------------------------------------------


def test_evaluate_scores_each_image_once():
    cfg = preset("micro", seed=0)
    store = init_network(cfg)
    ds = micro_dataset()
    cm, preds = evaluate(store, ds, cfg, NORM, crop_size=8)
    assert cm.total == len(ds) == len(preds)
    for pred in preds:
        assert pred.probabilities.shape == (7,)
        assert pred.probabilities.sum() == pytest.approx(1.0)
        assert pred.predicted == int(np.argmax(pred.probabilities))


def test_evaluate_single_crop_matches_direct_forward():
    cfg = preset("micro", seed=2)
    store = init_network(cfg)
    ds = micro_dataset(n_per_class=1)
    _, preds = evaluate(store, ds, cfg, NORM, crop_size=8)  # full image, no crop effect
    for img, pred in zip(ds.images, preds):
        x = (img.pixels.astype(float) / 255.0 - 0.5) / 0.5
        logits = network_forward(x[None], store, cfg)
        npt.assert_allclose(pred.probabilities, tensor.softmax(logits)[0], atol=1e-12)


def test_evaluate_tencrop_averages_ten_probability_rows():
    from llanet.data import ten_crop
    cfg = preset("micro", seed=3)
    store = init_network(cfg)
    ds = micro_dataset(n_per_class=1)
    _, preds = evaluate(store, ds, cfg, NORM, crop_size=7, use_tencrop=True)
    for img, pred in zip(ds.images, preds):
        crops = ten_crop(img, 7)
        assert len(crops) == 10
        rows = []
        for c in crops:
            x = (c.pixels.astype(float) / 255.0 - 0.5) / 0.5
            rows.append(tensor.softmax(network_forward(x[None], store, cfg))[0])
        npt.assert_allclose(pred.probabilities, np.mean(rows, axis=0), atol=1e-12)


def test_evaluate_uses_default_crop_when_unspecified():
    cfg = preset("micro", seed=0)
    store = init_network(cfg)
    ds = micro_dataset(n_per_class=1)
    cm_default, _ = evaluate(store, ds, cfg, NORM)              # 7/8 of 8 = 7
    cm_explicit, _ = evaluate(store, ds, cfg, NORM, crop_size=7)
    assert cm_default == cm_explicit


def test_trained_network_evaluates_diagonal():
    cfg = preset("micro", seed=0)
    store = init_network(cfg)
    ds = micro_dataset(n_per_class=2, classes=(0, 3))
    tc = TrainConfig(base_lr=0.1, weight_decay=0.0, batch_size=4, max_epochs=1,
                     decay_start_epoch=1000)
    state = OptimizerState(store, tc)
    rng = np.random.default_rng(0)
    for epoch in range(40):
        stats = train_epoch(store, state, ds, cfg, tc, NORM, None, rng, epoch)
        if stats.accuracy == 1.0 and stats.loss < 0.05:
            break
    cm, _ = evaluate(store, ds, cfg, NORM, crop_size=8)
    assert np.trace(cm.counts) == len(ds), f"confusion not diagonal:\n{cm.counts}"


# -- fit ---------------------------------------------------------------------------


def test_fit_logs_one_json_line_per_epoch(tmp_path):
    cfg = preset("micro", seed=0)
    store = init_network(cfg)
    ds = micro_dataset()
    tc = TrainConfig(base_lr=0.05, batch_size=4, max_epochs=3, weight_decay=0.0)
    stream = io.StringIO()
    result = fit(store, cfg, tc, ds, ds, NORM, None, out_dir=tmp_path,
                 eval_crop=8, log_stream=stream)
    lines = [json.loads(l) for l in stream.getvalue().splitlines()]
    assert len(lines) == 3 == len(result.history)
    for entry in lines:
        assert set(entry) == {"epoch", "lr", "train_loss", "train_acc",
                              "val_acc", "val_f1", "val_score"}
    assert [e["epoch"] for e in lines] == [0, 1, 2]
    assert (tmp_path / "best.ckpt").exists()
    assert result.best_epoch >= 0
    assert result.best_score == max(e["val_score"] for e in lines)


def test_fit_is_deterministic():
    def run():
        cfg = preset("micro", seed=4)
        store = init_network(cfg)
        tc = TrainConfig(base_lr=0.05, batch_size=2, max_epochs=2, seed=9)
        return fit(store, cfg, tc, micro_dataset(), micro_dataset(), NORM,
                   AugmentConfig(enabled=True, pad=2), eval_crop=8).history

    assert run() == run()
