"""Forward kernels: contracts, invariants, and nested-loop oracle equivalence."""

import os
import signal
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from llanet import tensor
from llanet.tensor import ConvSpec, DimensionError

import oracles


def rand(rng, *shape):
    return rng.standard_normal(shape)


# -- conv2d ---------------------------------------------------------------------


def test_conv_channel_reduction_shape():
    # the attention gate's defining case: 2C -> C with spatial dims preserved
    rng = np.random.default_rng(0)
    c, h, w = 4, 6, 5
    spec = ConvSpec(out_channels=c, in_channels=2 * c, kernel_h=3, kernel_w=3,
                    stride=1, padding=1)
    out = tensor.conv2d(rand(rng, 1, 2 * c, h, w), rand(rng, *spec.weight_shape),
                        np.zeros(c), spec)
    assert out.shape == (1, c, h, w)


def test_conv_identity_kernel():
    rng = np.random.default_rng(1)
    x = rand(rng, 2, 1, 4, 4)
    spec = ConvSpec(1, 1, 1, 1, has_bias=False)
    npt.assert_array_equal(tensor.conv2d(x, np.ones((1, 1, 1, 1)), None, spec), x)


def test_conv_matches_naive_oracle_once():
    rng = np.random.default_rng(2)
    x = rand(rng, 1, 3, 5, 5)
    w = rand(rng, 2, 3, 3, 3)
    spec = ConvSpec(2, 3, 3, 3, stride=2, padding=0, has_bias=False)
    npt.assert_allclose(tensor.conv2d(x, w, None, spec),
                        oracles.conv2d_naive(x, w, None, 2, 0), atol=1e-12)


def test_conv_matches_naive_oracle_randomized():
    rng = np.random.default_rng(3)
    for trial in range(40):
        n, ic, oc = rng.integers(1, 3), int(rng.integers(1, 4)), int(rng.integers(1, 4))
        kh, kw = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        stride, padding = int(rng.integers(1, 3)), int(rng.integers(0, 2))
        h = int(rng.integers(kh, 8))
        w = int(rng.integers(kw, 8))
        has_bias = bool(rng.integers(0, 2))
        spec = ConvSpec(oc, ic, kh, kw, stride=stride, padding=padding, has_bias=has_bias)
        x = rand(rng, n, ic, h, w)
        wgt = rand(rng, *spec.weight_shape)
        bias = rand(rng, oc) if has_bias else None
        npt.assert_allclose(tensor.conv2d(x, wgt, bias, spec),
                            oracles.conv2d_naive(x, wgt, bias, stride, padding),
                            atol=1e-12, err_msg=f"trial {trial}")


def test_conv_shape_errors_name_axis():
    spec = ConvSpec(2, 3, 3, 3)
    with pytest.raises(DimensionError) as e:
        tensor.conv2d(np.zeros((1, 4, 5, 5)), np.zeros(spec.weight_shape), np.zeros(2), spec)
    assert e.value.axis == "channels"
    with pytest.raises(DimensionError) as e:
        tensor.conv2d(np.zeros((1, 3, 5, 5)), np.zeros((2, 3, 5, 5)), np.zeros(2), spec)
    assert e.value.axis == "weight"
    with pytest.raises(DimensionError) as e:
        tensor.conv2d(np.zeros((1, 3, 5, 5)), np.zeros(spec.weight_shape), None, spec)
    assert e.value.axis == "bias"


@pytest.mark.parametrize("kernel, side, channels", [(3, 8, 2), (3, 4, 4), (1, 4, 2)])
def test_conv_of_a_pair_is_the_conv_of_its_concat_bit_for_bit(kernel, side, channels):
    # the gate conv on taps (3x3 on an 8 px map) and on im2col (3x3 on a
    # 4 px map with wide channels, and 1x1 with no padding to build)
    rng = np.random.default_rng(30)
    spec = ConvSpec(channels, 2 * channels, kernel, kernel, padding=(kernel - 1) // 2)
    a, b = rand(rng, 2, channels, side, side), rand(rng, 2, channels, side, side)
    weight, bias = rand(rng, *spec.weight_shape), rand(rng, channels)
    joined = np.concatenate([a, b], axis=1)
    out = tensor.conv2d((a, b), weight, bias, spec)
    assert out.flags.c_contiguous
    npt.assert_array_equal(out, tensor.conv2d(joined, weight, bias, spec))
    dy = rand(rng, *out.shape)
    npt.assert_array_equal(tensor.conv2d_weight_grad((a, b), dy, spec),
                           tensor.conv2d_weight_grad(joined, dy, spec))
    with pytest.raises(DimensionError) as e:
        tensor.conv2d((a, b[:, :, 1:]), weight, bias, spec)
    assert e.value.axis == "height"
    with pytest.raises(DimensionError) as e:
        tensor.conv2d((a, b, b), weight, bias, spec)
    assert e.value.axis == "channels"


def spy_blocks(monkeypatch):
    """Record the (start, stop) of every block of every ``_padded_blocks`` walk."""
    walks = []
    blocks = tensor._padded_blocks

    def spy(*args):
        walks.append([])
        for start, stop, block in blocks(*args):
            walks[-1].append((start, stop))
            yield start, stop, block

    monkeypatch.setattr(tensor, "_padded_blocks", spy)
    return walks


@pytest.mark.parametrize("budget", [21000, 1])  # a short last block; every image over budget
@pytest.mark.parametrize("pair", [False, True])
@pytest.mark.parametrize("stride", [1, 2])  # taps, im2col
def test_conv_batch_blocks_are_bit_identical_to_one_block(monkeypatch, stride, pair, budget):
    rng = np.random.default_rng(40)
    spec = ConvSpec(4, 5, 3, 3, stride=stride, padding=1)
    a, b = rand(rng, 5, 2, 8, 8), rand(rng, 5, 3, 8, 8)
    x = (a, b) if pair else np.concatenate([a, b], axis=1)
    weight, bias = rand(rng, *spec.weight_shape), rand(rng, 4)
    oh, ow = tensor.conv_output_hw(spec, 8, 8)
    on_taps = tensor._on_taps(spec, oh, ow)
    assert on_taps == (stride == 1)
    dy = rand(rng, 5, 4, oh, ow)

    def run():
        return (tensor.conv2d(x, weight, bias, spec), tensor.conv2d_weight_grad(x, dy, spec),
                tensor.conv2d_input_grad(weight, dy, spec, 8, 8))

    walks = spy_blocks(monkeypatch)
    whole = run()
    assert walks and all(walk == [(0, 5)] for walk in walks)
    walks.clear()
    monkeypatch.setattr(tensor, "CONV_BLOCK_BYTES", budget)
    for got, want in zip(run(), whole):
        assert got.tobytes() == want.tobytes()
    # both layouts block the forward, dW and dx (the im2col dx walks dy)
    assert len(walks) == 3
    for walk in walks:
        sizes = [stop - start for start, stop in walk]
        assert walk[0][0] == 0 and walk[-1][1] == 5 and sum(sizes) == 5
        if budget == 1:
            assert sizes == [1] * 5
        else:
            assert len(sizes) > 1 and sizes[-1] < sizes[0]


@pytest.mark.parametrize("pair", [False, True])
@pytest.mark.parametrize("stride", [1, 2])  # taps, im2col
def test_both_conv_layouts_take_an_empty_batch(stride, pair):
    rng = np.random.default_rng(42)
    spec = ConvSpec(4, 5, 3, 3, stride=stride, padding=1)
    a, b = rand(rng, 0, 2, 8, 8), rand(rng, 0, 3, 8, 8)
    x = (a, b) if pair else np.concatenate([a, b], axis=1)
    weight, bias = rand(rng, *spec.weight_shape), rand(rng, 4)
    oh, ow = tensor.conv_output_hw(spec, 8, 8)
    assert tensor._on_taps(spec, oh, ow) == (stride == 1)
    dy = rand(rng, 0, 4, oh, ow)
    assert tensor.conv2d(x, weight, bias, spec).shape == (0, 4, oh, ow)
    dw = tensor.conv2d_weight_grad(x, dy, spec)
    npt.assert_array_equal(dw, np.zeros(spec.weight_shape))
    assert tensor.conv2d_input_grad(weight, dy, spec, 8, 8).shape == (0, 5, 8, 8)


def test_blocked_im2col_forward_never_forms_the_whole_column_matrix(monkeypatch):
    rng = np.random.default_rng(41)
    spec = ConvSpec(2, 8, 3, 3, stride=2, padding=1, has_bias=False)
    x, weight = rand(rng, 8, 8, 16, 16), rand(rng, *spec.weight_shape)
    assert not tensor._on_taps(spec, 8, 8)
    whole = tensor.conv2d(x, weight, None, spec)
    columns = x.shape[0] * 8 * 9 * 8 * 8 * x.itemsize  # (n, c*kh*kw, oh*ow)
    monkeypatch.setattr(tensor, "CONV_BLOCK_BYTES", 1)
    tracemalloc.start()
    try:
        out = tensor.conv2d(x, weight, None, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.tobytes() == whole.tobytes()
    assert peak < columns / 4


def test_blocked_im2col_adjoint_never_forms_the_whole_column_matrix(monkeypatch):
    rng = np.random.default_rng(42)
    spec = ConvSpec(64, 4, 5, 5, padding=2, has_bias=False)  # many out channels: im2col
    x, weight = rand(rng, 16, 4, 16, 16), rand(rng, *spec.weight_shape)
    dy = rand(rng, 16, 64, 16, 16)
    assert not tensor._on_taps(spec, 16, 16)
    columns = x.shape[0] * 4 * 25 * 16 * 16 * x.itemsize  # (n, c*kh*kw, oh*ow)

    parts = (lambda: tensor.conv2d_weight_grad(x, dy, spec),
             lambda: tensor.conv2d_input_grad(weight, dy, spec, 16, 16))
    whole = [part() for part in parts]
    walks = spy_blocks(monkeypatch)
    monkeypatch.setattr(tensor, "CONV_BLOCK_BYTES", 1)
    for part, want in zip(parts, whole):
        tracemalloc.start()
        try:
            got = part()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got.tobytes() == want.tobytes()
        assert peak < columns / 4
    assert [len(walk) for walk in walks] == [16, 16]


@pytest.mark.parametrize("budget", [tensor.CONV_BLOCK_BYTES, 1])
@pytest.mark.parametrize("kernel, stride, padding", [(3, 2, 1), (1, 2, 0), (3, 1, 1)])
def test_im2col_weight_grad_within_an_fsum_oracle(monkeypatch, budget, kernel, stride, padding):
    rng = np.random.default_rng(43)
    spec = ConvSpec(12, 3, kernel, kernel, stride=stride, padding=padding)
    x = rand(rng, 4, 3, 9, 9)
    oh, ow = tensor.conv_output_hw(spec, 9, 9)
    assert not tensor._on_taps(spec, oh, ow)
    dy = rand(rng, 4, 12, oh, ow)
    monkeypatch.setattr(tensor, "CONV_BLOCK_BYTES", budget)
    got = tensor.conv2d_weight_grad(x, dy, spec)
    exact, scale = oracles.conv2d_weight_grad_fsum(x, dy, kernel, kernel, stride, padding)
    assert np.all(np.abs(got - exact) <= 1e-12 * scale)


def spy_parts(monkeypatch):
    """Record the per-image FLOPs and the part count of every ``_parts`` call."""
    calls = []
    parts = tensor._parts

    def spy(rows, flops):
        calls.append((flops, parts(rows, flops)))
        return calls[-1][1]

    monkeypatch.setattr(tensor, "_parts", spy)
    return calls


@pytest.mark.parametrize("budget", [tensor.CONV_BLOCK_BYTES, 1])  # one block; one per image
@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("pair", [False, True])
@pytest.mark.parametrize("stride", [1, 2])  # taps, im2col
def test_split_conv_gemms_agree_at_one_and_two_workers_and_with_the_oracles(
        monkeypatch, stride, pair, batch, budget):
    rng = np.random.default_rng(44)
    spec = ConvSpec(6, 5, 3, 3, stride=stride, padding=1)
    a, b = rand(rng, batch, 2, 8, 8), rand(rng, batch, 3, 8, 8)
    joined = np.concatenate([a, b], axis=1)
    x = (a, b) if pair else joined
    weight, bias = rand(rng, *spec.weight_shape), rand(rng, 6)
    oh, ow = tensor.conv_output_hw(spec, 8, 8)
    assert tensor._on_taps(spec, oh, ow) == (stride == 1)
    dy = rand(rng, batch, 6, oh, ow)

    def run():
        return (tensor.conv2d(x, weight, bias, spec), tensor.conv2d_weight_grad(x, dy, spec),
                tensor.conv2d_input_grad(weight, dy, spec, 8, 8))

    whole_dx = run()[2]
    calls = spy_parts(monkeypatch)
    monkeypatch.setattr(tensor, "CONV_BLOCK_BYTES", budget)
    monkeypatch.setattr(tensor, "SPLIT_FLOPS", 1)
    results = []
    for workers in (1, 2):
        monkeypatch.setattr(tensor, "conv_workers", lambda: workers)
        results.append(run())
    # the forward, dW and dx were split at both worker counts
    assert [parts for _, parts in calls] == [2] * 6
    for got, want in zip(*results):
        assert got.tobytes() == want.tobytes()
    out, dw, dx = results[0]
    npt.assert_allclose(out, oracles.conv2d_naive(joined, weight, bias, stride, 1),
                        rtol=0, atol=1e-12)
    exact, scale = oracles.conv2d_weight_grad_fsum(joined, dy, 3, 3, stride, 1)
    assert np.all(np.abs(dw - exact) <= 1e-12 * scale)
    # dx against the unsplit kernel, within the rounding bound of |W|^T |dy|
    monkeypatch.setattr(tensor, "SPLIT_FLOPS", np.inf)
    bound = tensor.conv2d_input_grad(np.abs(weight), np.abs(dy), spec, 8, 8)
    assert np.all(np.abs(dx - whole_dx) <= 1e-12 * bound)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_starts_its_own_second_worker(monkeypatch):
    rng = np.random.default_rng(46)
    spec = ConvSpec(4, 4, 3, 3, stride=2, padding=1, has_bias=False)
    x, weight = rand(rng, 1, 4, 8, 8), rand(rng, *spec.weight_shape)
    monkeypatch.setattr(tensor, "SPLIT_FLOPS", 1)
    monkeypatch.setattr(tensor, "conv_workers", lambda: 2)
    want = tensor.conv2d(x, weight, None, spec)  # starts this process's second worker
    pid = os.fork()
    if pid == 0:  # the child: a deadlock ends at the alarm with SIGALRM
        signal.alarm(20)
        os._exit(0 if tensor.conv2d(x, weight, None, spec).tobytes() == want.tobytes() else 1)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0


def test_micro_and_tiny_conv_gemms_are_never_split(monkeypatch):
    from llanet import autodiff, network, verify

    calls = spy_parts(monkeypatch)
    rng = np.random.default_rng(45)
    tiny = network.preset("tiny", seed=1)
    store = network.init_network(tiny)
    graph = autodiff.GradGraph()  # a train step at 32 px
    _, loss = network.network_loss_graph(graph, rand(rng, 2, 3, 32, 32), np.array([0, 1]),
                                         store, tiny, train=True)
    graph.backward(loss)
    network.network_forward_graph(autodiff.GradGraph(record=False), rand(rng, 10, 3, 28, 28),
                                  store, tiny, train=False)  # a ten-crop batch at 28 px
    verify.run_suite("all")  # every check on 8 x 8 maps or smaller, micro included
    assert len(calls) > 50
    assert max(flops for flops, _ in calls) < tensor.SPLIT_FLOPS


# The dW of a resnet18 stage-2 conv (28 px) and the forward of a stage-3 conv
# (14 px), whose bits differed between one and two OpenBLAS threads while the
# thread count was left to the environment.
BLAS_THREADS_DIGEST = """
import hashlib
import numpy as np
from llanet import tensor
from llanet.tensor import ConvSpec
rng = np.random.default_rng(50)
stage2 = ConvSpec(256, 256, 3, 3, padding=1, has_bias=False)
stage3 = ConvSpec(512, 512, 3, 3, padding=1, has_bias=False)
x2, dy2 = rng.standard_normal((1, 256, 28, 28)), rng.standard_normal((1, 256, 28, 28))
x3, w3 = rng.standard_normal((1, 512, 14, 14)), rng.standard_normal(stage3.weight_shape)
digest = hashlib.sha256(tensor.conv2d_weight_grad(x2, dy2, stage2).tobytes())
digest.update(tensor.conv2d(x3, w3, None, stage3).tobytes())
print(tensor.blas_threads(), digest.hexdigest())
"""


@pytest.mark.skipif(tensor.blas_threads() is None,
                    reason="no bundled OpenBLAS to pin, so the bits may depend on its thread count")
def test_conv_bits_do_not_depend_on_the_blas_thread_count():
    src = str(Path(tensor.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", BLAS_THREADS_DIGEST], env=env,
                              capture_output=True, text=True, check=True)
        outputs.append(done.stdout)
    assert outputs[0].startswith("1 ")
    assert outputs[0] == outputs[1]


class FakeLibrary:
    """A ``ctypes.CDLL`` stand-in that exports the given symbol names."""

    def __init__(self, names):
        for name in names:
            setattr(self, name, types.SimpleNamespace())


@pytest.mark.parametrize("filename, prefix, suffix", [
    ("libscipy_openblas64_-32a4b2a6.so", "scipy_", "64_"),  # NumPy 2
    ("libopenblas64_p-r0-0cf96a72.3.23.dev.so", "", "64_"),  # NumPy 1
])
def test_the_blas_pin_finds_each_numpy_generations_openblas(monkeypatch, tmp_path, filename,
                                                           prefix, suffix):
    names = [f"{prefix}openblas_{f}{suffix}"
             for f in ("set_num_threads", "get_num_threads", "get_config")]
    (tmp_path / "libgfortran-040039e1.so.5.0.0").touch()
    (tmp_path / filename).touch()
    opened = []

    def cdll(path):
        opened.append(Path(path).name)
        return FakeLibrary(names)

    monkeypatch.setattr(tensor.ctypes, "CDLL", cdll)
    found = tensor._openblas(tmp_path)
    assert opened == [filename]
    assert [getattr(f, "restype", None) for f in found] == [None, tensor.ctypes.c_int,
                                                            tensor.ctypes.c_char_p]
    assert found[0].argtypes == (tensor.ctypes.c_int,)
    monkeypatch.setattr(tensor.ctypes, "CDLL", lambda path: FakeLibrary(names[:2]))
    assert tensor._openblas(tmp_path) is None  # no get_config: not a usable OpenBLAS
    assert tensor._openblas(tmp_path / "missing") is None


def test_conv_spec_validation():
    with pytest.raises(ValueError):
        ConvSpec(0, 1, 3, 3)
    with pytest.raises(ValueError):
        ConvSpec(1, 1, 3, 3, stride=0)
    with pytest.raises(ValueError):
        ConvSpec(1, 1, 3, 3, padding=-1)
    with pytest.raises(DimensionError):
        tensor.conv_output_hw(ConvSpec(1, 1, 5, 5), 3, 8)


# -- batchnorm --------------------------------------------------------------------


def test_batchnorm_constant_channel_is_zeroed():
    x = np.full((3, 2, 2, 2), 7.0)
    out, _, _ = tensor.batchnorm2d(x, np.ones(2), np.zeros(2), np.zeros(2), np.ones(2), train=True)
    npt.assert_allclose(out, 0.0, atol=1e-12)


def test_batchnorm_gamma_zero_gives_beta():
    rng = np.random.default_rng(4)
    beta = np.array([1.5, -2.0])
    out, _, _ = tensor.batchnorm2d(rand(rng, 2, 2, 3, 3), np.zeros(2), beta,
                                   np.zeros(2), np.ones(2), train=True)
    npt.assert_allclose(out, beta[None, :, None, None] * np.ones((2, 2, 3, 3)))


def test_batchnorm_train_statistics_against_oracle():
    rng = np.random.default_rng(5)
    x = rand(rng, 4, 3, 2, 2) * 3 + 1
    gamma = np.array([1.0, 2.0, 0.5])
    beta = np.array([0.0, -1.0, 3.0])
    out, _, _ = tensor.batchnorm2d(x, gamma, beta, np.zeros(3), np.ones(3), train=True)
    mu, var = oracles.channel_moments_naive(out)
    npt.assert_allclose(mu, beta, atol=1e-6)
    npt.assert_allclose(var, gamma ** 2, rtol=1e-4)  # eps shrinks variance slightly


def test_batchnorm_running_stats_update_and_eval():
    rng = np.random.default_rng(6)
    x = rand(rng, 4, 2, 3, 3) + 5.0
    running_mean, running_var = np.zeros(2), np.ones(2)
    tensor.batchnorm2d(x, np.ones(2), np.zeros(2), running_mean, running_var, train=True)
    mu, var = oracles.channel_moments_naive(x)
    m = x.shape[0] * x.shape[2] * x.shape[3]
    npt.assert_allclose(running_mean, 0.1 * mu, atol=1e-12)
    npt.assert_allclose(running_var, 0.9 * 1.0 + 0.1 * var * m / (m - 1), atol=1e-12)
    # eval mode must use the running stats, not the batch
    y, _, _ = tensor.batchnorm2d(np.zeros_like(x), np.ones(2), np.zeros(2),
                                 running_mean, running_var, train=False)
    expected = -running_mean / np.sqrt(running_var + 1e-5)
    npt.assert_allclose(y[0, :, 0, 0], expected, atol=1e-12)


def test_eval_batchnorm_matches_the_oracle_on_random_running_stats():
    rng = np.random.default_rng(31)
    x = rand(rng, 3, 4, 5, 5) * 2 + 1
    running_mean, running_var = rng.normal(0.0, 1.0, 4), rng.uniform(0.1, 3.0, 4)
    saved = running_mean.copy(), running_var.copy()
    gamma, beta = rng.uniform(0.5, 1.5, 4), rng.normal(0.0, 0.5, 4)
    out, mean, var = tensor.batchnorm2d(x, gamma, beta, running_mean, running_var, train=False)
    c = (None, slice(None), None, None)
    want = gamma[c] * (x - saved[0][c]) / np.sqrt(saved[1][c] + tensor.BN_EPS) + beta[c]
    npt.assert_allclose(out, want, rtol=0, atol=1e-12)
    # the moments it returns are copies, and the running stats stay put
    npt.assert_array_equal(mean, saved[0])
    npt.assert_array_equal(var, saved[1])
    assert not np.shares_memory(mean, running_mean) and not np.shares_memory(var, running_var)
    npt.assert_array_equal(running_mean, saved[0])
    npt.assert_array_equal(running_var, saved[1])


def test_batchnorm_update_can_be_disabled():
    rng = np.random.default_rng(7)
    running_mean, running_var = np.zeros(2), np.ones(2)
    tensor.batchnorm2d(rand(rng, 2, 2, 2, 2), np.ones(2), np.zeros(2), running_mean, running_var,
                       train=True, update_running=False)
    npt.assert_array_equal(running_mean, np.zeros(2))
    npt.assert_array_equal(running_var, np.ones(2))


def test_batchnorm_rejects_single_value_batches():
    with pytest.raises(ValueError):
        tensor.batchnorm2d(np.zeros((1, 2, 1, 1)), np.ones(2), np.zeros(2),
                           np.zeros(2), np.ones(2), train=True)


# -- activations ------------------------------------------------------------------


def test_activation_point_values():
    assert tensor.activation(np.array([[[[0.0]]]]), "sigmoid")[0, 0, 0, 0] == 0.5
    out = tensor.activation(np.array([[[[-1.5, 2.0]]]]), "relu")
    npt.assert_array_equal(out, [[[[0.0, 2.0]]]])


def test_sigmoid_symmetry():
    rng = np.random.default_rng(8)
    x = rng.standard_normal(100) * 4
    s = tensor.activation(x[None, None, None, :], "sigmoid")
    s_neg = tensor.activation(-x[None, None, None, :], "sigmoid")
    npt.assert_allclose(s + s_neg, 1.0, atol=1e-12)


def test_sigmoid_strictly_inside_unit_interval_even_when_saturated():
    x = np.array([[[[-1e4, -50.0, 0.0, 50.0, 1e4]]]])
    s = tensor.activation(x, "sigmoid")
    assert (s > 0).all() and (s < 1).all()


def masked_sigmoid(x):
    """The two-sided logistic by boolean-mask indexing, clipped to (0, 1)."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    info = np.finfo(out.dtype)
    return np.clip(out, info.smallest_normal, 1.0 - info.epsneg)


def test_sigmoid_is_bit_identical_to_the_masked_formula():
    edges = np.array([0.0, -0.0, 745.0, -745.0, 1e308, -1e308, np.inf, -np.inf])
    draws = np.random.default_rng(9).standard_normal(1 << 22)
    for x in (edges, draws):
        x = x[None, None, None, :]
        with np.errstate(over="ignore"):
            want = masked_sigmoid(x)
        npt.assert_array_equal(tensor.activation(x, "sigmoid").view(np.int64), want.view(np.int64))


def test_activation_unknown_kind():
    with pytest.raises(ValueError):
        tensor.activation(np.zeros((1, 1, 1, 1)), "tanh")


# -- concat / hadamard -------------------------------------------------------------


def test_concat_shapes_and_order():
    rng = np.random.default_rng(9)
    a, b = rand(rng, 1, 4, 3, 3), rand(rng, 1, 4, 3, 3)
    cat = tensor.concat_channels(a, b)
    assert cat.shape == (1, 8, 3, 3)
    npt.assert_array_equal(cat[:, :4], a)
    npt.assert_array_equal(cat[:, 4:], b)


def test_concat_zero_channel_identity():
    rng = np.random.default_rng(10)
    a = rand(rng, 2, 3, 4, 4)
    empty = np.zeros((2, 0, 4, 4))
    npt.assert_array_equal(tensor.concat_channels(a, empty), a)
    npt.assert_array_equal(tensor.concat_channels(empty, a), a)


def test_concat_mismatch_names_axis():
    with pytest.raises(DimensionError) as e:
        tensor.concat_channels(np.zeros((1, 2, 3, 3)), np.zeros((1, 2, 4, 3)))
    assert e.value.axis == "height"


def test_hadamard_identities():
    rng = np.random.default_rng(11)
    a = rand(rng, 2, 3, 2, 2)
    npt.assert_array_equal(tensor.hadamard(a, np.ones_like(a)), a)
    npt.assert_array_equal(tensor.hadamard(a, np.zeros_like(a)), np.zeros_like(a))
    with pytest.raises(DimensionError):
        tensor.hadamard(a, np.zeros((2, 3, 2, 3)))


def test_hadamard_with_sigmoid_attenuates():
    rng = np.random.default_rng(12)
    a = rand(rng, 1, 2, 4, 4)
    gate = tensor.activation(rand(rng, 1, 2, 4, 4), "sigmoid")
    out = tensor.hadamard(a, gate)
    assert (np.abs(out) <= np.abs(a)).all()
    assert (np.abs(out)[a != 0] < np.abs(a)[a != 0]).all()


# -- pooling ------------------------------------------------------------------------


def test_global_avg_constant():
    out = tensor.pool2d(np.full((2, 3, 5, 4), 2.5), "global_avg")
    assert out.shape == (2, 3, 1, 1)
    npt.assert_allclose(out, 2.5)


def test_maxpool_single_window():
    x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
    out = tensor.pool2d(x, "max", window=2, stride=2)
    assert out.shape == (1, 1, 1, 1)
    assert out[0, 0, 0, 0] == 4.0


def test_maxpool_matches_naive_oracle():
    rng = np.random.default_rng(13)
    x = rand(rng, 2, 3, 6, 6)
    npt.assert_array_equal(tensor.pool2d(x, "max", 2, 2), oracles.maxpool_naive(x, 2, 2))
    # overlapping windows too
    npt.assert_array_equal(tensor.pool2d(x, "max", 3, 1), oracles.maxpool_naive(x, 3, 1))


def test_pool_window_too_large():
    with pytest.raises(DimensionError):
        tensor.pool2d(np.zeros((1, 1, 3, 3)), "max", window=4)


# -- linear / softmax ---------------------------------------------------------------


def test_linear_identity_and_bias():
    rng = np.random.default_rng(14)
    x = rand(rng, 3, 4)
    npt.assert_allclose(tensor.linear(x, np.eye(4), np.zeros(4)), x, atol=1e-15)
    b = np.array([1.0, -2.0])
    out = tensor.linear(x, np.zeros((2, 4)), b)
    npt.assert_array_equal(out, np.tile(b, (3, 1)))


def test_linear_matches_naive_oracle():
    rng = np.random.default_rng(15)
    x, w, b = rand(rng, 2, 3), rand(rng, 4, 3), rand(rng, 4)
    npt.assert_allclose(tensor.linear(x, w, b), oracles.linear_naive(x, w, b), atol=1e-12)


def test_softmax_ce_equal_logits():
    logits = np.zeros((3, 7))
    loss, probs = tensor.softmax_cross_entropy(logits, np.array([0, 3, 6]))
    npt.assert_allclose(loss, np.log(7.0), atol=1e-12)
    npt.assert_allclose(probs, 1.0 / 7.0, atol=1e-12)


def test_softmax_ce_huge_logit_is_stable():
    logits = np.zeros((1, 7))
    logits[0, 2] = 1000.0
    loss, probs = tensor.softmax_cross_entropy(logits, np.array([2]))
    assert np.isfinite(loss) and loss < 1e-12
    assert np.isfinite(probs).all()


def test_softmax_ce_matches_extended_precision_oracle():
    rng = np.random.default_rng(16)
    logits = rand(rng, 3, 7) * 5
    labels = np.array([1, 4, 6])
    loss, probs = tensor.softmax_cross_entropy(logits, labels)
    ref_loss, ref_probs = oracles.softmax_ce_mp(logits, labels)
    npt.assert_allclose(loss, ref_loss, atol=1e-10)
    npt.assert_allclose(probs, ref_probs, atol=1e-10)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(17)
    for _ in range(20):
        logits = rand(rng, 4, 7) * 10
        _, probs = tensor.softmax_cross_entropy(logits, np.zeros(4, dtype=int))
        npt.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        npt.assert_allclose(tensor.softmax(logits), probs, atol=1e-15)


def test_softmax_ce_label_out_of_range():
    with pytest.raises(ValueError):
        tensor.softmax_cross_entropy(np.zeros((2, 7)), np.array([0, 7]))


# -- cross-cutting invariants --------------------------------------------------------


def test_output_shape_is_function_of_input_shape_only():
    rng = np.random.default_rng(18)
    for _ in range(20):
        n, ic, oc = (int(rng.integers(1, 3)) for _ in range(3))
        k = int(rng.integers(1, 4))
        stride = int(rng.integers(1, 3))
        pad = int(rng.integers(0, 2))
        h = int(rng.integers(k, 8))
        w = int(rng.integers(k, 8))
        spec = ConvSpec(oc, ic, k, k, stride=stride, padding=pad, has_bias=False)
        shapes = {
            tensor.conv2d(rand(rng, n, ic, h, w), rand(rng, *spec.weight_shape), None, spec).shape
            for _ in range(3)}
        assert len(shapes) == 1
        oh, ow = tensor.conv_output_hw(spec, h, w)
        assert shapes.pop() == (n, oc, oh, ow)


def test_kernels_are_deterministic():
    rng = np.random.default_rng(19)
    x = rand(rng, 2, 3, 5, 5)
    w = rand(rng, 4, 3, 3, 3)
    spec = ConvSpec(4, 3, 3, 3, padding=1, has_bias=False)
    npt.assert_array_equal(tensor.conv2d(x, w, None, spec), tensor.conv2d(x, w, None, spec))
    npt.assert_array_equal(tensor.activation(x, "sigmoid"), tensor.activation(x, "sigmoid"))


def test_kernels_keep_finite_inputs_finite():
    rng = np.random.default_rng(20)
    x = rand(rng, 2, 4, 6, 6) * 100
    w = rand(rng, 4, 4, 3, 3)
    spec = ConvSpec(4, 4, 3, 3, padding=1, has_bias=False)
    for out in (tensor.conv2d(x, w, None, spec),
                tensor.activation(x, "sigmoid"),
                tensor.pool2d(x, "max", 2, 2),
                tensor.batchnorm2d(x, np.ones(4), np.zeros(4), np.zeros(4), np.ones(4), True)[0]):
        assert np.isfinite(out).all()
