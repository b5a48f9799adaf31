"""Dense NCHW tensor kernels.

Feature maps are plain numpy arrays of shape (n, c, h, w) - batch, channels,
height, width - stored row-major. No kernel names a float dtype: each
computes in the dtype of its inputs. ``DEFAULT_DTYPE`` (float64) is applied only
where values enter: a ``Param``, a graph constant and ``weighted_sum``'s
probe in ``llanet.autodiff``, and an image in ``llanet.data.to_tensor``.
The forward kernels here are the only copy of the forward math: the ops of
``llanet.autodiff`` take their values from them, and their adjoints rebuild
what only the backward pass needs with the helpers here:
``conv2d_weight_grad`` and ``conv2d_input_grad`` for the conv, ``_windows``
for the max pool's window view, and ``_normalize``, which batch norm's
train-mode kernel and its adjoint share so both normalize with the same
``BN_EPS``.
``batchnorm2d`` returns the per-channel moments it normalized with, which
its adjoint reads; in eval mode it is the fixed per-channel affine map
``x * scale + shift``. Batch norm's running mean and variance are two arrays
the caller owns and passes in (the network's are entries of its
``ParamStore``); train mode updates them in place, so kernels keep no hidden
state.

A conv's input is a map or a tuple of maps read as one, their channels in
order (the attention gate's ``F_pre``, ``F_cur``). Both layouts pad their
input into a buffer of their own, and a tuple's maps are copied into it
directly, so the concat is never formed. A conv runs in one of two layouts,
picked from its shapes alone:

- im2col: the sliding-window view is copied to a (n, c*kh*kw, oh*ow) column
  matrix for one GEMM per image with K = c*kh*kw. Its adjoint takes dW as
  one GEMM dy_i @ cols_i^T per image on the same column copy, the products
  added in image order, and dx as one GEMM W^T @ dy_i per image into the
  column shape plus a kh*kw-pass col2im.
- taps (stride 1 only; the kn2row/MEC family of low-memory convs): the input
  is zero-padded into (n, c, hp + 1, wp) and viewed flat as
  (n, c, (hp + 1) * wp). Kernel tap (i, j) reads the slice at offset
  i*wp + j of length oh*wp, which BLAS takes with no copy, so the conv is
  kh*kw GEMMs with K = c and no column matrix. Each output row carries
  wp - ow garbage columns, dropped at the end; the spare row keeps the last
  tap's slice in bounds. The layout has a forward and a weight gradient:
  the latter zero-pads dy to width wp, so the garbage columns add nothing,
  and dW[:, :, i, j] is one GEMM dy_pad @ tap^T per image, the images'
  products added in image order. The input gradient is the tap forward of
  the transposed conv: dy correlated with the flipped kernel, in and out
  channels swapped, at padding k - 1 - p.

The forward, dW and dx of both layouts walk the batch in blocks
(``_padded_blocks``; the tap dx is a tap forward, and the im2col dx walks
dy): as many images as fit ``CONV_BLOCK_BYTES`` with their padded input and
output (and, for im2col, their share of the column matrix), at least one.
Each block is padded into one reused buffer, and the block's GEMMs run on
it. The small-channel convs of a ``tiny`` step (K = 3 to 32) are bound by
memory traffic, not by FLOPs: at batch 35 and 32 px a whole-batch padded
input, output and tap partial are about 2.4 MB each, so each of the kh*kw
tap GEMMs would stream them from L3. The budget, 1 MiB, is about half of a
core's L2 on the reference machine, leaving room for the weights and the
partial sums. A batch that fits one block takes the loop once on the whole
batch, and no im2col column matrix, nor its gradient, is ever larger than
one block's. Each image's GEMMs and the order of every sum are those of a
whole-batch pass, so blocking changes no bit, save in the tap dW of a conv
with one in and one out channel, whose per-image products NumPy sums
pairwise rather than in order.

Taps pay a copy of the weight permuted to (kh, kw, o, c) per call and run
GEMMs with K = c rather than c*kh*kw; both outweigh the saved column matrix
once the weight (kh*kw*o per input channel) is larger than the output map
(oh*ow per channel), as on small maps with wide channels. And the tap dW
reads dy once per tap, which costs more than copying the column matrix when
that has fewer rows (kh*kw*c) than dy (o), as for a 3-channel stem with 64
out channels. So a conv runs on taps, forward and adjoint alike, when it is
stride 1 with a square kernel of more than one tap and a padding below the
kernel (so the transposed conv has a padding too), its map is at least that
large and its column matrix is no smaller than dy (``_on_taps``); every
other conv runs on im2col. A conv on taps sums in a different order, so its
values can differ from im2col in the last bits. ``scripts/conv_layouts.py``
times both layouts on every conv of a preset.

The large conv GEMMs run on two threads. llanet pins NumPy's bundled
OpenBLAS to one thread at import (``blas_threads``), and a GEMM whose
per-image share reaches ``SPLIT_FLOPS`` is split in two parts by output
rows (``_parts``); every other GEMM is one part. Each kernel runs its
per-block work once through ``_in_parts``, on the whole row range or on
its two parts: the im2col forward and dW and both tap loops by out
channels, each tap part running the whole tap loop on its rows with its
own rows of the scratch; the im2col dx by input channels, so each part's
col2im writes only its own channels. The second part runs on a second
thread when the process may use two CPUs (``conv_workers``), and after
the first otherwise. A split GEMM can differ from the whole one in
the last bits (on resnet18 at 112 px, every GEMM with 196 output columns
does), so the split is fixed by the GEMM's shape and never by the worker
count: neither the worker count nor ``OPENBLAS_NUM_THREADS`` changes a bit.
OpenBLAS picks its kernels by CPU, so bits can still differ across CPU
generations. Every micro and tiny GEMM is below the threshold, so those
presets run on one thread exactly as before.
"""

from __future__ import annotations

import ctypes
import functools
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DEFAULT_DTYPE = np.float64

# Allocator policy, set once when llanet is imported. Every kernel returns a
# fresh array, and glibc's default policy puts each one over 128 KiB on its own
# mmap or trims the freed heap top, so the next op page-faults the same memory
# back in. One BLAS thread, a ten-crop eval round of 210 tiny images took 317k
# minor faults and 0.87 s of system time out of 3.5 s wall. Taking arrays up
# to 32 MiB (the largest mmap threshold every 64-bit glibc accepts) from the
# heap and keeping up to 1 GiB of free heap top cuts that to a handful of
# faults a round, with the same peak RSS and the same output bits. A 16 MiB
# mmap threshold left 26k faults a resnet18 train round, and a 128 MiB trim
# threshold 35k. mallopt takes a C int, so a threshold of 4 GiB would wrap to 0.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 32 << 20
_TRIM_THRESHOLD_BYTES = 1 << 30


def _keep_freed_heap() -> bool:
    """Set glibc's mmap and trim thresholds; return whether both took.

    The mmap threshold goes first: setting either one turns off glibc's
    dynamic threshold, and a trim threshold alone would leave every array
    over 128 KiB on mmap. Where the C library is not glibc this does nothing.
    """
    try:
        if not (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc"):
            return False
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, ValueError, OSError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES) != 1:
        return False
    return mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES) == 1


_keep_freed_heap()


def _openblas(libs: Path):
    """The set-threads, get-threads and get-config functions of the OpenBLAS
    that NumPy bundles in ``libs`` (its ``numpy.libs``), through ``ctypes``,
    or None where there is none or it lacks these symbols. NumPy 2 bundles
    ``libscipy_openblas64_*.so`` (``scipy_openblas_*64_``), NumPy 1
    ``libopenblas64_*.so`` (``openblas_*64_``). The library is already
    loaded, so this opens the same copy NumPy calls."""
    for path in sorted(libs.glob("lib*openblas*.so*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("scipy_", ""), ("", "")):
            names = [f"{prefix}openblas_{f}{suffix}"
                     for f in ("set_num_threads", "get_num_threads", "get_config")]
            if all(hasattr(lib, name) for name in names):
                set_threads, get_threads, get_config = (getattr(lib, name) for name in names)
                set_threads.argtypes = (ctypes.c_int,)
                get_threads.restype = ctypes.c_int
                get_config.restype = ctypes.c_char_p
                return set_threads, get_threads, get_config
    return None


# Set only when OpenBLAS runs more threads: a set call at the same count still
# raised train-tiny's peak RSS by about 1.4 MB (OPENBLAS_NUM_THREADS=1, 20 s).
_OPENBLAS = _openblas(Path(np.__file__).resolve().parent.parent / "numpy.libs")
if _OPENBLAS is not None and _OPENBLAS[1]() != 1:
    _OPENBLAS[0](1)


def blas_threads() -> int | None:
    """The BLAS thread count llanet pinned at import (1), or None where it
    found no OpenBLAS to pin, so that the bits may depend on
    ``OPENBLAS_NUM_THREADS``."""
    return None if _OPENBLAS is None else _OPENBLAS[1]()


def blas_config() -> str:
    """The bundled OpenBLAS's build and the core it picked its kernels for,
    or "unknown" where there is none to ask."""
    if _OPENBLAS is None:
        return "unknown"
    return _OPENBLAS[2]().decode("ascii", "replace").strip()


# Byte budget of one conv batch block: its padded input plus its output, and
# for im2col its column matrix. About half of a core's 2 MiB L2 on the
# reference machine, so each tap GEMM of a block reads from L2 rather than
# L3. A tiny train step at batch 35 (best of 25 steps, one BLAS thread,
# three runs) took 96-99 ms at 1 MiB, 93-102 ms at 512 KiB, 99-108 ms at
# 256 KiB, 114-117 ms at 2 MiB and 125-159 ms with no blocking.
CONV_BLOCK_BYTES = 1 << 20

# Per-image FLOPs (2 * rows * inner * columns of the GEMM an image's share of
# a conv forms) from which the GEMM is split in two by output rows. Every
# resnet18 GEMM at 112 px is 43 MFLOP or more, every micro and tiny one under
# 3 MFLOP, where a second thread's start-up and hand-off would cost more than
# it saves.
SPLIT_FLOPS = 16_000_000


@functools.cache
def _second_worker():
    """The second conv worker, started by the first split GEMM that may run on
    two CPUs; the calling thread is the first. A forked child has no such
    thread, so it forgets the parent's and starts its own."""
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(1, thread_name_prefix="llanet-conv")


os.register_at_fork(after_in_child=_second_worker.cache_clear)


def conv_workers() -> int:
    """How many threads run a split conv GEMM: two, or one when the process
    may use only one CPU. It never changes the split, so never a bit."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(2, cpus or 1)


def _parts(rows: int, flops: int) -> int:
    """How many row ranges a conv GEMM of ``flops`` per image, with ``rows``
    output rows, is split into: 2 from ``SPLIT_FLOPS`` on, else 1. A
    function of its shape alone."""
    return 2 if rows > 1 and flops >= SPLIT_FLOPS else 1


def _in_parts(rows: int, parts: int, work, *args) -> None:
    """Call ``work(a, b, *args)`` on ``parts`` (1 or 2) row ranges a:b that
    cover ``rows`` and must write disjoint memory. The second range runs on
    the second worker while this thread runs the first, or after it when
    there is one worker.

    The kernels pass their arrays as ``args`` rather than closing over them:
    a closure would turn the kernel's locals into cells, and every kernel,
    split or not, would read them more slowly."""
    if parts == 1:
        work(0, rows, *args)
        return
    half = rows // 2
    if conv_workers() == 1:
        work(0, half, *args)
        work(half, rows, *args)
        return
    second = _second_worker().submit(work, half, rows, *args)
    try:
        work(0, half, *args)
    finally:
        second.result()


def _matmul_rows(a: int, b: int, lhs, rhs, out, total=None) -> None:
    """Rows a:b of ``out`` = rows a:b of ``lhs`` @ ``rhs``, rows being the
    second-to-last axis; then, for a 2-d ``out``, added into rows a:b of
    ``total`` if one is given."""
    np.matmul(lhs[a:b], rhs, out=out[..., a:b, :])
    if total is not None:
        total[a:b] += out[a:b]


# Batch norm: variance floor and running-statistics momentum.
BN_EPS = 1e-5
BN_MOMENTUM = 0.1

AXIS_NAMES = ("batch", "channels", "height", "width")

# Kernel names llanet.autodiff must cover with adjoints.
FORWARD_KERNELS = (
    "conv2d",
    "batchnorm2d",
    "activation",
    "concat_channels",
    "hadamard",
    "pool2d",
    "linear",
    "softmax_cross_entropy",
)


class DimensionError(ValueError):
    """An input violated a kernel's shape contract; ``axis`` names the offender."""

    def __init__(self, message: str, axis: str | None = None):
        super().__init__(message if axis is None else f"{message} [axis: {axis}]")
        self.axis = axis


def _require_nchw(x, name="input") -> np.ndarray:
    x = np.asarray(x)
    if x.ndim != 4:
        raise DimensionError(f"{name} must be rank-4 NCHW, got rank {x.ndim}", axis="rank")
    return x


def _require_joinable(parts: tuple) -> tuple:
    """``parts`` as given, once they agree on batch and spatial dims, so that
    their channels can be read as one map."""
    for part in parts[1:]:
        for axis in (0, 2, 3):
            if part.shape[axis] != parts[0].shape[axis]:
                raise DimensionError(
                    f"operands disagree on {AXIS_NAMES[axis]}: {parts[0].shape[axis]} vs "
                    f"{part.shape[axis]}", axis=AXIS_NAMES[axis])
    return parts


def _mismatch_axis(a: np.ndarray, b: np.ndarray) -> str:
    if a.ndim != b.ndim:
        return "rank"
    for i, (da, db) in enumerate(zip(a.shape, b.shape)):
        if da != db:
            return AXIS_NAMES[i] if a.ndim == 4 else f"dim{i}"
    return "shape"


@dataclass(frozen=True)
class ConvSpec:
    """Static description of a 2-d convolution (cross-correlation, no kernel flip)."""

    out_channels: int
    in_channels: int
    kernel_h: int
    kernel_w: int
    stride: int = 1
    padding: int = 0
    has_bias: bool = True

    def __post_init__(self):
        if self.out_channels < 1 or self.in_channels < 1:
            raise ValueError(f"channel counts must be >= 1, got {self.out_channels}x{self.in_channels}")
        if self.kernel_h < 1 or self.kernel_w < 1:
            raise ValueError(f"kernel dims must be >= 1, got {self.kernel_h}x{self.kernel_w}")
        if self.stride < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")
        if self.padding < 0:
            raise ValueError(f"padding must be >= 0, got {self.padding}")

    @property
    def weight_shape(self) -> tuple[int, int, int, int]:
        return (self.out_channels, self.in_channels, self.kernel_h, self.kernel_w)


def conv_output_hw(spec: ConvSpec, h: int, w: int) -> tuple[int, int]:
    """Output spatial dims for an input of h x w under ``spec``."""
    oh = (h + 2 * spec.padding - spec.kernel_h) // spec.stride + 1
    ow = (w + 2 * spec.padding - spec.kernel_w) // spec.stride + 1
    if oh < 1:
        raise DimensionError(f"kernel {spec.kernel_h} does not fit height {h} with padding {spec.padding}", axis="height")
    if ow < 1:
        raise DimensionError(f"kernel {spec.kernel_w} does not fit width {w} with padding {spec.padding}", axis="width")
    return oh, ow


def _conv_parts(x) -> tuple:
    """The arrays a conv input stands for: ``x`` itself, or a tuple of maps
    read as one input with their channels in order (the gate's ``F_pre``,
    ``F_cur``)."""
    return x if isinstance(x, tuple) else (x,)


def _conv_input_shape(x) -> tuple[int, int, int, int]:
    """(n, c, h, w) of a conv input, a pair's channels summed."""
    parts = _conv_parts(x)
    n, _, h, w = parts[0].shape
    return n, sum(part.shape[1] for part in parts), h, w


def _block_images(n: int, per_image: int) -> int:
    """Images per batch block: as many as fit ``CONV_BLOCK_BYTES`` at
    ``per_image`` bytes each, at least one and at most the batch."""
    return max(1, min(n, CONV_BLOCK_BYTES // per_image))


def _padded_blocks(x, padding: int, spare_rows: int, images: int):
    """Yield ``(start, stop, block)`` over the batch of a conv input, ``images``
    images at a time: ``block`` holds images start:stop zero-padded by
    ``padding`` on every side, plus ``spare_rows`` zero rows at the bottom.

    Every block is padded into the same buffer, whose border is zeroed once,
    and a pair's maps are copied into it directly. A single map with nothing
    to pad is yielded in slices of itself."""
    parts = _conv_parts(x)
    n, c, h, w = _conv_input_shape(x)
    starts = range(0, n, images)
    if len(parts) == 1 and not padding and not spare_rows:
        for s in starts:
            yield s, min(s + images, n), parts[0][s:s + images]
        return
    p = padding
    buf = np.empty((images, c, h + 2 * p + spare_rows, w + 2 * p), dtype=np.result_type(*parts))
    # zero only the border, since every block is copied into the interior
    buf[:, :, :p] = 0.0
    buf[:, :, p + h:] = 0.0
    buf[:, :, p:p + h, :p] = 0.0
    buf[:, :, p:p + h, p + w:] = 0.0
    for s in starts:
        e = min(s + images, n)
        start = 0
        for part in parts:
            buf[:e - s, start:start + part.shape[1], p:p + h, p:p + w] = part[s:e]
            start += part.shape[1]
        yield s, e, buf[:e - s]


def _windows(xp, kh, kw, stride, oh, ow):
    """Read-only sliding-window view (n, c, kh, kw, oh, ow) over a padded input."""
    n, c = xp.shape[:2]
    sn, sc, sh, sw = xp.strides
    return np.lib.stride_tricks.as_strided(
        xp,
        shape=(n, c, kh, kw, oh, ow),
        strides=(sn, sc, sh, sw, sh * stride, sw * stride),
        writeable=False,
    )


def _on_taps(spec: ConvSpec, oh: int, ow: int) -> bool:
    """Whether the conv and its adjoint run on taps: stride 1, a square kernel
    of more than one tap with padding below it, a weight (kh*kw*o per input
    channel) no larger than the output map, and a column matrix (kh*kw*c
    rows) no smaller than dy (o rows)."""
    k = spec.kernel_h
    return (spec.stride == 1 and spec.kernel_w == k > 1 and spec.padding < k
            and oh * ow >= k * k * spec.out_channels and k * k * spec.in_channels >= spec.out_channels)


def _tap_offsets(spec: ConvSpec, wp: int) -> list[int]:
    """Offset of each kernel tap (i, j), row-major, in a flat map of row width ``wp``."""
    return [i * wp + j for i in range(spec.kernel_h) for j in range(spec.kernel_w)]


def _im2col_images(n: int, c: int, h: int, w: int, spec: ConvSpec, oh: int, ow: int,
                   dtype) -> int:
    """Images per im2col batch block, which holds their padded input, their
    column matrix and their output; the forward and both adjoints walk these."""
    p, k = spec.padding, c * spec.kernel_h * spec.kernel_w
    return _block_images(n, dtype.itemsize * (c * (h + 2 * p) * (w + 2 * p)
                                              + (k + spec.out_channels) * oh * ow))


def _im2col_forward(x, weight, spec: ConvSpec, oh: int, ow: int) -> np.ndarray:
    n, c, h, w = _conv_input_shape(x)
    o, k = spec.out_channels, c * spec.kernel_h * spec.kernel_w
    dtype = np.result_type(weight, *_conv_parts(x))
    images = _im2col_images(n, c, h, w, spec, oh, ow, dtype)
    wmat = weight.reshape(o, k)
    out = np.empty((n, o, oh * ow), dtype=dtype)
    parts = _parts(o, 2 * o * k * oh * ow)
    for s, e, block in _padded_blocks(x, spec.padding, 0, images):
        cols = _windows(block, spec.kernel_h, spec.kernel_w, spec.stride, oh, ow)
        _in_parts(o, parts, _matmul_rows, wmat, cols.reshape(e - s, k, oh * ow), out[s:e])
    return out.reshape(n, o, oh, ow)


def _tap_rows(a: int, b: int, taps, offsets, flat, span: int, out, tap) -> None:
    """A tap forward's whole tap loop of one block on out channels a:b, in
    their rows of ``out`` and of the scratch ``tap``."""
    (w0, *rest), (off0, *offs) = taps[:, a:b], offsets
    acc, tap = out[:, a:b], tap[:, a:b]
    np.matmul(w0, flat[:, :, off0:off0 + span], out=acc)
    for w_t, off in zip(rest, offs):
        acc += np.matmul(w_t, flat[:, :, off:off + span], out=tap)


def _tap_forward(x, weight, spec: ConvSpec, oh: int, ow: int) -> np.ndarray:
    """Tap-layout conv; returns a (n, o, oh, ow) view of the (n, o, oh, wp) sums."""
    n, c, h, w = _conv_input_shape(x)
    p, o = spec.padding, spec.out_channels
    wp = w + 2 * p
    span = oh * wp
    dtype = np.result_type(weight, *_conv_parts(x))
    images = _block_images(n, dtype.itemsize * (c * (h + 2 * p + 1) + o * oh) * wp)
    # the weight as a contiguous (kh*kw, o, c), taps in row-major order: numpy
    # would copy a strided weight[:, :, i, j] on every GEMM it is passed to
    taps = weight.transpose(2, 3, 0, 1).reshape(-1, o, c)
    offsets = _tap_offsets(spec, wp)
    out = np.empty((n, o, span), dtype=dtype)
    part = np.empty((images, o, span), dtype=dtype)
    parts = _parts(o, 2 * o * c * len(taps) * span)
    for s, e, block in _padded_blocks(x, p, 1, images):
        _in_parts(o, parts, _tap_rows, taps, offsets, block.reshape(e - s, c, -1), span,
                  out[s:e], part[:e - s])
    return out.reshape(n, o, oh, wp)[..., :ow]


def _im2col_weight_grad(x, dy, spec: ConvSpec) -> np.ndarray:
    n, o, oh, ow = dy.shape
    _, c, h, w = _conv_input_shape(x)
    dtype = np.result_type(dy, *_conv_parts(x))
    if n == 0:
        return np.zeros(spec.weight_shape, dtype=dtype)
    k = c * spec.kernel_h * spec.kernel_w
    images = _im2col_images(n, c, h, w, spec, oh, ow, dtype)
    # one GEMM dy_i @ cols_i^T per image on its forward-layout column copy,
    # the products added in image order; the first goes straight into dW, so
    # batch 1 needs no scratch
    dw = np.empty((o, k), dtype=dtype)
    prod = np.empty_like(dw) if n > 1 else None
    parts = _parts(o, 2 * o * oh * ow * k)
    for s, e, block in _padded_blocks(x, spec.padding, 0, images):
        cols = _windows(block, spec.kernel_h, spec.kernel_w, spec.stride, oh, ow)
        for i in range(s, e):
            _in_parts(o, parts, _matmul_rows, dy[i].reshape(o, oh * ow),
                      cols[i - s].reshape(k, oh * ow).T, prod if i else dw, dw if i else None)
    return dw.reshape(spec.weight_shape)


def _tap_grad_rows(a: int, b: int, dw, offsets, d, flat, span: int, prods, first: int) -> None:
    """A tap dW's whole tap loop of one block on out channels a:b, in their
    rows of ``dw`` and of the scratch ``prods``, each tap's rows summed from
    row ``first``."""
    d, prods = d[:, a:b], prods[:, a:b]
    images_rows, summed_rows = prods[1:len(d) + 1], prods[first:len(d) + 1]
    for dw_t, off in zip(dw[:, a:b], offsets):
        prods[0] = dw_t
        np.matmul(d, flat[:, :, off:off + span].transpose(0, 2, 1), out=images_rows)
        summed_rows.sum(axis=0, out=dw_t)


def _tap_weight_grad(x, dy, spec: ConvSpec) -> np.ndarray:
    n, o, oh, ow = dy.shape
    _, c, h, w = _conv_input_shape(x)
    p = spec.padding
    wp = w + 2 * p
    span = oh * wp
    offsets = _tap_offsets(spec, wp)
    dtype = np.result_type(dy, *_conv_parts(x))
    images = _block_images(n, dtype.itemsize * (c * (h + 2 * p + 1) + o * oh) * wp)
    # dy zero-padded to width wp, so the garbage columns of each tap add nothing
    dyf = np.zeros((images, o, span), dtype=dtype)
    # each tap's per-image products go to rows 1.., and after the first block
    # row 0 carries the tap's sum so far: NumPy sums rows in order, so the
    # products are added in image order, as one sum over the batch adds them
    # (except for a 1 x 1-channel dW, whose rows it sums pairwise)
    prods = np.empty((images + 1, o, c), dtype=dtype)
    dw = np.zeros((len(offsets), o, c), dtype=dtype)
    parts = _parts(o, 2 * o * span * c * len(offsets))
    for s, e, block in _padded_blocks(x, p, 1, images):
        flat = block.reshape(e - s, c, -1)
        d = dyf[:e - s]
        d.reshape(e - s, o, oh, wp)[..., :ow] = dy[s:e]
        _in_parts(o, parts, _tap_grad_rows, dw, offsets, d, flat, span, prods, 0 if s else 1)
    return dw.transpose(1, 2, 0).reshape(spec.weight_shape)


def _col2im_channels(a: int, b: int, wt, dmat, dcols, dxp, spec: ConvSpec, oh: int,
                     ow: int) -> None:
    """An im2col dx's column gradient and col2im of one block on input
    channels a:b, in their rows of ``dcols`` and their channels of ``dxp``."""
    kh, kw, st = spec.kernel_h, spec.kernel_w, spec.stride
    rows = slice(a * kh * kw, b * kh * kw)
    cols = np.matmul(wt[rows], dmat, out=dcols[:, rows])
    dwin = cols.reshape(len(dmat), b - a, kh, kw, oh, ow)
    for i in range(kh):
        for j in range(kw):
            dxp[:, a:b, i:i + st * oh:st, j:j + st * ow:st] += dwin[:, :, i, j]


def _im2col_input_grad(weight, dy, spec: ConvSpec, h: int, w: int) -> np.ndarray:
    n, o, oh, ow = dy.shape
    c, k, p = spec.in_channels, spec.in_channels * spec.kernel_h * spec.kernel_w, spec.padding
    dtype = np.result_type(weight, dy)
    images = _im2col_images(n, c, h, w, spec, oh, ow, dtype)
    wt = weight.reshape(o, -1).T
    dcols = np.empty((images, k, oh * ow), dtype=dtype)
    dxp = np.zeros((n, c, h + 2 * p, w + 2 * p), dtype=dtype)
    parts = _parts(c, 2 * k * o * oh * ow)
    # each block's column gradient W^T dy, then its col2im into the block's rows
    for s, e, d in _padded_blocks(dy, 0, 0, images):
        _in_parts(c, parts, _col2im_channels, wt, d.reshape(e - s, o, oh * ow), dcols[:e - s],
                  dxp[s:e], spec, oh, ow)
    return dxp[:, :, p:p + h, p:p + w] if p else dxp


def _transposed(weight, spec: ConvSpec):
    """The weight and spec of the stride-1 conv whose forward is ``spec``'s
    input gradient: the kernel flipped, in and out channels swapped, padding
    k - 1 - p."""
    return (weight[:, :, ::-1, ::-1].transpose(1, 0, 2, 3),
            ConvSpec(spec.in_channels, spec.out_channels, spec.kernel_h, spec.kernel_w,
                     padding=spec.kernel_h - 1 - spec.padding, has_bias=False))


def conv2d_weight_grad(x, dy, spec: ConvSpec) -> np.ndarray:
    """Gradient of conv2d's weight, given its input ``x`` (a map or a tuple of
    maps, as for ``conv2d``) and output cotangent ``dy``."""
    on_taps = _on_taps(spec, dy.shape[2], dy.shape[3])
    return (_tap_weight_grad if on_taps else _im2col_weight_grad)(x, dy, spec)


def conv2d_input_grad(weight, dy, spec: ConvSpec, h: int, w: int) -> np.ndarray:
    """Gradient of conv2d's h x w input, given its weight and output cotangent ``dy``."""
    if _on_taps(spec, dy.shape[2], dy.shape[3]):
        return _tap_forward(dy, *_transposed(weight, spec), h, w)
    return _im2col_input_grad(weight, dy, spec, h, w)


def conv2d(x, weight, bias, spec: ConvSpec) -> np.ndarray:
    """Cross-correlate ``x`` (n, c, h, w) with ``weight`` (out, in, kh, kw).

    ``x`` may also be a tuple of maps that agree on batch and spatial dims,
    read as one input with their channels in order: the layouts copy each
    into the padded buffer they build anyway, so the concat is never formed.
    """
    x = _require_joinable(tuple(_require_nchw(part) for part in _conv_parts(x)))
    n, c, h, w = _conv_input_shape(x)
    weight = np.asarray(weight)
    if c != spec.in_channels:
        raise DimensionError(
            f"input has {c} channels, spec expects {spec.in_channels}", axis="channels")
    if weight.shape != spec.weight_shape:
        raise DimensionError(
            f"weight shape {weight.shape} does not match spec {spec.weight_shape}", axis="weight")
    if spec.has_bias:
        if bias is None:
            raise DimensionError("spec declares a bias but none was given", axis="bias")
        bias = np.asarray(bias)
        if bias.shape != (spec.out_channels,):
            raise DimensionError(
                f"bias shape {bias.shape} must be ({spec.out_channels},)", axis="bias")
    elif bias is not None:
        raise DimensionError("spec declares no bias but one was given", axis="bias")

    oh, ow = conv_output_hw(spec, h, w)
    out = (_tap_forward if _on_taps(spec, oh, ow) else _im2col_forward)(x, weight, spec, oh, ow)
    if not spec.has_bias:
        return np.ascontiguousarray(out)
    # the im2col output is contiguous and takes the bias in place; a tap view
    # needs a contiguous copy anyway, which the sum makes
    contiguous = out.flags.c_contiguous
    return np.add(out, bias[None, :, None, None], out=out if contiguous else None)


def batch_moments(x) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel mean and population variance over (batch, height, width)."""
    return x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))


def _normalize(x, mean, var):
    """Per-channel (x - mean) / sqrt(var + BN_EPS), plus the broadcastable inverse std.

    The normalized map is one fresh array, scaled in place."""
    inv = (1.0 / np.sqrt(var + BN_EPS))[None, :, None, None]
    xhat = x - mean[None, :, None, None]
    xhat *= inv
    return xhat, inv


def batchnorm2d(x, gamma, beta, running_mean, running_var, train: bool,
                update_running: bool = True) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normalise per channel; train mode uses batch statistics, eval the running ones.

    Returns ``(out, mean, var)``: the output and the per-channel moments it
    normalized with, as arrays of the kernel's own (in eval mode, copies of
    ``running_mean`` and ``running_var``). In train mode those two arrays are
    updated in place with momentum ``BN_MOMENTUM`` (variance with the
    unbiased estimate) unless ``update_running`` is False. Eval mode is a
    fixed per-channel affine map, so it runs as ``x * scale + shift`` in two
    passes.
    """
    x = _require_nchw(x)
    c = x.shape[1]
    gamma, beta = np.asarray(gamma), np.asarray(beta)
    if gamma.shape != (c,):
        raise DimensionError(f"gamma shape {gamma.shape} must be ({c},)", axis="channels")
    if beta.shape != (c,):
        raise DimensionError(f"beta shape {beta.shape} must be ({c},)", axis="channels")
    if not train:
        mean, var = running_mean.copy(), running_var.copy()
        return batchnorm_output(x, gamma, beta, mean, var, train), mean, var
    m = x.shape[0] * x.shape[2] * x.shape[3]
    if m < 2:
        raise ValueError("train-mode batch norm needs at least 2 values per channel")
    mean, var = batch_moments(x)
    if update_running:
        for running, batch in ((running_mean, mean), (running_var, var * (m / (m - 1.0)))):
            running *= 1.0 - BN_MOMENTUM
            running += BN_MOMENTUM * batch
    return batchnorm_output(x, gamma, beta, mean, var, train), mean, var


def batchnorm_output(x, gamma, beta, mean, var, train: bool) -> np.ndarray:
    """Batch norm's output from the per-channel moments it normalizes with.

    Train mode normalizes, then scales and shifts; eval mode applies the
    fixed affine map ``x * scale + shift``. ``batchnorm2d`` computes its
    output here, and a tape that rebuilds that output calls this again with
    the same arrays, so both have the same bits and no running statistic
    moves a second time."""
    if not train:
        scale = gamma / np.sqrt(var + BN_EPS)
        out = x * scale[None, :, None, None]
        out += (beta - mean * scale)[None, :, None, None]
        return out
    out, _ = _normalize(x, mean, var)
    out *= gamma[None, :, None, None]
    out += beta[None, :, None, None]
    return out


def _sigmoid(x):
    # 1 / (1 + e) for x >= 0 and e / (1 + e) below: with e = exp(-|x|) <= 1
    # neither side overflows; max(e, x >= 0) is 1 or e without a mask gather
    e = np.abs(x, dtype=np.result_type(x, 1.0))
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.maximum(e, x >= 0)
    e += 1.0
    out /= e
    # keep the open interval (0, 1) even when exp() underflows
    info = np.finfo(out.dtype)
    np.clip(out, info.smallest_normal, 1.0 - info.epsneg, out=out)
    return out


def activation(x, kind: str) -> np.ndarray:
    """Elementwise nonlinearity; ``kind`` is "relu" or "sigmoid"."""
    x = np.asarray(x)
    if kind == "relu":
        return np.maximum(x, 0.0)
    if kind == "sigmoid":
        return _sigmoid(x)
    raise ValueError(f"unknown activation kind {kind!r}")


def concat_channels(a, b) -> np.ndarray:
    """Stack ``b``'s channels after ``a``'s; batch and spatial dims must agree."""
    return np.concatenate(_require_joinable((_require_nchw(a, "a"), _require_nchw(b, "b"))),
                          axis=1)


def hadamard(a, b) -> np.ndarray:
    """Elementwise product of two identically shaped arrays."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise DimensionError(
            f"shapes {a.shape} and {b.shape} differ", axis=_mismatch_axis(a, b))
    return a * b


def pool2d(x, kind: str, window: int | None = None, stride: int | None = None) -> np.ndarray:
    """Spatial pooling: windowed "max" or whole-map "global_avg" (-> n, c, 1, 1)."""
    x = _require_nchw(x)
    if kind == "global_avg":
        return x.mean(axis=(2, 3), keepdims=True)
    if kind != "max":
        raise ValueError(f"unknown pool kind {kind!r}")
    if window is None or window < 1:
        raise ValueError("max pooling needs a window >= 1")
    stride = window if stride is None else stride
    if stride < 1:
        raise ValueError("stride must be >= 1")
    _, _, h, w = x.shape
    if window > h:
        raise DimensionError(f"window {window} exceeds height {h}", axis="height")
    if window > w:
        raise DimensionError(f"window {window} exceeds width {w}", axis="width")
    oh, ow = (h - window) // stride + 1, (w - window) // stride + 1
    return _windows(x, window, window, stride, oh, ow).max(axis=(2, 3))


def linear(x, weight, bias) -> np.ndarray:
    """Affine map: (n, d) @ (k, d)^T + (k,) -> (n, k)."""
    x = np.asarray(x)
    weight = np.asarray(weight)
    bias = np.asarray(bias)
    if x.ndim != 2 or weight.ndim != 2:
        raise DimensionError("linear expects 2-d input and weight", axis="rank")
    if x.shape[1] != weight.shape[1]:
        raise DimensionError(
            f"input features {x.shape[1]} do not match weight features {weight.shape[1]}",
            axis="features")
    if bias.shape != (weight.shape[0],):
        raise DimensionError(
            f"bias shape {bias.shape} must be ({weight.shape[0]},)", axis="out_features")
    return x @ weight.T + bias


def softmax(logits) -> np.ndarray:
    """Row-wise softmax of a (n, k) matrix, stabilised by max subtraction."""
    logits = np.asarray(logits)
    if logits.ndim != 2:
        raise DimensionError("logits must be 2-d (batch, classes)", axis="rank")
    z = logits - logits.max(axis=1, keepdims=True)
    ez = np.exp(z)
    return ez / ez.sum(axis=1, keepdims=True)


def softmax_cross_entropy(logits, labels) -> tuple[float, np.ndarray]:
    """Mean negative log-likelihood plus the softmax probabilities.

    Numerically stabilised by max subtraction; probability rows sum to 1.
    """
    logits = np.asarray(logits)
    labels = np.asarray(labels)
    if logits.ndim != 2:
        raise DimensionError("logits must be 2-d (batch, classes)", axis="rank")
    n, k = logits.shape
    if k < 2:
        raise ValueError(f"need at least 2 classes, got {k}")
    if labels.shape != (n,):
        raise DimensionError(f"labels shape {labels.shape} must be ({n},)", axis="batch")
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ValueError(f"labels must lie in [0, {k})")
    z = logits - logits.max(axis=1, keepdims=True)
    ez = np.exp(z)
    denom = ez.sum(axis=1, keepdims=True)
    probs = ez / denom
    nll = np.log(denom[:, 0]) - z[np.arange(n), labels]
    return float(nll.mean()), probs
