"""Time both conv layouts on every conv of a network preset.

Usage: python3 scripts/conv_layouts.py PRESET [--size PX] [--batch N] [--repeats R]

Examples:

    python3 scripts/conv_layouts.py resnet18 --size 112 --batch 1
    python3 scripts/conv_layouts.py tiny --size 32 --batch 35

Runs one eval forward of PRESET on a batch of N random PX x PX images to
collect the shape of every conv it makes, then, for each distinct conv,
times the forward, the weight gradient (dW) and the input gradient (dx) in
the im2col layout and in the tap layout of ``llanet.tensor`` (best of R
runs, one BLAS thread, random operands), and prints a markdown table with
the layout the kernel's rule picks for all three parts. The timings are of
the kernels as they run, walking the batch in blocks of at most
``tensor.CONV_BLOCK_BYTES``; the blocks column gives how many blocks the
forward, dW and dx of each layout take at batch N. The tap dx is the tap
forward of the transposed conv, as ``tensor.conv2d_input_grad`` runs it. A
conv the tap layout cannot run (stride > 1, a 1x1 or non-square kernel, or a
padding not below the kernel) shows "-" in its tap columns. The totals add
each part of every conv in each layout and in the pick.
"""

import os

# One BLAS thread, as in the benchmark, set before NumPy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from llanet import network, tensor  # noqa: E402


def conv_shapes(preset: str, size: int, batch: int) -> dict:
    """(spec, input shape) -> number of convs of that shape in one forward."""
    cfg = dataclasses.replace(network.preset(preset), input_shape=(3, size, size))
    store = network.init_network(cfg)
    x = np.random.default_rng(0).standard_normal((batch, 3, size, size))
    seen = {}
    conv2d = tensor.conv2d

    def spy(xv, weight, bias, spec):
        key = (spec, tensor._conv_input_shape(xv))  # a gate's pair as one input
        seen[key] = seen.get(key, 0) + 1
        return conv2d(xv, weight, bias, spec)

    tensor.conv2d = spy
    try:
        network.network_forward(x, store, cfg)
    finally:
        tensor.conv2d = conv2d
    return seen


def best_ms(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1e3 * min(times)


def blocks_of(fn) -> int:
    """Number of batch blocks ``fn()`` walks its padded input in."""
    counts = []
    blocks = tensor._padded_blocks

    def spy(*args):
        counts.append(0)
        for item in blocks(*args):
            counts[-1] += 1
            yield item

    tensor._padded_blocks = spy
    try:
        fn()
    finally:
        tensor._padded_blocks = blocks
    return counts[0]


def time_layouts(spec, shape, repeats: int) -> tuple[dict, str]:
    """Best-of-``repeats`` milliseconds per (part, layout), None where taps
    cannot run, and the blocks cell: taps fwd/dW/dx, then im2col fwd/dW/dx."""
    rng = np.random.default_rng(1)
    n, _, h, w = shape
    oh, ow = tensor.conv_output_hw(spec, h, w)
    x = rng.standard_normal(shape)
    weight = rng.standard_normal(spec.weight_shape)
    dy = rng.standard_normal((n, spec.out_channels, oh, ow))
    runs = {
        "im2col": (lambda: tensor._im2col_forward(x, weight, spec, oh, ow),
                   lambda: tensor._im2col_weight_grad(x, dy, spec),
                   lambda: tensor._im2col_input_grad(weight, dy, spec, h, w)),
        "taps": (lambda: np.ascontiguousarray(tensor._tap_forward(x, weight, spec, oh, ow)),
                 lambda: tensor._tap_weight_grad(x, dy, spec),
                 lambda: tensor._tap_forward(dy, *tensor._transposed(weight, spec), h, w)),
    }
    k = spec.kernel_h
    tap_ok = spec.stride == 1 and spec.kernel_w == k > 1 and spec.padding < k
    ms = {(part, layout): best_ms(fn, repeats) if layout == "im2col" or tap_ok else None
          for layout, fns in runs.items() for part, fn in zip(("fwd", "dW", "dx"), fns)}
    blocks = ", ".join(f"{layout} " + "/".join(str(blocks_of(fn)) for fn in runs[layout])
                       for layout in ("taps", "im2col") if layout == "im2col" or tap_ok)
    return ms, blocks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("preset", choices=network.PRESET_NAMES)
    parser.add_argument("--size", type=int, default=None, help="image side in px (default: the preset's)")
    parser.add_argument("--batch", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    size = args.size or network.preset(args.preset).input_shape[1]
    print(f"{args.preset} at {size} px, batch {args.batch}, best of {args.repeats}, ms\n")
    print("| conv | input | count | fwd im2col | fwd taps | dW im2col | dW taps "
          "| dx im2col | dx taps | pick | blocks |")
    print("|---|---|---|---|---|---|---|---|---|---|---|")
    total = defaultdict(float)
    for (spec, shape), count in conv_shapes(args.preset, size, args.batch).items():
        ms, blocks = time_layouts(spec, shape, args.repeats)
        oh, ow = tensor.conv_output_hw(spec, shape[2], shape[3])
        pick = "taps" if tensor._on_taps(spec, oh, ow) else "im2col"
        for part in ("fwd", "dW", "dx"):
            im2col = ms[(part, "im2col")]
            taps = im2col if ms[(part, "taps")] is None else ms[(part, "taps")]
            total[(part, "im2col")] += count * im2col
            total[(part, "taps")] += count * taps
            total[(part, "pick")] += count * (taps if pick == "taps" else im2col)
        cells = " | ".join("-" if ms[key] is None else f"{ms[key]:.1f}"
                           for key in (("fwd", "im2col"), ("fwd", "taps"), ("dW", "im2col"),
                                       ("dW", "taps"), ("dx", "im2col"), ("dx", "taps")))
        name = (f"{spec.in_channels}->{spec.out_channels} {spec.kernel_h}x{spec.kernel_w}"
                f" s{spec.stride} p{spec.padding}")
        print(f"| {name} | {shape[2]}x{shape[3]} | {count} | {cells} | {pick} | {blocks} |")
    print("\ntotals over every conv (ms; a conv taps cannot run counts at im2col):")
    for part in ("fwd", "dW", "dx"):
        print(f"  {part}: im2col {total[(part, 'im2col')]:.0f}, taps {total[(part, 'taps')]:.0f}, "
              f"pick {total[(part, 'pick')]:.0f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
