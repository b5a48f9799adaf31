"""Time and count minor page faults per step of a network preset.

Usage: python3 scripts/heap_faults.py PRESET [--size PX] [--batch N] [--steps S]

Examples:

    python3 scripts/heap_faults.py tiny --size 28 --batch 10
    python3 scripts/heap_faults.py resnet18 --size 112 --batch 1 --steps 2

Builds PRESET at PX x PX with random weights and a random batch of N images,
then runs two kinds of step, each once to warm up and then S times: a
no-record forward (``network_forward``, what evaluation runs) and a train
step (``training.train_step``, the step ``train_epoch`` runs: forward with a
tape, a backward sweep that folds each weight gradient into its momentum
buffer as soon as it is final, then the update). For each kind it prints
the wall, user and system seconds and the minor page faults per step, read
from ``resource.getrusage`` around the steps, one BLAS thread. Minor faults
per step that stay in the thousands after warm-up mean the process hands
freed memory back to the OS and faults it in again on the next op.
"""

import os

# One BLAS thread, as in the benchmark, set before NumPy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from llanet import network, training  # noqa: E402


def per_step(step, steps: int) -> dict:
    """Run ``step`` once to warm up, then ``steps`` times; usage per step."""
    step()
    r0, t0 = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
    for _ in range(steps):
        step()
    t1, r1 = time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF)
    return {"wall_s": (t1 - t0) / steps,
            "user_s": (r1.ru_utime - r0.ru_utime) / steps,
            "sys_s": (r1.ru_stime - r0.ru_stime) / steps,
            "minor_faults": (r1.ru_minflt - r0.ru_minflt) / steps}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("preset", choices=network.PRESET_NAMES)
    ap.add_argument("--size", type=int, default=32, help="image side in px (default 32)")
    ap.add_argument("--batch", type=int, default=10, help="images per step (default 10)")
    ap.add_argument("--steps", type=int, default=5, help="timed steps of each kind (default 5)")
    args = ap.parse_args(argv)
    if args.size < 1 or args.batch < 1 or args.steps < 1:
        ap.error("--size, --batch and --steps must be >= 1")

    cfg = dataclasses.replace(network.preset(args.preset), input_shape=(3, args.size, args.size))
    store = network.init_network(cfg)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((args.batch, 3, args.size, args.size))
    labels = rng.integers(0, cfg.num_classes, args.batch)
    train_cfg = training.TrainConfig(batch_size=args.batch)
    state = training.OptimizerState(store, train_cfg)

    def forward():
        network.network_forward(x, store, cfg)

    def train_step():
        training.train_step(store, state, x, labels, cfg, train_cfg.base_lr)

    print(f"{args.preset} at {args.size} px, batch {args.batch}, {args.steps} steps after "
          f"one warm-up, per step:")
    print("| step | wall s | user s | sys s | minor faults |")
    print("|---|---|---|---|---|")
    for name, step in (("forward (no record)", forward), ("train step", train_step)):
        r = per_step(step, args.steps)
        print(f"| {name} | {r['wall_s']:.4f} | {r['user_s']:.4f} | {r['sys_s']:.4f} "
              f"| {r['minor_faults']:.0f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
