"""Memory of one train step of a network preset (tape, peak RSS) and of its eval forward.

Usage: python3 scripts/step_memory.py PRESET [--size PX] [--batch N] [--steps S]

Examples:

    python3 scripts/step_memory.py tiny --size 32 --batch 35
    python3 scripts/step_memory.py tiny --size 28 --batch 10 --steps 5
    python3 scripts/step_memory.py resnet18 --size 112 --batch 16
    (ulimit -v 7000000; python3 scripts/step_memory.py resnet18 --size 112 --batch 32)

Builds PRESET at PX x PX with random weights and a random batch of N images,
then runs one ``training.train_step`` (forward with a tape, then a backward
sweep that folds each weight gradient into its momentum buffer as soon as it
is final, then the update), the step ``train_epoch`` runs, on one BLAS
thread, and reads the process's peak RSS from ``resource.getrusage`` after
it; the peak covers the whole process, weights and batch included. Then it
runs the step's forward once more under ``tracemalloc`` and prints the
traced bytes the forward leaves alive when ``backward`` starts: the tape and
the loss. It runs that backward, handing each gradient to a sink that drops
it, and prints the traced peak of the sweep above those bytes: the
cotangents in flight and the adjoints' working arrays, less what the sweep
has freed of the tape by then. Last, it prints the ``tracemalloc`` peak of
one no-record ``network.network_forward`` on the same batch, what evaluation
runs: the maps of one module at a time plus a conv's working buffers.

A second table splits what the tape of that forward keeps by the op that
made each array: ``autodiff.tape_arrays`` lists the arrays the tape holds,
each counted once, and a graph that notes the op behind each output names
them. Params are left out; arrays no op made (batch norm's moments, the
labels) and outputs of the other ops count as "other".

With ``--steps S`` it then times two kinds of step, each once to warm up and
then S times: that no-record forward and the train step. For each kind it
prints the wall, user and system seconds and the minor page faults per step,
read from ``resource.getrusage`` around the steps. Minor faults per step
that stay in the thousands after warm-up mean the process hands freed memory
back to the OS and faults it in again on the next op.

A step that does not fit ends with a ``MemoryError`` message and exit 1.
Cap the address space of the shell it runs in (``ulimit -v`` KiB) to get
that and not an out-of-memory kill.
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
import tracemalloc  # noqa: E402
import weakref  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from llanet import autodiff, network, training  # noqa: E402

MIB = 1024.0 * 1024.0
KEPT_OPS = ("conv2d", "batchnorm2d", "relu", "add", "sigmoid", "hadamard")


class _Labelled(autodiff.GradGraph):
    """Notes the op that made each output's base array, by ``id``; a weak
    reference tells an array that has died from a later one with its id."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.made = {}

    def _record(self, value, backprop, label, *inputs):
        base = value
        while isinstance(base, np.ndarray) and isinstance(base.base, np.ndarray):
            base = base.base
        if isinstance(base, np.ndarray):
            self.made[id(base)] = (weakref.ref(base), label)
        return super()._record(value, backprop, label, *inputs)


def kept_by_op(forward, store) -> dict[str, int]:
    """Bytes the tape of ``forward(graph)`` keeps, by the op that made each
    array, params left out; "other" for the rest."""
    graph = _Labelled(sink=lambda name, grad: None)
    loss = forward(graph)
    params = {id(p.value) for p in store}
    kept = dict.fromkeys((*KEPT_OPS, "other"), 0)
    for array in autodiff.tape_arrays(graph):
        if id(array) in params:
            continue
        ref, label = graph.made.get(id(array), (None, "other"))
        kept[label if ref is not None and ref() is array and label in kept else "other"] += \
            array.nbytes
    del loss
    return kept


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
    ap.add_argument("--steps", type=int, default=0,
                    help="timed steps of each kind after the memory table (default 0: none)")
    args = ap.parse_args(argv)
    if args.size < 1 or args.batch < 1 or args.steps < 0:
        ap.error("--size and --batch must be >= 1, --steps >= 0")

    cfg = dataclasses.replace(network.preset(args.preset), input_shape=(3, args.size, args.size))
    store = network.init_network(cfg)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((args.batch, 3, args.size, args.size))
    labels = rng.integers(0, cfg.num_classes, args.batch)
    train_cfg = training.TrainConfig(batch_size=args.batch)
    state = training.OptimizerState(store, train_cfg)

    def loss_of(graph):
        return network.network_loss_graph(graph, x, labels, store, cfg, train=True)[1]

    def forward():
        graph = autodiff.GradGraph(sink=lambda name, grad: None)
        return graph, loss_of(graph)

    # the step's forward ends when its loss graph returns
    loss_graph, forward_done = training.network_loss_graph, []

    def timed_loss_graph(*a, **kw):
        out = loss_graph(*a, **kw)
        forward_done.append(time.perf_counter())
        return out

    print(f"{args.preset} at {args.size} px, batch {args.batch}, one train step:")
    try:
        training.network_loss_graph = timed_loss_graph
        t0 = time.perf_counter()
        training.train_step(store, state, x, labels, cfg, train_cfg.base_lr)
        t2 = time.perf_counter()
        training.network_loss_graph = loss_graph
        t1 = forward_done[0]
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
        tracemalloc.start()
        try:
            graph, loss = forward()
            kept = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            graph.backward(loss)
            backward_peak = tracemalloc.get_traced_memory()[1] - kept
            del graph, loss
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            network.network_forward(x, store, cfg)
            eval_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    except MemoryError as e:
        print(f"does not fit: MemoryError {e}".rstrip(), file=sys.stderr)
        return 1
    print("| forward s | backward + sgd s | forward leaves alive MiB "
          "| backward peak above them MiB | peak RSS MiB | eval forward peak MiB |")
    print("|---|---|---|---|---|---|")
    print(f"| {t1 - t0:.2f} | {t2 - t1:.2f} | {kept / MIB:.0f} | {backward_peak / MIB:.0f} "
          f"| {peak / MIB:.0f} | {eval_peak / MIB:.0f} |")
    by_op = kept_by_op(loss_of, store)
    print("\nwhat the forward's tape keeps, by the op that made each array, params left out:")
    print("| kept MiB | " + " | ".join(by_op) + " |")
    print("|---" * (len(by_op) + 1) + "|")
    print(f"| {sum(by_op.values()) / MIB:.1f} | "
          + " | ".join(f"{v / MIB:.1f}" for v in by_op.values()) + " |")
    if not args.steps:
        return 0

    def train_step():
        training.train_step(store, state, x, labels, cfg, train_cfg.base_lr)

    print(f"\n{args.steps} steps of each kind after one warm-up, per step:")
    print("| step | wall s | user s | sys s | minor faults |")
    print("|---|---|---|---|---|")
    for name, step in (("forward (no record)", lambda: network.network_forward(x, store, cfg)),
                       ("train step", train_step)):
        r = per_step(step, args.steps)
        print(f"| {name} | {r['wall_s']:.4f} | {r['user_s']:.4f} | {r['sys_s']:.4f} "
              f"| {r['minor_faults']:.0f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
