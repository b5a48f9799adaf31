"""Span tracing around the public functions of the llanet modules.

``Tracer.install`` replaces each traced function with a wrapper, in its own
module and in every llanet module that imported it by name (``training``
holds its own reference to ``network_forward``, for example), and wraps the
op methods of ``GradGraph``. Each wrapper records a span: name, start, end,
the span that was open when it began, and a work count where one applies
(GFLOP for ``tensor.conv2d``, entries for ``grad_check``). Spans stay in
memory as flat arrays and are written out as JSON when the run ends.

Memory is taken in a separate round under ``tracemalloc``, with span
recording off, because tracemalloc slows every allocation:
``forward.retained_mb`` is the traced heap when ``backward`` starts and
``backward.peak_mb`` is the peak during ``backward`` above that level.
Live tapes are counted through weak references taken when each
``GradGraph`` is created.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc
import weakref
from array import array

from llanet import attention, autodiff, data, metrics, network, tensor, training

MB = 1024.0 * 1024.0

KERNELS = tensor.FORWARD_KERNELS + ("batch_moments",)

# GradGraph methods that each record one tape node for one differentiable op.
GRAPH_OPS = ("conv2d", "batchnorm2d", "relu", "sigmoid", "concat_channels", "hadamard",
             "add", "maxpool", "global_avg_pool", "flatten", "linear",
             "softmax_cross_entropy", "weighted_sum")


def _conv_gflop(args, kwargs, out):
    spec = args[3] if len(args) > 3 else kwargs["spec"]
    return 2e-9 * out.size * spec.in_channels * spec.kernel_h * spec.kernel_w


def _entries(args, kwargs, report):
    return float(report.checked)


# span name -> (module, attribute, work function or None)
FUNCTIONS = {
    **{f"tensor.{k}": (tensor, k, _conv_gflop if k == "conv2d" else None) for k in KERNELS},
    "attention.gate": (attention, "attention_forward_graph", None),
    "network.forward": (network, "network_forward_graph", None),
    "network.network_forward": (network, "network_forward", None),
    "network.init_network": (network, "init_network", None),
    "network.load_checkpoint": (network, "load_checkpoint", None),
    "network.save_checkpoint": (network, "save_checkpoint", None),
    "training.train_epoch": (training, "train_epoch", None),
    "training.evaluate": (training, "evaluate", None),
    "training.sgd_step": (training, "sgd_step", None),
    "data.load_image": (data, "load_image", None),
    "data.augment_train": (data, "augment_train", None),
    "data.to_tensor": (data, "to_tensor", None),
    "data.ten_crop": (data, "ten_crop", None),
    "data.center_crop": (data, "center_crop", None),
    "metrics.summarize": (metrics, "summarize", None),
    "verify.grad_check": (autodiff, "grad_check", _entries),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self._stack: list[int] = []
        self.recording = True
        self._graphs = weakref.WeakSet()
        self.graphs_alive_max = 0
        self.retained_bytes = 0
        self.backward_peak_bytes = 0
        self.marks: dict[str, int] = {}

    # -- installation ----------------------------------------------------------

    def _wrap(self, name, fn, work_fn=None):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        tracer = self
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            idx = len(tracer.start)
            tracer.span_name.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer.work.append(0.0)
            stack.append(idx)
            t = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = clock()
                tracer.start[idx] = t
                stack.pop()
            if work_fn is not None:
                tracer.work[idx] = work_fn(args, kwargs, out)
            return out

        return functools.wraps(fn)(traced)

    def install(self):
        """Wrap every traced function, wherever an llanet module refers to it."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "llanet" or n.startswith("llanet."))]
        for name, (module, attr, work_fn) in FUNCTIONS.items():
            original = getattr(module, attr)
            wrapped = self._wrap(name, original, work_fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
        graph_cls = autodiff.GradGraph
        for op in GRAPH_OPS:
            setattr(graph_cls, op, self._wrap(f"autodiff.op.{op}", getattr(graph_cls, op)))
        graph_cls.backward = self._wrap("autodiff.backward", self._measured_backward(graph_cls.backward))
        graph_init = graph_cls.__init__

        def init(graph, *args, **kwargs):
            graph_init(graph, *args, **kwargs)
            self._graphs.add(graph)
            if self.recording:
                self.graphs_alive_max = max(self.graphs_alive_max, len(self._graphs))

        graph_cls.__init__ = init

    def _measured_backward(self, backward):
        def measured(graph, root):
            if not tracemalloc.is_tracing():
                return backward(graph, root)
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = backward(graph, root)
            peak = tracemalloc.get_traced_memory()[1]
            self.retained_bytes = max(self.retained_bytes, before)
            self.backward_peak_bytes = max(self.backward_peak_bytes, peak - before)
            return out

        return measured

    # -- phases ----------------------------------------------------------------

    def mark(self, label):
        """Remember where a phase starts in the span arrays."""
        self.marks[label] = len(self.start)
        if label == "timed":
            self.graphs_alive_max = len(self._graphs)

    def memory_round(self, run_round):
        """Run one more round under tracemalloc; span recording stays off after it."""
        self.recording = False
        tracemalloc.start()
        try:
            run_round()
        finally:
            tracemalloc.stop()

    # -- results ---------------------------------------------------------------

    def _totals(self, lo, hi):
        """name -> [inclusive s, self s, calls, work] over spans lo..hi-1."""
        child = [0.0] * (hi - lo)
        dur = [0.0] * (hi - lo)
        for i in range(lo, hi):
            d = self.end[i] - self.start[i]
            dur[i - lo] = d
            p = self.parent[i]
            if p >= lo:
                child[p - lo] += d
        totals = {name: [0.0, 0.0, 0, 0.0] for name in self.names}
        for i in range(lo, hi):
            t = totals[self.names[self.span_name[i]]]
            t[0] += dur[i - lo]
            t[1] += dur[i - lo] - child[i - lo]
            t[2] += 1
            t[3] += self.work[i]
        return totals

    def metrics(self, setup_reps, rounds, items_per_s):
        """Per-layer figures, by metric name, for one set-up plus one round."""
        setup = self._totals(self.marks["setup"], self.marks["timed"])
        timed = self._totals(self.marks["timed"], self.marks["end"])
        per = {name: [setup[name][j] / setup_reps + timed[name][j] / rounds for j in range(4)]
               for name in self.names}
        ops = [per[f"autodiff.op.{op}"] for op in GRAPH_OPS]
        values = {}
        for k in KERNELS:
            values[f"tensor.{k}.s"] = per[f"tensor.{k}"][0]
            values[f"tensor.{k}.calls"] = per[f"tensor.{k}"][2]
        values.update({
            "tensor.conv2d.gflop": per["tensor.conv2d"][3],
            "autodiff.ops.calls": sum(o[2] for o in ops),
            "autodiff.ops.self_s": sum(o[1] for o in ops),
            "autodiff.conv2d.self_s": per["autodiff.op.conv2d"][1],
            "autodiff.batchnorm2d.s": per["autodiff.op.batchnorm2d"][0],
            "autodiff.backward.s": per["autodiff.backward"][0],
            "autodiff.backward.calls": per["autodiff.backward"][2],
            "autodiff.forward.retained_mb": self.retained_bytes / MB,
            "autodiff.backward.peak_mb": self.backward_peak_bytes / MB,
            "autodiff.graphs_alive.max": self.graphs_alive_max,
            "attention.gate.s": per["attention.gate"][0],
            "attention.gate.calls": per["attention.gate"][2],
            "network.forward.s": per["network.forward"][0],
            "network.forward.calls": per["network.forward"][2],
            "network.network_forward.calls": per["network.network_forward"][2],
            "verify.grad_check.entries": per["verify.grad_check"][3],
            "trace.items_per_s": items_per_s,
        })
        for name in ("network.init_network", "network.load_checkpoint", "network.save_checkpoint",
                     "training.train_epoch", "training.evaluate", "training.sgd_step",
                     "data.load_image", "data.augment_train", "data.to_tensor", "data.ten_crop",
                     "data.center_crop", "metrics.summarize", "verify.grad_check"):
            values[f"{name}.s"] = per[name][0]
        values["training.sgd_step.calls"] = per["training.sgd_step"][2]
        return values

    def dump(self, path, **info):
        """Write every span as JSON columns; times are microseconds from the first span."""
        n = self.marks.get("end", len(self.start))
        t0 = self.start[0] if n else 0.0
        doc = dict(info, marks=self.marks, names=self.names,
                   name=self.span_name[:n].tolist(), parent=self.parent[:n].tolist(),
                   start_us=[round((t - t0) * 1e6) for t in self.start[:n]],
                   end_us=[round((t - t0) * 1e6) for t in self.end[:n]],
                   work=self.work[:n].tolist())
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
