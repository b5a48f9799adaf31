"""Reverse-mode differentiation over the NCHW kernels.

A ``GradGraph`` is a tape: every op whose output needs a gradient appends a
``Node`` holding the forward value and a closure that scatters the node's
cotangent to its parents. ``needs_grad`` says which nodes those are: a leaf
needs a gradient when its ``Param`` is trainable and its graph records, a
constant never does, and an op's output does when any of its inputs does.
Any other op output keeps no closure and stays off the tape, so its value
dies by reference counting once nothing reads it; leaves and constants stay
off the tape too. ``GradGraph(record=False)`` runs the same ops for
inference: no node needs a gradient, the tape stays empty and ``backward``
raises.

``backward`` walks the tape in reverse creation order, which is a valid
topological order. It keeps the pending cotangents itself, accumulating
them across fan-out, frees each one as soon as its node's adjoint has run,
and returns a plain dict from trainable-leaf name to gradient. It keeps a
cotangent only for an input that needs a gradient, and the conv adjoint
does not even compute the others (the weight gradient of a frozen gate, the
input gradient of the image batch). Leaves the loss never touched get zero
gradients rather than being dropped, so optimizer code can iterate
parameters unconditionally.

Forward values come from the ``llanet.tensor`` kernels; an op keeps only
what the kernel returns, and arrays that only the backward pass needs (the
conv's padded input, ReLU masks, max-pool winners, the normalized
batch-norm input) are built inside its adjoint. The conv adjoint takes dW
and dx from ``tensor.conv2d_weight_grad`` and ``tensor.conv2d_input_grad``:
stride-1 convs on large enough maps run as kh*kw GEMMs on shifted taps of
one padded buffer (dx as the tap forward of the transposed conv), every
other conv through im2col, and a conv's forward
and adjoint always share a layout (the ``llanet.tensor`` docstring describes
both layouts and the one rule that picks between them). No closure
refers to the graph, so a tape holds no reference cycle and is freed by
reference counting as soon as its last reference goes.

``grad_check`` verifies any loss-building function against central
differences, re-evaluating the loss on graphs that record nothing; a
gradient or difference that is not finite counts as an infinite error, so
it can never pass a tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor
from .tensor import DEFAULT_DTYPE, ConvSpec, DimensionError, RunningStats


class Param:
    """A named trainable leaf.

    ``decay_exempt`` marks parameters (biases, norm scales/shifts) that the
    optimizer should skip when applying weight decay.
    """

    __slots__ = ("name", "value", "trainable", "decay_exempt")

    def __init__(self, name: str, value, trainable: bool = True, decay_exempt: bool = False):
        self.name = name
        self.value = np.asarray(value, dtype=DEFAULT_DTYPE)
        self.trainable = trainable
        self.decay_exempt = decay_exempt

    def __repr__(self):
        flags = "" if self.trainable else ", frozen"
        return f"Param({self.name!r}, shape={self.value.shape}{flags})"


class Node:
    """A graph value; on the tape it also holds its local backward rule and its inputs."""

    __slots__ = ("value", "_backprop", "label", "needs_grad", "inputs")

    def __init__(self, value, backprop=None, label="", needs_grad=False, inputs=()):
        self.value = value
        self._backprop = backprop
        self.label = label
        self.needs_grad = needs_grad
        self.inputs = inputs

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Node({self.label or 'const'}, shape={np.shape(self.value)})"


class GradGraph:
    """Tape of differentiable ops; build a scalar loss, then call ``backward``.

    ``record=False`` builds the same values with no tape, for inference.
    """

    def __init__(self, record: bool = True):
        self.record = record
        self._tape: list[Node] = []
        self._leaves: dict[str, tuple[Param, Node]] = {}

    # -- graph construction -------------------------------------------------

    def _record(self, value, backprop, label, *inputs) -> Node:
        """Tape ``backprop`` only when some input (None for a missing bias) needs a gradient."""
        for x in inputs:  # a plain loop: any() over a generator costs twice the op's overhead
            if x is not None and x.needs_grad:
                node = Node(value, backprop, label, True, inputs)
                self._tape.append(node)
                return node
        return Node(value, label=label)

    def leaf(self, param: Param) -> Node:
        """Enter ``param`` into the graph; repeated calls return the same node."""
        hit = self._leaves.get(param.name)
        if hit is not None:
            if hit[0] is not param:
                raise ValueError(f"two different params share the name {param.name!r}")
            return hit[1]
        node = Node(param.value, label=param.name, needs_grad=self.record and param.trainable)
        self._leaves[param.name] = (param, node)
        return node

    def constant(self, value) -> Node:
        """A non-differentiable input (e.g. an image batch)."""
        return Node(np.asarray(value, dtype=DEFAULT_DTYPE))

    # -- ops -----------------------------------------------------------------

    def conv2d(self, x: Node, weight: Node, bias: Node | None, spec: ConvSpec) -> Node:
        out = tensor.conv2d(x.value, weight.value, None if bias is None else bias.value, spec)

        def backprop(dy, send):
            if weight.needs_grad:
                send(weight, tensor.conv2d_weight_grad(x.value, dy, spec))
            if bias is not None and bias.needs_grad:
                send(bias, dy.sum(axis=(0, 2, 3)))
            if x.needs_grad:
                send(x, tensor.conv2d_input_grad(weight.value, dy, spec, *x.value.shape[2:]))

        return self._record(out, backprop, "conv2d", x, weight, bias)

    def batchnorm2d(self, x: Node, gamma: Node, beta: Node, stats: RunningStats,
                    train: bool, update_running: bool = True) -> Node:
        # eval mode: snapshot so later in-place updates cannot corrupt this adjoint
        snapshot = None if train else (stats.mean.copy(), stats.var.copy())
        out = tensor.batchnorm2d(x.value, gamma.value, beta.value, stats, train, update_running)

        def backprop(dy, send):
            xv = x.value
            mean, var = tensor.batch_moments(xv) if train else snapshot
            xhat, inv = tensor._normalize(xv, mean, var)
            send(gamma, (dy * xhat).sum(axis=(0, 2, 3)))
            send(beta, dy.sum(axis=(0, 2, 3)))
            dxhat = dy * gamma.value[None, :, None, None]
            if train:
                m = xv.shape[0] * xv.shape[2] * xv.shape[3]
                s1 = dxhat.sum(axis=(0, 2, 3))[None, :, None, None]
                s2 = (dxhat * xhat).sum(axis=(0, 2, 3))[None, :, None, None]
                dx = (inv / m) * (m * dxhat - s1 - xhat * s2)
            else:
                dx = dxhat * inv
            send(x, dx)

        return self._record(out, backprop, "batchnorm2d", x, gamma, beta)

    def relu(self, x: Node) -> Node:
        out = tensor.activation(x.value, "relu")

        def backprop(dy, send):
            send(x, dy * (x.value > 0))

        return self._record(out, backprop, "relu", x)

    def sigmoid(self, x: Node) -> Node:
        out = tensor.activation(x.value, "sigmoid")

        def backprop(dy, send):
            send(x, dy * out * (1.0 - out))

        return self._record(out, backprop, "sigmoid", x)

    def concat_channels(self, a: Node, b: Node) -> Node:
        out = tensor.concat_channels(a.value, b.value)
        ca = a.value.shape[1]

        def backprop(dy, send):
            send(a, dy[:, :ca])
            send(b, dy[:, ca:])

        return self._record(out, backprop, "concat", a, b)

    def hadamard(self, a: Node, b: Node) -> Node:
        out = tensor.hadamard(a.value, b.value)
        av, bv = a.value, b.value

        def backprop(dy, send):
            send(a, dy * bv)
            send(b, dy * av)

        return self._record(out, backprop, "hadamard", a, b)

    def add(self, a: Node, b: Node) -> Node:
        if a.value.shape != b.value.shape:
            raise DimensionError(f"add shapes differ: {a.value.shape} vs {b.value.shape}")
        out = a.value + b.value

        def backprop(dy, send):
            send(a, dy)
            send(b, dy)

        return self._record(out, backprop, "add", a, b)

    def maxpool(self, x: Node, window: int, stride: int | None = None) -> Node:
        stride = window if stride is None else stride
        out = tensor.pool2d(x.value, "max", window, stride)

        def backprop(dy, send):
            n, c, oh, ow = dy.shape
            windows = tensor._conv_windows(x.value, window, window, stride, 0)
            winner = windows.reshape(n, c, window * window, oh, ow).argmax(axis=2)
            dx = np.zeros_like(x.value)
            ni, ci, oi, oj = np.indices((n, c, oh, ow))
            rows = oi * stride + winner // window
            cols = oj * stride + winner % window
            np.add.at(dx, (ni, ci, rows, cols), dy)
            send(x, dx)

        return self._record(out, backprop, "maxpool", x)

    def global_avg_pool(self, x: Node) -> Node:
        out = tensor.pool2d(x.value, "global_avg")
        _, _, h, w = x.value.shape

        def backprop(dy, send):
            send(x, np.broadcast_to(dy / (h * w), x.value.shape))

        return self._record(out, backprop, "global_avg_pool", x)

    def flatten(self, x: Node) -> Node:
        n = x.value.shape[0]
        out = x.value.reshape(n, -1)
        shape = x.value.shape

        def backprop(dy, send):
            send(x, dy.reshape(shape))

        return self._record(out, backprop, "flatten", x)

    def linear(self, x: Node, weight: Node, bias: Node) -> Node:
        out = tensor.linear(x.value, weight.value, bias.value)
        xv, wv = x.value, weight.value

        def backprop(dy, send):
            send(weight, dy.T @ xv)
            send(bias, dy.sum(axis=0))
            send(x, dy @ wv)

        return self._record(out, backprop, "linear", x, weight, bias)

    def softmax_cross_entropy(self, logits: Node, labels) -> Node:
        labels = np.asarray(labels)
        loss, probs = tensor.softmax_cross_entropy(logits.value, labels)
        n = len(labels)

        def backprop(dy, send):
            onehot = np.zeros(probs.shape, dtype=DEFAULT_DTYPE)
            onehot[np.arange(n), labels] = 1.0
            send(logits, float(dy) * (probs - onehot) / n)

        return self._record(np.float64(loss), backprop, "softmax_cross_entropy", logits)

    def weighted_sum(self, x: Node, weights) -> Node:
        """Scalar probe <weights, x>; handy for exercising adjoints in isolation."""
        weights = np.asarray(weights, dtype=DEFAULT_DTYPE)
        if weights.shape != x.value.shape:
            raise DimensionError(f"weights shape {weights.shape} != value shape {x.value.shape}")
        out = np.float64((weights * x.value).sum())

        def backprop(dy, send):
            send(x, float(dy) * weights)

        return self._record(out, backprop, "weighted_sum", x)

    def first_non_finite(self) -> tuple[str, str | None] | None:
        """Op kind of the earliest tape node whose value holds a NaN or an inf,
        and the name of the param it reads (its first non-finite one, else its
        first; None for an op that reads no param)."""
        node = next((n for n in self._tape if not np.isfinite(n.value).all()), None)
        if node is None:
            return None
        names = {id(leaf): name for name, (_, leaf) in self._leaves.items()}
        params = [x for x in node.inputs if id(x) in names]
        params.sort(key=lambda leaf: bool(np.isfinite(leaf.value).all()))
        return node.label, names[id(params[0])] if params else None

    # -- backward ------------------------------------------------------------

    def backward(self, root: Node) -> dict:
        """Reverse sweep from a scalar ``root``; returns trainable-leaf gradients."""
        if not self.record:
            raise RuntimeError("backward on a graph built with record=False")
        if np.size(root.value) != 1:
            raise ValueError(f"backward needs a scalar root, got shape {np.shape(root.value)}")
        grads = {root: np.ones_like(root.value, dtype=DEFAULT_DTYPE)}

        def send(parent: Node, grad):
            pending = grads.get(parent)
            if pending is not None:
                pending += grad
            elif parent.needs_grad:
                grads[parent] = np.array(grad, dtype=DEFAULT_DTYPE)

        for node in reversed(self._tape):
            if node in grads:
                node._backprop(grads.pop(node), send)
        return {name: grads[node] if node in grads else np.zeros_like(param.value)
                for name, (param, node) in self._leaves.items() if param.trainable}


# -- numerical verification ---------------------------------------------------


def relative_error(a: float, b: float) -> float:
    """Symmetric relative difference; ``inf`` when either side is not finite."""
    err = abs(a - b) / max(1e-12, abs(a) + abs(b))
    return err if math.isfinite(err) else math.inf


@dataclass
class GradCheckReport:
    """Outcome of a finite-difference sweep: entries compared and the worst relative error."""

    max_error: float = 0.0
    checked: int = 0


def grad_check(make_loss, params, eps: float = 1e-5, max_entries: int | None = None,
               select=None, rng=None) -> GradCheckReport:
    """Compare tape gradients with central differences.

    ``make_loss(graph)`` builds the loss on ``graph`` from the params'
    *current* values and returns the loss node. It runs once on a recording
    graph for the tape gradients, then on a graph with ``record=False`` for
    each entry nudged by +/- ``eps``. ``select`` optionally maps a param name
    to a boolean mask of entries eligible for checking (e.g. to stay away from
    ReLU kinks); ``max_entries`` caps the per-param count by random
    subsampling.
    """
    graph = GradGraph()
    analytic = graph.backward(make_loss(graph))
    rng = np.random.default_rng(0) if rng is None else rng
    report = GradCheckReport()
    for param in params:
        if not param.trainable:
            continue
        grad = analytic[param.name].reshape(-1)
        flat = param.value.reshape(-1)
        indices = np.arange(flat.size)
        if select is not None and param.name in select:
            indices = indices[np.asarray(select[param.name]).reshape(-1)]
        if max_entries is not None and indices.size > max_entries:
            indices = rng.choice(indices, size=max_entries, replace=False)
        for idx in indices:
            saved = flat[idx]
            flat[idx] = saved + eps
            up = float(make_loss(GradGraph(record=False)).value)
            flat[idx] = saved - eps
            down = float(make_loss(GradGraph(record=False)).value)
            flat[idx] = saved
            numeric = (up - down) / (2.0 * eps)
            err = relative_error(float(grad[idx]), numeric)
            report.checked += 1
            report.max_error = max(report.max_error, err)
    return report
