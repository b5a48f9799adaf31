"""Reverse-mode differentiation over the NCHW kernels.

A ``GradGraph`` is a tape: every op whose output needs a gradient appends a
``Handle`` that holds the op's adjoint, a closure that scatters the output's
cotangent to its inputs' handles. A leaf needs a gradient when its ``Param``
is trainable and its graph records, a constant never does, and an op's
output does when any of its inputs does; a ``Node`` that needs one carries a
handle. Any other op output keeps no closure and stays off the tape, and so
do leaves and constants.
``GradGraph(record=False)`` runs the same ops for inference: no node needs a
gradient, the tape stays empty and ``backward`` raises.

The tape keeps exactly what its adjoints read. A handle holds no value and
never refers to its node, and each closure captures the arrays it reads and
its inputs' handles, never a ``Node``. So an op output that no adjoint reads
dies by reference counting with its last forward use: a batch-norm output
that only feeds an add or a ReLU, a residual sum, the gate's pre-sigmoid
conv output. ReLU masks on its own output, which is positive exactly where
its input is.

What each adjoint keeps: a conv its input, for dW, and its weight, for dx;
batch norm its input, gamma and the kernel's moments; a ReLU and the sigmoid
their output; the product each input, for the other's gradient; max-pool
and the linear head their inputs; the loss its softmax. ``add``, ``concat``,
``flatten`` and global pooling keep none. The cheap elementwise outputs are
remade rather than kept (the cheap-op rule of Chen et al., arXiv:1604.06174):
a taped batch norm's output carries a ``_Remake``, a closure that calls
``tensor.batchnorm_output``, the kernel's own normalize-then-affine code,
again on the input and moments its adjoint keeps anyway, so the bits are
the same and no running statistic moves twice; an ``add``, ``relu`` or
``hadamard`` whose input has a remake gets one that runs its own kernel on
its inputs' arrays or remakes. An adjoint that reads such a node (a conv's
dW, the gate conv's ``(F_pre, F_cur)`` pair included, the ReLU's sign test,
the product's ``dy * f_cur``) keeps the remake instead of the array. In the
sweep the first reader computes the value and the remake caches it, and
reference counting does the rest: a remake is held only by the adjoints
that read its node and by the remakes built on it, until each of those has
run or taken its value, so ReLU outputs, residual sums and gate products
live only between their readers. Adjoints and remakes refer only to
remakes made before them, never to a graph or a node, so there is no cycle
to keep one alive longer. Convs and the sigmoid are never remade: no adjoint
keeps their input (the sigmoid's is the gate conv's output), and a conv is
the expensive op, so the conv outputs and masks are what the tape keeps.
A graph that records no tape builds no remakes.

``conv2d`` also takes a pair of nodes as one input, as the gate
conv reads ``F_pre``‖``F_cur``: the conv kernels copy both maps into the
padded buffer they build anyway, in the forward and in the adjoint's dW, so
the concat is never formed at all. Batch norm takes its running mean and
variance as two plain arrays, not nodes: train mode updates them in place,
and eval mode normalizes with copies of them. Its adjoint reads the
per-channel mean and variance its kernel normalized with (2C floats, the
kernel's own arrays) rather than computing them again. It reduces over an
(n, c, h*w) view for dgamma = sum(dy * xhat) and dbeta = sum(dy); the
train-mode sums over gamma * dy are then gamma * dbeta and gamma * dgamma,
so it forms dx = gamma * inv * (dy - dbeta/m - xhat * dgamma/m) in place in
the xhat it rebuilds, a few passes over the map instead of about fifteen.
Eval mode's dx is one pass, dy * (gamma * inv). Since the tape keeps few op
outputs, ``first_non_finite`` rebuilds a failed step's forward to find the
first one that is not finite, on a graph that records no tape.

``backward`` walks the tape in reverse creation order, which is a valid
topological order. It keeps the pending cotangents itself, keyed on handles,
accumulating them across fan-out, and frees each one as soon as its node's
adjoint has run. It frees the tape as it goes too: once a handle's adjoint
has run, or been passed over because no cotangent reached it, the handle
drops it, so every array that only that adjoint read dies during the sweep,
not when the graph goes, and a train step's memory falls as the sweep moves
back towards the input. So a graph can be backpropagated once; a second
``backward`` raises ``RuntimeError``. It keeps a cotangent only for an input
that needs a gradient, and the conv adjoint does not even compute the others
(the weight gradient of a frozen gate, the input gradient of the image
batch). Every first cotangent is kept as the adjoint sent it, and each later
one makes a fresh sum: an adjoint may send one array to two parents (``add``
sends its ``dy`` to both), so neither ``backward`` nor an adjoint ever
writes into a cotangent it was given.

A leaf's gradient is final once the sweep has run every adjoint down to the
tape length at which the leaf first entered the graph, since no op taped
before that can read it. The rule needs no per-op bookkeeping; it is exact
for the network, which enters each param right before its op. A graph made
with a ``sink``, a callable ``(name, grad)``, has ``backward`` hand each
trainable leaf's gradient to it at that point, in reverse order of entry,
and keep no reference to it once the sink returns, so the whole gradient
never exists at once (the optimizer folds each one into its momentum
buffer). With no sink, ``backward`` returns a plain dict from trainable-leaf
name to gradient, in the order the leaves entered. Leaves the loss never
touched get zero gradients rather than being dropped, so optimizer code can
iterate parameters unconditionally.

The float dtype (``tensor.DEFAULT_DTYPE``) is decided where values enter a
graph and nowhere else: ``Param`` casts its value to it, as do ``constant``
and ``weighted_sum``'s probe. Every op output, cotangent and gradient then
has the dtype its kernel or adjoint computes from those, and ``backward``
seeds the root with ones of the root's own dtype. Only the two scalar
losses, of ``softmax_cross_entropy`` and ``weighted_sum``, are always float64.

Forward values come from the ``llanet.tensor`` kernels; an op keeps only
what the kernel returns, and arrays that only the backward pass needs (the
conv's padded input, max-pool winners, the normalized batch-norm input) are
built inside its adjoint. The conv adjoint takes dW
and dx from ``tensor.conv2d_weight_grad`` and ``tensor.conv2d_input_grad``:
stride-1 convs on large enough maps run as kh*kw GEMMs on shifted taps of
one padded buffer (dx as the tap forward of the transposed conv), every
other conv through im2col, and a conv's forward
and adjoint always share a layout (the ``llanet.tensor`` docstring describes
both layouts and the one rule that picks between them). No closure
refers to the graph, so a tape holds no reference cycle and is freed by
reference counting as soon as its last reference goes.

``grad_check`` verifies any loss-building function against central
differences. Its taped forward, for the gradients, also keeps each op's
output by its position in the op sequence: one forward's op outputs, held
for the duration of one ``grad_check`` call. Each +/- eps re-evaluation
then runs on a tape-free replay graph under the rule ``backward`` uses for
leaves: ops run in tape order, so no op before the forward first reads the
nudged param can depend on it. Until then, each op returns its kept output,
which its kernel would compute again bit for bit from the same inputs. The
first read is the param's leaf entering, a constant sharing its memory, or
an op getting a raw array argument (such as batch norm's running arrays)
that may share it, and from that op on every op runs again. So a nudge of
the head's weight re-runs the head and the loss, not the stem, and the
report is the one fresh graphs would give. A re-evaluation whose op
sequence differs from the unperturbed one raises rather than reuse a stale
value. A gradient or difference that is not finite counts as an infinite
error, so it can never pass a tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor
from .tensor import DEFAULT_DTYPE, ConvSpec, DimensionError


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


class Handle:
    """Stands for one node that needs a gradient; ``backward`` keys the node's
    cotangent on it.

    A handle holds no value and never refers to its node. A taped op's handle
    carries the op's label and its adjoint ``_backprop(dy, send)``, which
    closes over the arrays it reads and its inputs' handles, until
    ``backward`` has swept past it; a leaf's handle carries neither.
    """

    __slots__ = ("_backprop", "label")

    def __init__(self, backprop=None, label=""):
        self._backprop = backprop
        self.label = label


class Node:
    """A graph value; ``handle`` is its ``Handle`` when it needs a gradient,
    else None, and ``remake`` its ``_Remake`` when an adjoint that reads it
    should rebuild it rather than keep it, else None."""

    __slots__ = ("value", "label", "handle", "remake")

    def __init__(self, value, label="", handle=None):
        self.value = value
        self.label = label
        self.handle = handle
        self.remake = None

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Node({self.label or 'const'}, shape={np.shape(self.value)})"


class _Remake:
    """Rebuilds a taped op's output during the sweep from what the tape keeps.

    ``fn(*values)`` is the op's own forward code, and each source is either
    an array the tape keeps anyway or another remake, which gives its value.
    In the sweep, ``take`` returns the value: the first call computes it,
    lets the sources go and caches it. The value dies with the remake. Its
    node holds it during the forward; after that only the adjoints that read
    the node hold it, until the sweep drops each one, and the remakes built
    on it, until their own first ``take``. Each of those refers only to
    remakes and arrays made before it, so no cycle keeps a remake alive past
    its last reader.
    """

    __slots__ = ("_fn", "_sources", "_value")

    def __init__(self, fn, *sources):
        self._fn, self._sources = fn, sources
        self._value = None

    def take(self) -> np.ndarray:
        if self._fn is not None:
            self._value = self._fn(*map(_read, self._sources))
            self._fn = self._sources = None
        return self._value


def _kept(x: Node | tuple[Node, Node]):
    """What an adjoint keeps to read node ``x``, or each node of a pair: its
    remake, which holds the value from the first read on, or else its array."""
    if isinstance(x, tuple):
        return tuple(map(_kept, x))
    return x.value if x.remake is None else x.remake


def _read(kept):
    """The value, or pair of values, of what ``_kept`` returned, in the sweep."""
    if isinstance(kept, tuple):
        return tuple(map(_read, kept))
    return kept.take() if isinstance(kept, _Remake) else kept


def _relu(x):
    return tensor.activation(x, "relu")


def _remake(fn, *inputs: Node) -> _Remake | None:
    """A remake of an elementwise op's output as ``fn`` of its inputs' values,
    when some input has a remake, the rest read as their arrays; else None."""
    for x in inputs:  # a plain loop, as in ``_record``
        if x.remake is not None:
            return _Remake(fn, *(y.value if y.remake is None else y.remake for y in inputs))
    return None


class GradGraph:
    """Tape of differentiable ops; build a scalar loss, then call ``backward``.

    ``record=False`` builds the same values with no tape, for inference.
    ``sink(name, grad)``, when given, receives each trainable leaf's gradient
    during ``backward`` as soon as it is final. ``backward`` frees the tape
    as it sweeps, so it runs once per graph.
    """

    def __init__(self, record: bool = True, sink=None):
        self.record = record
        self.sink = sink
        self._tape: list[Handle] = []
        self._swept = False
        self._leaves: dict[str, tuple[Param, Node]] = {}
        # (tape length at entry, handle, param) of each trainable leaf, in entry order
        self._entered: list[tuple[int, Handle, Param]] = []

    # -- graph construction -------------------------------------------------

    def _record(self, value, backprop, label, *inputs) -> Node:
        """Tape ``backprop`` only when some input (None for a missing one) needs a gradient."""
        for x in inputs:  # a plain loop: any() over a generator costs twice the op's overhead
            if x is not None and x.handle is not None:
                handle = Handle(backprop, label)
                self._tape.append(handle)
                return Node(value, label, handle)
        return Node(value, label)

    def leaf(self, param: Param) -> Node:
        """Enter ``param`` into the graph; repeated calls return the same node."""
        hit = self._leaves.get(param.name)
        if hit is not None:
            if hit[0] is not param:
                raise ValueError(f"two different params share the name {param.name!r}")
            return hit[1]
        node = Node(param.value, param.name, Handle() if self.record and param.trainable else None)
        self._leaves[param.name] = (param, node)
        if node.handle is not None:
            self._entered.append((len(self._tape), node.handle, param))
        return node

    def constant(self, value) -> Node:
        """A non-differentiable input (e.g. an image batch)."""
        return Node(np.asarray(value, dtype=DEFAULT_DTYPE))

    # -- ops -----------------------------------------------------------------
    # Each adjoint closes over handles and the arrays it reads, never over a
    # Node, so an output that no adjoint reads dies with its last forward use.

    def conv2d(self, x: Node | tuple[Node, Node], weight: Node, bias: Node | None,
               spec: ConvSpec) -> Node:
        """Conv of ``x``, a node or a pair ``(a, b)`` read as one input with
        ``b``'s channels after ``a``'s. The kernels copy a pair's maps straight
        into their padded buffer, in the forward and in the adjoint for dW, so
        no concat is ever formed; dx splits between ``a`` and ``b``."""
        a, b = x if isinstance(x, tuple) else (x, None)
        xv = a.value if b is None else (a.value, b.value)
        out = tensor.conv2d(xv, weight.value, None if bias is None else bias.value, spec)
        ha, hb = a.handle, None if b is None else b.handle
        hw, hbias = weight.handle, None if bias is None else bias.handle
        kept = None if hw is None else _kept(x)
        wv = weight.value if ha is not None or hb is not None else None
        ca, (h, w) = a.value.shape[1], a.value.shape[2:]

        def backprop(dy, send):
            if hw is not None:
                send(hw, tensor.conv2d_weight_grad(_read(kept), dy, spec))
            if hbias is not None:
                send(hbias, dy.sum(axis=(0, 2, 3)))
            if wv is not None:
                dx = tensor.conv2d_input_grad(wv, dy, spec, h, w)
                if ha is not None:
                    send(ha, dx[:, :ca])
                if hb is not None:
                    send(hb, dx[:, ca:])

        return self._record(out, backprop, "conv2d", a, b, weight, bias)

    def batchnorm2d(self, x: Node, gamma: Node, beta: Node, running_mean: np.ndarray,
                    running_var: np.ndarray, train: bool, update_running: bool = True) -> Node:
        xv, gv = x.value, gamma.value
        # the kernel's moments are its own arrays: in eval mode a copy of the
        # running arrays, so a later in-place update cannot reach this adjoint
        out, mean, var = tensor.batchnorm2d(xv, gv, beta.value, running_mean, running_var,
                                            train, update_running)
        hx, hg, hb = x.handle, gamma.handle, beta.handle

        def backprop(dy, send):
            xhat, inv = tensor._normalize(xv, mean, var)
            n, c = xhat.shape[:2]
            dy3, xhat3 = dy.reshape(n, c, -1), xhat.reshape(n, c, -1)
            dgamma = np.einsum("ncl,ncl->c", dy3, xhat3)
            dbeta = dy3.sum(axis=(0, 2))
            send(hg, dgamma)
            send(hb, dbeta)
            scale = gv * inv[0, :, 0, 0]
            if not train:
                send(hx, dy * scale[None, :, None, None])
                return
            # dx = gamma * inv * (dy - dbeta/m - xhat * dgamma/m), in place in xhat
            m = xhat3.shape[0] * xhat3.shape[2]
            xhat3 *= (-dgamma / m)[:, None]
            xhat3 += dy3
            xhat3 -= (dbeta / m)[:, None]
            xhat3 *= scale[:, None]
            send(hx, xhat)

        node = self._record(out, backprop, "batchnorm2d", x, gamma, beta)
        if node.handle is not None:  # the adjoint keeps x, so the output is remade from it
            bv = beta.value
            node.remake = _Remake(lambda: tensor.batchnorm_output(xv, gv, bv, mean, var, train))
        return node

    def relu(self, x: Node) -> Node:
        out = tensor.activation(x.value, "relu")
        hx, remake = x.handle, _remake(_relu, x)
        kept = out if remake is None else remake

        def backprop(dy, send):
            # out > 0 exactly where x > 0 (NaN and -0.0 included), so x need not be kept
            send(hx, dy * (_read(kept) > 0))

        node = self._record(out, backprop, "relu", x)
        node.remake = remake
        return node

    def sigmoid(self, x: Node) -> Node:
        out = tensor.activation(x.value, "sigmoid")
        hx = x.handle

        def backprop(dy, send):
            send(hx, dy * out * (1.0 - out))

        return self._record(out, backprop, "sigmoid", x)

    def concat_channels(self, a: Node, b: Node) -> Node:
        out = tensor.concat_channels(a.value, b.value)
        ha, hb, ca = a.handle, b.handle, a.value.shape[1]

        def backprop(dy, send):
            send(ha, dy[:, :ca])
            send(hb, dy[:, ca:])

        return self._record(out, backprop, "concat", a, b)

    def hadamard(self, a: Node, b: Node) -> Node:
        out = tensor.hadamard(a.value, b.value)
        ha, hb = a.handle, b.handle
        ka = _kept(a) if hb is not None else None
        kb = _kept(b) if ha is not None else None

        def backprop(dy, send):
            if ha is not None:
                send(ha, dy * _read(kb))
            if hb is not None:
                send(hb, dy * _read(ka))

        node = self._record(out, backprop, "hadamard", a, b)
        node.remake = _remake(tensor.hadamard, a, b)
        return node

    def add(self, a: Node, b: Node) -> Node:
        if a.value.shape != b.value.shape:
            raise DimensionError(f"add shapes differ: {a.value.shape} vs {b.value.shape}")
        out = a.value + b.value
        ha, hb = a.handle, b.handle

        def backprop(dy, send):
            send(ha, dy)
            send(hb, dy)

        node = self._record(out, backprop, "add", a, b)
        node.remake = _remake(np.add, a, b)
        return node

    def maxpool(self, x: Node, window: int, stride: int | None = None) -> Node:
        stride = window if stride is None else stride
        xv, hx = x.value, x.handle
        out = tensor.pool2d(xv, "max", window, stride)

        def backprop(dy, send):
            n, c, oh, ow = dy.shape
            windows = tensor._windows(xv, window, window, stride, oh, ow)
            winner = windows.reshape(n, c, window * window, oh, ow).argmax(axis=2)
            dx = np.zeros_like(xv)
            ni, ci, oi, oj = np.indices((n, c, oh, ow))
            rows = oi * stride + winner // window
            cols = oj * stride + winner % window
            np.add.at(dx, (ni, ci, rows, cols), dy)
            send(hx, dx)

        return self._record(out, backprop, "maxpool", x)

    def global_avg_pool(self, x: Node) -> Node:
        out = tensor.pool2d(x.value, "global_avg")
        hx, shape = x.handle, x.value.shape

        def backprop(dy, send):
            send(hx, np.broadcast_to(dy / (shape[2] * shape[3]), shape))

        return self._record(out, backprop, "global_avg_pool", x)

    def flatten(self, x: Node) -> Node:
        hx, shape = x.handle, x.value.shape
        out = x.value.reshape(shape[0], math.prod(shape[1:]))

        def backprop(dy, send):
            send(hx, dy.reshape(shape))

        return self._record(out, backprop, "flatten", x)

    def linear(self, x: Node, weight: Node, bias: Node) -> Node:
        xv, wv = x.value, weight.value
        out = tensor.linear(xv, wv, bias.value)
        hx, hw, hb = x.handle, weight.handle, bias.handle

        def backprop(dy, send):
            send(hw, dy.T @ xv)
            send(hb, dy.sum(axis=0))
            send(hx, dy @ wv)

        return self._record(out, backprop, "linear", x, weight, bias)

    def softmax_cross_entropy(self, logits: Node, labels) -> Node:
        labels = np.asarray(labels)
        loss, probs = tensor.softmax_cross_entropy(logits.value, labels)
        hx, n = logits.handle, len(labels)

        def backprop(dy, send):
            onehot = np.zeros_like(probs)
            onehot[np.arange(n), labels] = 1.0
            send(hx, float(dy) * (probs - onehot) / n)

        return self._record(np.float64(loss), backprop, "softmax_cross_entropy", logits)

    def weighted_sum(self, x: Node, weights) -> Node:
        """Scalar probe <weights, x>; handy for exercising adjoints in isolation."""
        weights = np.asarray(weights, dtype=DEFAULT_DTYPE)
        if weights.shape != x.value.shape:
            raise DimensionError(f"weights shape {weights.shape} != value shape {x.value.shape}")
        out = np.float64((weights * x.value).sum())
        hx = x.handle

        def backprop(dy, send):
            send(hx, float(dy) * weights)

        return self._record(out, backprop, "weighted_sum", x)

    # -- backward ------------------------------------------------------------

    def backward(self, root: Node) -> dict | None:
        """Reverse sweep from a scalar ``root``.

        With no sink, returns the trainable-leaf gradients by name, in the
        order the leaves entered. With a sink, hands each one to it as soon as
        no adjoint still to run can add to it, in reverse order of entry, keeps
        no reference to it after the sink returns, and returns None. Each
        adjoint is dropped once the sweep is past it, so a second call raises
        ``RuntimeError``.
        """
        if not self.record:
            raise RuntimeError("backward on a graph built with record=False")
        if self._swept:
            raise RuntimeError("backward already ran on this graph, and its sweep freed "
                               "each adjoint as it went; build the graph again")
        if np.size(root.value) != 1:
            raise ValueError(f"backward needs a scalar root, got shape {np.shape(root.value)}")
        self._swept = True
        grads = {}
        if root.handle is not None:
            grads[root.handle] = np.ones_like(root.value)

        def send(parent: Handle | None, grad):
            # the first contribution is kept as sent and each later one makes
            # a fresh sum, so nothing writes into an array an adjoint sent
            if parent is None:
                return
            pending = grads.get(parent)
            grads[parent] = grad if pending is None else pending + grad

        collected = {}
        sink = collected.__setitem__ if self.sink is None else self.sink
        entered = self._entered
        left = len(entered)

        def complete(index):
            # hand over every leaf entered after tape entry ``index`` was made:
            # no adjoint at or below it can read the leaf
            nonlocal left
            while left and entered[left - 1][0] > index:
                left -= 1
                _, handle, param = entered[left]
                sink(param.name, grads.pop(handle) if handle in grads
                     else np.zeros_like(param.value))

        tape = self._tape
        for index in range(len(tape) - 1, -1, -1):
            complete(index)
            handle = tape[index]
            backprop, handle._backprop = handle._backprop, None
            if handle in grads:
                backprop(grads.pop(handle), send)
            del backprop  # the arrays only this adjoint read die here
        complete(-1)
        return dict(reversed(collected.items())) if self.sink is None else None


def tape_arrays(graph: GradGraph) -> list[np.ndarray]:
    """Every distinct array the tape of ``graph`` holds until its sweep
    frees it, params included, a view counted as the array it views.

    It walks each adjoint not yet run: the arrays its closure captures,
    directly, in a pair or through a remake (the remake's sources and its
    function's closure), and the remakes those reach.
    """
    found, seen = {}, set()

    def walk(obj):
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            found[id(obj)] = obj
        elif isinstance(obj, tuple):
            for item in obj:
                walk(item)
        elif id(obj) not in seen:
            seen.add(id(obj))
            if isinstance(obj, _Remake):
                walk(obj._sources)
                obj = obj._fn
            for cell in getattr(obj, "__closure__", None) or ():
                walk(cell.cell_contents)

    for handle in graph._tape:
        walk(handle._backprop)
    return list(found.values())


class _FiniteWatch(GradGraph):
    """A graph that records no tape and notes the first op output that is
    not finite."""

    def __init__(self):
        super().__init__(record=False)
        self.first = None

    def _record(self, value, backprop, label, *inputs) -> Node:
        if self.first is None and not np.isfinite(value).all():
            self.first = (label, self._param_read(inputs))
        return super()._record(value, backprop, label, *inputs)

    def _param_read(self, inputs) -> str | None:
        """Name of the first non-finite param among ``inputs``, else of the first param."""
        names = {id(leaf): name for name, (_, leaf) in self._leaves.items()}
        params = [x for x in inputs if id(x) in names]
        params.sort(key=lambda leaf: bool(np.isfinite(leaf.value).all()))
        return names[id(params[0])] if params else None


def first_non_finite(make_loss) -> tuple[str, str | None] | None:
    """Op kind of the earliest op whose output holds a NaN or an inf, and
    the name of the param it reads (its first non-finite one, else its
    first; None for an op that reads no param); None when every output is finite.

    A tape keeps no op outputs to scan, so ``make_loss(graph)`` rebuilds the
    forward, as in ``grad_check``, on a graph that records no tape and checks
    each output as its op creates it. In the network every op output depends
    on a trainable param, so this is the earliest op the failed step taped.
    For the result to name the op that failed, the rebuild must compute the
    same values: a train-mode forward passes ``update_running=False`` so the
    running statistics move only once.
    """
    graph = _FiniteWatch()
    make_loss(graph)
    return graph.first


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


# The op methods of GradGraph, each of which a replay re-runs or reuses by position.
_OPS = tuple(name for name, fn in vars(GradGraph).items() if callable(fn)
             and not name.startswith("_") and name not in ("leaf", "constant", "backward"))


class _Replay(GradGraph):
    """A graph that re-evaluates a forward after one param moved.

    ``outputs`` holds the unperturbed forward's op outputs by position, as
    ``(op name, label, value)``. With ``nudged`` None the graph records a
    tape, runs every op and appends its output there. Otherwise it records
    none, and returns the output kept at each position until the forward
    first reads ``nudged``: its leaf, or a leaf or constant sharing memory
    with it, enters, or an op gets a raw array argument that may share memory
    with it. From that op on, every op runs again as ``GradGraph``'s, looked
    up at call time. Each position must call the op kept there, and an op
    that runs again must give an output of the kept shape, or
    ``RuntimeError`` names the position.
    """

    def __init__(self, outputs: list, nudged: Param | None = None):
        super().__init__(record=nudged is None)
        self._outputs = outputs
        self._nudged = nudged
        self._live = nudged is None
        self._at = 0

    def _reads(self, value) -> bool:
        """Go live if ``value`` may share memory with ``nudged``; whether the replay is live."""
        self._live = self._live or np.may_share_memory(value, self._nudged.value)
        return self._live

    def leaf(self, param: Param) -> Node:
        node = super().leaf(param)
        self._reads(node.value)
        return node

    def constant(self, value) -> Node:
        node = super().constant(value)
        self._reads(node.value)
        return node

    def _op(self, name, args, kwargs) -> Node:
        at, outputs = self._at, self._outputs
        self._at = at + 1
        if self._nudged is None:
            node = getattr(GradGraph, name)(self, *args, **kwargs)
            outputs.append((name, node.label, node.value))
            return node
        kept = outputs[at] if at < len(outputs) else ("nothing",)
        if kept[0] != name:
            raise RuntimeError(f"re-evaluation op {at} is {name}, but the unperturbed "
                               f"forward's op {at} is {kept[0]}")
        _, label, value = kept
        if not self._live:
            for x in (*args, *kwargs.values()):
                if isinstance(x, np.ndarray) and self._reads(x):
                    break
            else:
                return Node(value, label)
        node = getattr(GradGraph, name)(self, *args, **kwargs)
        if np.shape(node.value) != np.shape(value):
            raise RuntimeError(f"re-evaluation op {at} ({name}) has shape {np.shape(node.value)}, "
                               f"the unperturbed forward's op {at} {np.shape(value)}")
        return node


def _replayed(name):
    def op(self, *args, **kwargs):
        return self._op(name, args, kwargs)

    op.__name__ = op.__qualname__ = name
    return op


for _name in _OPS:
    setattr(_Replay, _name, _replayed(_name))


def _nudged_loss(make_loss, outputs: list, param: Param) -> float:
    """The loss re-evaluated on a replay after ``param`` moved in place."""
    graph = _Replay(outputs, param)
    loss = make_loss(graph)
    if graph._at != len(outputs):
        raise RuntimeError(f"re-evaluation ended after op {graph._at}, but the "
                           f"unperturbed forward ran {len(outputs)} ops")
    return float(loss.value)


def grad_check(make_loss, params, eps: float = 1e-5, max_entries: int | None = None,
               select=None, rng=None) -> GradCheckReport:
    """Compare tape gradients with central differences.

    ``make_loss(graph)`` builds the loss on ``graph`` from the params'
    *current* values and returns the loss node. It runs once on a recording
    graph that also keeps each op's output by position, for the tape
    gradients, then once for each entry nudged in place by +/- ``eps`` on a
    tape-free replay that reuses the kept outputs up to the first op that
    reads the param and runs every op from there. So it must build the same
    op sequence each time, or a re-evaluation raises ``RuntimeError``, and
    read a param only through ``graph.leaf`` or by passing the param's own
    array to ``graph.constant`` or to an op: a copy made from it goes
    unnoticed. The kept outputs cost one forward's memory for the duration
    of the call. ``select`` optionally maps a param name to a boolean mask
    of entries eligible for checking (e.g. to stay away from ReLU kinks);
    ``max_entries`` caps the per-param count by random subsampling.
    """
    outputs = []
    graph = _Replay(outputs)
    analytic = graph.backward(make_loss(graph))
    rng = np.random.default_rng(0) if rng is None else rng
    report = GradCheckReport()
    for param in params:
        if not param.trainable:
            continue
        if param.name not in analytic:
            raise ValueError(f"param {param.name!r} is trainable but make_loss never "
                             f"enters it through graph.leaf, so it has no tape gradient")
        grad = analytic[param.name].reshape(-1)
        value = param.value
        indices = np.arange(value.size)
        if select is not None and param.name in select:
            indices = indices[np.asarray(select[param.name]).reshape(-1)]
        if max_entries is not None and indices.size > max_entries:
            indices = rng.choice(indices, size=max_entries, replace=False)
        for idx in indices:
            at = np.unravel_index(idx, value.shape)  # in place, whatever the strides
            saved = value[at]
            try:
                value[at] = saved + eps
                up = _nudged_loss(make_loss, outputs, param)
                value[at] = saved - eps
                down = _nudged_loss(make_loss, outputs, param)
            finally:
                value[at] = saved
            numeric = (up - down) / (2.0 * eps)
            err = relative_error(float(grad[idx]), numeric)
            report.checked += 1
            report.max_error = max(report.max_error, err)
    return report
