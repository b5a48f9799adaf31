"""Residual backbone with an attention gate after every block.

The network is a stem convolution (stride 1, so the first layer never
shrinks the map), then a stack of "combined modules" - a standard two-conv
residual block followed by the lossless attention gate - then global average
pooling and a linear classifier head.

The gate's ``F_pre`` is the module's own input - the previous module's
output, or the stem output for the first module - at the same shape as the
current block output. Inside a stage the shapes already agree; at stage
boundaries (stride 2 and/or channel growth) a learned 1x1 strided
projection aligns it, mirroring the residual shortcut projection.

Which convolutions the network has is written once, as data: the stem
layer and each module's layer list from :func:`module_plan`, each layer a
parameter prefix, a kind and its ``ConvSpec``. ``init_network`` creates
parameters by walking those layers, and the forward reads its specs from
them; the wiring between layers (residual add, ReLUs, the gate) is code.

Parameters live in a ``ParamStore``: a flat, insertion-ordered namespace of
uniquely named leaves. Batch-norm running statistics are stored as
non-trainable entries in the same namespace so checkpoints capture them.
"""

from __future__ import annotations

import functools
import hashlib
import json
import struct
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from types import MappingProxyType
from typing import ClassVar

import numpy as np

from .attention import attention_conv_spec, attention_forward_graph
from .autodiff import GradGraph, Node, Param
from .data import atomic_open
from .tensor import ConvSpec, conv_output_hw

ATTENTION_MODES = ("learned", "frozen", "off")


@dataclass(frozen=True)
class StageSpec:
    """One stage: ``blocks`` residual blocks at ``channels``; the first block
    uses ``stride`` (2 at downsampling boundaries, 1 otherwise)."""

    blocks: int
    channels: int
    stride: int


@dataclass(frozen=True)
class NetworkConfig:
    input_shape: tuple[int, int, int]  # (channels, height, width)
    stem_channels: int
    stages: tuple[StageSpec, ...]
    stem_kernel: ClassVar[int] = 3  # the stem is always a 3x3 stride-1 conv
    attention: str = "learned"  # learned | frozen (mask pinned at 0.5) | off (plain resnet)
    attention_kernel: int = 3
    num_classes: int = 7
    seed: int = 0

    def __post_init__(self):
        c, h, w = self.input_shape
        if min(c, h, w) < 1:
            raise ValueError(f"input shape must be positive, got {self.input_shape}")
        if self.stem_channels < 1:
            raise ValueError("stem_channels must be >= 1")
        if not self.stages:
            raise ValueError("need at least one stage")
        for s in self.stages:
            if s.blocks < 1 or s.channels < 1 or s.stride < 1:
                raise ValueError(f"bad stage spec {s}")
        if self.attention not in ATTENTION_MODES:
            raise ValueError(f"attention must be one of {ATTENTION_MODES}, got {self.attention!r}")
        if self.attention != "off":
            attention_conv_spec(1, self.attention_kernel)  # validates kernel oddness
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")


_PRESETS = {
    # stem channels, stage specs, (h, w)
    "micro": (4, ((1, 4, 1),), (8, 8)),
    "tiny": (8, ((1, 8, 1), (1, 16, 2)), (32, 32)),
    "resnet18": (64, ((2, 64, 1), (2, 128, 2), (2, 256, 2), (2, 512, 2)), (112, 112)),
}

PRESET_NAMES = tuple(_PRESETS)


def preset(name: str, *, input_channels: int = 3, attention: str = "learned",
           attention_kernel: int = 3, num_classes: int = 7, seed: int = 0) -> NetworkConfig:
    """A named size class: "micro" (grad checks), "tiny" (desk experiments),
    "resnet18" (full size, 112x112 inputs)."""
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    stem, stages, (h, w) = _PRESETS[name]
    return NetworkConfig(
        input_shape=(input_channels, h, w),
        stem_channels=stem,
        stages=tuple(StageSpec(*s) for s in stages),
        attention=attention,
        attention_kernel=attention_kernel,
        num_classes=num_classes,
        seed=seed,
    )


def config_to_dict(cfg: NetworkConfig) -> dict:
    return {
        "input_shape": list(cfg.input_shape),
        "stem_channels": cfg.stem_channels,
        "stages": [[s.blocks, s.channels, s.stride] for s in cfg.stages],
        "stem_kernel": cfg.stem_kernel,
        "stem_stride": 1,
        "attention": cfg.attention,
        "attention_kernel": cfg.attention_kernel,
        "num_classes": cfg.num_classes,
        "seed": cfg.seed,
    }


def config_digest(cfg: NetworkConfig) -> bytes:
    """sha256 over the canonical JSON form; stored in checkpoints."""
    canon = json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).digest()


class ParamStore:
    """Flat namespace of uniquely named parameters in deterministic order."""

    def __init__(self):
        self._entries: dict[str, Param] = {}

    def add(self, param: Param) -> Param:
        if param.name in self._entries:
            raise ValueError(f"duplicate parameter name {param.name!r}")
        self._entries[param.name] = param
        return param

    def __getitem__(self, name: str) -> Param:
        return self._entries[name]

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __iter__(self):
        return iter(self._entries.values())

    def __len__(self):
        return len(self._entries)

    def names(self) -> list[str]:
        return list(self._entries)

    def trainable(self) -> list[Param]:
        return [p for p in self if p.trainable]


def count_parameters(store: ParamStore) -> int:
    return sum(p.value.size for p in store.trainable())


# -- layer plan ----------------------------------------------------------------


@dataclass(frozen=True)
class Layer:
    """One convolution of the network and where its parameters live.

    ``kind`` is "conv_bn" (a bias-free conv with its weight at
    ``{prefix}.weight``, then a batch norm at :attr:`bn`), "conv" (a bare
    bias-free conv, the gate's ``F_pre`` alignment) or "gate" (the attention
    gate's mask conv, weight and bias at ``prefix``).
    """

    prefix: str
    kind: str
    spec: ConvSpec

    @property
    def bn(self) -> str:
        """The batch norm's prefix: the conv's, with "conv" in its last part
        read as "bn" (``stem.conv`` -> ``stem.bn``, ``s0b0.conv1`` -> ``s0b0.bn1``)."""
        head, _, last = self.prefix.rpartition(".")
        return f"{head}.{last.replace('conv', 'bn')}"


def _conv_layer(prefix, kind, in_ch, out_ch, kernel, stride) -> Layer:
    # odd kernels padded to keep the map at ceil(size / stride)
    return Layer(prefix, kind, ConvSpec(out_channels=out_ch, in_channels=in_ch, kernel_h=kernel,
                                        kernel_w=kernel, stride=stride,
                                        padding=(kernel - 1) // 2, has_bias=False))


def _stem_layer(cfg: NetworkConfig) -> Layer:
    return _conv_layer("stem.conv", "conv_bn", cfg.input_shape[0], cfg.stem_channels,
                       cfg.stem_kernel, 1)


@dataclass(frozen=True)
class ModulePlan:
    """One combined module: its shape and its layers.

    ``layers`` maps each layer's role to the layer, in parameter creation
    order: "conv1" and "conv2", the residual branch; "shortcut" and
    "align", the 1x1 strided projections of the module input onto the
    block's output shape for the residual add and for the gate's ``F_pre``,
    present only when the block changes shape; "gate", absent with
    attention off.
    """

    name: str
    in_channels: int
    out_channels: int
    stride: int
    layers: Mapping[str, Layer]

    @property
    def projected(self) -> bool:
        return "shortcut" in self.layers


@functools.lru_cache(maxsize=32)
def module_plan(cfg: NetworkConfig) -> tuple[ModulePlan, ...]:
    """Every combined module's plan, in forward order.

    Built once per config (a frozen, hashable dataclass) and shared by every
    later call, so a forward does not rebuild and revalidate its specs; the
    plan is immutable: a tuple of plans whose ``layers`` are read-only.
    """
    plan = []
    in_ch = cfg.stem_channels
    for si, stage in enumerate(cfg.stages):
        for bi in range(stage.blocks):
            name, out_ch, stride = f"s{si}b{bi}", stage.channels, stage.stride if bi == 0 else 1
            layers = {"conv1": _conv_layer(f"{name}.conv1", "conv_bn", in_ch, out_ch, 3, stride),
                      "conv2": _conv_layer(f"{name}.conv2", "conv_bn", out_ch, out_ch, 3, 1)}
            if stride != 1 or in_ch != out_ch:
                layers["shortcut"] = _conv_layer(f"{name}.shortcut.conv", "conv_bn",
                                                 in_ch, out_ch, 1, stride)
                layers["align"] = _conv_layer(f"{name}.align", "conv", in_ch, out_ch, 1, stride)
            if cfg.attention != "off":
                layers["gate"] = Layer(f"{name}.attn", "gate",
                                       attention_conv_spec(out_ch, cfg.attention_kernel))
            plan.append(ModulePlan(name, in_ch, out_ch, stride, MappingProxyType(layers)))
            in_ch = out_ch
    return tuple(plan)


def feature_shape(cfg: NetworkConfig) -> tuple[int, int, int]:
    """(channels, h, w) of the map entering global pooling: the input size
    through the stem and each module's residual branch."""
    _, h, w = cfg.input_shape
    plan = module_plan(cfg)
    specs = [_stem_layer(cfg).spec] + [m.layers[k].spec for m in plan for k in ("conv1", "conv2")]
    for spec in specs:
        h, w = conv_output_hw(spec, h, w)
    return plan[-1].out_channels, h, w


# -- initialization ------------------------------------------------------------


def kaiming_uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    """Uniform fan-in initialization: U(-b, b) with b = sqrt(6 / fan_in)."""
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


def _add_layer(store, layer: Layer, rng, attention: str):
    """Create ``layer``'s params in ``store``, drawing its weight from ``rng``.

    A gate's weight is zeros, with no draw, in "frozen" mode, which pins its
    mask at 0.5; its weight and bias are trainable only in "learned" mode.
    """
    spec = layer.spec
    fan_in = spec.in_channels * spec.kernel_h * spec.kernel_w
    if layer.kind == "gate" and attention == "frozen":
        weight = np.zeros(spec.weight_shape)
    else:
        weight = kaiming_uniform(rng, spec.weight_shape, fan_in)
    trainable = layer.kind != "gate" or attention == "learned"
    store.add(Param(f"{layer.prefix}.weight", weight, trainable=trainable))
    if layer.kind == "gate":
        store.add(Param(f"{layer.prefix}.bias", np.zeros(spec.out_channels),
                        trainable=trainable, decay_exempt=True))
    elif layer.kind == "conv_bn":
        ch = spec.out_channels
        store.add(Param(f"{layer.bn}.gamma", np.ones(ch), decay_exempt=True))
        store.add(Param(f"{layer.bn}.beta", np.zeros(ch), decay_exempt=True))
        store.add(Param(f"{layer.bn}.running_mean", np.zeros(ch), trainable=False))
        store.add(Param(f"{layer.bn}.running_var", np.ones(ch), trainable=False))


def init_network(cfg: NetworkConfig) -> ParamStore:
    """Create every parameter of the network, deterministically from cfg.seed.

    Walks the stem layer, then each module's ``layers`` in order, then the
    head, drawing every random init from one generator in that order. Conv
    weights are Kaiming-uniform (no conv biases: a batch norm follows every
    "conv_bn" layer), batch norm starts at gamma=1, beta=0; a gate layer gets
    a zero bias, and its weight is zero and frozen in "frozen" mode; the head
    gets its own init.
    """
    rng = np.random.default_rng(cfg.seed)
    store = ParamStore()
    plan = module_plan(cfg)
    for layer in [_stem_layer(cfg)] + [layer for m in plan for layer in m.layers.values()]:
        _add_layer(store, layer, rng, cfg.attention)
    feat_ch = plan[-1].out_channels
    store.add(Param("head.weight",
                    kaiming_uniform(rng, (cfg.num_classes, feat_ch), fan_in=feat_ch)))
    store.add(Param("head.bias", np.zeros(cfg.num_classes), decay_exempt=True))
    return store


# -- forward -------------------------------------------------------------------


def _layer_graph(graph, x, store, layer: Layer | None, train, update_running):
    """A "conv_bn" or "conv" layer on ``x``; a layer the module lacks (None),
    such as the shortcut of a block that keeps its shape, is the identity."""
    if layer is None:
        return x
    y = graph.conv2d(x, graph.leaf(store[f"{layer.prefix}.weight"]), None, layer.spec)
    if layer.kind == "conv":
        return y
    bn = layer.bn
    return graph.batchnorm2d(y, graph.leaf(store[f"{bn}.gamma"]), graph.leaf(store[f"{bn}.beta"]),
                             store[f"{bn}.running_mean"].value, store[f"{bn}.running_var"].value,
                             train, update_running=update_running)


def _combined_module_graph(graph, f_in: Node, store, m: ModulePlan,
                           train, update_running) -> tuple[Node, Node | None]:
    """One combined module on ``f_in``; returns its ``(output, mask)``, the
    mask None with attention off, where the output is the block's own."""
    layers = m.layers
    y = graph.relu(_layer_graph(graph, f_in, store, layers["conv1"], train, update_running))
    y = _layer_graph(graph, y, store, layers["conv2"], train, update_running)
    sc = _layer_graph(graph, f_in, store, layers.get("shortcut"), train, update_running)
    f_cur = graph.relu(graph.add(y, sc))
    f_pre = _layer_graph(graph, f_in, store, layers.get("align"), train, update_running)
    gate = layers.get("gate")
    if gate is None:
        return f_cur, None
    return attention_forward_graph(graph, f_pre, f_cur, store[f"{gate.prefix}.weight"],
                                   store[f"{gate.prefix}.bias"], gate.spec)


def network_modules_graph(graph: GradGraph, batch, store: ParamStore, cfg: NetworkConfig,
                          train: bool, update_running: bool = True
                          ) -> Iterator[tuple[Node, Node | None]]:
    """Run the stem, then yield each combined module's ``(output, mask)`` nodes.

    Each module runs only when its pair is asked for, so a caller that stops
    early runs no later module, and one that keeps only the latest pair
    holds one module's maps. The batch may have any spatial size (training
    crops and evaluation crops differ); only the channel count must match
    the config.
    """
    x = graph.constant(batch)
    if x.value.shape[1] != cfg.input_shape[0]:
        raise ValueError(
            f"batch has {x.value.shape[1]} channels, config expects {cfg.input_shape[0]}")
    out = graph.relu(_layer_graph(graph, x, store, _stem_layer(cfg), train, update_running))
    for m in module_plan(cfg):
        out, mask = _combined_module_graph(graph, out, store, m, train, update_running)
        yield out, mask


def network_forward_graph(graph: GradGraph, batch, store: ParamStore, cfg: NetworkConfig,
                          train: bool, update_running: bool = True) -> Node:
    """Differentiable forward pass: the modules, then global average pooling
    and the linear head; returns the logits node."""
    for out, _ in network_modules_graph(graph, batch, store, cfg, train, update_running):
        pass
    features = graph.flatten(graph.global_avg_pool(out))
    return graph.linear(features, graph.leaf(store["head.weight"]), graph.leaf(store["head.bias"]))


def network_forward(batch, store: ParamStore, cfg: NetworkConfig) -> np.ndarray:
    """Eval-mode forward pass on a graph that records no tape, which leaves
    the running statistics unchanged; returns the (n, K) logits array."""
    return network_forward_graph(GradGraph(record=False), batch, store, cfg, train=False).value


def network_loss_graph(graph: GradGraph, batch, labels, store, cfg,
                       train: bool, update_running: bool = True):
    """Forward plus mean cross-entropy; returns (logits node, loss node)."""
    logits = network_forward_graph(graph, batch, store, cfg, train, update_running)
    return logits, graph.softmax_cross_entropy(logits, labels)


# -- checkpoints ---------------------------------------------------------------

CHECKPOINT_MAGIC = b"LLANETCKPT1\n"


def save_checkpoint(path, store: ParamStore, cfg: NetworkConfig) -> None:
    """Binary dump of every store entry (running stats included), bit-exact;
    an interrupted save leaves any earlier file at ``path`` intact."""
    digest = config_digest(cfg)
    with atomic_open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<B", len(digest)))
        fh.write(digest)
        fh.write(struct.pack("<I", len(store)))
        for p in store:
            name = p.name.encode()
            flags = (1 if p.trainable else 0) | (2 if p.decay_exempt else 0)
            fh.write(struct.pack("<H", len(name)))
            fh.write(name)
            fh.write(struct.pack("<BB", flags, p.value.ndim))
            fh.write(struct.pack(f"<{p.value.ndim}I", *p.value.shape))
            fh.write(np.ascontiguousarray(p.value, dtype="<f8").tobytes())


class CheckpointError(ValueError):
    pass


def load_checkpoint(path, store: ParamStore, cfg: NetworkConfig) -> None:
    """Fill ``store`` in place from a checkpoint written by :func:`save_checkpoint`.

    The stored config digest must match ``cfg``, guarding against loading
    weights into a different architecture. Every store entry must be read
    exactly once and nothing may follow the last one; ``store`` is only
    written once the whole file has passed.
    """
    def read(fh, n):
        buf = fh.read(n)
        if len(buf) != n:
            raise CheckpointError(f"{path}: truncated checkpoint")
        return buf

    with open(path, "rb") as fh:
        if read(fh, len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
        (dlen,) = struct.unpack("<B", read(fh, 1))
        digest = read(fh, dlen)
        if digest != config_digest(cfg):
            raise CheckpointError(
                f"{path}: checkpoint was written for a different network configuration")
        (count,) = struct.unpack("<I", read(fh, 4))
        if count != len(store):
            raise CheckpointError(
                f"{path}: checkpoint has {count} parameters, store has {len(store)}")
        entries = {}
        for position in range(count):
            (nlen,) = struct.unpack("<H", read(fh, 2))
            try:
                name = read(fh, nlen).decode()
            except UnicodeDecodeError:
                raise CheckpointError(
                    f"{path}: the name of entry {position} is not UTF-8") from None
            flags, ndim = struct.unpack("<BB", read(fh, 2))
            shape = struct.unpack(f"<{ndim}I", read(fh, 4 * ndim))
            # the entry is checked against the store before its data is read,
            # so the read is the store entry's size, never a declared one
            if name not in store:
                raise CheckpointError(f"{path}: unknown parameter {name!r}")
            if name in entries:
                raise CheckpointError(f"{path}: parameter {name!r} is stored twice")
            expected = store[name].value
            if expected.shape != shape:
                raise CheckpointError(f"{path}: parameter {name!r} has shape {shape}, "
                                      f"expected {expected.shape}")
            entries[name] = flags, np.frombuffer(read(fh, 8 * expected.size),
                                                 dtype="<f8").reshape(shape)
        if fh.read(1):
            raise CheckpointError(f"{path}: trailing bytes after the last parameter")
    for name, (flags, data) in entries.items():
        p = store[name]
        # fill in place so arrays grabbed from the store before the load see it
        p.value[...] = data
        p.trainable = bool(flags & 1)
        p.decay_exempt = bool(flags & 2)
