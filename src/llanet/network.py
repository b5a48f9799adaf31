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

Parameters live in a ``ParamStore``: a flat, insertion-ordered namespace of
uniquely named leaves. Batch-norm running statistics are stored as
non-trainable entries in the same namespace so checkpoints capture them.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field

import numpy as np

from .attention import AttentionParams, attention_conv_spec, attention_forward_graph, \
    init_attention, kaiming_uniform
from .autodiff import GradGraph, Node, Param
from .data import atomic_open
from .tensor import ConvSpec, DEFAULT_DTYPE, RunningStats

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
    stem_kernel: int = 3
    stem_stride: int = 1
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
        if self.stem_kernel < 1 or self.stem_kernel % 2 == 0:
            raise ValueError(f"stem kernel must be odd and >= 1, got {self.stem_kernel}")
        if self.stem_stride < 1:
            raise ValueError("stem stride must be >= 1")
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
        "stem_stride": cfg.stem_stride,
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

    def running_stats(self, prefix: str) -> RunningStats:
        """Live view over a batch-norm layer's running mean/var entries."""
        return RunningStats(self[f"{prefix}.running_mean"].value,
                            self[f"{prefix}.running_var"].value)


def count_parameters(store: ParamStore) -> int:
    return sum(p.value.size for p in store.trainable())


# -- layer planning ------------------------------------------------------------


@dataclass(frozen=True)
class ModulePlan:
    """Static shape bookkeeping for one combined module."""

    name: str
    in_channels: int
    out_channels: int
    stride: int

    @property
    def projected(self) -> bool:
        # both the residual shortcut and the gate's f_pre need a 1x1 projection
        # exactly when the block changes shape
        return self.stride != 1 or self.in_channels != self.out_channels


def module_plan(cfg: NetworkConfig) -> list[ModulePlan]:
    plan = []
    in_ch = cfg.stem_channels
    for si, stage in enumerate(cfg.stages):
        for bi in range(stage.blocks):
            stride = stage.stride if bi == 0 else 1
            plan.append(ModulePlan(f"s{si}b{bi}", in_ch, stage.channels, stride))
            in_ch = stage.channels
    return plan


def feature_shape(cfg: NetworkConfig) -> tuple[int, int, int]:
    """(channels, h, w) of the map entering global pooling, by stride arithmetic."""
    _, h, w = cfg.input_shape
    h, w = (h + cfg.stem_stride - 1) // cfg.stem_stride, (w + cfg.stem_stride - 1) // cfg.stem_stride
    ch = cfg.stem_channels
    for m in module_plan(cfg):
        h, w = (h + m.stride - 1) // m.stride, (w + m.stride - 1) // m.stride
        ch = m.out_channels
    return ch, h, w


# -- initialization ------------------------------------------------------------


def _conv_spec(in_ch, out_ch, kernel, stride, padding) -> ConvSpec:
    return ConvSpec(out_channels=out_ch, in_channels=in_ch, kernel_h=kernel,
                    kernel_w=kernel, stride=stride, padding=padding, has_bias=False)


def _add_conv(store, prefix, spec, rng):
    fan_in = spec.in_channels * spec.kernel_h * spec.kernel_w
    store.add(Param(f"{prefix}.weight", kaiming_uniform(rng, spec.weight_shape, fan_in)))


def _add_bn(store, prefix, channels):
    store.add(Param(f"{prefix}.gamma", np.ones(channels, dtype=DEFAULT_DTYPE), decay_exempt=True))
    store.add(Param(f"{prefix}.beta", np.zeros(channels, dtype=DEFAULT_DTYPE), decay_exempt=True))
    store.add(Param(f"{prefix}.running_mean", np.zeros(channels, dtype=DEFAULT_DTYPE), trainable=False))
    store.add(Param(f"{prefix}.running_var", np.ones(channels, dtype=DEFAULT_DTYPE), trainable=False))


def init_network(cfg: NetworkConfig) -> ParamStore:
    """Create every parameter of the network, deterministically from cfg.seed.

    Convolution weights are Kaiming-uniform (no conv biases - batch norm
    follows every backbone conv); batch norm starts at gamma=1, beta=0;
    the attention gate and the head get their own inits.
    """
    rng = np.random.default_rng(cfg.seed)
    store = ParamStore()
    in_c = cfg.input_shape[0]
    _add_conv(store, "stem.conv",
              _conv_spec(in_c, cfg.stem_channels, cfg.stem_kernel, cfg.stem_stride,
                         (cfg.stem_kernel - 1) // 2), rng)
    _add_bn(store, "stem.bn", cfg.stem_channels)
    for m in module_plan(cfg):
        _add_conv(store, f"{m.name}.conv1", _conv_spec(m.in_channels, m.out_channels, 3, m.stride, 1), rng)
        _add_bn(store, f"{m.name}.bn1", m.out_channels)
        _add_conv(store, f"{m.name}.conv2", _conv_spec(m.out_channels, m.out_channels, 3, 1, 1), rng)
        _add_bn(store, f"{m.name}.bn2", m.out_channels)
        if m.projected:
            _add_conv(store, f"{m.name}.shortcut.conv",
                      _conv_spec(m.in_channels, m.out_channels, 1, m.stride, 0), rng)
            _add_bn(store, f"{m.name}.shortcut.bn", m.out_channels)
            _add_conv(store, f"{m.name}.align",
                      _conv_spec(m.in_channels, m.out_channels, 1, m.stride, 0), rng)
        if cfg.attention != "off":
            gate = init_attention(m.out_channels, cfg.attention_kernel, rng,
                                  prefix=f"{m.name}.attn",
                                  trainable=cfg.attention == "learned",
                                  zero=cfg.attention == "frozen")
            store.add(gate.weight)
            store.add(gate.bias)
    feat_ch = module_plan(cfg)[-1].out_channels
    store.add(Param("head.weight",
                    kaiming_uniform(rng, (cfg.num_classes, feat_ch), fan_in=feat_ch)))
    store.add(Param("head.bias", np.zeros(cfg.num_classes, dtype=DEFAULT_DTYPE), decay_exempt=True))
    return store


# -- forward -------------------------------------------------------------------


@dataclass
class ModuleTrace:
    """Intermediate nodes of one combined module, for tests and mask dumps."""

    name: str
    f_in: Node        # module input: the previous module's output, or the stem's
    f_pre: Node       # f_in after alignment (same node when identity)
    f_cur: Node       # residual block output
    mask: Node | None
    refined: Node     # module output


@dataclass
class ForwardTrace:
    stem: Node
    modules: list[ModuleTrace] = field(default_factory=list)
    features: Node = None
    logits: Node = None


def _graph_conv(graph, x, store, prefix, spec):
    return graph.conv2d(x, graph.leaf(store[f"{prefix}.weight"]), None, spec)


def _graph_bn(graph, x, store, prefix, train, update_running):
    return graph.batchnorm2d(x, graph.leaf(store[f"{prefix}.gamma"]),
                             graph.leaf(store[f"{prefix}.beta"]),
                             store.running_stats(prefix), train,
                             update_running=update_running)


def _gate_params(store: ParamStore, cfg: NetworkConfig, m: ModulePlan) -> AttentionParams:
    return AttentionParams(weight=store[f"{m.name}.attn.weight"],
                           bias=store[f"{m.name}.attn.bias"],
                           spec=attention_conv_spec(m.out_channels, cfg.attention_kernel))


def _combined_module_graph(graph, f_in: Node, store, cfg, m: ModulePlan,
                           train, update_running) -> ModuleTrace:
    y = _graph_conv(graph, f_in, store, f"{m.name}.conv1",
                    _conv_spec(m.in_channels, m.out_channels, 3, m.stride, 1))
    y = graph.relu(_graph_bn(graph, y, store, f"{m.name}.bn1", train, update_running))
    y = _graph_conv(graph, y, store, f"{m.name}.conv2",
                    _conv_spec(m.out_channels, m.out_channels, 3, 1, 1))
    y = _graph_bn(graph, y, store, f"{m.name}.bn2", train, update_running)
    if m.projected:
        sc = _graph_conv(graph, f_in, store, f"{m.name}.shortcut.conv",
                         _conv_spec(m.in_channels, m.out_channels, 1, m.stride, 0))
        sc = _graph_bn(graph, sc, store, f"{m.name}.shortcut.bn", train, update_running)
    else:
        sc = f_in
    f_cur = graph.relu(graph.add(y, sc))
    if m.projected:
        f_pre = _graph_conv(graph, f_in, store, f"{m.name}.align",
                            _conv_spec(m.in_channels, m.out_channels, 1, m.stride, 0))
    else:
        f_pre = f_in
    if cfg.attention != "off":
        refined, mask = attention_forward_graph(graph, f_pre, f_cur, _gate_params(store, cfg, m))
    else:
        refined, mask = f_cur, None
    return ModuleTrace(m.name, f_in, f_pre, f_cur, mask, refined)


def network_forward_graph(graph: GradGraph, batch, store: ParamStore, cfg: NetworkConfig,
                          train: bool, update_running: bool = True) -> ForwardTrace:
    """Differentiable forward pass; returns every intermediate of interest.

    The batch may have any spatial size (training crops and evaluation crops
    differ); only the channel count must match the config.
    """
    x = graph.constant(batch)
    if x.value.shape[1] != cfg.input_shape[0]:
        raise ValueError(
            f"batch has {x.value.shape[1]} channels, config expects {cfg.input_shape[0]}")
    y = _graph_conv(graph, x, store, "stem.conv",
                    _conv_spec(cfg.input_shape[0], cfg.stem_channels, cfg.stem_kernel,
                               cfg.stem_stride, (cfg.stem_kernel - 1) // 2))
    stem = graph.relu(_graph_bn(graph, y, store, "stem.bn", train, update_running))
    trace = ForwardTrace(stem=stem)
    prev = stem
    for m in module_plan(cfg):
        mod = _combined_module_graph(graph, prev, store, cfg, m, train, update_running)
        trace.modules.append(mod)
        prev = mod.refined
    pooled = graph.global_avg_pool(prev)
    trace.features = graph.flatten(pooled)
    trace.logits = graph.linear(trace.features, graph.leaf(store["head.weight"]),
                                graph.leaf(store["head.bias"]))
    return trace


def network_forward(batch, store: ParamStore, cfg: NetworkConfig) -> np.ndarray:
    """Eval-mode forward pass on a graph that records no tape, which leaves
    the running statistics unchanged; returns the (n, K) logits array."""
    trace = network_forward_graph(GradGraph(record=False), batch, store, cfg, train=False)
    return trace.logits.value


def network_loss_graph(graph: GradGraph, batch, labels, store, cfg,
                       train: bool, update_running: bool = True):
    """Forward plus mean cross-entropy; returns (trace, loss node)."""
    trace = network_forward_graph(graph, batch, store, cfg, train, update_running)
    loss = graph.softmax_cross_entropy(trace.logits, labels)
    return trace, loss


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
        # fill in place so live RunningStats views stay attached
        p.value[...] = data
        p.trainable = bool(flags & 1)
        p.decay_exempt = bool(flags & 2)
