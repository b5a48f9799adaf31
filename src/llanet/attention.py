"""Lossless attention: a full-dimension 3D gate over the current feature map.

The previous and current feature maps are concatenated along channels, one
convolution reduces 2C back to C, and a sigmoid turns that into a mask M
with every element strictly inside (0, 1) and the *same* (C, H, W) extent
as the features - no squeeze to a channel vector or a single spatial map.
The refined output is simply f_cur * M, so the gate can only attenuate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor
from .autodiff import GradGraph, Node, Param
from .tensor import ConvSpec, DEFAULT_DTYPE


def kaiming_uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    """Uniform fan-in initialization: U(-b, b) with b = sqrt(6 / fan_in)."""
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(DEFAULT_DTYPE)


def attention_conv_spec(channels: int, kernel: int = 3) -> ConvSpec:
    """Spec of the mask convolution: 2C -> C, odd kernel, spatial dims preserved."""
    if channels < 1:
        raise ValueError(f"channels must be >= 1, got {channels}")
    if kernel % 2 == 0:
        raise ValueError(f"kernel must be odd so padding can preserve spatial dims, got {kernel}")
    return ConvSpec(out_channels=channels, in_channels=2 * channels,
                    kernel_h=kernel, kernel_w=kernel,
                    stride=1, padding=(kernel - 1) // 2, has_bias=True)


@dataclass
class AttentionParams:
    """Mask-convolution weights for one attention gate."""

    weight: Param  # (C, 2C, k, k)
    bias: Param    # (C,)
    spec: ConvSpec

    @property
    def channels(self) -> int:
        return self.spec.out_channels


def init_attention(channels: int, kernel: int, rng: np.random.Generator,
                   prefix: str = "attn", trainable: bool = True,
                   zero: bool = False) -> AttentionParams:
    """Create gate parameters: Kaiming-uniform weight, zero bias.

    ``zero=True`` starts the mask convolution at exactly zero (mask == 0.5
    everywhere); combined with ``trainable=False`` that freezes the gate into
    a constant 0.5 attenuation, the ablation used to show the rest of the
    network still carries information.
    """
    spec = attention_conv_spec(channels, kernel)
    if zero:
        weight = np.zeros(spec.weight_shape, dtype=DEFAULT_DTYPE)
    else:
        fan_in = spec.in_channels * spec.kernel_h * spec.kernel_w
        weight = kaiming_uniform(rng, spec.weight_shape, fan_in)
    return AttentionParams(
        weight=Param(f"{prefix}.weight", weight, trainable=trainable),
        bias=Param(f"{prefix}.bias", np.zeros(spec.out_channels, dtype=DEFAULT_DTYPE),
                   trainable=trainable, decay_exempt=True),
        spec=spec,
    )


def _check_pair(f_pre, f_cur, params: AttentionParams):
    if f_pre.shape != f_cur.shape:
        raise tensor.DimensionError(
            f"previous {f_pre.shape} and current {f_cur.shape} feature maps must match",
            axis=tensor._mismatch_axis(np.asarray(f_pre), np.asarray(f_cur)))
    if f_cur.shape[1] != params.channels:
        raise tensor.DimensionError(
            f"features have {f_cur.shape[1]} channels, gate expects {params.channels}",
            axis="channels")


def attention_forward(f_pre: np.ndarray, f_cur: np.ndarray,
                      params: AttentionParams) -> tuple[np.ndarray, np.ndarray]:
    """The gate on a graph that records no tape; returns (refined map, attention mask)."""
    graph = GradGraph(record=False)
    refined, mask = attention_forward_graph(graph, graph.constant(f_pre),
                                            graph.constant(f_cur), params)
    return refined.value, mask.value


def attention_forward_graph(graph: GradGraph, f_pre: Node, f_cur: Node,
                            params: AttentionParams) -> tuple[Node, Node]:
    """The gate on a tape: mask conv of ``f_pre``‖``f_cur``, sigmoid, multiply.

    The conv reads the pair ``(f_pre, f_cur)`` as its input: its kernels copy
    both maps into the padded buffer they build anyway, so the concat is
    never formed, in the forward or in the adjoint.
    """
    _check_pair(f_pre.value, f_cur.value, params)
    pre_mask = graph.conv2d((f_pre, f_cur), graph.leaf(params.weight),
                            graph.leaf(params.bias), params.spec)
    mask = graph.sigmoid(pre_mask)
    return graph.hadamard(f_cur, mask), mask
