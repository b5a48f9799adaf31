"""Lossless attention: a full-dimension 3D gate over the current feature map.

The previous and current feature maps are concatenated along channels, one
convolution reduces 2C back to C, and a sigmoid turns that into a mask M
with every element strictly inside (0, 1) and the *same* (C, H, W) extent
as the features - no squeeze to a channel vector or a single spatial map.
The refined output is simply f_cur * M, so the gate can only attenuate.
"""

from __future__ import annotations

import numpy as np

from .autodiff import GradGraph, Node, Param
from .tensor import ConvSpec


def attention_conv_spec(channels: int, kernel: int = 3) -> ConvSpec:
    """Spec of the mask convolution: 2C -> C, odd kernel, spatial dims preserved."""
    if channels < 1:
        raise ValueError(f"channels must be >= 1, got {channels}")
    if kernel % 2 == 0:
        raise ValueError(f"kernel must be odd so padding can preserve spatial dims, got {kernel}")
    return ConvSpec(out_channels=channels, in_channels=2 * channels,
                    kernel_h=kernel, kernel_w=kernel,
                    stride=1, padding=(kernel - 1) // 2, has_bias=True)


def attention_forward(f_pre: np.ndarray, f_cur: np.ndarray, weight: Param, bias: Param,
                      spec: ConvSpec) -> tuple[np.ndarray, np.ndarray]:
    """The gate on a graph that records no tape; returns (refined map, attention mask)."""
    graph = GradGraph(record=False)
    refined, mask = attention_forward_graph(graph, graph.constant(f_pre),
                                            graph.constant(f_cur), weight, bias, spec)
    return refined.value, mask.value


def attention_forward_graph(graph: GradGraph, f_pre: Node, f_cur: Node, weight: Param,
                            bias: Param, spec: ConvSpec) -> tuple[Node, Node]:
    """The gate on a tape: mask conv of ``f_pre``‖``f_cur``, sigmoid, multiply.

    The conv reads the pair ``(f_pre, f_cur)`` as its input: its kernels copy
    both maps into the padded buffer they build anyway, so the concat is
    never formed, in the forward or in the adjoint.
    """
    pre_mask = graph.conv2d((f_pre, f_cur), graph.leaf(weight), graph.leaf(bias), spec)
    mask = graph.sigmoid(pre_mask)
    return graph.hadamard(f_cur, mask), mask
