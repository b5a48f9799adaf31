"""Plain-NumPy reference forward for checking ten-crop evaluation.

Everything here is written from the network's description, not from the
llanet kernels: convolution is a sum of one einsum per kernel tap, batch norm
uses the eval formula with the running statistics, the gate is
``f_cur * sigmoid(conv(concat(f_pre, f_cur)))``, pooling is a spatial mean,
and the head is an affine map followed by a softmax averaged over the crops.
Only the parameter values and the module layout come from the program.
"""

from __future__ import annotations

import numpy as np

BN_EPS = 1e-5


def conv(x, weight, stride, padding, bias=None):
    """Cross-correlation as a sum over kernel taps of channel contractions."""
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    n, _, h, w = x.shape
    o, _, kh, kw = weight.shape
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    out = np.zeros((n, o, oh, ow))
    for i in range(kh):
        for j in range(kw):
            taps = x[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride]
            out += np.einsum("nchw,oc->nohw", taps, weight[:, :, i, j])
    if bias is not None:
        out += bias[None, :, None, None]
    return out


def bn_eval(x, p, prefix):
    mean = p[f"{prefix}.running_mean"][None, :, None, None]
    var = p[f"{prefix}.running_var"][None, :, None, None]
    gamma = p[f"{prefix}.gamma"][None, :, None, None]
    beta = p[f"{prefix}.beta"][None, :, None, None]
    return gamma * (x - mean) / np.sqrt(var + BN_EPS) + beta


def sigmoid(z):
    return np.exp(-np.logaddexp(0.0, -z))


def relu(x):
    return np.where(x > 0, x, 0.0)


def ten_crops(pixels, size):
    """(10, c, size, size) float crops: four corners, center, then their mirrors."""
    _, h, w = pixels.shape
    spots = [(0, 0), (0, w - size), (h - size, 0), (h - size, w - size),
             ((h - size) // 2, (w - size) // 2)]
    crops = [pixels[:, t:t + size, l:l + size] for t, l in spots]
    crops += [c[:, :, ::-1] for c in crops]
    return np.stack(crops).astype(np.float64)


def forward_logits(x, p, modules, stem_kernel, attention_kernel):
    """Logits of an NCHW batch; ``modules`` lists (name, in_ch, out_ch, stride)."""
    y = relu(bn_eval(conv(x, p["stem.conv.weight"], 1, (stem_kernel - 1) // 2), p, "stem.bn"))
    for name, in_ch, out_ch, stride in modules:
        projected = stride != 1 or in_ch != out_ch
        f_in = y
        z = relu(bn_eval(conv(f_in, p[f"{name}.conv1.weight"], stride, 1), p, f"{name}.bn1"))
        z = bn_eval(conv(z, p[f"{name}.conv2.weight"], 1, 1), p, f"{name}.bn2")
        if projected:
            shortcut = bn_eval(conv(f_in, p[f"{name}.shortcut.conv.weight"], stride, 0),
                               p, f"{name}.shortcut.bn")
            f_pre = conv(f_in, p[f"{name}.align.weight"], stride, 0)
        else:
            shortcut = f_in
            f_pre = f_in
        f_cur = relu(z + shortcut)
        mask = sigmoid(conv(np.concatenate([f_pre, f_cur], axis=1), p[f"{name}.attn.weight"],
                            1, (attention_kernel - 1) // 2, p[f"{name}.attn.bias"]))
        y = f_cur * mask
    features = y.mean(axis=(2, 3))
    return features @ p["head.weight"].T + p["head.bias"]


def tencrop_probabilities(pixels, p, modules, crop, mean, std, stem_kernel=3,
                          attention_kernel=3):
    """Softmax probabilities of one uint8 (c, h, w) image, averaged over ten crops."""
    mean = np.asarray(mean, dtype=np.float64)[None, :, None, None]
    std = np.asarray(std, dtype=np.float64)[None, :, None, None]
    x = (ten_crops(pixels, crop) / 255.0 - mean) / std
    logits = forward_logits(x, p, modules, stem_kernel, attention_kernel)
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return (e / e.sum(axis=1, keepdims=True)).mean(axis=0)
