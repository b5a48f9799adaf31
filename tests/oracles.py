"""Independent reference implementations used to verify the fast kernels.

Everything here is deliberately written the slow, obvious way - nested
Python loops, two-phase algorithms, extended-precision arithmetic - so that
agreement with the production code is meaningful evidence rather than the
same code tested against itself.
"""

import math

import numpy as np
from mpmath import mp


def conv2d_naive(x, weight, bias, stride, padding):
    """Six-nested-loop direct cross-correlation."""
    n, c, h, w = x.shape
    oc, ic, kh, kw = weight.shape
    assert ic == c
    xp = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
    xp[:, :, padding:padding + h, padding:padding + w] = x
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    out = np.zeros((n, oc, oh, ow), dtype=x.dtype)
    for b_i in range(n):
        for o in range(oc):
            for i in range(oh):
                for j in range(ow):
                    acc = 0.0
                    for ci in range(c):
                        for ki in range(kh):
                            for kj in range(kw):
                                acc += (xp[b_i, ci, i * stride + ki, j * stride + kj]
                                        * weight[o, ci, ki, kj])
                    if bias is not None:
                        acc += bias[o]
                    out[b_i, o, i, j] = acc
    return out


def conv2d_weight_grad_fsum(x, dy, kh, kw, stride, padding):
    """Conv weight gradient with each entry correctly rounded: one math.fsum
    over its n*oh*ow products. Also returns each entry's sum of product
    magnitudes, the scale any summation order's rounding error is bounded by."""
    n, c, h, w = x.shape
    _, oc, oh, ow = dy.shape
    xp = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
    xp[:, :, padding:padding + h, padding:padding + w] = x
    exact = np.zeros((oc, c, kh, kw))
    scale = np.zeros((oc, c, kh, kw))
    for o in range(oc):
        for ci in range(c):
            for ki in range(kh):
                for kj in range(kw):
                    window = xp[:, ci, ki:ki + stride * oh:stride, kj:kj + stride * ow:stride]
                    products = (dy[:, o] * window).ravel().tolist()
                    exact[o, ci, ki, kj] = math.fsum(products)
                    scale[o, ci, ki, kj] = math.fsum(abs(p) for p in products)
    return exact, scale


def linear_naive(x, weight, bias):
    """Triple-loop affine map."""
    n, d = x.shape
    k = weight.shape[0]
    out = np.zeros((n, k), dtype=x.dtype)
    for i in range(n):
        for j in range(k):
            acc = bias[j]
            for t in range(d):
                acc += x[i, t] * weight[j, t]
            out[i, j] = acc
    return out


def maxpool_naive(x, window, stride):
    """Nested-loop windowed maximum."""
    n, c, h, w = x.shape
    oh = (h - window) // stride + 1
    ow = (w - window) // stride + 1
    out = np.empty((n, c, oh, ow), dtype=x.dtype)
    for b in range(n):
        for ci in range(c):
            for i in range(oh):
                for j in range(ow):
                    best = -np.inf
                    for ki in range(window):
                        for kj in range(window):
                            best = max(best, x[b, ci, i * stride + ki, j * stride + kj])
                    out[b, ci, i, j] = best
    return out


def global_avg_naive(x):
    n, c, h, w = x.shape
    out = np.zeros((n, c, 1, 1), dtype=x.dtype)
    for b in range(n):
        for ci in range(c):
            out[b, ci, 0, 0] = sum(x[b, ci, i, j] for i in range(h) for j in range(w)) / (h * w)
    return out


def channel_moments_naive(x):
    """Per-channel mean and population variance, accumulated elementwise."""
    n, c, h, w = x.shape
    means = np.zeros(c)
    variances = np.zeros(c)
    m = n * h * w
    for ci in range(c):
        vals = [x[b, ci, i, j] for b in range(n) for i in range(h) for j in range(w)]
        mu = sum(vals) / m
        means[ci] = mu
        variances[ci] = sum((v - mu) ** 2 for v in vals) / m
    return means, variances


def batchnorm_adjoint_naive(x, gamma, dy, mean, var, eps, train):
    """Batch norm's input, gamma and beta gradients, channel by channel.

    The textbook formula (Ioffe & Szegedy, 2015): with dxhat = gamma * dy,
    train mode gives dx = inv / m * (m * dxhat - s1 - xhat * s2), where
    s1 = sum(dxhat) and s2 = sum(dxhat * xhat) over the channel's m values;
    eval mode, whose statistics are constants, gives dx = dxhat * inv. Every
    sum is a correctly rounded ``math.fsum``. Returns (dx, dgamma, dbeta).
    """
    n, c, h, w = x.shape
    m = n * h * w
    dx = np.empty_like(x)
    dgamma = np.empty(c)
    dbeta = np.empty(c)
    for ci in range(c):
        inv = 1.0 / math.sqrt(var[ci] + eps)
        xhat = [(v - mean[ci]) * inv for v in x[:, ci].ravel()]
        dys = list(dy[:, ci].ravel())
        dxhat = [g * gamma[ci] for g in dys]
        dgamma[ci] = math.fsum(g * xh for g, xh in zip(dys, xhat))
        dbeta[ci] = math.fsum(dys)
        if train:
            s1 = math.fsum(dxhat)
            s2 = math.fsum(d * xh for d, xh in zip(dxhat, xhat))
            vals = [inv / m * (m * d - s1 - xh * s2) for d, xh in zip(dxhat, xhat)]
        else:
            vals = [d * inv for d in dxhat]
        dx[:, ci] = np.reshape(vals, (n, h, w))
    return dx, dgamma, dbeta


def softmax_ce_mp(logits, labels, dps=50):
    """Softmax cross-entropy at 50 decimal digits of precision."""
    with mp.workdps(dps):
        losses = []
        all_probs = []
        for row, label in zip(logits, labels):
            exps = [mp.exp(mp.mpf(float(v))) for v in row]
            z = mp.fsum(exps)
            all_probs.append([float(e / z) for e in exps])
            losses.append(-mp.log(exps[int(label)] / z))
        loss = float(mp.fsum(losses) / len(losses))
    return loss, np.array(all_probs)


def split_runs(records):
    """Two-phase run discovery: accumulate, then emit whole runs."""
    runs = []
    current = []
    for r in records:
        if current and (r.sequence_id == current[-1].sequence_id
                        and r.label == current[-1].label
                        and r.frame_index == current[-1].frame_index + 1):
            current.append(r)
        else:
            if current:
                runs.append(current)
            current = [r]
    if current:
        runs.append(current)
    return runs


def undersample_naive(records, k_by_class):
    """Reference thinning: split into runs, then python-slice each run."""
    out = []
    for run in split_runs(records):
        k = k_by_class.get(run[0].label, 1)
        kept = run[::k]
        assert len(kept) == math.ceil(len(run) / k)
        out.extend(kept)
    return out


def sgd_recurrence(grad_fn, x0, lr, momentum, steps):
    """Hand-rolled scalar heavy-ball recurrence for optimizer cross-checks."""
    x, buf = x0, 0.0
    trajectory = []
    for _ in range(steps):
        buf = momentum * buf + grad_fn(x)
        x = x - lr * buf
        trajectory.append(x)
    return trajectory
