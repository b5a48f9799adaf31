"""SGD training recipe and evaluation loops.

Optimization is classical momentum SGD with weight decay folded into the
gradient (g + wd * param) before the momentum buffer update; batch-norm
scales/shifts and biases are decay-exempt by default. The learning rate is
flat for ``decay_start_epoch`` epochs and then decays exponentially.

A train step never holds the whole network's gradient. Its backward sweep
hands each weight gradient over as soon as no adjoint still to run can add
to it; the step checks it for non-finite entries, folds it into the
param's momentum buffer and drops it. The params move only after the
sweep, and only when the loss and every gradient were finite. ``sgd_step``
applies the same formula to a whole gradient dict, with the same bits.

Evaluation scores one image at a time: either a single center crop or the
ten-crop ensemble (averaging softmax probabilities, arg-max tie going to the
lowest class index).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import data as data_mod
from . import tensor
from .autodiff import GradGraph, Param, first_non_finite
from .metrics import ConfusionMatrix, challenge_score, metrics_report, summarize
from .network import (NetworkConfig, ParamStore, network_loss_graph,
                      network_forward, save_checkpoint)


@dataclass(frozen=True)
class TrainConfig:
    base_lr: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 5e-4
    batch_size: int = 256
    decay_start_epoch: int = 60
    decay_rate: float = 0.9
    max_epochs: int = 60
    seed: int = 0
    decay_exempt_norm_bias: bool = True

    def __post_init__(self):
        # each bound is written so that NaN fails it too
        if not 0.0 < self.base_lr < math.inf:
            raise ValueError("base_lr must be finite and > 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if not 0.0 <= self.weight_decay < math.inf:
            raise ValueError("weight_decay must be finite and >= 0")
        if not 0.0 < self.decay_rate <= 1.0:
            raise ValueError("decay_rate must be in (0, 1]")
        if not (self.batch_size >= 1 and self.max_epochs >= 1 and self.decay_start_epoch >= 0):
            raise ValueError("batch_size/max_epochs must be >= 1, decay_start_epoch >= 0")


def lr_at_epoch(epoch: int, cfg: TrainConfig) -> float:
    """Flat until the decay epoch, then base_lr * rate^(epoch - start + 1)."""
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    if epoch < cfg.decay_start_epoch:
        return cfg.base_lr
    return cfg.base_lr * cfg.decay_rate ** (epoch - cfg.decay_start_epoch + 1)


class DivergenceError(ValueError):
    """A train step gave a loss or a gradient that is not finite."""


# Elements per in-place SGD pass: the param, gradient, buffer and scratch
# slices of one pass (1 MiB in float64) stay in the L2 cache. One thread, an
# update of every resnet18 weight took 76 ms this way against 150 ms for the
# whole-array formula with its weight-sized temporaries.
SGD_CHUNK = 1 << 15


def _chunks(*arrays):
    """Matching slices of ``arrays`` (the first one's shape) along the first
    axis, about ``SGD_CHUNK`` elements each."""
    arrays = [np.atleast_1d(a) for a in arrays]
    rows = max(1, SGD_CHUNK // max(1, math.prod(arrays[0].shape[1:])))
    for start in range(0, len(arrays[0]), rows):
        yield [a[start:start + rows] for a in arrays]


class OptimizerState:
    """Momentum buffers mirroring the trainable parameters, plus step/epoch counters.

    The SGD formula comes in two halves, each run per param in ``SGD_CHUNK``
    slices with its temporaries in one scratch buffer, so no temporary is as
    large as a weight: ``absorb`` folds a gradient into the param's buffer,
    ``apply`` moves the param by it. Every element goes through the same
    operations as in the whole-array formula, so the results are
    bit-identical to it.
    """

    def __init__(self, store: ParamStore, cfg: TrainConfig):
        self.momentum = cfg.momentum
        self.weight_decay = cfg.weight_decay
        self.exempt_flagged = cfg.decay_exempt_norm_bias
        self.buffers = {p.name: np.zeros_like(p.value) for p in store.trainable()}
        self.step_count = 0
        self.epoch = 0
        self._scratch = np.empty(0)

    def _tmp(self, like: np.ndarray) -> np.ndarray:
        # a chunk may be one row larger than SGD_CHUNK; the dtype is the param's
        if self._scratch.size < like.size or self._scratch.dtype != like.dtype:
            self._scratch = np.empty(max(SGD_CHUNK, like.size), dtype=like.dtype)
        return self._scratch[:like.size].reshape(like.shape)

    def absorb(self, p: Param, grad: np.ndarray) -> None:
        """g = grad + wd*param; buf = momentum*buf + g (in place; the param stays)."""
        if grad.shape != p.value.shape:
            raise ValueError(f"gradient shape {grad.shape} != parameter shape {p.value.shape} "
                             f"for {p.name!r}")
        decay = self.weight_decay if not (self.exempt_flagged and p.decay_exempt) else 0.0
        for v, b, g in _chunks(p.value, self.buffers[p.name], grad):
            if decay:
                tmp = self._tmp(v)
                np.multiply(v, decay, out=tmp)
                tmp += g
                g = tmp
            b *= self.momentum
            b += g

    def apply(self, p: Param, lr: float) -> None:
        """param -= lr*buf (in place)."""
        for v, b in _chunks(p.value, self.buffers[p.name]):
            tmp = self._tmp(v)
            np.multiply(b, lr, out=tmp)
            v -= tmp


def _missing(p: Param) -> ValueError:
    return ValueError(f"gradient missing for trainable parameter {p.name!r}")


def sgd_step(store: ParamStore, grads: dict, state: OptimizerState, lr: float) -> None:
    """g = grad + wd*param; buf = momentum*buf + g; param -= lr*buf (in place).

    Absorbs every gradient into its momentum buffer, then applies every
    buffer to its param (``OptimizerState.absorb`` and ``apply``).
    """
    params = store.trainable()
    for p in params:
        if p.name not in grads:
            raise _missing(p)
    for p in params:
        state.absorb(p, grads[p.name])
    for p in params:
        state.apply(p, lr)
    state.step_count += 1


def _all_finite(g) -> bool:
    """Whether every entry of ``g`` is finite, scanned in ``SGD_CHUNK`` slices
    through one small bool buffer, so no temporary as large as ``g`` is made."""
    flat = np.ravel(g)
    buf = np.empty(SGD_CHUNK, dtype=bool)
    parts = (flat[start:start + SGD_CHUNK] for start in range(0, flat.size, SGD_CHUNK))
    return all(np.isfinite(part, out=buf[:part.size]).all() for part in parts)


# -- in-memory dataset -----------------------------------------------------------


class LoadedDataset:
    """All images of a manifest decoded into memory, in manifest order."""

    def __init__(self, records, images, labels):
        self.records = list(records)
        self.images = list(images)
        self.labels = np.asarray(labels, dtype=np.int64)

    @classmethod
    def from_manifest(cls, manifest: data_mod.DatasetManifest, root) -> "LoadedDataset":
        root = Path(root)
        images = [data_mod.load_image(root / r.image_path) for r in manifest]
        return cls(manifest.records, images, [r.label for r in manifest])

    def __len__(self):
        return len(self.records)


@dataclass(frozen=True)
class Normalization:
    mean: tuple
    std: tuple


@dataclass(frozen=True)
class AugmentConfig:
    enabled: bool = True
    pad: int = 8


def _batch_tensor(images, norm: Normalization) -> np.ndarray:
    return np.concatenate([data_mod.to_tensor(img, norm.mean, norm.std) for img in images])


# -- epoch loop ------------------------------------------------------------------


@dataclass
class EpochStats:
    epoch: int
    lr: float
    loss: float
    accuracy: float


def train_step(store: ParamStore, state: OptimizerState, x: np.ndarray, labels,
               net_cfg: NetworkConfig, lr: float) -> tuple[float, np.ndarray]:
    """One momentum-SGD step on the batch ``x``; returns the loss and the
    predicted class of each image.

    The forward runs in train mode. The backward sweep hands each weight
    gradient over as soon as it is final: it is scanned for non-finite
    entries and folded into its momentum buffer (``OptimizerState.absorb``),
    then dropped, so the step never holds the whole network's gradient.
    Only after the sweep, and only when the loss and every gradient are
    finite, does every param move (``OptimizerState.apply``).

    Raises ``DivergenceError`` when the loss or a gradient is not finite,
    before any param moves and with ``step_count`` unchanged; the momentum
    buffers have already absorbed that step's gradients and are not restored.
    Raises ``ValueError`` when a trainable param got no gradient.
    """
    params = {p.name: p for p in store.trainable()}
    bad = None

    def absorb(name, grad):
        nonlocal bad
        if not _all_finite(grad):
            bad = name  # gradients arrive in reverse leaf order: the last bad one is the first
        p = params.pop(name, None)
        if p is not None:
            state.absorb(p, grad)

    graph = GradGraph(sink=absorb)
    logits, loss = network_loss_graph(graph, x, labels, store, net_cfg, train=True)
    graph.backward(loss)
    loss, predicted = float(loss.value), np.argmax(logits.value, axis=1)
    del graph, logits  # free this step's tape before a rebuild or the next forward
    if bad is not None or not math.isfinite(loss):
        first = first_non_finite(lambda g: network_loss_graph(
            g, x, labels, store, net_cfg, train=True, update_running=False)[1])
        if first is None:
            where = f"the gradient of {bad!r}"
        else:
            where = f"tape op {first[0]!r}" + (f" ({first[1]})" if first[1] else "")
        raise DivergenceError(f"the loss or a gradient is not finite, first at {where}")
    if params:
        raise _missing(next(iter(params.values())))
    for p in store.trainable():
        state.apply(p, lr)
    state.step_count += 1
    return loss, predicted


def train_epoch(store: ParamStore, state: OptimizerState, dataset: LoadedDataset,
                net_cfg: NetworkConfig, train_cfg: TrainConfig, norm: Normalization,
                augment: AugmentConfig | None, rng: np.random.Generator,
                epoch: int) -> EpochStats:
    """One shuffled pass: a ``train_step`` per batch.

    Raises ``DivergenceError`` naming the epoch and batch when a step's loss
    or gradient is not finite, before that step moves any param.
    """
    if len(dataset) == 0:
        raise ValueError("cannot train on an empty dataset")
    lr = lr_at_epoch(epoch, train_cfg)
    order = rng.permutation(len(dataset))
    loss_sum = 0.0
    correct = 0
    for batch, start in enumerate(range(0, len(order), train_cfg.batch_size)):
        idx = order[start:start + train_cfg.batch_size]
        imgs = []
        for i in idx:
            img = dataset.images[i]
            if augment is not None and augment.enabled:
                img = data_mod.augment_train(img, img.height, augment.pad, rng)
            imgs.append(img)
        labels = dataset.labels[idx]
        x = _batch_tensor(imgs, norm)
        try:
            loss, predicted = train_step(store, state, x, labels, net_cfg, lr)
        except DivergenceError as e:
            raise DivergenceError(
                f"training diverged at epoch {epoch}, batch {batch}: {e}") from None
        loss_sum += loss * len(idx)
        correct += int((predicted == labels).sum())
    state.epoch = epoch + 1
    return EpochStats(epoch=epoch, lr=lr, loss=loss_sum / len(dataset),
                      accuracy=correct / len(dataset))


# -- evaluation ------------------------------------------------------------------


@dataclass
class Prediction:
    record: data_mod.SampleRecord
    label: int
    predicted: int
    probabilities: np.ndarray


def evaluate(store: ParamStore, dataset: LoadedDataset, net_cfg: NetworkConfig,
             norm: Normalization, crop_size: int | None = None,
             use_tencrop: bool = False) -> tuple[ConfusionMatrix, list[Prediction]]:
    """Score every image once; ten-crop averages softmax probabilities."""
    cm = ConfusionMatrix(net_cfg.num_classes)
    predictions = []
    for rec, img, label in zip(dataset.records, dataset.images, dataset.labels):
        size = crop_size or data_mod.default_eval_crop(min(img.height, img.width))
        if use_tencrop:
            batch = data_mod.ten_crop_tensor(img, size, norm.mean, norm.std)
        else:
            batch = _batch_tensor([data_mod.center_crop(img, size)], norm)
        logits = network_forward(batch, store, net_cfg)
        probs = tensor.softmax(logits).mean(axis=0)
        pred = int(np.argmax(probs))
        cm.update(int(label), pred)
        predictions.append(Prediction(rec, int(label), pred, probs))
    return cm, predictions


# -- full fit loop ---------------------------------------------------------------


@dataclass
class FitResult:
    history: list[dict]
    best_epoch: int
    best_score: float
    best_val_report: dict
    final_train: EpochStats
    checkpoint_path: Path | None


def fit(store: ParamStore, net_cfg: NetworkConfig, train_cfg: TrainConfig,
        train_data: LoadedDataset, val_data: LoadedDataset, norm: Normalization,
        augment: AugmentConfig | None, out_dir=None, eval_crop: int | None = None,
        tencrop_val: bool = False, log_stream=None) -> FitResult:
    """Train for max_epochs, keeping the checkpoint with the best challenge score.

    Writes one JSON line per epoch to ``log_stream`` with the keys
    {epoch, lr, train_loss, train_acc, val_acc, val_f1, val_score}.
    """
    state = OptimizerState(store, train_cfg)
    rng = np.random.default_rng([train_cfg.seed, 1])
    ckpt_path = None if out_dir is None else Path(out_dir) / "best.ckpt"
    history = []
    best_epoch, best_score, best_report = -1, -np.inf, None
    stats = None
    for epoch in range(train_cfg.max_epochs):
        stats = train_epoch(store, state, train_data, net_cfg, train_cfg, norm,
                            augment, rng, epoch)
        cm, _ = evaluate(store, val_data, net_cfg, norm, crop_size=eval_crop,
                         use_tencrop=tencrop_val)
        s = summarize(cm)
        score = challenge_score(s.accuracy, s.macro_f1)
        entry = {
            "epoch": epoch,
            "lr": stats.lr,
            "train_loss": stats.loss,
            "train_acc": stats.accuracy,
            "val_acc": s.accuracy,
            "val_f1": s.macro_f1,
            "val_score": score,
        }
        history.append(entry)
        if log_stream is not None:
            log_stream.write(json.dumps(entry, allow_nan=False) + "\n")
            log_stream.flush()
        if score > best_score:
            best_epoch, best_score, best_report = epoch, score, metrics_report(cm)
            if ckpt_path is not None:
                save_checkpoint(ckpt_path, store, net_cfg)
    return FitResult(history=history, best_epoch=best_epoch, best_score=best_score,
                     best_val_report=best_report, final_train=stats,
                     checkpoint_path=ckpt_path)
