"""The four benchmark workloads.

Each workload builds its inputs from the seed in ``setup`` (the benchmark
repeats set-up and reports the median), runs identical rounds of work in
``run_round``, and verifies the program's outputs in ``check``. A round
returns ``(attempted, failed)`` item counts; an item that failed is one whose
output is unusable (a non-finite loss, an invalid probability row, a
gradient entry in a suite report over tolerance).

Workloads drive llanet only through the public functions of its modules.
"""

from __future__ import annotations

import gc
import math
import shutil
from pathlib import Path

import numpy as np

from llanet import autodiff, data, demo, metrics, network, training, verify

import reference

NORM = training.Normalization(mean=(0.5, 0.5, 0.5), std=(0.5, 0.5, 0.5))
AUGMENT = training.AugmentConfig(enabled=True, pad=8)
DIRECTION_STEP = 1e-6      # central-difference step along a random unit direction
DIRECTION_TOL = 1e-5       # relative error allowed between tape and central difference
DIRECTIONS = 5             # tries, each a new direction and the next batch, before failing
GRADCHECK_TOL = 1e-4       # the gradcheck suite's own tolerance
REFERENCE_TOL = 1e-10      # absolute, per ten-crop probability
REFERENCE_IMAGES = 3


def _decode(root: Path, manifest_path: Path, count: int | None = None) -> training.LoadedDataset:
    manifest = data.read_manifest(manifest_path)
    if count is not None:
        manifest = data.DatasetManifest(manifest.records[:count])
    return training.LoadedDataset.from_manifest(manifest, root)


def _batch(dataset: training.LoadedDataset, start: int, count: int) -> np.ndarray:
    return np.concatenate([data.to_tensor(img, NORM.mean, NORM.std)
                           for img in dataset.images[start:start + count]])


def _snapshot(store: network.ParamStore) -> dict[str, np.ndarray]:
    return {p.name: p.value.copy() for p in store}


def _restore(store: network.ParamStore, snapshot: dict[str, np.ndarray]) -> None:
    for p in store:
        np.copyto(p.value, snapshot[p.name])


def directional_error(store, cfg, batches, seed) -> tuple[float, int, list[float]]:
    """Relative error of the tape gradient along random unit directions.

    The loss is taken in train mode with ``update_running=False`` so every
    evaluation of one batch sees the same batch-norm state. A central
    difference that straddles a ReLU kink is meaningless, and now and then a
    trained network holds a unit within 1e-10 of its kink, which every small
    step straddles. So up to ``DIRECTIONS`` tries are made, each with a new
    direction and the next of ``batches``; the first within tolerance ends the
    check. A wrong gradient fails on all of them. Returns the smallest error,
    the number of tries, and every loss computed.
    """
    def loss_graph(x, labels):
        graph = autodiff.GradGraph()
        _, loss = network.network_loss_graph(graph, x, labels, store, cfg, train=True,
                                             update_running=False)
        return graph, loss

    params = store.trainable()
    saved = {p.name: p.value.copy() for p in params}
    losses = []
    best = math.inf
    for tries in range(1, DIRECTIONS + 1):
        x, labels = batches[(tries - 1) % len(batches)]
        graph, loss = loss_graph(x, labels)
        grads = graph.backward(loss)
        losses.append(float(loss.value))
        rng = np.random.default_rng([seed, 7, tries])
        direction = {p.name: rng.standard_normal(p.value.shape) for p in params}
        norm = math.sqrt(math.fsum(float((d * d).sum()) for d in direction.values()))
        analytic = math.fsum(float((grads[p.name] * direction[p.name]).sum())
                             for p in params) / norm
        del graph, loss, grads
        gc.collect()
        pair = []
        for sign in (1.0, -1.0):
            for p in params:
                np.copyto(p.value, saved[p.name] + (sign * DIRECTION_STEP / norm) * direction[p.name])
            pair.append(float(loss_graph(x, labels)[1].value))
            gc.collect()
        for p in params:
            np.copyto(p.value, saved[p.name])
        losses += pair
        best = min(best, autodiff.relative_error(analytic, (pair[0] - pair[1]) / (2 * DIRECTION_STEP)))
        if best < DIRECTION_TOL:
            break
    return best, tries, losses


def _gradient_problems(store, cfg, dataset, batch_size, seed) -> list[str]:
    batches = [(_batch(dataset, start, batch_size), dataset.labels[start:start + batch_size])
               for start in range(0, len(dataset) - batch_size + 1, batch_size)]
    err, tries, losses = directional_error(store, cfg, batches, seed)
    problems = []
    if not all(math.isfinite(v) for v in losses):
        problems.append(f"non-finite loss at the final parameters: {losses}")
    if not err < DIRECTION_TOL:
        problems.append(f"directional gradient error {err:.3e} >= {DIRECTION_TOL:.0e} "
                        f"on each of {tries} tries")
    return problems


class Workload:
    name = ""
    item = ""
    setup_reps = 5

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self._reps = 0

    def fresh_dir(self) -> Path:
        """An empty directory for one set-up repetition; the previous one is removed."""
        self._reps += 1
        old = self.workdir / f"setup{self._reps - 1}"
        shutil.rmtree(old, ignore_errors=True)
        path = self.workdir / f"setup{self._reps}"
        path.mkdir(parents=True)
        return path

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self) -> tuple[int, int]:
        raise NotImplementedError

    def check(self) -> list[str]:
        raise NotImplementedError


class TrainTiny(Workload):
    """``training.fit`` of the tiny preset on the synthetic demo classes."""

    name = "train-tiny"
    item = "training image stepped"
    epochs = 3

    def setup(self):
        root = self.fresh_dir()
        train_csv = demo.write_demo_dataset(root / "train", images_per_class=20, size=32,
                                            seed=1000 * self.seed + 1)
        val_csv = demo.write_demo_dataset(root / "val", images_per_class=5, size=32,
                                          seed=1000 * self.seed + 2)
        self.train = _decode(root / "train", train_csv)
        self.val = _decode(root / "val", val_csv)
        self.cfg = network.preset("tiny", attention="learned", seed=self.seed)
        self.train_cfg = training.TrainConfig(batch_size=35, max_epochs=self.epochs, seed=self.seed)
        self.store = network.init_network(self.cfg)
        self.initial = _snapshot(self.store)
        self.out_dir = root / "fit"
        self.out_dir.mkdir()

    def run_round(self):
        _restore(self.store, self.initial)
        self.result = training.fit(self.store, self.cfg, self.train_cfg, self.train, self.val,
                                   NORM, AUGMENT, out_dir=self.out_dir)
        attempted = self.epochs * len(self.train)
        bad_epochs = sum(not math.isfinite(h["train_loss"]) for h in self.result.history)
        return attempted, bad_epochs * len(self.train)

    def check(self):
        problems = []
        history = self.result.history
        losses = [h["train_loss"] for h in history]
        if not all(math.isfinite(v) for v in losses):
            problems.append(f"non-finite epoch loss in {losses}")
        elif not losses[-1] < losses[0]:
            problems.append(f"last epoch loss {losses[-1]} is not below the first {losses[0]}")
        best = network.init_network(self.cfg)
        network.load_checkpoint(self.result.checkpoint_path, best, self.cfg)
        cm, _ = training.evaluate(best, self.val, self.cfg, NORM)
        s = metrics.summarize(cm)
        score = metrics.challenge_score(s.accuracy, s.macro_f1)
        logged = history[self.result.best_epoch]["val_score"]
        if score != logged or score != self.result.best_score:
            problems.append(f"best.ckpt scores {score!r}, the log says {logged!r}")
        return problems + _gradient_problems(self.store, self.cfg, self.train,
                                             self.train_cfg.batch_size, self.seed)


class TrainResnet18(Workload):
    """``training.train_epoch`` of the resnet18 preset at 112 px, batch 1."""

    name = "train-resnet18"
    item = "training image stepped"
    setup_reps = 3
    images = 2

    def setup(self):
        root = self.fresh_dir()
        csv_path = demo.write_demo_dataset(root, images_per_class=1, size=112,
                                           seed=1000 * self.seed + 3)
        self.dataset = _decode(root, csv_path, self.images)
        self.cfg = network.preset("resnet18", attention="learned", seed=self.seed)
        self.train_cfg = training.TrainConfig(batch_size=1, max_epochs=1, seed=self.seed)
        self.store = None  # let the previous repetition's parameters go first
        self.initial = None
        self.store = network.init_network(self.cfg)
        self.initial = _snapshot(self.store)
        ckpt = root / "init.ckpt"
        network.save_checkpoint(ckpt, self.store, self.cfg)
        network.load_checkpoint(ckpt, self.store, self.cfg)
        self.roundtrip_exact = all(np.array_equal(p.value, self.initial[p.name])
                                   for p in self.store)

    def run_round(self):
        _restore(self.store, self.initial)
        state = training.OptimizerState(self.store, self.train_cfg)
        rng = np.random.default_rng([self.seed, 1])
        self.stats = training.train_epoch(self.store, state, self.dataset, self.cfg,
                                          self.train_cfg, NORM, AUGMENT, rng, epoch=0)
        attempted = len(self.dataset)
        return attempted, 0 if math.isfinite(self.stats.loss) else attempted

    def check(self):
        problems = []
        if not self.roundtrip_exact:
            problems.append("checkpoint save/load did not reproduce the parameters bit for bit")
        if not math.isfinite(self.stats.loss):
            problems.append(f"non-finite epoch loss {self.stats.loss}")
        return problems + _gradient_problems(self.store, self.cfg, self.dataset,
                                             self.train_cfg.batch_size, self.seed)


class EvalTencrop(Workload):
    """``training.evaluate`` with ten-crop averaging, tiny checkpoint, 32 px images."""

    name = "eval-tencrop"
    item = "image scored over its ten crops"
    crop = 28

    def setup(self):
        root = self.fresh_dir()
        csv_path = demo.write_demo_dataset(root, images_per_class=30, size=32,
                                           seed=1000 * self.seed + 4)
        self.dataset = _decode(root, csv_path)
        self.cfg = network.preset("tiny", attention="learned", seed=self.seed)
        made = network.init_network(self.cfg)
        # Give the checkpoint non-trivial batch-norm statistics and biases, so that
        # eval-mode normalisation and the gate bias matter in the reference check.
        rng = np.random.default_rng([self.seed, 5])
        for p in made:
            if p.name.endswith(("running_mean", "beta", ".bias")):
                p.value[...] = rng.normal(0.0, 0.2, p.value.shape)
            elif p.name.endswith(("running_var", "gamma")):
                p.value[...] = rng.uniform(0.5, 1.5, p.value.shape)
        ckpt = root / "model.ckpt"
        network.save_checkpoint(ckpt, made, self.cfg)
        self.store = network.init_network(self.cfg)
        network.load_checkpoint(ckpt, self.store, self.cfg)
        self.roundtrip_exact = all(np.array_equal(p.value, made[p.name].value) for p in self.store)
        self.first = None

    def run_round(self):
        self.cm, self.predictions = training.evaluate(self.store, self.dataset, self.cfg, NORM,
                                                      crop_size=self.crop, use_tencrop=True)
        probs = np.stack([p.probabilities for p in self.predictions])
        if self.first is None:
            self.first = probs
        bad = ~(np.isfinite(probs).all(axis=1) & (np.abs(probs.sum(axis=1) - 1.0) <= 1e-12))
        return len(self.dataset), int(bad.sum())

    def check(self):
        problems = []
        if not self.roundtrip_exact:
            problems.append("checkpoint save/load did not reproduce the parameters bit for bit")
        probs = np.stack([p.probabilities for p in self.predictions])
        if not np.array_equal(probs, self.first):
            problems.append("rounds disagree: evaluation is not deterministic")
        if not np.all(np.abs(probs.sum(axis=1) - 1.0) <= 1e-12):
            problems.append("a probability row does not sum to 1")
        if any(p.predicted != int(np.argmax(p.probabilities)) for p in self.predictions):
            problems.append("a prediction is not the argmax of its probability row")
        if self.cm.total != len(self.dataset):
            problems.append(f"confusion matrix holds {self.cm.total} of {len(self.dataset)} images")
        params = {p.name: p.value for p in self.store}
        modules = [(m.name, m.in_channels, m.out_channels, m.stride)
                   for m in network.module_plan(self.cfg)]
        rng = np.random.default_rng([self.seed, 6])
        for i in rng.choice(len(self.dataset), size=REFERENCE_IMAGES, replace=False):
            ref = reference.tencrop_probabilities(
                self.dataset.images[i].pixels, params, modules, self.crop, NORM.mean, NORM.std,
                self.cfg.stem_kernel, self.cfg.attention_kernel)
            diff = float(np.max(np.abs(ref - self.predictions[i].probabilities)))
            if not diff <= REFERENCE_TOL:
                problems.append(f"image {i}: ten-crop probabilities differ from the "
                                f"reference by {diff:.3e}")
        return problems


class Gradcheck(Workload):
    """``verify.run_suite("all")``, the suite behind ``llanet gradcheck``."""

    name = "gradcheck"
    item = "gradient entry checked"
    setup_reps = 1

    def setup(self):
        pass

    def run_round(self):
        self.reports = verify.run_suite("all")
        attempted = sum(r.checked for _, r in self.reports)
        failed = sum(r.checked for _, r in self.reports if not r.max_error < GRADCHECK_TOL)
        return attempted, failed

    def check(self):
        return [f"{name}: max relative error {r.max_error:.3e} >= {GRADCHECK_TOL:.0e}"
                for name, r in self.reports if not r.max_error < GRADCHECK_TOL]


WORKLOADS = {w.name: w for w in (TrainTiny, TrainResnet18, EvalTencrop, Gradcheck)}
