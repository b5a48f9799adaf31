"""Command-line interface.

Commands: ``rebalance`` (manifest thinning + supplementation), ``train``,
``eval``, ``gradcheck`` (finite-difference verification), and
``dump-attention`` (export a module's attention mask).

Exit codes are uniform: 0 success, 1 runtime failure (I/O, numeric, out of
memory), 2 usage or validation failure (bad flags, malformed config/manifest).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from itertools import islice
from pathlib import Path

import numpy as np

from . import data as data_mod
from .autodiff import GradGraph
from .config import ConfigError, RunConfig, echo_config, load_run_config
from .data import LABEL_NAMES, ManifestError
from .metrics import metrics_report
from .network import (CheckpointError, init_network, load_checkpoint,
                      module_plan, network_modules_graph)
from .training import LoadedDataset, evaluate, fit
from .verify import run_suite

USAGE_ERROR = 2
RUNTIME_ERROR = 1


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _parse_quotas(pairs) -> dict[int, int]:
    quotas = {}
    for spec in pairs or ():
        name, _, value = spec.partition("=")
        if name not in LABEL_NAMES:
            raise ConfigError([f"--quota: unknown class {name!r}; "
                               f"choose from {', '.join(LABEL_NAMES)}"])
        cls = LABEL_NAMES.index(name)
        if cls in quotas:
            raise ConfigError([f"--quota: class {name!r} is given more than once"])
        try:
            quotas[cls] = int(value)
        except ValueError:
            raise ConfigError([f"--quota: {spec!r} is not of the form class=COUNT"]) from None
    return quotas


def cmd_rebalance(args) -> int:
    quotas = _parse_quotas(args.quota)
    for flag, value, low in (("--k-neutral", args.k_neutral, 1), ("--k-happy", args.k_happy, 1),
                             *((f"--quota {LABEL_NAMES[c]}", q, 0) for c, q in quotas.items())):
        if value < low:
            raise ConfigError([f"{flag}: must be >= {low}, got {value}"])
    manifest = data_mod.read_manifest(args.manifest)
    k_by_class = {LABEL_NAMES.index("neutral"): args.k_neutral,
                  LABEL_NAMES.index("happiness"): args.k_happy}
    supplement = data_mod.read_manifest(args.supplement) if args.supplement else None
    merged, report = data_mod.rebalance(manifest, k_by_class, supplement, quotas)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    data_mod.write_manifest(out / "manifest.csv", merged)
    with data_mod.atomic_open(out / "rebalance_report.json") as fh:
        fh.write(json.dumps(report, indent=2) + "\n")
    for name, row in report.items():
        print(f"{name:>10}: before {row['before']:>7}  removed {row['removed']:>7}  "
              f"added {row['added']:>6}  after {row['after']:>7}"
              + (f"  (shortfall {row['shortfall']})" if row["shortfall"] else ""))
    print(f"{'total':>10}: {len(merged)} records -> {out / 'manifest.csv'}")
    return 0


def _channels_message(image_path, img, channels: int) -> str:
    return (f"/network/input_channels: the network reads {channels}-channel images, "
            f"{image_path} has {img.channels}")


def _load_split(cfg: RunConfig, which: str, evaluated: bool, trained=False) -> LoadedDataset:
    """Load a manifest's images, refusing what the network cannot read: an
    image with another channel count; for the split that ``evaluate`` crops
    (``evaluated``), one smaller than ``eval_crop`` or, with no ``eval_crop``,
    one whose default crop (7/8 of its shorter side) is empty; and for the
    split that ``train_epoch`` batches (``trained``), one taller than its
    padded width when augmentation is on, or, at a ``batch_size`` above 1,
    training inputs of two sizes (the h x h crop with augmentation, else the
    image)."""
    rel = cfg.train_manifest if which == "train" else cfg.val_manifest
    if rel is None:
        raise ConfigError([f"/data/{which}_manifest: required for this command"])
    path = cfg.base_dir / rel
    manifest = data_mod.read_manifest(path)
    if len(manifest) == 0:
        raise ConfigError([f"/data/{which}_manifest: {path} has no records"])
    top = max(r.label for r in manifest)
    if top >= cfg.network.num_classes:
        raise ConfigError([f"/network/num_classes: {cfg.network.num_classes} classes "
                           f"cannot hold label {top} of {path}"])
    dataset = LoadedDataset.from_manifest(manifest, path.parent)
    channels, crop = cfg.network.input_shape[0], cfg.eval_crop if evaluated else None
    pad = cfg.augment.pad if cfg.augment.enabled else None
    sizes = {}  # training input size -> the first image of that size
    for rec, img in zip(dataset.records, dataset.images):
        image_path = path.parent / rec.image_path
        if img.channels != channels:
            raise ConfigError([_channels_message(image_path, img, channels)])
        side = min(img.height, img.width)
        if crop is not None and crop > side:
            raise ConfigError([f"/data/eval_crop: {crop} exceeds the {img.height}x{img.width} "
                               f"image {image_path}"])
        if evaluated and crop is None and data_mod.default_eval_crop(side) < 1:
            raise ConfigError([f"/data/eval_crop: unset, and the default crop (7/8 of the "
                               f"shorter side) of the {img.height}x{img.width} image "
                               f"{image_path} is 0 pixels"])
        if trained and pad is not None and img.height > img.width + 2 * pad:
            raise ConfigError([f"/data/augment/pad: the {img.height}x{img.width} image "
                               f"{image_path} is taller than its width padded by {pad} a side"])
        sizes.setdefault(f"{img.height}x{img.height if pad is not None else img.width}", image_path)
        if trained and cfg.train.batch_size > 1 and len(sizes) > 1:
            (a, first), (b, other) = sizes.items()
            raise ConfigError([f"/data/train_manifest: batch_size {cfg.train.batch_size} needs "
                               f"training inputs of one size, but {first} gives {a}, {other} {b}"])
    return dataset


def cmd_train(args) -> int:
    cfg = load_run_config(args.config)
    # validation evaluates the train split when there is no val manifest
    train_data = _load_split(cfg, "train", evaluated=not cfg.val_manifest, trained=True)
    val_data = _load_split(cfg, "val", evaluated=True) if cfg.val_manifest else train_data
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    echo_config(cfg, out)

    store = init_network(cfg.network)

    with open(out / "train_log.jsonl", "w", encoding="utf-8") as log:
        result = fit(store, cfg.network, cfg.train, train_data, val_data, cfg.norm,
                     cfg.augment, out_dir=out, eval_crop=cfg.eval_crop,
                     tencrop_val=cfg.tencrop_val, log_stream=log)

    final = {
        "best_epoch": result.best_epoch,
        "best_score": result.best_score,
        "train_loss": result.final_train.loss,
        "train_acc": result.final_train.accuracy,
        "val": result.best_val_report,
    }
    with data_mod.atomic_open(out / "metrics.json") as fh:
        fh.write(json.dumps(final, indent=2) + "\n")
    print(f"trained {cfg.train.max_epochs} epochs on {len(train_data)} images; "
          f"best epoch {result.best_epoch} (score {result.best_score:.4f})")
    print(f"artifacts in {out}: config.json train_log.jsonl best.ckpt metrics.json")
    return 0


def cmd_eval(args) -> int:
    cfg = load_run_config(args.config)
    dataset = _load_split(cfg, "val" if cfg.val_manifest else "train", evaluated=True)
    store = init_network(cfg.network)
    load_checkpoint(args.checkpoint, store, cfg.network)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    cm, predictions = evaluate(store, dataset, cfg.network, cfg.norm,
                               crop_size=cfg.eval_crop, use_tencrop=args.tencrop)
    report = metrics_report(cm)
    with data_mod.atomic_open(out / "metrics.json") as fh:
        fh.write(json.dumps(report, indent=2) + "\n")
    with data_mod.atomic_open(out / "predictions.csv") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["sequence_id", "frame_index", "label", "predicted"])
        for p in predictions:
            writer.writerow([p.record.sequence_id, p.record.frame_index,
                             p.label, p.predicted])
    print(f"evaluated {len(predictions)} images"
          + (" with ten-crop averaging" if args.tencrop else "")
          + f": accuracy {report['accuracy']:.4f}, macro F1 {report['macro_f1']:.4f}, "
            f"score {report['score']:.4f}")
    return 0


def cmd_gradcheck(args) -> int:
    for flag, value in (("--eps", args.eps), ("--tolerance", args.tolerance)):
        if not 0.0 < value < np.inf:
            raise ConfigError([f"{flag}: must be finite and > 0, got {value}"])
    results = run_suite(args.preset, eps=args.eps)
    worst_name, worst = None, -1.0
    failed = False
    for name, report in results:
        ok = report.max_error < args.tolerance
        failed |= not ok
        print(f"{name:<28} max_rel_err {report.max_error:.3e}  "
              f"({report.checked} entries)  {'ok' if ok else 'FAIL'}")
        if report.max_error > worst:
            worst_name, worst = name, report.max_error
    print(f"worst: {worst_name} at {worst:.3e} (tolerance {args.tolerance:.1e})")
    return 0 if not failed else RUNTIME_ERROR


def cmd_dump_attention(args) -> int:
    config_path = Path(args.config) if args.config else Path(args.checkpoint).parent / "config.json"
    if not config_path.exists():
        return _fail(f"no config at {config_path}; pass --config explicitly", USAGE_ERROR)
    cfg = load_run_config(config_path)
    if cfg.network.attention == "off":
        return _fail("this network was configured without attention gates", USAGE_ERROR)
    store = init_network(cfg.network)
    load_checkpoint(args.checkpoint, store, cfg.network)

    img = data_mod.load_image(args.image)
    if img.channels != cfg.network.input_shape[0]:
        return _fail(_channels_message(args.image, img, cfg.network.input_shape[0]), USAGE_ERROR)
    x = data_mod.to_tensor(img, cfg.norm.mean, cfg.norm.std)
    plan = module_plan(cfg.network)
    if not 0 <= args.module_index < len(plan):
        return _fail(f"module index {args.module_index} out of range "
                     f"[0, {len(plan)})", USAGE_ERROR)

    # the modules after the one asked for, and the head, never run
    modules = network_modules_graph(GradGraph(record=False), x, store, cfg.network, train=False)
    mask = next(islice(modules, args.module_index, None))[1].value[0]  # (C, H, W)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    scaled = np.rint(mask * 255.0).astype(np.uint8)
    for ch in range(mask.shape[0]):
        data_mod.write_image(out / f"mask_m{args.module_index}_c{ch}.pgm",
                             data_mod.Image(scaled[ch][None]))
    raw_path = out / f"mask_m{args.module_index}.bin"
    with data_mod.atomic_open(raw_path, "wb") as fh:
        dims = np.asarray(mask.shape, dtype="<u4")
        fh.write(np.asarray([dims.size], dtype="<u4").tobytes())
        fh.write(dims.tobytes())
        fh.write(np.ascontiguousarray(mask, dtype="<f8").tobytes())
    print(f"module {plan[args.module_index].name}: wrote {mask.shape[0]} PGM channels "
          f"({mask.shape[1]}x{mask.shape[2]}) and {raw_path.name}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="llanet",
        description="Train and probe an attention-gated residual classifier.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rebalance", help="undersample frame runs and merge supplements")
    p.add_argument("--manifest", required=True, help="input manifest CSV")
    p.add_argument("--k-neutral", type=int, default=12, help="keep every k-th neutral frame")
    p.add_argument("--k-happy", type=int, default=2, help="keep every k-th happiness frame")
    p.add_argument("--supplement", help="external manifest to draw additions from")
    p.add_argument("--quota", action="append", metavar="CLASS=N",
                   help="per-class addition quota, e.g. anger=24242 (repeatable)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_rebalance)

    p = sub.add_parser("train", help="train a model from a JSON run config")
    p.add_argument("--config", required=True, help="run configuration JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--config", required=True, help="run configuration JSON")
    p.add_argument("--checkpoint", required=True, help="checkpoint file to load")
    p.add_argument("--tencrop", action="store_true", help="average over ten crops per image")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="verify gradients against central differences")
    p.add_argument("--preset", choices=["ops", "net", "all"], default="all",
                   help="ops: each kernel in isolation; net: end-to-end networks")
    p.add_argument("--eps", type=float, default=1e-5, help="finite-difference step")
    p.add_argument("--tolerance", type=float, default=1e-4,
                   help="max acceptable relative error")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("dump-attention", help="export one module's attention mask")
    p.add_argument("--checkpoint", required=True, help="checkpoint file to load")
    p.add_argument("--config", help="run config JSON (default: config.json next to checkpoint)")
    p.add_argument("--image", required=True, help="input image (PPM/PGM)")
    p.add_argument("--module-index", type=int, required=True,
                   help="which combined module's mask to dump (0-based)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_dump_attention)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        for problem in e.errors:
            print(f"config error: {problem}", file=sys.stderr)
        return USAGE_ERROR
    except ManifestError as e:
        return _fail(f"manifest: {e}", USAGE_ERROR)
    except (CheckpointError, data_mod.ImageFormatError, OSError, ValueError) as e:
        return _fail(str(e), RUNTIME_ERROR)
    except MemoryError as e:
        return _fail(f"out of memory: {e}", RUNTIME_ERROR)


if __name__ == "__main__":
    sys.exit(main())
