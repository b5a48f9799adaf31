"""SHA-256 of every artifact a fixed set of llanet runs writes, to compare two
checkouts bit for bit.

Usage: python3 scripts/artifact_digests.py WORKDIR [PRESET ...]
       (default presets: micro tiny resnet18)

Empties WORKDIR (it refuses one that holds anything it did not write) and
writes the demo dataset there (70 images of 32 px,
``demo.write_demo_dataset``'s defaults). Then, through ``llanet.cli.main``:

- for ``micro`` and ``tiny``: ``llanet train`` for two epochs with
  augmentation on, once per attention mode (``learned``, ``frozen``,
  ``off``), then ``eval --tencrop`` and ``dump-attention`` of module 0 on
  the ``learned`` run's checkpoint;
- ``llanet gradcheck --preset all``, its report saved as ``gradcheck.txt``;
- for ``resnet18``: three ``training.train_step``s at 112 px, batch 1, on a
  fixed random batch, then one digest per param and per momentum buffer
  (keys ``resnet18-steps/param/NAME`` and ``resnet18-steps/momentum/NAME``;
  no file is written).

Prints one JSON object from each artifact's path, relative to WORKDIR, to its
SHA-256. ``config.json`` holds the manifest paths made absolute, so run both
checkouts with the same WORKDIR, one after the other:

    python3 scripts/artifact_digests.py /tmp/digests > after.json
    (cd ../parent && python3 scripts/artifact_digests.py /tmp/digests) > before.json
    diff before.json after.json

What the commands print goes to stderr. A command that fails stops the
script with its exit code.
"""

import contextlib
import hashlib
import io
import json
import shutil
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from llanet import demo, network, training  # noqa: E402
from llanet.cli import main as cli_main  # noqa: E402

CLI_PRESETS = ("micro", "tiny")
STEP_SIZE, STEP_COUNT = 112, 3
WRITTEN = ("images", "train.csv", "configs", "out")  # all that WORKDIR may hold


def cli(*argv) -> str:
    """Run one llanet command; returns what it printed to stdout, which it
    also echoes to stderr."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main([str(a) for a in argv])
    sys.stderr.write(out.getvalue())
    if code != 0:
        print(f"llanet {' '.join(map(str, argv))} exited {code}", file=sys.stderr)
        sys.exit(code)
    return out.getvalue()


def run_cli_presets(workdir: Path, presets) -> None:
    for name in presets:
        for mode in network.ATTENTION_MODES:
            config = {
                "seed": 0,
                "network": {"preset": name, "attention": mode},
                "train": {"base_lr": 0.05, "batch_size": 35, "max_epochs": 2},
                "data": {"train_manifest": "../train.csv", "augment": {"enabled": True}},
            }
            path = workdir / "configs" / f"{name}-{mode}.json"
            path.write_text(json.dumps(config), encoding="utf-8")
            run = workdir / "out" / f"{name}-{mode}"
            cli("train", "--config", path, "--out", run)
        run = workdir / "out" / f"{name}-learned"
        cli("eval", "--config", run / "config.json", "--checkpoint", run / "best.ckpt",
            "--tencrop", "--out", workdir / "out" / f"{name}-eval")
        cli("dump-attention", "--checkpoint", run / "best.ckpt", "--image",
            workdir / "images" / "anger_000.ppm", "--module-index", 0,
            "--out", workdir / "out" / f"{name}-masks")


def step_digests() -> dict[str, str]:
    """Digests of every resnet18 param and momentum buffer after the steps."""
    cfg = network.preset("resnet18", seed=0)
    store = network.init_network(cfg)
    state = training.OptimizerState(store, training.TrainConfig())
    rng = np.random.default_rng(0)
    for _ in range(STEP_COUNT):
        x = rng.standard_normal((1, 3, STEP_SIZE, STEP_SIZE))
        training.train_step(store, state, x, rng.integers(0, cfg.num_classes, 1), cfg, 0.01)
    digests = {f"resnet18-steps/param/{p.name}": hashlib.sha256(p.value.tobytes()).hexdigest()
               for p in store}
    digests.update((f"resnet18-steps/momentum/{name}", hashlib.sha256(buf.tobytes()).hexdigest())
                   for name, buf in state.buffers.items())
    return digests


def main(argv) -> int:
    if not argv or argv[0].startswith("-"):
        print(__doc__, file=sys.stderr)
        return 2
    workdir, presets = Path(argv[0]).resolve(), argv[1:] or ["micro", "tiny", "resnet18"]
    unknown = [p for p in presets if p not in network.PRESET_NAMES]
    if unknown:
        print(f"unknown preset {unknown[0]!r}; choose from {network.PRESET_NAMES}",
              file=sys.stderr)
        return 2
    if workdir.exists() and not {p.name for p in workdir.iterdir()} <= set(WRITTEN):
        print(f"{workdir} holds files this script did not write; give an empty or "
              f"new directory", file=sys.stderr)
        return 2
    shutil.rmtree(workdir, ignore_errors=True)
    demo.write_demo_dataset(workdir)
    for sub in ("configs", "out"):
        (workdir / sub).mkdir()
    run_cli_presets(workdir, [p for p in presets if p in CLI_PRESETS])
    (workdir / "out" / "gradcheck.txt").write_text(cli("gradcheck", "--preset", "all"),
                                                    encoding="utf-8")
    digests = {str(path.relative_to(workdir)): hashlib.sha256(path.read_bytes()).hexdigest()
               for path in sorted((workdir / "out").rglob("*")) if path.is_file()}
    if "resnet18" in presets:
        digests.update(step_digests())
    print(json.dumps(digests, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
