"""Run-config validation and the command-line surface (exit codes, artifacts)."""

import csv
import hashlib
import json
import math

import numpy as np
import pytest

from llanet import cli, demo, network, tensor
from llanet.attention import attention_forward_graph
from llanet.autodiff import GradGraph
from llanet.cli import main
from llanet.config import ConfigError, DEFAULTS, echo_config, load_run_config
from llanet.data import (Image, format_image, load_image, parse_image, read_manifest, to_tensor,
                         write_image)
from llanet.network import init_network, network_forward_graph, save_checkpoint

# -- config loading ----------------------------------------------------------------


def test_defaults_fill_missing_sections():
    cfg = load_run_config({})
    assert cfg.seed == 0
    assert cfg.network.stem_channels == 8  # tiny preset
    assert cfg.train.base_lr == 0.01 and cfg.train.batch_size == 256
    assert cfg.norm.mean == (0.5, 0.5, 0.5)
    assert cfg.augment.enabled and cfg.augment.pad == 8
    assert cfg.train_manifest is None and cfg.eval_crop is None
    assert cfg.tencrop_val is False


def test_partial_overrides_keep_other_defaults():
    cfg = load_run_config({"train": {"base_lr": 0.05}})
    assert cfg.train.base_lr == 0.05
    assert cfg.train.momentum == DEFAULTS["train"]["momentum"]


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError) as e:
        load_run_config({"nets": {}})
    assert any("nets" in p for p in e.value.errors)


def test_typo_inside_section_reports_pointer():
    with pytest.raises(ConfigError) as e:
        load_run_config({"train": {"weight_dacay": 0.1}})
    assert any(p.startswith("/train") and "weight_dacay" in p for p in e.value.errors)


def test_wrong_type_reports_field_pointer():
    with pytest.raises(ConfigError) as e:
        load_run_config({"train": {"base_lr": "fast"}})
    assert any(p.startswith("/train/base_lr") for p in e.value.errors)


def test_multiple_problems_all_reported():
    with pytest.raises(ConfigError) as e:
        load_run_config({"seed": -1, "network": {"preset": "giant"}})
    assert len(e.value.errors) == 2


def test_seed_env_override():
    cfg = load_run_config({"seed": 5}, env={"LLA_SEED": "17"})
    assert cfg.seed == 17
    assert cfg.network.seed == 17 and cfg.train.seed == 17
    assert cfg.resolved["seed"] == 17


def test_seed_env_must_be_integer():
    for value in ("lucky", "-1"):  # a negative seed fails as the schema's /seed would
        with pytest.raises(ConfigError) as e:
            load_run_config({}, env={"LLA_SEED": value})
        assert any("LLA_SEED" in p for p in e.value.errors)


def test_mean_std_must_match_channels():
    with pytest.raises(ConfigError) as e:
        load_run_config({"network": {"input_channels": 1}})  # default mean has 3 entries
    assert any("/data/mean" in p for p in e.value.errors)
    with pytest.raises(ConfigError):
        load_run_config({"data": {"std": [0.5, 0.0, 0.5]}})


def test_config_file_loading(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"data": {"train_manifest": "splits/train.csv"}}))
    cfg = load_run_config(path)
    assert cfg.base_dir == tmp_path
    assert cfg.train_manifest == "splits/train.csv"


def test_config_file_with_bad_json(tmp_path):
    path = tmp_path / "run.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError) as e:
        load_run_config(path)
    assert any("not valid JSON" in p for p in e.value.errors)


def test_infinite_numbers_in_a_config_dict_are_refused():
    with pytest.raises(ConfigError) as e:
        load_run_config({"data": {"std": [0.5, math.inf, -math.inf]}})
    assert e.value.errors == ["/data/std/1: Infinity is not a finite number",
                              "/data/std/2: -Infinity is not a finite number"]


def test_top_level_must_be_object():
    with pytest.raises(ConfigError):
        load_run_config([1, 2, 3])


def test_echo_absolutizes_manifest_paths(tmp_path):
    src = tmp_path / "cfgdir"
    src.mkdir()
    path = src / "run.json"
    path.write_text(json.dumps({"data": {"train_manifest": "train.csv"}}))
    cfg = load_run_config(path)
    out = tmp_path / "out"
    out.mkdir()
    echoed = echo_config(cfg, out)
    doc = json.loads(echoed.read_text())
    assert doc["data"]["train_manifest"] == str((src / "train.csv").resolve())
    # the echoed file reloads cleanly and pins the same settings
    again = load_run_config(echoed)
    assert again.seed == cfg.seed and again.train == cfg.train


# -- small end-to-end dataset for CLI runs -------------------------------------------


@pytest.fixture(scope="module")
def cli_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    demo.write_demo_dataset(root, images_per_class=2, size=8, seed=1)
    config = {
        "seed": 0,
        "network": {"preset": "micro"},
        "train": {"base_lr": 0.05, "batch_size": 14, "max_epochs": 2},
        "data": {"train_manifest": "train.csv", "augment": {"enabled": False}},
    }
    (root / "run.json").write_text(json.dumps(config))
    return root


def run_cli(*argv):
    return main([str(a) for a in argv])


# -- rebalance command ---------------------------------------------------------------


def write_manifest_text(path, rows):
    header = "sequence_id,frame_index,image_path,label,source\n"
    path.write_text(header + "".join(rows))


def test_rebalance_cli_writes_report(tmp_path, capsys):
    src = tmp_path / "m.csv"
    write_manifest_text(src, [f"s,{i},img.ppm,6,primary\n" for i in range(25)])
    out = tmp_path / "out"
    rc = run_cli("rebalance", "--manifest", src, "--out", out)
    assert rc == 0
    merged = read_manifest(out / "manifest.csv")
    assert [r.frame_index for r in merged] == [0, 12, 24]  # default neutral k=12
    report = json.loads((out / "rebalance_report.json").read_text())
    assert report["neutral"] == {"before": 25, "removed": 22, "added": 0,
                                 "after": 3, "shortfall": 0}
    assert "neutral" in capsys.readouterr().out


def test_rebalance_cli_with_supplement_and_shortfall(tmp_path):
    src = tmp_path / "m.csv"
    write_manifest_text(src, ["s,0,img.ppm,0,primary\n"])
    supp = tmp_path / "ext.csv"
    write_manifest_text(supp, [f"x,{i},e.ppm,0,external_a\n" for i in range(3)])
    out = tmp_path / "out"
    rc = run_cli("rebalance", "--manifest", src, "--supplement", supp,
                 "--quota", "anger=10", "--out", out)
    assert rc == 0
    report = json.loads((out / "rebalance_report.json").read_text())
    assert report["anger"]["added"] == 3 and report["anger"]["shortfall"] == 7


def test_rebalance_cli_rejects_malformed_manifest(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("who,knows\n")
    assert run_cli("rebalance", "--manifest", bad, "--out", tmp_path / "o") == 2


def test_rebalance_cli_rejects_unknown_quota_class(tmp_path):
    src = tmp_path / "m.csv"
    write_manifest_text(src, ["s,0,img.ppm,0,primary\n"])
    rc = run_cli("rebalance", "--manifest", src, "--quota", "joy=5",
                 "--out", tmp_path / "o")
    assert rc == 2


def test_rebalance_cli_rejects_a_repeated_quota_class(tmp_path, capsys):
    src = tmp_path / "m.csv"
    write_manifest_text(src, ["s,0,img.ppm,0,primary\n"])
    out = tmp_path / "o"
    rc = run_cli("rebalance", "--manifest", src, "--quota", "anger=5", "--quota", "anger=1",
                 "--out", out)
    assert rc == 2
    err = capsys.readouterr().err
    assert "--quota" in err and "'anger'" in err
    assert not out.exists()


def rebalance_rejects(tmp_path, capsys, flag, *argv):
    """Run rebalance with a bad flag value: exit 2 naming the flag, and the
    output directory is never made."""
    src = tmp_path / "m.csv"
    write_manifest_text(src, ["s,0,img.ppm,0,primary\n"])
    out = tmp_path / "o"
    assert run_cli("rebalance", "--manifest", src, *argv, "--out", out) == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_rebalance_cli_rejects_k_neutral_below_one(tmp_path, capsys):
    rebalance_rejects(tmp_path, capsys, "--k-neutral", "--k-neutral", "0")


def test_rebalance_cli_rejects_k_happy_below_one(tmp_path, capsys):
    rebalance_rejects(tmp_path, capsys, "--k-happy", "--k-happy", "-1")


def test_rebalance_cli_rejects_negative_quota(tmp_path, capsys):
    rebalance_rejects(tmp_path, capsys, "--quota", "--quota", "anger=-5")


def test_rebalance_cli_rejects_negative_quota_with_supplement(tmp_path, capsys):
    supp = tmp_path / "ext.csv"
    write_manifest_text(supp, ["x,0,e.ppm,0,external_a\n"])
    rebalance_rejects(tmp_path, capsys, "--quota",
                      "--supplement", supp, "--quota", "fear=3", "--quota", "anger=-5")


def test_rebalance_cli_refuses_a_primary_supplement(tmp_path, capsys):
    src = tmp_path / "m.csv"
    write_manifest_text(src, ["s,0,img.ppm,0,primary\n"])
    supp = tmp_path / "ext.csv"
    write_manifest_text(supp, ["x,0,e.ppm,0,external_a\n", "p,0,p.ppm,0,primary\n"])
    out = tmp_path / "o"
    assert run_cli("rebalance", "--manifest", src, "--supplement", supp,
                   "--quota", "anger=5", "--out", out) == 2
    assert capsys.readouterr().err == (
        "error: manifest: supplement record ('p', 0) is not externally sourced\n")
    assert not out.exists()


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as e:
        run_cli("transmogrify")
    assert e.value.code == 2


# -- train / eval / dump-attention ----------------------------------------------------


def test_train_cli_produces_artifacts(cli_root, tmp_path, capsys):
    out = tmp_path / "run1"
    rc = run_cli("train", "--config", cli_root / "run.json", "--out", out)
    assert rc == 0
    for name in ("config.json", "environment.json", "train_log.jsonl", "best.ckpt",
                 "metrics.json"):
        assert (out / name).exists(), f"missing {name}"
    environment = json.loads((out / "environment.json").read_text())
    pinned = "not pinned" if tensor.blas_threads() is None else 1
    assert environment == {"numpy": np.__version__, "blas_config": tensor.blas_config(),
                           "blas_threads": pinned, "conv_workers": tensor.conv_workers()}
    lines = [json.loads(l) for l in (out / "train_log.jsonl").read_text().splitlines()]
    assert len(lines) == 2
    assert set(lines[0]) == {"epoch", "lr", "train_loss", "train_acc",
                             "val_acc", "val_f1", "val_score"}
    metrics = json.loads((out / "metrics.json").read_text())
    assert set(metrics) == {"best_epoch", "best_score", "train_loss", "train_acc", "val"}
    assert set(metrics["val"]) == {"per_class", "accuracy", "macro_f1", "score", "confusion"}
    assert "best epoch" in capsys.readouterr().out


def with_changes(cli_root, tmp_path, name, **sections):
    """A copy of the CLI run config with some section entries replaced."""
    cfg = json.loads((cli_root / "run.json").read_text())
    cfg["data"]["train_manifest"] = str(cli_root / "train.csv")
    for section, entries in sections.items():
        cfg[section].update(entries)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_train_cli_says_when_its_blas_is_not_pinned(cli_root, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(tensor, "blas_threads", lambda: None)
    monkeypatch.setenv("OPENBLAS_CORETYPE", "Haswell")
    out = tmp_path / "run"
    assert run_cli("train", "--config", cli_root / "run.json", "--out", out) == 0
    assert "BLAS threads are not pinned" in capsys.readouterr().err
    environment = json.loads((out / "environment.json").read_text())
    assert environment["blas_threads"] == "not pinned"
    assert environment["OPENBLAS_CORETYPE"] == "Haswell"


def test_train_cli_is_bit_reproducible(cli_root, tmp_path):
    # frozen gates take their own backward path: no gate weight gradient at all
    for config in (cli_root / "run.json",
                   with_changes(cli_root, tmp_path, "frozen.json", network={"attention": "frozen"})):
        digests = []
        for out in (tmp_path / config.stem / "a", tmp_path / config.stem / "b"):
            assert run_cli("train", "--config", config, "--out", out) == 0
            digests.append([hashlib.sha256((out / n).read_bytes()).hexdigest()
                            for n in ("metrics.json", "best.ckpt", "train_log.jsonl")])
        assert digests[0] == digests[1]


def test_train_cli_fails_loudly_on_divergence(cli_root, tmp_path, capsys):
    # the first step overflows the weights; the second step's forward is not finite
    config = with_changes(cli_root, tmp_path, "diverge.json", train={"base_lr": 1e300})
    out = tmp_path / "run"
    with np.errstate(all="ignore"):
        assert run_cli("train", "--config", config, "--out", out) == 1
    assert "diverged at epoch 1, batch 0" in capsys.readouterr().err

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    for line in (out / "train_log.jsonl").read_text().splitlines():
        json.loads(line, parse_constant=reject)


def test_train_cli_honors_seed_env(cli_root, tmp_path, monkeypatch):
    monkeypatch.setenv("LLA_SEED", "3")
    out = tmp_path / "seeded"
    assert run_cli("train", "--config", cli_root / "run.json", "--out", out) == 0
    echoed = json.loads((out / "config.json").read_text())
    assert echoed["seed"] == 3


def test_train_cli_requires_manifest(tmp_path):
    cfg = tmp_path / "no_data.json"
    cfg.write_text("{}")
    assert run_cli("train", "--config", cfg, "--out", tmp_path / "o") == 2


def test_train_cli_rejects_bad_config(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"train": {"weight_dacay": 1}}))
    assert run_cli("train", "--config", cfg, "--out", tmp_path / "o") == 2


def test_train_cli_rejects_a_nan_token(cli_root, tmp_path, capsys):
    # Python's json reads the NaN token that json.dumps writes for a NaN
    config = with_changes(cli_root, tmp_path, "nan.json", train={"base_lr": math.nan})
    assert '"base_lr": NaN' in config.read_text()
    out = tmp_path / "run"
    assert run_cli("train", "--config", config, "--out", out) == 2
    assert "/train/base_lr: NaN is not a finite number" in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture(scope="module")
def trained_run(cli_root, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    assert run_cli("train", "--config", cli_root / "run.json", "--out", out) == 0
    return out


def test_eval_cli_from_echoed_config(cli_root, trained_run, tmp_path):
    out = tmp_path / "eval"
    rc = run_cli("eval", "--config", trained_run / "config.json",
                 "--checkpoint", trained_run / "best.ckpt", "--out", out)
    assert rc == 0
    report = json.loads((out / "metrics.json").read_text())
    assert 0.0 <= report["score"] <= 1.0
    rows = (out / "predictions.csv").read_text().splitlines()
    assert rows[0] == "sequence_id,frame_index,label,predicted"
    assert len(rows) == 1 + 14  # 7 classes x 2 images
    assert all(0 <= int(r.rsplit(",", 1)[1]) < 7 for r in rows[1:])


def test_eval_cli_failing_midway_keeps_the_earlier_predictions(trained_run, tmp_path, monkeypatch):
    argv = ("eval", "--config", trained_run / "config.json",
            "--checkpoint", trained_run / "best.ckpt", "--out", tmp_path)
    assert run_cli(*argv) == 0
    earlier = (tmp_path / "predictions.csv").read_bytes()
    writer = csv.writer

    def failing_writer(fh, **kwargs):
        rows = writer(fh, **kwargs)

        class Failing:
            written = 0

            def writerow(self, row):
                if self.written == 3:
                    raise OSError("disk full")
                self.written += 1
                return rows.writerow(row)
        return Failing()

    monkeypatch.setattr(csv, "writer", failing_writer)
    assert run_cli(*argv) == 1
    assert (tmp_path / "predictions.csv").read_bytes() == earlier
    assert sorted(f.name for f in tmp_path.iterdir()) == ["metrics.json", "predictions.csv"]


def test_eval_cli_tencrop(cli_root, trained_run, tmp_path):
    rc = run_cli("eval", "--config", trained_run / "config.json",
                 "--checkpoint", trained_run / "best.ckpt",
                 "--tencrop", "--out", tmp_path / "e10")
    assert rc == 0


def test_eval_cli_wrong_checkpoint_architecture(cli_root, trained_run, tmp_path):
    other_cfg = tmp_path / "other.json"
    other_cfg.write_text(json.dumps({
        "network": {"preset": "micro", "attention": "off"},
        "data": {"train_manifest": str(cli_root / "train.csv")},
    }))
    rc = run_cli("eval", "--config", other_cfg,
                 "--checkpoint", trained_run / "best.ckpt", "--out", tmp_path / "o")
    assert rc == 1


def test_eval_cli_names_a_checkpoint_entry_name_that_is_not_utf8(trained_run, tmp_path, capsys):
    data = bytearray((trained_run / "best.ckpt").read_bytes())
    at = data.index(b"stem.conv.weight")  # the first entry's name
    data[at] = 0xFF
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(bytes(data))
    rc = run_cli("eval", "--config", trained_run / "config.json",
                 "--checkpoint", bad, "--out", tmp_path / "o")
    assert rc == 1
    assert f"{bad}: the name of entry 0 is not UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "eval"])
def test_cli_refuses_fewer_classes_than_the_manifest_labels(command, cli_root, trained_run,
                                                            tmp_path, capsys):
    config = with_changes(cli_root, tmp_path, "three.json", network={"num_classes": 3})
    checkpoint = ("--checkpoint", trained_run / "best.ckpt") if command == "eval" else ()
    out = tmp_path / "run"
    assert run_cli(command, "--config", config, *checkpoint, "--out", out) == 2
    err = capsys.readouterr().err
    assert "/network/num_classes: 3 classes cannot hold label 6" in err
    assert str(cli_root / "train.csv") in err
    assert not out.exists()


@pytest.mark.parametrize("checkpoint", ["truncated", "missing"])
def test_eval_reads_its_checkpoint_before_it_makes_the_output(checkpoint, trained_run,
                                                               tmp_path, capsys):
    bad = tmp_path / "bad.ckpt"
    if checkpoint == "truncated":
        bad.write_bytes((trained_run / "best.ckpt").read_bytes()[:100])
    out = tmp_path / "run"
    assert run_cli("eval", "--config", trained_run / "config.json",
                   "--checkpoint", bad, "--out", out) == 1
    assert str(bad) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "eval"])
def test_cli_refuses_an_eval_crop_larger_than_an_image(command, cli_root, trained_run,
                                                       tmp_path, capsys):
    config = with_changes(cli_root, tmp_path, "crop.json", data={"eval_crop": 16})
    checkpoint = ("--checkpoint", trained_run / "best.ckpt") if command == "eval" else ()
    out = tmp_path / "run"
    assert run_cli(command, "--config", config, *checkpoint, "--out", out) == 2
    image = cli_root / read_manifest(cli_root / "train.csv").records[0].image_path
    assert f"/data/eval_crop: 16 exceeds the 8x8 image {image}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "eval"])
def test_cli_refuses_an_empty_default_eval_crop(command, cli_root, trained_run, tmp_path,
                                                capsys):
    # with no eval_crop, evaluate crops 7/8 of each image's shorter side: 0 px at 1 px
    config, images = sized_config(cli_root, tmp_path, [(1, 1), (1, 1)], batch_size=2)
    checkpoint = ("--checkpoint", trained_run / "best.ckpt") if command == "eval" else ()
    out = tmp_path / "run"
    assert run_cli(command, "--config", config, *checkpoint, "--out", out) == 2
    assert (f"/data/eval_crop: unset, and the default crop (7/8 of the shorter side) of "
            f"the 1x1 image {images[0]} is 0 pixels" in capsys.readouterr().err)
    assert not out.exists()


@pytest.fixture(scope="module")
def gray_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("gray")
    demo.write_demo_dataset(root, images_per_class=1, size=8, seed=1, channels=1)
    return root


@pytest.mark.parametrize("command", ["train", "eval", "dump-attention"])
def test_cli_refuses_images_with_another_channel_count(command, cli_root, gray_root,
                                                       trained_run, tmp_path, capsys):
    image = gray_root / read_manifest(gray_root / "train.csv").records[0].image_path
    config = with_changes(cli_root, tmp_path, "gray.json",
                          data={"train_manifest": str(gray_root / "train.csv")})
    out = tmp_path / "run"
    argv = {"train": ("--config", config),
            "eval": ("--config", config, "--checkpoint", trained_run / "best.ckpt"),
            "dump-attention": ("--checkpoint", trained_run / "best.ckpt", "--image", image,
                               "--module-index", 0)}[command]
    assert run_cli(command, *argv, "--out", out) == 2
    assert (f"/network/input_channels: the network reads 3-channel images, {image} has 1"
            in capsys.readouterr().err)
    assert not out.exists()


def sized_config(cli_root, tmp_path, sizes, batch_size, pad=None):
    """The CLI run config on a train manifest of one random image per
    (height, width) in ``sizes``, augmented with ``pad`` unless it is None;
    returns the config and the image paths."""
    rng = np.random.default_rng(5)
    images = [tmp_path / f"img{i}.ppm" for i in range(len(sizes))]
    for path, (h, w) in zip(images, sizes):
        write_image(path, Image(rng.integers(0, 256, (3, h, w), dtype=np.uint8)))
    write_manifest_text(tmp_path / "sized.csv", [f"s,{i},img{i}.ppm,{i},primary\n"
                                                 for i in range(len(sizes))])
    data = {"train_manifest": str(tmp_path / "sized.csv"),
            "augment": {"enabled": pad is not None, "pad": pad or 0}}
    config = with_changes(cli_root, tmp_path, "sized.json", train={"batch_size": batch_size},
                          data=data)
    return config, images


@pytest.mark.parametrize("sizes, pad, inputs", [
    ([(8, 8), (8, 12)], None, ("8x8", "8x12")),  # the whole image when augmentation is off
    ([(8, 12), (12, 8)], 2, ("8x8", "12x12")),  # the h x h crop when it is on
], ids=["augment-off", "augment-on"])
def test_cli_refuses_training_inputs_of_two_sizes_in_a_batch(sizes, pad, inputs, cli_root,
                                                             tmp_path, capsys):
    config, images = sized_config(cli_root, tmp_path, sizes, batch_size=2, pad=pad)
    out = tmp_path / "run"
    assert run_cli("train", "--config", config, "--out", out) == 2
    assert (f"/data/train_manifest: batch_size 2 needs training inputs of one size, but "
            f"{images[0]} gives {inputs[0]}, {images[1]} {inputs[1]}"
            in capsys.readouterr().err)
    assert not out.exists()


def test_cli_refuses_an_augmented_image_taller_than_its_padded_width(cli_root, tmp_path,
                                                                     capsys):
    config, images = sized_config(cli_root, tmp_path, [(8, 8), (16, 8)], batch_size=1, pad=2)
    out = tmp_path / "run"
    assert run_cli("train", "--config", config, "--out", out) == 2
    assert (f"/data/augment/pad: the 16x8 image {images[1]} is taller than its width "
            f"padded by 2 a side" in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("sizes, batch_size, pad", [
    ([(8, 8), (12, 12), (8, 12)], 1, None),  # any sizes train one image at a time
    ([(8, 8), (8, 12)], 2, 2),  # both train on 8x8 crops
], ids=["batch-1", "augment-crops"])
def test_cli_trains_on_images_of_several_sizes_when_they_batch(sizes, batch_size, pad,
                                                               cli_root, tmp_path):
    config, _ = sized_config(cli_root, tmp_path, sizes, batch_size, pad)
    assert run_cli("train", "--config", config, "--out", tmp_path / "run") == 0


def test_dump_attention_runs_only_up_to_its_module(monkeypatch, module_spy, tmp_path, capsys):
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps({"network": {"preset": "tiny"}}))
    cfg = load_run_config(config)
    store = init_network(cfg.network)
    save_checkpoint(tmp_path / "net.ckpt", store, cfg.network)
    img = demo.class_image(2, 32, np.random.default_rng(0))
    write_image(tmp_path / "face.ppm", img)
    # the mask of module 0 that a whole forward makes
    network_forward_graph(GradGraph(record=False), to_tensor(img, cfg.norm.mean, cfg.norm.std),
                          store, cfg.network, train=False)
    want = module_spy.modules[0].mask.value[0]
    gates = []
    monkeypatch.setattr(network, "attention_forward_graph",
                        lambda *args: gates.append(args) or attention_forward_graph(*args))
    out = tmp_path / "masks"
    assert run_cli("dump-attention", "--checkpoint", tmp_path / "net.ckpt", "--config", config,
                   "--image", tmp_path / "face.ppm", "--module-index", 0, "--out", out) == 0
    assert len(gates) == 1
    assert capsys.readouterr().out == (
        "module s0b0: wrote 8 PGM channels (32x32) and mask_m0.bin\n")
    dims = np.asarray(want.shape, dtype="<u4")
    assert (out / "mask_m0.bin").read_bytes() == (
        np.asarray([3], dtype="<u4").tobytes() + dims.tobytes() + want.astype("<f8").tobytes())
    assert sorted(f.name for f in out.iterdir()) == sorted(
        ["mask_m0.bin"] + [f"mask_m0_c{c}.pgm" for c in range(8)])
    for c in range(8):
        assert (out / f"mask_m0_c{c}.pgm").read_bytes() == format_image(
            Image(np.rint(want[c] * 255.0).astype(np.uint8)[None]))


def test_out_of_memory_ends_with_one_line(monkeypatch, capsys):
    message = "Unable to allocate 8.00 PiB for an array with shape (2**50,) and data type float64"

    def exhausted(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "run_suite", exhausted)
    assert run_cli("gradcheck", "--preset", "ops") == 1
    out, err = capsys.readouterr()
    assert err == f"error: out of memory: {message}\n" and out == ""


def test_dump_attention_cli(cli_root, trained_run, tmp_path):
    image = read_manifest(cli_root / "train.csv").records[0].image_path
    out = tmp_path / "masks"
    rc = run_cli("dump-attention", "--checkpoint", trained_run / "best.ckpt",
                 "--image", cli_root / image, "--module-index", 0, "--out", out)
    assert rc == 0  # config.json discovered next to the checkpoint
    pgms = sorted(out.glob("mask_m0_c*.pgm"))
    assert len(pgms) == 4  # micro preset: 4 channels
    raw = (out / "mask_m0.bin").read_bytes()
    ndim = int(np.frombuffer(raw[:4], dtype="<u4")[0])
    dims = np.frombuffer(raw[4:4 + 4 * ndim], dtype="<u4")
    mask = np.frombuffer(raw[4 + 4 * ndim:], dtype="<f8").reshape(dims)
    assert mask.shape == (4, 8, 8)
    assert np.all((mask > 0.0) & (mask < 1.0))
    # the PGM is the 8-bit rendering of the same mask
    first = load_image(pgms[0])
    np.testing.assert_array_equal(first.pixels[0], np.rint(mask[0] * 255).astype(np.uint8))


def test_dump_attention_module_index_out_of_range(cli_root, trained_run, tmp_path):
    image = read_manifest(cli_root / "train.csv").records[0].image_path
    rc = run_cli("dump-attention", "--checkpoint", trained_run / "best.ckpt",
                 "--image", cli_root / image, "--module-index", 5,
                 "--out", tmp_path / "o")
    assert rc == 2


def test_dump_attention_requires_discoverable_config(cli_root, trained_run, tmp_path):
    bare = tmp_path / "bare.ckpt"
    bare.write_bytes((trained_run / "best.ckpt").read_bytes())
    image = read_manifest(cli_root / "train.csv").records[0].image_path
    rc = run_cli("dump-attention", "--checkpoint", bare,
                 "--image", cli_root / image, "--module-index", 0,
                 "--out", tmp_path / "o")
    assert rc == 2


def test_dump_attention_refuses_gateless_network(cli_root, trained_run, tmp_path):
    cfg = tmp_path / "off.json"
    cfg.write_text(json.dumps({"network": {"preset": "micro", "attention": "off"}}))
    image = read_manifest(cli_root / "train.csv").records[0].image_path
    rc = run_cli("dump-attention", "--checkpoint", trained_run / "best.ckpt",
                 "--config", cfg, "--image", cli_root / image,
                 "--module-index", 0, "--out", tmp_path / "o")
    assert rc == 2


# -- gradcheck command ------------------------------------------------------------------


def test_gradcheck_cli_passes(capsys):
    assert run_cli("gradcheck", "--preset", "ops") == 0
    out = capsys.readouterr().out
    assert "conv2d" in out and "softmax_cross_entropy" in out and "worst:" in out
    assert "FAIL" not in out


def test_gradcheck_cli_flags_violations(capsys):
    assert run_cli("gradcheck", "--preset", "ops", "--tolerance", "1e-12") == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("flag, value", [("--eps", "0"), ("--eps", "-1e-5"), ("--eps", "nan"),
                                         ("--eps", "inf"), ("--tolerance", "0"),
                                         ("--tolerance", "-1"), ("--tolerance", "nan"),
                                         ("--tolerance", "inf")])
def test_gradcheck_cli_rejects_bad_eps_and_tolerance(flag, value, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the suite ran")

    monkeypatch.setattr(cli, "run_suite", never)
    assert run_cli("gradcheck", "--preset", "ops", f"{flag}={value}") == 2
    out, err = capsys.readouterr()
    assert flag in err and "finite and > 0" in err and out == ""
