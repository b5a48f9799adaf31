"""Acceptance gate: every release criterion, each printing one PASS line.

The published headline numbers come from GPU-scale training on a
license-restricted corpus, so acceptance substitutes exhaustive desk-scale
evidence: finite-difference gradient verification, oracle equivalence,
pinned metric/rebalancing arithmetic, module invariants, an overfit smoke
test in both gating modes, bit-level determinism, and the ten-crop contract.
"""

import hashlib
import json
import math
import time

import numpy as np
import numpy.testing as npt
import pytest

import oracles
from conftest import (EXPECTED_AFTER, EXPECTED_TOTAL_AFTER, IMBALANCE_K, IMBALANCE_QUOTAS,
                      build_imbalance_manifests, make_gate)
from llanet import tensor
from llanet.attention import attention_forward
from llanet.cli import main as cli_main
from llanet.data import (DatasetManifest, LABEL_NAMES, SampleRecord, rebalance, ten_crop,
                         undersample_sequences)
from llanet.metrics import challenge_score
from llanet.network import init_network, network_forward, preset
from llanet.training import (AugmentConfig, LoadedDataset, OptimizerState, TrainConfig,
                             evaluate, train_epoch)
from llanet.verify import run_suite


def passline(n, text):
    print(f"PASS criterion {n}: {text}")


# -- 1. gradient suite --------------------------------------------------------------


def test_criterion_1_gradient_suite():
    start = time.perf_counter()
    results = run_suite("all", eps=1e-5)
    elapsed = time.perf_counter() - start
    worst = max(report.max_error for _, report in results)
    for name, report in results:
        assert report.max_error < 1e-4, (
            f"{name}: max relative error {report.max_error:.3e} >= 1e-4")
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s (budget 60s)"
    names = [name for name, _ in results]
    assert any(name.startswith("attention_gate") for name in names)
    assert any(name.startswith("network[micro") for name in names)
    assert any(name.startswith("network[tiny") for name in names)
    passline(1, f"gradient suite: {len(results)} checks, worst {worst:.3e} "
                f"in {elapsed:.1f}s")


# -- 2. kernel oracles ---------------------------------------------------------------


def test_criterion_2_oracle_equivalence():
    rng = np.random.default_rng(20)
    worst = 0.0

    for _ in range(100):  # convolution
        n, c, oc = rng.integers(1, 3), int(rng.integers(1, 4)), int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        stride, pad = int(rng.integers(1, 3)), int(rng.integers(0, 2))
        h = int(rng.integers(k, k + 5))
        w = int(rng.integers(k, k + 5))
        x = rng.standard_normal((n, c, h, w))
        weight = rng.standard_normal((oc, c, k, k))
        bias = rng.standard_normal(oc) if rng.random() < 0.5 else None
        spec = tensor.ConvSpec(oc, c, k, k, stride, pad, has_bias=bias is not None)
        got = tensor.conv2d(x, weight, bias, spec)
        want = oracles.conv2d_naive(x, weight, bias, stride, pad)
        worst = max(worst, float(np.max(np.abs(got - want))))

    for _ in range(100):  # linear
        n, d, k = (int(rng.integers(1, 7)) for _ in range(3))
        x = rng.standard_normal((n, d))
        weight, bias = rng.standard_normal((k, d)), rng.standard_normal(k)
        diff = tensor.linear(x, weight, bias) - oracles.linear_naive(x, weight, bias)
        worst = max(worst, float(np.max(np.abs(diff))))

    for _ in range(100):  # max pooling (incl. overlapping windows)
        n, c = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        win = int(rng.integers(1, 4))
        stride = int(rng.integers(1, win + 1))
        h = int(rng.integers(win, win + 6))
        w = int(rng.integers(win, win + 6))
        x = rng.standard_normal((n, c, h, w))
        diff = tensor.pool2d(x, "max", win, stride) - oracles.maxpool_naive(x, win, stride)
        worst = max(worst, float(np.max(np.abs(diff))))

    for _ in range(100):  # global average pooling
        n, c = int(rng.integers(1, 3)), int(rng.integers(1, 4))
        h, w = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        x = rng.standard_normal((n, c, h, w))
        diff = tensor.pool2d(x, "global_avg") - oracles.global_avg_naive(x)
        worst = max(worst, float(np.max(np.abs(diff))))

    assert worst <= 1e-12, f"worst oracle disagreement {worst:.3e} > 1e-12"
    passline(2, f"conv/linear/pool oracles: 400 randomized instances, "
                f"worst |diff| {worst:.2e}")


# -- 3. metric arithmetic --------------------------------------------------------------


def test_criterion_3_challenge_score_headline():
    score = challenge_score(0.49, 0.38)  # published accuracy 0.49, macro F1 0.38
    assert abs(score - 0.4163) <= 5e-4, f"score {score} not within 5e-4 of 0.4163"
    assert f"{score:.2f}" == "0.42"
    margin = round(score, 2) - 0.36  # published baseline result
    assert 0.06 - 1e-9 <= margin <= 0.07 + 1e-9, f"baseline margin {margin} outside [0.06, 0.07]"
    passline(3, f"challenge score {score:.4f} -> {score:.2f}, "
                f"baseline margin {margin:.2f}")


# -- 4. rebalance arithmetic -----------------------------------------------------------


def test_criterion_4_rebalance_reproduces_published_counts():
    base, supplement = build_imbalance_manifests()
    merged, report = rebalance(base, IMBALANCE_K, supplement, IMBALANCE_QUOTAS)
    for label, want in EXPECTED_AFTER.items():
        got = report[LABEL_NAMES[label]]["after"]
        assert got == want, f"{LABEL_NAMES[label]}: after {got} != published {want}"
    assert len(merged) == EXPECTED_TOTAL_AFTER == sum(EXPECTED_AFTER.values())
    for row in report.values():
        assert row["after"] == row["before"] - row["removed"] + row["added"]
        assert row["shortfall"] == 0
    passline(4, f"rebalance report matches published per-class counts, "
                f"total {len(merged)}")


def test_criterion_4b_ceil_rule_on_random_partitions():
    rng = np.random.default_rng(4)
    for trial in range(1000):
        k = int(rng.integers(1, 16))
        lengths = [int(v) for v in rng.integers(1, 30, size=rng.integers(1, 7))]
        records = []
        for ri, n in enumerate(lengths):
            records.extend(SampleRecord(f"t{trial}r{ri}", f, "", 6) for f in range(n))
        manifest = DatasetManifest(records)
        thinned = undersample_sequences(manifest, {6: k})
        assert len(thinned) == sum(math.ceil(n / k) for n in lengths)
        assert thinned.records == oracles.undersample_naive(manifest.records, {6: k})
    passline(4, "ceil(n/k) retention held on 1000 random run partitions")


# -- 5. attention-module invariants ------------------------------------------------------


def test_criterion_5_attention_invariants():
    rng = np.random.default_rng(5)
    for trial in range(1000):
        c = int(rng.integers(1, 5))
        h, w = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        f_pre = rng.standard_normal((1, c, h, w)) * rng.uniform(0.1, 3.0)
        f_cur = rng.standard_normal((1, c, h, w)) * rng.uniform(0.1, 3.0)
        gate = make_gate(c, 3, rng)
        refined, mask = attention_forward(f_pre, f_cur, *gate)

        assert mask.shape == f_cur.shape and refined.shape == f_cur.shape
        assert np.all(mask > 0.0) and np.all(mask < 1.0), "mask left (0,1)"
        nz = f_cur != 0.0
        assert np.all(np.abs(refined[nz]) < np.abs(f_cur[nz])), "attenuation not strict"
        assert np.all(refined[~nz] == 0.0)

        shifted, _ = attention_forward(f_pre + rng.standard_normal(f_pre.shape),
                                       f_cur, *gate)
        assert np.max(np.abs(shifted - refined)) > 0.0, \
            "perturbing the previous features did not reach the output"
    passline(5, "1000 random triples: mask strictly in (0,1), strict attenuation, "
                "previous-layer path live")


# -- 6. overfit smoke test ----------------------------------------------------------------


def overfit(mode: str, demo_dataset, plain_norm):
    cfg = preset("tiny", attention=mode, seed=0)
    store = init_network(cfg)
    tc = TrainConfig(base_lr=0.05, momentum=0.9, weight_decay=5e-4, batch_size=35,
                     max_epochs=200, decay_start_epoch=1000, seed=0)
    state = OptimizerState(store, tc)
    rng = np.random.default_rng([tc.seed, 1])
    start = time.perf_counter()
    for epoch in range(tc.max_epochs):
        stats = train_epoch(store, state, demo_dataset, cfg, tc, plain_norm,
                            AugmentConfig(enabled=False), rng, epoch)
        if stats.accuracy >= 0.95:
            return epoch, stats.accuracy, time.perf_counter() - start
    return None, stats.accuracy, time.perf_counter() - start


def test_criterion_6_overfit_learned_and_frozen(demo_dataset, plain_norm):
    assert len(demo_dataset) == 70
    for mode in ("learned", "frozen"):
        epoch, acc, elapsed = overfit(mode, demo_dataset, plain_norm)
        assert epoch is not None, (
            f"{mode}: never reached 95% train accuracy (last {acc:.3f})")
        assert elapsed < 300.0, f"{mode}: took {elapsed:.1f}s (budget 300s)"
        passline(6, f"{mode} gates hit {acc:.1%} train accuracy at epoch "
                    f"{epoch} in {elapsed:.1f}s")


# -- 7. bit-level determinism ----------------------------------------------------------------


def test_criterion_7_train_runs_are_byte_identical(demo_root, tmp_path):
    config = {
        "seed": 0,
        "network": {"preset": "tiny"},
        "train": {"base_lr": 0.05, "batch_size": 35, "max_epochs": 3},
        "data": {"train_manifest": "train.csv", "augment": {"enabled": False},
                 "eval_crop": 28},
    }
    cfg_path = demo_root / "determinism.json"
    cfg_path.write_text(json.dumps(config))
    digests = []
    for out in (tmp_path / "a", tmp_path / "b"):
        rc = cli_main(["train", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 0
        digests.append({name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                        for name in ("metrics.json", "best.ckpt", "train_log.jsonl")})
    assert digests[0] == digests[1], f"reruns diverged: {digests}"
    passline(7, "two identical train runs: metrics JSON, checkpoint, and log "
                "digests all match")


# -- 8. ten-crop contract ---------------------------------------------------------------------


def test_criterion_8_tencrop_contract(demo_dataset, plain_norm):
    cfg = preset("tiny", seed=0)
    store = init_network(cfg)
    subset = LoadedDataset(demo_dataset.records[:14], demo_dataset.images[:14],
                           demo_dataset.labels[:14])
    crop = 28
    cm, preds = evaluate(store, subset, cfg, plain_norm, crop_size=crop, use_tencrop=True)
    assert len(preds) == len(subset) == cm.total, "not exactly one prediction per image"

    for img, pred in zip(subset.images, preds):
        crops = ten_crop(img, crop)
        assert len(crops) == 10
        assert all(c.pixels.shape == (3, crop, crop) for c in crops)
        rows = []
        for c in crops:
            x = (c.pixels.astype(np.float64) / 255.0 - 0.5) / 0.5
            rows.append(tensor.softmax(network_forward(x[None], store, cfg))[0])
        npt.assert_allclose(pred.probabilities, np.mean(rows, axis=0), atol=1e-12)
        assert pred.predicted == int(np.argmax(pred.probabilities))
    passline(8, "ten-crop: one prediction per image, 10 crops of "
                f"(3,{crop},{crop}), probabilities equal direct recomputation")
