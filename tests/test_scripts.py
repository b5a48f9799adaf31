"""The dev scripts under scripts/ and the benchmark's tracer still run: each
reads ``llanet`` names that a refactor can rename without any other test
noticing."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from llanet import autodiff, network

ROOT = Path(__file__).resolve().parent.parent


def run_script(*argv) -> str:
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


MEMORY_TABLE = ("| forward s | backward + sgd s | forward leaves alive MiB "
                "| backward peak above them MiB | peak RSS MiB | eval forward peak MiB |")
KEPT_TABLE = "| kept MiB | conv2d | batchnorm2d | relu | add | sigmoid | hadamard | other |"


@pytest.mark.parametrize("argv, expected", [
    (("conv_layouts.py", "micro", "--size", "8", "--batch", "1", "--repeats", "1"),
     ["| conv | input | count | fwd im2col | fwd taps |", "totals over every conv"]),
    (("step_memory.py", "micro", "--size", "8", "--batch", "2", "--steps", "1"),
     [MEMORY_TABLE, "| step | wall s | user s | sys s | minor faults |", "| train step |"]),
    (("step_memory.py", "micro", "--size", "8", "--batch", "2"), [MEMORY_TABLE, KEPT_TABLE]),
    (("code_lines.py",), ["src/llanet/autodiff.py", "total"]),
])
def test_dev_script_runs(argv, expected):
    out = run_script(*argv)
    for text in expected:
        assert text in out


def test_artifact_digests_names_every_artifact_kind(tmp_path):
    work = tmp_path / "work"
    work.mkdir()
    (work / "keep.txt").write_text("not the script's")
    refused = subprocess.run([sys.executable, str(ROOT / "scripts" / "artifact_digests.py"),
                              str(work), "micro"], capture_output=True, text=True, timeout=120)
    assert refused.returncode == 2 and (work / "keep.txt").exists()
    (work / "keep.txt").unlink()
    digests = json.loads(run_script("artifact_digests.py", str(work), "micro"))
    assert all(len(digest) == 64 for digest in digests.values())
    for mode in network.ATTENTION_MODES:
        for kind in ("config.json", "environment.json", "train_log.jsonl", "best.ckpt",
                     "metrics.json"):
            assert f"out/micro-{mode}/{kind}" in digests
    for name in ("micro-eval/metrics.json", "micro-eval/predictions.csv",
                 "micro-masks/mask_m0.bin", "micro-masks/mask_m0_c0.pgm", "gradcheck.txt"):
        assert f"out/{name}" in digests


TRACER_METRICS = """
import json
import tracer
tr = tracer.Tracer()
tr.install()
for label in ("setup", "timed", "end"):
    tr.mark(label)
print(json.dumps([sorted(tr.metrics(1, 1, 1.0)), sorted(tracer.GRAPH_OPS)]))
"""


def test_benchmark_tracer_finds_every_name_it_traces():
    # the tracer wraps llanet functions by name (GradGraph ops, tensor kernels,
    # training and data functions), so a rename breaks a traced benchmark run;
    # it runs in a child process, since installing it patches llanet for good
    path = os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src"),
                            os.environ.get("PYTHONPATH", "")])
    done = subprocess.run([sys.executable, "-B", "-c", TRACER_METRICS], cwd=ROOT,
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    names, graph_ops = json.loads(done.stdout)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in spec["per_layer"] if m["name"] not in names] == []
    # a new GradGraph op goes untraced until the benchmark's tracer names it
    assert set(graph_ops) == set(autodiff._OPS)
