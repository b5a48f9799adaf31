"""The dev scripts under scripts/ still run: each reads private ``llanet``
names that a refactor can rename without any other test noticing."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(*argv) -> str:
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("argv, expected", [
    (("conv_layouts.py", "micro", "--size", "8", "--batch", "1", "--repeats", "1"),
     ["| conv | input | count | fwd im2col | fwd taps |", "totals over every conv"]),
    (("heap_faults.py", "micro", "--size", "8", "--batch", "2", "--steps", "1"),
     ["| step | wall s | user s | sys s | minor faults |", "| train step |"]),
    (("step_memory.py", "micro", "--size", "8", "--batch", "2"),
     ["| forward s | backward + sgd s | forward leaves alive MiB | peak RSS MiB "
      "| eval forward peak MiB |"]),
    (("code_lines.py",), ["src/llanet/autodiff.py", "total"]),
])
def test_dev_script_runs(argv, expected):
    out = run_script(*argv)
    for text in expected:
        assert text in out
