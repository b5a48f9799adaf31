"""llanet benchmark: one workload per process, result as JSON on the last line.

Run from the repository root:

    python3 perfbench/run.py --workload train-tiny --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

``--trace 0`` reports the end-to-end metrics (setup_s, items_per_s,
peak_rss_mb); ``--trace 1`` wraps the program's public functions and
reports the per-layer metrics instead. ``--workload all`` runs every
workload in its own child process, one after the other; with ``--trace 1``
it runs each one untraced and traced and prints the tracing overhead.
See perfbench/README.md.
"""

import os

# One BLAS thread, set before NumPy is imported: the benchmark process keeps to
# a single thread of its own.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
TMP_DIR = BENCH_DIR / "tmp"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = tuple(w["name"] for w in SPEC["workloads"])
CHILD_TIMEOUT_S = 900
STARTUP_REPS = 5
IMPORT_PROGRAM = ("import sys; sys.path.insert(0, sys.argv[1]); import numpy; "
                  "from llanet import autodiff, data, demo, metrics, network, training, verify")


def import_program():
    """Import llanet from this checkout's src/, never from anywhere else."""
    package = SRC / "llanet"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no llanet sources at {package}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import llanet
    if Path(llanet.__file__).resolve().parent != package:
        sys.exit(f"perfbench: imported llanet from {llanet.__file__}, expected {package}")


def startup_seconds() -> float:
    """Median wall time to start an interpreter and import the program.

    The wait has no timeout: ``Popen.wait(timeout=...)`` polls in sleeps of up
    to 50 ms, which would round every start-up to that step.
    """
    times = []
    for _ in range(STARTUP_REPS):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_PROGRAM, str(SRC)], check=True)
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def threads_now() -> int | None:
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads
    startup_s = None
    tr = None
    if trace:
        import tracer
        tr = tracer.Tracer()
        tr.install()
        tr.mark("setup")
    else:
        startup_s = startup_seconds()
    TMP_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{name}-", dir=TMP_DIR) as workdir:
        wl = workloads.WORKLOADS[name](seed, Path(workdir))
        setup_times = []
        for _ in range(wl.setup_reps):
            t = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - t)

        gc.collect()
        if tr:
            tr.mark("timed")
        attempted = failed = 0
        rates = []
        start = end = time.perf_counter()
        while end - start < seconds or not rates:
            a, f = wl.run_round()
            gc.collect()  # every round starts from a collected heap
            t = time.perf_counter()
            rates.append(a / (t - end))
            end = t
            attempted += a
            failed += f
        rounds = len(rates)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        threads = threads_now()
        if tr:
            tr.mark("end")
            tr.memory_round(wl.run_round)
            gc.collect()
        problems = wl.check()

    # Items per second over the whole timed phase: a median round would drop the rounds
    # that a slow spell hit, which a user waits through too.
    items_per_s = attempted / (end - start)
    if trace:
        values = tr.metrics(wl.setup_reps, rounds, items_per_s)
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        tr.dump(OUT_DIR / f"spans-{name}-seed{seed}.json", workload=name, seed=seed,
                setup_reps=wl.setup_reps, rounds=rounds)
    else:
        values = {"setup_s": startup_s + statistics.median(setup_times),
                  "items_per_s": items_per_s, "peak_rss_mb": peak_rss_mb}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in SPEC["per_layer" if trace else "end_to_end"]}

    print(f"workload {name}  seed {seed}  trace {int(trace)}  rounds {rounds}  "
          f"timed {end - start:.2f} s  item: {wl.item}  threads {threads}")
    print("  items/s by round: " + " ".join(f"{r:.5g}" for r in rates))
    for m, v in metrics.items():
        print(f"  {m:<32} {v['value']:>14.6g} {v['unit']}")
    print(f"  attempted {attempted}  failed {failed}  correct {not problems}")
    for p in problems:
        print(f"  CHECK FAILED: {p}")
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Each workload in its own child process; traced runs also give the overhead."""
    summary = {}
    for name in WORKLOAD_NAMES:
        results = {}
        for t in ((0, 1) if trace else (0,)):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(t)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                raise SystemExit(f"perfbench: {name} (trace {t}) exited with {proc.returncode}")
            results[t] = json.loads(lines[-1])
        summary[name] = results[0]
        if trace:
            summary[name]["per_layer"] = results[1]["metrics"]
            plain = results[0]["metrics"]["items_per_s"]["value"]
            traced = results[1]["metrics"]["trace.items_per_s"]["value"]
            overhead = 1.0 - traced / plain
            summary[name]["trace_overhead"] = overhead
            print(f"  tracing overhead on {name}: {100 * overhead:.1f}% of items_per_s "
                  f"({plain:.4g} untraced, {traced:.4g} traced)")
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="length of the timed phase; whole rounds, at least one, "
                             "run until it is over")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        import_program()
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
