"""cwsolve benchmark: solve seeded instances through the CLI and check every answer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload forest-union --seed 1 --seconds 15 --trace 0

With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run.  The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
when every answer was right, 1 when any was wrong, and 2 when the benchmark
could not run at all.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import speed
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(ROOT, ".bench_run")

# Set-up is timed in this many fresh interpreters that stop once set up, each
# between two calibrations of the host's speed; setup_s is the median of
# their scaled times.
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170.0


class BenchError(Exception):
    pass


def _spawn(argv: list[str]) -> subprocess.Popen:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), *argv],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)


def _run_worker(argv: list[str], deadline: float) -> tuple[float, str]:
    """Start a worker; returns (seconds until it was set up, rest of its stdout)."""
    started = time.perf_counter()
    proc = _spawn(argv)
    watchdog = threading.Timer(max(0.0, deadline - time.perf_counter()), proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - started
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if first.strip() != "READY":
        raise BenchError(f"worker set-up failed (exit code {code})")
    if code not in (0, 1):
        raise BenchError(f"worker exited with code {code}")
    return setup_s, rest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "cwsolve")):
        print(f"error: no cwsolve sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    run_dir = os.path.join(WORKDIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    deadline = time.perf_counter() + CHILD_TIMEOUT_S
    try:
        setup_times = []
        before = speed.calibrate()
        for sample in range(SETUP_SAMPLES):
            seconds, _ = _run_worker(common + ["--seconds", "0", "--setup-only",
                                               "--dir", os.path.join(run_dir, str(sample))],
                                     deadline)
            after = speed.calibrate()
            setup_times.append(speed.scale(seconds, before, after))
            before = after
        trace_out = os.path.join(WORKDIR, f"trace-{args.workload}-seed{args.seed}.jsonl")
        _, out = _run_worker(common + ["--seconds", str(args.seconds),
                                       "--trace", str(args.trace),
                                       "--dir", os.path.join(run_dir, "main"),
                                       "--trace-out", trace_out], deadline)
        result = json.loads(out.strip().splitlines()[-1])
    except (BenchError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    return finish(result, setup_times, bool(args.trace),
                  f"workload {args.workload}, seed {args.seed}")


def finish(result: dict, setup_times: list[float], trace: bool, title: str = "") -> int:
    """Print the summary and the result line; the exit code is 1 on a wrong answer."""
    metrics = result["metrics"]
    if not trace:
        metrics["setup_s"] = {"value": statistics.median(setup_times), "unit": "s"}
    print(f"{title}, {'traced' if trace else 'untraced'}")
    for line in result["summary"]:
        print("  " + line)
    if not trace:
        print(f"  setup samples, scaled (s): {', '.join(f'{s:.3f}' for s in setup_times)}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    failed = result["failed"]
    print(json.dumps({"correct": failed == 0, "attempted": result["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
