"""Benchmark of the decoherence toolkit: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Starts worker.py in a fresh interpreter with one BLAS thread and one
trajectory thread.  The worker imports `decoherence`, parses the workload's
configurations, then runs whole passes of the workload for about S seconds
and checks every output; between untraced passes it times cold set-ups in
fresh interpreters.  Times are scaled to the processor's reference speed
(speed.py).  The last line on stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics (setup_s,
wall_s, peak_rss_mb) with --trace 0, the per-layer metrics with --trace 1.
Results, the trace and the scenario files go to perfbench/_out/<workload>/.
See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("scenarios", "bath_coefficients")
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
           "DECOHERENCE_NUM_THREADS": "1"}


def unit(metric: str) -> str:
    """Units follow the metric names' suffixes."""
    for suffix, name in (("_per_s", "1/s"), ("_s", "s"), ("_mb", "MiB")):
        if metric.endswith(suffix):
            return name
    return "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def worker_timeout_s(seconds: float) -> float:
    """Runs last about `seconds` plus half a pass; a stuck worker is killed."""
    return 2.0 * seconds + 50.0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "decoherence" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'decoherence'} is missing",
              file=sys.stderr)
        return 2
    out_dir = BENCH_DIR / "_out" / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(THREADS)
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), args.workload, str(args.seed),
           repr(args.seconds), str(args.trace), str(out_dir)]

    # its own process group, so that a kill also stops its set-up probes
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
                            start_new_session=True)

    def kill():
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)

    watchdog = threading.Timer(worker_timeout_s(args.seconds), kill)
    watchdog.start()
    try:
        lines = [line.rstrip("\n") for line in proc.stdout]
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            kill()
            proc.wait()

    if code != 0 or not lines:
        print(f"error: worker exited with code {code}", file=sys.stderr)
        return code or 1
    result = json.loads(lines[-1])
    result["metrics"] = {name: {"value": value, "unit": unit(name)}
                         for name, value in result["metrics"].items()}
    for line in lines[:-1]:
        print(line)
    (out_dir / f"result_trace{args.trace}.json").write_text(json.dumps(result, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
