"""Runs one workload in this fresh process and reports on stdout.

Started by run.py.  Usage:

    worker.py WORKLOAD SEED SECONDS TRACE OUT_DIR
    worker.py --setup-only WORKLOAD SEED OUT_DIR

The second form only sets up (imports the program, parses the workload's
configurations), prints READY and exits; untraced runs start it between
passes to time cold set-ups, from starting the interpreter to READY.
"""

import sys
import time

START = time.perf_counter()

import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
# Cold set-ups timed after each untraced pass: one set-up (about 0.6 s)
# can meet a moment when the speed probe lags the machine, and the median
# over set-ups spread across the run does not.
SETUP_PROBES_PER_PASS = 2


def import_program():
    """Import decoherence from this checkout's src/, and only from there."""
    sys.path.insert(0, str(SRC))
    import decoherence
    import decoherence.scenario  # noqa: F401
    if not Path(decoherence.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"decoherence imported from {decoherence.__file__}, "
                          f"not from {SRC}")


def time_setup(workload_name: str, seed: int, out_dir: Path, speed_probe) -> tuple[float, float]:
    """Seconds from starting a fresh interpreter to its READY line, as
    measured and at the reference speed."""
    cmd = [sys.executable, __file__, "--setup-only", workload_name, str(seed), str(out_dir)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    ready = None
    for line in proc.stdout:
        if ready is None and line.strip() == "READY":
            ready = time.perf_counter() - start
    if proc.wait() != 0 or ready is None:
        raise RuntimeError(f"set-up probe exited with code {proc.returncode}")
    return ready, speed_probe.at_reference_speed(ready, start, start + ready)


class Runner:
    """Runs passes of a workload, checks their outputs and tallies operations."""

    def __init__(self, workload, files_dir: Path):
        self.files_dir = files_dir
        self.ops = workload.ops()
        self.verdicts: dict[tuple[str, str], tuple[list[str], list[str]]] = {}
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.reported: set[str] = set()

    def _report(self, message: str) -> None:
        if message not in self.reported:
            self.reported.add(message)
            print(message, file=sys.stderr)

    def run_pass(self, probe) -> tuple[float, list, dict, dict, int]:
        """Run every operation once.

        Returns the pass's wall seconds, the outputs, each operation's wall
        seconds and its seconds at the reference speed (`speed.SpeedProbe`),
        and the bytes written.
        """
        shutil.rmtree(self.files_dir, ignore_errors=True)
        self.files_dir.mkdir(parents=True)
        outputs, op_walls, op_ref = [], {}, {}
        start = time.perf_counter()
        for op in self.ops:
            op_start = time.perf_counter()
            try:
                outputs.append(op.run())
            except Exception:
                outputs.append(None)
                self._report(f"operation {op.name} raised:\n{traceback.format_exc()}")
            op_end = time.perf_counter()
            op_walls[op.name] = op_end - op_start
            op_ref[op.name] = probe.at_reference_speed(op_end - op_start, op_start, op_end)
        wall = time.perf_counter() - start
        written = sum(p.stat().st_size for p in self.files_dir.iterdir())
        return wall, outputs, op_walls, op_ref, written

    def check_pass(self, outputs: list) -> None:
        """Tally the pass's operations and check the outputs not seen before."""
        for op, out in zip(self.ops, outputs):
            self.attempted += 1
            if out is None:
                self.failed += 1
                continue
            key = (op.name, op.fingerprint(out))
            if key not in self.verdicts:
                self.verdicts[key] = op.check(out)
            problems, faults = self.verdicts[key]
            for msg in problems:
                self._report(f"CHECK FAILED: {msg}")
            self.correct = self.correct and not problems
            if faults:
                self.failed += 1
                for msg in faults:
                    self._report(f"known fault, operation counted as failed: {msg}")


def measure(runner: Runner, seconds: float, speed, tracer=None, setup_probe=None) -> dict:
    """Run whole passes until the run is as near to `seconds` long as they allow.

    Another pass starts while it is expected to end no more than half a
    pass after `seconds`, so a run measures about `seconds` whatever the
    pass length, and at least one pass.  Without a tracer every pass is
    timed, and `setup_probe()`, when given, times SETUP_PROBES_PER_PASS
    cold set-ups after each pass.  With a tracer, passes alternate between
    untraced and traced (at least one of each), and the layer metrics are
    medians over the traced passes.  Each operation's wall time and its
    time at the reference speed (from the running `speed` probe) are kept
    for every pass, traced or not.
    """
    import tracing

    begin = time.perf_counter()
    walls = {False: [], True: []}
    op_walls: dict[bool, dict[str, list[float]]] = {False: {}, True: {}}
    op_ref: dict[bool, dict[str, list[float]]] = {False: {}, True: {}}
    layers: list[dict] = []
    setups: list[tuple[float, float]] = []
    written = 0
    while True:
        traced = tracer is not None and len(walls[False]) > len(walls[True])
        if traced:
            tracer.reset()
            tracer.enabled = True
        try:
            wall, outputs, pass_op_walls, pass_op_ref, written = runner.run_pass(speed)
        finally:
            if tracer is not None:
                tracer.enabled = False
        if not walls[False] and not walls[True]:
            # what one `decoherence run` holds at most: set-up plus one pass;
            # later passes only repeat it, but the allocator's state after
            # them depends on how many ran
            first_pass_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        walls[traced].append(wall)
        if traced:
            layers.append(tracing.layer_metrics(tracer))
        for name in pass_op_walls:
            op_walls[traced].setdefault(name, []).append(pass_op_walls[name])
            op_ref[traced].setdefault(name, []).append(pass_op_ref[name])
        runner.check_pass(outputs)
        if setup_probe is not None:
            setups += [setup_probe() for _ in range(SETUP_PROBES_PER_PASS)]
        all_walls = walls[False] + walls[True]
        elapsed = time.perf_counter() - begin
        need_traced = tracer is not None and not walls[True]
        if not need_traced and elapsed + 0.5 * statistics.median(all_walls) > seconds:
            break
    return {"walls": walls, "op_walls": op_walls, "op_ref": op_ref, "layers": layers,
            "written": written, "setups_s": setups, "peak_rss_mb": first_pass_rss}


def median_pass_s(op_times: dict[str, list[float]]) -> float:
    """One pass with every operation at its median time over the run's passes."""
    return sum(statistics.median(times) for times in op_times.values())


def versions() -> dict:
    import platform

    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "machine": platform.machine(), "cpus": os.cpu_count(),
            "threads": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                         "DECOHERENCE_NUM_THREADS")}}


def set_up_only(argv: list[str]) -> int:
    workload_name, seed, out_dir = argv
    import_program()
    import workloads
    workloads.make(workload_name, ROOT, int(seed), Path(out_dir)).parse()
    print("READY", flush=True)
    return 0


def main(argv: list[str]) -> int:
    if argv[0] == "--setup-only":
        return set_up_only(argv[1:])
    workload_name, seed, seconds, trace, out_dir = argv
    seed, seconds, trace, out_dir = int(seed), float(seconds), trace == "1", Path(out_dir)
    import speed
    cpu = speed.pin_to_one_cpu()

    t_import = time.perf_counter()
    try:
        import_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import tracing
    import workloads
    t_parse = time.perf_counter()
    # scenario files of this run only; removed when the run ends
    files_dir = out_dir / f"files-{os.getpid()}"
    workload = workloads.make(workload_name, ROOT, seed, files_dir)
    workload.parse()
    t_ready = time.perf_counter()

    runner = Runner(workload, files_dir)
    tracer = tracing.Tracer() if trace else None
    try:
        with (tracing.instrument(tracer) if tracer else contextlib.nullcontext(),
              speed.SpeedProbe() as speed_probe):
            setup_probe = None if trace else (
                lambda: time_setup(workload_name, seed, out_dir, speed_probe))
            result = measure(runner, seconds, speed_probe, tracer, setup_probe)
    finally:
        shutil.rmtree(files_dir, ignore_errors=True)

    walls = result["walls"]
    info = {"workload": workload_name, "seed": seed, "trace": int(trace), **versions(),
            "passes_s": walls[False], "traced_passes_s": walls[True],
            "cpu": cpu, "op_walls_s": result["op_walls"][False],
            "op_reference_s": result["op_ref"][False],
            "traced_op_walls_s": result["op_walls"][True],
            "traced_op_reference_s": result["op_ref"][True],
            "start_to_ready_s": t_ready - START,
            "setup_probes_s": [raw for raw, _ in result["setups_s"]],
            "setup_probes_reference_s": [ref for _, ref in result["setups_s"]],
            "output_mb": result["written"] / 2 ** 20}
    if tracer:
        untraced = median_pass_s(result["op_ref"][False])
        traced = median_pass_s(result["op_ref"][True])
        metrics = {k: statistics.median(m[k] for m in result["layers"])
                   for k in result["layers"][0]}
        metrics.update({
            "scenario.output_mb": result["written"] / 2 ** 20,
            "setup.import_s": t_parse - t_import,
            "setup.parse_s": t_ready - t_parse,
            "trace.untraced_wall_s": untraced,
            "trace.traced_wall_s": traced,
            "trace.overhead_s": traced - untraced,
        })
        tracer.dump(out_dir / "trace.json",
                    {**info, "generated_configs": workload.configs, "metrics": metrics})
    else:
        metrics = {"wall_s": median_pass_s(result["op_ref"][False]),
                   "peak_rss_mb": result["peak_rss_mb"],
                   "setup_s": statistics.median(ref for _, ref in result["setups_s"])}
    print("INFO " + json.dumps(info), flush=True)
    print(json.dumps({"correct": runner.correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
