"""bmwgroups benchmark: one command for every workload, metric and check.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 40 --trace 0

Run from the repository root (any directory works; paths are resolved from
this file).  The workload runs in its own fresh, single-threaded Python
process (``worker.py``) as a closed loop with one caller, against the
package sources in ``src/``.  Human-readable lines come first; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of ``BENCHMARK.json``
with ``--trace 0``, its per-layer metrics with ``--trace 1``.  See
``perfbench/README.md`` for what each workload and metric is for.

``setup_s`` is the median over several fresh set-up-only launches of the
CPU time each takes: from process start until ``bmwgroups`` is imported
and the inputs are built, then the exit.  Every time is CPU time, so that
the moments a shared host does not run the benchmark count in no figure,
given at a nominal machine speed (see ``calibrate.py``); raw and wall
times are printed beside the results.  At
the default seed every emitted document must match the sha256 recorded in
``golden.json``; ``--update-golden`` rewrites that record instead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from calibrate import Sampler

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"
DEFAULT_SEED = 0
SETUP_LAUNCHES = 9  # timed set-up-only launches
SETUP_READING_S = 0.2  # wall seconds of kernel readings after each launch
DEADLINE_S = 175.0  # the whole command must end within 180 s

# What the caller's environment must not change: thread pools and guards.
_PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def child_env() -> dict:
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith("BMWGROUPS_") and k not in ("PYTHONPATH", "PYTHONSTARTUP")
    }
    env.update(_PINNED_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Launch:
    """One worker process, killed if it outlives ``deadline`` (a perf_counter)."""

    def __init__(self, args: list[str], deadline: float):
        cmd = [sys.executable, str(HERE / "worker.py"), *args]
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True
        )
        self.timer = threading.Timer(max(0.0, deadline - self.t0), self.proc.kill)
        self.timer.start()

    def ready_seconds(self) -> float:
        """Seconds from launch until the worker printed ``ready``."""
        line = self.proc.stdout.readline()
        if line.strip() != "ready":
            self.finish()
            raise RuntimeError("worker did not reach its ready point")
        return time.perf_counter() - self.t0

    @staticmethod
    def children_cpu_seconds() -> float:
        """User + system CPU time of every ended and waited-for child so far."""
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        return usage.ru_utime + usage.ru_stime

    def finish(self) -> str:
        """Wait for the process to end; returns the rest of its stdout."""
        try:
            rest = self.proc.stdout.read()
            code = self.proc.wait()
        finally:
            self.timer.cancel()
            self.proc.stdout.close()
        if code != 0:
            raise RuntimeError(f"worker exited with code {code}")
        return rest


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def check_golden(workload: str, profile: str, docs: dict) -> list[str]:
    record = json.loads(GOLDEN.read_text()).get(profile, {}).get(workload)
    if record is None:
        return [f"no golden record for {profile}/{workload}"]
    return [
        f"{name}: sha256 differs from golden.json"
        for name in sorted(set(record) | set(docs))
        if record.get(name) != docs.get(name)
    ]


def update_golden(workload: str, profile: str, docs: dict) -> None:
    data = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    data.setdefault(profile, {})[workload] = dict(sorted(docs.items()))
    GOLDEN.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="bmwgroups benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--profile", choices=("full", "tiny"), default="full",
                    help="problem sizes; 'tiny' is the harness self-check")
    ap.add_argument("--update-golden", action="store_true",
                    help="record this run's document hashes (default seed only)")
    args = ap.parse_args(argv)
    start = time.perf_counter()
    deadline = start + DEADLINE_S

    if not (ROOT / "src" / "bmwgroups" / "__init__.py").is_file():
        print(f"error: no bmwgroups sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = benchmark_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.update_golden and args.seed != DEFAULT_SEED:
        print(f"error: golden hashes are recorded at seed {DEFAULT_SEED}", file=sys.stderr)
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed), "--profile", args.profile]
    try:
        # The first launch compiles bytecode for the others and is not timed.
        Launch(common + ["--setup-only"], deadline).finish()
        wall_setup, setup, ref = [], [], Sampler()
        for _ in range(SETUP_LAUNCHES):
            cpu0 = Launch.children_cpu_seconds()
            launch = Launch(common + ["--setup-only"], deadline)
            wall_setup.append(launch.ready_seconds())
            launch.finish()
            setup.append(Launch.children_cpu_seconds() - cpu0)
            ref.read(SETUP_READING_S)
        out_dir = ROOT / ".perfbench-out"
        trace_out = out_dir / f"trace-{args.workload}-{args.profile}-seed{args.seed}.jsonl"
        if args.trace:
            out_dir.mkdir(exist_ok=True)
        launch = Launch(
            common
            + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
            + (["--trace-out", str(trace_out)] if args.trace else []),
            deadline,
        )
        launch.ready_seconds()
        result = json.loads(launch.finish().strip().splitlines()[-1])
    except (RuntimeError, OSError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failures = list(result["failures"])
    attempted, failed = result["attempted"], result["failed"]
    if args.update_golden:
        update_golden(args.workload, args.profile, result["docs"])
    elif args.seed == DEFAULT_SEED:
        mismatches = check_golden(args.workload, args.profile, result["docs"])
        failures += mismatches
        failed = min(attempted, failed + len(mismatches))

    measured = dict(result["metrics"])
    measured["setup_s"] = statistics.median(setup) * ref.factor(ref.readings)
    measured["ok_share"] = 1 - failed / attempted
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"error: worker did not measure {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}

    env = result["env"]
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds}"
          f" trace {args.trace} profile {args.profile}")
    print("env " + " ".join(f"{k}={json.dumps(v)}" for k, v in sorted(env.items())))
    print("loop closed, 1 caller, 1 worker process, thread pools pinned to 1;"
          " no queues, so no layer has a wait time")
    print("times are CPU seconds at the nominal speed unless marked raw or wall")
    print(f"kernel mean {ref.mean():.4g} s over {len(ref.readings)} readings at set-up,"
          f" {result['kernel_s']:.4g} s over {result['kernel_readings']} in the run")
    print(f"setup_s raw CPU samples {[round(s, 4) for s in setup]},"
          f" wall to ready {[round(s, 4) for s in wall_setup]}")
    print(f"ops attempted {attempted} failed {failed}; untraced rounds {result['rounds']}"
          + (f", traced rounds {result['traced_rounds']}" if args.trace else ""))
    if not args.trace:
        for name, value, unit, note in result["report"]:
            print(f"  {name} = {value:.6g} {unit}  ({note})")
        print(f"  fail_share = {failed / attempted:.6g} ratio  ({failed} of {attempted} ops)")
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    for line in failures:
        print(f"FAIL {line}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
