"""Tiny-size self-check of the benchmark harness.

    python3 perfbench/selfcheck.py

Runs every workload at the "tiny" sizes (certify at (6, 200), census at
(2, 2), s0 at (13, 14)), untraced and traced, at the default seed (so the
recorded document hashes are checked) and at one other seed.  Each run must
exit 0 and end with a result line that is correct, has no failed op and
carries exactly the metrics BENCHMARK.json declares, with their units.  It
also checks that the harness refuses to run, without printing a result,
where the package sources are missing.  Takes about half a minute; exits 1
on the first problem.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def fail(msg: str) -> None:
    print(f"selfcheck FAIL: {msg}")
    sys.exit(1)


def check_spec() -> None:
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(SPEC) != keys:
        fail(f"BENCHMARK.json keys {sorted(SPEC)}")
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    bad = [n for n in names if not NAME.match(n)]
    if bad or len(set(names)) != len(names):
        fail(f"bad or repeated names: {bad or names}")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    if bounds.get("setup_s") != max(bounds.values()) or max(bounds.values()) > 0.25:
        fail(f"bounds {bounds}: setup_s must have the largest, none above 0.25")


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--profile", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_run(workload: str, seed: int, trace: int) -> None:
    proc = run(workload, seed, trace)
    where = f"{workload} seed {seed} trace {trace}"
    if proc.returncode != 0:
        fail(f"{where} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        fail(f"{where}: {result['attempted']} attempted, {result['failed']} failed\n{proc.stderr}")
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        fail(f"{where}: metrics/units differ from BENCHMARK.json: {set(got) ^ set(want)}")
    for name, m in result["metrics"].items():
        value = m["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"{where}: {name} = {value!r}")
        if not trace and value <= 0:
            fail(f"{where}: end-to-end metric {name} = {value}")
    print(f"selfcheck ok: {where}, {result['attempted']} ops")


def check_refuses_without_sources() -> None:
    bare = ROOT / ".perfbench-out" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(SPEC["workloads"][0]["name"], 1, 0, cwd=bare)
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        fail("the harness ran without the package sources")
    print("selfcheck ok: refuses to run without src/")


def main() -> int:
    check_spec()
    for workload in (w["name"] for w in SPEC["workloads"]):
        for seed in (0, 1):
            for trace in (0, 1):
                check_run(workload, seed, trace)
    check_refuses_without_sources()
    return 0


if __name__ == "__main__":
    sys.exit(main())
