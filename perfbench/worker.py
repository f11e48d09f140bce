"""Run one workload in this (fresh, single-threaded) process and report.

Started by ``run.py``; not meant to be run by hand.  Prints ``ready`` once
``bmwgroups`` is imported and the workload's inputs are built, then (unless
``--setup-only``) runs rounds of the workload as a closed loop with one
caller and prints one JSON line with the raw results.

Every time is CPU time of this process's one thread (``time.thread_time``,
which stays exact while calibrate.py's CPU-time timer is armed; the process
clock then only advances in scheduler ticks).  Untraced mode times each op
with the reference kernel of calibrate.py read inside it, and checks the
outputs; its end-to-end times are given at the nominal machine speed.
Checks run outside the timed ops, and the full check of each op's first
output does not count against ``--seconds``, so that the time goes to
repeated ops.  Per-layer figures stay raw CPU time.  Traced mode first runs
untraced rounds for a third of the time (the baseline for
``trace.overhead_s``), then traced rounds: each op again, with spans around
its calls, followed by its replay.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import numpy

import bmwgroups
from calibrate import Sampler
from spans import Tracer, busy_by_name, self_by_name
from workloads import WORKLOADS, Round

def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
        "bmwgroups": bmwgroups.__version__,
    }


class Runner:
    """Runs rounds, keeps per-op records, first-round documents and failures."""

    def __init__(self, workload):
        self.wl = workload
        self.first_docs: dict[str, str] = {}  # "<op>.<doc>" -> sha256 of round 0
        self.failures: list[str] = []
        self.failed_ops = 0
        self.attempted = 0
        self.sampler = Sampler()
        self.first_check_wall = 0.0  # wall seconds of the first-output checks

    def untimed_wall(self) -> float:
        """Wall seconds that do not count against ``--seconds``."""
        return self.first_check_wall

    def round(self, tr: Tracer, index: int, replay: bool) -> Round:
        """Run every op once, then its checks, and in traced rounds its replay.

        Untraced rounds read the kernel inside each op; traced rounds do
        not, so that the spans hold only the program's time.
        """
        t_round, cpu_round = time.perf_counter(), time.thread_time()
        op_total = op_wall = 0.0
        records = []
        for label, fn in self.wl.ops():
            tr.op_id = f"r{index}.{label}"
            self.attempted += 1
            problems: list[str] = []
            out, sec, inside = None, 0.0, []
            w0, t0 = time.perf_counter(), time.thread_time()
            try:
                if replay:
                    with tr.span("op"):
                        out = fn(tr)
                    sec = time.thread_time() - t0
                else:
                    out, sec, inside = self.sampler.measure(fn, tr)
            except Exception:
                problems.append(f"{label}: {traceback.format_exc(limit=3)}")
            op_total += sec
            op_wall += time.perf_counter() - w0
            if out is not None:
                try:
                    problems += self._check(label, out, tr, replay)
                except Exception:
                    problems.append(f"{label} check: {traceback.format_exc(limit=3)}")
            if problems:
                self.failed_ops += 1
                self.failures.extend(f"round {index} {p}" for p in problems)
            records.append((label, sec, None if problems else out.data, inside))
        return Round(op_total, op_wall, time.thread_time() - cpu_round,
                     time.perf_counter() - t_round, records)

    def _check(self, label, out, tr, replay) -> list[str]:
        problems = []
        first = f"{label}.{next(iter(out.docs))}" not in self.first_docs
        for name, text in out.docs.items():
            key, digest = f"{label}.{name}", _sha(text)
            if self.first_docs.setdefault(key, digest) != digest:
                problems.append(f"{key}: document differs from round 0")
        if first:
            t0 = time.perf_counter()
            problems += self.wl.check(label, out)
            self.first_check_wall += time.perf_counter() - t0
        if replay:
            with tr.span("replay"):
                problems += self.wl.replay(label, out, tr)
        return problems


# Spans of the calls irr_certificate makes, as replayed by
# workloads.certificate_stages; what irr_certificate spends outside them is
# randmodel.irr_certificate.unattributed_s.
CERTIFICATE_STAGES = (
    "randmodel.triple_matchings",
    "randmodel.overlapping_matches",
    "randmodel.midpoint_property",
    "randmodel.match_graph",
    "randmodel.white_ball_vertex",
    "randmodel.match_statistic",
    "structure.structure_set_from_tuple",
    "structure.local_involutions",
    "permgroup.classify.exact",
    "permgroup.classify.jordan",
)

# Per-layer metrics that are a span's summed duration ("<span>.busy_s") or
# call count ("<span>.calls").
BUSY = CERTIFICATE_STAGES + (
    "randmodel.sample_tuple",
    "randmodel.sample_tuple_images_batch",
    "randmodel.monte_carlo.batch",
    "randmodel.monte_carlo.certificate_rates",
    "randmodel.irr_certificate",
    "structure.enumerate_structure_sets",
    "structure.count_up_to_relabeling",
    "permgroup.order.a_side",
    "permgroup.order.b_side",
    "radu.extension",
    "radu.schreier_claim_check",
    "formats.serialize",
    "op",
    "replay",
)
CALLS = (
    "randmodel.sample_tuple",
    "randmodel.sample_tuple_images_batch",
    "randmodel.irr_certificate",
    "permgroup.classify.exact",
    "permgroup.classify.jordan",
    "formats.serialize",
)


def round_layers(spans: list[list], offset: int, counters: dict) -> dict:
    """Per-layer figures of one traced round."""
    busy, calls = busy_by_name(spans)
    row = {f"{name}.busy_s": busy.get(name, 0.0) for name in BUSY}
    row.update({f"{name}.calls": calls.get(name, 0) for name in CALLS})
    irr = busy.get("randmodel.irr_certificate")
    row["randmodel.irr_certificate.unattributed_s"] = (
        0.0 if irr is None else irr - sum(busy.get(s, 0.0) for s in CERTIFICATE_STAGES)
    )
    row["randmodel.monte_carlo.batch_statistic_s"] = row[
        "randmodel.monte_carlo.batch.busy_s"
    ] - row["randmodel.sample_tuple_images_batch.busy_s"]
    row["permgroup.order.busy_s"] = (
        row["permgroup.order.a_side.busy_s"] + row["permgroup.order.b_side.busy_s"]
    )
    row["op.self_s"] = self_by_name(spans, offset).get("op", 0.0)
    get = lambda name: counters.get(name, 0)  # noqa: E731
    row["randmodel.certified_tuples"] = get("randmodel.certified_tuples")
    row["randmodel.structure_built_share"] = _share(
        get("randmodel.structure_built"), get("randmodel.certified_tuples")
    )
    row["permgroup.jordan.decided_share"] = _share(
        get("permgroup.classify.jordan.decided"), get("permgroup.classify.jordan.answers")
    )
    for name in ("rng.draws", "structure.census.sets", "structure.census.classes"):
        row[name] = get(name)
    return row


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--profile", default="full")
    ap.add_argument("--trace-out")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload](args.seed, args.profile)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    runner = Runner(wl)
    off = Tracer(False)
    off.clock = runner.sampler.clock
    start = time.perf_counter()

    def elapsed() -> float:
        return time.perf_counter() - start - runner.untimed_wall()

    budget = args.seconds / 3 if args.trace else args.seconds
    untraced: list[Round] = []
    while True:
        rnd = runner.round(off, len(untraced), replay=False)
        untraced.append(rnd)
        if elapsed() + rnd.op_wall_seconds > budget:
            break
    raw_s = statistics.median(r.op_seconds for r in untraced)
    op_wall = statistics.median(r.op_wall_seconds for r in untraced)
    sampler = runner.sampler
    if len(sampler.readings) < 1:
        sampler.read(0.0)  # ops too short for a tick: one reading after them
    result = {"env": environment(), "rounds": len(untraced), "kernel_s": sampler.mean(),
              "kernel_readings": len(sampler.readings)}

    if args.trace:
        tr = Tracer(True)
        rows, cpus = [], []
        while True:
            lo = len(tr.spans)
            tr.counters = {}
            rnd = runner.round(tr, len(untraced) + len(rows), replay=True)
            rows.append(round_layers(tr.spans[lo:], lo, tr.counters))
            cpus.append(rnd.cpu_seconds)
            if elapsed() + rnd.wall_seconds > args.seconds:
                break
        metrics = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
        metrics["trace.overhead_s"] = statistics.median(cpus) - raw_s
        result["metrics"] = metrics
        result["traced_rounds"] = len(rows)
        if args.trace_out:
            tr.write(args.trace_out, {"workload": args.workload, "seed": args.seed,
                                      "profile": args.profile, "env": result["env"]})
    else:
        factor = sampler.factor
        wall_s = statistics.median(
            sum(sec * factor(inside) for _label, sec, _data, inside in r.records)
            for r in untraced
        )
        summary = wl.summary(untraced, factor)
        result["metrics"] = {
            "wall_s": wall_s,
            "primary_ms": summary.primary_ms,
            "secondary_ms": summary.secondary_ms,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "decided_share": _share(wl.decided, wl.classified),
        }
        result["report"] = summary.report + [
            ["unknown_share", _share(wl.classified - wl.decided, wl.classified), "ratio",
             f"'unknown' of {wl.classified} alternating-group answers"],
            ["wall_s", wall_s, "s", f"median of {len(untraced)} rounds of {len(wl.ops())} ops"],
            ["raw wall_s", raw_s, "s", "CPU time, kernel readings excluded, not normalized"],
            ["op wall time", op_wall, "s", "median of rounds, wall clock, not normalized"],
        ]
    result.update(attempted=runner.attempted, failed=runner.failed_ops,
                  failures=runner.failures[:20], docs=runner.first_docs)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
