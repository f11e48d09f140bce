"""The three benchmark workloads: their ops, output checks and traced replays.

Every workload is a fixed list of ops (one "round"), built from the seed
before the first timed op and repeated identically until the run's time is
used up.  An op makes the same library or CLI calls a user's command makes,
and returns the documents it emitted.  Checks and replays run outside the
timed op:

* ``check`` validates an op's output the first time the op runs; later
  rounds must emit byte-identical documents, which the worker compares;
* ``replay`` (traced run only) calls, on the same inputs, each public
  function the op's program calls inside, one span per call, and checks
  that the pieces reproduce the op's output exactly.

Nothing in ``src/`` is instrumented: every span wraps a call made from here.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import math
import statistics
from dataclasses import dataclass, field
from typing import Callable, Optional

from bmwgroups import cli, formats, radu, randmodel, structure
from bmwgroups.permgroup import DEFAULT_ORDER_GUARD, PermutationGroup
from bmwgroups.rng import RngState

from spans import Tracer

# Problem sizes.  "full" is what the benchmark measures; "tiny" is the
# harness self-check (selfcheck.py) and must stay fast.
PROFILES = {
    "full": {
        "certify": {"m": 6, "n": 7778, "ops": 6},
        "montecarlo": {
            "m": 6,
            "n": 200,
            "batch_trials": {
                "orbit_share": 10_000,
                "expected_M": 5_000,
                "triple_matching_rate": 5_000,
                "overlap_rate": 5_000,
            },
            "certificate_trials": 100,
        },
        "exact": {"s0": (32, 60), "census": (3, 4), "census_expect": (8452, 164)},
    },
    "tiny": {
        "certify": {"m": 6, "n": 200, "ops": 3},
        "montecarlo": {
            "m": 6,
            "n": 200,
            "batch_trials": {
                "orbit_share": 400,
                "expected_M": 200,
                "triple_matching_rate": 200,
                "overlap_rate": 200,
            },
            "certificate_trials": 4,
        },
        "exact": {"s0": (13, 14), "census": (2, 2), "census_expect": (8, 6)},
    },
}

# An estimate further than this many standard errors from its closed form
# fails the check; at 5 SE a correct sampler fails about once in 1.7e6 checks.
SE_TOLERANCE = 5.0

_IRR_DEFAULTS = {
    name: p.default
    for name, p in inspect.signature(randmodel.irr_certificate).parameters.items()
    if p.default is not inspect.Parameter.empty
}


@dataclass
class OpOut:
    """What one op emitted.

    ``docs`` are the emitted documents by name; ``data`` holds small facts
    the summary needs; ``inputs`` holds large objects that only the checks
    and the replay read, dropped once they have run.
    """

    docs: dict[str, str]
    data: dict = field(default_factory=dict)
    inputs: dict = field(default_factory=dict)


@dataclass
class Summary:
    """Workload-specific end-to-end figures over a set of untraced rounds.

    The times are at the nominal machine speed: each op's CPU time times
    its factor from calibrate.py.
    """

    primary_ms: float
    secondary_ms: float
    report: list  # [name, value, unit, note] rows printed under per-workload names


# (op label, CPU seconds, OpOut.data or None if failed, kernel readings
# taken inside the op)
Record = tuple[str, float, Optional[dict], list[float]]

# Maps an op's kernel readings to its multiplier from CPU to nominal seconds.
Factor = Callable[[list[float]], float]


@dataclass
class Round:
    """One round: its timings and its per-op records.

    Times are raw CPU seconds of the worker process, kernel readings
    excluded, unless named wall.
    """

    op_seconds: float  # summed op time
    op_wall_seconds: float  # summed op time, wall clock
    cpu_seconds: float  # the whole round, checks and replays included
    wall_seconds: float  # the whole round, wall clock
    records: list[Record]


class Workload:
    """Shared state: the group-recognition answers seen by the checks.

    ``classified`` counts the answers to "does the B-side (or, for s0, each
    side's) local action contain Alt(d)?" made by distinct ops (later rounds
    repeat them byte for byte); ``decided`` counts those not "unknown".
    """

    def __init__(self):
        self.decided = 0
        self.classified = 0


def _run_cli(argv: list[str]) -> tuple[int, str, str]:
    """``bmwgroups <argv>`` in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _validate(text: str, schema: str) -> list[str]:
    doc = json.loads(text)
    got = formats.validate_document(doc)
    return [] if got == schema else [f"document schema {got!r}, expected {schema!r}"]


def _classify_span(degree: int) -> str:
    exact = degree <= _IRR_DEFAULTS["exact_max_degree"]
    return "permgroup.classify.exact" if exact else "permgroup.classify.jordan"


def certificate_stages(tr: Tracer, tup, radius: int):
    """Re-run ``irr_certificate(tup, radius)`` one public call at a time.

    Returns the report rebuilt from the pieces and the B-side local
    involutions (None when triple matchings block the structure set).
    ``black_edges`` and ``is_connected`` are timed with the match graph.
    ``structure_set_from_tuple`` repeats its own ``triple_matchings`` pass,
    as ``irr_certificate`` does, so the stage spans add up to the same work
    but the triple-matching cost is split across two of them.
    """
    with tr.span("randmodel.triple_matchings"):
        triple = randmodel.triple_matchings(tup)
    with tr.span("randmodel.overlapping_matches"):
        overlap = randmodel.overlapping_matches(tup)
    with tr.span("randmodel.midpoint_property"):
        mid = randmodel.midpoint_property(tup) if tup.m >= 3 else None
    with tr.span("randmodel.match_graph"):
        graph = randmodel.match_graph(tup)
        has_black = len(graph.black_edges()) > 0
        connected = graph.is_connected()
    with tr.span("randmodel.white_ball_vertex"):
        white = randmodel.white_ball_vertex(graph, radius)
    with tr.span("randmodel.match_statistic"):
        stat = randmodel.match_statistic(tup)
    a_cls = b_cls = b_gens = None
    tr.count("randmodel.certified_tuples")
    if triple is None:
        tr.count("randmodel.structure_built")
        with tr.span("structure.structure_set_from_tuple"):
            derived = randmodel.structure_set_from_tuple(tup)
        with tr.span("structure.local_involutions"):
            a_gens = derived.local_involutions("A")
            b_gens = derived.local_involutions("B")
        with tr.span(_classify_span(tup.m)):
            a_cls = PermutationGroup(tup.m, a_gens).classify(
                "auto", exact_max_degree=_IRR_DEFAULTS["exact_max_degree"]
            )
        with tr.span(_classify_span(tup.n)):
            b_cls = PermutationGroup(tup.n, b_gens).classify(
                "auto",
                rng=_IRR_DEFAULTS["rng"],
                exact_max_degree=_IRR_DEFAULTS["exact_max_degree"],
                words=_IRR_DEFAULTS["jordan_words"],
                max_word_len=_IRR_DEFAULTS["jordan_word_len"],
            )
        for cls in (a_cls, b_cls):
            tr.count(f"permgroup.classify.{cls.method}.answers")
            if cls.contains_alternating is not None:
                tr.count(f"permgroup.classify.{cls.method}.decided")
    rebuilt = randmodel.CertificateReport(
        m=tup.m,
        n=tup.n,
        radius=radius,
        no_triple_matchings=triple is None,
        triple_witness=triple,
        no_overlapping_matches=overlap is None,
        overlap_witness=overlap,
        midpoint=None if mid is None else mid.holds,
        midpoint_witness=None if mid is None else mid.failing,
        white_ball_vertex=white,
        connected=connected,
        has_black_edge=has_black,
        match_statistic=stat,
        a_local=a_cls,
        b_local=b_cls,
    )
    return rebuilt, b_gens


def _report_mismatch(tup, rep, tr: Tracer) -> list[str]:
    """Failures of the stage decomposition to reproduce ``rep`` exactly."""
    rebuilt, b_gens = certificate_stages(tr, tup, rep.radius)
    problems = []
    if rebuilt != rep or rebuilt.to_dict() != rep.to_dict():
        problems.append("stage-by-stage results differ from the irr_certificate report")
    if b_gens is not None and [g.images for g in b_gens] != [e.images for e in tup.entries]:
        problems.append("structure_set_from_tuple(t).local_involutions('B') does not reproduce t")
    return problems


class Certify(Workload):
    """``sample`` then ``analyze`` on seeded (6, 7778) tuples.

    Op t draws ``sample_tuple(m, n, RngState(seed).derive(t))``, serializes
    the tuple document, runs ``irr_certificate`` with the CLI's defaults and
    serializes the report document.
    """

    def __init__(self, seed: int, profile: str):
        super().__init__()
        p = PROFILES[profile]["certify"]
        self.m, self.n = p["m"], p["n"]
        root = RngState(seed)
        self.states = [root.derive(t) for t in range(p["ops"])]

    def ops(self) -> list[tuple[str, Callable[[Tracer], OpOut]]]:
        return [(f"op{t}", self._op(st)) for t, st in enumerate(self.states)]

    def _op(self, state: RngState):
        def op(tr: Tracer) -> OpOut:
            with tr.span("randmodel.sample_tuple"):
                tup = randmodel.sample_tuple(self.m, self.n, state.clone())
            with tr.span("formats.serialize"):
                tuple_doc = formats.dumps(formats.tuple_document(tup))
            t0 = tr.clock()
            with tr.span("randmodel.irr_certificate"):
                rep = randmodel.irr_certificate(tup)
            with tr.span("formats.serialize"):
                report_doc = formats.dumps(formats.report_document(rep))
            analyze_s = tr.clock() - t0
            tr.count("rng.draws", self.m * (self.n // 2))
            return OpOut(
                {"tuple": tuple_doc, "report": report_doc},
                {"analyze_s": analyze_s},
                {"tuple": tup, "report": rep},
            )

        return op

    def check(self, label: str, out: OpOut) -> list[str]:
        b_local = out.inputs["report"].b_local
        if b_local is not None:
            self.classified += 1
            self.decided += b_local.contains_alternating is not None
        problems = _validate(out.docs["tuple"], formats.SCHEMA_TUPLE)
        problems += _validate(out.docs["report"], formats.SCHEMA_REPORT)
        return problems + _report_mismatch(out.inputs["tuple"], out.inputs["report"], Tracer(False))

    def replay(self, label: str, out: OpOut, tr: Tracer) -> list[str]:
        return _report_mismatch(out.inputs["tuple"], out.inputs["report"], tr)

    def summary(self, rounds: list[Round], factor: Factor) -> Summary:
        done = [(sec * f, data["analyze_s"] * f)
                for r in rounds for _label, sec, data, inside in r.records
                if data is not None for f in (factor(inside),)]
        op_ms = statistics.median(op for op, _ in done) * 1e3
        analyze_ms = statistics.median(part for _, part in done) * 1e3
        return Summary(
            primary_ms=op_ms,
            secondary_ms=analyze_ms,
            report=[
                ["analyze_p50_ms", op_ms, "ms", f"median of {len(done)} ops"],
                ["analyze_only_p50_ms", analyze_ms, "ms",
                 "irr_certificate + report document, sampling excluded"],
            ],
        )


class MonteCarlo(Workload):
    """``mc`` for the four batched kinds and ``certificate_rates``.

    Each op is one ``bmwgroups mc`` invocation, run in-process, emitting an
    estimate document; the rng seed is the benchmark seed.
    """

    def __init__(self, seed: int, profile: str):
        super().__init__()
        p = PROFILES[profile]["montecarlo"]
        self.seed, self.m, self.n = seed, p["m"], p["n"]
        self.trials = dict(p["batch_trials"])
        self.trials["certificate_rates"] = p["certificate_trials"]

    def _m(self, kind: str) -> Optional[int]:
        """The CLI's --m: orbit_share is a two-coordinate statistic without one."""
        return None if kind == "orbit_share" else self.m

    def _m_eff(self, kind: str) -> int:
        return 2 if kind == "orbit_share" else self.m

    def _argv(self, kind: str) -> list[str]:
        argv = ["mc", "--kind", kind, "--n", str(self.n), "--trials", str(self.trials[kind]),
                "--seed", str(self.seed)]
        return argv if self._m(kind) is None else argv + ["--m", str(self.m)]

    def ops(self):
        return [(kind, self._op(kind)) for kind in self.trials]

    def _op(self, kind: str):
        argv = self._argv(kind)
        draws = self.trials[kind] * self._m_eff(kind) * (self.n // 2)

        def op(tr: Tracer) -> OpOut:
            code, stdout, stderr = _run_cli(argv)
            tr.count("rng.draws", draws)
            return OpOut({"estimate": stdout}, {"code": code, "stderr": stderr})

        return op

    def check(self, kind: str, out: OpOut) -> list[str]:
        if out.data["code"] != 0:
            return [f"mc {kind} exited {out.data['code']}: {out.data['stderr'].strip()}"]
        problems = _validate(out.docs["estimate"], formats.SCHEMA_ESTIMATE)
        doc = json.loads(out.docs["estimate"])
        if (doc["kind"], doc["trials"], doc["seed"]) != (kind, self.trials[kind], self.seed):
            problems.append(f"mc {kind}: document header does not match the request")
        exact = None
        if kind == "orbit_share":
            exact = ("share_probability", randmodel.exact_orbit_share_prob(self.n).value)
        elif kind == "expected_M":
            exact = ("mean_shared_orbits", float(randmodel.expected_match_statistic(self.m, self.n)))
        if exact is not None:
            est = doc["estimates"][exact[0]]
            if abs(est["mean"] - exact[1]) > SE_TOLERANCE * est["std_error"]:
                problems.append(
                    f"mc {kind}: {est['mean']} is more than {SE_TOLERANCE} SE"
                    f" ({est['std_error']}) from the exact {exact[1]}"
                )
        if kind == "certificate_rates":
            # B-side answers are made for tuples without triple matchings.
            trials = self.trials[kind]
            made = round(doc["estimates"]["no_triple_matchings"]["mean"] * trials)
            unknown = round(doc["estimates"]["b_local_alternating_unknown"]["mean"] * trials)
            self.classified += made
            self.decided += made - unknown
        else:
            problems += self._sampler_rows(kind)
        return problems

    def _sampler_rows(self, kind: str) -> list[str]:
        """Batch rows at a few trial indices equal the scalar sampler's tuples."""
        m_eff = self._m_eff(kind)
        rng = RngState(self.seed)
        trials = self.trials[kind]
        for t in sorted({0, trials // 2, trials - 1}):
            row = randmodel.sample_tuple_images_batch(m_eff, self.n, rng, t, 1)[0]
            scalar = randmodel.sample_tuple(m_eff, self.n, rng.derive(t))
            if row.tolist() != [list(e.images) for e in scalar.entries]:
                return [f"mc {kind}: batch row {t} differs from sample_tuple"]
        return []

    def replay(self, kind: str, out: OpOut, tr: Tracer) -> list[str]:
        rng = RngState(self.seed)
        trials = self.trials[kind]
        batched = kind != "certificate_rates"
        with tr.span("randmodel.monte_carlo.batch" if batched else
                     "randmodel.monte_carlo.certificate_rates"):
            result = randmodel.monte_carlo(kind, self._m(kind), self.n, trials, rng)
        with tr.span("formats.serialize"):
            text = formats.dumps(formats.estimate_document(result))
        problems = [] if text == out.docs["estimate"] else [
            f"mc {kind}: monte_carlo + estimate_document differs from the CLI document"]
        if batched:
            # The chunking of randmodel._batch_values: one batch per 4096 trials.
            chunk = max(1, min(4096, trials))
            for first in range(0, trials, chunk):
                with tr.span("randmodel.sample_tuple_images_batch"):
                    randmodel.sample_tuple_images_batch(
                        self._m_eff(kind), self.n, rng, first, min(chunk, trials - first)
                    )
            return problems
        no_triple = unknown = 0
        for t in range(trials):
            with tr.span("randmodel.sample_tuple"):
                tup = randmodel.sample_tuple(self.m, self.n, rng.derive(t))
            with tr.span("randmodel.irr_certificate"):
                rep = randmodel.irr_certificate(tup, radius=randmodel.DEFAULT_BALL_RADIUS)
            problems += _report_mismatch(tup, rep, tr)
            no_triple += rep.no_triple_matchings
            unknown += rep.b_local is not None and rep.b_local.contains_alternating is None
        stats = result.stats
        if (stats["no_triple_matchings"].mean, stats["b_local_alternating_unknown"].mean) != (
            no_triple / trials, unknown / trials
        ):
            problems.append("certificate_rates: estimate disagrees with per-trial certificates")
        return problems

    def summary(self, rounds: list[Round], factor: Factor) -> Summary:
        batch_rates, cert_rates = [], []
        for rnd in rounds:
            sec = {label: sec * factor(inside)
                   for label, sec, data, inside in rnd.records if data is not None}
            batch = [k for k in self.trials if k != "certificate_rates" and k in sec]
            if batch:
                batch_rates.append(sum(self.trials[k] for k in batch) / sum(sec[k] for k in batch))
            if "certificate_rates" in sec:
                cert_rates.append(self.trials["certificate_rates"] / sec["certificate_rates"])
        batch_rate = statistics.median(batch_rates)
        cert_rate = statistics.median(cert_rates)
        batch_trials = sum(v for k, v in self.trials.items() if k != "certificate_rates")
        return Summary(
            primary_ms=1e3 / cert_rate,
            secondary_ms=1e3 / batch_rate,
            report=[
                ["mc_batch_trials_per_s", batch_rate, "1/s",
                 f"{batch_trials} trials/round, median of {len(batch_rates)} rounds"],
                ["mc_certificate_rates_trials_per_s", cert_rate, "1/s",
                 f"{self.trials['certificate_rates']} trials/round,"
                 f" median of {len(cert_rates)} rounds"],
            ],
        )


class Exact(Workload):
    """``s0 --verify`` and ``census --up-to-relabeling``, as in-process CLI calls.

    Both commands are deterministic: the seed changes nothing here.
    """

    def __init__(self, seed: int, profile: str):
        super().__init__()
        p = PROFILES[profile]["exact"]
        self.s0_mn, self.census_mn, self.census_expect = p["s0"], p["census"], p["census_expect"]

    def ops(self):
        m, n = self.s0_mn
        cm, cn = self.census_mn
        s0 = ["s0", "--m", str(m), "--n", str(n), "--verify"]
        census = ["census", "--m", str(cm), "--n", str(cn), "--up-to-relabeling",
                  "--format", "json"]
        return [("s0", self._op(s0)), ("census", self._op(census))]

    @staticmethod
    def _op(argv: list[str]):
        def op(tr: Tracer) -> OpOut:
            code, stdout, stderr = _run_cli(argv)
            return OpOut({"doc": stdout}, {"code": code, "stderr": stderr})

        return op

    def check(self, label: str, out: OpOut) -> list[str]:
        if out.data["code"] != 0:
            return [f"{label} exited {out.data['code']}: {out.data['stderr'].strip()}"]
        if label == "s0":
            # s0 --verify decides both local actions exactly, by chain orders.
            self.classified += 2
            self.decided += 2
            problems = _validate(out.docs["doc"], formats.SCHEMA_STRUCTURE_SET)
            passes = [ln for ln in out.data["stderr"].splitlines()
                      if ln.startswith("verify ") and ln.endswith(": pass")]
            if len(passes) != 4:
                problems.append(f"s0 --verify: {len(passes)} of 4 checks pass")
            return problems
        doc = json.loads(out.docs["doc"])
        got = (doc.get("structure_sets"), doc.get("relabeling_classes"))
        if got != self.census_expect:
            return [f"census {self.census_mn}: got {got}, expected {self.census_expect}"]
        return []

    def replay(self, label: str, out: OpOut, tr: Tracer) -> list[str]:
        if label == "census":
            m, n = self.census_mn
            with tr.span("structure.enumerate_structure_sets"):
                total = structure.enumerate_structure_sets(m, n)
            with tr.span("structure.count_up_to_relabeling"):
                classes = structure.count_up_to_relabeling(m, n)
            tr.count("structure.census.sets", total)
            tr.count("structure.census.classes", classes)
            with tr.span("formats.serialize"):
                text = formats.dumps(
                    {"m": m, "n": n, "structure_sets": total, "relabeling_classes": classes}
                )
            return [] if text == out.docs["doc"] else ["census: replay differs from the CLI"]
        m, n = self.s0_mn
        with tr.span("radu.extension"):
            s = radu.extension(m, n)
        with tr.span("radu.blueprint"):
            families = radu.blueprint(m, n).families()
        with tr.span("formats.serialize"):
            text = formats.dumps(
                formats.structure_set_document(s, families=families)
            )
        with tr.span("structure.local_involutions"):
            b_gens = s.local_involutions("B")
            a_gens = s.local_involutions("A")
        with tr.span("permgroup.order.b_side"):
            b_order = PermutationGroup(n, b_gens).order(DEFAULT_ORDER_GUARD)
        with tr.span("permgroup.order.a_side"):
            a_order = PermutationGroup(m, a_gens).order(DEFAULT_ORDER_GUARD)
        with tr.span("radu.schreier_claim_check"):
            claim = radu.schreier_claim_check(n)
        ok = (text == out.docs["doc"], b_order == math.factorial(n),
              a_order == math.factorial(m), claim.connected, claim.not_bipartite)
        return [] if all(ok) else [f"s0: replay checks {ok}"]

    def summary(self, rounds: list[Round], factor: Factor) -> Summary:
        secs = {"s0": [], "census": []}
        for rnd in rounds:
            for label, sec, data, inside in rnd.records:
                if data is not None:
                    secs[label].append(sec * factor(inside))
        s0_s, census_s = statistics.median(secs["s0"]), statistics.median(secs["census"])
        return Summary(
            primary_ms=s0_s * 1e3,
            secondary_ms=census_s * 1e3,
            report=[
                ["s0_verify_s", s0_s, "s", f"median of {len(secs['s0'])}, (m, n) = {self.s0_mn}"],
                ["census_s", census_s, "s",
                 f"median of {len(secs['census'])}, (m, n) = {self.census_mn}"],
            ],
        )


WORKLOADS = {"certify": Certify, "montecarlo": MonteCarlo, "exact": Exact}
