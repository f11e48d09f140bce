"""Tier-1 smoke of the benchmark's checks and replays.

``perfbench/workloads.py`` rebuilds each ``irr_certificate`` report from the
public functions it is made of, one call at a time, each estimate document
from ``monte_carlo``, the ``s0`` document from the Radu family's
constructors and the census document from the two census counts.  A change
to any library name they read that breaks them fails here instead of in a
benchmark run.
"""

import hashlib
import json
from pathlib import Path

import pytest

from bmwgroups.randmodel import irr_certificate, sample_tuple
from bmwgroups.rng import RngState

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    import workloads

    return workloads, spans.Tracer


def test_certificate_stages_rebuild_the_report(workloads):
    module, tracer = workloads
    root = RngState(41)
    built = 0
    for t in range(5):
        tup = sample_tuple(6, 200, root.derive(t))
        rebuilt, b_gens = module.certificate_stages(tracer(False), tup, 6)
        rep = irr_certificate(tup)
        assert rebuilt == rep
        assert rebuilt.to_dict() == rep.to_dict()
        if b_gens is not None:
            built += 1
            assert [g.images for g in b_gens] == [e.images for e in tup.entries]
    assert built > 0


def test_census_op_checks_replays_and_matches_golden(workloads):
    module, tracer = workloads
    exact = module.Exact(0, "full")
    ops = dict(exact.ops())
    out = ops["census"](tracer(False))
    assert exact.check("census", out) == []
    assert exact.replay("census", out, tracer(False)) == []
    golden = json.loads((PERFBENCH / "golden.json").read_text())
    digest = hashlib.sha256(out.docs["doc"].encode()).hexdigest()
    assert digest == golden["full"]["exact"]["census.doc"]


@pytest.mark.parametrize("name", ["MonteCarlo", "Exact"])
def test_every_tiny_op_checks_and_replays(workloads, name):
    module, tracer = workloads
    workload = getattr(module, name)(0, "tiny")
    for label, op in workload.ops():
        out = op(tracer(False))
        assert workload.check(label, out) == [], label
        assert workload.replay(label, out, tracer(False)) == [], label
