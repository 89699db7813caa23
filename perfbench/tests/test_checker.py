"""Tests for the benchmark's verdict checker, tracer and catalog.

    python -m pytest perfbench/tests -q
"""

import json
import random
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE.parent))

import catalog  # noqa: E402
import checker  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, bridges  # noqa: E402

from repro.api import CertificationSession  # noqa: E402
from repro.api.pipeline import HierarchyStage  # noqa: E402
from repro.experiments import lanewidth_workload  # noqa: E402
from repro.graphs.generators import cycle_graph, random_connected_gnp  # noqa: E402


def _accepted():
    return SimpleNamespace(refused=False, refusal=None, accepted=True)


def _refused(reason):
    return SimpleNamespace(refused=True, refusal=reason, accepted=False)


def test_wrong_verdict_lands_in_wrong():
    truth = {"connected": True, "acyclic": False}
    # A false property certified.
    outcome = {"connected": _accepted(), "acyclic": _accepted()}
    assert checker.classify_certify(truth, outcome) == checker.WRONG
    # A true property refused as false.
    outcome = {
        "connected": _refused("property does not hold on the real subgraph"),
        "acyclic": _refused("property does not hold on the real subgraph"),
    }
    assert checker.classify_certify(truth, outcome) == checker.WRONG
    # Honest labels rejected by the round.
    rejected = SimpleNamespace(refused=False, refusal=None, accepted=False)
    outcome = {"connected": rejected, "acyclic": _refused("property does not hold")}
    assert checker.classify_certify(truth, outcome) == checker.WRONG
    # A tampered host accepted.
    assert checker.classify_round(False, True) == checker.WRONG


def test_exception_lands_in_raised():
    truth = {"connected": True}
    assert checker.classify_certify(truth, ValueError("boom")) == checker.RAISED
    assert checker.classify_round(True, RuntimeError("boom")) == checker.RAISED


def test_width_refusal_lands_in_undecided():
    # A cycle has pathwidth 2, so a k=1 session refuses for lack of a witness.
    session = CertificationSession(k=1, rng=random.Random(0))
    report = session.certify(cycle_graph(6), "connected")
    assert report.refused and report.refusal.startswith(checker.WIDTH_REFUSAL)
    outcome = {"connected": report}
    assert checker.classify_certify({"connected": True}, outcome) == checker.UNDECIDED


def test_right_verdicts_land_in_ok():
    truth = {"connected": True, "acyclic": False}
    outcome = {
        "connected": _accepted(),
        "acyclic": _refused("property does not hold on the real subgraph"),
    }
    assert checker.classify_certify(truth, outcome) == checker.OK
    assert checker.classify_round(False, False) == checker.OK
    assert checker.tally([checker.OK, checker.WRONG, checker.OK]) == {
        checker.OK: 2, checker.RAISED: 0, checker.UNDECIDED: 0, checker.WRONG: 1,
    }


def test_bridges_match_brute_force():
    for seed in range(5):
        graph = random_connected_gnp(18, 0.12, random.Random(seed))
        expected = set()
        for u, v in graph.edges():
            cut = graph.copy()
            cut.remove_edge(u, v)
            if not cut.is_connected():
                expected.add(frozenset((u, v)))
        assert {frozenset(edge) for edge in bridges(graph)} == expected


def test_trace_accounts_for_the_op_wall_clock():
    original = HierarchyStage.__dict__["run"]
    sequence, _graph = lanewidth_workload(2, 24, 3)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_op(0)
        CertificationSession(rng=random.Random(1)).certify(sequence, "connected")
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert HierarchyStage.__dict__["run"] is original
    selfs = tracer.self_seconds()
    assert selfs["core.hierarchy"] > 0 and selfs["codec.encode"] > 0
    assert abs(sum(selfs.values()) - tracer.op_seconds()) < 1e-6
    values = tracer.per_layer(catalog.per_layer_names())
    assert values["codec.encoded_bits"] > 0
    # Calls outside an op pass through without spans.
    spans = len(tracer.spans)
    tracer.install()
    try:
        CertificationSession(rng=random.Random(1)).certify(sequence, "connected")
    finally:
        tracer.uninstall()
    assert len(tracer.spans) == spans


def test_catalog_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {
        m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]
    } == catalog.END_TO_END
    assert [
        (m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
    ] == [row[:3] for row in catalog.PER_LAYER]
