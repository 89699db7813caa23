"""Tests for the repro.api facade, pipeline stages, and sessions.

Covers the prover failure paths as structured reports, the session's
structural-artifact cache (stage counters must show decompose/lanes/
hierarchy running exactly once per graph), fingerprint caching in the
lanewidth matcher, and the exact-decomposition cutoff parameter.
"""

import random
import sys

import pytest

import repro.api.pipeline as pipeline_module
from repro.api import (
    CertificationReport,
    CertificationSession,
    DecomposeStage,
    EvaluateStage,
    LabelStage,
    MatchSequenceStage,
    PipelineContext,
    PlanRunner,
    certify,
    theorem1_plan,
)
from repro.api.plan import config_fingerprint
from repro.core import (
    LanewidthScheme,
    Theorem1Scheme,
    apply_construction,
    random_lanewidth_sequence,
)
from repro.experiments import lanewidth_workload
from repro.graphs import Graph
from repro.graphs.generators import (
    caterpillar_graph,
    complete_graph,
    cycle_graph,
    path_graph,
    random_pathwidth_graph,
)
from repro.mso.properties import is_bipartite
from repro.pathwidth import PathDecomposition
from repro.pls.model import Configuration
from repro.pls.scheme import ProverFailure
from repro.pls.simulator import run_verification


STRUCTURAL = ("decompose", "lanes", "completion", "hierarchy")


class TestProverFailureReports:
    def test_single_vertex_refused(self):
        report = certify(Graph(vertices=[0]), "connected", k=1)
        assert report.refused and not report.accepted
        assert "two vertices" in report.refusal

    def test_disconnected_refused(self):
        g = Graph(edges=[(0, 1), (2, 3)])
        report = certify(g, "connected", k=1)
        assert report.refused
        assert "connected" in report.refusal

    def test_width_over_bound_refused(self):
        report = certify(complete_graph(6), "connected", k=1)
        assert report.refused
        assert "witness decomposition" in report.refusal
        # Structural refusals keep the timings of the stages that ran.
        assert [t.name for t in report.stage_timings] == ["decompose"]

    def test_property_false_at_root_refused(self):
        report = certify(cycle_graph(7), "bipartite", k=2)
        assert report.refused
        assert "does not hold" in report.refusal
        # The structural work succeeded; only evaluation refused.
        assert report.hierarchy_depth is not None
        assert report.stage_seconds("evaluate") >= 0.0

    def test_structural_refusal_covers_whole_batch(self):
        g = Graph(edges=[(0, 1), (2, 3)])
        reports = certify(g, ["connected", "acyclic", "even-order"], k=1)
        assert set(reports) == {"connected", "acyclic", "even-order"}
        assert all(r.refused for r in reports.values())

    def test_legacy_scheme_still_raises(self):
        scheme = Theorem1Scheme("connected", 1)
        config = Configuration.with_random_ids(
            complete_graph(6), random.Random(3)
        )
        with pytest.raises(ProverFailure):
            scheme.prove(config)


class TestFailureEnvelope:
    """Sizes and algebras the API accepts end in a report, never in a
    stray exception."""

    def test_member_chain_fold_needs_no_deep_stack(self):
        # T-node member chains grow with n (Observation 5.5 bounds only
        # the hierarchy depth); this host's chain is deeper than the
        # lowered limit, so a recursive fold would raise RecursionError.
        sequence, _graph = lanewidth_workload(3, 1024, 1)
        previous = sys.getrecursionlimit()
        sys.setrecursionlimit(250)
        try:
            report = CertificationSession(rng=random.Random(2)).certify(
                sequence, "connected"
            )
        finally:
            sys.setrecursionlimit(previous)
        assert not report.refused
        assert report.accepted and report.verification.accepted
        assert report.n == 1024

    def test_capacity_limit_refuses_only_that_property(self):
        sequence, _graph = lanewidth_workload(3, 256, 1)
        reports = CertificationSession(rng=random.Random(2)).certify(
            sequence, ["connected", "colorable-3", "even-order"]
        )
        assert list(reports) == ["connected", "colorable-3", "even-order"]
        assert reports["connected"].accepted
        assert reports["even-order"].accepted
        refused = reports["colorable-3"]
        assert refused.refused and not refused.accepted
        assert "supports boundary arity <= 8" in refused.refusal


class TestSessionCaching:
    def test_batch_runs_structural_stages_once(self):
        rng = random.Random(40)
        graph = caterpillar_graph(4, 2)  # a tree: all four properties hold
        session = CertificationSession(k=1, rng=rng)
        properties = ["connected", "acyclic", "bipartite", "even-order"]
        reports = session.certify(graph, properties)
        assert len(reports) == 4
        for report in reports.values():
            assert report.accepted, report.summary()
            for name in STRUCTURAL:
                assert report.stage_counters[name] == 1
        assert session.stage_counters["evaluate"] == 4
        assert session.stage_counters["label"] == 4

    def test_second_certify_hits_cache(self):
        rng = random.Random(41)
        graph, bags = random_pathwidth_graph(18, 2, rng)
        decomposition = PathDecomposition(graph, bags)
        session = CertificationSession(
            k=2, decomposer=lambda _g: decomposition, rng=rng
        )
        first = session.certify(graph, "connected")
        assert not first.structure_cached
        second = session.certify(graph, "even-order")
        assert second.structure_cached
        # DecomposeStage must not have rerun.
        assert second.stage_counters["decompose"] == 1
        assert second.stage_counters["lanes"] == 1
        assert second.stage_counters["hierarchy"] == 1
        # Cached structural timings are flagged as such.
        cached_names = {t.name for t in second.stage_timings if t.cached}
        assert set(STRUCTURAL) <= cached_names
        fresh_names = {t.name for t in second.stage_timings if not t.cached}
        assert fresh_names == {"evaluate", "label"}

    def test_sequence_batch_matches_ground_truth(self):
        rng = random.Random(42)
        seq = random_lanewidth_sequence(3, 14, rng)
        graph = apply_construction(seq)
        truth = {
            "connected": graph.is_connected(),
            "acyclic": graph.is_forest(),
            "bipartite": is_bipartite(graph),
            "even-order": graph.n % 2 == 0,
        }
        session = CertificationSession(rng=rng)
        reports = session.certify(seq, list(truth))
        for key, want in truth.items():
            report = reports[key]
            assert report.accepted == want, report.summary()
            assert report.refused == (not want)
        assert session.stage_counters["match"] == 1
        assert session.stage_counters["hierarchy"] == 1
        assert session.stage_counters["evaluate"] == len(truth)

    def test_distinct_graphs_cached_separately(self):
        session = CertificationSession(k=1)
        session.certify(path_graph(6), "connected")
        session.certify(path_graph(7), "connected")
        assert session.cached_graphs == 2
        assert session.stage_counters["decompose"] == 2

    def test_report_verification_round_trip(self):
        session = CertificationSession(rng=random.Random(43))
        seq = random_lanewidth_sequence(2, 10, random.Random(5))
        report = session.certify(seq, "connected")
        assert report.accepted
        config, scheme, labeling, result = report.as_tuple()
        # The report's artifacts replay through the legacy simulator.
        replay = run_verification(config, scheme, labeling)
        assert replay.accepted
        # And the scheme's prove() regenerates an accepted labeling.
        labeling2 = scheme.prove(config)
        assert run_verification(config, scheme, labeling2).accepted

    def test_session_requires_k_for_graph_targets(self):
        session = CertificationSession()
        with pytest.raises(ValueError, match="pathwidth bound"):
            session.certify(path_graph(5), "connected")


class TestFingerprintCaching:
    def test_graph_fingerprint_semantics(self):
        a = path_graph(5)
        b = path_graph(5)
        assert a.fingerprint() == b.fingerprint()
        b.set_vertex_label(0, "x")
        assert a.fingerprint() != b.fingerprint()
        assert a.fingerprint(include_labels=False) == b.fingerprint(
            include_labels=False
        )
        b.add_edge(0, 4)
        assert a.fingerprint(include_labels=False) != b.fingerprint(
            include_labels=False
        )

    def test_lanewidth_scheme_replays_construction_once(self, monkeypatch):
        calls = []
        real_apply = pipeline_module.apply_construction

        def counting_apply(seq):
            calls.append(seq)
            return real_apply(seq)

        monkeypatch.setattr(
            pipeline_module, "apply_construction", counting_apply
        )
        rng = random.Random(6)
        seq = random_lanewidth_sequence(2, 8, rng)
        graph = real_apply(seq)
        config = Configuration.with_random_ids(graph, rng)
        scheme = LanewidthScheme("connected", seq)
        scheme.prove(config)
        scheme.prove(config)
        scheme.prove(config)
        assert len(calls) == 1  # expected graph built once, then hashed

    def test_match_stage_rejects_wrong_graph(self):
        seq = random_lanewidth_sequence(2, 6, random.Random(7))
        stage = MatchSequenceStage(seq)
        wrong = Configuration.with_random_ids(path_graph(4), random.Random(8))
        with pytest.raises(ProverFailure, match="does not match"):
            stage.run(PipelineContext(config=wrong))


class TestDecomposeStageParameters:
    def test_exact_limit_is_overridable(self):
        # exact_limit=0 forces the heuristic even on tiny graphs; the
        # heuristic finds the optimal decomposition of a path.
        report = certify(path_graph(6), "connected", k=1, exact_limit=0)
        assert report.accepted

    def test_exact_limit_threads_through_scheme(self):
        scheme = Theorem1Scheme("connected", 1, exact_limit=0)
        config = Configuration.with_random_ids(path_graph(6), random.Random(9))
        labeling = scheme.prove(config)
        assert run_verification(config, scheme, labeling).accepted

    def test_stage_validates_parameters(self):
        with pytest.raises(ValueError):
            DecomposeStage(0)
        with pytest.raises(ValueError):
            DecomposeStage(1, exact_limit=-1)
        with pytest.raises(ValueError):
            Theorem1Scheme("connected", 0)


def _run_theorem1_plan(ctx, counters=None):
    source_keys = {
        "graph": ctx.graph.fingerprint("edges"),
        "config": config_fingerprint(ctx.config),
        "algebra": ctx.algebra,
    }
    return PlanRunner(counters=counters).run(
        theorem1_plan(2), ctx, source_keys
    )


class TestPipelineDirectly:
    def test_theorem1_stage_list_produces_labeling(self):
        config = Configuration.with_random_ids(cycle_graph(8), random.Random(10))
        ctx = PipelineContext(config=config, algebra="connected")
        timings = _run_theorem1_plan(ctx).timings
        assert ctx.labeling is not None
        assert [t.name for t in timings] == [
            "decompose",
            "lanes",
            "completion",
            "hierarchy",
            "evaluate",
            "label",
        ]
        assert all(t.seconds >= 0 for t in timings)

    def test_evaluate_stage_needs_algebra(self):
        ctx = PipelineContext(
            config=Configuration.with_random_ids(path_graph(3), random.Random(1))
        )
        with pytest.raises(ValueError, match="algebra"):
            EvaluateStage().run(ctx)

    def test_counters_count_refused_attempts(self):
        counters = {}
        config = Configuration.with_random_ids(cycle_graph(7), random.Random(2))
        ctx = PipelineContext(config=config, algebra="bipartite")
        with pytest.raises(ProverFailure):
            _run_theorem1_plan(ctx, counters=counters)
        assert counters["evaluate"] == 1  # the refusing stage still counts
        assert "label" not in counters  # downstream stages never ran

    def test_report_summary_readable(self):
        report = certify(cycle_graph(8), "connected", k=2)
        assert "accepted" in report.summary()
        refused = certify(cycle_graph(7), "bipartite", k=2)
        assert "refused" in refused.summary()
        assert isinstance(report, CertificationReport)


class TestBatchKeyAndArgumentHandling:
    def test_same_class_algebras_get_distinct_reports(self):
        from repro.courcelle import algebra_for

        session = CertificationSession(rng=random.Random(50))
        seq = random_lanewidth_sequence(2, 8, random.Random(12))
        reports = session.certify(
            seq, [algebra_for("max-degree-2"), algebra_for("max-degree-5")]
        )
        assert len(reports) == 2  # no silent collapse by class name
        assert set(reports) == {"max-degree-2", "max-degree-5"}
        # Exact duplicates still get distinct (suffixed) reports.
        dup = session.certify(seq, ["connected", "connected"])
        assert set(dup) == {"connected", "connected#2"}

    def test_facade_rejects_conflicting_session_settings(self):
        session = CertificationSession(k=1)
        with pytest.raises(ValueError, match="k=1"):
            certify(path_graph(5), "connected", k=2, session=session)

    def test_facade_adopts_decomposer_on_bare_session(self):
        calls = []

        def witness(graph):
            calls.append(graph)
            return DecomposeStage(1).default_decomposer(graph)

        session = CertificationSession()
        report = certify(
            path_graph(5), "connected", k=1, session=session, decomposer=witness
        )
        assert report.accepted
        assert calls, "explicit decomposer was silently dropped"

    def test_mode_collision_does_not_share_structures(self):
        # The same graph reached as a sequence target must not satisfy a
        # later Theorem 1 target (which must run DecomposeStage and check
        # the width bound), and vice versa.
        session = CertificationSession(k=1, rng=random.Random(52))
        seq = random_lanewidth_sequence(3, 10, random.Random(14))
        graph = apply_construction(seq)
        as_sequence = session.certify(seq, "connected")
        assert as_sequence.accepted
        as_graph = session.certify(graph, "connected")
        assert not as_graph.structure_cached
        # Width-3 host, k=1 bound: Theorem 1 mode must refuse.
        assert as_graph.refused
        assert "witness decomposition" in as_graph.refusal
        assert session.stage_counters["decompose"] == 1

    def test_adopted_decomposer_invalidates_cached_structure(self):
        # A structure cached under the default decomposer must not
        # satisfy a later call that supplies an explicit witness.
        calls = []

        def witness(graph):
            calls.append(graph)
            return DecomposeStage(2).default_decomposer(graph)

        session = CertificationSession(k=2, rng=random.Random(53))
        graph = caterpillar_graph(3, 2)
        first = certify(graph, "connected", session=session)
        assert first.accepted and not calls
        second = certify(
            graph, "acyclic", session=session, decomposer=witness
        )
        assert second.accepted
        assert calls, "explicit decomposer ignored on cached structure"
        assert not second.structure_cached

    def test_report_scheme_reuses_cached_match_stage(self):
        session = CertificationSession(rng=random.Random(51))
        seq = random_lanewidth_sequence(2, 8, random.Random(13))
        reports = session.certify(seq, ["connected", "even-order"])
        stages = [r.scheme.match_stage for r in reports.values()]
        assert all(isinstance(s, MatchSequenceStage) for s in stages)
        assert len(stages) == 2
        # Same memoized matcher everywhere: replaying report.scheme.prove
        # compares fingerprints instead of rebuilding the graph.
        assert stages[0] is stages[1]
        assert stages[0]._expected_fingerprint is not None


def test_label_stage_and_mean_bits_accounting():
    session = CertificationSession(rng=random.Random(44))
    seq = random_lanewidth_sequence(3, 12, random.Random(11))
    report = session.certify(seq, "connected")
    assert report.max_label_bits >= report.mean_label_bits > 0
    assert report.total_label_bits == pytest.approx(
        report.mean_label_bits * report.config.graph.m
    )
    assert report.class_count and report.class_count > 0
