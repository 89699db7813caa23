"""Tests for plan-based proving (repro.api.plan / artifacts).

The acceptance contract of the plan refactor:

* **plan ≡ linear oracle** — a hypothesis suite asserts the plan-based
  session produces reports identical to running the plan's stages as a
  plain loop with no cache (verdict, measured encoded bits, class
  counts) on random lanewidth hosts and random pathwidth graphs;
* **warm cache runs zero structural nodes** — stage-counter assertions
  in-session, across sessions sharing a cache, and from a **fresh
  interpreter** over a disk-backed cache;
* corrupted artifact envelopes are treated as misses (recompute), never
  as failures.
"""

import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    ArtifactCache,
    CertificateStore,
    CertificationPlan,
    CertificationSession,
    LabelStage,
    PipelineContext,
    PlanError,
    PlanRunner,
    lanewidth_plan,
    theorem1_plan,
)
from repro.codec import encode_labeling
from repro.core import (
    LanewidthScheme,
    Theorem1Scheme,
    apply_construction,
    random_lanewidth_sequence,
)
from repro.experiments import lanewidth_workload
from repro.graphs.generators import random_pathwidth_graph
from repro.pls.model import Configuration

SRC = str(Path(__file__).resolve().parent.parent / "src")

STRUCTURAL_T1 = ("decompose", "lanes", "completion", "hierarchy")

ZOO = ["connected", "acyclic", "bipartite", "even-order", "max-degree-2"]


def _oracle_report_facts(config, plan, algebra_key):
    """Run the plan's stages as a plain loop; return comparable facts."""
    from repro.pls.scheme import ProverFailure

    ctx = PipelineContext(config=config, algebra=algebra_key)
    try:
        for node in plan.nodes:
            node.stage.run(ctx)
    except ProverFailure as failure:
        return {"refused": True, "refusal": str(failure)}
    encoded = encode_labeling(ctx.labeling)
    return {
        "refused": False,
        "class_count": ctx.class_count,
        "max_bits": encoded.max_bits,
        "mean_bits": encoded.mean_bits,
        "total_bits": encoded.total_bits,
        "mapping": ctx.labeling.mapping,
    }


def _assert_report_matches(report, facts, key):
    assert report.refused == facts["refused"], key
    if facts["refused"]:
        assert report.refusal == facts["refusal"], key
        return
    assert report.accepted, key
    assert report.class_count == facts["class_count"], key
    assert report.max_label_bits == facts["max_bits"], key
    assert report.mean_label_bits == facts["mean_bits"], key
    assert report.total_label_bits == facts["total_bits"], key
    assert report.labeling.mapping == facts["mapping"], key


class TestPlanEquivalentToLegacyPipeline:
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_lanewidth_mode_identical_reports(self, seed):
        rng = random.Random(seed)
        seq = random_lanewidth_sequence(2, rng.randrange(4, 14), rng)
        graph = apply_construction(seq)
        config = Configuration.with_random_ids(graph, random.Random(seed + 1))
        # Same configuration on both paths: the session draws ids from
        # an rng seeded identically to `config`'s — the ids must agree
        # for the labels (which embed them) to agree bit for bit.
        session_reports = CertificationSession(
            rng=random.Random(seed + 1)
        ).certify(seq, ZOO, verify=False)
        for key in ZOO:
            facts = _oracle_report_facts(
                config, lanewidth_plan(seq, algebra=key), key
            )
            _assert_report_matches(session_reports[key], facts, key)

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_theorem1_mode_identical_reports(self, seed):
        rng = random.Random(seed)
        graph, _bags = random_pathwidth_graph(rng.randrange(8, 16), 2, rng)
        config = Configuration.with_random_ids(graph, random.Random(seed + 1))
        reports = CertificationSession(
            k=2, rng=random.Random(seed + 1)
        ).certify(graph, ZOO, verify=False)
        for key in ZOO:
            facts = _oracle_report_facts(
                config, theorem1_plan(2, algebra=key), key
            )
            _assert_report_matches(reports[key], facts, key)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_warm_cache_reports_identical_to_cold(self, seed, tmp_path_factory):
        root = tmp_path_factory.mktemp("plancache")
        rng = random.Random(seed)
        seq = random_lanewidth_sequence(2, rng.randrange(4, 12), rng)
        cache = ArtifactCache(root / f"a{seed}")
        cold = CertificationSession(
            rng=random.Random(seed + 2), artifacts=cache
        ).certify(seq, ZOO, verify=False)
        warm_session = CertificationSession(
            rng=random.Random(seed + 2), artifacts=cache
        )
        warm = warm_session.certify(seq, ZOO, verify=False)
        # Zero structural stage runs on the warm pass; refused
        # properties re-evaluate (refusals are never cached).
        assert "match" not in warm_session.stage_counters
        assert "hierarchy" not in warm_session.stage_counters
        assert "label" not in warm_session.stage_counters
        for key in ZOO:
            a, b = cold[key], warm[key]
            assert a.refused == b.refused, key
            if not a.refused:
                assert b.structure_cached
                assert a.max_label_bits == b.max_label_bits, key
                assert a.total_label_bits == b.total_label_bits, key
                assert a.class_count == b.class_count, key
                assert a.labeling.mapping == b.labeling.mapping, key


class TestShimMatchesSession:
    """The ``repro.core`` schemes run the same plans as a session."""

    @pytest.mark.parametrize("key", ["connected", "even-order", "max-degree-5"])
    def test_theorem1_scheme_matches_session(self, key):
        graph, _bags = random_pathwidth_graph(12, 2, random.Random(71))
        config = Configuration.with_random_ids(graph, random.Random(72))
        report = CertificationSession(k=2).certify(config, key, verify=False)
        assert not report.refused, report.refusal
        mapping = Theorem1Scheme(key, 2).prove(config).mapping
        assert mapping == report.labeling.mapping
        assert report.scheme.prove(config).mapping == mapping

    @pytest.mark.parametrize("key", ["connected", "even-order", "max-degree-5"])
    def test_lanewidth_scheme_matches_session(self, key):
        seq = random_lanewidth_sequence(2, 10, random.Random(73))
        config = Configuration.with_random_ids(
            apply_construction(seq), random.Random(74)
        )
        report = CertificationSession(rng=random.Random(74)).certify(
            seq, key, verify=False
        )
        assert not report.refused, report.refusal
        assert report.config.ids == config.ids
        mapping = LanewidthScheme(key, seq).prove(config).mapping
        assert mapping == report.labeling.mapping
        assert report.scheme.prove(config).mapping == mapping


class TestWarmCacheStageCounters:
    def test_shared_cache_across_sessions_skips_structural_nodes(self):
        seq, _graph = lanewidth_workload(2, 18, 31)
        cache = ArtifactCache()  # memory-only, shared across sessions
        first = CertificationSession(
            rng=random.Random(1), artifacts=cache
        )
        first.certify(seq, "connected", verify=False)
        assert first.stage_counters["match"] == 1
        assert first.stage_counters["hierarchy"] == 1
        second = CertificationSession(
            rng=random.Random(2), artifacts=cache
        )
        report = second.certify(seq, "connected", verify=False)
        assert report.accepted
        assert report.structure_cached
        # Different session, different ids: evaluate comes from the
        # cache (keyed on hierarchy + algebra), label reruns (keyed on
        # the configuration's identifiers).
        assert "match" not in second.stage_counters
        assert "hierarchy" not in second.stage_counters
        assert "evaluate" not in second.stage_counters
        assert second.stage_counters["label"] == 1

    def test_theorem1_warm_cache_zero_structural_nodes(self, tmp_path):
        rng = random.Random(33)
        graph, _bags = random_pathwidth_graph(16, 2, rng)
        cache = ArtifactCache(tmp_path / "artifacts")
        cold = CertificationSession(
            k=2, rng=random.Random(34), artifacts=cache
        )
        cold.certify(graph, ["connected", "even-order"], verify=False)
        for name in STRUCTURAL_T1:
            assert cold.stage_counters[name] == 1
        warm = CertificationSession(
            k=2, rng=random.Random(35), artifacts=cache
        )
        report = warm.certify(graph, ["connected", "even-order"], verify=False)
        assert all(r.accepted for r in report.values())
        for name in STRUCTURAL_T1:
            assert name not in warm.stage_counters, warm.stage_counters
        cached_names = {
            t.name
            for t in report["connected"].stage_timings
            if t.cached
        }
        assert set(STRUCTURAL_T1) <= cached_names

    def test_fresh_interpreter_runs_zero_structural_nodes(self, tmp_path):
        """The tentpole acceptance, literally: a separate process with a
        warm disk cache batch-certifies a previously seen graph with
        zero structural stage runs (and, with the same identifier draw,
        zero stage runs at all)."""
        store = CertificateStore(tmp_path)
        seq, _graph = lanewidth_workload(2, 20, 41)
        session = CertificationSession(rng=random.Random(42), store=store)
        reports = session.certify(seq, ["connected", "even-order"], verify=False)
        assert all(r.accepted for r in reports.values())
        assert session.stage_counters["match"] == 1
        script = (
            "import random, sys\n"
            "from repro.api import CertificateStore, CertificationSession\n"
            "from repro.experiments import lanewidth_workload\n"
            "store = CertificateStore(sys.argv[1])\n"
            "seq, _graph = lanewidth_workload(2, 20, 41)\n"
            "session = CertificationSession(rng=random.Random(42), store=store)\n"
            "reports = session.certify(seq, ['connected', 'even-order'], verify=False)\n"
            "assert all(r.accepted for r in reports.values())\n"
            "assert all(r.structure_cached for r in reports.values())\n"
            "# Same graph, same identifier draw: every node resolves.\n"
            "assert session.stage_counters == {}, session.stage_counters\n"
            "print('WARM', reports['connected'].max_label_bits)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert f"WARM {reports['connected'].max_label_bits}" in proc.stdout

    def test_corrupted_artifact_is_a_miss_not_a_failure(self, tmp_path):
        cache = ArtifactCache(tmp_path / "artifacts")
        seq, _graph = lanewidth_workload(2, 14, 43)
        CertificationSession(
            rng=random.Random(44), artifacts=cache
        ).certify(seq, "connected", verify=False)
        art_dir = tmp_path / "artifacts"
        paths = sorted(art_dir.glob("*.art"))
        assert paths
        # Bit-flip one envelope and truncate another: both must simply
        # be recomputed by a fresh session over the same directory.
        paths[0].write_bytes(b"junk")
        if len(paths) > 1:
            payload = paths[1].read_bytes()
            paths[1].write_bytes(payload[: len(payload) // 2])
        session = CertificationSession(
            rng=random.Random(44), artifacts=ArtifactCache(art_dir)
        )
        report = session.certify(seq, "connected", verify=False)
        assert report.accepted
        assert session.stage_counters  # something had to rerun

    def test_facade_store_adoption_rederives_artifact_cache(self, tmp_path):
        """A store adopted onto a session after its lazily derived
        in-memory cache exists must still contribute its persistent
        artifact directory (regression: adoption used to keep the
        store-less cache silently)."""
        from repro.api import certify

        seq, _graph = lanewidth_workload(2, 14, 45)
        session = CertificationSession(rng=random.Random(46))
        certify(seq, "connected", session=session, verify=False)
        assert session.artifacts.root is None  # lazily derived, memory-only
        store = CertificateStore(tmp_path)
        certify(seq, "even-order", session=session, store=store, verify=False)
        assert session.artifacts.root is not None
        # The structural artifacts landed on disk for the next process.
        assert list((tmp_path / "artifacts").glob("*.art"))

    def test_canonical_state_repr_is_injective_across_container_types(self):
        from repro.courcelle.algebra import canonical_state_repr

        forms = [
            frozenset(), {}, (), [], set(),
            frozenset({1}), {1: 1}, (1,), [1],
        ]
        reprs = [canonical_state_repr(f) for f in forms]
        # set/frozenset intentionally coincide (same semantics); every
        # other container type must stay distinguishable.
        assert reprs[0] == reprs[4]
        distinct = [reprs[0], reprs[1], reprs[2], reprs[3]]
        assert len(set(distinct)) == len(distinct)
        assert len({reprs[5], reprs[6], reprs[7], reprs[8]}) == 4

    def test_swapped_key_artifact_rejected_on_load(self, tmp_path):
        cache = ArtifactCache(tmp_path / "artifacts")
        entry = cache.put("a" * 40, "decompose", {"x": 1}, 0.1)
        assert entry is not None
        # Rename the envelope: the recorded key no longer matches.
        src = cache.path_for("a" * 40)
        dst = cache.path_for("b" * 40)
        src.rename(dst)
        fresh = ArtifactCache(tmp_path / "artifacts")
        assert fresh.get("b" * 40) is None
        assert fresh.get("a" * 40) is None

    def test_hierarchy_evaluation_is_pickle_stable(self):
        # Structural artifacts must round-trip through the disk cache:
        # hierarchy evaluations are node_id-keyed, so an evaluation
        # pickled across a process boundary still resolves against an
        # equal hierarchy copy.
        from repro.core.hierarchy import evaluate_hierarchy
        from repro.courcelle.registry import algebra_for

        seq, _graph = lanewidth_workload(2, 12, 55)
        config = Configuration.with_random_ids(
            apply_construction(seq), random.Random(56)
        )
        plan = lanewidth_plan(seq)
        ctx = PipelineContext(config=config)
        PlanRunner(ArtifactCache()).run(
            plan,
            ctx,
            {"graph": config.graph.fingerprint(), "config": "c"},
            nodes=plan.structural_nodes(),
        )
        root2 = pickle.loads(pickle.dumps(ctx.root))
        ev = evaluate_hierarchy(ctx.root, algebra_for("connected"))
        ev2 = pickle.loads(pickle.dumps(ev))
        assert ev2.for_node(root2).state == ev.for_node(ctx.root).state
        assert ev2.for_node(root2).boundary == ev.for_node(ctx.root).boundary


class TestPlanValidation:
    def test_missing_producer_rejected(self):
        with pytest.raises(PlanError, match="consumes"):
            CertificationPlan([LabelStage()])

    def test_duplicate_node_name_rejected(self):
        with pytest.raises(PlanError, match="duplicate plan node name"):
            CertificationPlan(
                theorem1_plan(2).nodes + [theorem1_plan(2).nodes[1]]
            )

    def test_duplicate_producer_rejected(self):
        from repro.api.pipeline import DecomposeStage, LaneStage

        class SecondLanes(LaneStage):
            name = "lanes-again"

        with pytest.raises(PlanError, match="two producers"):
            CertificationPlan([DecomposeStage(2), LaneStage(), SecondLanes()])

    def test_node_names_and_phases(self):
        plan = theorem1_plan(2)
        assert plan.node_names() == [
            "decompose", "lanes", "completion", "hierarchy",
            "evaluate", "label",
        ]
        assert [n.name for n in plan.structural_nodes()] == [
            "decompose", "lanes", "completion", "hierarchy",
        ]
        assert [n.name for n in plan.property_nodes()] == ["evaluate", "label"]

    def test_unpersistable_decomposer_poisons_descendants(self):
        plan = theorem1_plan(2, decomposer=lambda g: None)
        keys = plan.resolve_keys({"graph": "fp", "config": "cfp",
                                  "algebra": "connected"})
        assert not keys["decompose"].persistable
        assert not keys["hierarchy"].persistable
        assert not keys["label"].persistable
        default = theorem1_plan(2).resolve_keys(
            {"graph": "fp", "config": "cfp", "algebra": "connected"}
        )
        assert all(k.persistable for k in default.values())
        # Distinct parameters, distinct keys; equal parameters, equal keys.
        assert default["decompose"].key != keys["decompose"].key
        again = theorem1_plan(2).resolve_keys(
            {"graph": "fp", "config": "cfp", "algebra": "connected"}
        )
        assert again["label"].key == default["label"].key
        other_graph = theorem1_plan(2).resolve_keys(
            {"graph": "fp2", "config": "cfp", "algebra": "connected"}
        )
        assert other_graph["decompose"].key != default["decompose"].key
