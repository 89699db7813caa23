"""Tests for the vectorized verification hot path.

The contract under test is *verdict identity*: the batched numpy
kernels (:class:`repro.api.VectorizedExecutor`) must return exactly the
reference executor's (accepted, per-vertex verdicts, rejecting set) on
every configuration and labeling — honest or adversarially mutated —
because kernels only *accept* when every reference check provably
passes and everything else falls back to the reference ``LocalView``
path.  The differential harness runs the vectorized executor in
``audit`` mode, which re-checks every kernel-accept against the
reference verifier and raises on divergence.

Also covered: executor lookup by name (:func:`repro.api.make_executor`),
held-round invalidation on graph edits, the ``AuditPlan`` engine
override with the transplant-attack regression, the columnar bulk
decoder, and the service-level engine selection.
"""
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    ArtifactCache,
    AuditCase,
    AuditPlan,
    CertificationSession,
    SerialExecutor,
    TransplantAttack,
    VectorizedExecutor,
    VerificationEngine,
    VerificationReport,
    certify,
    executor_names,
    make_executor,
)
from repro.codec import decode_labeling_columnar, encode_labeling
from repro.core import certify_lanewidth_graph, random_lanewidth_sequence
from repro.core.certificates import (
    BLevelRecord,
    ELevelRecord,
    PLevelRecord,
    TLevelRecord,
)
from repro.experiments import (
    lanewidth_workload,
    pathwidth_workload,
    seed_stream,
)
from repro.graphs.generators import cycle_graph
from repro.pls import HAVE_NUMPY
from repro.pls.adversary import (
    corrupt_one_label,
    drop_one_label,
    swap_two_labels,
)
from repro.pls.bits import SizeContext
from repro.pls.model import Configuration
from repro.pls.scheme import Labeling, ProofLabelingScheme
from repro.service.service import CertificationService, ServiceConfig

needs_numpy = pytest.mark.skipif(
    not HAVE_NUMPY, reason="numpy unavailable: kernel path cannot run"
)


def _case(seed: int, extra: int = 8, prop: str = "connected"):
    rng = random.Random(seed)
    edge_probability = 0.0 if prop != "connected" else 0.15
    sequence = random_lanewidth_sequence(
        3, extra, rng, edge_probability=edge_probability
    )
    config, scheme, labeling, _res = certify_lanewidth_graph(
        sequence, prop, rng
    )
    return config, scheme, labeling


def _assert_equivalent(config, scheme, labeling, executor=None):
    """Reference == vectorized on verdicts, acceptance, rejecting set."""
    serial = VerificationEngine(SerialExecutor()).verify(
        config, scheme, labeling
    )
    executor = executor if executor is not None else VectorizedExecutor(
        audit=True
    )
    vectorized = VerificationEngine(executor).verify(config, scheme, labeling)
    assert vectorized.verdicts == serial.verdicts
    assert vectorized.accepted == serial.accepted
    assert sorted(vectorized.rejecting_vertices, key=repr) == sorted(
        serial.rejecting_vertices, key=repr
    )
    return serial, vectorized


class VertexScheme(ProofLabelingScheme):
    """A non-Theorem-1 scheme: must run entirely on the reference path."""

    label_location = "vertices"

    def prove(self, config):
        return Labeling(
            "vertices",
            {v: 1 for v in config.graph.vertices()},
            SizeContext(config.n),
        )

    def verify(self, view):
        return view.own_certificate == 1

    def label_size_bits(self, label, ctx):
        return 1


class TestExecutorRegistry:
    def test_names(self):
        assert executor_names() == ["serial", "vectorized"]

    def test_make_executor_kinds(self):
        assert isinstance(make_executor("serial"), SerialExecutor)
        assert isinstance(make_executor("vectorized"), VectorizedExecutor)
        # Case and surrounding whitespace are canonicalized.
        assert isinstance(make_executor(" Vectorized "), VectorizedExecutor)

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown executor"):
            make_executor("quantum")
        # The deleted process-pool kinds are outside input like any
        # other unknown name: refused, never mapped onto a survivor.
        for kind in ("parallel", "shared-memory", "shared_memory"):
            with pytest.raises(
                ValueError, match=r"known: \['serial', 'vectorized'\]"
            ):
                make_executor(kind)


@needs_numpy
class TestVectorizedDifferential:
    """The hypothesis harness: vectorized ≡ reference, audit on."""

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=8, deadline=None)
    def test_honest_and_mutated_agree(self, seed):
        config, scheme, labeling = _case(seed)
        rng = random.Random(seed)
        candidates = [
            labeling,
            corrupt_one_label(labeling, rng),
            swap_two_labels(labeling, rng),
            drop_one_label(labeling, rng),
        ]
        for candidate in candidates:
            _assert_equivalent(config, scheme, candidate)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=4, deadline=None)
    def test_property_zoo_agrees(self, seed):
        for prop in ("acyclic", "bipartite"):
            config, scheme, labeling = _case(seed, prop=prop)
            rng = random.Random(seed)
            for candidate in (labeling, corrupt_one_label(labeling, rng)):
                _assert_equivalent(config, scheme, candidate)

    def test_honest_round_is_fully_kernel_accepted(self):
        config, scheme, labeling = _case(21, extra=12)
        _, report = _assert_equivalent(config, scheme, labeling)
        stats = report.kernel_stats
        assert stats["mode"] == "kernel"
        assert stats["engine"] == "vectorized"
        assert stats["kernel_accepted"] == config.graph.n
        assert stats["fallback_vertices"] == 0
        assert stats["compiled_vertices"] == config.graph.n

    def test_mutation_exercises_reference_fallback(self):
        """A dropped label cannot be kernel-accepted: it must be flagged
        into the reference path, and the verdicts still match."""
        config, scheme, labeling = _case(22, extra=12)
        bad = drop_one_label(labeling, random.Random(22))
        _, report = _assert_equivalent(config, scheme, bad)
        assert report.kernel_stats["mode"] == "kernel"
        assert report.kernel_stats["fallback_vertices"] >= 1
        assert not report.accepted

    def test_non_theorem1_scheme_runs_on_reference(self):
        scheme = VertexScheme()
        config = Configuration.with_random_ids(
            cycle_graph(6), random.Random(23)
        )
        labeling = scheme.prove(config)
        serial, report = _assert_equivalent(config, scheme, labeling)
        assert report.kernel_stats["mode"] == "reference"
        assert "profile" in report.kernel_stats["reason"]
        assert report.accepted and serial.accepted

    def test_kernel_stats_survive_json_round_trip(self):
        config, scheme, labeling = _case(24)
        report = VerificationEngine(VectorizedExecutor()).verify(
            config, scheme, labeling
        )
        data = json.loads(json.dumps(report.to_dict()))
        back = VerificationReport.from_dict(data)
        assert back.kernel_stats == report.kernel_stats
        assert back.kernel_stats["mode"] == "kernel"

    def test_held_round_invalidated_by_graph_edits(self):
        """The executor keeps one compiled round across rounds over the
        same objects, and drops it when the graph is edited in place:
        structural edits replace the CSR snapshot, input-label edits
        bump the label version.  Verdicts track the serial reference."""
        config, scheme, labeling = _case(29)
        executor = VectorizedExecutor(audit=True)
        engine = VerificationEngine(executor)
        assert engine.verify(config, scheme, labeling).accepted
        held = executor._held_round
        assert engine.verify(config, scheme, labeling).accepted
        assert executor._held_round is held  # no per-round recompile
        graph = config.graph
        non_edge = next(
            (u, v)
            for u in graph.vertices()
            for v in graph.vertices()
            if u < v and not graph.has_edge(u, v)
        )
        graph.add_edge(*non_edge)  # in place: identity unchanged
        _serial, edited = _assert_equivalent(
            config, scheme, labeling, executor
        )
        assert executor._held_round is not held
        assert not edited.accepted  # the unlabeled new edge rejects
        held = executor._held_round
        graph.set_edge_label(*non_edge, "mutated")
        _assert_equivalent(config, scheme, labeling, executor)
        assert executor._held_round is not held


@needs_numpy
class TestAuditPlanEngine:
    @staticmethod
    def _transplant_plan(engine=None):
        def case_factory(trial, rng):
            sequence = random_lanewidth_sequence(
                3, 10, rng, edge_probability=0.0
            )
            config, scheme, labeling, _res = certify_lanewidth_graph(
                sequence, "acyclic", rng
            )
            return AuditCase(config, scheme, labeling, trial)

        def targets(trial, rng):
            return Configuration.with_random_ids(cycle_graph(12), rng)

        return AuditPlan(
            case_factory=case_factory,
            attacks=[TransplantAttack(targets)],
            trials=6,
            root_seed=19,
            name="transplant-engines",
            engine=engine,
        )

    def test_transplant_caught_identically_under_both_engines(self):
        """Right proof, wrong graph — the campaign must replay to the
        same per-attempt outcomes whether the round runs on the
        reference executor or the vectorized kernels."""
        baseline = self._transplant_plan().run()
        vectorized = self._transplant_plan("vectorized").run()
        assert [a.outcome for a in baseline.attempts] == [
            a.outcome for a in vectorized.attempts
        ]
        tally = vectorized.tally("transplant")
        assert tally.attempted > 0
        assert tally.all_rejected
        assert baseline.tallies == vectorized.tallies

    def test_run_engine_override_wins(self):
        plan = self._transplant_plan("serial")
        report = plan.run(engine="vectorized")
        assert report.tally("transplant").all_rejected

    def test_resolve_engine_kinds(self):
        plan = self._transplant_plan()
        assert isinstance(
            plan.resolve_engine().executor, SerialExecutor
        )
        assert isinstance(
            plan.resolve_engine("vectorized").executor, VectorizedExecutor
        )
        custom = VerificationEngine(VectorizedExecutor())
        assert plan.resolve_engine(custom) is custom


class TestColumnarDecode:
    def test_equals_reference_decode_with_sharing(self):
        _config, _scheme, labeling = _case(41, extra=12)
        encoded = encode_labeling(labeling)
        reference = encoded.decode()
        columnar = decode_labeling_columnar(encoded)
        assert columnar.location == reference.location
        assert columnar.mapping == reference.mapping
        assert columnar.size_context.n == reference.size_context.n

        def distinct_records(mapping):
            seen = set()
            for label in mapping.values():
                for record in label.certificate.stack:
                    seen.add(id(record))
                for embedded in label.embedded:
                    for record in embedded.payload.stack:
                        seen.add(id(record))
            return len(seen)

        assert distinct_records(columnar.mapping) <= distinct_records(
            reference.mapping
        )

    @staticmethod
    def _labelings():
        """The lanewidth case above plus a pathwidth-2 host, whose labels
        carry B records and embedded records."""
        graph, decomposition = pathwidth_workload(24, 2, seed=5)
        report = certify(
            graph,
            "connected",
            k=2,
            rng=random.Random(6),
            decomposer=lambda _g: decomposition,
        )
        assert report.accepted
        return {
            "lanewidth": _case(41, extra=12)[2],
            "pathwidth": report.labeling,
        }

    @staticmethod
    def _parts(mapping):
        """Every record, info and pointer object the labels reach, with
        multiplicity, and the number of embedded records."""
        records, infos, pointers = [], [], []
        embedded = 0
        for label in mapping.values():
            stacks = [label.certificate.stack]
            for record in label.embedded:
                embedded += 1
                stacks.append(record.payload.stack)
            for stack in stacks:
                for record in stack:
                    records.append(record)
                    infos.append(record.info)
                    if isinstance(record, TLevelRecord):
                        infos += [record.member_info, record.member_subtree]
                        infos += record.child_subtrees
                        pointers.append(record.pointer)
                    elif isinstance(record, BLevelRecord):
                        infos += [record.left, record.right]
        return records, infos, pointers, embedded

    def test_cases_cover_every_record_kind(self):
        kinds = set()
        embedded = 0
        for labeling in self._labelings().values():
            records, _infos, _pointers, count = self._parts(labeling.mapping)
            kinds |= {type(record) for record in records}
            embedded += count
        assert kinds == {
            TLevelRecord, BLevelRecord, ELevelRecord, PLevelRecord
        }
        assert embedded >= 1

    @pytest.mark.parametrize("case", ["lanewidth", "pathwidth"])
    def test_each_distinct_part_decoded_once(self, case):
        encoded = encode_labeling(self._labelings()[case])
        reference = encoded.decode()
        columnar = decode_labeling_columnar(encoded)
        assert columnar.location == reference.location
        assert columnar.mapping == reference.mapping
        for objects in self._parts(columnar.mapping)[:3]:
            # Equal content implies the same object: one per content.
            assert len({id(obj) for obj in objects}) == len(set(objects))

    @needs_numpy
    def test_store_reverify_round_trips_through_columnar(self):
        """The store decodes via the columnar path since PR 8; a full
        persist → rehydrate → vectorized round must still accept."""
        from repro.api import CertificateStore

        with tempfile.TemporaryDirectory() as root:
            store = CertificateStore(root)
            sequence, _graph = lanewidth_workload(3, 32, 3)
            session = CertificationSession(
                rng=seed_stream(8, "ids").rng(3), store=store
            )
            session.certify(sequence, "connected", verify=False)
            fingerprint, prop, _path = store.entries()[0]
            stored = store.reverify(
                fingerprint,
                prop,
                engine=VerificationEngine(VectorizedExecutor(audit=True)),
            )
            assert stored.accepted
            assert stored.verification.kernel_stats["mode"] == "kernel"


@needs_numpy
class TestServiceEngine:
    def test_config_validates_and_canonicalizes(self, tmp_path):
        with pytest.raises(ValueError, match="unknown engine"):
            ServiceConfig(store_root=tmp_path, engine="bogus")
        config = ServiceConfig(store_root=tmp_path, engine=" Vectorized ")
        assert config.engine == "vectorized"
        for kind in ("parallel", "shared-memory"):
            with pytest.raises(ValueError, match="serial, vectorized"):
                ServiceConfig(store_root=tmp_path, engine=kind)

    def test_vectorized_service_reverify(self, tmp_path):
        config = ServiceConfig(store_root=tmp_path, engine="vectorized")
        service = CertificationService(config)
        try:
            sequence, _graph = lanewidth_workload(3, 32, 5)
            session = CertificationSession(
                rng=seed_stream(8, "ids").rng(5), store=service.store
            )
            session.certify(sequence, "connected", verify=False)
            fingerprint, prop, _path = service.store.entries()[0]
            body = service._reverify_blocking(fingerprint, prop)
            stats = body["reports"][prop]["verification"]["kernel_stats"]
            assert stats["engine"] == "vectorized"
            assert stats["kernel_accepted"] == 32
            snap = service.snapshot()
            assert snap["engine"]["kind"] == "vectorized"
            assert snap["kernels"]["rounds"] == 1
            assert snap["kernels"]["kernel_accepted"] == 32
        finally:
            service.close_blocking()


@needs_numpy
class TestRoundArraysPersistence:
    """PR 9 satellite: packed RoundArrays survive process restarts."""

    def test_fresh_executor_reuses_persisted_pack(self, tmp_path):
        config, scheme, labeling = _case(3)
        first = VerificationEngine(
            VectorizedExecutor(artifacts=ArtifactCache(root=tmp_path))
        ).verify(config, scheme, labeling)
        assert first.kernel_stats["mode"] == "kernel"
        assert first.kernel_stats["arrays_cached"] is False
        # A fresh executor + fresh cache object over the same directory
        # models a restarted process: the pack comes back from disk.
        restarted = VectorizedExecutor(
            artifacts=ArtifactCache(root=tmp_path)
        )
        second = VerificationEngine(restarted).verify(
            config, scheme, labeling
        )
        assert second.kernel_stats["arrays_cached"] is True
        assert second.verdicts == first.verdicts
        assert second.accepted == first.accepted

    def test_corrupt_pack_is_rebuilt_not_fatal(self, tmp_path):
        from repro.api.vectorized import _arrays_cache_key

        config, scheme, labeling = _case(4)
        cache = ArtifactCache(root=tmp_path)
        cache.put(
            _arrays_cache_key(config),
            "round-arrays",
            {"pack": [1, 2, 3]},
            0.0,
        )
        report = VerificationEngine(
            VectorizedExecutor(artifacts=cache)
        ).verify(config, scheme, labeling)
        assert report.kernel_stats["mode"] == "kernel"
        assert report.kernel_stats["arrays_cached"] is False

    def test_session_lends_cache_to_vectorized_executor(self):
        sequence, _graph = lanewidth_workload(3, 16, 9)
        engine = VerificationEngine(VectorizedExecutor())
        session = CertificationSession(
            rng=seed_stream(8, "ids").rng(9), engine=engine
        )
        report = session.certify(sequence, "connected")
        assert report.accepted
        assert engine.executor.artifacts is session.artifacts

    def test_explicit_cache_not_replaced_by_session(self):
        sequence, _graph = lanewidth_workload(3, 16, 10)
        own = ArtifactCache()
        engine = VerificationEngine(VectorizedExecutor(artifacts=own))
        session = CertificationSession(
            rng=seed_stream(8, "ids").rng(10), engine=engine
        )
        session.certify(sequence, "connected")
        assert engine.executor.artifacts is own

@needs_numpy
class TestCompiledRoundPersistence:
    """PR 10 tentpole: compiled rounds survive process restarts.

    The executor exports the whole compiled round (tables, virtual
    ports, edge owners) into a versioned envelope stored through the
    artifact cache, keyed by the labeling's wire digest chain.  A
    restarted process attaches it with **zero** recompilation; any
    stale, foreign, or corrupt envelope is a silent cache miss — never
    an exception, never a wrong verdict.
    """

    @staticmethod
    def _stamped_case(seed: int, extra: int = 24):
        """A `_case` whose labeling carries its wire digest (the
        compiled-round cache key requires one)."""
        from repro.codec import stamp_wire_digest

        config, scheme, labeling = _case(seed, extra=extra)
        stamp_wire_digest(labeling, encode_labeling(labeling))
        return config, scheme, labeling

    def test_restarted_executor_attaches_compiled_round(self, tmp_path):
        config, scheme, labeling = self._stamped_case(3)
        first = VerificationEngine(
            VectorizedExecutor(
                artifacts=ArtifactCache(root=tmp_path), audit=True
            )
        ).verify(config, scheme, labeling)
        assert first.kernel_stats["mode"] == "kernel"
        assert first.kernel_stats["compiled_round_cached"] is False
        assert first.kernel_stats["compile_seconds"] > 0.0
        # Fresh executor + fresh cache object over the same directory
        # models a restarted process: the round attaches from disk.
        second = VerificationEngine(
            VectorizedExecutor(
                artifacts=ArtifactCache(root=tmp_path), audit=True
            )
        ).verify(config, scheme, labeling)
        assert second.kernel_stats["mode"] == "kernel"
        assert second.kernel_stats["compiled_round_cached"] is True
        assert second.kernel_stats["compile_seconds"] == 0.0
        assert second.verdicts == first.verdicts
        assert second.accepted == first.accepted

    def test_digestless_labeling_bypasses_envelope(self, tmp_path):
        """No wire digest -> no content key -> the envelope layer stays
        out of the way (arrays still persist; verdicts unchanged)."""
        config, scheme, labeling = _case(6)
        for _ in range(2):
            report = VerificationEngine(
                VectorizedExecutor(artifacts=ArtifactCache(root=tmp_path))
            ).verify(config, scheme, labeling)
            assert report.kernel_stats["mode"] == "kernel"
            assert report.kernel_stats["compiled_round_cached"] is False

    # -- envelope guards (PR 10 satellite): stale/corrupt == miss ------
    @staticmethod
    def _envelopes(root):
        """All (path, manifest) artifact files holding compiled rounds."""
        import pickle

        from repro.api.artifacts import ARTIFACT_MAGIC

        found = []
        for path in Path(root).glob("*.art"):
            payload = path.read_bytes()
            manifest = pickle.loads(payload[len(ARTIFACT_MAGIC):])
            if str(manifest.get("key", "")).startswith("compiled-round:"):
                found.append((path, manifest))
        return found

    def _tampered_run(self, tmp_path, mutate):
        """Cold run -> tamper every stored envelope -> restarted run.

        Returns the restarted report; asserts it recompiled cleanly
        with the cold run's exact verdicts.
        """
        import pickle

        from repro.api.artifacts import ARTIFACT_MAGIC

        config, scheme, labeling = self._stamped_case(9)
        cold = VerificationEngine(
            VectorizedExecutor(artifacts=ArtifactCache(root=tmp_path))
        ).verify(config, scheme, labeling)
        assert cold.kernel_stats["mode"] == "kernel"
        envelopes = self._envelopes(tmp_path)
        assert envelopes, "cold run stored no compiled-round envelope"
        for path, manifest in envelopes:
            mutate(manifest["outputs"]["state"])
            path.write_bytes(
                ARTIFACT_MAGIC + pickle.dumps(manifest, protocol=4)
            )
        report = VerificationEngine(
            VectorizedExecutor(artifacts=ArtifactCache(root=tmp_path))
        ).verify(config, scheme, labeling)
        assert report.kernel_stats["mode"] == "kernel"
        assert report.kernel_stats["compiled_round_cached"] is False
        assert report.verdicts == cold.verdicts
        assert report.accepted == cold.accepted
        return report

    def test_stale_version_envelope_recompiles(self, tmp_path):
        self._tampered_run(
            tmp_path,
            lambda state: state.update(compiled_round_version=999),
        )

    def test_stale_wire_version_envelope_recompiles(self, tmp_path):
        self._tampered_run(
            tmp_path, lambda state: state.update(wire_version=999)
        )

    def test_foreign_dtype_envelope_recompiles(self, tmp_path):
        self._tampered_run(
            tmp_path, lambda state: state.update(dtypes=(">i4", "|b1"))
        )

    def test_truncated_tables_envelope_recompiles(self, tmp_path):
        def chop(state):
            state["tables"]["r_type"] = state["tables"]["r_type"][:-1]

        self._tampered_run(tmp_path, chop)

    def test_inconsistent_indptr_envelope_recompiles(self, tmp_path):
        def skew(state):
            indptr = state["tables"]["ch_indptr"].copy()
            if indptr.shape[0] > 1:
                indptr[-1] += 1
            state["tables"]["ch_indptr"] = indptr

        self._tampered_run(tmp_path, skew)

    def test_gutted_state_envelope_recompiles(self, tmp_path):
        self._tampered_run(tmp_path, lambda state: state.clear())

    # -- fresh interpreter (PR 10 satellite) ---------------------------
    def test_persisted_round_survives_fresh_interpreter(self, tmp_path):
        """Two genuinely fresh processes over one cache directory: the
        first compiles + persists, the second attaches with
        ``compile_seconds == 0`` and identical verdicts — audit mode on
        in both, so every kernel accept is re-proved against the
        reference verifier."""
        script = (
            "import json, random, sys\n"
            "from repro.api import (ArtifactCache, VectorizedExecutor,\n"
            "                       VerificationEngine)\n"
            "from repro.codec import encode_labeling, stamp_wire_digest\n"
            "from repro.core import (certify_lanewidth_graph,\n"
            "                        random_lanewidth_sequence)\n"
            "rng = random.Random(7)\n"
            "sequence = random_lanewidth_sequence(\n"
            "    3, 16, rng, edge_probability=0.15)\n"
            "config, scheme, labeling, _res = certify_lanewidth_graph(\n"
            "    sequence, 'connected', rng)\n"
            "stamp_wire_digest(labeling, encode_labeling(labeling))\n"
            "report = VerificationEngine(VectorizedExecutor(\n"
            "    artifacts=ArtifactCache(root=sys.argv[1]))).verify(\n"
            "    config, scheme, labeling)\n"
            "stats = report.kernel_stats\n"
            "print(json.dumps({\n"
            "    'mode': stats.get('mode'),\n"
            "    'cached': stats.get('compiled_round_cached'),\n"
            "    'compile_seconds': stats.get('compile_seconds'),\n"
            "    'accepted': report.accepted,\n"
            "    'verdicts': sorted(\n"
            "        (str(v), bool(ok))\n"
            "        for v, ok in report.verdicts.items()),\n"
            "}))\n"
        )
        src_root = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src_root, env.get("PYTHONPATH", "")]
        )
        env["REPRO_VECTORIZED_AUDIT"] = "1"
        runs = []
        for _ in range(2):
            result = subprocess.run(
                [sys.executable, "-c", script, str(tmp_path)],
                capture_output=True,
                text=True,
                env=env,
                timeout=120,
            )
            assert result.returncode == 0, result.stderr
            runs.append(json.loads(result.stdout.strip()))
        first, second = runs
        assert first["mode"] == "kernel"
        assert first["cached"] is False
        assert second["mode"] == "kernel"
        assert second["cached"] is True
        assert second["compile_seconds"] == 0
        assert second["accepted"] is first["accepted"]
        assert second["verdicts"] == first["verdicts"]
