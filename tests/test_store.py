"""Tests for the persistent certificate store (repro.api.store).

The acceptance contract: ``certify → store.save → (fresh process)
store.load → verification round accepts``, with no prover stage re-run —
asserted through the session stage counters, which must stay empty on
the stored path.
"""

import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import (
    CertificateStore,
    CertificationSession,
    StoreError,
    VerificationEngine,
    certify,
)
from repro.api.store import STORE_MAGIC
from repro.codec import CodecError, decode_label
from repro.experiments import lanewidth_workload
from repro.pls.model import Configuration

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _certified(tmp_path, seed=51, n=20, store=None):
    sequence, graph = lanewidth_workload(3, n, seed)
    report = certify(
        sequence, "connected", rng=random.Random(seed + 1), store=store
    )
    assert report.accepted and not report.refused
    return report, graph


class TestSaveLoad:
    def test_save_load_round_trip(self, tmp_path):
        store = CertificateStore(tmp_path)
        report, graph = _certified(tmp_path)
        path = store.save(report)
        assert path.exists()
        fingerprint = graph.fingerprint()
        assert (fingerprint, "connected") in store
        assert len(store) == 1

        loaded = store.load(fingerprint, "connected")
        assert loaded.property_key == "connected"
        assert loaded.labeling.mapping == report.labeling.mapping
        assert loaded.max_label_bits == report.max_label_bits
        assert loaded.encoded.max_bits == report.encoded.max_bits
        # The rehydrated config is the same network.
        assert loaded.config.graph.fingerprint() == fingerprint
        assert loaded.config.ids == report.config.ids

    def test_certify_with_store_saves_automatically(self, tmp_path):
        store = CertificateStore(tmp_path)
        report, graph = _certified(tmp_path, seed=52, store=store)
        assert (graph.fingerprint(), "connected") in store
        # entries() lists what certify persisted.
        [(fingerprint, key, _path)] = store.entries()
        assert (fingerprint, key) == (graph.fingerprint(), "connected")

    def test_session_store_saves_batches(self, tmp_path):
        store = CertificateStore(tmp_path)
        sequence, graph = lanewidth_workload(3, 16, 53)
        session = CertificationSession(rng=random.Random(54), store=store)
        reports = session.certify(sequence, ["connected", "even-order"])
        saved = {key for _f, key, _p in store.entries()}
        accepted = {k for k, r in reports.items() if not r.refused}
        assert accepted <= saved | {"connected", "even-order"}
        for key in accepted:
            assert (graph.fingerprint(), key) in store

    def test_refused_report_is_not_storable(self, tmp_path):
        from repro.graphs.generators import cycle_graph

        store = CertificateStore(tmp_path)
        # An odd cycle is not bipartite: the honest prover must refuse,
        # and a refusal has no labeling to persist.
        report = certify(
            cycle_graph(7), "bipartite", k=2, rng=random.Random(56), store=store
        )
        assert report.refused
        with pytest.raises(StoreError):
            store.save(report)
        assert len(store) == 0

    def test_json_rebuilt_report_is_not_storable(self, tmp_path):
        from repro.api import CertificationReport

        store = CertificateStore(tmp_path)
        report, _graph = _certified(tmp_path, seed=57)
        rebuilt = CertificationReport.from_dict(report.to_dict())
        with pytest.raises(StoreError):
            store.save(rebuilt)


class TestReverifyWithoutProving:
    def test_session_verify_runs_no_prover_stage(self, tmp_path):
        store = CertificateStore(tmp_path)
        report, graph = _certified(tmp_path, seed=61, store=store)
        loaded = store.load(graph.fingerprint(), "connected")
        session = CertificationSession()
        verification = session.verify(loaded)
        assert verification.accepted
        assert loaded.accepted
        # The stored path never touches a prover stage.
        assert session.stage_counters == {}

    def test_stored_scheme_refuses_to_prove(self, tmp_path):
        from repro.pls.scheme import ProverFailure

        store = CertificateStore(tmp_path)
        _report, graph = _certified(tmp_path, seed=64, store=store)
        loaded = store.load(graph.fingerprint(), "connected")
        # Verifier-only: a stored entry carries no prover.
        with pytest.raises(ProverFailure):
            loaded.scheme.prove(loaded.config)

    def test_store_reverify_helper(self, tmp_path):
        store = CertificateStore(tmp_path)
        report, graph = _certified(tmp_path, seed=62, store=store)
        out = store.reverify(
            graph.fingerprint(), "connected", engine=VerificationEngine()
        )
        assert out.accepted
        assert out.verification.accepted
        assert out.verification.views_built == out.n

    def test_store_reverify_with_vectorized_engine(self, tmp_path):
        """The stored path is not pinned to the serial engine: the
        vectorized kernels verify a rehydrated report with identical
        verdicts."""
        from repro.api import VectorizedExecutor

        store = CertificateStore(tmp_path)
        report, graph = _certified(tmp_path, seed=68, store=store)
        serial = store.reverify(graph.fingerprint(), "connected")
        vectorized = store.reverify(
            graph.fingerprint(),
            "connected",
            engine=VerificationEngine(VectorizedExecutor(audit=True)),
        )
        assert vectorized.accepted
        assert vectorized.verification.executor == "vectorized"
        assert vectorized.verification.kernel_stats["mode"] == "kernel"
        assert (
            vectorized.verification.verdicts == serial.verification.verdicts
        )

    def test_fresh_process_load_and_verify(self, tmp_path):
        """The acceptance criterion, literally: a separate interpreter
        loads the entry and the verification round accepts, with the
        stage counters proving no prover stage ran."""
        store = CertificateStore(tmp_path)
        _report, graph = _certified(tmp_path, seed=63, store=store)
        script = (
            "import sys\n"
            "from repro.api import CertificateStore, CertificationSession\n"
            "store = CertificateStore(sys.argv[1])\n"
            "report = store.load(sys.argv[2], 'connected')\n"
            "session = CertificationSession()\n"
            "verification = session.verify(report)\n"
            "assert verification.accepted, verification.summary()\n"
            "assert session.stage_counters == {}, session.stage_counters\n"
            "print('REVERIFIED', report.max_label_bits)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path), graph.fingerprint()],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "REVERIFIED" in proc.stdout


class TestIntegrity:
    def test_missing_entry(self, tmp_path):
        store = CertificateStore(tmp_path)
        with pytest.raises(StoreError):
            store.load("0" * 32, "connected")

    def test_non_store_file_rejected(self, tmp_path):
        store = CertificateStore(tmp_path)
        bogus = tmp_path / "bogus.cert"
        bogus.write_bytes(b"definitely not a certificate")
        with pytest.raises(StoreError):
            store.load_path(bogus)

    def test_truncated_envelope_rejected(self, tmp_path):
        # A bit-flipped or truncated pickle after the magic must surface
        # as StoreError, never a raw pickle exception.
        store = CertificateStore(tmp_path)
        report, graph = _certified(tmp_path, seed=66, store=store)
        path = store.path_for(graph.fingerprint(), "connected")
        payload = path.read_bytes()
        path.write_bytes(payload[: len(payload) // 2])
        with pytest.raises(StoreError):
            store.load(graph.fingerprint(), "connected")
        path.write_bytes(STORE_MAGIC + b"\x80garbage")
        with pytest.raises(StoreError):
            store.load(graph.fingerprint(), "connected")

    def test_missing_manifest_fields_rejected(self, tmp_path):
        store = CertificateStore(tmp_path)
        report, graph = _certified(tmp_path, seed=67, store=store)
        path = store.path_for(graph.fingerprint(), "connected")
        manifest = pickle.loads(path.read_bytes()[len(STORE_MAGIC):])
        del manifest["labels"]
        path.write_bytes(STORE_MAGIC + pickle.dumps(manifest, protocol=4))
        with pytest.raises(StoreError, match="missing fields"):
            store.load(graph.fingerprint(), "connected")

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        store = CertificateStore(tmp_path)
        report, graph = _certified(tmp_path, seed=64, store=store)
        with pytest.raises(StoreError):
            store.load(
                "f" * len(graph.fingerprint()),
                "connected",
                path=store.path_for(graph.fingerprint(), "connected"),
            )

    def test_corrupted_label_payload_rejected(self, tmp_path):
        store = CertificateStore(tmp_path)
        report, graph = _certified(tmp_path, seed=65, store=store)
        path = store.path_for(graph.fingerprint(), "connected")
        manifest = pickle.loads(path.read_bytes()[len(STORE_MAGIC):])
        # Truncate one certificate payload: the decoder must flag it.
        key = next(iter(manifest["labels"]))
        data, bits = manifest["labels"][key]
        manifest["labels"][key] = (data[: max(1, len(data) // 4)], bits)
        path.write_bytes(STORE_MAGIC + pickle.dumps(manifest, protocol=4))
        with pytest.raises(StoreError):
            store.load(graph.fingerprint(), "connected")

    def test_truncated_label_bytes_fail_decode_only(self, tmp_path):
        # One label's bytes cut short inside an otherwise valid manifest:
        # the decoding load names the payload, while a non-decoding load
        # still serves the report and its wire form.
        store = CertificateStore(tmp_path)
        report, graph = _certified(tmp_path, seed=68, store=store)
        path = store.path_for(graph.fingerprint(), "connected")
        manifest = pickle.loads(path.read_bytes()[len(STORE_MAGIC):])
        key = max(
            manifest["labels"], key=lambda k: manifest["labels"][k][1]
        )
        data, bits = manifest["labels"][key]
        manifest["labels"][key] = (data[:-1], bits)
        path.write_bytes(STORE_MAGIC + pickle.dumps(manifest, protocol=4))
        with pytest.raises(StoreError, match="corrupted certificate payload"):
            store.load(graph.fingerprint(), "connected")
        served = store.load(graph.fingerprint(), "connected", decode=False)
        assert served.labeling is None
        assert served.accepted == report.accepted
        assert served.encoded.labels[key].data == data[:-1]
        assert served.encoded.header == report.encoded.header


def _count_decodes(monkeypatch):
    """Count calls of the store's bulk decoder (the name load binds)."""
    import repro.api.store as store_module

    calls = []
    original = store_module.decode_labeling_columnar

    def counting(encoded):
        calls.append(encoded)
        return original(encoded)

    monkeypatch.setattr(store_module, "decode_labeling_columnar", counting)
    return calls


def _vectorized(store):
    from repro.api import VectorizedExecutor

    return VerificationEngine(
        VectorizedExecutor(artifacts=store.artifact_cache())
    )


def _bridge_cut(graph):
    for u, v in sorted(graph.edges(), key=repr):
        cut = graph.copy()
        cut.remove_edge(u, v)
        if not cut.is_connected():
            return cut
    raise AssertionError("host has no bridge")


def _flip_undecodable_bit(manifest):
    """Flip one bit inside a label body so that the framing still holds
    but the fields no longer decode; return the label's key."""
    header = manifest["header"]
    for key in sorted(manifest["labels"], key=repr):
        data, bits = manifest["labels"][key]
        for i in range(bits):
            flipped = bytearray(data)
            flipped[i // 8] ^= 0x80 >> (i % 8)
            try:
                decode_label(bytes(flipped), header, bits)
            except CodecError:
                manifest["labels"][key] = (bytes(flipped), bits)
                return key
    raise AssertionError("no single bit flip breaks decoding")


def _corrupt_one_label(path):
    manifest = pickle.loads(path.read_bytes()[len(STORE_MAGIC):])
    _flip_undecodable_bit(manifest)
    path.write_bytes(STORE_MAGIC + pickle.dumps(manifest, protocol=4))


class TestDecodeOnRead:
    """A loaded labeling decodes on first read of its mapping, so a
    round that attaches a persisted compiled round decodes nothing."""

    def test_load_does_not_decode(self, tmp_path, monkeypatch):
        store = CertificateStore(tmp_path)
        report, graph = _certified(tmp_path, seed=71, store=store)
        calls = _count_decodes(monkeypatch)
        loaded = store.load(graph.fingerprint(), "connected")
        assert calls == []
        assert len(loaded.labeling.mapping) == len(report.labeling.mapping)
        assert set(loaded.labeling.mapping) == set(report.labeling.mapping)
        assert calls == []  # keys and len come from the wire form
        assert loaded.labeling.mapping == report.labeling.mapping
        assert dict(loaded.labeling.mapping) == report.labeling.mapping
        assert len(calls) == 1  # decoded once, then served from memory

    def test_attached_round_decodes_nothing(self, tmp_path, monkeypatch):
        store = CertificateStore(tmp_path)
        _report, graph = _certified(tmp_path, seed=72, n=24, store=store)
        fingerprint = graph.fingerprint()
        # The first vectorized round compiles and persists its tables.
        first = store.reverify(fingerprint, "connected", _vectorized(store))
        assert first.accepted
        assert not first.verification.kernel_stats["compiled_round_cached"]
        calls = _count_decodes(monkeypatch)
        # A fresh engine over the same store models a restarted server.
        engine = _vectorized(store)
        out = store.reverify(fingerprint, "connected", engine)
        assert out.accepted
        stats = out.verification.kernel_stats
        assert stats["mode"] == "kernel"
        assert stats["compiled_round_cached"] is True
        # Audit mode re-checks every kernel accept on the reference
        # path, which reads (and so decodes) the certificates.
        assert len(calls) == (1 if engine.executor.audit else 0)

    def test_bridge_cut_decodes_once(self, tmp_path, monkeypatch):
        store = CertificateStore(tmp_path)
        _report, graph = _certified(tmp_path, seed=72, n=24, store=store)
        fingerprint = graph.fingerprint()
        store.reverify(fingerprint, "connected", _vectorized(store))
        loaded = store.load(fingerprint, "connected")
        cut = Configuration(_bridge_cut(graph), loaded.config.ids)
        calls = _count_decodes(monkeypatch)
        vectorized = _vectorized(store).verify(
            cut, loaded.scheme, loaded.labeling
        )
        assert len(calls) == 1
        assert not vectorized.accepted
        serial = VerificationEngine().verify(
            cut, loaded.scheme, loaded.encoded.decode()
        )
        assert not serial.accepted
        assert vectorized.verdicts == serial.verdicts

    def test_undecodable_label_raises_in_the_round(self, tmp_path):
        store = CertificateStore(tmp_path)
        _report, graph = _certified(tmp_path, seed=73, n=24, store=store)
        fingerprint = graph.fingerprint()
        # Persist a compiled round for the honest bytes first: the
        # flipped bytes have another digest, so it can never attach.
        store.reverify(fingerprint, "connected", _vectorized(store))
        _corrupt_one_label(store.path_for(fingerprint, "connected"))
        loaded = store.load(fingerprint, "connected")  # framing holds
        assert loaded.labeling is not None
        for engine in (VerificationEngine(), _vectorized(store)):
            with pytest.raises(
                StoreError, match="corrupted certificate payload"
            ):
                store.reverify(fingerprint, "connected", engine)

    def test_service_reproves_undecodable_entry(self, tmp_path):
        import asyncio

        from repro.service import CertificationService, ServiceConfig
        from repro.service.protocol import graph_to_wire

        _sequence, graph = lanewidth_workload(2, 14, 41)
        service = CertificationService(
            ServiceConfig(store_root=tmp_path, worker_threads=1)
        )
        path = service.store.path_for(graph.fingerprint(), "connected")

        def request(request_id):
            return {
                "id": request_id,
                "op": "certify",
                "graph": graph_to_wire(graph),
                "properties": ["connected"],
                "verify": True,
            }

        async def scenario():
            cold = await service.handle(request(1))
            _corrupt_one_label(path)
            healed = await service.handle(request(2))
            warm = await service.handle(request(3))
            return cold, healed, warm

        try:
            cold, healed, warm = asyncio.run(scenario())
        finally:
            service.close_blocking()
        for response in (cold, healed, warm):
            assert response["ok"], response
            report = response["result"]["reports"]["connected"]
            assert report["accepted"] is True
        assert cold["result"]["served"] == {"connected": "prover"}
        # The entry loads (framing holds) but its round raises
        # StoreError, so the service re-proves and overwrites it.
        assert healed["result"]["served"] == {"connected": "prover"}
        assert warm["result"]["served"] == {"connected": "store"}
