"""The asyncio certification front-end.

:class:`CertificationService` is the long-running heart of
``python -m repro.service``: it accepts decoded protocol requests
(:mod:`repro.service.protocol`), coalesces identical concurrent work
(:mod:`repro.service.coalesce`), and bridges the blocking certification
machinery onto the event loop through a thread pool — each worker
thread owns its own :class:`~repro.api.session.CertificationSession`
and verification engine, while all threads share one sharded
:class:`~repro.api.store.CertificateStore` — the store's writes are
atomic and its artifact cache is fingerprint-addressed, so concurrent
writers are safe by construction.

Request lifecycle (the shape ``docs/ARCHITECTURE.md`` § "The service
layer" diagrams):

1. the event loop parses the graph payload and computes its
   fingerprint — the content identity everything downstream keys on;
2. the coalescer either joins an identical in-flight job or starts a
   new one;
3. the job runs on a worker thread: certificate-store hit → load (+
   optional re-verification round), miss → full plan-based
   certification through the thread's session (which persists both the
   certificate and the prover artifacts for the next request);
4. the JSON report dictionaries stream back; metrics record latency,
   coalescing, and hit/miss on the way out.

The service object is transport-agnostic — the TCP/unix-socket daemon
(:mod:`repro.service.daemon`) and in-process tests both drive
:meth:`handle` directly.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Optional

from repro.api import (
    AuditCase,
    AuditPlan,
    CertificateStore,
    CertificationSession,
    DropAttack,
    MutationAttack,
    StoreError,
    SwapAttack,
    VerificationEngine,
)
from repro.graphs.edits import EditBatch, EditError
from repro.incremental import IncrementalCertifier
from repro.pls.model import Configuration

from repro.service.coalesce import Coalescer
from repro.service.metrics import ServiceMetrics
from repro.service.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    error_response,
    graph_from_wire,
    ok_response,
    validate_request,
)

#: Attack classes the ``audit`` op can mount by name.  The heavier,
#: callback-parameterized attacks (transplant, graph edits with
#: ``still_true`` oracles) need code, not JSON — audit those through
#: :class:`~repro.api.audit.AuditPlan` directly.
AUDIT_ATTACKS = {
    "mutation": MutationAttack,
    "swap": SwapAttack,
    "drop": DropAttack,
}


class ServiceError(ValueError):
    """A request the service understood but must refuse."""


@dataclass
class ServiceConfig:
    """Everything a daemon instance is parameterized by.

    Proving and verification run in one process; requests overlap
    through ``worker_threads``.
    """

    store_root: Path
    k: int = 2
    exact_limit: Optional[int] = None
    worker_threads: int = 2
    #: Verification executor kind: any :func:`repro.api.runtime
    #: .executor_names` entry ("serial" or "vectorized").
    engine: str = "serial"
    byte_budget: Optional[int] = None
    #: Seconds the daemon waits for in-flight requests on shutdown.
    drain_timeout: float = 30.0

    def __post_init__(self):
        if self.worker_threads < 1:
            raise ValueError("worker_threads must be positive")
        from repro.api.runtime import executor_names

        self.engine = self.engine.strip().lower()
        if self.engine not in executor_names():
            raise ValueError(
                f"unknown engine {self.engine!r}; "
                f"choose from {', '.join(executor_names())}"
            )


class CertificationService:
    """Certify / reverify / audit over one store, concurrently."""

    def __init__(
        self,
        config: ServiceConfig,
        store: Optional[CertificateStore] = None,
        metrics: Optional[ServiceMetrics] = None,
    ):
        self.config = config
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self.store = store if store is not None else CertificateStore(
            config.store_root, byte_budget=config.byte_budget
        )
        self.coalescer = Coalescer()
        self._pool = ThreadPoolExecutor(
            max_workers=config.worker_threads,
            thread_name_prefix="repro-service",
        )
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._sessions: list = []  # every thread-local session (for stats)
        #: (fingerprint, properties, k) -> (stream lock, certifier).
        #: Each edit stream owns its certifier (and that certifier its
        #: session — never shared with a thread-local certify session);
        #: the stream lock serializes updates, and the entry is re-keyed
        #: to the evolved fingerprint after every applied batch.
        self._incremental: dict = {}
        self._closed = False

    # ------------------------------------------------------------------
    # Thread-local blocking machinery (created inside worker threads).
    # ------------------------------------------------------------------
    def _engine(self) -> VerificationEngine:
        engine = getattr(self._tls, "engine", None)
        if engine is None:
            from repro.api.runtime import make_executor

            engine = VerificationEngine(make_executor(self.config.engine))
            self._tls.engine = engine
        return engine

    def _session_for(self, k: int) -> CertificationSession:
        sessions = getattr(self._tls, "sessions", None)
        if sessions is None:
            sessions = self._tls.sessions = {}
        session = sessions.get(k)
        if session is None:
            session = CertificationSession(
                k=k,
                exact_limit=self.config.exact_limit,
                engine=self._engine(),
                store=self.store,
            )
            sessions[k] = session
            with self._lock:
                self._sessions.append(session)
        return session

    # ------------------------------------------------------------------
    # The async request surface.
    # ------------------------------------------------------------------
    async def handle(self, request: dict) -> dict:
        """Serve one decoded request; always returns a response dict."""
        began = perf_counter()
        request_id = request.get("id")
        op = request.get("op")
        coalesced = False
        try:
            validate_request(request)
            if self._closed:
                raise ServiceError("service is shutting down")
            self.metrics.request_started(op)
        except ProtocolError as exc:
            return error_response(request_id, str(exc))
        except ServiceError as exc:
            return error_response(request_id, str(exc))
        try:
            if op == "ping":
                result = {"pong": True, "protocol_version": PROTOCOL_VERSION}
            elif op == "metrics":
                result = self.snapshot()
            elif op == "shutdown":
                # The daemon owns the lifecycle; it watches for this op
                # and starts draining after the response is written.
                result = {"stopping": True}
            elif op == "certify":
                result, coalesced = await self._certify(request)
            elif op == "reverify":
                result, coalesced = await self._reverify(request)
            elif op == "update":
                result, coalesced = await self._update(request)
            else:  # op == "audit"
                result, coalesced = await self._audit(request)
        except (ProtocolError, ServiceError, StoreError, ValueError) as exc:
            latency = perf_counter() - began
            self.metrics.request_failed(op, latency)
            return error_response(
                request_id, str(exc), latency_s=round(latency, 6)
            )
        latency = perf_counter() - began
        self.metrics.request_completed(op, latency)
        if coalesced:
            self.metrics.coalesced()
        return ok_response(
            request_id,
            result,
            coalesced=coalesced,
            latency_s=round(latency, 6),
        )

    # ------------------------------------------------------------------
    def _properties_of(self, request: dict) -> list:
        properties = request.get("properties")
        if isinstance(properties, str):
            properties = [properties]
        if not isinstance(properties, list) or not properties:
            raise ProtocolError(
                "certify needs 'properties': a registry key or list of keys"
            )
        if not all(isinstance(p, str) for p in properties):
            raise ProtocolError("property keys must be strings on the wire")
        if len(set(properties)) != len(properties):
            raise ProtocolError("duplicate property keys in one request")
        return properties

    async def _dispatch(self, key, job):
        """Coalesce ``job`` (a blocking callable) under ``key``."""
        loop = asyncio.get_running_loop()
        return await self.coalescer.run(
            key, lambda: loop.run_in_executor(self._pool, job)
        )

    async def _certify(self, request: dict):
        if "graph" not in request:
            raise ProtocolError("certify needs a 'graph' payload")
        graph = graph_from_wire(request["graph"])
        properties = self._properties_of(request)
        k = int(request.get("k", self.config.k))
        fresh = bool(request.get("fresh", False))
        verify = bool(request.get("verify", True))
        fingerprint = graph.fingerprint()
        key = (
            "certify",
            fingerprint,
            tuple(properties),
            k,
            fresh,
            verify,
        )
        return await self._dispatch(
            key,
            lambda: self._certify_blocking(
                graph, properties, k, fresh, verify, fingerprint
            ),
        )

    def _certify_blocking(
        self, graph, properties, k, fresh, verify, fingerprint
    ) -> dict:
        reports = {}
        served = {}
        missing = []
        for prop in properties:
            if not fresh and (fingerprint, prop) in self.store:
                try:
                    if verify:
                        report = self.store.reverify(
                            fingerprint, prop, engine=self._engine()
                        )
                        self.metrics.kernel_round(
                            getattr(
                                report.verification, "kernel_stats", None
                            )
                        )
                    else:
                        # Serving without the round: build no labeling
                        # (no framing check, no wire digest) — the
                        # report JSON rides in the envelope.
                        report = self.store.load(
                            fingerprint, prop, decode=False
                        )
                    reports[prop] = report
                    served[prop] = "store"
                    self.metrics.store_served(True)
                    continue
                except StoreError:
                    # Corrupt or raced-away entry: re-prove it.  Label
                    # bytes that frame but do not decode raise here
                    # too, from inside the reverify round.
                    pass
            missing.append(prop)
        if missing:
            self.metrics.prover_run()
            session = self._session_for(k)
            fresh_structure = True
            for prop, report in session.certify(
                graph, list(missing), verify=verify
            ).items():
                reports[prop] = report
                served[prop] = "prover"
                self.metrics.store_served(False)
                self.metrics.encode_run(
                    getattr(report, "encode_seconds", 0.0)
                )
                self.metrics.kernel_round(
                    getattr(report.verification, "kernel_stats", None)
                )
                if fresh_structure:
                    # One decomposition serves the whole property batch;
                    # count it once per prover run.
                    self.metrics.decomposition_run(
                        getattr(report, "decomposition_stats", None)
                    )
                    fresh_structure = False
        return {
            "fingerprint": fingerprint,
            "served": served,
            "reports": {
                prop: reports[prop].to_dict() for prop in properties
            },
        }

    async def _reverify(self, request: dict):
        fingerprint = request.get("fingerprint")
        prop = request.get("property")
        if not isinstance(fingerprint, str) or not isinstance(prop, str):
            raise ProtocolError(
                "reverify needs string 'fingerprint' and 'property'"
            )
        key = ("reverify", fingerprint, prop)
        return await self._dispatch(
            key, lambda: self._reverify_blocking(fingerprint, prop)
        )

    def _reverify_blocking(self, fingerprint: str, prop: str) -> dict:
        report = self.store.reverify(fingerprint, prop, engine=self._engine())
        self.metrics.kernel_round(
            getattr(report.verification, "kernel_stats", None)
        )
        self.metrics.store_served(True)
        return {
            "fingerprint": fingerprint,
            "served": {prop: "store"},
            "reports": {prop: report.to_dict()},
        }

    async def _update(self, request: dict):
        properties = self._properties_of(request)
        k = int(request.get("k", self.config.k))
        force_full = bool(request.get("force_full", False))
        full_round_every = int(request.get("full_round_every", 0))
        edits_wire = request.get("edits", [])
        if not isinstance(edits_wire, list):
            raise ProtocolError("'edits' must be a list of wire edits")
        try:
            batch = EditBatch.from_wire(edits_wire) if edits_wire else None
        except EditError as exc:
            raise ProtocolError(f"malformed edits: {exc}") from exc
        graph = None
        if "graph" in request:
            graph = graph_from_wire(request["graph"])
            fingerprint = graph.fingerprint()
        else:
            fingerprint = request.get("fingerprint")
            if not isinstance(fingerprint, str):
                raise ProtocolError(
                    "update needs a 'graph' payload (bootstrap) or the "
                    "previous response's 'fingerprint'"
                )
            if batch is None:
                raise ProtocolError(
                    "update addressed by fingerprint needs non-empty 'edits'"
                )
        # The canonical wire form (not the raw payload) keys coalescing,
        # so equivalent spellings of one batch join the same job.
        edits_key = repr(batch.to_wire()) if batch is not None else ""
        key = (
            "update",
            fingerprint,
            tuple(properties),
            k,
            edits_key,
            force_full,
        )
        return await self._dispatch(
            key,
            lambda: self._update_blocking(
                graph, fingerprint, batch, properties, k,
                force_full, full_round_every,
            ),
        )

    def _update_blocking(
        self, graph, fingerprint, batch, properties, k,
        force_full, full_round_every,
    ) -> dict:
        registry_key = (fingerprint, tuple(properties), k)
        with self._lock:
            entry = self._incremental.get(registry_key)
            if entry is None:
                if graph is None:
                    raise ServiceError(
                        f"no incremental state for fingerprint "
                        f"{fingerprint!r} with these properties and k={k} "
                        "(bootstrap with a 'graph' payload first)"
                    )
                certifier = IncrementalCertifier(
                    graph,
                    list(properties),
                    k=k,
                    session=CertificationSession(
                        k=k,
                        exact_limit=self.config.exact_limit,
                        store=self.store,
                    ),
                    full_round_every=full_round_every,
                )
                entry = (threading.Lock(), certifier)
                self._incremental[registry_key] = entry
        stream_lock, certifier = entry
        with stream_lock:
            if certifier.graph.fingerprint() != fingerprint:
                # A concurrent non-identical update evolved this stream
                # first; the caller's address is one state behind.
                raise ServiceError(
                    f"stale fingerprint {fingerprint!r}: the stream has "
                    "already evolved past it (re-address with the latest "
                    "response's fingerprint)"
                )
            baseline = None
            if not certifier.baselined:
                self.metrics.prover_run()
                baseline = certifier.baseline()
            update = None
            if batch is not None:
                update = certifier.update(batch, force_full=force_full)
                self.metrics.incremental_update(
                    bags_dirtied=(
                        0 if update.repair.fallback
                        else update.repair.dirty_count
                    ),
                    artifacts_reused=update.artifacts_reused,
                    fallback=update.repair.fallback,
                )
                new_key = (
                    update.fingerprint, tuple(properties), k,
                )
                with self._lock:
                    if self._incremental.get(registry_key) is entry:
                        del self._incremental[registry_key]
                    self._incremental[new_key] = entry
        return {
            "fingerprint": certifier.graph.fingerprint(),
            "base_fingerprint": fingerprint,
            "properties": list(properties),
            "k": k,
            "baseline": baseline.to_dict() if baseline is not None else None,
            "update": update.to_dict() if update is not None else None,
            "metrics": certifier.metrics.to_dict(),
        }

    async def _audit(self, request: dict):
        if "graph" not in request:
            raise ProtocolError("audit needs a 'graph' payload")
        graph = graph_from_wire(request["graph"])
        prop = request.get("property")
        if not isinstance(prop, str):
            raise ProtocolError("audit needs a string 'property'")
        k = int(request.get("k", self.config.k))
        trials = int(request.get("trials", 3))
        seed = int(request.get("seed", 0))
        # Specs normalize to hashable (name, per_case) pairs: the dict
        # spelling must coalesce with its string shorthand.
        specs = tuple(
            self._normalize_spec(spec)
            for spec in request.get("attacks", ("mutation",))
        )
        attacks = [self._attack_from_spec(spec) for spec in specs]
        fingerprint = graph.fingerprint()
        key = ("audit", fingerprint, prop, k, trials, seed, specs)
        return await self._dispatch(
            key,
            lambda: self._audit_blocking(
                graph, prop, k, trials, seed, attacks, fingerprint
            ),
        )

    def _normalize_spec(self, spec):
        if isinstance(spec, str):
            return spec, 1
        if isinstance(spec, dict):
            try:
                return spec.get("name"), int(spec.get("per_case", 1))
            except (TypeError, ValueError) as exc:
                raise ProtocolError(
                    f"malformed attack spec: {spec!r}"
                ) from exc
        raise ProtocolError(f"malformed attack spec: {spec!r}")

    def _attack_from_spec(self, spec):
        name, per_case = spec
        factory = AUDIT_ATTACKS.get(name)
        if factory is None:
            raise ProtocolError(
                f"unknown attack {name!r} (serveable attacks: "
                f"{', '.join(sorted(AUDIT_ATTACKS))})"
            )
        return factory(per_case=per_case)

    def _audit_blocking(
        self, graph, prop, k, trials, seed, attacks, fingerprint
    ) -> dict:
        session = self._session_for(k)
        self.metrics.prover_run()

        def case_factory(trial, rng):
            config = Configuration.with_random_ids(graph, rng)
            report = session.certify(config, [prop], verify=False)[prop]
            if report.refused:
                raise ServiceError(
                    f"cannot audit {prop!r}: the honest prover refused "
                    f"({report.refusal})"
                )
            return AuditCase(report.config, report.scheme, report.labeling, trial)

        plan = AuditPlan(
            case_factory,
            attacks,
            trials=trials,
            root_seed=seed,
            name="service-audit",
        )
        report = plan.run()  # fail-fast serial: only the accept bit matters
        return {"fingerprint": fingerprint, "audit": report.to_dict()}

    # ------------------------------------------------------------------
    # Observability and lifecycle.
    # ------------------------------------------------------------------
    def stage_counters(self) -> dict:
        """Summed prover stage counters across every worker session."""
        totals: dict = {}
        with self._lock:
            sessions = list(self._sessions)
        for session in sessions:
            for name, count in session.stage_counters.items():
                totals[name] = totals.get(name, 0) + count
        return totals

    def snapshot(self) -> dict:
        """The ``metrics`` op's response body: every layer, one dict."""
        snap = self.metrics.snapshot()
        snap["protocol_version"] = PROTOCOL_VERSION
        snap["engine"] = {"kind": self.config.engine}
        snap["store"] = self.store.stats()
        snap["store_metrics"] = self.store.metrics.snapshot()
        snap["stage_counters"] = self.stage_counters()
        snap["coalescer_in_flight"] = len(self.coalescer)
        return snap

    @property
    def closed(self) -> bool:
        return self._closed

    def close_blocking(self) -> None:
        """Drain worker threads.

        Idempotent.  New :meth:`handle` calls are refused the moment
        this starts; jobs already on worker threads run to completion
        (``ThreadPoolExecutor.shutdown(wait=True)``).
        """
        if self._closed:
            return
        self._closed = True
        self._pool.shutdown(wait=True)

    async def close(self) -> None:
        """Async wrapper over :meth:`close_blocking` (drains off-loop)."""
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.close_blocking)
