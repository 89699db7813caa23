"""Certification sessions: a thin view over the artifact cache.

A :class:`CertificationSession` certifies property batches through the
plan layer (:mod:`repro.api.plan`): every prover stage is a DAG node
whose artifacts carry content fingerprints, and the session simply runs
the plan against an :class:`~repro.api.artifacts.ArtifactCache`.  The
cache *is* the memoization — the session no longer keeps a private memo
dict:

* within a session, the cache's memory layer replays the old behavior
  (structural stages run once per graph, observable through the
  cumulative ``stage_counters``);
* with a disk layer (automatic when the session carries a
  :class:`~repro.api.store.CertificateStore`, whose
  ``artifact_cache()`` lives next to the certificates), a **fresh
  process** certifying a previously seen graph resolves every
  structural node from disk and runs zero structural stages — and
  per-property evaluations resolve too, leaving only work keyed to the
  new configuration's identifiers.

Every successful labeling is wire-encoded (:mod:`repro.codec`), so the
report's ``max/mean/total_label_bits`` are measured byte-string sizes;
the encoded form rides along with the labeling artifact, and — when the
session carries a store — is persisted for later re-verification with
zero prover stages.

Each report's ``scheme`` is the matching :mod:`repro.core` shim
(:class:`~repro.core.scheme.Theorem1Scheme` or
:class:`~repro.core.scheme.LanewidthScheme`) under the session's
settings: the verifier half for the round, and a ``prove`` that replays
the same plan through a :class:`~repro.api.plan.PlanRunner`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional

from repro.codec import encode_labeling_columnar, stamp_wire_digest
from repro.core.lanewidth import ConstructionSequence, apply_construction
from repro.core.scheme import LanewidthScheme, Theorem1Scheme
from repro.courcelle.algebra import BoundedAlgebra
from repro.courcelle.registry import resolve_algebra
from repro.pls.model import Configuration
from repro.pls.scheme import ProverFailure

from repro.api.artifacts import ArtifactCache
from repro.api.pipeline import MatchSequenceStage, PipelineContext
from repro.api.plan import (
    CertificationPlan,
    NodeKey,
    PlanRunner,
    algebra_source_key,
    config_fingerprint,
    lanewidth_plan,
    theorem1_plan,
)
from repro.api.results import CertificationReport
from repro.api.runtime import VerificationEngine, VerificationReport


@dataclass
class _Structure:
    """One resolved structural phase: the context plus its plan wiring."""

    ctx: PipelineContext  # after the structural nodes only
    plan: CertificationPlan
    #: artifact name -> NodeKey after the structural resolution; the
    #: per-property key chains continue from here.
    artifact_keys: dict
    timings: tuple  # structural StageTiming (per-node cached flags)
    all_cached: bool  # every structural node came from the cache
    sequence: Optional[ConstructionSequence]  # lanewidth mode marker
    match_stage: Optional[MatchSequenceStage] = None


class CertificationSession:
    """Batch/caching front end over the plan-based prover.

        session = CertificationSession(k=2)
        reports = session.certify(graph, ["connected", "acyclic"])
        session.stage_counters      # {'decompose': 1, ..., 'evaluate': 2}
        session.verify(reports["connected"])   # replay the round

    Parameters
    ----------
    k:
        Pathwidth bound used when certifying :class:`Graph` /
        :class:`Configuration` targets (Theorem 1 mode).  Sequence
        targets carry their own width and ignore ``k``.
    decomposer, exact_limit, exact_budget_ms:
        Forwarded to :class:`repro.api.pipeline.DecomposeStage` —
        ``exact_budget_ms`` authorizes a budgeted branch-and-bound
        attempt above ``exact_limit``.
    rng:
        Source of vertex identifiers for bare-graph targets.
    engine:
        The :class:`~repro.api.runtime.VerificationEngine` used for the
        verification round (``None``: a serial engine).
    store:
        Optional :class:`~repro.api.store.CertificateStore`; every
        successful (non-refused) report is persisted to it in wire form
        as part of :meth:`certify`, and — unless ``artifacts`` is given
        explicitly — the store's ``artifact_cache()`` becomes the
        session's cache, making structural artifacts persistent too.
    artifacts:
        Optional :class:`~repro.api.artifacts.ArtifactCache` override
        (``None``: derived from the store, else a fresh in-memory cache).
    """

    def __init__(
        self,
        k: Optional[int] = None,
        decomposer: Optional[Callable] = None,
        exact_limit: Optional[int] = None,
        rng: Optional[random.Random] = None,
        engine: Optional[VerificationEngine] = None,
        store=None,
        artifacts: Optional[ArtifactCache] = None,
        exact_budget_ms: Optional[float] = None,
    ):
        self.k = k
        self.decomposer = decomposer
        self.exact_limit = exact_limit
        self.exact_budget_ms = exact_budget_ms
        self.rng = rng or random.Random()
        self.engine = engine
        self.store = store
        # Lazy fallback kept apart from ``engine``: the facade adopts
        # explicit arguments onto unset session fields, and a cached
        # default must not masquerade as user configuration there.
        self._default_engine: Optional[VerificationEngine] = None
        # Likewise lazy: a store adopted by the facade after
        # construction must still contribute its artifact directory.
        # ``_artifacts_lazy`` records that the cache was derived (not
        # user-supplied), so adoption can re-derive it.
        self._artifacts = artifacts
        self._artifacts_lazy = False
        #: Cumulative {stage name: times run} over the session's lifetime.
        self.stage_counters: dict = {}
        #: Mode keys whose structural phase completed (cache-hit or run).
        self._structure_keys: set = set()
        #: Mode key -> the memoized lanewidth matcher (shared by report
        #: schemes so replays compare fingerprints, not rebuilt graphs).
        self._match_stages: dict = {}
        # Sequence targets are identity-cached (dataclasses are unhashable);
        # holding the sequence keeps id() stable.
        self._sequence_keys: dict = {}  # id(seq) -> (seq, fingerprint, graph)

    # ------------------------------------------------------------------
    @property
    def artifacts(self) -> ArtifactCache:
        """The session's artifact cache (derived from the store lazily)."""
        if self._artifacts is None:
            factory = getattr(self.store, "artifact_cache", None)
            self._artifacts = (
                factory() if callable(factory) else ArtifactCache()
            )
            self._artifacts_lazy = True
        return self._artifacts

    def adopt_store(self, store) -> None:
        """Attach ``store`` (facade adoption path).

        A lazily derived, store-less artifact cache is re-derived so the
        adopted store's persistent artifact directory takes effect — an
        explicitly supplied cache is never replaced.
        """
        self.store = store
        if (
            self._artifacts_lazy
            and self._artifacts is not None
            and self._artifacts.root is None
        ):
            self._artifacts = None
            self._artifacts_lazy = False

    @property
    def cached_graphs(self) -> int:
        """Number of distinct (graph, mode) structures resolved so far."""
        return len(self._structure_keys)

    def certify(
        self,
        target,
        properties,
        rng: Optional[random.Random] = None,
        verify: bool = True,
    ):
        """Prove one or many properties against one target.

        ``target`` is a :class:`ConstructionSequence` (native lanewidth
        mode), a :class:`Configuration`, or a bare :class:`Graph` (random
        identifiers are attached).  ``properties`` is a registry key, an
        algebra instance, or a list of either.

        ``verify=False`` skips the verification round (completeness
        guarantees honest acceptance, so provers that only need labels —
        e.g. audit case factories — save the dominant cost); run it
        later with :meth:`verify`.

        Returns one :class:`CertificationReport` for a single property,
        or ``{key: report}`` for a list.  Prover refusals are reported
        (``report.refused``), not raised — a false property must not
        abort the rest of the batch.

        Successful labelings are wire-encoded (:mod:`repro.codec`): the
        report's size figures are measured encoding lengths, the
        encoded form is attached as ``report.encoded``, and — when the
        session carries a store — persisted for later re-verification.
        """
        single = isinstance(properties, (str, BoundedAlgebra))
        try:
            keys = [properties] if single else list(properties)
        except TypeError:
            raise TypeError(
                "properties must be a registry key, an algebra, or a list "
                f"of them (got {type(properties).__name__})"
            ) from None
        if not keys:
            raise ValueError("need at least one property to certify")
        # Resolve every algebra up front: a typo'd key must fail fast,
        # not midway through a batch with half the properties proven.
        # Report keys are deduplicated (#2, #3, ...) so two algebra
        # instances of the same class never collapse into one report.
        resolved = []
        seen_keys: dict = {}
        for prop in keys:
            key = self._key_of(prop)
            seen_keys[key] = seen_keys.get(key, 0) + 1
            if seen_keys[key] > 1:
                key = f"{key}#{seen_keys[key]}"
            resolved.append((key, prop, resolve_algebra(prop)))

        config, sequence, fingerprint = self._normalize(target, rng)
        try:
            structure = self._structure_for(config, sequence, fingerprint)
        except ProverFailure as failure:
            timings = getattr(failure, "stage_timings", ())
            reports = {
                key: self._refused_report(key, config, failure, timings)
                for key, _prop, _algebra in resolved
            }
        else:
            reports = {
                key: self._certify_one(structure, config, key, algebra, verify)
                for key, _prop, algebra in resolved
            }
        return next(iter(reports.values())) if single else reports

    def verify(
        self,
        report: CertificationReport,
        engine: Optional[VerificationEngine] = None,
    ) -> VerificationReport:
        """(Re)run the verification round for a certified report.

        Uses ``engine`` (default: the session's) against the report's
        own artifacts, attaches the structured outcome to the report
        (``verification``/``result``/``accepted``), and returns it.
        """
        if report.refused:
            raise ValueError("cannot verify a refused report (no labeling)")
        if report.scheme is None or report.labeling is None:
            raise ValueError(
                "report carries no artifacts to verify (was it rebuilt "
                "from JSON?)"
            )
        engine = engine or self._engine()
        self._offer_artifacts(engine)
        verification = engine.verify(
            report.config, report.scheme, report.labeling
        )
        report.verification = verification
        report.result = verification.as_result()
        report.accepted = verification.accepted
        return verification

    def _engine(self) -> VerificationEngine:
        if self.engine is not None:
            return self.engine
        if self._default_engine is None:
            self._default_engine = VerificationEngine()
        return self._default_engine

    def _offer_artifacts(self, engine) -> None:
        """Lend the session's artifact cache to cache-aware executors.

        Executors that persist packed round state (``vectorized``)
        expose ``adopt_artifacts``; everything else
        is left alone.  Duck-typed so custom engines/executors need no
        base-class change.
        """
        adopt = getattr(
            getattr(engine, "executor", None), "adopt_artifacts", None
        )
        if adopt is not None:
            adopt(self.artifacts)

    # ------------------------------------------------------------------
    def _key_of(self, prop) -> str:
        if isinstance(prop, str):
            return prop
        # Every algebra carries its registry-style key (e.g.
        # 'max-degree-2'), which distinguishes parametric instances of
        # the same class; the class name is only a last resort.
        return getattr(prop, "key", None) or type(prop).__name__

    def _normalize(self, target, rng):
        """Return ``(config, sequence_or_None, fingerprint)``."""
        rng = rng or self.rng
        if isinstance(target, ConstructionSequence):
            cached = self._sequence_keys.get(id(target))
            if cached is None:
                graph = apply_construction(target)
                cached = (target, graph.fingerprint("edges"), graph)
                self._sequence_keys[id(target)] = cached
            _seq, fingerprint, graph = cached
            return (
                Configuration.with_random_ids(graph, rng),
                target,
                fingerprint,
            )
        # Plan artifacts key on the certification identity — vertices,
        # edges, and edge labels (tags reach the certificates through
        # the construction sequence), but *not* vertex labels, which no
        # pipeline stage reads.  Vertex-relabeling therefore reuses the
        # whole chain; the store keeps its own label-inclusive identity.
        if isinstance(target, Configuration):
            return target, None, target.graph.fingerprint("edges")
        # Bare graph.
        return (
            Configuration.with_random_ids(target, rng),
            None,
            target.fingerprint("edges"),
        )

    def _plan_for(self, sequence, mode_key):
        if sequence is not None:
            match_stage = self._match_stages.get(mode_key)
            if match_stage is None:
                match_stage = MatchSequenceStage(sequence)
                self._match_stages[mode_key] = match_stage
            return lanewidth_plan(sequence, match_stage=match_stage)
        if self.k is None:
            raise ValueError(
                "CertificationSession needs a pathwidth bound k to certify "
                "graph targets (sequence targets carry their own width)"
            )
        return theorem1_plan(
            self.k,
            decomposer=self.decomposer,
            exact_limit=self.exact_limit,
            exact_budget_ms=self.exact_budget_ms,
        )

    def _structure_for(self, config, sequence, fingerprint) -> _Structure:
        """Resolve the structural phase, running only unresolved nodes.

        The mode is part of the key chain by construction: the same
        graph reached as a sequence target (lanewidth mode, matcher
        node) and as a bare-graph target (Theorem 1 mode, decompose node
        checking the width bound) resolves through different node names
        and parameters, so neither can satisfy the other.
        """
        if sequence is not None:
            mode_key = ("lanewidth", fingerprint)
        else:
            mode_key = (
                "theorem1",
                self.k,
                self.decomposer,
                self.exact_limit,
                self.exact_budget_ms,
                fingerprint,
            )
        plan = self._plan_for(sequence, mode_key)
        ctx = PipelineContext(config=config)
        source_keys = {
            "graph": fingerprint,
            "config": config_fingerprint(config),
        }
        structural = plan.structural_nodes()
        artifact_keys = plan.chain_keys(source_keys, structural)
        keys = {node.name: artifact_keys[node.outputs[0]] for node in structural}
        runner = PlanRunner(self.artifacts, self.stage_counters)
        run = runner.run(plan, ctx, source_keys, nodes=structural, keys=keys)
        self._structure_keys.add(mode_key)
        return _Structure(
            ctx=ctx,
            plan=plan,
            artifact_keys=artifact_keys,
            timings=tuple(run.timings),
            all_cached=run.all_cached,
            sequence=sequence,
            match_stage=self._match_stages.get(mode_key),
        )

    def _scheme_for(self, structure, algebra):
        """The report's scheme: the verifier half, plus a ``prove`` that
        replays the full plan under this session's settings."""
        if structure.sequence is not None:
            return LanewidthScheme(
                algebra, structure.sequence, match_stage=structure.match_stage
            )
        return Theorem1Scheme(
            algebra,
            self.k,
            decomposer=self.decomposer,
            exact_limit=self.exact_limit,
            exact_budget_ms=self.exact_budget_ms,
        )

    # ------------------------------------------------------------------
    def _property_keys(self, structure, algebra) -> dict:
        """Resolve the per-property node keys for one algebra."""
        source_key, persistable = algebra_source_key(algebra)
        artifact_keys = dict(structure.artifact_keys)
        artifact_keys["algebra"] = NodeKey(source_key, persistable)
        nodes = structure.plan.property_nodes()
        chained = structure.plan.chain_keys(artifact_keys, nodes)
        return {node.name: chained[node.outputs[0]] for node in nodes}

    def _certify_one(self, structure, config, key, algebra, verify=True):
        prop_keys = self._property_keys(structure, algebra)
        ctx = structure.ctx.structural_copy(config=config, algebra=algebra)
        runner = PlanRunner(self.artifacts, self.stage_counters)
        try:
            run = runner.run(
                structure.plan,
                ctx,
                None,
                nodes=structure.plan.property_nodes(),
                keys=prop_keys,
            )
        except ProverFailure as failure:
            report = self._refused_report(key, config, failure)
            report.max_width = ctx.max_width
            report.lane_count = len(ctx.root.lanes)
            report.hierarchy_depth = ctx.hierarchy_depth
            report.stage_timings = structure.timings + tuple(
                getattr(failure, "stage_timings", ())
            )
            report.structure_cached = structure.all_cached
            report.stage_counters = dict(self.stage_counters)
            return report

        # The wire encoding is the ground truth for every size figure;
        # it rides along with the labeling artifact so warm-cache runs
        # skip re-encoding too.
        encoded = None
        encode_seconds = 0.0
        label_key = prop_keys["label"].key
        if "label" in run.cache_hits:
            entry = self.artifacts.get(label_key)
            if entry is not None:
                encoded = entry.outputs.get("encoded")
        if encoded is None:
            began = perf_counter()
            encoded = encode_labeling_columnar(ctx.labeling)
            encode_seconds = perf_counter() - began
            self.artifacts.annotate(label_key, "encoded", encoded)
        return self._finish_report(
            structure,
            config,
            key,
            algebra,
            ctx.labeling,
            ctx.class_count,
            encoded,
            structure.timings + tuple(run.timings),
            verify,
            encode_seconds=encode_seconds,
        )

    def _finish_report(
        self,
        structure,
        config,
        key,
        algebra,
        labeling,
        class_count,
        encoded,
        stage_timings,
        verify,
        encode_seconds: float = 0.0,
    ) -> CertificationReport:
        root = structure.ctx.root
        scheme = self._scheme_for(structure, algebra)
        # Tie the wire identity to the labeling object *before* the
        # verification round: executors that persist compiled rounds
        # key their envelopes on this digest.
        stamp_wire_digest(labeling, encoded)
        if verify:
            engine = self._engine()
            self._offer_artifacts(engine)
            verification = engine.verify(config, scheme, labeling)
            result = verification.as_result()
            accepted = verification.accepted
        else:
            # Completeness (Theorem 1): the honest prover's labeling is
            # accepted by construction; the round can be replayed later
            # with session.verify(report).
            verification = None
            result = None
            accepted = True
        report = CertificationReport(
            property_key=key,
            accepted=accepted,
            n=config.graph.n,
            m=config.graph.m,
            max_width=structure.ctx.max_width,
            lane_count=len(root.lanes),
            hierarchy_depth=structure.ctx.hierarchy_depth,
            class_count=class_count,
            max_label_bits=encoded.max_bits,
            mean_label_bits=encoded.mean_bits,
            total_label_bits=encoded.total_bits,
            accounted_max_label_bits=labeling.max_label_bits(scheme),
            accounted_mean_label_bits=labeling.mean_label_bits(scheme),
            accounted_total_label_bits=labeling.total_label_bits(scheme),
            stage_timings=tuple(stage_timings),
            stage_counters=dict(self.stage_counters),
            structure_cached=structure.all_cached,
            decomposition_stats=structure.ctx.decomposition_stats,
            encode_seconds=encode_seconds,
            compile_seconds=(
                (verification.kernel_stats or {}).get("compile_seconds", 0.0)
                if verification is not None
                else 0.0
            ),
            compiled_round_cached=bool(
                (verification.kernel_stats or {}).get(
                    "compiled_round_cached", False
                )
                if verification is not None
                else False
            ),
            verification=verification,
            config=config,
            scheme=scheme,
            labeling=labeling,
            result=result,
            encoded=encoded,
        )
        if self.store is not None:
            self.store.save(report)
        return report

    def _refused_report(
        self, key: str, config, failure, stage_timings: tuple = ()
    ) -> CertificationReport:
        return CertificationReport(
            property_key=key,
            accepted=False,
            refused=True,
            refusal=str(failure),
            n=config.graph.n,
            m=config.graph.m,
            stage_timings=tuple(stage_timings),
            stage_counters=dict(self.stage_counters),
            config=config,
        )
