"""Theorem 1: the O(log n)-bit proof labeling scheme.

``Theorem1Scheme`` certifies ``φ ∧ (pathwidth ≤ k)`` on a configuration:
the prover runs the full pipeline — path decomposition → interval
representation → lane partition with low-congestion embedding
(Proposition 4.6) → completion → construction sequence (Proposition 5.2)
→ hierarchy (Proposition 5.6) → homomorphism classes (Proposition 6.1) →
certificates (Lemmas 6.4/6.5 + embedding records) — and the verifier is
:func:`repro.core.verifier.verify_theorem1`.

``LanewidthScheme`` is the same machinery for *native* lanewidth
constructions (no Section 4 front end, no virtual edges): the benchmark
families of DESIGN.md use it to scale ``n`` without the f(k) constant
blow-up.  The construction sequence is supplied to the prover as a hint —
the paper's prover has unlimited computation and could recover one; ours
accepts the witness instead (documented substitution).

Both provers are thin shims over the plan layer in :mod:`repro.api.plan`
— ``prove`` builds :func:`~repro.api.plan.theorem1_plan` or
:func:`~repro.api.plan.lanewidth_plan` and runs it through a
:class:`~repro.api.plan.PlanRunner` with a throwaway in-memory cache.
New code should prefer :func:`repro.api.certify` or a
:class:`repro.api.CertificationSession`, which additionally expose
per-stage timings, structured reports, and cross-property reuse of the
structural stages; these classes are kept as the stable entry points of
the original API, and sessions hand them out inside reports.  (The plan
imports are deferred to call time: ``repro.api`` depends on this module
for the verifier half, so an eager import here would be circular.)

Per the paper's remark after Theorem 1, the structural part certified is
``pw(G) ≤ w - 1`` where ``w`` is the certified lanewidth (≤ f(k+1) when
the pipeline starts from a width-(k+1) interval representation) — the
exact-``k`` conjunct would additionally run the pathwidth-obstruction
formula through the same class machinery; see DESIGN.md.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.certificates import Theorem1Label, label_bits
from repro.core.lane_partition import f_bound
from repro.core.lanewidth import ConstructionSequence, apply_construction
from repro.core.verifier import verify_theorem1
from repro.courcelle.registry import resolve_algebra
from repro.pls.bits import SizeContext
from repro.pls.model import Configuration
from repro.pls.scheme import Labeling, ProofLabelingScheme, ProverFailure


class CertifyingScheme(ProofLabelingScheme):
    """Shared verify/measure half of the two schemes.

    Subclasses supply ``prove``; the verifier and the bit accounting are
    property-independent, which is what lets a session swap algebras
    without touching the structural artifacts.  A bare instance is
    verifier-only (what a stored certificate rehydrates to): its
    ``prove`` refuses.
    """

    label_location = "edges"

    def __init__(self, algebra, max_width: int):
        self.algebra = resolve_algebra(algebra)
        self.max_width = max_width

    def prove(self, config: Configuration) -> Labeling:
        raise ProverFailure("verifier-only scheme: no prover attached")

    def verify(self, view) -> bool:
        return verify_theorem1(view, self.algebra, self.max_width)

    def label_size_bits(self, label, ctx: SizeContext) -> int:
        if not isinstance(label, Theorem1Label):
            return ctx.id_bits
        width = len(label.certificate.stack[0].info.lanes)
        # One accounting memo per size context: labels of one labeling
        # share record objects heavily, and the report sizes the whole
        # labeling back to back.  The memo is transient state, dropped
        # on pickling.
        memo = self.__dict__.get("_bits_memo")
        if memo is None or memo[0] is not ctx:
            memo = (ctx, {})
            self.__dict__["_bits_memo"] = memo
        return label_bits(label, ctx, width, memo[1])

    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("_bits_memo", None)
        return state


def _prove_plan(plan, config: Configuration, algebra) -> Labeling:
    """Run ``plan`` once through a throwaway in-memory artifact cache."""
    from repro.api.pipeline import PipelineContext
    from repro.api.plan import (
        PlanRunner,
        algebra_source_key,
        config_fingerprint,
    )

    ctx = PipelineContext(config=config, algebra=algebra)
    source_keys = {
        "graph": config.graph.fingerprint("edges"),
        "config": config_fingerprint(config),
        "algebra": algebra_source_key(algebra)[0],
    }
    PlanRunner().run(plan, ctx, source_keys)
    return ctx.labeling


class Theorem1Scheme(CertifyingScheme):
    """Certify ``φ ∧ (pathwidth ≤ k)`` with O(log n)-bit edge labels.

    ``exact_limit`` bounds the instance size up to which the default
    decomposer runs a complete branch-and-bound search (default:
    ``repro.api.pipeline.DEFAULT_EXACT_DECOMPOSITION_LIMIT``);
    ``exact_budget_ms`` authorizes a budgeted attempt above the limit.
    """

    def __init__(
        self,
        algebra,
        k: int,
        decomposer: Optional[Callable] = None,
        exact_limit: Optional[int] = None,
        exact_budget_ms: Optional[float] = None,
    ):
        if k < 1:
            raise ValueError("pathwidth bound must be at least 1")
        super().__init__(algebra, max_width=f_bound(k + 1))
        self.k = k
        self.decomposer = decomposer
        self.exact_limit = exact_limit
        self.exact_budget_ms = exact_budget_ms

    def prove(self, config: Configuration) -> Labeling:
        from repro.api.plan import theorem1_plan

        plan = theorem1_plan(
            self.k,
            algebra=self.algebra,
            decomposer=self.decomposer,
            exact_limit=self.exact_limit,
            exact_budget_ms=self.exact_budget_ms,
        )
        return _prove_plan(plan, config, self.algebra)


class LanewidthScheme(CertifyingScheme):
    """Certify ``φ`` on a graph given its lanewidth construction.

    The expected graph of ``sequence`` is replayed once and remembered as
    a fingerprint on :attr:`match_stage`; repeated ``prove`` calls compare
    configurations by hash instead of rebuilding the graph and its
    edge/vertex sets.  A session passes its own memoized ``match_stage``
    so every report scheme over one sequence shares it.
    """

    def __init__(self, algebra, sequence: ConstructionSequence,
                 match_stage=None):
        super().__init__(algebra, max_width=sequence.width)
        self.sequence = sequence
        self.match_stage = match_stage

    def prove(self, config: Configuration) -> Labeling:
        from repro.api.pipeline import MatchSequenceStage
        from repro.api.plan import lanewidth_plan

        if self.match_stage is None:
            self.match_stage = MatchSequenceStage(self.sequence)
        plan = lanewidth_plan(
            self.sequence, algebra=self.algebra, match_stage=self.match_stage
        )
        return _prove_plan(plan, config, self.algebra)


def certify_lanewidth_graph(
    sequence: ConstructionSequence, algebra, rng=None
) -> tuple:
    """Convenience: build the configuration, prove, and verify.

    Returns ``(config, scheme, labeling, result)``.  Legacy entry point —
    :func:`repro.api.certify` returns the same information (and more) as
    a structured :class:`repro.api.CertificationReport`; use
    ``report.as_tuple()`` during migration.
    """
    from repro.pls.simulator import run_verification

    graph = apply_construction(sequence)
    config = Configuration.with_random_ids(graph, rng)
    scheme = LanewidthScheme(algebra, sequence)
    labeling = scheme.prove(config)
    result = run_verification(config, scheme, labeling)
    return config, scheme, labeling, result
