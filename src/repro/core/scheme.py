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

Both provers are thin shims over the staged pipeline in
:mod:`repro.api.pipeline` — ``prove`` assembles the matching stage list
and runs it.  New code should prefer :func:`repro.api.certify` or a
:class:`repro.api.CertificationSession`, which additionally expose
per-stage timings, structured reports, and cross-property reuse of the
structural stages; these classes are kept as the stable entry points of
the original API.  (The pipeline imports are deferred to call time:
``repro.api`` depends on this module for the verifier half, so an eager
import here would be circular.)

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
from repro.pls.scheme import Labeling, ProofLabelingScheme

# The former module-private ``_EXACT_DECOMPOSITION_LIMIT = 14`` cutoff is
# now a documented, overridable parameter: see DecomposeStage(exact_limit=...)
# in repro.api.pipeline (DEFAULT_EXACT_DECOMPOSITION_LIMIT) and the
# ``exact_limit`` keyword threaded through Theorem1Scheme, the session,
# and the facade.


class CertifyingScheme(ProofLabelingScheme):
    """Shared verify/measure half of the two schemes.

    Subclasses supply ``prove``; the verifier and the bit accounting are
    property-independent, which is what lets a session swap algebras
    without touching the structural artifacts.
    """

    label_location = "edges"

    def __init__(self, algebra, max_width: int):
        self.algebra = resolve_algebra(algebra)
        self.max_width = max_width

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


# Historical (pre-pipeline) name, kept for external subclasses.
_CertifyingScheme = CertifyingScheme


class Theorem1Scheme(CertifyingScheme):
    """Certify ``φ ∧ (pathwidth ≤ k)`` with O(log n)-bit edge labels.

    ``exact_limit`` bounds the instance size up to which the default
    decomposer runs a complete exact search (default:
    ``repro.api.pipeline.DEFAULT_EXACT_DECOMPOSITION_LIMIT``);
    ``exact_engine`` picks the engine (``"bnb"`` branch-and-bound by
    default, ``"dp"`` the legacy subset DP) and ``exact_budget_ms``
    authorizes a budgeted branch-and-bound attempt above the limit.
    """

    def __init__(
        self,
        algebra,
        k: int,
        decomposer: Optional[Callable] = None,
        exact_limit: Optional[int] = None,
        exact_engine: Optional[str] = None,
        exact_budget_ms: Optional[float] = None,
    ):
        if k < 1:
            raise ValueError("pathwidth bound must be at least 1")
        super().__init__(algebra, max_width=f_bound(k + 1))
        self.k = k
        self.decomposer = decomposer
        self.exact_limit = exact_limit
        self.exact_engine = exact_engine
        self.exact_budget_ms = exact_budget_ms

    def prove(self, config: Configuration) -> Labeling:
        from repro.api.pipeline import (
            CertificationPipeline,
            PipelineContext,
            theorem1_stages,
        )

        ctx = PipelineContext(config=config, algebra=self.algebra)
        stages = theorem1_stages(
            self.k,
            algebra=self.algebra,
            decomposer=self.decomposer,
            exact_limit=self.exact_limit,
            exact_engine=self.exact_engine,
            exact_budget_ms=self.exact_budget_ms,
        )
        CertificationPipeline(stages).run(ctx)
        return ctx.labeling


class LanewidthScheme(CertifyingScheme):
    """Certify ``φ`` on a graph given its lanewidth construction.

    The expected graph of ``sequence`` is replayed once and remembered as
    a fingerprint; repeated ``prove`` calls compare configurations by
    hash instead of rebuilding the graph and its edge/vertex sets.
    """

    def __init__(self, algebra, sequence: ConstructionSequence):
        super().__init__(algebra, max_width=sequence.width)
        self.sequence = sequence
        self._match_stage = None  # carries the cached expected fingerprint

    def prove(self, config: Configuration) -> Labeling:
        from repro.api.pipeline import (
            CertificationPipeline,
            MatchSequenceStage,
            PipelineContext,
            lanewidth_stages,
        )

        if self._match_stage is None:
            self._match_stage = MatchSequenceStage(self.sequence)
        ctx = PipelineContext(config=config, algebra=self.algebra)
        stages = lanewidth_stages(
            self.sequence, algebra=self.algebra, match_stage=self._match_stage
        )
        CertificationPipeline(stages).run(ctx)
        return ctx.labeling


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
