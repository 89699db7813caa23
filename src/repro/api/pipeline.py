"""The certification stages.

Theorem 1's prover factors into reusable structural stages (path
decomposition → lane partition → completion → construction sequence →
hierarchy) followed by property-specific stages (algebra evaluation →
certificate labels).  This module makes each stage an explicit object
operating on a shared :class:`PipelineContext` and declaring its
dataflow; :mod:`repro.api.plan` wires them into the two proving modes
(:func:`~repro.api.plan.theorem1_plan`, where :class:`DecomposeStage`,
:class:`LaneStage` and :class:`CompletionStage` form the Section 4
front end, and :func:`~repro.api.plan.lanewidth_plan`, where a
:class:`MatchSequenceStage` replaces it) and its
:class:`~repro.api.plan.PlanRunner` is the one runner.

The split is what enables batch multi-property proving: the structural
stages depend only on the graph, so a :class:`repro.api.CertificationSession`
runs them once and replays :class:`EvaluateStage`/:class:`LabelStage`
per property (Bousquet–Feuilloley–Pierron's decomposition/evaluation
separation, made operational).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from repro.core.certificates import CertificateBuilder
from repro.core.completion import build_completion
from repro.core.construction import build_hierarchy
from repro.core.embedding import Embedding
from repro.core.hierarchy import (
    evaluate_hierarchy,
    hierarchy_depth,
    validate_hierarchy,
)
from repro.core.lane_partition import build_lane_partition, f_bound
from repro.core.lanewidth import (
    ConstructionSequence,
    apply_construction,
    construction_sequence_from_completion,
)
from repro.courcelle.algebra import AlgebraCapacityError
from repro.courcelle.registry import resolve_algebra
from repro.pathwidth.branch_and_bound import (
    branch_and_bound_decomposition,
    ordering_from_decomposition,
)
from repro.pathwidth.heuristics import heuristic_path_decomposition
from repro.pls.bits import ClassIndexer, SizeContext
from repro.pls.model import Configuration
from repro.pls.scheme import Labeling, ProverFailure

#: Default instance-size cutoff below which :class:`DecomposeStage`
#: always runs the branch-and-bound to completion.  Above it, exact
#: search only happens when an ``exact_budget_ms`` deadline authorizes
#: a budgeted attempt.  Overridable per stage
#: (``DecomposeStage(exact_limit=...)``), per scheme
#: (``Theorem1Scheme(..., exact_limit=...)``), and through the
#: facade/session ``exact_limit`` keyword.
DEFAULT_EXACT_DECOMPOSITION_LIMIT = 14

#: Stage names whose artifacts depend only on the graph (memoizable).
STRUCTURAL_STAGES = ("decompose", "lanes", "completion", "match", "hierarchy")
#: Stage names that must rerun for every property.
PROPERTY_STAGES = ("evaluate", "label")


@dataclass
class PipelineContext:
    """The artifact blackboard the stages read from and write to."""

    config: Configuration
    #: Property under certification — a registry key or algebra instance;
    #: :class:`EvaluateStage` resolves and pins the instance here.
    algebra: object = None

    # Structural artifacts (graph-only; reusable across properties).
    decomposition: object = None  # PathDecomposition
    lanes: object = None  # LanePartitionResult
    completion: object = None  # CompletionResult
    sequence: Optional[ConstructionSequence] = None
    root: object = None  # HierarchyNode
    hierarchy_depth: Optional[int] = None
    embedding: Optional[Embedding] = None
    max_width: Optional[int] = None
    #: How the witness decomposition was obtained (engine, widths,
    #: search counters) — see :meth:`DecomposeStage.default_decomposer`.
    decomposition_stats: Optional[dict] = None

    # Property-specific artifacts.
    evaluation: object = None  # HierarchyEvaluation
    class_count: Optional[int] = None
    labeling: Optional[Labeling] = None

    #: Timings of every stage run against this context, in order.
    timings: list = field(default_factory=list)

    @property
    def graph(self):
        return self.config.graph

    def structural_copy(
        self, config: Optional[Configuration] = None, algebra=None
    ) -> "PipelineContext":
        """Clone the structural artifacts for another property (or config).

        The per-property fields (evaluation, labeling, timings) start
        fresh; the expensive graph-level artifacts are shared by
        reference — stages never mutate them after creation.
        """
        clone = replace(self, timings=[])
        clone.config = config or self.config
        clone.algebra = algebra
        clone.evaluation = None
        clone.class_count = None
        clone.labeling = None
        return clone


class Stage:
    """One pipeline step.

    ``run`` reads its inputs from the context and writes its artifacts
    back; it raises :class:`ProverFailure` when the honest prover must
    refuse (precondition or property violation).

    Stages additionally *declare* their dataflow for the plan layer
    (:mod:`repro.api.plan`): ``inputs`` and ``outputs`` name the
    :class:`PipelineContext` fields read and written (the sources
    ``"graph"``, ``"config"``, and ``"algebra"`` are provided by the
    caller), and :meth:`plan_params` returns the parameters that — along
    with the input artifacts — determine the outputs.  Together they
    give every produced artifact a content fingerprint, which is what
    lets a plan runner skip a node whose outputs are already resolved in
    an :class:`~repro.api.artifacts.ArtifactCache`.
    """

    name: str = "stage"
    #: Context fields (or sources) this stage reads.
    inputs: tuple = ()
    #: Context fields this stage writes.
    outputs: tuple = ()

    def run(self, ctx: PipelineContext) -> None:
        raise NotImplementedError

    def plan_params(self):
        """Return ``(params, persistable)`` for artifact fingerprinting.

        ``params`` is a stable, reprable value capturing every stage
        parameter that can change the outputs; ``persistable`` is False
        when the params are only meaningful inside this process (e.g. an
        ``id()`` of a closure), in which case the artifacts stay in the
        in-memory cache layer and are never written to disk.
        """
        return ((), True)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class DecomposeStage(Stage):
    """Find a width-``k`` witness path decomposition (or refuse).

    Parameters
    ----------
    k:
        The pathwidth bound being certified.
    decomposer:
        Optional override ``graph -> PathDecomposition`` (generators that
        already know a witness pass it here and skip the search).
    exact_limit:
        Instances with ``n <= exact_limit`` always get a *complete*
        branch-and-bound search.  Larger ones get a budgeted attempt
        when ``exact_budget_ms`` is set, and the heuristic portfolio
        otherwise.  ``None`` means
        :data:`DEFAULT_EXACT_DECOMPOSITION_LIMIT`.
    exact_budget_ms:
        Wall-clock budget for exact search above ``exact_limit``.  The
        search is seeded with the heuristic incumbent, so a timeout
        falls back to an ordering at least as good as the heuristic's,
        with the attempt recorded in the ``decomposition_stats``
        artifact.  ``None`` (default) disables exact attempts above the
        limit.
    """

    name = "decompose"
    inputs = ("graph",)
    outputs = ("decomposition", "max_width", "decomposition_stats")

    def __init__(
        self,
        k: int,
        decomposer: Optional[Callable] = None,
        exact_limit: Optional[int] = None,
        exact_budget_ms: Optional[float] = None,
    ):
        if k < 1:
            raise ValueError("pathwidth bound must be at least 1")
        if exact_limit is None:
            exact_limit = DEFAULT_EXACT_DECOMPOSITION_LIMIT
        if exact_limit < 0:
            raise ValueError("exact_limit must be non-negative")
        if exact_budget_ms is not None and exact_budget_ms <= 0:
            raise ValueError("exact_budget_ms must be positive")
        self.k = k
        self.decomposer = decomposer
        self.exact_limit = exact_limit
        self.exact_budget_ms = exact_budget_ms

    def _engine_params(self):
        return (
            "k", self.k, "exact_limit", self.exact_limit,
            "exact_budget_ms", self.exact_budget_ms,
        )

    def plan_params(self):
        if self.decomposer is None:
            return (self._engine_params(), True)
        # An explicit witness decomposer is arbitrary code; a declared
        # ``cache_key`` makes its artifacts persistable, otherwise they
        # are keyed by object identity and stay memory-only.
        cache_key = getattr(self.decomposer, "cache_key", None)
        if cache_key is not None:
            return (
                self._engine_params() + ("decomposer", str(cache_key)),
                True,
            )
        return (
            self._engine_params() + ("decomposer-id", id(self.decomposer)),
            False,
        )

    def default_decomposer(self, graph):
        """Return ``(decomposition, stats)`` from the default search.

        ``stats`` is a plain dict recording which engine produced the
        witness, the achieved vs heuristic width, and (for the
        branch-and-bound) the search counters.  It travels through the
        plan cache as the ``decomposition_stats`` artifact and surfaces
        in :class:`~repro.api.results.CertificationReport`.
        """
        if graph.n <= self.exact_limit:
            # Complete search: no budget, so the answer is optimal.  The
            # search seeds itself; its seed width is the heuristic width.
            decomposition, result = branch_and_bound_decomposition(graph)
            heuristic_width = result.stats.seed_width
        else:
            seeded = heuristic_path_decomposition(graph)
            heuristic_width = seeded.width()
            if self.exact_budget_ms is None:
                return seeded, {
                    "engine": "heuristic",
                    "optimal": False,
                    "width": heuristic_width,
                    "heuristic_width": heuristic_width,
                }
            decomposition, result = branch_and_bound_decomposition(
                graph,
                budget_ms=self.exact_budget_ms,
                seed_ordering=ordering_from_decomposition(seeded),
            )
        stats = {
            "engine": "bnb",
            "optimal": result.optimal,
            "width": decomposition.width(),
            "heuristic_width": heuristic_width,
        }
        stats.update(result.stats.to_dict())
        return decomposition, stats

    def run(self, ctx: PipelineContext) -> None:
        graph = ctx.graph
        if graph.n < 2:
            raise ProverFailure("certification needs at least two vertices")
        if not graph.is_connected():
            raise ProverFailure("the network must be connected")
        if self.decomposer is not None:
            produced = self.decomposer(graph)
            # Custom decomposers may return a bare decomposition or
            # delegate to ``default_decomposer`` and return its
            # ``(decomposition, stats)`` pair.
            if isinstance(produced, tuple):
                decomposition, stats = produced
            else:
                decomposition = produced
                stats = {
                    "engine": "witness",
                    "optimal": None,
                    "width": decomposition.width(),
                }
        else:
            decomposition, stats = self.default_decomposer(graph)
        if decomposition.width() > self.k:
            raise ProverFailure(
                f"no witness decomposition of width <= {self.k} found "
                f"(got {decomposition.width()})"
            )
        ctx.decomposition = decomposition
        ctx.decomposition_stats = stats
        ctx.max_width = f_bound(self.k + 1)


class LaneStage(Stage):
    """Proposition 4.6: lane partition + low-congestion embedding."""

    name = "lanes"
    inputs = ("decomposition",)
    outputs = ("lanes", "embedding")

    def run(self, ctx: PipelineContext) -> None:
        rep = ctx.decomposition.to_interval_representation()
        ctx.lanes = build_lane_partition(ctx.graph, rep)
        ctx.embedding = ctx.lanes.full_embedding()


class CompletionStage(Stage):
    """Definition 4.4 + Proposition 5.2: completion and its build plan."""

    name = "completion"
    inputs = ("lanes",)
    outputs = ("completion", "sequence")

    def run(self, ctx: PipelineContext) -> None:
        ctx.completion = build_completion(ctx.graph, ctx.lanes.partition)
        ctx.sequence = construction_sequence_from_completion(ctx.completion)


class MatchSequenceStage(Stage):
    """Lanewidth mode's front end: check the configuration is the
    construction's graph, then adopt the sequence as the build plan.

    The expected graph is replayed once and kept as a fingerprint on the
    stage instance, so repeated proofs against the same sequence compare
    one hash instead of rebuilding and comparing full edge/vertex sets.
    """

    name = "match"
    inputs = ("graph",)
    outputs = ("sequence", "embedding", "max_width")

    def __init__(self, sequence: ConstructionSequence):
        self.sequence = sequence
        self._expected_fingerprint: Optional[str] = None
        self._sequence_digest: Optional[str] = None

    def plan_params(self):
        # The *sequence content* keys the artifacts (not the replayed
        # graph): a warm plan run can then skip the replay entirely.  A
        # cached hit for (graph fingerprint, sequence digest) means this
        # exact configuration/sequence pair already passed the match
        # check once.
        if self._sequence_digest is None:
            import hashlib

            seq = self.sequence
            digest = hashlib.blake2b(digest_size=16)
            digest.update(repr(seq.width).encode())
            digest.update(repr(seq.initial_vertices).encode())
            digest.update(repr(seq.initial_edge_tags).encode())
            digest.update(repr(tuple(seq.ops)).encode())
            self._sequence_digest = digest.hexdigest()
        return (("sequence", self._sequence_digest), True)

    def expected_fingerprint(self) -> str:
        if self._expected_fingerprint is None:
            expected = apply_construction(self.sequence)
            # Labels excluded: the legacy check compared bare (V, E).
            self._expected_fingerprint = expected.fingerprint(
                include_labels=False
            )
        return self._expected_fingerprint

    def run(self, ctx: PipelineContext) -> None:
        observed = ctx.graph.fingerprint(include_labels=False)
        if observed != self.expected_fingerprint():
            raise ProverFailure("configuration does not match the construction")
        ctx.sequence = self.sequence
        ctx.embedding = Embedding(ctx.graph)
        ctx.max_width = self.sequence.width


class HierarchyStage(Stage):
    """Proposition 5.6: build (and, in pathwidth mode, validate) the
    hierarchical decomposition."""

    name = "hierarchy"
    inputs = ("sequence",)
    outputs = ("root", "hierarchy_depth")

    def run(self, ctx: PipelineContext) -> None:
        root = build_hierarchy(ctx.sequence)
        if ctx.completion is not None:
            validate_hierarchy(root, ctx.completion.graph)
            if hierarchy_depth(root) > 2 * ctx.lanes.partition.width:
                raise AssertionError("Observation 5.5 depth bound violated")
        ctx.root = root
        ctx.hierarchy_depth = hierarchy_depth(root)


class EvaluateStage(Stage):
    """Proposition 6.1: run the property's algebra bottom-up and check
    acceptance at the root (the honest prover refuses false properties,
    and properties whose algebra cannot hold the boundary width)."""

    name = "evaluate"
    inputs = ("root", "algebra")
    outputs = ("evaluation",)

    def __init__(self, algebra=None):
        self.algebra = resolve_algebra(algebra) if algebra is not None else None

    def run(self, ctx: PipelineContext) -> None:
        algebra = self.algebra if self.algebra is not None else ctx.algebra
        if algebra is None:
            raise ValueError("EvaluateStage needs an algebra (stage or context)")
        ctx.algebra = resolve_algebra(algebra)
        try:
            ctx.evaluation = evaluate_hierarchy(ctx.root, ctx.algebra)
        except AlgebraCapacityError as exc:
            raise ProverFailure(str(exc)) from exc
        if not ctx.evaluation.accepts(ctx.root):
            raise ProverFailure("property does not hold on the real subgraph")


class LabelStage(Stage):
    """Lemmas 6.4/6.5: build the physical edge certificates.

    Label assembly is batch-wise: the builder materializes each
    embedding path's records in one sweep and assembles the full
    ``edge -> Theorem1Label`` mapping in a single pass, so the cold
    path pays per-batch rather than per-edge overheads (PR 10).
    """

    name = "label"
    inputs = ("root", "evaluation", "embedding", "config")
    outputs = ("class_count", "labeling")

    def run(self, ctx: PipelineContext) -> None:
        indexer = ClassIndexer()
        builder = CertificateBuilder(ctx.config, ctx.root, ctx.evaluation, indexer)
        mapping = builder.physical_labels(ctx.embedding)
        size_ctx = SizeContext(ctx.config.n, class_count=indexer.class_count)
        ctx.class_count = indexer.class_count
        ctx.labeling = Labeling("edges", mapping, size_ctx)
