"""The verification runtime: executors and structured reports.

PR 1 rebuilt the *prover* side around the staged pipeline; this module
does the same for the *verification round* — the half of a proof labeling
scheme the paper actually bounds (every vertex checks its O(log n)-bit
local view).  The design mirrors the distributed reality:

* a :class:`VerificationEngine` owns the round's policy (which executor,
  whether to short-circuit) and produces a structured
  :class:`VerificationReport`;
* executors own the *scheduling* of the per-vertex checks.
  :class:`SerialExecutor` runs them one view at a time in-process and is
  the reference oracle; :class:`~repro.api.vectorized.VectorizedExecutor`
  evaluates the whole round as numpy kernels.  Both produce identical
  verdicts for the same configuration — the checks are independent by
  the locality guarantee, so scheduling cannot change semantics;
* ``fail_fast`` short-circuits on the first rejection, which is the
  right mode for soundness audits where only the accept/reject bit
  matters.  The report's ``views_built`` counter makes the saving
  observable.

Both executors build views through one per-round
:class:`~repro.pls.model.ViewFactory` — identifiers, input labels, and
certificates resolved into CSR-parallel arrays once, then each vertex's
:class:`~repro.pls.model.LocalView` is a pair of array slices.

Exception accounting: a verifier raising on malformed (adversarial)
labels still *rejects* — soundness must hold against arbitrary labelings
— but the report counts these ``exception_rejections`` separately from
ordinary ``verdict_rejections`` so scheme bugs on honest labelings are
not silently folded into soundness wins.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from time import perf_counter
from typing import Optional

from repro.pls.model import Configuration, ViewFactory
from repro.pls.scheme import Labeling, ProofLabelingScheme, VerificationResult


# ----------------------------------------------------------------------
# Structured results.


@dataclass(frozen=True)
class ChunkTiming:
    """Wall-clock cost of one chunk of per-vertex checks."""

    index: int
    size: int  # vertices assigned to the chunk
    views_built: int  # views actually constructed (< size under fail_fast)
    seconds: float

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "size": self.size,
            "views_built": self.views_built,
            "seconds": self.seconds,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ChunkTiming":
        return cls(
            index=data["index"],
            size=data["size"],
            views_built=data["views_built"],
            seconds=data["seconds"],
        )


def _vertex_to_json(vertex):
    """JSON-safe encoding of a vertex key (tuples become lists)."""
    if isinstance(vertex, tuple):
        return [_vertex_to_json(item) for item in vertex]
    if vertex is None or isinstance(vertex, (bool, int, float, str)):
        return vertex
    return repr(vertex)


def _vertex_from_json(vertex):
    if isinstance(vertex, list):
        return tuple(_vertex_from_json(item) for item in vertex)
    return vertex


@dataclass
class VerificationReport:
    """Everything one verification round learned.

    ``verdicts`` covers every vertex the executor reached; under
    ``fail_fast`` that may be a strict subset of the configuration
    (``views_built < vertices_total``), which is exactly the saving the
    mode exists to deliver.  ``accepted`` is authoritative either way: a
    short-circuited round is always a rejection.
    """

    accepted: bool
    verdicts: dict  # vertex -> bool (partial under fail_fast)
    vertices_total: int
    views_built: int
    #: Vertices whose verifier returned ``False``.
    verdict_rejections: tuple = ()
    #: Vertices whose verifier *raised* (rejects, counted separately).
    exception_rejections: tuple = ()
    executor: str = "serial"
    fail_fast: bool = False
    #: True when ``fail_fast`` actually skipped work.
    short_circuited: bool = False
    chunks: tuple = ()  # ChunkTiming, in chunk order
    elapsed_seconds: float = 0.0
    #: Executor-specific counters (the vectorized executors report
    #: kernel coverage, fallback counts, and compile/kernel timing here;
    #: the reference executors leave it None).
    kernel_stats: Optional[dict] = None

    @property
    def rejecting_vertices(self) -> list:
        """All rejecting vertices (verdict and exception), sorted."""
        return sorted(
            set(self.verdict_rejections) | set(self.exception_rejections),
            key=repr,
        )

    def as_result(self) -> VerificationResult:
        """The legacy :class:`VerificationResult` view of this round."""
        return VerificationResult(
            verdicts=dict(self.verdicts), accepted=self.accepted
        )

    # -- serialization --------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe form of the report.

        Round-trip fidelity (``from_dict(to_dict())`` preserving
        ``verdicts`` keys) holds for JSON-primitive and tuple vertex
        keys — everything the in-repo graphs use.  Exotic vertex
        objects are encoded by ``repr`` and come back as strings: the
        counters and verdict booleans survive, identity-based lookups
        do not.
        """
        return {
            "accepted": self.accepted,
            "verdicts": [
                [_vertex_to_json(v), ok] for v, ok in sorted(
                    self.verdicts.items(), key=lambda item: repr(item[0])
                )
            ],
            "vertices_total": self.vertices_total,
            "views_built": self.views_built,
            "verdict_rejections": [
                _vertex_to_json(v) for v in self.verdict_rejections
            ],
            "exception_rejections": [
                _vertex_to_json(v) for v in self.exception_rejections
            ],
            "executor": self.executor,
            "fail_fast": self.fail_fast,
            "short_circuited": self.short_circuited,
            "chunks": [chunk.to_dict() for chunk in self.chunks],
            "elapsed_seconds": self.elapsed_seconds,
            "kernel_stats": self.kernel_stats,
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_dict(cls, data: dict) -> "VerificationReport":
        return cls(
            accepted=data["accepted"],
            verdicts={
                _vertex_from_json(v): ok for v, ok in data["verdicts"]
            },
            vertices_total=data["vertices_total"],
            views_built=data["views_built"],
            verdict_rejections=tuple(
                _vertex_from_json(v) for v in data["verdict_rejections"]
            ),
            exception_rejections=tuple(
                _vertex_from_json(v) for v in data["exception_rejections"]
            ),
            executor=data.get("executor", "serial"),
            fail_fast=data.get("fail_fast", False),
            short_circuited=data.get("short_circuited", False),
            chunks=tuple(
                ChunkTiming.from_dict(c) for c in data.get("chunks", ())
            ),
            elapsed_seconds=data.get("elapsed_seconds", 0.0),
            kernel_stats=data.get("kernel_stats"),
        )

    def summary(self) -> str:
        verdict = "accepted" if self.accepted else "REJECTED"
        extra = ""
        if not self.accepted:
            extra = (
                f", {len(self.verdict_rejections)} verdict / "
                f"{len(self.exception_rejections)} exception rejections"
            )
        if self.short_circuited:
            extra += ", short-circuited"
        return (
            f"{verdict} ({self.views_built}/{self.vertices_total} views, "
            f"{self.executor}{extra})"
        )


# ----------------------------------------------------------------------
# The unit of scheduled work.


@dataclass(frozen=True)
class _ChunkOutcome:
    """What one chunk of per-vertex checks produced."""

    index: int
    size: int
    verdicts: dict
    exception_vertices: tuple
    views_built: int
    seconds: float
    rejected: bool  # saw at least one rejection (fail_fast trigger)
    kernel_stats: Optional[dict] = None  # vectorized executors only


def _run_range(
    factory: ViewFactory,
    scheme,
    order: list,
    start: int,
    stop: int,
    index: int,
    fail_fast: bool,
) -> _ChunkOutcome:
    """Check canonical-order positions ``start..stop`` of one round."""
    names = factory.vertices
    began = perf_counter()
    verdicts: dict = {}
    exceptions: list = []
    views = 0
    rejected = False
    for position in range(start, stop):
        dense = order[position]
        view = factory.view_at(dense)
        views += 1
        vertex = names[dense]
        try:
            ok = bool(scheme.verify(view))
        except Exception:
            # A verifier choking on malformed (adversarial) labels
            # rejects: soundness must hold against arbitrary labelings.
            ok = False
            exceptions.append(vertex)
        verdicts[vertex] = ok
        if not ok:
            rejected = True
            if fail_fast:
                break
    return _ChunkOutcome(
        index=index,
        size=stop - start,
        verdicts=verdicts,
        exception_vertices=tuple(exceptions),
        views_built=views,
        seconds=perf_counter() - began,
        rejected=rejected,
    )


def _ranges(total: int, chunk_size: int) -> list:
    return [
        (start, min(start + chunk_size, total))
        for start in range(0, total, chunk_size)
    ]


# ----------------------------------------------------------------------
# Executors.


class VerificationExecutor:
    """Scheduling strategy for the independent per-vertex checks.

    ``execute`` returns the list of :class:`_ChunkOutcome` actually run,
    in chunk order.  Implementations must preserve verdict semantics —
    the same configuration yields the same per-vertex verdicts
    regardless of scheduling — which the tier-1 property tests assert.
    """

    name = "executor"

    def execute(self, config, scheme, mapping, location, vertices, fail_fast):
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class SerialExecutor(VerificationExecutor):
    """In-process execution, one chunk at a time.

    ``chunk_size=None`` means one chunk per round — the legacy loop.
    Smaller chunks only add timing resolution; verdicts are unaffected.
    One :class:`ViewFactory` serves the whole round.
    """

    name = "serial"

    def __init__(self, chunk_size: Optional[int] = None):
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        self.chunk_size = chunk_size

    def execute(self, config, scheme, mapping, location, vertices, fail_fast):
        if not vertices:
            return []
        factory = ViewFactory(config, mapping, location)
        order = [factory.index_of(v) for v in vertices]
        chunk_size = self.chunk_size or max(1, len(vertices))
        outcomes = []
        for index, (start, stop) in enumerate(_ranges(len(order), chunk_size)):
            outcome = _run_range(
                factory, scheme, order, start, stop, index, fail_fast
            )
            outcomes.append(outcome)
            if fail_fast and outcome.rejected:
                break
        return outcomes


# ----------------------------------------------------------------------
# Executors by name.  The vectorized executor lives in
# ``repro.api.vectorized`` (optional numpy) and is imported on first
# request, so ``repro.api.runtime`` stays numpy-free.


_EXECUTOR_NAMES = ("serial", "vectorized")


def make_executor(name: str, **kwargs) -> VerificationExecutor:
    """Build an executor by name: ``serial`` or ``vectorized``.

    Names are matched case-insensitively after stripping whitespace.
    Raises ``ValueError`` for any other name.
    """
    key = name.strip().lower()
    if key == "serial":
        return SerialExecutor(**kwargs)
    if key == "vectorized":
        from repro.api.vectorized import VectorizedExecutor

        return VectorizedExecutor(**kwargs)
    raise ValueError(
        f"unknown executor {name!r}; known: {list(_EXECUTOR_NAMES)}"
    )


def executor_names() -> list:
    """Every name :func:`make_executor` accepts."""
    return list(_EXECUTOR_NAMES)


# ----------------------------------------------------------------------
# The engine.


class VerificationEngine:
    """Runs verification rounds under one scheduling/short-circuit policy.

        engine = VerificationEngine(make_executor("vectorized"))
        report = engine.verify(config, scheme, labeling)
        report.accepted, report.views_built, report.chunks

    The inputs can come from a live ``certify`` call *or* from a
    :class:`~repro.api.store.CertificateStore` load — the engine only
    sees (configuration, verifier, labeling) and never runs a prover
    stage.

    Parameters
    ----------
    executor:
        A :class:`VerificationExecutor`; defaults to
        :class:`SerialExecutor`.
    fail_fast:
        Stop at the first rejection instead of collecting every verdict.
        The right mode for audits (only the accept bit matters); the
        wrong mode for diagnosing *which* vertices reject.
    """

    def __init__(
        self,
        executor: Optional[VerificationExecutor] = None,
        fail_fast: bool = False,
    ):
        self.executor = executor or SerialExecutor()
        self.fail_fast = fail_fast

    def __repr__(self) -> str:
        return (
            f"VerificationEngine(executor={self.executor!r}, "
            f"fail_fast={self.fail_fast})"
        )

    def verify(
        self,
        config: Configuration,
        scheme: ProofLabelingScheme,
        labeling: Labeling,
    ) -> VerificationReport:
        """Run one verification round and report it."""
        if labeling.location != scheme.label_location:
            raise ValueError(
                f"labeling location {labeling.location!r} does not match "
                f"the scheme's {scheme.label_location!r}"
            )
        # Deterministic order: executors must agree on which vertex a
        # fail_fast round reaches first, up to chunk granularity.
        vertices = sorted(config.graph.vertices(), key=repr)
        # Executors that persist compiled rounds key them on the
        # labeling's wire digest; offer it before the round (duck-typed,
        # mirroring the session's artifact-cache handoff).
        offer = getattr(self.executor, "offer_labeling", None)
        if callable(offer):
            offer(labeling)
        start = perf_counter()
        outcomes = self.executor.execute(
            config,
            scheme,
            labeling.mapping,
            labeling.location,
            vertices,
            self.fail_fast,
        )
        elapsed = perf_counter() - start

        verdicts: dict = {}
        exception_rejections: list = []
        kernel_stats: Optional[dict] = None
        for outcome in outcomes:
            verdicts.update(outcome.verdicts)
            exception_rejections.extend(outcome.exception_vertices)
            if outcome.kernel_stats is not None:
                if kernel_stats is None:
                    kernel_stats = dict(outcome.kernel_stats)
                else:
                    for key, value in outcome.kernel_stats.items():
                        if isinstance(value, (int, float)) and isinstance(
                            kernel_stats.get(key), (int, float)
                        ):
                            kernel_stats[key] += value
                        else:
                            kernel_stats.setdefault(key, value)
        rejecting = [v for v, ok in verdicts.items() if not ok]
        exception_set = set(exception_rejections)
        accepted = not rejecting and len(verdicts) == len(vertices)
        views_built = sum(o.views_built for o in outcomes)
        return VerificationReport(
            accepted=accepted,
            verdicts=verdicts,
            vertices_total=len(vertices),
            views_built=views_built,
            verdict_rejections=tuple(
                sorted(
                    (v for v in rejecting if v not in exception_set),
                    key=repr,
                )
            ),
            exception_rejections=tuple(sorted(exception_set, key=repr)),
            executor=self.executor.name,
            fail_fast=self.fail_fast,
            # Verdict coverage, not views_built: the vectorized
            # executors decide most vertices without building a view.
            short_circuited=self.fail_fast and len(verdicts) < len(vertices),
            chunks=tuple(
                ChunkTiming(o.index, o.size, o.views_built, o.seconds)
                for o in outcomes
            ),
            elapsed_seconds=elapsed,
            kernel_stats=kernel_stats,
        )


def verify_labeling(
    config: Configuration,
    scheme: ProofLabelingScheme,
    labeling: Labeling,
    engine: Optional[VerificationEngine] = None,
) -> VerificationReport:
    """One-call verification round under ``engine`` (default: serial)."""
    return (engine or VerificationEngine()).verify(config, scheme, labeling)
