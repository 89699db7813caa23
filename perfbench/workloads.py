"""The benchmark's four workloads.

Every workload draws its inputs from the ``--seed`` it is given (the
same seed gives the same hosts, requests and edits) and hands the
program only those generated inputs.  An op is one unit of work in a
closed loop with a single caller:

* ``certify-lanewidth`` / ``certify-pathwidth`` -- certify one fresh host
  for four properties through a fresh session, vectorized engine,
  artifact cache and store (prove, encode, save, compile, verify);
* ``reverify-stored`` -- one request against a store filled at set-up:
  load the certificate, then verify it on a long-lived vectorized engine
  that holds the store's artifact cache.  Every fourth request checks
  the stored labels against the host with one bridge removed, where the
  round must reject;
* ``edit-stream`` -- one ``IncrementalCertifier.update`` batch on one of
  several long-lived certifiers taking ops in turn: three vertex relabels
  to one structural batch on each.

Each workload checks every op's verdict against an independent answer
(:mod:`checker`).
"""

from __future__ import annotations

import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

from repro.api import (
    CertificateStore,
    CertificationSession,
    VectorizedExecutor,
    VerificationEngine,
)
from repro.experiments import lanewidth_workload, property_truth
from repro.graphs import EditBatch
from repro.graphs.edits import add_edge, remove_edge, set_vertex_label
from repro.graphs.generators import random_pathwidth_graph
from repro.incremental import IncrementalCertifier, witness_decomposer
from repro.pathwidth import PathDecomposition
from repro.pls.model import Configuration

import checker

#: The certify workloads' property batch.
CERTIFY_PROPERTIES = ("connected", "even-order", "bipartite", "acyclic")
#: The store and edit-stream property batch.
STREAM_PROPERTIES = ("connected", "even-order")

LANEWIDTH = 3
LANEWIDTH_N = 512
PATHWIDTH_K = 2
PATHWIDTH_N = 128
#: Authorizes the default branch-and-bound engine above its exact-size
#: gate, seeded with the heuristic's ordering.  The heuristic alone leaves
#: about one host in four (7 of 30 at n=128) without a width-2 witness,
#: which would be undecided ops; the budgeted search finds one on every
#: host.  ``pathwidth.heuristic_misses`` keeps counting the misses.
PATHWIDTH_EXACT_BUDGET_MS = 2000.0


class SetupError(RuntimeError):
    """A workload's set-up did not produce what its ops rely on."""


def rng_for(seed: int, *path) -> random.Random:
    """A generator determined by the workload seed and a purpose path."""
    return random.Random("/".join(str(part) for part in (seed,) + path))


def seed_for(seed: int, *path) -> int:
    return rng_for(seed, *path).getrandbits(63)


def bridges(graph) -> list:
    """Every bridge of ``graph`` as a ``(u, v)`` pair (iterative lowlink)."""
    index: dict = {}
    low: dict = {}
    found = []
    for root in graph.vertices():
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack = [(root, None, iter(graph.neighbors_sorted(root)))]
        while stack:
            vertex, parent, neighbours = stack[-1]
            for other in neighbours:
                if other == parent:
                    continue
                if other in index:
                    low[vertex] = min(low[vertex], index[other])
                else:
                    index[other] = low[other] = len(index)
                    stack.append(
                        (other, vertex, iter(graph.neighbors_sorted(other)))
                    )
                    break
            else:
                stack.pop()
                if parent is not None:
                    low[parent] = min(low[parent], low[vertex])
                    if low[vertex] > index[parent]:
                        found.append((parent, vertex))
    return found


def vectorized_engine(artifacts=None) -> VerificationEngine:
    return VerificationEngine(VectorizedExecutor(artifacts=artifacts))


@dataclass
class OpInput:
    """One op's generated input plus what its verdict check needs."""

    target: Any
    expected: Any  # truth dict, or the round verdict expected
    id_seed: int = 0
    store_root: Optional[Path] = None


class Workload:
    """Set-up, op generation, the timed op, and its verdict check."""

    name = ""
    #: Ops per alternating traced/untraced block in a traced run.
    block = 1

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work

    def setup(self) -> None:
        """Build what every op relies on (counted in ``setup_s``)."""

    def warm_up(self) -> None:
        """One op on an extra host (counted in ``setup_s``)."""
        raise NotImplementedError

    def make_input(self, i: int) -> OpInput:
        raise NotImplementedError

    def run(self, op: OpInput):
        """The timed op."""
        raise NotImplementedError

    def check(self, op: OpInput, outcome) -> str:
        raise NotImplementedError

    def cleanup(self, op: OpInput) -> None:
        if op.store_root is not None:
            shutil.rmtree(op.store_root, ignore_errors=True)

    def label_bits(self, outcome) -> list:
        """``(mean, max)`` label bits of each certificate the op handled."""
        return []

    def record(self, tracer, outcome) -> None:
        """Counters read from the op's own report (traced ops only)."""

    def finish(self) -> bool:
        """Checks after the timed region; False marks the run incorrect."""
        return True


# ----------------------------------------------------------------------
class _Certify(Workload):
    k: Optional[int] = None
    exact_budget_ms: Optional[float] = None

    def host(self, seed: int, small: bool = False):
        """``(target, graph)`` for one host."""
        raise NotImplementedError

    def _input(self, host_seed: int, id_seed: int, root: Path, small=False):
        target, graph = self.host(host_seed, small)
        return OpInput(target, property_truth(graph), id_seed, root)

    def warm_up(self) -> None:
        op = self._input(
            seed_for(self.seed, self.name, "warm-up"), 0,
            self.work / "warm-up", small=True,
        )
        outcome = self.run(op)
        self.cleanup(op)
        if self.check(op, outcome) != checker.OK:
            raise SetupError(f"{self.name}: the warm-up op failed its check")

    def make_input(self, i: int) -> OpInput:
        return self._input(
            seed_for(self.seed, self.name, "host", i),
            seed_for(self.seed, self.name, "ids", i),
            self.work / f"op-{i}",
        )

    def run(self, op: OpInput):
        session = CertificationSession(
            k=self.k,
            exact_budget_ms=self.exact_budget_ms,
            rng=random.Random(op.id_seed),
            engine=vectorized_engine(),
            store=CertificateStore(op.store_root),
        )
        return session.certify(op.target, list(CERTIFY_PROPERTIES))

    def check(self, op: OpInput, outcome) -> str:
        return checker.classify_certify(op.expected, outcome)

    def label_bits(self, outcome) -> list:
        return [
            (report.mean_label_bits, report.max_label_bits)
            for report in outcome.values()
            if not report.refused
        ]


class CertifyLanewidth(_Certify):
    """Native lanewidth mode: the sequence is its own witness."""

    name = "certify-lanewidth"

    def host(self, seed: int, small: bool = False):
        return lanewidth_workload(
            LANEWIDTH, LANEWIDTH_N // 8 if small else LANEWIDTH_N, seed
        )


class CertifyPathwidth(_Certify):
    """Theorem 1 mode on bare graphs: decompose, lanes and completion run."""

    name = "certify-pathwidth"
    k = PATHWIDTH_K
    exact_budget_ms = PATHWIDTH_EXACT_BUDGET_MS

    def host(self, seed: int, small: bool = False):
        graph, _bags = random_pathwidth_graph(
            PATHWIDTH_N // 4 if small else PATHWIDTH_N,
            PATHWIDTH_K,
            random.Random(seed),
        )
        return graph, graph


# ----------------------------------------------------------------------
class ReverifyStored(Workload):
    """Certify once at set-up, then serve load + verify requests."""

    name = "reverify-stored"
    block = 4  # one request cycle: three accepts, one reject
    #: Lanewidth hosts load in near-constant time; pathwidth hosts of the
    #: same load cost vary by +-40% with their lane structure.  Three of
    #: the first kind to one of the second keep the median request steady
    #: across seeds while both kinds are served.
    LANEWIDTH_HOST_N = 512
    LANEWIDTH_HOSTS = 3
    PATHWIDTH_HOST_N = 64
    PATHWIDTH_HOSTS = 1

    def setup(self) -> None:
        self.root = self.work / "store"
        store = CertificateStore(self.root)
        self.hosts = []
        for j in range(self.LANEWIDTH_HOSTS):
            sequence, graph = lanewidth_workload(
                LANEWIDTH, self.LANEWIDTH_HOST_N,
                seed_for(self.seed, self.name, "lanewidth", j),
            )
            self._store(store, sequence, graph, None, ("lanewidth", j))
            self.hosts.append(graph)
        for j in range(self.PATHWIDTH_HOSTS):
            graph, bags = random_pathwidth_graph(
                self.PATHWIDTH_HOST_N, PATHWIDTH_K,
                rng_for(self.seed, self.name, "pathwidth", j),
            )
            decomposer = witness_decomposer(PathDecomposition(graph, bags))
            self._store(store, graph, graph, decomposer, ("pathwidth", j))
            self.hosts.append(graph)
        # The warm-up request reads an extra host the timed ops never touch.
        sequence, self.warm_host = lanewidth_workload(
            LANEWIDTH, 64, seed_for(self.seed, self.name, "warm-up")
        )
        self._store(store, sequence, self.warm_host, None, ("warm-up",))
        self.entries = [
            (graph, key) for graph in self.hosts for key in STREAM_PROPERTIES
        ]
        self.cuts = []  # (host, bridges in a seeded order)
        for j, graph in enumerate(self.hosts):
            found = bridges(graph)
            rng_for(self.seed, self.name, "bridges", j).shuffle(found)
            if found:
                self.cuts.append((graph, found))
        if not self.cuts:
            raise SetupError(f"{self.name}: no stored host has a bridge")
        self.engine = vectorized_engine(
            CertificateStore(self.root).artifact_cache()
        )

    def _store(self, store, target, graph, decomposer, purpose) -> None:
        session = CertificationSession(
            k=PATHWIDTH_K if decomposer is not None else None,
            decomposer=decomposer,
            rng=rng_for(self.seed, self.name, "ids", *purpose),
            engine=vectorized_engine(),
            store=store,
        )
        reports = session.certify(target, list(STREAM_PROPERTIES))
        if not all(r.accepted and not r.refused for r in reports.values()):
            raise SetupError(f"{self.name}: a stored host was not certified")

    def warm_up(self) -> None:
        op = OpInput((self.warm_host.fingerprint(), "connected", None), True)
        if self.check(op, self.run(op)) != checker.OK:
            raise SetupError(f"{self.name}: the warm-up request failed")

    def make_input(self, i: int) -> OpInput:
        cycle, slot = divmod(i, 4)
        if slot == 3:
            graph, found = self.cuts[cycle % len(self.cuts)]
            u, v = found[(cycle // len(self.cuts)) % len(found)]
            cut = graph.copy()
            cut.remove_edge(u, v)
            return OpInput((graph.fingerprint(), "connected", cut), False)
        graph, key = self.entries[(3 * cycle + slot) % len(self.entries)]
        return OpInput((graph.fingerprint(), key, None), True)

    def run(self, op: OpInput):
        fingerprint, key, cut = op.target
        report = CertificateStore(self.root).load(fingerprint, key)
        config = (
            report.config if cut is None
            else Configuration(cut, report.config.ids)
        )
        return report, self.engine.verify(config, report.scheme, report.labeling)

    def check(self, op: OpInput, outcome) -> str:
        if not isinstance(outcome, BaseException):
            outcome = outcome[1].accepted
        return checker.classify_round(op.expected, outcome)

    def label_bits(self, outcome) -> list:
        report = outcome[0]
        return [(report.mean_label_bits, report.max_label_bits)]


# ----------------------------------------------------------------------
class EditStream(Workload):
    """Long-lived certifiers absorbing relabels and structural batches."""

    name = "edit-stream"
    #: Independent streams served round-robin.  One host's relabels cost
    #: the same within a run but differ by +-30% between hosts (they scale
    #: with the host's label bits), so many hosts per run keep the median
    #: steady across seeds.
    STREAMS = 16
    HOST_N = 64
    #: One mix cycle on every stream: a structural batch, then three
    #: relabels.
    block = 4 * STREAMS

    def _certifier(self, n: int, purpose):
        graph, bags = random_pathwidth_graph(
            n, PATHWIDTH_K, rng_for(self.seed, self.name, purpose, "host")
        )
        certifier = IncrementalCertifier(
            graph,
            list(STREAM_PROPERTIES),
            k=PATHWIDTH_K,
            decomposer=witness_decomposer(PathDecomposition(graph, bags)),
            rng=rng_for(self.seed, self.name, purpose, "ids"),
        )
        if not certifier.baseline().accepted:
            raise SetupError(f"{self.name}: the baseline was not accepted")
        return certifier

    def setup(self) -> None:
        self.streams = [
            self._certifier(self.HOST_N, j) for j in range(self.STREAMS)
        ]
        self.edits = rng_for(self.seed, self.name, "edits")
        self.last = [None] * self.STREAMS

    def warm_up(self) -> None:
        certifier = self._certifier(self.HOST_N // 2, "warm-up")
        batch = self._structural(certifier, rng_for(self.seed, "warm-up"))
        report = certifier.update(batch)
        if self._class(certifier, report) != checker.OK:
            raise SetupError(f"{self.name}: the warm-up update failed")

    @staticmethod
    def _structural(certifier, rng) -> EditBatch:
        """Remove a non-bridge edge; add an edge inside one bag."""
        graph = certifier.graph
        cut = {frozenset(edge) for edge in bridges(graph)}
        removable = sorted(
            (edge for edge in graph.edges() if frozenset(edge) not in cut),
            key=repr,
        )
        if not removable:
            raise SetupError("no edge can go without disconnecting the host")
        lost = rng.choice(removable)
        spare = sorted(
            {
                (u, v)
                for bag in certifier.decomposition.bags
                for u in bag
                for v in bag
                if u < v and not graph.has_edge(u, v)
            }
        )
        if not spare:
            raise SetupError("no bag has room for another edge")
        return EditBatch([remove_edge(*lost), add_edge(*rng.choice(spare))])

    def make_input(self, i: int) -> OpInput:
        stream = i % self.STREAMS
        certifier = self.streams[stream]
        if (i // self.STREAMS) % 4 == 0:
            batch = self._structural(certifier, self.edits)
        else:
            vertex = self.edits.choice(sorted(certifier.graph.vertices()))
            batch = EditBatch([set_vertex_label(vertex, self.edits.randint(0, 9))])
        return OpInput((stream, batch), None)

    def run(self, op: OpInput):
        stream, batch = op.target
        return self.streams[stream].update(batch)

    @staticmethod
    def _class(certifier, outcome) -> str:
        if isinstance(outcome, BaseException):
            return checker.RAISED
        truth = property_truth(certifier.graph)
        return checker.classify_certify(
            {key: truth[key] for key in STREAM_PROPERTIES}, outcome.reports
        )

    def check(self, op: OpInput, outcome) -> str:
        stream, _batch = op.target
        verdict = self._class(self.streams[stream], outcome)
        if verdict == checker.OK:
            self.last[stream] = outcome
        return verdict

    def label_bits(self, outcome) -> list:
        return [
            (report.mean_label_bits, report.max_label_bits)
            for report in outcome.reports.values()
            if not report.refused
        ]

    def record(self, tracer, outcome) -> None:
        tracer.count("incremental.stages_run", outcome.stages_run)
        tracer.count("incremental.artifacts_reused", outcome.artifacts_reused)
        tracer.count(
            "incremental.region_vertices",
            sum(round_.region_size for round_ in outcome.rounds.values()),
        )
        tracer.count("incremental.full_fallbacks", outcome.mode == "fallback")

    def finish(self) -> bool:
        """Each stream's final state equals a cold certify of its graph.

        Same witness bags and identifiers, fresh session: verdict,
        measured label bits and class count must all agree.
        """

        def facts(report):
            return (report.refused, report.accepted, report.class_count,
                    report.total_label_bits)

        for certifier, last in zip(self.streams, self.last):
            if last is None:
                continue
            session = CertificationSession(
                k=PATHWIDTH_K,
                decomposer=witness_decomposer(certifier.decomposition),
            )
            cold = session.certify(
                certifier.config, list(STREAM_PROPERTIES), verify=True
            )
            if any(
                facts(last.reports[key]) != facts(cold[key])
                for key in STREAM_PROPERTIES
            ):
                return False
        return True


WORKLOADS = {
    cls.name: cls
    for cls in (CertifyLanewidth, CertifyPathwidth, ReverifyStored, EditStream)
}
