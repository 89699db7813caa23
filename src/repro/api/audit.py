"""First-class adversarial audits: soundness campaigns as a library call.

A proof labeling scheme must reject *every* labeling of a non-satisfying
configuration.  The experiments probe this with generated attacks —
perturbing honest certificates, editing the graph under a fixed proof,
transplanting a proof onto the wrong graph — which benchmarks E6/E7 used
to hand-roll as inline loops.  This module makes a soundness campaign a
declarative object:

* an :class:`AuditCase` is one honest instance (configuration, scheme,
  honest labeling), typically produced per trial by a case factory;
* an :class:`AuditAttack` turns a case into adversarial instances —
  built-ins wrap the :mod:`repro.pls.adversary` generators (mutation,
  swap, drop, transplant) plus the graph-edit adversaries (edge removal
  and addition), and campaigns define their own by subclassing;
* an :class:`AuditPlan` runs attacks × trials through a
  :class:`~repro.api.runtime.VerificationEngine` (``fail_fast`` by
  default — an audit needs only the accept bit) and returns an
  :class:`AuditReport` with per-attack tallies and per-attempt records.

Every random choice derives from one root seed through named streams
(:func:`derive_rng`), so an entire campaign replays from a single
integer regardless of trial count or attack order.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Optional

from repro.graphs import edge_key
from repro.pls.adversary import (
    corrupt_one_label,
    drop_one_label,
    swap_two_labels,
    transplant_labels,
)
from repro.pls.model import Configuration
from repro.pls.scheme import Labeling

from repro.api.runtime import SerialExecutor, VerificationEngine


# ----------------------------------------------------------------------
# Seeded streams.


def derive_seed(root: int, *path) -> int:
    """Derive a 64-bit seed for the named stream under ``root``.

    Streams are independent for distinct paths and stable across runs
    and platforms (blake2b of the rendered path), so adding an attack or
    reordering trials never perturbs another stream's randomness.
    """
    rendered = "/".join([str(root), *map(str, path)])
    digest = hashlib.blake2b(rendered.encode("utf-8"), digest_size=8)
    return int.from_bytes(digest.digest(), "big")


def derive_rng(root: int, *path) -> random.Random:
    """A fresh :class:`random.Random` on the named stream under ``root``."""
    return random.Random(derive_seed(root, *path))


# ----------------------------------------------------------------------
# Cases and attacks.


@dataclass(frozen=True)
class AuditCase:
    """One honest instance a campaign attacks."""

    config: Configuration
    scheme: object  # ProofLabelingScheme
    labeling: Labeling
    trial: int = 0


@dataclass(frozen=True)
class AdversarialInstance:
    """One forged (configuration, labeling) pair to run the round on.

    ``note`` is display-only prose; machine-readable facts about the
    forgery (e.g. a spliced cycle's length) belong in ``data``, which is
    carried verbatim onto the resulting :class:`AuditAttempt`.
    """

    config: Configuration
    labeling: Labeling
    note: str = ""
    data: dict = field(default_factory=dict)


class AuditAttack:
    """Generator of adversarial instances from one honest case.

    ``instances`` yields :class:`AdversarialInstance` objects, or
    ``None`` for an attempt that produced nothing to verify (a no-op
    mutation, a transplant with mismatched counts, a benign edit that
    left the predicate true) — skips are tallied, not silently dropped.
    """

    name = "attack"

    def instances(self, case: AuditCase, rng: random.Random):
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class MutationAttack(AuditAttack):
    """Perturb one certificate leaf, ``per_case`` times per trial."""

    name = "mutation"

    def __init__(self, per_case: int = 1):
        if per_case < 1:
            raise ValueError("per_case must be positive")
        self.per_case = per_case

    def instances(self, case, rng):
        for _ in range(self.per_case):
            bad = corrupt_one_label(case.labeling, rng)
            if bad.mapping == case.labeling.mapping:
                yield None  # mutation landed on a fixed point
                continue
            yield AdversarialInstance(case.config, bad, note="mutated label")


class SwapAttack(AuditAttack):
    """Exchange the certificates of two vertices/edges."""

    name = "swap"

    def __init__(self, per_case: int = 1):
        if per_case < 1:
            raise ValueError("per_case must be positive")
        self.per_case = per_case

    def instances(self, case, rng):
        for _ in range(self.per_case):
            bad = swap_two_labels(case.labeling, rng)
            if bad.mapping == case.labeling.mapping:
                yield None  # fewer than two keys, or equal labels drawn
                continue
            yield AdversarialInstance(case.config, bad, note="swapped labels")


class DropAttack(AuditAttack):
    """Replace one certificate by ``None``."""

    name = "drop"

    def __init__(self, per_case: int = 1):
        if per_case < 1:
            raise ValueError("per_case must be positive")
        self.per_case = per_case

    def instances(self, case, rng):
        for _ in range(self.per_case):
            bad = drop_one_label(case.labeling, rng)
            if bad.mapping == case.labeling.mapping:
                yield None
                continue
            yield AdversarialInstance(case.config, bad, note="dropped label")


class TransplantAttack(AuditAttack):
    """The classic "right proof, wrong graph" attack.

    ``targets`` maps ``(trial, rng)`` to the wrong
    :class:`Configuration`; the case's honest labels are applied to it
    position-wise (skipped when the counts differ — there is no sensible
    transplant).
    """

    name = "transplant"

    def __init__(self, targets: Callable[[int, random.Random], Configuration]):
        self.targets = targets

    def instances(self, case, rng):
        target = self.targets(case.trial, rng)
        if case.labeling.location == "vertices":
            keys = list(target.graph.vertices())
        else:
            keys = [edge_key(u, v) for u, v in target.graph.edges()]
        moved = transplant_labels(case.labeling, keys)
        if moved is None:
            yield None
            return
        yield AdversarialInstance(
            target, moved, note=f"transplanted onto n={target.graph.n}"
        )


class EdgeRemovalAttack(AuditAttack):
    """Delete one edge while keeping the proof; every edge is tried.

    ``still_true`` (``graph -> bool``) identifies edits that leave the
    predicate true — those are skips, not soundness cases.  Edge-located
    labelings are restricted to the surviving edges (the deleted edge's
    certificate has no carrier); vertex-located labelings ride along
    unchanged.
    """

    name = "edge-removal"

    def __init__(self, still_true: Optional[Callable] = None):
        self.still_true = still_true

    def instances(self, case, rng):
        labeling = case.labeling
        for u, v in sorted(case.config.graph.edges(), key=repr):
            edited = case.config.graph.copy()
            edited.remove_edge(u, v)
            if self.still_true is not None and self.still_true(edited):
                yield None
                continue
            if labeling.location == "edges":
                mapping = {
                    key: value
                    for key, value in labeling.mapping.items()
                    if edited.has_edge(*key)
                }
            else:
                mapping = dict(labeling.mapping)
            yield AdversarialInstance(
                Configuration(edited, case.config.ids),
                Labeling(labeling.location, mapping, labeling.size_context),
                note=f"removed edge {u}-{v}",
            )


class EdgeAdditionAttack(AuditAttack):
    """Add ``per_case`` random non-edges while keeping the proof.

    The new edge carries no certificate (its port reads ``None``), which
    is exactly what a verifier facing an unprovisioned link sees.
    ``still_true`` skips additions that leave the predicate true.
    """

    name = "edge-addition"

    def __init__(self, per_case: int = 1, still_true: Optional[Callable] = None):
        if per_case < 1:
            raise ValueError("per_case must be positive")
        self.per_case = per_case
        self.still_true = still_true

    def instances(self, case, rng):
        graph = case.config.graph
        vertices = sorted(graph.vertices(), key=repr)
        non_edges = [
            (a, b)
            for i, a in enumerate(vertices)
            for b in vertices[i + 1 :]
            if not graph.has_edge(a, b)
        ]
        for _ in range(self.per_case):
            if not non_edges:
                yield None
                continue
            u, v = non_edges.pop(rng.randrange(len(non_edges)))
            edited = graph.copy()
            edited.add_edge(u, v)
            if self.still_true is not None and self.still_true(edited):
                yield None
                continue
            yield AdversarialInstance(
                Configuration(edited, case.config.ids),
                case.labeling,
                note=f"added edge {u}-{v}",
            )


# ----------------------------------------------------------------------
# Plans and reports.


@dataclass(frozen=True)
class AuditAttempt:
    """One adversarial instance's fate (or a skip).

    ``data`` is the attack's structured payload
    (:attr:`AdversarialInstance.data`) — JSON-safe values only, so
    reports round-trip.
    """

    attack: str
    trial: int
    outcome: str  # "rejected" | "accepted" | "skipped"
    note: str = ""
    data: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "attack": self.attack,
            "trial": self.trial,
            "outcome": self.outcome,
            "note": self.note,
            "data": dict(self.data),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "AuditAttempt":
        return cls(
            attack=payload["attack"],
            trial=payload["trial"],
            outcome=payload["outcome"],
            note=payload.get("note", ""),
            data=dict(payload.get("data", {})),
        )


@dataclass(frozen=True)
class AttackTally:
    """Aggregate counts for one attack across a campaign."""

    attack: str
    attempted: int
    rejected: int
    accepted: int
    skipped: int

    @property
    def exercised(self) -> bool:
        """True when at least one adversarial instance was verified."""
        return self.attempted > 0

    @property
    def rejection_rate(self) -> float:
        """Fraction of attempts rejected (0.0 when nothing ran)."""
        return self.rejected / self.attempted if self.attempted else 0.0

    @property
    def all_rejected(self) -> bool:
        """Every attempt rejected — and at least one actually ran.

        An all-skips campaign is vacuous, not sound; check
        ``exercised``/``skipped`` to tell the two apart.
        """
        return self.exercised and self.accepted == 0

    def to_dict(self) -> dict:
        return {
            "attack": self.attack,
            "attempted": self.attempted,
            "rejected": self.rejected,
            "accepted": self.accepted,
            "skipped": self.skipped,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AttackTally":
        return cls(
            attack=data["attack"],
            attempted=data["attempted"],
            rejected=data["rejected"],
            accepted=data["accepted"],
            skipped=data["skipped"],
        )


@dataclass
class AuditReport:
    """The outcome of one audit campaign."""

    name: str
    root_seed: int
    trials: int
    tallies: dict  # attack name -> AttackTally, in attack order
    attempts: tuple  # AuditAttempt, in execution order
    elapsed_seconds: float = 0.0

    def tally(self, attack: str) -> AttackTally:
        return self.tallies[attack]

    def attempts_for(self, attack: str, trial: Optional[int] = None) -> list:
        """Attempt records for one attack (optionally one trial)."""
        return [
            a
            for a in self.attempts
            if a.attack == attack and (trial is None or a.trial == trial)
        ]

    @property
    def survivors(self) -> list:
        """Attempts whose forged instance was (wrongly or benignly) accepted."""
        return [a for a in self.attempts if a.outcome == "accepted"]

    @property
    def all_rejected(self) -> bool:
        """No survivors — and the campaign verified at least one instance."""
        return (
            any(t.exercised for t in self.tallies.values())
            and not self.survivors
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "root_seed": self.root_seed,
            "trials": self.trials,
            "tallies": {k: t.to_dict() for k, t in self.tallies.items()},
            "attempts": [a.to_dict() for a in self.attempts],
            "elapsed_seconds": self.elapsed_seconds,
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_dict(cls, data: dict) -> "AuditReport":
        return cls(
            name=data["name"],
            root_seed=data["root_seed"],
            trials=data["trials"],
            tallies={
                k: AttackTally.from_dict(t)
                for k, t in data["tallies"].items()
            },
            attempts=tuple(
                AuditAttempt.from_dict(a) for a in data["attempts"]
            ),
            elapsed_seconds=data.get("elapsed_seconds", 0.0),
        )

    def summary(self) -> str:
        lines = [f"audit {self.name!r} (root seed {self.root_seed}, "
                 f"{self.trials} trials):"]
        for tally in self.tallies.values():
            if not tally.exercised:
                lines.append(
                    f"  {tally.attack}: vacuous — nothing attempted "
                    f"({tally.skipped} skipped)"
                )
                continue
            lines.append(
                f"  {tally.attack}: {tally.rejected}/{tally.attempted} "
                f"rejected (rate {tally.rejection_rate:.3f}, "
                f"{tally.skipped} skipped)"
            )
        return "\n".join(lines)


@dataclass
class AuditPlan:
    """A declarative soundness campaign.

        plan = AuditPlan(case_factory=make_case,
                         attacks=[MutationAttack(per_case=6)],
                         trials=12, root_seed=6)
        report = plan.run()           # fail-fast serial engine by default
        report.all_rejected           # every attack attempt rejected?
        report.tally("mutation").rejection_rate

    Every random choice derives from ``root_seed`` through named
    streams, so a campaign replays bit-for-bit from one integer.

    Parameters
    ----------
    case_factory:
        ``(trial, rng) -> AuditCase`` building the honest instance for
        one trial; the rng is the trial's own derived stream.
    attacks:
        The :class:`AuditAttack` objects to mount on every case.
    trials:
        Number of honest cases to build and attack.
    root_seed:
        Root of every derived stream — the single knob that replays the
        whole campaign.
    name:
        Campaign label for reports.
    engine:
        Default verification engine for :meth:`run` — either a
        :class:`~repro.api.runtime.VerificationEngine` or a registered
        executor name (``"serial"`` or ``"vectorized"``), which is
        wrapped in a ``fail_fast`` engine.  ``None`` keeps the classic
        fail-fast serial default.  Whatever the engine, soundness
        verdicts are identical — the vectorized executor re-checks
        every kernel-flagged vertex
        through the reference path — so campaigns can run under the
        fast round without weakening the audit.
    """

    case_factory: Callable[[int, random.Random], AuditCase]
    attacks: list
    trials: int = 10
    root_seed: int = 0
    name: str = "audit"
    engine: object = None

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("an audit needs at least one trial")
        if not self.attacks:
            raise ValueError("an audit needs at least one attack")
        names = [a.name for a in self.attacks]
        if len(set(names)) != len(names):
            raise ValueError(f"attack names must be distinct (got {names})")
        # "/" is the stream-path separator: a name containing it could
        # alias another stream's derivation and silently correlate the
        # two randomness sources.  The campaign name sits on the same
        # derivation path, so it gets the same check.
        for name in names + [self.name]:
            if "/" in name:
                raise ValueError(
                    f"attack/campaign name {name!r} must not contain '/'"
                )

    def case_rng(self, trial: int) -> random.Random:
        """The derived stream the trial's honest case is built from.

        Namespaced apart from the attack streams so no attack name can
        alias it.
        """
        return derive_rng(self.root_seed, self.name, "case", trial)

    def attack_rng(self, attack: AuditAttack, trial: int) -> random.Random:
        """The derived stream one (attack, trial) pair draws from."""
        return derive_rng(
            self.root_seed, self.name, "attack", attack.name, trial
        )

    def resolve_engine(self, engine=None) -> VerificationEngine:
        """Materialize the engine ``run`` will use.

        Precedence: the ``engine`` argument, then the plan's ``engine``
        field, then the classic fail-fast serial default.  Strings name
        a registered executor and get a fail-fast engine around it.
        """
        chosen = engine if engine is not None else self.engine
        if chosen is None:
            return VerificationEngine(SerialExecutor(), fail_fast=True)
        if isinstance(chosen, str):
            from repro.api.runtime import make_executor

            return VerificationEngine(make_executor(chosen), fail_fast=True)
        return chosen

    def run(self, engine=None) -> AuditReport:
        """Execute the campaign and tally the verdicts.

        The default engine is serial with ``fail_fast`` — an audit needs
        only the accept bit, so short-circuiting on the first rejecting
        vertex is pure win.  Pass an engine (or a registered executor
        name such as ``"vectorized"``) to override the plan's default.
        """
        engine = self.resolve_engine(engine)
        start = perf_counter()
        attempts: list = []
        counts = {
            attack.name: {"rejected": 0, "accepted": 0, "skipped": 0}
            for attack in self.attacks
        }
        for trial in range(self.trials):
            case = self.case_factory(trial, self.case_rng(trial))
            for attack in self.attacks:
                rng = self.attack_rng(attack, trial)
                for instance in attack.instances(case, rng):
                    if instance is None:
                        counts[attack.name]["skipped"] += 1
                        attempts.append(
                            AuditAttempt(attack.name, trial, "skipped")
                        )
                        continue
                    report = engine.verify(
                        instance.config, case.scheme, instance.labeling
                    )
                    outcome = "rejected" if not report.accepted else "accepted"
                    counts[attack.name][outcome] += 1
                    attempts.append(
                        AuditAttempt(
                            attack.name,
                            trial,
                            outcome,
                            instance.note,
                            dict(instance.data),
                        )
                    )
        tallies = {
            attack.name: AttackTally(
                attack=attack.name,
                attempted=counts[attack.name]["rejected"]
                + counts[attack.name]["accepted"],
                rejected=counts[attack.name]["rejected"],
                accepted=counts[attack.name]["accepted"],
                skipped=counts[attack.name]["skipped"],
            )
            for attack in self.attacks
        }
        return AuditReport(
            name=self.name,
            root_seed=self.root_seed,
            trials=self.trials,
            tallies=tallies,
            attempts=tuple(attempts),
            elapsed_seconds=perf_counter() - start,
        )
