"""The homomorphism-class algebra interface (Proposition 2.4, constructive).

A :class:`BoundedAlgebra` is a finite-state abstraction of boundaried
graphs: its states are the homomorphism classes ``C`` of Proposition 2.4,
and its four operations are the composition functions.  The contract —
checked extensively by differential tests against
:class:`WholeGraphAlgebra` — is:

    for every op sequence ``S``:
        algebra.accepts(S.run_algebra(algebra))
        ==  property(S.run_reference().real_subgraph())

Slot conventions follow :class:`repro.courcelle.boundary.BoundariedGraph`:
``join`` keeps the left operand's slots and appends the right operand's
non-glued slots in increasing order; ``forget(keep)`` maps result slot
``r`` to old slot ``keep[r]``.

Virtual edges (tag ``"virtual"``) are completion scaffolding from the
Theorem 1 pipeline and are invisible to property algebras: the base-class
``add_edge`` filters them before calling ``_add_real_edge``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

from repro.courcelle.boundary import VIRTUAL, BoundariedGraph


class AlgebraCapacityError(ValueError):
    """An algebra cannot represent a boundary this wide.

    Table-based algebras cap their boundary arity (their state is
    exponential in it).  Hitting the cap says nothing about whether the
    property holds, so the prover reports it as a refusal of that one
    property.
    """


class BoundedAlgebra(ABC):
    """Finite-state algebra over boundaried graphs for one property."""

    #: short identifier used in registries and labels
    key: str = "abstract"

    # ------------------------------------------------------------------
    @abstractmethod
    def new_vertices(self, count: int):
        """Return the state of ``count`` fresh isolated boundary vertices."""

    def add_edge(self, state, a: int, b: int, tag: Optional[str] = None):
        """Return the state after adding an edge between slots ``a``, ``b``.

        Virtual edges do not exist for the property being decided, so they
        are dropped here once for all algebras.
        """
        if tag == VIRTUAL:
            return state
        return self._add_real_edge(state, a, b)

    @abstractmethod
    def _add_real_edge(self, state, a: int, b: int):
        """Return the state after adding a *real* edge between two slots."""

    @abstractmethod
    def join(self, state1, arity1: int, state2, arity2: int, identify: tuple):
        """Return the state of the gluing (see module docstring for slots)."""

    @abstractmethod
    def forget(self, state, arity: int, keep: tuple):
        """Return the state with boundary restricted/reordered to ``keep``."""

    @abstractmethod
    def accepts(self, state, arity: int) -> bool:
        """Return the property verdict for the completed graph."""

    # ------------------------------------------------------------------
    def state_fingerprint(self, state) -> str:
        """Return a short stable string naming the state (for certificates).

        Homomorphism classes are finite for fixed arity, so a stable
        fingerprint is an honest stand-in for the ``O(log |C|)``-bit class
        index the paper's labels carry.  The fingerprint is computed over
        :func:`canonical_state_repr`, so equal states hash identically in
        every process — including states that were pickled across a
        worker-pool boundary, where raw ``repr`` of set-like containers
        is not guaranteed to enumerate in the same order.
        """
        import hashlib

        return hashlib.sha256(
            canonical_state_repr(state).encode()
        ).hexdigest()[:16]


def canonical_state_repr(state) -> str:
    """Return a deterministic textual form of an algebra state.

    Equal states must yield equal strings in every process: the class
    indexer, the wire header's state dictionary, and the artifact cache
    all key on this form.  Plain ``repr`` fails that contract for
    ``set``/``frozenset`` (iteration order follows the hash table, which
    can differ after a pickle round-trip or under hash randomization),
    and for ``dict`` (insertion order).  Containers are therefore
    rewritten recursively with sorted, canonical elements; atoms fall
    back to ``repr``.
    """
    # Each container form carries a distinct prefix so the rewriting
    # stays injective across types (set() and {} must not collide).
    # Containers recurse only for container elements: atoms take the
    # ``repr`` shortcut inline, which keeps the common case (tuples of
    # ints/strings) one call deep.
    if type(state) is tuple:
        return (
            "("
            + ",".join(
                [
                    canonical_state_repr(item)
                    if isinstance(item, _CONTAINER_TYPES)
                    else repr(item)
                    for item in state
                ]
            )
            + ",)"
        )
    if isinstance(state, (set, frozenset)):
        inner = sorted([canonical_state_repr(item) for item in state])
        return "s{" + ",".join(inner) + "}"
    if isinstance(state, dict):
        items = sorted(
            (canonical_state_repr(k), canonical_state_repr(v))
            for k, v in state.items()
        )
        return "d{" + ",".join([f"{k}:{v}" for k, v in items]) + "}"
    if isinstance(state, tuple):
        return (
            "("
            + ",".join([canonical_state_repr(item) for item in state])
            + ",)"
        )
    if isinstance(state, list):
        return (
            "["
            + ",".join([canonical_state_repr(item) for item in state])
            + "]"
        )
    return repr(state)


_CONTAINER_TYPES = (set, frozenset, dict, tuple, list)


def join_slot_map(arity1: int, arity2: int, identify: tuple) -> dict:
    """Return the map from right-operand slots to result slots.

    Left-operand slots keep their indices; glued right slots map onto their
    partners; non-glued right slots are appended in increasing order.
    """
    glue_map = {j: i for i, j in identify}
    glued_right = set(glue_map)
    result = {}
    next_slot = arity1
    for j in range(arity2):
        if j in glued_right:
            result[j] = glue_map[j]
        else:
            result[j] = next_slot
            next_slot += 1
    return result


# ----------------------------------------------------------------------
# Ground truth
# ----------------------------------------------------------------------
class WholeGraphAlgebra(BoundedAlgebra):
    """The trivial (infinite-state) algebra: the state is the graph itself.

    Exists purely as differential-testing ground truth: every finite-state
    algebra must agree with ``WholeGraphAlgebra(same property checker)`` on
    every op sequence.  ``accepts`` evaluates the checker on the real-edge
    spanning subgraph, matching the Theorem 1 semantics.
    """

    key = "whole-graph"

    def __init__(self, checker):
        self.checker = checker

    def new_vertices(self, count: int):
        return BoundariedGraph.new(count)

    def add_edge(self, state, a: int, b: int, tag: Optional[str] = None):
        # Keep virtual edges in the reference graph (real_subgraph drops
        # them at acceptance time); property algebras never see them.
        return state.add_edge(a, b, tag)

    def _add_real_edge(self, state, a: int, b: int):  # pragma: no cover
        return state.add_edge(a, b)

    def join(self, state1, arity1, state2, arity2, identify):
        return state1.join(state2, identify)

    def forget(self, state, arity, keep):
        return state.forget(keep)

    def accepts(self, state, arity) -> bool:
        return bool(self.checker(state.real_subgraph()))


# ----------------------------------------------------------------------
# Combinators
# ----------------------------------------------------------------------
class ProductAlgebra(BoundedAlgebra):
    """Run several algebras in lockstep; accept by conjunction (default).

    The product of homomorphism-class functions is again one (classes
    multiply), which is how the paper certifies conjunctions such as
    ``φ ∧ (pathwidth ≤ k)`` in one pass.
    """

    def __init__(self, algebras: list, mode: str = "and"):
        if mode not in ("and", "or"):
            raise ValueError("mode must be 'and' or 'or'")
        self.algebras = list(algebras)
        self.mode = mode
        self.key = f"product-{mode}(" + ",".join(a.key for a in self.algebras) + ")"

    def new_vertices(self, count: int):
        return tuple(a.new_vertices(count) for a in self.algebras)

    def _add_real_edge(self, state, a: int, b: int):
        return tuple(
            alg._add_real_edge(s, a, b) for alg, s in zip(self.algebras, state)
        )

    def join(self, state1, arity1, state2, arity2, identify):
        return tuple(
            alg.join(s1, arity1, s2, arity2, identify)
            for alg, s1, s2 in zip(self.algebras, state1, state2)
        )

    def forget(self, state, arity, keep):
        return tuple(
            alg.forget(s, arity, keep) for alg, s in zip(self.algebras, state)
        )

    def accepts(self, state, arity) -> bool:
        verdicts = (
            alg.accepts(s, arity) for alg, s in zip(self.algebras, state)
        )
        if self.mode == "and":
            return all(verdicts)
        return any(verdicts)


# ----------------------------------------------------------------------
# Partition utilities shared by the connectivity-flavored algebras
# ----------------------------------------------------------------------
def canonical_partition(blocks) -> tuple:
    """Return the canonical form of a partition of slot indices."""
    return tuple(sorted(tuple(sorted(block)) for block in blocks))


def singleton_partition(count: int) -> tuple:
    """Return the partition of ``0..count-1`` into singletons."""
    return tuple((i,) for i in range(count))


def merge_partition_blocks(partition: tuple, a: int, b: int) -> tuple:
    """Return the partition with the blocks of ``a`` and ``b`` united."""
    block_a = next(block for block in partition if a in block)
    if b in block_a:
        return partition
    block_b = next(block for block in partition if b in block)
    rest = [block for block in partition if block not in (block_a, block_b)]
    rest.append(tuple(sorted(set(block_a) | set(block_b))))
    return canonical_partition(rest)


def same_block(partition: tuple, a: int, b: int) -> bool:
    """Return whether slots ``a`` and ``b`` share a block."""
    return any(a in block and b in block for block in partition)


def relabel_partition(partition: tuple, mapping: dict) -> tuple:
    """Apply ``mapping`` to every slot; slots absent from it are dropped.

    Returns ``(new_partition, dropped_blocks)`` where ``dropped_blocks``
    counts the blocks that lost *all* their slots.
    """
    new_blocks = []
    dropped = 0
    for block in partition:
        mapped = tuple(sorted(mapping[s] for s in block if s in mapping))
        if mapped:
            new_blocks.append(mapped)
        else:
            dropped += 1
    return canonical_partition(new_blocks), dropped
