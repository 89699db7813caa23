"""Core undirected graph data structure.

The paper models a communication network as a connected undirected graph
``G = (V, E)`` whose vertices carry O(log n)-bit identifiers and whose
vertices and edges may carry *input labels* drawn from a fixed finite set
(Section 1.1 and the remark after Proposition 2.4).  :class:`Graph` captures
exactly that: hashable, sortable vertex names, an adjacency-set
representation, and optional finite input labels on vertices and edges.

Edges are identified by :func:`edge_key`, the sorted vertex pair, so that
``{u, v}`` and ``{v, u}`` name the same edge.

Reads are served by an immutable CSR snapshot
(:class:`repro.graphs.csr.CSRAdjacency`) built lazily on first use and
invalidated by structural mutation: sorted vertex/edge lists, sorted
neighbor rows, degrees, and stable edge indices all come from the same
contiguous arrays instead of being re-derived per call.  The dict-of-sets
adjacency remains the construction-time representation.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Hashable, Iterable, Iterator
from typing import Optional

from repro.graphs.csr import CSRAdjacency

Vertex = Hashable
Edge = tuple


def edge_key(u: Vertex, v: Vertex) -> Edge:
    """Return the canonical name of the undirected edge ``{u, v}``.

    The canonical name is the pair sorted by ``repr``-stable ordering, so
    ``edge_key(u, v) == edge_key(v, u)``.  Vertices must be mutually
    orderable (ints everywhere in this code base).

    >>> edge_key(3, 1)
    (1, 3)
    """
    if u == v:
        raise ValueError(f"self-loop {u!r} is not a valid edge")
    return (u, v) if u <= v else (v, u)  # type: ignore[operator]


class Graph:
    """A finite, simple, undirected graph with optional input labels.

    Parameters
    ----------
    vertices:
        Optional iterable of initial vertices.
    edges:
        Optional iterable of ``(u, v)`` pairs; endpoints are added
        automatically.

    The class deliberately exposes a small, explicit API (adjacency sets,
    BFS utilities, component extraction) rather than wrapping a third-party
    library: the certification algorithms in :mod:`repro.core` need precise
    control over vertex identity and edge labels, and the verifier must be
    auditable down to the data structure.
    """

    __slots__ = (
        "_adj",
        "_vertex_labels",
        "_edge_labels",
        "_m",
        "_csr",
        "_labels_version",
        "_fp_cache",
    )

    def __init__(
        self,
        vertices: Optional[Iterable[Vertex]] = None,
        edges: Optional[Iterable[tuple]] = None,
    ) -> None:
        self._adj: dict = {}
        self._vertex_labels: dict = {}
        self._edge_labels: dict = {}
        self._m: int = 0
        self._csr: Optional[CSRAdjacency] = None
        self._labels_version: int = 0
        self._fp_cache: dict = {}
        if vertices is not None:
            for v in vertices:
                self.add_vertex(v)
        if edges is not None:
            for u, v in edges:
                self.add_edge(u, v)

    # ------------------------------------------------------------------
    # The CSR read core
    # ------------------------------------------------------------------
    @property
    def csr(self) -> CSRAdjacency:
        """The immutable CSR snapshot of the current structure.

        Built on first access after any structural mutation, then shared
        by every reader (and by :meth:`copy`, which starts from the same
        snapshot).  Input labels are not part of the snapshot.
        """
        if self._csr is None:
            self._csr = CSRAdjacency(self._adj)
        return self._csr

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_vertex(self, v: Vertex) -> None:
        """Add vertex ``v``; adding an existing vertex is a no-op."""
        if v not in self._adj:
            self._adj[v] = set()
            self._csr = None

    def add_edge(self, u: Vertex, v: Vertex) -> None:
        """Add edge ``{u, v}``, creating endpoints as needed.

        Re-adding an existing edge is a no-op (the graph is simple).
        """
        edge_key(u, v)  # validates against self-loops
        self.add_vertex(u)
        self.add_vertex(v)
        if v not in self._adj[u]:
            self._adj[u].add(v)
            self._adj[v].add(u)
            self._m += 1
            self._csr = None
        # No entry is created in _edge_labels until a label is assigned.

    def remove_edge(self, u: Vertex, v: Vertex) -> None:
        """Remove edge ``{u, v}``; raises ``KeyError`` if absent."""
        if not self.has_edge(u, v):
            raise KeyError(f"edge {u!r}-{v!r} not in graph")
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        self._m -= 1
        self._csr = None
        if self._edge_labels.pop(edge_key(u, v), None) is not None:
            self._labels_version += 1

    def remove_vertex(self, v: Vertex) -> None:
        """Remove ``v`` and all incident edges; raises ``KeyError`` if absent."""
        for u in list(self._adj[v]):
            self.remove_edge(u, v)
        del self._adj[v]
        self._csr = None
        if self._vertex_labels.pop(v, None) is not None:
            self._labels_version += 1

    # ------------------------------------------------------------------
    # Input labels (finite-alphabet state, Section 1.1)
    # ------------------------------------------------------------------
    def set_vertex_label(self, v: Vertex, label: Hashable) -> None:
        """Attach the input label ``label`` to vertex ``v``."""
        if v not in self._adj:
            raise KeyError(f"vertex {v!r} not in graph")
        self._vertex_labels[v] = label
        self._labels_version += 1

    def vertex_label(self, v: Vertex, default: Hashable = None) -> Hashable:
        """Return the input label of ``v`` (``default`` if unset)."""
        return self._vertex_labels.get(v, default)

    def set_edge_label(self, u: Vertex, v: Vertex, label: Hashable) -> None:
        """Attach the input label ``label`` to edge ``{u, v}``."""
        if not self.has_edge(u, v):
            raise KeyError(f"edge {u!r}-{v!r} not in graph")
        self._edge_labels[edge_key(u, v)] = label
        self._labels_version += 1

    @property
    def labels_version(self) -> int:
        """Monotone counter bumped by every input-label mutation.

        Structural mutation is observable through the :meth:`csr`
        snapshot identity; label mutation deliberately is not (labels
        are not part of the snapshot), so consumers that capture label
        state — the vectorized executor holds a compiled round per
        labeling — key their caches on this counter instead.
        """
        return self._labels_version

    def edge_label(self, u: Vertex, v: Vertex, default: Hashable = None) -> Hashable:
        """Return the input label of edge ``{u, v}`` (``default`` if unset)."""
        return self._edge_labels.get(edge_key(u, v), default)

    def vertex_labels(self) -> dict:
        """Return a copy of the vertex-label assignment."""
        return dict(self._vertex_labels)

    def edge_labels(self) -> dict:
        """Return a copy of the edge-label assignment."""
        return dict(self._edge_labels)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of vertices."""
        return len(self._adj)

    @property
    def m(self) -> int:
        """Number of edges (maintained incrementally, O(1))."""
        return self._m

    def __contains__(self, v: Vertex) -> bool:
        return v in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._adj)

    def vertices(self) -> list:
        """Return the vertices in sorted order (CSR-cached)."""
        return list(self.csr.vertices)

    def edges(self) -> list:
        """Return the canonical edge keys in sorted order (CSR-cached).

        ``edges()[e]`` is the edge with stable index ``e`` — see
        :meth:`edge_index`.
        """
        return list(self.csr.edges)

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        """Return whether ``{u, v}`` is an edge."""
        return u in self._adj and v in self._adj[u]

    def neighbors(self, v: Vertex) -> set:
        """Return the (copied) neighbor set of ``v``."""
        return set(self._adj[v])

    def neighbors_sorted(self, v: Vertex) -> tuple:
        """Return the neighbors of ``v`` in sorted order, without copying.

        The tuple is a cached row of the CSR snapshot — the right accessor
        for read-heavy algorithms (decompositions, minor searches, view
        building) that used to pay a set copy plus a sort per visit.
        """
        return self.csr.name_row(v)

    def degree(self, v: Vertex) -> int:
        """Return the degree of ``v``."""
        return len(self._adj[v])

    def max_degree(self) -> int:
        """Return the maximum degree (0 for an empty graph)."""
        if not self._adj:
            return 0
        return max(len(nbrs) for nbrs in self._adj.values())

    def incident_edges(self, v: Vertex) -> list:
        """Return the canonical keys of the edges incident to ``v``.

        CSR row order yields the keys already sorted: for neighbors
        ``u < v`` the key is ``(u, v)`` with ``u`` ascending, then for
        ``u > v`` it is ``(v, u)`` with ``u`` ascending.
        """
        csr = self.csr
        edges = csr.edges
        return [edges[e] for e in csr.incident_row(csr.index[v])]

    def edge_index(self, u: Vertex, v: Vertex) -> int:
        """Return the stable index of edge ``{u, v}`` into :meth:`edges`.

        Stable until the next structural mutation; raises ``KeyError``
        for absent edges.
        """
        return self.csr.edge_index_of(u, v)

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def bfs_order(self, source: Vertex) -> list:
        """Return the vertices reachable from ``source`` in BFS order."""
        if source not in self._adj:
            raise KeyError(f"vertex {source!r} not in graph")
        seen = {source}
        order = [source]
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for w in self.neighbors_sorted(u):
                if w not in seen:
                    seen.add(w)
                    order.append(w)
                    queue.append(w)
        return order

    def shortest_path(self, source: Vertex, target: Vertex) -> Optional[list]:
        """Return a shortest ``source``–``target`` path, or ``None``.

        Paths are returned as vertex lists including both endpoints.  BFS
        with deterministic (sorted) neighbor exploration, so results are
        reproducible — the prover relies on this when both prover and tests
        re-derive the same embedding paths.
        """
        if source not in self._adj or target not in self._adj:
            raise KeyError("endpoint not in graph")
        if source == target:
            return [source]
        parent: dict = {source: None}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for w in self.neighbors_sorted(u):
                if w not in parent:
                    parent[w] = u
                    if w == target:
                        path = [w]
                        while parent[path[-1]] is not None:
                            path.append(parent[path[-1]])
                        path.reverse()
                        return path
                    queue.append(w)
        return None

    def distances_from(self, source: Vertex) -> dict:
        """Return BFS distances from ``source`` to every reachable vertex."""
        dist = {source: 0}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for w in self._adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return dist

    def connected_components(self) -> list:
        """Return the components as a list of sorted vertex lists."""
        seen: set = set()
        components = []
        for v in sorted(self._adj):
            if v not in seen:
                comp = self.bfs_order(v)
                seen.update(comp)
                components.append(sorted(comp))
        return components

    def is_connected(self) -> bool:
        """Return whether the graph is connected (empty graph counts as yes)."""
        if not self._adj:
            return True
        return len(self.bfs_order(next(iter(self._adj)))) == len(self._adj)

    def spanning_tree(self, root: Vertex) -> "Graph":
        """Return a BFS spanning tree of the component of ``root``."""
        tree = Graph(vertices=[root])
        seen = {root}
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in self.neighbors_sorted(u):
                if w not in seen:
                    seen.add(w)
                    tree.add_edge(u, w)
                    queue.append(w)
        return tree

    # ------------------------------------------------------------------
    # Structure tests
    # ------------------------------------------------------------------
    def has_cycle(self) -> bool:
        """Return whether the graph contains a cycle."""
        seen: set = set()
        for start in self._adj:
            if start in seen:
                continue
            stack = [(start, None)]
            seen.add(start)
            while stack:
                u, par = stack.pop()
                for w in self._adj[u]:
                    if w == par:
                        par = None  # skip the tree edge exactly once
                        continue
                    if w in seen:
                        return True
                    seen.add(w)
                    stack.append((w, u))
        return False

    def is_forest(self) -> bool:
        """Return whether the graph is acyclic."""
        # A graph is a forest iff every component has n_c - 1 edges; the
        # parent-skip trick in has_cycle mishandles multi-edges, which simple
        # graphs cannot have, but the count check is unconditionally safe.
        return self.m == self.n - len(self.connected_components())

    def is_tree(self) -> bool:
        """Return whether the graph is a connected forest."""
        return self.is_connected() and self.m == self.n - 1

    def is_path_graph(self) -> bool:
        """Return whether the graph is a simple path on >= 1 vertices."""
        if self.n == 0:
            return False
        if not self.is_tree():
            return False
        degrees = sorted(self.degree(v) for v in self._adj)
        if self.n == 1:
            return True
        return degrees[0] == 1 and degrees[1] == 1 and degrees[-1] <= 2

    def is_cycle_graph(self) -> bool:
        """Return whether the graph is a single simple cycle."""
        return (
            self.n >= 3
            and self.is_connected()
            and all(self.degree(v) == 2 for v in self._adj)
        )

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def copy(self) -> "Graph":
        """Return a deep copy (labels included).

        The adjacency sets are copied; the immutable CSR snapshot (if
        built) is shared — a later mutation of either graph only drops
        that graph's reference.
        """
        g = Graph()
        g._adj = {v: set(nbrs) for v, nbrs in self._adj.items()}
        g._m = self._m
        g._csr = self._csr
        g._vertex_labels = dict(self._vertex_labels)
        g._edge_labels = dict(self._edge_labels)
        g._labels_version = self._labels_version
        return g

    def induced_subgraph(self, vertex_subset: Iterable[Vertex]) -> "Graph":
        """Return the subgraph induced on ``vertex_subset`` (labels kept)."""
        keep = set(vertex_subset)
        missing = keep - set(self._adj)
        if missing:
            raise KeyError(f"vertices {sorted(missing)!r} not in graph")
        g = Graph(vertices=keep)
        for u, v in self.edges():
            if u in keep and v in keep:
                g.add_edge(u, v)
                if (u, v) in self._edge_labels:
                    g.set_edge_label(u, v, self._edge_labels[(u, v)])
        for v in keep:
            if v in self._vertex_labels:
                g.set_vertex_label(v, self._vertex_labels[v])
        return g

    def edge_subgraph(self, edge_subset: Iterable[tuple]) -> "Graph":
        """Return the spanning subgraph with only the given edges.

        All vertices of ``self`` are kept; this is the ``(V, E)`` inside
        ``(V, E')`` view used in the proof of Theorem 1, where the real
        edge set is a subset of the completion's edge set.
        """
        g = Graph(vertices=self._adj)
        for u, v in edge_subset:
            if not self.has_edge(u, v):
                raise KeyError(f"edge {u!r}-{v!r} not in graph")
            g.add_edge(u, v)
        g._vertex_labels = dict(self._vertex_labels)
        for key, label in self._edge_labels.items():
            if g.has_edge(*key):
                g._edge_labels[key] = label
        return g

    def relabeled(self, mapping: dict) -> "Graph":
        """Return an isomorphic copy with vertices renamed via ``mapping``.

        ``mapping`` must be injective on the vertex set; unmapped vertices
        keep their names.
        """
        image = [mapping.get(v, v) for v in self._adj]
        if len(set(image)) != len(image):
            raise ValueError("relabeling is not injective")
        g = Graph(vertices=image)
        for u, v in self.edges():
            g.add_edge(mapping.get(u, u), mapping.get(v, v))
        for v, label in self._vertex_labels.items():
            g.set_vertex_label(mapping.get(v, v), label)
        for (u, v), label in self._edge_labels.items():
            g.set_edge_label(mapping.get(u, u), mapping.get(v, v), label)
        return g

    def disjoint_union(self, other: "Graph") -> "Graph":
        """Return the disjoint union; vertex sets must already be disjoint."""
        overlap = set(self._adj) & set(other._adj)
        if overlap:
            raise ValueError(f"vertex sets overlap: {sorted(overlap)!r}")
        g = self.copy()
        for v in other._adj:
            g.add_vertex(v)
        for u, v in other.edges():
            g.add_edge(u, v)
        for v, label in other._vertex_labels.items():
            g.set_vertex_label(v, label)
        for (u, v), label in other._edge_labels.items():
            g.set_edge_label(u, v, label)
        return g

    # ------------------------------------------------------------------
    # Equality and presentation
    # ------------------------------------------------------------------
    def fingerprint(self, include_labels: bool = True) -> str:
        """Return a stable content hash of the graph.

        The fingerprint covers the vertex set, the canonical edge keys,
        and (by default) the input labels; two graphs with equal
        fingerprints have identical vertices/edges/labels up to hash
        collision (blake2b-128, negligible).  ``include_labels=False``
        matches the bare ``(V, E)`` identity used by the lanewidth
        prover's configuration check.

        ``include_labels="edges"`` hashes the edge labels but not the
        vertex labels: it is the *certification identity* used to key
        plan-DAG artifacts.  The Theorem 1 pipeline threads edge labels
        into the construction sequence as tags (they end up inside the
        certificates), while vertex labels never enter any stage — two
        graphs that differ only in vertex labels certify to bit-identical
        labelings, and the incremental layer leans on exactly that to
        reuse every artifact across vertex-relabeling edit batches.

        The structural half of the hash lives on the CSR snapshot
        (:meth:`CSRAdjacency.fingerprint_base`) and the final string is
        memoized per ``(snapshot, labels_version)``, so repeated calls —
        session normalization, artifact-cache keys, store lookups — cost
        a dict probe instead of an O(n + m) rehash.  Structural mutation
        replaces the snapshot and label mutation bumps the version, so a
        stale value can never be returned.
        """
        csr = self.csr
        cached = self._fp_cache.get(include_labels)
        if (
            cached is not None
            and cached[0] is csr
            and cached[1] == self._labels_version
        ):
            return cached[2]
        digest = csr.fingerprint_base().copy()
        if include_labels:
            if include_labels != "edges":
                digest.update(b"\x02")
                for v, label in sorted(self._vertex_labels.items(), key=repr):
                    digest.update(repr((v, label)).encode())
                    digest.update(b"\x00")
            digest.update(b"\x03")
            for key, label in sorted(self._edge_labels.items(), key=repr):
                digest.update(repr((key, label)).encode())
                digest.update(b"\x00")
        value = digest.hexdigest()
        self._fp_cache[include_labels] = (csr, self._labels_version, value)
        return value

    def same_graph(self, other: "Graph") -> bool:
        """Return whether self and other have identical vertices and edges.

        This is labeled-identity equality (names matter), not isomorphism.
        """
        return (
            set(self._adj) == set(other._adj)
            and self.edges() == other.edges()
            and self._vertex_labels == other._vertex_labels
            and self._edge_labels == other._edge_labels
        )

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    def to_networkx(self):
        """Export to a ``networkx.Graph`` (for test cross-checks only)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(self._adj)
        g.add_edges_from(self.edges())
        return g

    @classmethod
    def from_networkx(cls, nx_graph) -> "Graph":
        """Import from a ``networkx.Graph`` (tests and examples only)."""
        g = cls(vertices=nx_graph.nodes)
        for u, v in nx_graph.edges:
            if u != v:
                g.add_edge(u, v)
        return g
