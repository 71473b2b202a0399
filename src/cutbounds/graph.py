"""Weighted-graph core: data model, validation, statistics, file round-trip.

Graphs are simple and undirected with nonnegative real edge weights.
The text format is line oriented: ``c`` comment lines, one header line
``p <num_vertices> <num_edges>``, then ``e <u> <v> <weight>`` lines with
0-based vertex ids and a decimal weight, every field in ASCII.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence, TypeVar

import numpy as np

# Most vertices a file header may declare, checked before anything is allocated.
MAX_VERTICES = 2 ** 20


class GraphError(Exception):
    """Base class for graph construction and parsing errors."""


class MalformedLineError(GraphError):
    """Input line does not follow the 'c' / 'p' / 'e' format."""


class SelfLoopError(GraphError):
    """An edge joins a vertex to itself."""


class DuplicateEdgeError(GraphError):
    """The same unordered vertex pair appears more than once."""


class NegativeWeightError(GraphError):
    """An edge weight is negative."""


class NonFiniteWeightError(GraphError):
    """An edge weight is NaN or infinite, or the total weight overflows."""


class PreconditionError(GraphError):
    """The graph is outside what the operation applies to (a bound is skipped)."""


class DisconnectedGraphError(PreconditionError):
    """The operation requires a connected graph."""


class TriangleFoundError(PreconditionError):
    """The operation requires a triangle-free graph."""


class NotSubcubicError(PreconditionError, ValueError):
    """The operation requires a graph of maximum degree at most 3."""


class WeightedGraph:
    """Simple undirected graph with nonnegative edge weights.

    Vertices are ``0..n-1``.  Edges are stored with ``u < v``; the position
    of an edge in ``edges`` is its edge id and serves as the deterministic
    tie-breaker throughout the library.  Adjacency lists are sorted by
    neighbor id.  Instances are immutable after construction and safe to
    share across threads.  Derived results (statistics, the component
    split, some bound reports) are memoized per instance on first use;
    equality ignores the memo.

    ``total_weight`` is the exact total rounded once to a float.  Bound
    arithmetic runs on the exact view ``_exact_weights``; ``integer_weights``
    (every weight integral, at any size) only picks how weights are written
    and the oracle's GEMM shortcut.
    """

    __slots__ = ("n", "edges", "adj", "total_weight", "integer_weights", "_ids",
                 "_memo")

    def __init__(self, n: int, edges: Iterable[tuple[int, int, float]]):
        if n < 0:
            raise GraphError("vertex count must be nonnegative")
        self.n = int(n)
        canon: list[tuple[int, int, float]] = []
        ids: dict[tuple[int, int], int] = {}
        for u, v, w in edges:
            u, v, w = int(u), int(v), float(w)
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise GraphError(f"vertex id out of range: ({u}, {v})")
            if u == v:
                raise SelfLoopError(f"self-loop at vertex {u}")
            if not math.isfinite(w):
                raise NonFiniteWeightError(f"non-finite weight {w} on edge ({u}, {v})")
            if w < 0:
                raise NegativeWeightError(f"negative weight {w} on edge ({u}, {v})")
            if u > v:
                u, v = v, u
            if (u, v) in ids:
                raise DuplicateEdgeError(f"duplicate edge ({u}, {v})")
            ids[(u, v)] = len(canon)
            canon.append((u, v, w))
        self.edges = tuple(canon)
        self._ids = ids
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for eid, (u, v, w) in enumerate(self.edges):
            adj[u].append((v, eid))
            adj[v].append((u, eid))
        self.adj = tuple(tuple(sorted(a)) for a in adj)
        try:  # fsum rounds the exact sum once
            self.total_weight = math.fsum(w for _, _, w in self.edges)
        except OverflowError:
            raise NonFiniteWeightError("total edge weight overflows to infinity") from None
        self.integer_weights = all(w.is_integer() for _, _, w in self.edges)
        self._memo: dict = {}

    # -- basic queries -------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def max_degree(self) -> int:
        return max((len(a) for a in self.adj), default=0)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(u for u, _ in self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self._ids

    def edge_id(self, u: int, v: int) -> Optional[int]:
        return self._ids.get((min(u, v), max(u, v)))

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, WeightedGraph)
                and self.n == other.n and self.edges == other.edges)

    def __hash__(self):  # pragma: no cover - kept unhashable on purpose
        raise TypeError("WeightedGraph is not hashable")

    def __repr__(self) -> str:
        return f"WeightedGraph(n={self.n}, m={self.m}, w={self.total_weight:g})"

    # -- structure -----------------------------------------------------

    def components(self) -> list[list[int]]:
        """Connected components as sorted vertex lists, ordered by minimum vertex."""
        seen = [False] * self.n
        comps = []
        for s in range(self.n):
            if seen[s]:
                continue
            seen[s] = True
            comp = [s]
            queue = deque([s])
            while queue:
                u = queue.popleft()
                for v, _ in self.adj[u]:
                    if not seen[v]:
                        seen[v] = True
                        comp.append(v)
                        queue.append(v)
            comps.append(sorted(comp))
        return comps

    def is_connected(self) -> bool:
        """At most one component; read from the memoized ``_components``."""
        return len(_components(self)[0]) <= 1

    def induced(self, vertices: Sequence[int]):
        """Induced subgraph on ``vertices``.

        Returns ``(sub, orig_vertex, orig_edge)`` where ``orig_vertex[i]``
        is the original id of sub-vertex ``i`` and ``orig_edge[k]`` the
        original id of sub-edge ``k``.  Vertices are relabelled in sorted
        order, edges keep their relative order.
        """
        vs = sorted(set(vertices))
        index = {v: i for i, v in enumerate(vs)}
        orig_edge = sorted(eid for x in vs for y, eid in self.adj[x]
                           if x < y and y in index)
        sub_edges = [(index[u], index[v], w)
                     for u, v, w in (self.edges[eid] for eid in orig_edge)]
        return WeightedGraph(len(vs), sub_edges), tuple(vs), tuple(orig_edge)


@dataclass(frozen=True)
class GraphStats:
    """Exact instance statistics.

    ``girth`` is None for acyclic graphs (no cycle, girth unbounded).
    """

    total_weight: float
    max_degree: int
    girth: Optional[int]
    triangle_free: bool
    connected: bool


def girth(g: WeightedGraph) -> Optional[int]:
    """Length of a shortest cycle; None if acyclic.  The least of ``_girths``."""
    return min(filter(None, _girths(g)), default=None)


def _girths(g: WeightedGraph) -> tuple[Optional[int], ...]:
    """Each component's girth, via BFS from every vertex; None where acyclic.
    Memoized on ``g``.

    For each root, any non-tree edge (u, v) seen during BFS closes a walk of
    dist(u) + dist(v) + 1 edges that contains a cycle of at most that length,
    and a root on a shortest cycle realizes it exactly, so the minimum over
    a component's roots is its girth.  Every cycle lies in the 2-core, so
    vertices of degree <= 1 are peeled first and the BFS runs within the
    core only; a forest has an empty core and costs O(n + m).  A finished
    root leaves the core too, as every cycle through it has been measured.
    """
    def compute() -> tuple[Optional[int], ...]:
        comps, label = _components(g)
        girths: list[Optional[int]] = [None] * len(comps)
        deg = [len(a) for a in g.adj]
        peel = [v for v in range(g.n) if deg[v] <= 1]
        dist, via = [-1] * g.n, [-1] * g.n  # after each root, what its BFS reached resets
        for src in range(g.n):
            while peel:  # peel what is left to its 2-core
                for u, _ in g.adj[peel.pop()]:
                    deg[u] -= 1
                    if deg[u] == 1:
                        peel.append(u)
            if deg[src] < 2:
                continue
            best = girths[label[src]]
            dist[src] = 0
            reached = [src]  # the BFS queue, kept whole
            for u in reached:
                du = dist[u]
                if best is not None and 2 * du >= best:
                    continue
                for v, eid in g.adj[u]:
                    if eid == via[u] or deg[v] < 2:
                        continue
                    if dist[v] < 0:
                        dist[v] = du + 1
                        via[v] = eid
                        reached.append(v)
                    else:
                        cand = du + dist[v] + 1
                        if best is None or cand < best:
                            best = cand
            girths[label[src]] = best
            for v in reached:
                dist[v] = via[v] = -1
            deg[src] = 1  # peeled like a leaf: each neighbour loses one
            peel.append(src)
        return tuple(girths)
    return _cached(g, "girths", compute)


_T = TypeVar("_T")


def _cached(g: WeightedGraph, key, compute: Callable[[], _T]) -> _T:
    """The derived result of ``g`` stored under ``key``, computed on first use.

    Graphs are immutable, so a stored result never goes stale.  Writes are
    idempotent: concurrent first calls may both compute, and every caller
    gets the value stored first.
    """
    memo = g._memo
    if key not in memo:
        memo.setdefault(key, compute())
    return memo[key]


def stats(g: WeightedGraph) -> GraphStats:
    def compute() -> GraphStats:
        gi = girth(g)
        return GraphStats(
            total_weight=g.total_weight,
            max_degree=g.max_degree(),
            girth=gi,
            triangle_free=(gi is None or gi >= 4),
            connected=g.is_connected(),
        )
    return _cached(g, "stats", compute)


def triangle_free(g: WeightedGraph) -> bool:
    """True when no edge's ends share a neighbour; memoized on ``g``.

    Served by the memoized ``stats`` when one exists; otherwise each edge
    is checked for a common neighbour, without a girth pass.
    """
    st = g._memo.get("stats")
    if st is not None:
        return st.triangle_free

    def compute() -> bool:
        nbrs = [{u for u, _ in a} for a in g.adj]
        return all(nbrs[u].isdisjoint(nbrs[v]) for u, v, _ in g.edges)
    return _cached(g, "triangle_free", compute)


@dataclass(frozen=True)
class ExactWeights:
    """A graph's weights as integers over one power of two.

    Every finite float is m * 2^e, so edge ``e`` weighs exactly
    ``ints[e] / 2**scale``; ``scale`` is 0 when every weight is integral.
    Sums of ``ints`` are exact at any size; ``value`` reads one as a ``Fraction``.
    """

    ints: tuple[int, ...]
    scale: int
    total: Fraction

    def value(self, x: int) -> Fraction:
        return Fraction(x, 1 << self.scale)

    def weight(self, edge_ids: Iterable[int]) -> Fraction:
        """The exact weight of an edge set."""
        return self.value(sum(map(self.ints.__getitem__, edge_ids)))


def _exact_weights(g: WeightedGraph) -> ExactWeights:
    """The exact view of ``g``'s weights; memoized on ``g``."""
    def compute():
        ratios = [w.as_integer_ratio() for _, _, w in g.edges]
        scale = max((d.bit_length() - 1 for _, d in ratios), default=0)
        ints = tuple(m << (scale + 1 - d.bit_length()) for m, d in ratios)
        return ExactWeights(ints, scale, Fraction(sum(ints), 1 << scale))
    return _cached(g, "exact_weights", compute)


def _edge_arrays(g: WeightedGraph) -> tuple[np.ndarray, np.ndarray]:
    """Endpoints as a read-only (2, m) array, and the ints of the exact
    view as an array: int64 when their total is below 2^63, so no sum of
    them overflows, else Python ints.  Memoized on ``g``."""
    def compute():
        ends = np.array([(u, v) for u, v, _ in g.edges], dtype=np.intp).reshape(-1, 2).T
        ints = _exact_weights(g).ints
        weights = np.array(ints, dtype=np.int64 if sum(ints) < 2 ** 63 else object)
        ends.flags.writeable = weights.flags.writeable = False
        return ends, weights
    return _cached(g, "edge_arrays", compute)


def _incidence_arrays(g: WeightedGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                                   np.ndarray]:
    """Each vertex's neighbours, vertex after vertex, as one read-only array
    of the 2m incidences; where the run of each vertex of positive degree
    starts in it, and those vertices; and every degree, as int32 (the count
    type of the Shearer kernel).  Memoized on ``g``."""
    def compute():
        degree = np.fromiter(map(len, g.adj), dtype=np.int32, count=g.n)
        nbr = np.fromiter((u for a in g.adj for u, _ in a), dtype=np.intp, count=2 * g.m)
        active = np.flatnonzero(degree)
        starts = (np.cumsum(degree) - degree)[active]
        for a in (nbr, starts, active, degree):
            a.flags.writeable = False
        return nbr, starts, active, degree
    return _cached(g, "incidence_arrays", compute)


def _components(g: WeightedGraph) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """``g.components()`` as tuples, and each vertex's index in it; memoized on ``g``."""
    def compute():
        comps = tuple(map(tuple, g.components()))
        label = [0] * g.n
        for c, comp in enumerate(comps):
            for v in comp:
                label[v] = c
        return comps, tuple(label)
    return _cached(g, "components", compute)


def _component_sums(g: WeightedGraph, edge_ids: Iterable[int],
                    total: Optional[Fraction] = None) -> list[int]:
    """The weight of ``edge_ids`` in each component, in the integers of
    ``_exact_weights``; a connected graph reads it off their exact weight
    ``total`` when one is given."""
    ex = _exact_weights(g)
    ints = ex.ints
    comps, label = _components(g)
    if len(comps) <= 1:
        return [sum(map(ints.__getitem__, edge_ids)) if total is None
                else total.numerator * ((1 << ex.scale) // total.denominator)]
    sums = [0] * len(comps)
    for e in edge_ids:
        sums[label[g.edges[e][0]]] += ints[e]
    return sums


def _least_by_component(g: WeightedGraph, pairs: Iterable[tuple[int, _T]]) -> list[Optional[_T]]:
    """The least value of ``(edge id, value)`` pairs within each component,
    in component order; None where a component has none."""
    comps, label = _components(g)
    least: list = [None] * len(comps)
    for e, x in pairs:
        c = label[g.edges[e][0]]
        if least[c] is None or x < least[c]:
            least[c] = x
    return least


def _component_split(g: WeightedGraph) -> tuple[tuple[WeightedGraph, tuple[int, ...]], ...]:
    """``(sub, orig_vertex)`` per connected component, ordered by minimum vertex.

    A connected graph is its own single piece, so its memo is shared.  Its
    memo stores None rather than the graph itself: a graph that referenced
    itself would outlive its last user until a full garbage collection.
    """
    def compute():
        if g.n and g.is_connected():  # one piece (the empty graph has none)
            return None
        return tuple(g.induced(comp)[:2] for comp in _components(g)[0])
    split = _cached(g, "component_split", compute)
    return ((g, tuple(range(g.n))),) if split is None else split


# -- file format -------------------------------------------------------


def save_graph(g: WeightedGraph) -> str:
    """Canonical text form: header, then edges sorted by (u, v).

    Weights are written in shortest round-trip decimal form (plain
    integers in integer mode), so load(save(g)) reproduces g exactly.
    """
    lines = [f"p {g.n} {g.m}"]
    for u, v, w in sorted(g.edges):
        lines.append(f"e {u} {v} {int(w) if g.integer_weights else repr(w)}")
    return "\n".join(lines) + "\n"


def load_graph(text: str) -> WeightedGraph:
    """Parse the edge-list format, validating every line.

    Raises MalformedLineError (also past ``MAX_VERTICES``), SelfLoopError,
    DuplicateEdgeError, NegativeWeightError or NonFiniteWeightError.
    """
    n = None
    declared_m = None
    edges: list[tuple[int, int, float]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        # int() and float() would also take Unicode digits and "_" groups
        if not line.isascii() or "_" in line:
            raise MalformedLineError(f"line {lineno}: non-ASCII character or '_' in a field")
        fields = line.split()
        if fields[0] == "p":
            if n is not None:
                raise MalformedLineError(f"line {lineno}: repeated header")
            if len(fields) != 3:
                raise MalformedLineError(f"line {lineno}: header needs 'p <n> <m>'")
            try:
                n, declared_m = int(fields[1]), int(fields[2])
            except ValueError:
                raise MalformedLineError(f"line {lineno}: non-integer header field") from None
            if n < 0 or declared_m < 0:
                raise MalformedLineError(f"line {lineno}: negative header field")
            if n > MAX_VERTICES:
                raise MalformedLineError(f"line {lineno}: vertex limit {MAX_VERTICES} exceeded")
        elif fields[0] == "e":
            if n is None:
                raise MalformedLineError(f"line {lineno}: edge before header")
            if len(fields) != 4:
                raise MalformedLineError(f"line {lineno}: edge needs 'e <u> <v> <w>'")
            try:
                u, v = int(fields[1]), int(fields[2])
                w = float(fields[3])
            except ValueError:
                raise MalformedLineError(f"line {lineno}: unparsable edge field") from None
            if not (0 <= u < n and 0 <= v < n):
                raise MalformedLineError(f"line {lineno}: vertex id out of range")
            edges.append((u, v, w))
        else:
            raise MalformedLineError(f"line {lineno}: unknown line type {fields[0]!r}")
    if n is None:
        raise MalformedLineError("missing 'p' header line")
    if declared_m != len(edges):
        raise MalformedLineError(
            f"header declares {declared_m} edges, file has {len(edges)}")
    return WeightedGraph(n, edges)
