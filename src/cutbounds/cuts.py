"""Cuts, induced-bipartite certificates, and the conditional-expectation
derandomizer that turns any certificate into an explicit cut.

The certificate class consists of edge subsets whose connected components
are induced bipartite subgraphs of the host graph.  Coloring every
component consistently and orienting components greedily yields a cut of
weight at least (w(G) + w(R)) / 2, exactly, with no randomness left.
Every weight here is summed and compared on the graph's exact view.
A certificate reaches its cut as one ``Labelling`` (per-vertex block ids
and colors), which both checks inducedness and drives ``place_blocks``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .graph import WeightedGraph, _exact_weights


class NotInducedError(Exception):
    """A component's vertex set induces an edge outside the edge set."""


class NotBipartiteError(Exception):
    """A component contains an odd cycle."""


class NotAMatchingError(Exception):
    """An edge set expected to be a matching shares an endpoint."""


@dataclass(frozen=True)
class Cut:
    """Two-sided vertex partition with its exact weight.

    ``side[v]`` is 0 or 1.  ``exact_weight`` is the crossing weight over
    rationals, and ``weight`` is that value rounded once to a float;
    ``recompute_weight`` is the check.
    """

    side: tuple[int, ...]
    exact_weight: Fraction
    _DIGITS = bytes.maketrans(b"\0\1", b"01")  # not a field: side bytes to "0"/"1"

    @property
    def weight(self) -> float:
        return float(self.exact_weight)

    @classmethod
    def from_side(cls, g: WeightedGraph, side: Sequence[int]) -> "Cut":
        side = tuple(int(s) for s in side)
        if len(side) != g.n:
            raise ValueError("side vector length must equal vertex count")
        ex = _exact_weights(g)
        return cls(side, ex.value(sum(q for (u, v, _), q in zip(g.edges, ex.ints)
                                      if side[u] != side[v])))

    def recompute_weight(self, g: WeightedGraph) -> Fraction:
        return Cut.from_side(g, self.side).exact_weight

    def crosses(self, g: WeightedGraph, eid: int) -> bool:
        u, v, _ = g.edges[eid]
        return self.side[u] != self.side[v]

    def bitstring(self) -> str:
        return bytes(self.side).translate(self._DIGITS).decode()


class Labelling(NamedTuple):
    """Vertex v is in block ``label[v]`` (-1: none) with color ``color[v]``."""

    label: tuple[int, ...]
    color: tuple[int, ...]
    count: int


@dataclass(frozen=True)
class InducedBipartiteSubgraph:
    """Edge subset whose components are induced bipartite subgraphs.

    ``labelling`` numbers the components by minimum vertex and 2-colors
    each with its minimum vertex on color 0.
    """

    edge_ids: frozenset[int]
    labelling: Labelling

    def weight(self, g: WeightedGraph) -> Fraction:
        return _exact_weights(g).weight(self.edge_ids)


def _two_color(g: WeightedGraph, edge_ids: Iterable[int],
               also: Iterable[int] = ()) -> Labelling:
    """Label the components of an edge subset by minimum vertex and 2-color
    each by BFS from that vertex, on color 0; a vertex no edge of the subset
    touches gets label -1, unless it is listed in ``also``.  Raises
    NotBipartiteError on an odd cycle.
    """
    member, touched = bytearray(g.m), bytearray(g.n)
    for e in edge_ids:
        u, v, _ = g.edges[e]
        member[e] = touched[u] = touched[v] = 1
    for v in also:
        touched[v] = 1
    adj, label, color, count = g.adj, [-1] * g.n, [0] * g.n, 0
    for start in range(g.n):
        if not touched[start] or label[start] >= 0:
            continue
        label[start] = count
        queue = [start]
        for u in queue:
            cu = color[u]
            for v, eid in adj[u]:
                if not member[eid]:
                    continue
                if label[v] < 0:
                    label[v], color[v] = count, cu ^ 1
                    queue.append(v)
                elif color[v] == cu:
                    raise NotBipartiteError(
                        f"odd cycle in component containing vertex {start}")
        count += 1
    return Labelling(tuple(label), tuple(color), count)


def verify_induced_bipartite(g: WeightedGraph, edge_ids: Iterable[int]) -> InducedBipartiteSubgraph:
    """Check the certificate conditions for an edge subset.

    Raises NotBipartiteError if a component has an odd cycle, and
    NotInducedError if an edge outside the subset has both ends in one
    component.
    """
    ids = frozenset(int(e) for e in edge_ids)
    for e in ids:
        if not (0 <= e < g.m):
            raise ValueError(f"edge id {e} out of range")
    labelling = _two_color(g, ids)
    label = labelling.label
    for eid, (u, v, _) in enumerate(g.edges):
        b = label[u]
        if b >= 0 and b == label[v] and eid not in ids:
            raise NotInducedError(
                f"component of vertex {label.index(b)} induces edge ({u}, {v}) "
                "outside the edge set")
    return InducedBipartiteSubgraph(ids, labelling)


def place_blocks(g: WeightedGraph, labelling: Labelling) -> Cut:
    """Greedy conditional-expectation placement of rigidly 2-colored blocks.

    Every vertex not in a block becomes a singleton block, numbered after
    the blocks in vertex order.  Blocks are placed in descending order of
    incident outside weight (ties by block number), each with the
    orientation that maximizes crossing weight against already-placed
    vertices (ties take orientation 0).  The result never falls below the
    expectation of the uniform random orientation: fixed crossing pairs
    inside blocks plus half the between-block weight.
    """
    label, color, count = labelling
    owner = list(label)
    for v in range(g.n):
        if owner[v] < 0:
            owner[v], count = count, count + 1
    members: list[list[int]] = [[] for _ in range(count)]
    for v, b in enumerate(owner):
        members[b].append(v)

    ints = _exact_weights(g).ints
    outside = [0] * count
    for (u, v, _), q in zip(g.edges, ints):
        bu, bv = owner[u], owner[v]
        if bu != bv:
            outside[bu] += q
            outside[bv] += q
    # a stable sort keeps ascending block numbers among equal weights
    order = sorted(range(count), key=outside.__getitem__, reverse=True)

    adj = g.adj
    side = [-1] * g.n
    for b in order:
        kept = 0  # weight orientation 0 keeps crossing, minus what it leaves uncut
        for v in members[b]:
            c = color[v]
            for u, eid in adj[v]:
                su = side[u]
                if su >= 0:
                    kept += ints[eid] if c != su else -ints[eid]
        orient = 0 if kept >= 0 else 1
        for v in members[b]:
            side[v] = color[v] ^ orient
    return Cut.from_side(g, side)


def derandomized_cut(g: WeightedGraph, cert: InducedBipartiteSubgraph) -> Cut:
    """Explicit cut of weight >= (w(G) + w(cert)) / 2.

    Every certificate edge ends up crossing the returned cut; the
    inequality is exact for every weight (no tolerance) because the greedy
    placement compares exact sums and so never drops below the conditional
    expectation.
    """
    return place_blocks(g, cert.labelling)


def local_search_improve(g: WeightedGraph, cut: Cut) -> Cut:
    """First-improvement single-vertex flips, ascending vertex id, to a local optimum.

    Full ascending sweeps would flip each v whose gain is positive when the
    sweep reaches it.  This flips the same vertices in the same order, with
    exact gains, but pops only candidates from a heap of (sweep, vertex): at
    first every vertex of positive gain, then each neighbour u that a flip
    of v raises above 0, in the next sweep if u < v.  Cost: O(m + flips *
    degree * log n) instead of O(sweeps * n).  Raises AssertionError if the
    weight fell.
    """
    ints, adj = _exact_weights(g).ints, g.adj
    side = list(cut.side)
    gain = [0] * g.n  # what flipping each vertex adds to the cut
    for (u, v, _), q in zip(g.edges, ints):
        d = q if side[u] == side[v] else -q
        gain[u] += d
        gain[v] += d
    heap = [(0, v) for v in range(g.n) if gain[v] > 0]  # ascending, so a heap
    while heap:
        sweep, v = heapq.heappop(heap)
        if gain[v] <= 0:
            continue
        sv = side[v] = side[v] ^ 1
        gain[v] = -gain[v]
        for u, eid in adj[v]:
            if side[u] != sv:
                gain[u] -= 2 * ints[eid]
            else:
                gain[u] += 2 * ints[eid]
                if gain[u] > 0:
                    heapq.heappush(heap, (sweep + (u < v), u))
    out = Cut.from_side(g, side)
    if out.exact_weight < cut.exact_weight:
        raise AssertionError("local search decreased the cut weight")
    return out


def check_matching(g: WeightedGraph, edge_ids: Iterable[int]) -> tuple[int, ...]:
    """Validate that the edge ids form a matching; returns them sorted."""
    ids = sorted(set(int(e) for e in edge_ids))
    seen: set[int] = set()
    for e in ids:
        if not 0 <= e < g.m:
            raise ValueError(f"edge id {e} out of range")
        u, v, _ = g.edges[e]
        if u in seen or v in seen:
            raise NotAMatchingError(f"edges share vertex at edge id {e}")
        seen.add(u)
        seen.add(v)
    return tuple(ids)
