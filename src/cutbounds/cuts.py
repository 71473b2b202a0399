"""Cuts, induced-bipartite certificates, and the conditional-expectation
derandomizer that turns any certificate into an explicit cut.

The certificate class consists of edge subsets whose connected components
are induced bipartite subgraphs of the host graph.  Coloring every
component consistently and orienting components greedily yields a cut of
weight at least (w(G) + w(R)) / 2, exactly, with no randomness left.
Every weight here is summed and compared on the graph's exact view.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

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
        return "".join(str(s) for s in self.side)


@dataclass(frozen=True)
class BipartiteComponent:
    """One certificate component: sorted vertices with a fixed 2-coloring."""

    vertices: tuple[int, ...]
    side: tuple[int, ...]

    def color_of(self) -> dict[int, int]:
        return dict(zip(self.vertices, self.side))


@dataclass(frozen=True)
class InducedBipartiteSubgraph:
    """Edge subset whose components are induced bipartite subgraphs.

    Components are ordered by minimum vertex and each is 2-colored with its
    minimum vertex on side 0.
    """

    edge_ids: frozenset[int]
    components: tuple[BipartiteComponent, ...]

    def weight(self, g: WeightedGraph) -> Fraction:
        return _exact_weights(g).weight(self.edge_ids)


def _two_color(g: WeightedGraph, edge_ids: Iterable[int]) -> list[dict[int, int]]:
    """2-color each component of an edge subset, as blocks for ``place_blocks``.

    Blocks are ordered by minimum vertex, each a ``{vertex: color}`` map in
    BFS order with its minimum vertex on color 0.  Raises NotBipartiteError
    if a component has an odd cycle.
    """
    sub_adj: dict[int, list[int]] = {}
    for e in sorted(edge_ids):
        u, v, _ = g.edges[e]
        sub_adj.setdefault(u, []).append(v)
        sub_adj.setdefault(v, []).append(u)
    color: dict[int, int] = {}
    blocks: list[dict[int, int]] = []
    for start in sorted(sub_adj):
        if start in color:
            continue
        color[start] = 0
        block = {start: 0}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in sub_adj[u]:
                if v not in color:
                    color[v] = block[v] = color[u] ^ 1
                    queue.append(v)
                elif color[v] == color[u]:
                    raise NotBipartiteError(
                        f"odd cycle in component containing vertex {start}")
        blocks.append(block)
    return blocks


def verify_induced_bipartite(g: WeightedGraph, edge_ids: Iterable[int]) -> InducedBipartiteSubgraph:
    """Check the certificate conditions for an edge subset.

    Raises NotBipartiteError if a component has an odd cycle, and
    NotInducedError if a component's vertex set induces an edge of the host
    graph that is missing from the subset.
    """
    ids = frozenset(int(e) for e in edge_ids)
    for e in ids:
        if not (0 <= e < g.m):
            raise ValueError(f"edge id {e} out of range")
    comps: list[BipartiteComponent] = []
    for block in _two_color(g, ids):
        comp = sorted(block)
        for u in comp:
            for v, eid in g.adj[u]:
                if v in block and eid not in ids:
                    raise NotInducedError(
                        f"component of vertex {comp[0]} induces edge ({u}, {v}) "
                        "outside the edge set")
        comps.append(BipartiteComponent(tuple(comp), tuple(block[v] for v in comp)))
    return InducedBipartiteSubgraph(ids, tuple(comps))


def place_blocks(g: WeightedGraph, blocks: Sequence[Mapping[int, int]]) -> Cut:
    """Greedy conditional-expectation placement of rigidly 2-colored blocks.

    Every vertex not covered by a block becomes a singleton block.  Blocks
    are placed in descending order of incident outside weight (ties by
    block index), each with the orientation that maximizes crossing weight
    against already-placed vertices (ties take orientation 0).  The result
    never falls below the expectation of the uniform random orientation:
    fixed crossing pairs inside blocks plus half the between-block weight.
    """
    owner = [-1] * g.n
    all_blocks: list[dict[int, int]] = []
    for b in blocks:
        blk = {int(v): int(c) & 1 for v, c in b.items()}
        for v in blk:
            if owner[v] != -1:
                raise ValueError(f"vertex {v} covered by two blocks")
            owner[v] = len(all_blocks)
        all_blocks.append(blk)
    for v in range(g.n):
        if owner[v] == -1:
            owner[v] = len(all_blocks)
            all_blocks.append({v: 0})

    ints = _exact_weights(g).ints
    outside = [0] * len(all_blocks)
    for (u, v, _), q in zip(g.edges, ints):
        if owner[u] != owner[v]:
            outside[owner[u]] += q
            outside[owner[v]] += q
    order = sorted(range(len(all_blocks)), key=lambda i: (-outside[i], i))

    side = [-1] * g.n
    for bi in order:
        blk = all_blocks[bi]
        keep = 0
        flip = 0
        for v, c in blk.items():
            for u, eid in g.adj[v]:
                su = side[u]
                if su < 0:
                    continue
                if c != su:
                    keep += ints[eid]
                else:
                    flip += ints[eid]
        orient = 0 if keep >= flip else 1
        for v, c in blk.items():
            side[v] = c ^ orient
    return Cut.from_side(g, side)


def derandomized_cut(g: WeightedGraph, cert: InducedBipartiteSubgraph) -> Cut:
    """Explicit cut of weight >= (w(G) + w(cert)) / 2.

    Every certificate edge ends up crossing the returned cut; the
    inequality is exact for every weight (no tolerance) because the greedy
    placement compares exact sums and so never drops below the conditional
    expectation.
    """
    return place_blocks(g, [c.color_of() for c in cert.components])


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
        u, v, _ = g.edges[e]
        if u in seen or v in seen:
            raise NotAMatchingError(f"edges share vertex at edge id {e}")
        seen.add(u)
        seen.add(v)
    return tuple(ids)
