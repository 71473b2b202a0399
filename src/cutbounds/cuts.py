"""Cuts, induced-bipartite certificates, and the conditional-expectation
derandomizer that turns any certificate into an explicit cut.

The certificate class consists of edge subsets whose connected components
are induced bipartite subgraphs of the host graph.  Coloring every
component consistently and orienting components greedily yields a cut of
weight at least (w(G) + w(R)) / 2, exactly, with no randomness left.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .graph import WeightedGraph, _edge_arrays


class NotInducedError(Exception):
    """A component's vertex set induces an edge outside the edge set."""


class NotBipartiteError(Exception):
    """A component contains an odd cycle."""


class NotAMatchingError(Exception):
    """An edge set expected to be a matching shares an endpoint."""


@dataclass(frozen=True)
class Cut:
    """Two-sided vertex partition with cached weight.

    ``side[v]`` is 0 or 1.  The cached weight always equals the recomputed
    crossing weight; ``recompute_weight`` is the check.
    """

    side: tuple[int, ...]
    weight: float

    @classmethod
    def from_side(cls, g: WeightedGraph, side: Sequence[int]) -> "Cut":
        side = tuple(int(s) for s in side)
        if len(side) != g.n:
            raise ValueError("side vector length must equal vertex count")
        w = sum(we for u, v, we in g.edges if side[u] != side[v])
        return cls(side, float(w))

    def recompute_weight(self, g: WeightedGraph) -> float:
        return float(sum(w for u, v, w in g.edges if self.side[u] != self.side[v]))

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

    def weight(self, g: WeightedGraph) -> float:
        return float(sum(g.edges[e][2] for e in self.edge_ids))


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

    outside = [0.0] * len(all_blocks)
    for u, v, w in g.edges:
        if owner[u] != owner[v]:
            outside[owner[u]] += w
            outside[owner[v]] += w
    order = sorted(range(len(all_blocks)), key=lambda i: (-outside[i], i))

    side = [-1] * g.n
    for bi in order:
        blk = all_blocks[bi]
        keep = 0.0
        flip = 0.0
        for v, c in blk.items():
            for u, eid in g.adj[v]:
                su = side[u]
                if su < 0:
                    continue
                w = g.edges[eid][2]
                if c != su:
                    keep += w
                else:
                    flip += w
        orient = 0 if keep >= flip else 1
        for v, c in blk.items():
            side[v] = c ^ orient
    return Cut.from_side(g, side)


def derandomized_cut(g: WeightedGraph, cert: InducedBipartiteSubgraph) -> Cut:
    """Explicit cut of weight >= (w(G) + w(cert)) / 2.

    Every certificate edge ends up crossing the returned cut; the
    inequality is exact (no tolerance) because the greedy placement never
    drops below the conditional expectation.
    """
    return place_blocks(g, [c.color_of() for c in cert.components])


def _flip_gains(g: WeightedGraph, sides: np.ndarray) -> np.ndarray:
    """What flipping each vertex adds to each row's cut, one row per side vector.

    ``np.bincount`` over the interleaved ends ``u0, v0, u1, v1, ...`` adds each
    edge's +w (uncut) or -w (cut) in edge order, rounding as a Python loop would."""
    ends, w = _edge_arrays(g)
    b = len(sides)
    signed = np.where(sides[:, ends[0]] == sides[:, ends[1]], w, -w)
    cells = ends.T.ravel() + g.n * np.arange(b)[:, None]
    return np.bincount(cells.ravel(), np.repeat(signed, 2, axis=1).ravel(),
                       minlength=b * g.n).reshape(b, g.n)


def flip_to_local_optimum(g: WeightedGraph, side: np.ndarray,
                          gain: np.ndarray) -> list[int]:
    """``local_search_improve``'s search on ``side``, whose row of
    ``_flip_gains`` is ``gain``; returns the improved side vector."""
    edges, adj = g.edges, g.adj
    heap = [(0, v) for v in np.flatnonzero(gain > 0).tolist()]
    side, gain = side.tolist(), gain.tolist()
    while heap:
        sweep, v = heapq.heappop(heap)
        if gain[v] <= 0:
            continue
        sv = side[v] = side[v] ^ 1
        gain[v] = -gain[v]
        for u, eid in adj[v]:
            w = edges[eid][2]
            if side[u] != sv:
                gain[u] -= 2 * w
            else:
                gain[u] += 2 * w
                if gain[u] > 0:
                    heapq.heappush(heap, (sweep + (u < v), u))
    return side


def local_search_improve(g: WeightedGraph, cut: Cut) -> Cut:
    """First-improvement single-vertex flips, ascending vertex id, to a local optimum.

    Full ascending sweeps would flip each v whose gain is positive when the
    sweep reaches it.  ``flip_to_local_optimum`` flips the same vertices in
    the same order with the same float updates, but pops only candidates from
    a heap of (sweep, vertex): at first every vertex of positive gain, then
    each neighbour u that a flip of v raises above 0, in the next sweep if
    u < v.  Cost: O(m + flips * degree * log n) instead of O(sweeps * n).
    Raises AssertionError if the weight fell.
    """
    side = np.array(cut.side, dtype=np.int8)
    out = Cut.from_side(g, flip_to_local_optimum(g, side, _flip_gains(g, side[None])[0]))
    if out.weight < cut.weight:
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
