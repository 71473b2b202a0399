"""Spanning structures: DFS trees, min/max spanning forests, and the layer
family of a leveled forest, whose lightest-dropping member is the one
certificate built (parity layers are its k = 2 case; edge-rooted layers
level from a marked edge).  A forest has one tree per component."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .cuts import _two_color
from .graph import (DisconnectedGraphError, PreconditionError, WeightedGraph, _cached,
                    _components, _exact_weights, _least_by_component)
from .graph import girth as graph_girth  # noqa: F401  # perfbench's tests trace this alias


class OddCycleError(PreconditionError):
    """A short odd cycle violates a layer-decomposition precondition."""


@dataclass(frozen=True)
class RootedSpanningTree:
    """Spanning tree (or forest) with root(s), per-vertex level and parent map.

    ``roots`` has one vertex per tree, or two tree-adjacent vertices when its
    levels are measured from a marked tree edge (both endpoints at level 0).  ``kind``
    is "dfs" for trees with the no-cross-edge property, "arbitrary"
    otherwise.  ``exact_weight`` is the tree's weight over rationals, and
    ``weight`` is that value rounded once to a float.
    """

    parent: tuple[Optional[int], ...]
    roots: tuple[int, ...]
    level: tuple[int, ...]
    edge_ids: frozenset[int]
    kind: str
    exact_weight: Fraction

    @property
    def weight(self) -> float:
        return float(self.exact_weight)

    def validate(self, g: WeightedGraph) -> None:
        n = len(self.parent)
        if n != g.n:
            raise AssertionError("tree size mismatch")
        if len(self.edge_ids) != g.n - len(_components(g)[0]):
            raise AssertionError("not a spanning forest: wrong edge count")
        for r in self.roots:
            if self.level[r] != 0 or self.parent[r] is not None:
                raise AssertionError("root must have level 0 and no parent")
        for v in range(n):
            p = self.parent[v]
            if p is None:
                if v not in self.roots:
                    raise AssertionError(f"non-root vertex {v} has no parent")
                continue
            if self.level[v] != self.level[p] + 1:
                raise AssertionError(f"level invariant broken at {v}")
            if g.edge_id(v, p) not in self.edge_ids:
                raise AssertionError(f"parent edge of {v} not a tree edge")
        if self.kind == "dfs" and cross_edges(g, self):
            raise AssertionError("DFS tree has a cross edge")


def _orient(g: WeightedGraph, edge_ids: frozenset[int], roots: Sequence[int],
            kind: str) -> RootedSpanningTree:
    """Build parent/level maps by BFS over the tree edges from the roots."""
    parent: list[Optional[int]] = [None] * g.n
    level = [-1] * g.n
    for r in roots:
        level[r] = 0
    queue = deque(roots)
    while queue:
        u = queue.popleft()
        for v, eid in g.adj[u]:
            if eid in edge_ids and level[v] < 0:
                level[v] = level[u] + 1
                parent[v] = u
                queue.append(v)
    if any(l < 0 for l in level):
        raise DisconnectedGraphError("edge set does not span the graph")
    return RootedSpanningTree(tuple(parent), tuple(roots), tuple(level),
                              edge_ids, kind, _exact_weights(g).weight(edge_ids))


def _dfs(g: WeightedGraph, root: int, seen: bytearray) -> list[int]:
    """Tree edge ids of the depth-first search from ``root``, neighbors
    explored in ascending vertex id, skipping and marking ``seen`` vertices."""
    edge_ids = []
    seen[root] = 1
    stack = [(root, iter(g.adj[root]))]
    while stack:
        for v, eid in stack[-1][1]:
            if not seen[v]:
                seen[v] = 1
                edge_ids.append(eid)
                stack.append((v, iter(g.adj[v])))
                break
        else:
            stack.pop()
    return edge_ids


def dfs_tree(g: WeightedGraph, root: int = 0) -> RootedSpanningTree:
    """Depth-first search tree; neighbors explored in ascending vertex id,
    its edges leveled from ``root`` by ``_orient``."""
    if g.n == 0:
        raise DisconnectedGraphError("empty graph has no spanning tree")
    edge_ids = _dfs(g, root, bytearray(g.n))
    if len(edge_ids) != g.n - 1:
        raise DisconnectedGraphError("graph is not connected")
    return _orient(g, frozenset(edge_ids), (root,), "dfs")


def cross_edges(g: WeightedGraph, t: RootedSpanningTree) -> list[int]:
    """Non-tree edges joining two vertices neither an ancestor of the other:
    those whose cycle in T + e is not |level(u) - level(v)| + 1 long, or
    that join two trees."""
    level = t.level
    return [eid for eid, c in _forest_cycle_lengths(g, t)
            if c != abs(level[g.edges[eid][0]] - level[g.edges[eid][1]]) + 1]


def _find(par: list[int], x: int) -> int:
    """Root of ``x`` in the union-find forest ``par``, halving the path."""
    while par[x] != x:
        par[x] = par[par[x]]
        x = par[x]
    return x


def _kruskal(g: WeightedGraph, maximize: bool) -> RootedSpanningTree:
    """Kruskal's spanning forest, ties by edge id, each tree rooted at its
    lowest vertex (at 0 on a connected graph)."""
    if g.n == 0:
        raise DisconnectedGraphError("empty graph has no spanning tree")
    order = sorted(range(g.m),
                   key=lambda e: (-g.edges[e][2] if maximize else g.edges[e][2], e))
    par = list(range(g.n))
    chosen: set[int] = set()
    for eid in order:
        u, v, _ = g.edges[eid]
        ru, rv = _find(par, u), _find(par, v)
        if ru != rv:
            par[ru] = rv
            chosen.add(eid)
    return _orient(g, frozenset(chosen), [c[0] for c in _components(g)[0]], "arbitrary")


def min_spanning_tree(g: WeightedGraph) -> RootedSpanningTree:
    """Minimum-weight spanning forest, by ``_kruskal``."""
    return _kruskal(g, maximize=False)


def max_spanning_tree(g: WeightedGraph) -> RootedSpanningTree:
    """Maximum-weight spanning forest, by ``_kruskal``; memoized on ``g``."""
    return _cached(g, "max_spanning_tree", lambda: _kruskal(g, maximize=True))


def reroot_at_edge(g: WeightedGraph, t: RootedSpanningTree,
                   marked: Sequence[Optional[int]]) -> RootedSpanningTree:
    """Re-level each tree of a forest from both endpoints of its marked tree
    edge, one per component in component order (None: an edgeless one).

    Levels become min distance to either endpoint; both endpoints sit at
    level 0 so the marked edge is the only level-0/level-0 tree edge.
    """
    roots: list[int] = []
    for e, comp in zip(marked, _components(g)[0]):
        if e is not None and e not in t.edge_ids:
            raise ValueError("marked edge must be a tree edge")
        roots += comp[:1] if e is None else g.edges[e][:2]
    return _orient(g, t.edge_ids, roots, t.kind)


def layer_edge_sets(g: WeightedGraph, t: RootedSpanningTree,
                    k: int | Sequence[int]) -> tuple[int | list[int], list[int]]:
    """Of the k layered edge sets of a leveled forest, the one that drops the
    least forest weight (the first on ties, compared exactly), and its index j.
    Given one k per component (in component order), each component picks
    its own j among its own k sets instead, and j is the list of them.

    Set j keeps every tree edge except those between levels i and i+1 with
    i = j (mod k), then adds every non-tree edge whose endpoints fall in
    one connected component of the kept forest.  A marked level-0/level-0
    edge is never dropped; the sets drop every other tree edge once, so set
    j keeps at least (k-1)/k of w(T) plus 1/k of the marked edge.  For k = 2
    on a single-rooted tree these are the parity layers, odd upper level
    first.  Only set j is built.
    """
    ints = _exact_weights(g).ints
    each = not isinstance(k, int)
    ks, comp = (k, _components(g)[1]) if each else ((k,), bytes(g.n))
    layer: dict[int, int] = {}
    dropped = [[0] * kc for kc in ks]
    for eid in sorted(t.edge_ids):
        u, v, _ = g.edges[eid]
        lu, lv = t.level[u], t.level[v]
        if lu != lv:
            layer[eid] = min(lu, lv) % ks[comp[u]]
            dropped[comp[u]][layer[eid]] += ints[eid]
    js = [min(range(len(d)), key=d.__getitem__) for d in dropped]
    kept = [eid for eid in sorted(t.edge_ids) if layer.get(eid) != js[comp[g.edges[eid][0]]]]
    label = _two_color(g, kept).label
    extra = [eid for eid, (u, v, _) in enumerate(g.edges) if eid not in t.edge_ids
             and label[u] == label[v] >= 0]
    return js if each else js[0], sorted(kept + extra)


def _forest_cycle_lengths(g: WeightedGraph,
                          t: RootedSpanningTree) -> list[tuple[int, Optional[int]]]:
    """``(eid, d_F(u, v) + 1)`` for every edge e = (u, v) outside the leveled
    forest ``t``, by edge id: the length of the cycle e closes in F + e, or
    None when u and v lie in different trees.  Two roots joined by a forest
    edge (the ends of a marked edge) share one tree.  Each lowest common
    ancestor is found by binary lifting, so the pass costs O((n + m) log n).
    """
    depth = t.level
    up = [[v if p is None else p for v, p in enumerate(t.parent)]]
    for _ in range(1, max(depth, default=0).bit_length()):
        prev = up[-1]
        up.append([prev[x] for x in prev])
    out: list[tuple[int, Optional[int]]] = []
    for eid, (u, v, _) in enumerate(g.edges):
        if eid in t.edge_ids:
            continue
        a, b = (u, v) if depth[u] >= depth[v] else (v, u)
        diff, j = depth[a] - depth[b], 0
        while diff:
            if diff & 1:
                a = up[j][a]
            diff >>= 1
            j += 1
        if a != b:
            for jump in reversed(up):
                if jump[a] != jump[b]:
                    a, b = jump[a], jump[b]
            if up[0][a] != up[0][b]:  # a and b are two roots
                joined = g.edge_id(a, b) in t.edge_ids
                out.append((eid, depth[u] + depth[v] + 2 if joined else None))
                continue
            a = up[0][a]
        out.append((eid, depth[u] + depth[v] - 2 * depth[a] + 1))
    return out


def shortest_fundamental_odd_cycle(g: WeightedGraph,
                                   t: RootedSpanningTree) -> list[Optional[int]]:
    """Each component's min length of an odd cycle in T + e over its
    non-tree edges e, in component order; None where there is none.

    The cycle closed by e = (u, v) has d_T(u, v) + 1 edges.
    """
    return _least_by_component(g, ((e, c) for e, c in _forest_cycle_lengths(g, t) if c % 2))
