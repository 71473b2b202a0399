"""Constructive cut machinery for triangle-free subcubic graphs.

Pipeline for the 8/11 coefficient bound, argued on a 3-regular triangle-free
supergraph that pads G with zero-weight gadgets: extend G's Brooks 3-coloring
over them by a fixed rule, orient every vertex toward the neighbor whose color
is unique in its neighborhood (the successor digraph), classify edges by how
many endpoints realize them as successor arcs, and build the one of three
certified cuts, each one edge set derandomized once, whose certified value is
largest.  The padding is counted on G and never built: all three candidates
run on G, and a host's arc into its gadget points past the last vertex.
Also hosts the 2/3 coloring cut, the tree percolation cut (derandomized by
conditional expectations), its combination bound, and the redistribution
bound: the ``vizing_classes`` cut certifies it up to max degree 16, and past
that its trials draw every coin from one seeded stream into one numpy kernel.
"""

from __future__ import annotations

import heapq
import random
import statistics
from collections import deque
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Optional

import numpy as np

from .bounds import (BoundReport, ClaimViolationError, MONTE_CARLO, _cached_report, _cut_sums,
                     _forest_sums, _lifted, _report, meets, per_component)
from .coloring import matching_vizing_bound, shearer_coefficient, vizing_classes_bound
from .cuts import Cut, _two_color, local_search_improve, place_blocks
from .graph import (DisconnectedGraphError, NotSubcubicError, TriangleFoundError,
                    WeightedGraph, _cached, _component_split, _components, _edge_arrays,
                    _exact_weights, _incidence_arrays, _least_by_component, triangle_free)
from .spanning import (RootedSpanningTree, _forest_cycle_lengths, _orient,
                       layer_edge_sets, max_spanning_tree)

EIGHT_ELEVENTHS = Fraction(8, 11)
PERCOLATION_P = 0.85
COMBINATION_WEIGHT_A = 0.46545  # on the percolation inequality (p = 0.85, r = 5)
COMBINATION_WEIGHT_B = 0.53455  # on the 8/11 inequality
TREE_COEFFICIENT = 0.3193

# A block of redistribution trials spans about this many (trial, vertex) or
# (trial, edge) cells; it fixes which coins each trial draws.  Consecutive
# blocks run through the side kernel together, up to _BATCH_CELLS (trial,
# vertex) or (trial, incidence) cells, so memory stays small whatever the
# trial count.
_BLOCK_CELLS = 1 << 14
_BATCH_CELLS = 1 << 16


# =====================================================================
# vertex 3-coloring (constructive Brooks for connected subcubic graphs)
# =====================================================================


@dataclass(frozen=True)
class VertexColoring3:
    """Proper vertex coloring with classes 1..3."""

    class_of: tuple[int, ...]

    def validate(self, g: WeightedGraph) -> None:
        for u, v, _ in g.edges:
            if self.class_of[u] == self.class_of[v]:
                raise AssertionError(f"monochromatic edge ({u}, {v})")
        if any(c not in (1, 2, 3) for c in self.class_of):
            raise AssertionError("color out of range")


def _peel_greedy(g: WeightedGraph) -> list[int]:
    """Greedy 3-coloring in reverse degeneracy order.

    Valid for any connected graph that has a vertex of degree at most 2:
    at every peeling step some remaining vertex has at most two remaining
    neighbors, so in reverse order every vertex sees at most two colors.
    Each step peels the lowest-numbered such vertex, kept in a min-heap: a
    vertex enters it once, when its remaining degree first reaches 2 or less.
    """
    deg = [g.degree(v) for v in range(g.n)]
    alive = [True] * g.n
    heap = [v for v in range(g.n) if deg[v] <= 2]  # ascending, so a heap
    order = []
    while heap:
        v = heapq.heappop(heap)
        alive[v] = False
        order.append(v)
        for u, _ in g.adj[v]:
            if alive[u]:
                deg[u] -= 1
                if deg[u] == 2:
                    heapq.heappush(heap, u)
    if len(order) < g.n:
        raise AssertionError("no low-degree vertex available while peeling")
    color = [0] * g.n
    for v in reversed(order):
        used = {color[u] for u, _ in g.adj[v] if color[u]}
        color[v] = min(c for c in (1, 2, 3) if c not in used)
    return color


def _articulation_points(g: WeightedGraph) -> list[int]:
    """Articulation points of a connected graph (iterative lowpoint DFS)."""
    disc = [-1] * g.n
    low = [0] * g.n
    parent = [-1] * g.n
    arts: set[int] = set()
    timer = 0
    for root in range(g.n):
        if disc[root] != -1:
            continue
        root_children = 0
        stack = [(root, iter(g.adj[root]))]
        disc[root] = low[root] = timer
        timer += 1
        while stack:
            u, it = stack[-1]
            advanced = False
            for v, _ in it:
                if disc[v] == -1:
                    parent[v] = u
                    if u == root:
                        root_children += 1
                    disc[v] = low[v] = timer
                    timer += 1
                    stack.append((v, iter(g.adj[v])))
                    advanced = True
                    break
                elif v != parent[u]:
                    low[u] = min(low[u], disc[v])
            if not advanced:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    low[p] = min(low[p], low[u])
                    if p != root and low[u] >= disc[p]:
                        arts.add(p)
        if root_children >= 2:
            arts.add(root)
    return sorted(arts)


def brooks_3_coloring(g: WeightedGraph) -> VertexColoring3:
    """Proper 3-coloring of a connected triangle-free subcubic graph.

    Non-regular graphs are colored greedily in reverse degeneracy order.
    For 3-regular graphs with an articulation point, the graph splits
    there into pieces where the cut vertex has degree at most 2 and the
    greedy applies; otherwise (2-connected cubic) some vertex has two
    non-adjacent neighbors whose removal keeps the graph connected; those
    two get the same color and the rest is colored greedily away from a
    reverse BFS order.
    """
    if g.n == 0:
        raise DisconnectedGraphError("cannot color the empty graph")
    if not g.is_connected():
        raise DisconnectedGraphError("coloring expects a connected graph")
    if g.max_degree() > 3:
        raise NotSubcubicError("graph is not subcubic")
    if not triangle_free(g):
        raise TriangleFoundError("coloring expects a triangle-free graph")
    color = _brooks_connected(g)
    out = VertexColoring3(tuple(color))
    out.validate(g)
    return out


def _brooks_connected(g: WeightedGraph) -> list[int]:
    if g.n == 1:
        return [1]
    if min(g.degree(v) for v in range(g.n)) <= 2:
        return _peel_greedy(g)
    arts = _articulation_points(g)
    if arts:
        return _color_split_at(g, arts[0])
    return _precolored_pair_greedy(g)


def _color_split_at(g: WeightedGraph, a: int) -> list[int]:
    # pieces are component-of(G - a) + {a}; a has degree <= 2 in each piece,
    # so the peel greedy applies; permute piece colors to agree at a
    rest, _, _ = g.induced([v for v in range(g.n) if v != a])
    color = [0] * g.n
    for comp in rest.components():
        orig = [v if v < a else v + 1 for v in comp]  # undo the relabel shift
        sub, orig_v, _ = g.induced(orig + [a])
        piece = _peel_greedy(sub)
        want = piece[orig_v.index(a)]
        swap = {1: 1, 2: 2, 3: 3}
        if want != 1:
            swap[want], swap[1] = 1, want
        for i, v in enumerate(orig_v):
            color[v] = swap[piece[i]]
    color[a] = 1
    return color


def _precolored_pair_greedy(g: WeightedGraph) -> list[int]:
    # 2-connected cubic: find v with neighbors x, y (non-adjacent: the graph
    # is triangle-free) such that G - {x, y} stays connected
    for v in range(g.n):
        for x, y in combinations(g.neighbors(v), 2):
            if g.has_edge(x, y):
                continue
            dist = _bfs_without(g, v, (x, y))
            if dist.count(-1) > 2:  # only x and y may be unreached
                continue
            order = sorted((u for u in range(g.n) if u not in (x, y)),
                           key=lambda u: (-dist[u], u))
            color = [0] * g.n
            color[x] = color[y] = 1
            for u in order:
                used = {color[t] for t, _ in g.adj[u] if color[t]}
                color[u] = min(c for c in (1, 2, 3) if c not in used)
            return color
    raise AssertionError("no precoloring pair found in a 2-connected cubic graph")


def _bfs_without(g: WeightedGraph, src: int, banned: tuple[int, ...]) -> list[int]:
    dist = [-1] * g.n
    dist[src] = 0
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for w, _ in g.adj[u]:
            if w not in banned and dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def color_components(g: WeightedGraph) -> VertexColoring3:
    """Proper 3-coloring of a (possibly disconnected) tf subcubic graph, by
    Brooks on each piece of ``_component_split``; memoized on ``g`` and on each
    piece, so bounds on the whole graph and per component share it."""
    def compute() -> VertexColoring3:
        split = _component_split(g)
        if len(split) == 1:
            return brooks_3_coloring(g)
        color = {v: c for sub, orig_v in split
                 for v, c in zip(orig_v, color_components(sub).class_of)}
        return VertexColoring3(tuple(color[v] for v in range(g.n)))
    return _cached(g, "coloring", compute)


# =====================================================================
# successor digraph and edge classification
# =====================================================================


@dataclass(frozen=True)
class SuccessorDigraph:
    """Functional digraph v -> succ[v] on the colored graph.

    succ[v] is defined iff exactly one color occurs exactly once among
    v's neighbors, and then points at that neighbor; out-degree is at
    most one by construction.  Read with the cubic padding, a vertex of
    degree 2 may point into its gadget: that arc points past the graph's
    last vertex, and no arc of a gadget leaves it.
    """

    succ: tuple[Optional[int], ...]

    def arcs(self) -> list[tuple[int, int]]:
        return [(v, s) for v, s in enumerate(self.succ) if s is not None]


@dataclass(frozen=True)
class EdgeClassification:
    """Per-edge count (0, 1 or 2) of endpoints whose successor arc is the edge.

    Class-2 edges form a matching; classes 1 and 2 are exactly the edges
    of the underlying successor graph.
    """

    class_of_edge: tuple[int, ...]

    def edge_ids(self, cls: int) -> tuple[int, ...]:
        return tuple(e for e, c in enumerate(self.class_of_edge) if c == cls)

    def sums(self, g: WeightedGraph) -> list[int]:
        """Each class's weight in the integers of ``_exact_weights(g)``."""
        w = [0, 0, 0]
        for c, q in zip(self.class_of_edge, _exact_weights(g).ints):
            w[c] += q
        return w


def _successors(g: WeightedGraph, coloring: VertexColoring3,
                padding: Iterable[int]) -> SuccessorDigraph:
    """The successor digraph of ``g`` with ``padding[v]`` zero-weight gadgets
    hung from each v, counted, not built.  A gadget meets its host of color
    c at its subdivision vertex, colored c mod 3 + 1, so only a host of
    degree 2 can point into its gadget.  That arc points past the last
    vertex, at the subdivision vertex's number when the gadgets follow G's
    vertices in host order, seven vertices each, subdivision vertex last."""
    coloring.validate(g)
    color = coloring.class_of
    succ: list[Optional[int]] = [None] * g.n
    mid = g.n + 6  # the subdivision vertex of the next gadget
    for v, (a, p) in enumerate(zip(g.adj, padding)):
        counts = [0, 0, 0, 0]
        for u, _ in a:
            counts[color[u]] += 1
        counts[color[v] % 3 + 1] += p
        if counts.count(1) == 1:
            target = counts.index(1)
            succ[v] = next((u for u, _ in a if color[u] == target), mid)
        mid += 7 * p
    return SuccessorDigraph(tuple(succ))


def classify_edges(g: WeightedGraph, succ: SuccessorDigraph) -> EdgeClassification:
    """Each edge's class; an arc past the last vertex is into the padding."""
    cls = [0] * g.m
    for v, s in enumerate(succ.succ):
        if s is not None and s < g.n:
            eid = g.edge_id(v, s)
            if eid is None:
                raise ClaimViolationError(f"successor arc ({v}, {s}) is not an edge")
            cls[eid] += 1
    out = EdgeClassification(tuple(cls))
    # class-2 edges must form a matching (out-degree <= 1 forces it)
    seen: set[int] = set()
    for e in out.edge_ids(2):
        u, v, _ = g.edges[e]
        if u in seen or v in seen:
            raise ClaimViolationError("mutual successor edges share a vertex")
        seen.add(u)
        seen.add(v)
    return out


# =====================================================================
# the three certified cuts
# =====================================================================


def per_class_cut(g: WeightedGraph, coloring: VertexColoring3,
                  succ: SuccessorDigraph) -> Cut:
    """The drop-one-class cut that drops the least exact weight, first on ties.

    Dropping every successor edge owned by one color class leaves each of
    that class's vertices attached to a single other class, so the residue
    is bipartite and every residue edge crosses its cut.  The residues keep
    w0 + (2/3) w1 + (1/3) w2 on average over the edge classes.

    A subcubic ``g`` is read with its cubic padding, and the cut is the
    padded one restricted to ``g``.  Each gadget stays in the residue as one
    bipartite block, hung from its host unless the host's own arc into it
    is dropped, and that host keeps its two edges.  So every padded vertex
    is a labelled block, which keeps ``place_blocks``' tie order; gadget-only
    blocks and zero-weight edges never move a vertex of ``g``.
    """
    color = coloring.class_of
    dropped: dict[int, set[int]] = {c: set() for c in (1, 2, 3)}
    for v, s in enumerate(succ.succ):
        if s is not None and s < g.n:
            dropped[color[v]].add(g.edge_id(v, s))
    ints = _exact_weights(g).ints
    least = min((1, 2, 3), key=lambda c: sum(map(ints.__getitem__, dropped[c])))
    padded = [v for v, a in enumerate(g.adj) if len(a) < 3]
    return place_blocks(g, _two_color(g, (e for e in range(g.m) if e not in dropped[least]),
                                      padded))


def component_layer_cut(g: WeightedGraph, succ: SuccessorDigraph,
                        cls: EdgeClassification) -> Cut:
    """Layered cut of the successor graph, built as one certificate on ``g``.

    The successor graph (classes 1 and 2) splits into in-trees, trees
    through one mutual edge, and trees hanging off one directed cycle of
    length at least 3.  Without the long-cycle edges it is a forest F,
    leveled once from every sink, both ends of each mutual edge and every
    long-cycle vertex.  The certificate R is the k = 4 layer set of F that
    drops the least weight plus every long-cycle edge except the cheapest
    one of an odd cycle, placed by one ``place_blocks``.  The left-out
    edges D lie inside a block and never cross; every other edge outside R
    joins two blocks and crosses with probability 1/2.  So the cut weighs at
    least (w + w(R) - w(D)) / 2, which meets (1/2) w0 + (7/8) w1 + w2 as
    w(R) - w(D) >= (3/4) w1 + w2: the four layer sets drop disjoint parts
    of F's class-1 edges (a mutual edge, class 2, joins two roots at level
    0 and is never dropped), so the least-dropping one drops at most 1/4;
    a long cycle's length is divisible by 3, so an odd one has at least 9
    edges and keeps w(C) - 2 w(D) >= (7/9) w(C).  R is a certificate up to
    D: an odd fundamental cycle inside one tree has length divisible by 3,
    so at least 9 in a triangle-free graph; its tree path passes four
    consecutive levels on one side, and every layer set cuts it.  So each
    kept piece is induced and bipartite, and joining the root pieces of a
    cycle adds no other edge, as only cycle edges run between two trees of
    one cycle.  Those length and adjacency facts are checked on the edges
    of ``g`` and raise ClaimViolationError.

    The padding is counted, not built.  A host whose arc points past the
    last vertex, into its gadget, roots its own tree here; on the padded
    graph that tree hangs under the gadget's mutual pair, so it is leveled
    one deeper.  The host stays a labelled block, as on the padded graph it
    shares one with its gadget, unless the chosen layer set is j = 0, which
    drops the host-gadget edge.  So the cut equals the padded graph's
    restricted to ``g``: gadget edges weigh 0, and gadget-only blocks never
    move a vertex of ``g``.
    """
    nxt = [s if s is None or s < g.n else None for s in succ.succ]
    hosts = [v for v, s in enumerate(succ.succ) if s != nxt[v]]
    comp = [-1] * g.n  # successor component, named by a vertex; -2 on the walk
    cycles = []
    for start in range(g.n):
        walk, v = [], start
        while v is not None and comp[v] == -1:
            comp[v] = -2
            walk.append(v)
            v = nxt[v]
        if v is not None and comp[v] == -2:
            cyc = walk[walk.index(v):]
            if len(cyc) > 2 and len(cyc) % 3:
                raise ClaimViolationError(
                    f"successor cycle of length {len(cyc)} (expected a multiple of 3)")
            cycles.append(cyc)
        label = comp[v] if v is not None and comp[v] >= 0 else start
        for x in walk:
            comp[x] = label
    long_edges = [[g.edge_id(c[i - 1], c[i]) for i in range(len(c))]
                  for c in cycles if len(c) > 2]
    cycle_ids = set().union(*long_edges)
    forest = frozenset(e for e, c in enumerate(cls.class_of_edge) if c) - cycle_ids
    roots = sorted({v for v, s in enumerate(nxt) if s is None}.union(*cycles))
    t = _orient(g, forest, roots, "arbitrary")
    for eid, length in _forest_cycle_lengths(g, t):
        u, v, _ = g.edges[eid]
        # only a long cycle's component holds two trees
        if length is None and comp[u] == comp[v] and eid not in cycle_ids:
            raise ClaimViolationError(
                "edge between two trees hanging off one successor cycle")
        if length is not None and length % 3:
            raise ClaimViolationError(
                f"cycle of length {length} through a non-successor edge "
                "(expected a multiple of 3)")
    deeper = {comp[s] for s in hosts}
    level = tuple(x + (c in deeper) for x, c in zip(t.level, comp))
    j, ids = layer_edge_sets(g, replace(t, level=level), 4)
    for es in long_edges:
        cheapest = min(sorted(es), key=_exact_weights(g).ints.__getitem__) if len(es) % 2 else None
        ids += [e for e in es if e != cheapest]
    return place_blocks(g, _two_color(g, ids, hosts if j else ()))


def mutual_matching_cut(g: WeightedGraph, cls: EdgeClassification) -> Cut:
    """Matching-contraction cut with the mutual successor edges as matching.

    Certified value: (3/5)(w0 + w1) + w2, which the contraction bound
    dominates whenever the contracted coloring uses at most five colors.
    The class-2 edges of ``g`` are contracted; the padding's mutual edges
    lie inside gadgets, which weigh 0.  Contracting a matching of a
    subcubic graph leaves maximum degree at most 4, so Vizing's coloring
    uses at most five colors.
    """
    rep = matching_vizing_bound(g, cls.edge_ids(2))
    if rep.details["color_count"] > 5:
        raise ClaimViolationError(
            f"contracted coloring used {rep.details['color_count']} > 5 colors")
    return rep.cut


# =====================================================================
# the 8/11 pipeline and the 2/3 cut
# =====================================================================


def _require_tf_subcubic(g: WeightedGraph) -> None:
    if not triangle_free(g):
        raise TriangleFoundError("bound expects a triangle-free graph")
    if g.max_degree() > 3:
        raise NotSubcubicError("graph is not subcubic")


# 120 times each candidate's certified value, as coefficients of the class
# weights: w0 + 2 w1/3 + w2/3, w0/2 + 7 w1/8 + w2 and (3/5)(w0 + w1) + w2.
_CANDIDATES = {"drop_class": (120, 80, 40),
               "layered_components": (60, 105, 120),
               "mutual_matching": (72, 72, 120)}


def eight_elevenths_bound(g: WeightedGraph) -> BoundReport:
    """Deterministic cut of weight at least (8/11) w(G) for tf subcubic G.

    The three certified values satisfy, with weights 9/22, 8/22 and 5/22,
    a combination identity equal to (8/11) w, so the candidate with the
    largest value (the first on ties) meets the bound alone: only its cut
    is built and checked.  Values are ranked on integer sums.  Every
    candidate runs on G with its zero-weight padding counted, never built.
    The report is memoized on ``g``.
    """
    _require_tf_subcubic(g)
    return _cached_report(g, "eight_elevenths", lambda: _eight_elevenths(g))


def _eight_elevenths(g: WeightedGraph) -> BoundReport:
    if g.n == 0:
        return _report("eight_elevenths", Fraction(0), Cut((), Fraction(0)), {})
    coloring = color_components(g)
    padding = [3 - len(a) for a in g.adj]
    succ = _successors(g, coloring, padding)
    cls = classify_edges(g, succ)
    sums = cls.sums(g)  # padding edges weigh 0
    scores = {name: sum(c * w for c, w in zip(coef, sums)) for name, coef in _CANDIDATES.items()}
    winner = max(scores, key=scores.__getitem__)
    ex = _exact_weights(g)
    unit = 120 << ex.scale
    value = Fraction(scores[winner], unit)
    if winner == "drop_class":
        cut = per_class_cut(g, coloring, succ)
    elif winner == "layered_components":
        cut = component_layer_cut(g, succ, cls)
    else:
        cut = mutual_matching_cut(g, cls)
    if not meets(cut, value):
        raise ClaimViolationError(
            f"{winner} cut weight {cut.weight} below certified {value}")
    details = {"gadgets": sum(padding),
               "class_weights": [x / (1 << ex.scale) for x in sums],  # int / int rounds once
               **{name: {"certified": x / unit} for name, x in scores.items()},
               "winner": winner}
    details[winner]["cut_weight"] = cut.weight
    return _report("eight_elevenths", EIGHT_ELEVENTHS * ex.total, cut, details)


def two_thirds_bound(g: WeightedGraph) -> BoundReport:
    """Cut of weight at least (2/3) w(G) from a proper 3-coloring.

    Keeps the heaviest class pair apart and moves each third-class vertex
    to whichever side captures more of its incident weight, compared exactly.
    """
    _require_tf_subcubic(g)
    if g.n == 0:
        return _report("two_thirds", Fraction(0), Cut((), Fraction(0)), {})
    coloring = color_components(g)
    ex = _exact_weights(g)
    pair_w = {(i, j): 0 for i, j in combinations((1, 2, 3), 2)}
    for (u, v, _), q in zip(g.edges, ex.ints):
        cu, cv = sorted((coloring.class_of[u], coloring.class_of[v]))
        pair_w[(cu, cv)] += q
    (i, j) = max(pair_w, key=lambda p: (pair_w[p], -p[0], -p[1]))
    k = ({1, 2, 3} - {i, j}).pop()
    side = [int(c == j) for c in coloring.class_of]
    for v in range(g.n):
        if coloring.class_of[v] == k:
            wi = sum(ex.ints[e] for u, e in g.adj[v] if coloring.class_of[u] == i)
            wj = sum(ex.ints[e] for u, e in g.adj[v] if coloring.class_of[u] == j)
            side[v] = 0 if wj >= wi else 1
    details = {"kept_pair": [i, j], "moved_class": k,
               "pair_weight": float(ex.value(pair_w[(i, j)]))}
    return _report("two_thirds", 2 * ex.total / 3, Cut.from_side(g, side), details)


# =====================================================================
# tree percolation and the combination bound
# =====================================================================


def percolation_expectation(w: float, wt: float, p: float, r: Optional[int]) -> float:
    """(p+1)/2 w(T) + (1 - p^(r-1))/2 (w(G) - w(T)) for w = w(G), wt = w(T), in
    float: p is a decimal constant, and the report reads it as a ``Fraction``."""
    p_pow = p ** (r - 1) if r is not None else 0.0
    return (p + 1.0) / 2.0 * wt + (1.0 - p_pow) / 2.0 * (w - wt)


def tree_percolation_bound(g: WeightedGraph,
                           tree: Optional[RootedSpanningTree] = None,
                           p: float = PERCOLATION_P) -> BoundReport:
    """Percolation bound (p+1)/2 w(T) + (1 - p^(r-1))/2 (w(G) - w(T)), with
    the cut of the percolation process derandomized by conditional
    expectations.

    Requires max degree at most 3.  T's own bipartition, the process's cut
    at p = 1, certifies each component whose share of it meets the value,
    checked exactly; only the other components run ``_percolation_cut``,
    which decides their tree edges so the conditional expectation never
    falls and orients the kept forest with ``place_blocks``.  One local
    search follows, and the cut is checked against the bound.  Details
    record the process's exact expectation, the cut's weight before the
    search and its ``certificate``.  The report is memoized on ``g``, keyed
    on p and the tree's edge set.  Each component has its own r.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if g.max_degree() > 3:
        raise NotSubcubicError("graph is not subcubic")
    if not g.is_connected() and tree is not None:
        raise DisconnectedGraphError("percolation bound needs a spanning tree")
    t = tree if tree is not None else max_spanning_tree(g)
    return _cached_report(g, ("tree_percolation", p, t.edge_ids),
                          lambda: _tree_percolation(g, t, p))


def _tree_paths(g: WeightedGraph, t: RootedSpanningTree,
                short: list[bool]) -> list[tuple[int, list[int]]]:
    """``(f, tree edge ids on the tree path of f)`` for every non-tree edge f
    of a forest in a component flagged ``short``; a tree leveled from a
    marked edge is rooted at 0 first."""
    rooted = t if len(t.roots) + len(t.edge_ids) == g.n else _orient(g, t.edge_ids, (0,), t.kind)
    parent, level = rooted.parent, rooted.level
    label = _components(g)[1]
    up = [None if u is None or not short[label[v]] else g.edge_id(v, u)
          for v, u in enumerate(parent)]
    paths = []
    for f, (a, b, _) in enumerate(g.edges):
        if f in t.edge_ids or not short[label[a]]:
            continue
        path = []
        while a != b:
            if level[a] < level[b]:
                a, b = b, a
            path.append(up[a])
            a = parent[a]
        paths.append((f, path))
    return paths


def _percolation_cut(g: WeightedGraph, t: RootedSpanningTree, p: float,
                     paths: list[tuple[int, list[int]]]) -> Cut:
    """The percolation process derandomized by conditional expectations.

    Kept tree edges cross; a non-tree edge f whose tree path of length L
    is all kept crosses iff L is odd; every other edge joins two pieces of
    the kept forest and crosses with probability 1/2 under a uniform
    orientation.  Given the decided tree edges, f (sign s = +1 for odd L,
    -1 for even) crosses with probability 1/2 + s p^u / 2 while its path
    keeps every decided edge, u counting the undecided ones, and 1/2 once
    one is dropped.  Tree edges are decided in ascending id: e is kept iff
    keeping adds at least as much as dropping, w_e/2 + sum over such f
    through e of s w_f p^(u-1) / 2 >= 0.  So the conditional expectation
    never falls below the process's expectation, sum_e w_e (1+p)/2 +
    sum_f w_f (1/2 + s p^L / 2), and ``place_blocks`` orients the kept
    pieces at least as well as a uniform orientation.  A tree edge that no
    path in ``paths`` runs through is kept, at no cost to decide.
    """
    through: dict[int, list[int]] = {}
    signed, undecided = [], []
    for i, (f, path) in enumerate(paths):
        w = g.edges[f][2]
        signed.append(w if len(path) % 2 else -w)
        undecided.append(len(path))
        for e in path:
            through.setdefault(e, []).append(i)
    power = [p ** k for k in range(max(undecided, default=0))]
    live = [True] * len(paths)
    kept = [e for e in t.edge_ids if e not in through]  # w_e >= 0 keeps them
    for e in sorted(through):
        fs = [i for i in through[e] if live[i]]
        if g.edges[e][2] + sum(signed[i] * power[undecided[i] - 1] for i in fs) >= 0:
            kept.append(e)
            for i in fs:
                undecided[i] -= 1
        else:
            for i in fs:
                live[i] = False
    return place_blocks(g, _two_color(g, kept))


def _tree_percolation(g: WeightedGraph, t: RootedSpanningTree, p: float) -> BoundReport:
    cycles = _forest_cycle_lengths(g, t)  # (f, c): f's tree path has c - 1 edges
    rs = _least_by_component(g, ((f, c) for f, c in cycles if c % 2))
    unit = 1 << _exact_weights(g).scale  # an int over it rounds once
    values = [Fraction(percolation_expectation(w / unit, wt / unit, p, r))
              for w, wt, r in zip(*_forest_sums(g, t), rs)]
    raw = Cut.from_side(g, _two_color(g, t.edge_ids).color)  # the process at p = 1
    short = [x * v.denominator < v.numerator * unit for x, v in zip(_cut_sums(g, raw), values)]
    if any(short):
        raw = _percolation_cut(g, t, p, _tree_paths(g, t, short))
    cut = local_search_improve(g, raw)
    # f crosses with probability 1/2 + s p^L / 2 = (1 - (-p)^L) / 2
    expectation = (p + 1.0) / 2.0 * t.weight + sum(
        g.edges[f][2] * (1.0 - (-p) ** (c - 1)) / 2.0 for f, c in cycles)
    details = {"p": p, "r": rs[0], "tree_weight": t.weight, "expectation": expectation,
               "raw_weight": raw.weight,
               "certificate": "percolation" if any(short) else "tree_bipartition"}
    return _lifted(g, "tree_percolation", values, cut, details)


def combined_tree_bound(g: WeightedGraph,
                        tree: Optional[RootedSpanningTree] = None) -> BoundReport:
    """w(G)/2 + 0.3193 w(T) for tf subcubic G and any spanning tree T.

    Mixing the p = 0.85 percolation inequality (worst case r = 5) with the
    8/11 inequality at weights 0.46545 / 0.53455 yields the coefficient.
    Both branch cuts are certified, so the heavier one weighs at least the
    mix and meets the bound; it is checked exactly against the float value
    of w/2 + 0.3193 w(T), read as a ``Fraction``; on a disconnected graph
    each component takes its heavier branch (8/11 on ties).  Both branch
    reports are memoized, so after a suite has run them this costs nothing
    but that choice and check.
    """
    if tree is not None and not g.is_connected():
        raise DisconnectedGraphError("combination bound needs a spanning tree")
    # checks that each component, in turn, is triangle-free and subcubic
    eight = per_component(g, eight_elevenths_bound, "eight_elevenths")
    t = tree if tree is not None else max_spanning_tree(g)
    perc = tree_percolation_bound(g, tree, PERCOLATION_P)
    picks = [eight.cut if a >= b else perc.cut for a, b in zip(
        _cut_sums(g, eight.cut), _cut_sums(g, perc.cut))]
    cut = picks[0] if len(picks) == 1 else Cut.from_side(
        g, [picks[c].side[v] for v, c in enumerate(_components(g)[1])])
    unit = 1 << _exact_weights(g).scale  # an int over it rounds once
    values = [Fraction(w / unit / 2.0 + TREE_COEFFICIENT * (wt / unit))
              for w, wt in zip(*_forest_sums(g, t))]
    mixed = (COMBINATION_WEIGHT_A * (PERCOLATION_P + 1.0) / 2.0
             + COMBINATION_WEIGHT_B * float(EIGHT_ELEVENTHS))
    details = {
        "tree_weight": t.weight,
        "branch_eight_elevenths": eight.bound_value,
        "branch_percolation": perc.bound_value,
        "mix_weight_percolation": COMBINATION_WEIGHT_A,
        "mix_weight_eight_elevenths": COMBINATION_WEIGHT_B,
        "mixed_tree_coefficient": mixed - 0.5,
    }
    return _lifted(g, "combined_tree", values, cut, details)


# =====================================================================
# two-stage random redistribution (Monte Carlo)
# =====================================================================


def shearer_bound(g: WeightedGraph, trials: int = 256, seed: int = 0) -> BoundReport:
    """Coefficient bound s * w(G), s = 1/2 + 1/(4 sqrt(2 max_degree)), for
    triangle-free graphs.  Up to max degree 16 Vizing's coefficient covers s,
    so the ``vizing_classes`` cut after one local search certifies the float
    s * w(G) read as a ``Fraction``; from 17 on, ``_shearer_sample`` samples.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if not triangle_free(g):
        raise TriangleFoundError("redistribution bound expects a triangle-free graph")
    delta = g.max_degree()
    d = max(delta, 1)  # an edgeless graph weighs 0 at any coefficient
    if 32 * d * (3 * d - 1) ** 2 < (4 * d * d + 2 * d - 2) ** 2:  # Vizing's below s: d >= 17
        return _shearer_sample(g, trials, seed)
    cut = local_search_improve(g, vizing_classes_bound(g).cut)
    details = {"delta": delta, "coefficient": shearer_coefficient(d),
               "certificate": "vizing_classes"}
    return _report("shearer", Fraction(details["coefficient"] * g.total_weight), cut, details)


def _shearer_sample(g: WeightedGraph, trials: int, seed: int) -> BoundReport:
    """The Monte Carlo ``shearer`` report of a graph with edges: ``trials``
    runs of the two-stage process (a uniform partition, then a fresh side for
    each vertex with at most half its neighbours across, a tie kept with
    probability 1/2), their coins drawn per block from one
    ``random.Random(seed)``: first sides, tie bits, redraws.  The heaviest
    trial on exact weights (the first on ties) gets one local search.
    """
    delta = g.max_degree()
    rng = random.Random(seed)
    ends, ints = _edge_arrays(g)
    rows = max(1, _BLOCK_CELLS // max(g.n, g.m))
    blocks = [min(rows, trials - start) for start in range(0, trials, rows)]
    per_batch = max(1, _BATCH_CELLS // (rows * max(g.n, 2 * g.m)))
    best_side, best, raw = None, None, []
    for k in range(0, len(blocks), per_batch):
        coins = [_bits(rng, b, g.n) for b in blocks[k:k + per_batch] for _ in range(3)]
        sides = _shearer_sides(g, *(np.concatenate(coins[j::3]) for j in range(3)))
        crossing = (sides[:, ends[0]] != sides[:, ends[1]]).astype(ints.dtype)
        weights = (crossing @ ints).tolist()  # exact; numpy has no BLAS for int64 or object
        i = weights.index(max(weights))
        if best is None or weights[i] > best:
            best_side, best = sides[i], weights[i]
        raw += weights
    cut = local_search_improve(g, Cut.from_side(g, best_side.tolist()))
    unit = 1 << _exact_weights(g).scale
    raw_weights = [q / unit for q in raw]  # each exact weight rounded once
    value = shearer_coefficient(delta) * g.total_weight
    details = {
        "delta": delta, "trials": trials, "seed": seed,
        "coefficient": shearer_coefficient(delta),
        "raw_mean": statistics.fmean(raw_weights),
        "raw_std": statistics.stdev(raw_weights) if len(raw_weights) > 1 else 0.0,
    }
    return BoundReport("shearer", value, cut, MONTE_CARLO, None, details)


def _bits(rng: random.Random, b: int, n: int) -> np.ndarray:
    """A (b, n) block of fair bits drawn from ``rng``."""
    k = b * n
    raw = np.frombuffer(rng.getrandbits(k).to_bytes((k + 7) // 8, "little"), np.uint8)
    return np.unpackbits(raw, count=k, bitorder="little").reshape(b, n)


def _shearer_sides(g: WeightedGraph, first: np.ndarray, tie: np.ndarray,
                   redraw: np.ndarray) -> np.ndarray:
    """The side vectors of b trials of the two-stage process, from their coins.

    ``first``, ``tie`` and ``redraw`` are (b, n) bit blocks: row i holds
    trial i's first-stage sides and each vertex's tie bit and redraw.  A
    vertex keeps its first-stage side when more than half of its neighbours
    are on the other side, or on a tie when its tie bit is 1; otherwise it
    takes its redraw.  Neighbours on side 1 are counted by one gather over
    the 2m incidences, summed per vertex; the rest is branch-free, since the
    coins are random.
    """
    nbr, starts, active, degree = _incidence_arrays(g)
    ones = np.zeros(first.shape, dtype=np.int32)  # neighbours on side 1
    if len(nbr):
        # out= keeps the sums int32; by default numpy widens them to int64
        counts = np.empty((len(first), len(active)), dtype=np.int32)
        np.add.reduceat(first[:, nbr].astype(np.int32), starts, axis=1, out=counts)
        ones[:, active] = counts
    # 2 * (neighbours across) - degree, plus the tie bit: positive exactly
    # when the vertex keeps its first-stage side
    lead = (2 * ones - degree) * (1 - 2 * first.astype(np.int32)) + tie
    return redraw ^ ((first ^ redraw) & (lead > 0))
