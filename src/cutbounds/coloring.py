"""Constructive edge coloring and the coloring-driven cut bounds.

vizing_edge_coloring implements the classical fan-and-alternating-path
construction with at most max_degree + 1 colors.  matching_vizing_bound
contracts a matching, colors the contraction, and derandomizes the
matching joined with its heaviest lifted color class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .bounds import BoundReport, _cached_report, _report, best_matching
from .cuts import check_matching, derandomized_cut, verify_induced_bipartite
from .graph import TriangleFoundError, WeightedGraph, _exact_weights, triangle_free


@dataclass(frozen=True)
class EdgeColoring:
    """Proper edge coloring with colors 1..color_count."""

    color: tuple[int, ...]
    color_count: int

    def classes(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.color_count)]
        for eid, c in enumerate(self.color):
            out[c - 1].append(eid)
        return out

    def validate(self, g: WeightedGraph) -> None:
        for v in range(g.n):
            seen = set()
            for _, eid in g.adj[v]:
                c = self.color[eid]
                if c in seen:
                    raise AssertionError(f"two color-{c} edges meet at vertex {v}")
                seen.add(c)
        if self.color_count > g.max_degree() + 1:
            raise AssertionError("coloring exceeds max degree + 1 colors")


def vizing_edge_coloring(g: WeightedGraph) -> EdgeColoring:
    """Proper edge coloring with at most max_degree + 1 colors.

    Classical fan construction: edges are processed in id order; for an
    uncolored edge (u, v) a maximal fan at u is built (lowest-id choices),
    the alternating path in the two relevant colors through u is flipped,
    and a fan prefix is rotated.  Deterministic throughout.  Each vertex
    holds one slot per color (the edge of that color there, or -1), and a
    stamp array marks the current fan.
    """
    palette = g.max_degree() + 1
    edges, adj = g.edges, g.adj
    color = [0] * g.m
    # at[v][c]: the color-c edge at v, or -1; slot 0 is unused.  A vertex
    # meets at most palette - 1 edges, so some slot 1..palette is free.
    at = [[-1] * (palette + 1) for _ in range(g.n)]
    fan_stamp = [-1] * g.n  # fan_stamp[z] == start: z is in the fan of edge start

    def set_color(eid: int, c: int) -> None:
        u, v, _ = edges[eid]
        old = color[eid]
        if old:
            at[u][old] = at[v][old] = -1
        color[eid] = c
        if c:
            at[u][c] = at[v][c] = eid

    for start in range(g.m):
        if color[start]:
            continue
        u, v, _ = edges[start]
        # maximal fan at u starting with v
        fan = [v]
        fan_edge = [start]
        fan_stamp[v] = start
        last = at[v]
        while True:
            for z, eid in adj[u]:
                cz = color[eid]
                if cz and last[cz] < 0 and fan_stamp[z] != start:
                    fan.append(z)
                    fan_edge.append(eid)
                    fan_stamp[z] = start
                    last = at[z]
                    break
            else:
                break
        c = at[u].index(-1, 1)
        d = last.index(-1, 1)
        if c != d and at[u][d] >= 0:
            # flip the maximal path through u alternating colors d, c;
            # clear first so no slot ever holds two edges
            path = []
            cur, want = u, d
            while at[cur][want] >= 0:
                eid = at[cur][want]
                path.append(eid)
                a, b, _ = edges[eid]
                cur = b if cur == a else a
                want = c if want == d else d
            flipped = [c if color[eid] == d else d for eid in path]
            for eid in path:
                set_color(eid, 0)
            for eid, col in zip(path, flipped):
                set_color(eid, col)
        if at[v][d] < 0:  # the one-edge fan prefix: color (u, v) with d
            color[start] = d
            at[u][d] = at[v][d] = start
            continue
        # first longer fan prefix that is still a fan and ends where d is free
        w_index = None
        for j in range(1, len(fan)):
            if at[fan[j]][d] >= 0:
                continue
            if all(color[fan_edge[i]] and at[fan[i - 1]][color[fan_edge[i]]] < 0
                   for i in range(1, j + 1)):
                w_index = j
                break
        if w_index is None:
            raise AssertionError("fan rotation target not found")
        shifted = [color[fan_edge[i + 1]] for i in range(w_index)] + [d]
        for i in range(w_index + 1):
            set_color(fan_edge[i], 0)
        for i, col in enumerate(shifted):
            set_color(fan_edge[i], col)

    # compact to 1..c, keeping the order of the colors
    remap = {c: i + 1 for i, c in enumerate(sorted(set(color)))}
    out = EdgeColoring(tuple(remap[c] for c in color), len(remap))
    out.validate(g)
    return out


# -- matching contraction -------------------------------------------------


@dataclass(frozen=True)
class ContractedGraph:
    """Result of contracting a matching, with lift-back bookkeeping.

    Parallel edges created by the contraction are merged with summed
    weights; ``edge_origin[k]`` lists the original edge ids behind
    contracted edge k.  In a triangle-free host each parallel class has at
    most two original edges and those are vertex-disjoint, so any matching
    in the contraction lifts to an induced matching of the host.
    """

    base: WeightedGraph
    edge_origin: tuple[tuple[int, ...], ...]
    matching: tuple[int, ...]

    def lift_matching(self, base_edge_ids: Sequence[int]) -> tuple[int, ...]:
        out: list[int] = []
        for k in base_edge_ids:
            out.extend(self.edge_origin[k])
        return tuple(sorted(out))


def contract_matching(g: WeightedGraph, matching: Sequence[int]) -> ContractedGraph:
    m_ids = check_matching(g, matching)
    if not triangle_free(g):
        raise TriangleFoundError("matching contraction needs a triangle-free graph")
    vid, count = [-1] * g.n, 0
    for eid in m_ids:
        u, v, _ = g.edges[eid]
        vid[u] = vid[v] = count
        count += 1
    for v in range(g.n):
        if vid[v] < 0:
            vid[v], count = count, count + 1
    merged: dict[tuple[int, int], tuple[float, list[int]]] = {}
    m_set = set(m_ids)
    for eid, (u, v, w) in enumerate(g.edges):
        if eid in m_set:
            continue
        a, b = vid[u], vid[v]
        if a == b:
            raise AssertionError("contraction produced a self-loop")
        key = (min(a, b), max(a, b))
        if key in merged:
            w0, ids = merged[key]
            merged[key] = (w0 + w, ids + [eid])
        else:
            merged[key] = (w, [eid])
    keys = sorted(merged)
    base = WeightedGraph(count, [(a, b, merged[(a, b)][0]) for a, b in keys])
    edge_origin = tuple(tuple(merged[k][1]) for k in keys)
    return ContractedGraph(base, edge_origin, m_ids)


def matching_vizing_bound(g: WeightedGraph, matching: Sequence[int]) -> BoundReport:
    """(w(G)+w(M))/2 + (w(G)-w(M))/(2c) via coloring the contraction of M.

    c is the achieved color count of the contracted graph (at most
    2*max_degree - 1), so the reported bound is at least the worst-case
    max_degree/(2*max_degree-1) * (w(G)-w(M)) + w(M) form.  The one cut
    derandomizes M joined with the heaviest lifted class (the first on
    ties, weighed exactly on G), which weighs at least (w(G)-w(M))/c.
    Memoized on ``g``, keyed on the sorted matching.
    """
    m_ids = check_matching(g, matching)
    return _cached_report(g, ("matching_vizing", m_ids), lambda: _matching_vizing(g, m_ids))


def _matching_vizing(g: WeightedGraph, m_ids: tuple[int, ...]) -> BoundReport:
    con = contract_matching(g, m_ids)
    classes = vizing_edge_coloring(con.base).classes() if con.base.m else [[]]
    c = len(classes)
    ex = _exact_weights(g)
    lifted = [con.lift_matching(cls) for cls in classes]
    best_class = max(range(c), key=lambda i: ex.weight(lifted[i]))
    ids = set(m_ids) | set(lifted[best_class])
    best = derandomized_cut(g, verify_induced_bipartite(g, ids))
    w, wm = ex.total, ex.weight(m_ids)
    value = (w + wm) / 2 + (w - wm) / (2 * c)
    wm_f = float(wm)
    delta = g.max_degree()
    worst = (delta / (2 * delta - 1) * (g.total_weight - wm_f) + wm_f
             if delta >= 1 else wm_f)
    details = {"color_count": c, "matching_weight": wm_f,
               "matching_size": len(m_ids), "best_class": best_class,
               "worst_case_bound": worst}
    return _report("matching_vizing", value, best, details)


# -- degree-driven coefficients -------------------------------------------


def shearer_coefficient(delta: int) -> float:
    """1/2 + 1/(4*sqrt(2*delta)); randomized-redistribution coefficient."""
    if delta < 1:
        raise ValueError("delta must be a positive integer")
    return 0.5 + 1.0 / (4.0 * math.sqrt(2.0 * delta))


def vizing_classes_coefficient(delta: int) -> Fraction:
    """1/2 + (3*delta-1)/(4*delta^2+2*delta-2), exactly; edge-coloring coefficient."""
    if delta < 1:
        raise ValueError("delta must be a positive integer")
    return Fraction(1, 2) + Fraction(3 * delta - 1, 4 * delta * delta + 2 * delta - 2)


def vizing_classes_bound(g: WeightedGraph) -> BoundReport:
    """Coefficient bound t * w(G) for triangle-free graphs.

    Takes the cut of the matching-contraction bound on ``best_matching`` when
    (delta+1) * w(M) >= w(G), compared exactly, else on the heaviest class
    of a (delta+1)-edge-coloring of G (the first on ties).  That bound rises
    with w(M) and falls with its color count c <= 2*delta - 1 (a contracted
    matching leaves max degree <= 2*delta - 2); at w(M) = w(G)/(delta+1) and
    c = 2*delta - 1 it equals t * w(G), so its cut meets t * w(G).  Memoized on ``g``.
    """
    if not triangle_free(g):
        raise TriangleFoundError("coefficient bound needs a triangle-free graph")
    return _cached_report(g, "vizing_classes", lambda: _vizing_classes(g))


def _vizing_classes(g: WeightedGraph) -> BoundReport:
    ex = _exact_weights(g)
    delta = g.max_degree()
    coeff = vizing_classes_coefficient(max(delta, 1))  # an edgeless graph weighs 0
    details = {"delta": delta, "coefficient": float(coeff), "matching": "best_matching"}
    m_ids = best_matching(g)
    if (delta + 1) * sum(map(ex.ints.__getitem__, m_ids)) < sum(ex.ints):
        coloring = vizing_edge_coloring(g)
        best_class, m_ids = max(enumerate(coloring.classes()), key=lambda ic: ex.weight(ic[1]))
        details.update(matching="heaviest_class", class_count=coloring.color_count,
                       best_class=best_class)
    return _report("vizing_classes", coeff * ex.total, matching_vizing_bound(g, m_ids).cut,
                   details)
