"""Deterministic certified lower bounds for the maximum weighted cut.

Every operation returns a BoundReport whose cut was constructed by the
conditional-expectation derandomizer.  Each bound value is a ``Fraction``
built from the graph's exact weights, and `cut.exact_weight >= bound_exact`
holds exactly, over rationals, for every finite weight.  On a disconnected
graph the spanning-tree rows run on one spanning forest: each component
keeps its own value, tree parameters and certificate, and its part of the
one cut is checked against its value.  Explicit trees and parameters need
a connected graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .cuts import (Cut, check_matching, derandomized_cut, verify_induced_bipartite)
from .graph import (DisconnectedGraphError, PreconditionError, TriangleFoundError,
                    WeightedGraph, _cached, _component_split, _component_sums, _components,
                    _exact_weights, _girths, _least_by_component, stats)
from .spanning import (OddCycleError, RootedSpanningTree, _dfs, _orient, layer_edge_sets,
                       max_spanning_tree, min_spanning_tree, reroot_at_edge,
                       shortest_fundamental_odd_cycle)

DETERMINISTIC = "deterministic"
MONTE_CARLO = "monte_carlo"

EXACT_MATCHING_MAX_EDGES = 24
ROOT_SWEEP_MAX_N = 64


class BoundPreconditionError(PreconditionError):
    """The instance violates a bound's precondition (reported, not fatal)."""


class ClaimViolationError(Exception):
    """A property the construction guarantees failed, such as a
    deterministic cut weighing less than its certified value.

    A violation signals an upstream bug, so callers get diagnostics
    instead of a cut.
    """


@dataclass
class BoundReport:
    """Named bound with its certified value and constructed cut.

    mode "deterministic" guarantees cut.exact_weight >= bound_exact, the
    exact bound value, of which ``bound_value`` is the rounded float; mode
    "monte_carlo", which only ``shearer`` reports, at max degree 17 or more,
    bounds the expectation only and has no ``bound_exact``.
    """

    name: str
    bound_value: float
    cut: Cut
    mode: str
    bound_exact: Optional[Fraction] = None
    details: dict = field(default_factory=dict)


def meets(cut: Cut, value: Fraction) -> bool:
    """Whether ``cut`` weighs at least ``value``, compared exactly."""
    return cut.exact_weight >= value


def _report(name: str, value: Fraction, cut: Cut, details: dict) -> BoundReport:
    """A deterministic report of the exact ``value``; raises
    ClaimViolationError when ``cut`` does not meet it."""
    if not meets(cut, value):
        raise ClaimViolationError(f"{name} cut weight {cut.weight} below certified {value}")
    return BoundReport(name, float(value), cut, DETERMINISTIC, value, details)


def _lifted(g: WeightedGraph, name: str, values: Sequence[Fraction], cut: Cut,
            details: dict) -> BoundReport:
    """``_report`` of the sum of a row's exact per-component ``values``, as
    ``per_component`` stitches it: on a disconnected graph the details list
    them, and each component's part of ``cut`` must meet its own value
    (checked and summed on integers)."""
    if len(values) == 1:
        return _report(name, values[0], cut, details)
    unit = 1 << _exact_weights(g).scale
    for x, value in zip(_cut_sums(g, cut), values):
        if x * value.denominator < value.numerator * unit:
            raise ClaimViolationError(f"{name} cut weight {x / unit} below certified {value}")
    den = math.lcm(*(v.denominator for v in values))
    total = Fraction(sum(v.numerator * (den // v.denominator) for v in values), den)
    return _report(name, total, cut,
                   {"components": len(values), "component_bounds": [float(v) for v in values]})


def _cut_sums(g: WeightedGraph, cut: Cut) -> list[int]:
    """Each component's share of ``cut``'s weight, in component order."""
    side = cut.side
    return _component_sums(g, (e for e, (u, v, _) in enumerate(g.edges) if side[u] != side[v]),
                           cut.exact_weight)


def _forest_sums(g: WeightedGraph, t: RootedSpanningTree) -> tuple[list[int], list[int]]:
    """``_component_sums`` of all edges and of the forest ``t``: w(G_c) and w(T_c)."""
    return (_component_sums(g, range(g.m), _exact_weights(g).total),
            _component_sums(g, t.edge_ids, t.exact_weight))


def _cached_report(g: WeightedGraph, key,
                   compute: Callable[[], BoundReport]) -> BoundReport:
    """A report memoized on ``g`` under ``key``; each caller gets its own copy.

    The copy's ``details`` are copied through every dict and list, the only
    containers they hold, so no caller can alter the memoized report; the
    cut is immutable and shared.
    """
    rep = _cached(g, key, compute)
    return replace(rep, details=_copy_details(rep.details))


def _copy_details(x):
    """``x`` with every dict and list in it copied; the leaves are immutable."""
    if isinstance(x, dict):
        return {k: _copy_details(v) for k, v in x.items()}
    return [_copy_details(v) for v in x] if isinstance(x, list) else x


# -- spanning-tree based bounds -----------------------------------------


def _best_dfs_tree(g: WeightedGraph) -> RootedSpanningTree:
    """DFS forest whose tree on each component weighs most over every root
    when the component has at most ROOT_SWEEP_MAX_N vertices, else grows
    from its lowest vertex; ties go to the lowest root.  Roots are ranked on
    exact integer tree weights, the searches share one visited array, and
    the winners' trees are leveled once.  Memoized on ``g``."""
    if g.n == 0:
        raise DisconnectedGraphError("empty graph has no spanning tree")

    def compute() -> RootedSpanningTree:
        ints, seen, roots, edge_ids = _exact_weights(g).ints, bytearray(g.n), [], []
        for comp in _components(g)[0]:
            runs = []
            for r in comp if len(comp) <= ROOT_SWEEP_MAX_N else comp[:1]:
                runs.append((r, _dfs(g, r, seen)))
                for v in comp:
                    seen[v] = 0
            r, ids = max(runs, key=lambda run: sum(map(ints.__getitem__, run[1])))
            roots.append(r)
            edge_ids += ids
        return _orient(g, frozenset(edge_ids), roots, "dfs")
    return _cached(g, "best_dfs_tree", compute)


def _layer_cut(g: WeightedGraph, t: RootedSpanningTree,
               ks: Sequence[int]) -> tuple[Cut, list[int]]:
    """The derandomized cut of the layer sets of ``t`` that drop the least
    tree weight, each component with its own k, and their indices: one
    check and one cut."""
    js, ids = layer_edge_sets(g, t, ks)
    return derandomized_cut(g, verify_induced_bipartite(g, ids)), js


def _parity_cut(g: WeightedGraph) -> Cut:
    """The parity-layer cut of ``_best_dfs_tree(g)``, which both
    ``poljak_turzik`` and ``dfs_bound`` certify; memoized on ``g`` (a
    ``Cut`` is immutable, so the two share it)."""
    d = _best_dfs_tree(g)  # one root per component
    return _cached(g, "parity_cut", lambda: _layer_cut(g, d, [2] * len(d.roots))[0])


def _layer_values(g: WeightedGraph, t: RootedSpanningTree, ks: Sequence[int],
                  marked: Sequence[Optional[int]] = ()) -> list[Fraction]:
    """w(G_c)/2 + (k-1)/(2k) w(T_c) + w(e_c)/(2k) for each component c, with
    its own k and marked edge e_c (none by default), exactly."""
    stars = _component_sums(g, [e for e in marked if e is not None]) if marked else [0] * len(ks)
    scale = _exact_weights(g).scale
    return [Fraction(k * w + (k - 1) * wt + star, 2 * k << scale)
            for w, wt, star, k in zip(*_forest_sums(g, t), stars, ks)]


def poljak_turzik(g: WeightedGraph) -> BoundReport:
    """w(G)/2 + w(T_min)/4 with a minimum-weight spanning tree T_min.

    The constructed cut comes from the DFS parity layers, which certify the
    stronger DFS bound; their guarantee dominates this one because any DFS
    tree outweighs the minimum spanning tree.
    """
    tmin = min_spanning_tree(g)
    d = _best_dfs_tree(g)
    cut = _parity_cut(g)
    values = _layer_values(g, tmin, [2] * len(d.roots))
    details = {"min_tree_weight": tmin.weight, "dfs_root": d.roots[0],
               "dfs_tree_weight": d.weight}
    return _lifted(g, "poljak_turzik", values, cut, details)


def dfs_bound(g: WeightedGraph) -> BoundReport:
    """w(G)/2 + w(D)/4 for the DFS tree D of ``_best_dfs_tree``."""
    d = _best_dfs_tree(g)
    cut = _parity_cut(g)
    values = _layer_values(g, d, [2] * len(d.roots))
    details = {"dfs_root": d.roots[0], "dfs_tree_weight": d.weight}
    return _lifted(g, "dfs_tree", values, cut, details)


# -- matching bounds -----------------------------------------------------


def greedy_matching(g: WeightedGraph) -> tuple[int, ...]:
    """Heaviest-first greedy matching (ties by edge id), then one swap pass."""
    used = [False] * g.n
    chosen: list[int] = []
    for eid in sorted(range(g.m), key=lambda e: (-g.edges[e][2], e)):
        u, v, _ = g.edges[eid]
        if not used[u] and not used[v]:
            used[u] = used[v] = True
            chosen.append(eid)
    return _swap_pass(g, chosen)


def _swap_pass(g: WeightedGraph, chosen: list[int]) -> tuple[int, ...]:
    # single pass: replace up to two conflicting matched edges by one
    # heavier edge when that increases total weight
    ints = _exact_weights(g).ints
    have = set(chosen)
    by_vertex: dict[int, int] = {}
    for eid in chosen:
        u, v, _ = g.edges[eid]
        by_vertex[u] = eid
        by_vertex[v] = eid
    for eid in range(g.m):
        if eid in have:
            continue
        u, v, _ = g.edges[eid]
        conflicts = {by_vertex[x] for x in (u, v) if x in by_vertex}
        if ints[eid] > sum(ints[c] for c in conflicts):
            for c in conflicts:
                have.discard(c)
                cu, cv, _ = g.edges[c]
                by_vertex.pop(cu, None)
                by_vertex.pop(cv, None)
            have.add(eid)
            by_vertex[u] = eid
            by_vertex[v] = eid
    return tuple(sorted(have))


def exact_matching_small(g: WeightedGraph) -> tuple[int, ...]:
    """Exhaustive maximum-weight matching, branch and bound over edges,
    on the exact weights.

    Edges are branched heaviest first.  A node with u vertices unmatched
    can still add at most u // 2 edges, so the heaviest u // 2 remaining
    edges bound its gain.  The first maximum-weight leaf in DFS order is
    never pruned, so the result does not depend on how tight the bound is.
    """
    m = g.m
    if m > EXACT_MATCHING_MAX_EDGES:
        raise ValueError(f"exact matching limited to {EXACT_MATCHING_MAX_EDGES} edges")
    ints = _exact_weights(g).ints
    order = sorted(range(m), key=lambda e: (-ints[e], e))
    prefix = [0] * (m + 1)
    for i, eid in enumerate(order):
        prefix[i + 1] = prefix[i] + ints[eid]
    best_w = -1
    best: tuple[int, ...] = ()
    used = [False] * g.n
    chosen: list[int] = []

    def recurse(i: int, cur: int, unmatched: int) -> None:
        nonlocal best_w, best
        if cur + prefix[min(i + unmatched // 2, m)] - prefix[i] <= best_w:
            return
        if i == m:
            if cur > best_w:
                best_w = cur
                best = tuple(sorted(chosen))
            return
        eid = order[i]
        u, v, _ = g.edges[eid]
        if not used[u] and not used[v]:
            used[u] = used[v] = True
            chosen.append(eid)
            recurse(i + 1, cur + ints[eid], unmatched - 2)
            chosen.pop()
            used[u] = used[v] = False
        recurse(i + 1, cur, unmatched)

    recurse(0, 0, g.n)
    return best


def best_matching(g: WeightedGraph) -> tuple[int, ...]:
    """The exact maximum-weight matching up to EXACT_MATCHING_MAX_EDGES
    edges, else the greedy one; memoized on ``g``."""
    return _cached(g, "best_matching", lambda: exact_matching_small(g)
                   if g.m <= EXACT_MATCHING_MAX_EDGES else greedy_matching(g))


def matching_bound(g: WeightedGraph,
                   matching: Optional[Sequence[int]] = None) -> BoundReport:
    """(w(G) + w(M))/2 for a matching M (default: ``best_matching``).

    A matching is always a valid certificate: its components are single
    edges, and a single edge is induced in any simple graph.
    """
    if matching is not None:
        m_ids, strategy = check_matching(g, matching), "provided"
    else:
        m_ids, strategy = best_matching(g), "auto"
    cert = verify_induced_bipartite(g, m_ids)
    cut = derandomized_cut(g, cert)
    ex = _exact_weights(g)
    wm = ex.weight(m_ids)
    value = (ex.total + wm) / 2
    details = {"matching_size": len(m_ids), "matching_weight": float(wm),
               "strategy": strategy}
    return _report("matching", value, cut, details)


# -- girth-family bounds --------------------------------------------------


def girth_bound(g: WeightedGraph, k: Optional[int] = None) -> BoundReport:
    """w(G)/2 + (k-1)/(2k) * w(D) for the DFS tree D of ``_best_dfs_tree``,
    when the girth is >= k.

    k must be even; the default is the girth rounded down to an even value
    (one less when the girth is odd).  Acyclic graphs have unbounded girth;
    any even k is then legal and we use the vertex count rounded up to even.
    """
    st = stats(g)
    if not st.connected and k is not None:
        raise DisconnectedGraphError("girth bound needs a connected graph")
    if st.girth is not None and st.girth < 4:
        raise BoundPreconditionError(f"girth {st.girth} < 4")
    if g.n == 0:
        raise DisconnectedGraphError("empty graph has no spanning tree")
    if k is None:
        ks = [len(comp) + len(comp) % 2 if gi is None else gi - gi % 2
              for comp, gi in zip(_components(g)[0], _girths(g))]
    elif k % 2 != 0 or k < 2:
        raise BoundPreconditionError(f"k = {k} must be even and positive")
    elif st.girth is not None and k > st.girth:
        raise BoundPreconditionError(f"k = {k} exceeds girth {st.girth}")
    else:
        ks = [k]
    d = _best_dfs_tree(g)
    cut, js = _layer_cut(g, d, ks)
    details = {"k": ks[0], "girth": st.girth, "dfs_root": d.roots[0],
               "dfs_tree_weight": d.weight, "best_layer": js[0]}
    return _lifted(g, "girth_layers", _layer_values(g, d, ks), cut, details)


def triangle_free_tree_bound(g: WeightedGraph,
                             tree: Optional[RootedSpanningTree] = None) -> BoundReport:
    """w(G)/2 + w(T)/4 for any spanning tree T of a triangle-free graph.

    Defaults to the maximum-weight spanning forest, which maximizes the
    bound.  The cut is ``edge_rooted_tree_bound``'s on the same tree: with no
    triangle each component's k >= 2, so it certifies w(G_c)/2 + w(T_c)/4.
    """
    st = stats(g)
    if not st.triangle_free:
        raise TriangleFoundError("triangle-free tree bound needs girth >= 4")
    if not st.connected and tree is not None:
        raise DisconnectedGraphError("spanning tree bound needs a connected graph")
    t = tree if tree is not None else max_spanning_tree(g)
    ks = [2] * len(_components(g)[0])
    cut = edge_rooted_tree_bound(g, tree).cut if g.m else Cut.from_side(g, [0] * g.n)
    details = {"tree_weight": t.weight, "tree_kind": t.kind}
    return _lifted(g, "triangle_free_tree", _layer_values(g, t, ks), cut, details)


def edge_rooted_tree_bound(g: WeightedGraph,
                           tree: Optional[RootedSpanningTree] = None,
                           marked_eid: Optional[int] = None,
                           k: Optional[int] = None) -> BoundReport:
    """w(G)/2 + (k-1)/(2k) w(T) + w(e*)/(2k) via layers around a tree edge e*.

    Valid for any positive integer k such that T + e has no odd cycle of
    length 2k-1 or less for every non-tree edge e (checked).  Defaults:
    maximum spanning tree, heaviest tree edge, largest legal k, each per
    component of a disconnected graph, where an edgeless one adds 0.
    Memoized on ``g``, keyed on the tree's edge set and the parameters.
    """
    st = stats(g)
    if not st.connected and any(x is not None for x in (tree, marked_eid, k)):
        raise DisconnectedGraphError("edge-rooted bound needs a connected graph")
    if g.m == 0:
        raise BoundPreconditionError("edge-rooted bound needs at least one edge")
    t = tree if tree is not None else max_spanning_tree(g)

    def compute() -> BoundReport:
        if marked_eid is None:  # per component, the heaviest tree edge, lowest id on ties
            marked = [x and x[1] for x in _least_by_component(
                g, ((e, (-g.edges[e][2], e)) for e in t.edge_ids))]
        else:
            marked = [marked_eid]
        leveled = reroot_at_edge(g, t, marked)
        rs = shortest_fundamental_odd_cycle(g, leveled)
        if k is None:  # the largest legal k, which is at least 1
            ks = [(r - 1) // 2 if r is not None else max(1, len(comp))
                  for r, comp in zip(rs, _components(g)[0])]
        elif k < 1:
            raise BoundPreconditionError("no legal k: an odd triangle closes the tree")
        elif rs[0] is not None and rs[0] <= 2 * k - 1:
            raise OddCycleError(f"odd cycle of length {rs[0]} <= 2k-1 = {2 * k - 1} "
                                "through the tree")
        else:
            ks = [k]
        cut, js = _layer_cut(g, leveled, ks)
        e = marked[0]
        details = {} if len(ks) > 1 else {
            "k": ks[0], "marked_edge": list(g.edges[e][:2]), "marked_weight": g.edges[e][2],
            "tree_weight": t.weight, "shortest_fundamental_odd_cycle": rs[0], "best_layer": js[0]}
        return _lifted(g, "edge_rooted_tree", _layer_values(g, t, ks, marked), cut, details)
    return _cached_report(g, ("edge_rooted_tree", t.edge_ids, marked_eid, k), compute)


# -- disconnected inputs --------------------------------------------------


def per_component(g: WeightedGraph, fn: Callable[[WeightedGraph], BoundReport],
                  name: Optional[str] = None) -> BoundReport:
    """Apply a deterministic bound per connected component and add up.

    The maximum cut decomposes over components, so the summed exact
    bounds stay valid; cuts are merged through the component embeddings.
    The CLI lifts ``eight_elevenths`` this way; the tree rows sum over the
    components of one spanning forest themselves and equal their lift.
    """
    split = _component_split(g)
    if len(split) <= 1:
        return fn(g)
    side = [0] * g.n
    reports = []
    for sub, orig_v in split:
        rep = fn(sub)
        reports.append(rep)
        for i, s in enumerate(rep.cut.side):
            side[orig_v[i]] = s
    total = sum((r.bound_exact for r in reports), Fraction(0))
    details = {"components": len(split),
               "component_bounds": [r.bound_value for r in reports]}
    return _report(name or reports[0].name, total, Cut.from_side(g, side), details)
