"""Exact desk-scale solvers for the NP-hard quantities the bounds are
validated against: maximum cut, maximum induced-bipartite family weight,
maximum DFS-tree weight, and exact one-edge-per-five-cycle covers."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .bounds import best_matching
from .cuts import Cut
from .graph import (DisconnectedGraphError, NotSubcubicError, TriangleFoundError,
                    WeightedGraph, _edge_arrays, _exact_weights, stats)
from .spanning import max_spanning_tree

MAX_CUT_GUARD = 30
BIPARTITE_FAMILY_GUARD = 16
DFS_WEIGHT_GUARD = 12
FIVE_CYCLE_GUARD = 40

# Masks per GEMM block of the max-cut enumeration (2 MB of float64).
_BLOCK_CELLS = 1 << 18


class SizeGuardError(Exception):
    """Instance exceeds the oracle's exhaustive-search size guard."""


@dataclass(frozen=True)
class OracleResult:
    """Exact value with a re-checkable witness."""

    quantity: str
    value: object
    witness: object
    exact: bool = True


def _oracle_value(x: Fraction):
    """An exact weight as an oracle reports it: an int when integral, else
    the float nearest to it."""
    return int(x) if x.denominator == 1 else float(x)


def exact_max_cut(g: WeightedGraph, max_n: int = MAX_CUT_GUARD) -> OracleResult:
    """Exact maximum cut by enumerating all side assignments.

    The last vertex sits on side 0 (cuts are complement invariant).  The
    other n-1 vertices split into ``lo`` (bits 0..L-1, L = (n-1)//2) and
    ``hi``.  The cut weight of side mask x is x.c + x^T Q x with c the
    weighted degrees and Q[u, v] = -2w, so a block of masks is one float64
    GEMM of a ``hi`` factor against a ``lo`` factor.  Masks whose GEMM
    value lies within rounding distance of the block maximum are summed
    again exactly, so the value is the exact maximum.  Witness: the optimal
    cut of the smallest optimal mask.
    """
    if g.n > max_n:
        raise SizeGuardError(f"max cut enumeration guarded at n <= {max_n}")
    if g.n == 0:
        return OracleResult("max_cut", 0, Cut((), Fraction(0)))
    nfree = g.n - 1
    low, high = nfree // 2, nfree - nfree // 2
    c = np.zeros(nfree)
    q = np.zeros((nfree, nfree))
    for u, v, w in g.edges:
        c[u] += w
        if v != nfree:
            c[v] += w
            q[u, v] = -2.0 * w
    xl, xh = _bit_rows(low), _bit_rows(high)
    lo_val = xl @ c[:low] + ((xl @ q[:low, :low]) * xl).sum(axis=1)
    hi_val = xh @ c[low:] + ((xh @ q[low:, low:]) * xh).sum(axis=1)
    # value[h << L | l] = (left @ right)[h, l] = cross + hi_val[h] + lo_val[l]
    left = np.column_stack([xh @ q[:low, low:].T, hi_val, np.ones(1 << high)])
    right = np.vstack([xl.T, np.ones(1 << low), lo_val])
    # Every GEMM value is a rounded sum of at most 3m nonzero terms (the
    # c entries, themselves sums of 2m weights, and the m entries of Q)
    # whose magnitudes add up to at most 4w(G); every intermediate is a
    # sum of a subset of them.  Each of the < 3m roundings is at most
    # 2^-53 * 4w(G), so the GEMM value and the exact weight of a mask differ
    # by e <= 12m * 2^-53 * w(G) to first order, and tol = 16(n+m) * 2^-52 *
    # max(1, w(G)) exceeds 2e plus the rounding of a float best: the block's
    # optimal masks lie within tol of its GEMM maximum, and a block whose
    # maximum is tol below the best holds no better mask.  With integral
    # weights and 8w(G) < 2^53 every intermediate is an exact integer, so
    # the first GEMM maximum is the answer.
    ex = _exact_weights(g)
    exact = g.integer_weights and 8.0 * g.total_weight < 2.0 ** 53
    tol = 0.0 if exact else 16 * (g.n + g.m) * 2.0 ** -52 * max(1.0, g.total_weight)
    best_val = None  # exact, in units of 2^-scale
    best_mask = 0
    rows = max(1, _BLOCK_CELLS >> low)
    for h0 in range(0, 1 << high, rows):
        block = left[h0:h0 + rows] @ right
        top = block.max()
        if best_val is not None and top + tol <= float(ex.value(best_val)):
            continue
        if exact:
            mask, val = (h0 << low) + int(block.argmax()), int(top)
        else:
            masks = (h0 << low) + np.flatnonzero(block >= top - tol)
            vals = _exact_cut_values(g, masks)
            i = int(np.argmax(vals))
            mask, val = int(masks[i]), int(vals[i])
        if best_val is None or val > best_val:
            best_val, best_mask = val, mask
    side = [(best_mask >> v) & 1 for v in range(nfree)] + [0]
    cut = Cut.from_side(g, side)
    if cut.exact_weight != ex.value(best_val):
        raise AssertionError("optimal cut witness does not re-evaluate to the value")
    return OracleResult("max_cut", _oracle_value(cut.exact_weight), cut)


def _bit_rows(k: int) -> np.ndarray:
    """Row i holds bits 0..k-1 of i as float64 zeros and ones."""
    return ((np.arange(1 << k)[:, None] >> np.arange(k)) & 1).astype(np.float64)


def _exact_cut_values(g: WeightedGraph, masks: np.ndarray) -> np.ndarray:
    """Exact cut weights of side masks (last vertex on side 0), in units of
    2^-scale, in the dtype of ``_edge_arrays``' ints."""
    nfree = g.n - 1
    _, ints = _edge_arrays(g)
    acc = np.zeros(len(masks), dtype=ints.dtype)
    for (u, v, _), q in zip(g.edges, ints):
        bits = (masks >> u if v == nfree else (masks >> u) ^ (masks >> v)) & 1
        acc += bits.astype(ints.dtype) * q
    return acc


def max_induced_bipartite(g: WeightedGraph,
                          max_n: int = BIPARTITE_FAMILY_GUARD) -> OracleResult:
    """Exact maximum weight of an edge set whose components are induced
    bipartite subgraphs.

    Any such certificate is a family of pairwise disjoint vertex sets,
    each inducing a connected bipartite subgraph; the value is the sum of
    the induced weights.  Solved by subset DP over vertex sets: either the
    lowest vertex of the remaining set is unused, or its part is one of
    the connected bipartite induced subsets through it, on exact weights.
    Witness: the edge ids of an optimal family.
    """
    if g.n > max_n:
        raise SizeGuardError(f"bipartite family enumeration guarded at n <= {max_n}")
    n = g.n
    if n == 0:
        return OracleResult("max_induced_bipartite", 0, ())
    full = (1 << n) - 1
    parts, part_weight = _bipartite_parts(g)
    part_low = parts & -parts
    value = np.zeros(full + 1, dtype=part_weight.dtype)
    choice = np.zeros(full + 1, dtype=np.int64)
    # Layer v holds the masks whose lowest vertex is v; they read only
    # masks whose lowest vertex is above v.  Parts are tried in descending
    # order with a strict >, so skipping the lowest vertex wins ties, then
    # the largest part: the order of a descending submask loop.
    for v in range(n - 1, -1, -1):
        low = 1 << v
        layer = low | (np.arange(1 << (n - 1 - v), dtype=np.int64) << (v + 1))
        best = value[layer ^ low]
        pick = np.zeros(len(layer), dtype=np.int64)
        for j in np.flatnonzero(part_low == low)[::-1]:
            s = parts[j]
            idx = np.flatnonzero(layer & s == s)
            cand = part_weight[j] + value[layer[idx] ^ s]
            better = cand > best[idx]
            best[idx[better]] = cand[better]
            pick[idx[better]] = s
        value[layer] = best
        choice[layer] = pick

    witness_edges: list[int] = []
    mask = full
    while mask:
        s = int(choice[mask])
        if s:
            in_s = [bool(s >> v & 1) for v in range(n)]
            witness_edges.extend(eid for eid, (u, v, _) in enumerate(g.edges)
                                 if in_s[u] and in_s[v])
            mask ^= s
        else:
            mask ^= mask & -mask
    top = _exact_weights(g).value(int(value[full]))
    return OracleResult("max_induced_bipartite", _oracle_value(top), tuple(sorted(witness_edges)))


def _bipartite_parts(g: WeightedGraph) -> tuple[np.ndarray, np.ndarray]:
    """Vertex masks (ascending) that induce a connected bipartite subgraph
    of positive weight on at least two vertices, with their exact induced
    weights in the dtype of ``_edge_arrays``' ints.

    For every mask at once, grows the vertices at even and odd distance
    from its lowest vertex to a fixpoint; the mask qualifies when the two
    sides are disjoint and cover it.
    """
    n = g.n
    masks = np.arange(1 << n, dtype=np.int64)
    nbr = [0] * n
    for u, v, _ in g.edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    split = n // 2
    lo_nbr, hi_nbr = _union_table(nbr[:split]), _union_table(nbr[split:])
    lo_bits = (1 << split) - 1

    def around(sets: np.ndarray) -> np.ndarray:
        return (lo_nbr[sets & lo_bits] | hi_nbr[sets >> split]) & masks

    root = masks & -masks
    even = root
    while True:
        odd = around(even)
        grown = around(odd) | root
        if np.array_equal(grown, even):
            break
        even = grown
    parts = masks[((even & odd) == 0) & ((even | odd) == masks) & (odd != 0)]
    _, ints = _edge_arrays(g)
    weight = np.zeros(len(parts), dtype=ints.dtype)
    for (u, v, _), q in zip(g.edges, ints):
        weight += (parts >> u & parts >> v & 1).astype(ints.dtype) * q
    keep = weight > 0
    return parts[keep], weight[keep]


def _union_table(sets: list[int]) -> np.ndarray:
    """Entry i is the union of sets[b] over the bits b of i."""
    table = np.zeros(1, dtype=np.int64)
    for s in sets:
        table = np.concatenate([table, table | s])
    return table


def max_dfs_tree_weight(g: WeightedGraph, max_n: int = DFS_WEIGHT_GUARD) -> OracleResult:
    """Exact maximum weight of a DFS tree, over all roots and visit orders.

    Memoized branching over (visited set, DFS stack) states, on exact
    weights.  Witness: the edge ids of a maximizing tree.
    """
    if g.n > max_n:
        raise SizeGuardError(f"DFS tree enumeration guarded at n <= {max_n}")
    if not g.is_connected():
        raise DisconnectedGraphError("DFS trees need a connected graph")
    if g.n == 0:
        return OracleResult("max_dfs_tree_weight", 0, ())
    ex = _exact_weights(g)
    memo: dict[tuple[int, tuple[int, ...]], tuple[int, tuple[int, ...]]] = {}

    def explore(mask: int, stack: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
        while stack:
            u = stack[-1]
            if any(not mask >> v & 1 for v, _ in g.adj[u]):
                break
            stack = stack[:-1]
        if not stack:
            return 0, ()
        key = (mask, stack)
        hit = memo.get(key)
        if hit is not None:
            return hit
        u = stack[-1]
        best = None
        for v, eid in g.adj[u]:
            if mask >> v & 1:
                continue
            sub_w, sub_e = explore(mask | (1 << v), stack + (v,))
            cand = (ex.ints[eid] + sub_w, (eid,) + sub_e)
            if best is None or cand[0] > best[0]:
                best = cand
        memo[key] = best
        return best

    best_val, best_edges = max((explore(1 << root, (root,)) for root in range(g.n)),
                               key=lambda cand: cand[0])
    return OracleResult("max_dfs_tree_weight", _oracle_value(ex.value(best_val)),
                        tuple(sorted(best_edges)))


# -- five-cycle covers ----------------------------------------------------


def enumerate_five_cycles(g: WeightedGraph) -> list[tuple[int, ...]]:
    """All 5-cycles, each as a sorted tuple of its five edge ids.

    Canonical scan: the first vertex is the cycle minimum and the walk
    direction is fixed by second < last, so each cycle appears once.
    """
    cycles = []
    for a in range(g.n):
        for b, e_ab in g.adj[a]:
            if b <= a:
                continue
            for c, e_bc in g.adj[b]:
                if c <= a:
                    continue
                for d, e_cd in g.adj[c]:
                    if d <= a or d == b:
                        continue
                    for e, e_de in g.adj[d]:
                        if e <= b or e == c:
                            continue
                        e_ea = g.edge_id(e, a)
                        if e_ea is None:
                            continue
                        cycles.append(tuple(sorted((e_ab, e_bc, e_cd, e_de, e_ea))))
    return sorted(set(cycles))


def is_exact_five_cycle_cover(g: WeightedGraph, edge_ids: Sequence[int]) -> bool:
    """Whether every 5-cycle contains exactly one of the given edges."""
    chosen = set(edge_ids)
    return all(len(chosen & set(cyc)) == 1 for cyc in enumerate_five_cycles(g))


def five_cycle_cover(g: WeightedGraph, max_n: int = FIVE_CYCLE_GUARD) -> OracleResult:
    """Search for an edge set meeting every 5-cycle exactly once.

    Backtracking over the first unhit cycle; value is the witness size, or
    None when no exact cover exists (a reportable structural find for
    triangle-free subcubic graphs).
    """
    if g.n > max_n:
        raise SizeGuardError(f"five-cycle search guarded at n <= {max_n}")
    st = stats(g)
    if not st.triangle_free:
        raise TriangleFoundError("five-cycle covers are defined for triangle-free graphs")
    if st.max_degree > 3:
        raise NotSubcubicError("five-cycle covers are defined for subcubic graphs")
    cycles = enumerate_five_cycles(g)
    by_edge: dict[int, list[int]] = {}
    for ci, cyc in enumerate(cycles):
        for e in cyc:
            by_edge.setdefault(e, []).append(ci)
    hits = [0] * len(cycles)
    chosen: list[int] = []

    def solve() -> bool:
        target = next((ci for ci in range(len(cycles)) if hits[ci] == 0), None)
        if target is None:
            return True
        for e in cycles[target]:
            if any(hits[cj] for cj in by_edge[e]):
                continue
            for cj in by_edge[e]:
                hits[cj] += 1
            chosen.append(e)
            if solve():
                return True
            chosen.pop()
            for cj in by_edge[e]:
                hits[cj] -= 1
        return False

    if solve():
        witness = tuple(sorted(chosen))
        return OracleResult("five_cycle_cover", len(witness), witness)
    return OracleResult("five_cycle_cover", None, None)


# -- conjecture lab --------------------------------------------------------


@dataclass
class ConjectureReport:
    """Per-instance evidence ratios for the open questions.

    The ratios only bound class-wide constants from above; they are
    evidence, not claims.  ``flags`` lists genuine violations found
    (a non-empty list on a sound build means a counterexample).
    """

    n: int
    m: int
    total_weight: float
    max_cut: float
    cut_ratio: Optional[float]
    theta_ratio: Optional[float]
    theta_tree_weight: Optional[float]
    matching_ratio: Optional[float]
    matching_weight: Optional[float]
    five_cycle_cover_size: Optional[int]
    five_cycle_applicable: bool
    flags: list[str] = field(default_factory=list)


def conjecture_report(g: WeightedGraph, max_n: int = 20) -> ConjectureReport:
    """Evidence ratios against the instance's exact maximum cut.

    theta: (mac - w/2) / w(T) at a maximum-weight spanning tree T;
    matching coefficient: (mac - w(M)) / (w - w(M)) at the matching M of
    ``bounds.best_matching``; plus the five-cycle exact cover search for
    triangle-free subcubic instances.

    Each ratio is taken at the heaviest object of its family, where it is
    smallest, instead of over a sample.  mac >= w/2, so (mac - w/2) / w(T)
    falls as w(T) rises: the heaviest spanning tree gives the minimum over
    all trees, and the 3/8 test mac < w/2 + (3/8) w(T) fires most easily
    there.  mac <= w, so (mac - x) / (w - x) falls as x = w(M) rises, and
    both matching tests mac < c (w - x) + x with c < 1 fire most easily at
    the heaviest matching.  ``best_matching`` is a maximum-weight matching
    up to ``EXACT_MATCHING_MAX_EDGES`` edges; above that it is the greedy
    matching plus one swap pass, and the ratio only bounds the minimum
    from above.  Every flag compares exact values.
    """
    st = stats(g)
    ex = _exact_weights(g)
    mac = exact_max_cut(g, max_n).witness.exact_weight
    w = ex.total
    flags: list[str] = []

    cut_ratio = float(mac / w) if w > 0 else None

    theta_ratio = theta_tree_w = None
    if st.connected and g.n >= 2:
        tw = max_spanning_tree(g).exact_weight
        if tw > 0:
            theta_ratio, theta_tree_w = float((mac - w / 2) / tw), float(tw)
            if st.triangle_free and mac < w / 2 + Fraction(3, 8) * tw:
                flags.append("tree_three_eighths")

    matching_ratio = matching_w = None
    wm = ex.weight(best_matching(g))
    if w - wm > 0:
        matching_ratio, matching_w = float((mac - wm) / (w - wm)), float(wm)
        if st.triangle_free:
            if mac < (w - wm) / 2 + wm:
                flags.append("matching_coefficient_half")
            if st.max_degree <= 3 and mac < Fraction(3, 5) * (w - wm) + wm:
                flags.append("matching_coefficient_c3")

    five_applicable = st.triangle_free and st.max_degree <= 3 and g.n <= FIVE_CYCLE_GUARD
    five_size = None
    if five_applicable:
        found = five_cycle_cover(g)
        if found.value is None:
            flags.append("five_cycle_cover_missing")
        else:
            five_size = int(found.value)
        if st.max_degree <= 3 and mac < Fraction(4, 5) * w:
            flags.append("four_fifths_subcubic")

    return ConjectureReport(
        n=g.n, m=g.m, total_weight=g.total_weight, max_cut=float(mac),
        cut_ratio=cut_ratio, theta_ratio=theta_ratio,
        theta_tree_weight=theta_tree_w, matching_ratio=matching_ratio,
        matching_weight=matching_w, five_cycle_cover_size=five_size,
        five_cycle_applicable=five_applicable,
        flags=sorted(flags),
    )
