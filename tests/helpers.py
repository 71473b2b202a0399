"""Independent brute-force oracles and instance builders used by the tests.

Everything here deliberately avoids the library's fast paths so the tests
remain a second route to the same quantities.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product, repeat

from cutbounds import (NotSubcubicError, TriangleFoundError, VertexColoring3, WeightedGraph,
                       gadget_k33_subdivided, triangle_free, verify_induced_bipartite)
from cutbounds.cuts import Cut, NotBipartiteError, NotInducedError


def certified(rep) -> bool:
    """Whether a report keeps its claim: a deterministic cut weighs at least
    its exact bound value, compared exactly; a Monte Carlo report claims an
    expectation only."""
    return rep.mode != "deterministic" or rep.cut.exact_weight >= rep.bound_exact


def naive_max_cut(g: WeightedGraph) -> float:
    """Full 2^n loop, recomputing the cut weight from scratch each time."""
    best = 0.0
    for mask in range(1 << g.n):
        w = 0.0
        for u, v, wt in g.edges:
            if (mask >> u & 1) != (mask >> v & 1):
                w += wt
        if w > best:
            best = w
    return best


def girth_by_edge_removal(g: WeightedGraph):
    """Girth via shortest u-v path after deleting each edge (u, v)."""
    from collections import deque
    best = None
    for eid, (u, v, _) in enumerate(g.edges):
        dist = {u: 0}
        queue = deque([u])
        while queue:
            x = queue.popleft()
            for y, e2 in g.adj[x]:
                if e2 != eid and y not in dist:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        if v in dist:
            cand = dist[v] + 1
            if best is None or cand < best:
                best = cand
    return best


def brute_max_bipartite_family(g: WeightedGraph) -> float:
    """Max certificate weight over all edge subsets (only for tiny m)."""
    best = 0.0
    for mask in range(1 << g.m):
        ids = [e for e in range(g.m) if mask >> e & 1]
        try:
            verify_induced_bipartite(g, ids)
        except (NotInducedError, NotBipartiteError):
            continue
        w = sum(g.edges[e][2] for e in ids)
        if w > best:
            best = w
    return best


def has_triangle_scan(g: WeightedGraph) -> bool:
    """Exhaustive triple scan."""
    for a, b, c in combinations(range(g.n), 3):
        if g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c):
            return True
    return False


def spanning_tree_weights(g: WeightedGraph) -> list[float]:
    """Weights of every spanning tree, by subset enumeration."""
    out = []
    for eids in combinations(range(g.m), g.n - 1):
        par = list(range(g.n))

        def find(x):
            while par[x] != x:
                par[x] = par[par[x]]
                x = par[x]
            return x

        ok = True
        for e in eids:
            u, v, _ = g.edges[e]
            ru, rv = find(u), find(v)
            if ru == rv:
                ok = False
                break
            par[ru] = rv
        if ok and len({find(v) for v in range(g.n)}) == 1:
            out.append(sum(g.edges[e][2] for e in eids))
    return out


def edge_coloring_feasible(g: WeightedGraph, k: int) -> bool:
    """Backtracking proper edge coloring with at most k colors."""
    col = [0] * g.m

    def usable(e, c):
        u, v, _ = g.edges[e]
        for x in (u, v):
            for _, e2 in g.adj[x]:
                if e2 != e and col[e2] == c:
                    return False
        return True

    def rec(e):
        if e == g.m:
            return True
        for c in range(1, k + 1):
            if usable(e, c):
                col[e] = c
                if rec(e + 1):
                    return True
                col[e] = 0
        return False

    return rec(0)


def disjoint_union(parts) -> WeightedGraph:
    """The graphs of ``parts`` side by side, each relabelled after the last."""
    edges, n = [], 0
    for part in parts:
        edges += [(u + n, v + n, w) for u, v, w in part.edges]
        n += part.n
    return WeightedGraph(n, edges)


def double_stars(copies: int = 5, eps: float = 0.25) -> WeightedGraph:
    """``copies`` disjoint double stars: a centre edge of weight 1 + eps with
    two pendant edges of weight 1 at each end.  From five copies on (m >= 25)
    ``best_matching`` is the greedy one, the centre edges, which weigh about
    w/5 < w/(max degree + 1) = w/4 for eps < 1/3."""
    star = WeightedGraph(6, [(0, 1, 1.0 + eps), (0, 2, 1.0), (0, 3, 1.0), (1, 4, 1.0),
                             (1, 5, 1.0)])
    return disjoint_union([star] * copies)


def complete_bipartite(a: int, b: int, weight: float = 1.0) -> WeightedGraph:
    """K_{a,b}: vertices 0..a-1 on one side, a..a+b-1 on the other."""
    return WeightedGraph(a + b, [(u, a + v, weight) for u in range(a) for v in range(b)])


def random_connected_graph(n: int, extra_edges: int, rng: random.Random,
                           integer_weights: bool = False) -> WeightedGraph:
    """Random tree plus extra random edges; connected by construction."""
    def draw():
        return float(rng.randint(0, 9)) if integer_weights else rng.random() * 5.0

    edges = {}
    for v in range(1, n):
        u = rng.randrange(v)
        edges[(u, v)] = draw()
    tries = 0
    while len(edges) < n - 1 + extra_edges and tries < 20 * extra_edges + 20:
        tries += 1
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key not in edges:
            edges[key] = draw()
    return WeightedGraph(n, [(u, v, w) for (u, v), w in sorted(edges.items())])


def random_certificate_edges(g: WeightedGraph, rng: random.Random) -> list[int]:
    """A valid certificate: bipartite components of a random induced subgraph."""
    from collections import deque
    keep = [v for v in range(g.n) if rng.random() < 0.6]
    keep_set = set(keep)
    seen = set()
    out = []
    for s in keep:
        if s in seen:
            continue
        comp = [s]
        seen.add(s)
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v, _ in g.adj[u]:
                if v in keep_set and v not in seen:
                    seen.add(v)
                    comp.append(v)
                    queue.append(v)
        color = {comp[0]: 0}
        queue = deque([comp[0]])
        odd = False
        while queue and not odd:
            u = queue.popleft()
            for v, _ in g.adj[u]:
                if v not in keep_set:
                    continue
                if v not in color:
                    color[v] = color[u] ^ 1
                    queue.append(v)
                elif color[v] == color[u]:
                    odd = True
                    break
        if odd:
            continue
        comp_set = set(comp)
        out.extend(e for e, (u, v, _) in enumerate(g.edges)
                   if u in comp_set and v in comp_set)
    return sorted(set(out))


def two_color_blocks(g: WeightedGraph, edge_ids) -> list[dict[int, int]]:
    """2-color the components of an edge subset, BFS from each lowest
    uncolored vertex over the edges in the order given; raise
    NotBipartiteError if one is odd."""
    from collections import deque
    adj: dict[int, list[int]] = {}
    for e in edge_ids:
        u, v, _ = g.edges[e]
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    color: dict[int, int] = {}
    blocks: list[dict[int, int]] = []
    for start in sorted(adj):
        if start in color:
            continue
        color[start] = 0
        block = {start: 0}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if v not in color:
                    color[v] = color[u] ^ 1
                    block[v] = color[v]
                    queue.append(v)
                elif color[v] == color[u]:
                    raise NotBipartiteError(
                        f"edge set component at vertex {start} is not bipartite")
        blocks.append(block)
    return blocks


def labelling_of(n: int, blocks):
    """The labelling that numbers ``{vertex: color}`` blocks in the order given."""
    from cutbounds.cuts import Labelling
    label, color = [-1] * n, [0] * n
    for b, block in enumerate(blocks):
        for v, c in block.items():
            label[v], color[v] = b, c
    return Labelling(tuple(label), tuple(color), len(blocks))


def certificate_cut_by_dicts(g: WeightedGraph, edge_ids):
    """The certificate check and cut on dict blocks: ``two_color_blocks``
    over the sorted edge ids, each block's vertex set scanned for an induced
    edge outside the set, then ``place_blocks_by_dicts``."""
    ids = set(edge_ids)
    blocks = two_color_blocks(g, sorted(ids))
    for block in blocks:
        for u in sorted(block):
            for v, eid in g.adj[u]:
                if v in block and eid not in ids:
                    raise NotInducedError(f"component of vertex {min(block)} "
                                          f"induces edge ({u}, {v})")
    return place_blocks_by_dicts(g, blocks)


def place_blocks_by_dicts(g: WeightedGraph, blocks):
    """Greedy placement of ``{vertex: color}`` blocks, then a singleton for
    every uncovered vertex in vertex order: by descending outside weight
    (ties by block index), each in the orientation that keeps at least as
    much weight crossing as it leaves uncut."""
    from cutbounds.graph import _exact_weights
    covered = {v for block in blocks for v in block}
    blocks = list(blocks) + [{v: 0} for v in range(g.n) if v not in covered]
    owner = {v: i for i, block in enumerate(blocks) for v in block}
    ints = _exact_weights(g).ints
    outside = [0] * len(blocks)
    for (u, v, _), q in zip(g.edges, ints):
        if owner[u] != owner[v]:
            outside[owner[u]] += q
            outside[owner[v]] += q
    side = [-1] * g.n
    for i in sorted(range(len(blocks)), key=lambda i: (-outside[i], i)):
        keep = sum(ints[eid] for v, c in blocks[i].items() for u, eid in g.adj[v]
                   if side[u] >= 0 and side[u] != c)
        flip = sum(ints[eid] for v, c in blocks[i].items() for u, eid in g.adj[v]
                   if side[u] >= 0 and side[u] == c)
        for v, c in blocks[i].items():
            side[v] = c ^ (0 if keep >= flip else 1)
    return Cut.from_side(g, side)


def peel_colors_by_scan(g: WeightedGraph) -> list[int]:
    """Reverse-degeneracy greedy 3-coloring, rescanning every vertex per step.

    Peels the lowest-numbered live vertex with at most two live neighbors.
    """
    deg = [g.degree(v) for v in range(g.n)]
    alive = [True] * g.n
    order = []
    for _ in range(g.n):
        v = min((x for x in range(g.n) if alive[x] and deg[x] <= 2), default=None)
        if v is None:
            raise AssertionError("no low-degree vertex available while peeling")
        alive[v] = False
        order.append(v)
        for u, _ in g.adj[v]:
            if alive[u]:
                deg[u] -= 1
    color = [0] * g.n
    for v in reversed(order):
        used = {color[u] for u, _ in g.adj[v] if color[u]}
        color[v] = min(c for c in (1, 2, 3) if c not in used)
    return color


def shortest_odd_fundamental_cycle_by_bfs(g: WeightedGraph, tree_ids):
    """Min odd d_T(u, v) + 1 over non-tree edges, one tree BFS per edge."""
    from collections import deque
    best = None
    for eid, (u, v, _) in enumerate(g.edges):
        if eid in tree_ids:
            continue
        dist = {u: 0}
        queue = deque([u])
        while queue:
            x = queue.popleft()
            for y, e2 in g.adj[x]:
                if e2 in tree_ids and y not in dist:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        cyc = dist[v] + 1
        if cyc % 2 == 1 and (best is None or cyc < best):
            best = cyc
    return best


def induced_by_edge_scan(g: WeightedGraph, vertices):
    """Induced subgraph by scanning all m edges; same contract as ``g.induced``."""
    vs = sorted(set(vertices))
    index = {v: i for i, v in enumerate(vs)}
    sub_edges = []
    orig_edge = []
    for eid, (u, v, w) in enumerate(g.edges):
        if u in index and v in index:
            sub_edges.append((index[u], index[v], w))
            orig_edge.append(eid)
    return WeightedGraph(len(vs), sub_edges), tuple(vs), tuple(orig_edge)


def random_tf_subcubic_graph(n: int, rng: random.Random,
                             integer_weights: bool) -> WeightedGraph:
    """Connected triangle-free graph of max degree 3, with odd cycles likely.

    A random tree of max degree 3, then up to n chords between vertices of
    degree < 3 that share no neighbor.
    """
    def draw():
        return float(rng.randint(0, 9)) if integer_weights else rng.random() * 5.0

    nbrs: list[set[int]] = [set() for _ in range(n)]
    edges = {}

    def add(u, v):
        edges[(min(u, v), max(u, v))] = draw()
        nbrs[u].add(v)
        nbrs[v].add(u)

    for v in range(1, n):
        u = rng.choice([x for x in range(max(0, v - 8), v) if len(nbrs[x]) < 3])
        add(u, v)
    for _ in range(n):
        u, v = rng.randrange(n), rng.randrange(n)
        if (u != v and v not in nbrs[u] and len(nbrs[u]) < 3 and len(nbrs[v]) < 3
                and not nbrs[u] & nbrs[v]):
            add(u, v)
    return WeightedGraph(n, [(u, v, w) for (u, v), w in sorted(edges.items())])


def _exact_number(x: Fraction):
    """An exact weight typed as the oracles report it: an int when integral,
    else the nearest float."""
    return int(x) if x.denominator == 1 else float(x)


def max_cut_by_edge_passes(g: WeightedGraph, chunk_bits: int = 22):
    """Exact max cut by one numpy pass per edge over all 2^(n-1) masks.

    The last vertex sits on side 0.  Each weight is scaled to an integer by
    the largest denominator of the weights as fractions, and the sums run
    over int64 when the scaled total fits, else over Python ints.  Returns
    ``(value, side)``: the value typed as the oracle reports it, and the
    side list of the smallest optimal mask.
    """
    import numpy as np
    if g.n == 0:
        return 0, []
    nfree = g.n - 1
    total_masks = 1 << nfree
    den = max((Fraction(w).denominator for _, _, w in g.edges), default=1)
    scaled = [int(Fraction(w) * den) for _, _, w in g.edges]
    best_val = None
    best_mask = 0
    for start in range(0, total_masks, 1 << chunk_bits):
        end = min(start + (1 << chunk_bits), total_masks)
        masks = np.arange(start, end, dtype=np.uint64)
        acc = np.zeros(end - start, dtype=np.int64 if sum(scaled) < 2 ** 63 else object)
        for (u, v, _), q in zip(g.edges, scaled):
            if v == nfree:
                bits = (masks >> np.uint64(u)) & np.uint64(1)
            else:
                bits = ((masks >> np.uint64(u)) ^ (masks >> np.uint64(v))) & np.uint64(1)
            acc += bits.astype(acc.dtype) * q
        i = int(np.argmax(acc))
        val = int(acc[i])
        if best_val is None or val > best_val:
            best_val = val
            best_mask = start + i
    side = [(best_mask >> v) & 1 for v in range(nfree)] + [0]
    return _exact_number(Fraction(best_val, den)), side


def max_induced_bipartite_by_mask_bfs(g: WeightedGraph):
    """Max induced-bipartite family by a BFS per vertex mask and a subset
    DP over explicit submask loops, on weights scaled to integers by the
    largest denominator of the weights as fractions.  Returns ``(value,
    witness_edge_ids)`` with the value typed as the library reports it."""
    from collections import deque
    n = g.n
    if n == 0:
        return 0, ()
    full = (1 << n) - 1
    den = max((Fraction(w).denominator for _, _, w in g.edges), default=1)
    scaled = [int(Fraction(w) * den) for _, _, w in g.edges]
    part_weight: dict[int, int] = {}
    for mask in range(1, full + 1):
        vs = [v for v in range(n) if mask >> v & 1]
        if len(vs) == 1:
            continue
        seen = {vs[0]}
        queue = deque([vs[0]])
        while queue:
            u = queue.popleft()
            for v, _ in g.adj[u]:
                if mask >> v & 1 and v not in seen:
                    seen.add(v)
                    queue.append(v)
        if len(seen) != len(vs):
            continue
        color = {vs[0]: 0}
        queue = deque([vs[0]])
        ok = True
        weight = 0
        while queue and ok:
            u = queue.popleft()
            for v, eid in g.adj[u]:
                if not mask >> v & 1:
                    continue
                if v not in color:
                    color[v] = color[u] ^ 1
                    queue.append(v)
                elif color[v] == color[u]:
                    ok = False
                    break
        if not ok:
            continue
        for (u, v, _), q in zip(g.edges, scaled):
            if mask >> u & 1 and mask >> v & 1:
                weight += q
        if weight > 0:
            part_weight[mask] = weight

    value = [0] * (full + 1)
    choice = [0] * (full + 1)
    for mask in range(1, full + 1):
        low = mask & -mask
        best = value[mask ^ low]
        pick = 0
        rest = mask ^ low
        sub = rest
        while True:
            s = sub | low
            w = part_weight.get(s)
            if w is not None:
                cand = w + value[mask ^ s]
                if cand > best:
                    best, pick = cand, s
            if sub == 0:
                break
            sub = (sub - 1) & rest
        value[mask] = best
        choice[mask] = pick

    witness_edges: list[int] = []
    mask = full
    while mask:
        s = choice[mask]
        if s:
            in_s = [bool(s >> v & 1) for v in range(n)]
            witness_edges.extend(eid for eid, (u, v, _) in enumerate(g.edges)
                                 if in_s[u] and in_s[v])
            mask ^= s
        else:
            mask ^= mask & -mask
    return _exact_number(Fraction(value[full], den)), tuple(sorted(witness_edges))


def reference_exact_bounds(g: WeightedGraph, name: str, details: dict) -> dict:
    """Each deterministic bound's formula over rationals, for a connected graph.

    Every weight is ``Fraction(w)`` of its float.  Tree, matching and edge
    class weights are summed again over the structure the report's
    ``details`` name or the library's own step picks; the three float
    formulas (percolation's p, the 0.3193 coefficient and Shearer's square
    root) are evaluated in float, as the report defines them, and read as a
    ``Fraction``.  Returns ``{key: value}``: the bound itself under
    ``name``, and for ``eight_elevenths`` also its three candidate cuts'
    certified values.
    """
    from cutbounds.bounds import best_matching
    from cutbounds.spanning import dfs_tree, max_spanning_tree, min_spanning_tree
    from cutbounds.subcubic import classify_edges

    def weight(h, ids):
        return sum((Fraction(h.edges[e][2]) for e in ids), Fraction(0))

    w, d = weight(g, range(g.m)), details
    if name in ("poljak_turzik", "dfs_tree", "girth_layers"):
        dfs = weight(g, dfs_tree(g, d["dfs_root"]).edge_ids)
        if name == "poljak_turzik":
            return {name: w / 2 + weight(g, min_spanning_tree(g).edge_ids) / 4}
        k = d.get("k", 2)
        return {name: w / 2 + Fraction(k - 1, 2 * k) * dfs}
    if name in ("triangle_free_tree", "edge_rooted_tree"):
        tree = weight(g, max_spanning_tree(g).edge_ids)
        if name == "triangle_free_tree":
            return {name: w / 2 + tree / 4}
        k = d["k"]
        marked = weight(g, [g.edge_id(*d["marked_edge"])])
        return {name: w / 2 + Fraction(k - 1, 2 * k) * tree + marked / (2 * k)}
    if name in ("matching", "matching_vizing"):
        wm = weight(g, best_matching(g))
        if name == "matching":
            return {name: (w + wm) / 2}
        return {name: (w + wm) / 2 + (w - wm) / (2 * d["color_count"])}
    if name == "vizing_classes":
        delta = d["delta"]
        return {name: (Fraction(1, 2) + Fraction(3 * delta - 1, 4 * delta ** 2 + 2 * delta - 2))
                * w}
    if name == "two_thirds":
        return {name: 2 * w / 3}
    if name == "eight_elevenths":
        ext = regularize_to_cubic(g)
        g3 = ext.graph
        cls = classify_edges(g3, successor_digraph(g3, padded_coloring(ext))).class_of_edge
        w0, w1, w2 = (weight(g3, [e for e in range(g3.m) if cls[e] == c]) for c in (0, 1, 2))
        return {name: Fraction(8, 11) * w,
                "drop_class": w0 + 2 * w1 / 3 + w2 / 3,
                "layered_components": w0 / 2 + 7 * w1 / 8 + w2,
                "mutual_matching": Fraction(3, 5) * (w0 + w1) + w2}
    if name == "tree_percolation":
        p, r, wt = d["p"], d["r"], d["tree_weight"]
        p_pow = p ** (r - 1) if r is not None else 0.0
        return {name: Fraction((p + 1.0) / 2.0 * wt + (1.0 - p_pow) / 2.0
                               * (g.total_weight - wt))}
    if name == "combined_tree":
        return {name: Fraction(g.total_weight / 2.0 + 0.3193 * d["tree_weight"])}
    if name == "shearer":  # an edgeless graph weighs 0 at any coefficient
        s = 0.5 + 1.0 / (4.0 * math.sqrt(2.0 * max(d["delta"], 1)))
        return {name: Fraction(s * g.total_weight)}
    raise KeyError(name)


def greedy_matching_by_loop(g: WeightedGraph) -> tuple[int, ...]:
    """Heaviest-first greedy matching with its own loop, then the library's
    swap pass."""
    from cutbounds.bounds import _swap_pass
    used = [False] * g.n
    chosen = []
    for eid in sorted(range(g.m), key=lambda e: (-g.edges[e][2], e)):
        u, v, _ = g.edges[eid]
        if not used[u] and not used[v]:
            used[u] = used[v] = True
            chosen.append(eid)
    return _swap_pass(g, chosen)


def exact_matching_by_suffix_bound(g: WeightedGraph) -> tuple[int, ...]:
    """``exact_matching_small``'s branch and bound, pruned on the sum of
    every remaining edge instead of the heaviest ones that still fit."""
    from cutbounds.graph import _exact_weights
    ints = _exact_weights(g).ints
    order = sorted(range(g.m), key=lambda e: (-ints[e], e))
    suffix = [0] * (g.m + 1)
    for i in range(g.m - 1, -1, -1):
        suffix[i] = suffix[i + 1] + ints[order[i]]
    best_w = -1
    best: tuple[int, ...] = ()
    used = [False] * g.n
    chosen: list[int] = []

    def recurse(i: int, cur: int) -> None:
        nonlocal best_w, best
        if cur + suffix[i] <= best_w:
            return
        if i == g.m:
            if cur > best_w:
                best_w = cur
                best = tuple(sorted(chosen))
            return
        eid = order[i]
        u, v, _ = g.edges[eid]
        if not used[u] and not used[v]:
            used[u] = used[v] = True
            chosen.append(eid)
            recurse(i + 1, cur + ints[eid])
            chosen.pop()
            used[u] = used[v] = False
        recurse(i + 1, cur)

    recurse(0, 0)
    return best


def flip_gains_by_loop(g: WeightedGraph, side) -> list[Fraction]:
    """What flipping each vertex adds to the cut, one edge at a time, exactly."""
    gain = [Fraction(0)] * g.n
    for u, v, w in g.edges:
        if side[u] == side[v]:
            gain[u] += Fraction(w)
            gain[v] += Fraction(w)
        else:
            gain[u] -= Fraction(w)
            gain[v] -= Fraction(w)
    return gain


def local_search_by_full_sweeps(g: WeightedGraph, side) -> list[int]:
    """First-improvement flips as full sweeps over every vertex in ascending
    id, repeated until a sweep flips nothing; gains are exact."""
    side = list(side)
    gain = flip_gains_by_loop(g, side)
    improved = True
    while improved:
        improved = False
        for v in range(g.n):
            if gain[v] > 0:
                side[v] ^= 1
                gain[v] = -gain[v]
                for u, eid in g.adj[v]:
                    w = Fraction(g.edges[eid][2])
                    if side[u] == side[v]:
                        gain[u] += 2 * w
                    else:
                        gain[u] -= 2 * w
                improved = True
    return side


def pendant_graph(cycle_len: int, extra: int, rng: random.Random,
                  integer_weights: bool) -> WeightedGraph:
    """A forest (``cycle_len`` 0) or a cycle, with random pendant trees: each
    later vertex hangs off an earlier one or starts a new tree."""
    pairs = [(i, (i + 1) % cycle_len) for i in range(cycle_len)]
    n = max(cycle_len, 1) + extra
    pairs += [(rng.randrange(v), v) for v in range(max(cycle_len, 1), n)
              if rng.random() < 0.9]
    draw = (lambda: float(rng.randint(0, 9))) if integer_weights else rng.random
    return WeightedGraph(n, [(u, v, draw()) for u, v in pairs])


def parity_layer_split(g: WeightedGraph, t) -> list[list[int]]:
    """Tree edges split by the parity of their upper level, ``[odd, even]``,
    each in edge-id order: the two parity layers of a single-rooted tree."""
    odd, even = [], []
    for eid in sorted(t.edge_ids):
        u, v, _ = g.edges[eid]
        (odd if min(t.level[u], t.level[v]) % 2 == 1 else even).append(eid)
    return [odd, even]


def layer_sets_by_definition(g: WeightedGraph, t, k: int) -> list[list[int]]:
    """All k layer sets of ``t``, each built from its definition: set j
    drops the tree edges between levels i and i+1 with i = j (mod k), keeps
    the rest of the tree, and absorbs each non-tree edge whose ends the
    kept forest joins, found by a BFS per set."""
    from collections import deque
    sets = []
    for j in range(k):
        kept = set()
        for e in t.edge_ids:
            lu, lv = (t.level[x] for x in g.edges[e][:2])
            if lu == lv or min(lu, lv) % k != j:
                kept.add(e)
        comp = [-1] * g.n
        for s in range(g.n):
            if comp[s] >= 0:
                continue
            comp[s] = s
            queue = deque([s])
            while queue:
                u = queue.popleft()
                for v, eid in g.adj[u]:
                    if eid in kept and comp[v] < 0:
                        comp[v] = s
                        queue.append(v)
        sets.append(sorted(kept | {e for e, (u, v, _) in enumerate(g.edges)
                                   if e not in t.edge_ids and comp[u] == comp[v]}))
    return sets


def lightest_layer_by_full_scan(g: WeightedGraph, t, k: int) -> tuple[int, list[int]]:
    """The first of the k layer sets with the least dropped tree weight, and
    its index; each dropped weight is summed in edge-id order."""
    sets = layer_sets_by_definition(g, t, k)
    dropped = []
    for ids in sets:
        kept, drop = set(ids), 0.0
        for e in sorted(t.edge_ids):
            if e not in kept:
                drop += g.edges[e][2]
        dropped.append(drop)
    j = dropped.index(min(dropped))
    return j, sets[j]


# -- the cubic padding of the 8/11 argument, built --------------------------


@dataclass(frozen=True)
class CubicExtension:
    """3-regular triangle-free supergraph with zero-weight padding.

    The first ``base.n`` vertices and the first ``base.m`` edges coincide
    with the original graph; every added edge has weight zero, so any cut
    of the extension restricts to a cut of the base of the same weight.
    """

    graph: WeightedGraph
    base: WeightedGraph
    gadget_count: int

    def restrict(self, cut: Cut) -> Cut:
        return Cut.from_side(self.base, cut.side[: self.base.n])


def gadget_hosts(g: WeightedGraph) -> list[int]:
    """The vertex each padding gadget hangs from, in the order they are added."""
    return [s for s in range(g.n) for _ in range(3 - g.degree(s))]


def regularize_to_cubic(g: WeightedGraph) -> CubicExtension:
    """Pad every deficient vertex with degree-completing gadgets.

    Each gadget is a copy of ``gadget_k33_subdivided``, numbered after the
    vertices before it; its subdivision vertex (the last) attaches to the
    deficient vertex, keeping the result triangle-free.
    """
    if not triangle_free(g):
        raise TriangleFoundError("regularization expects a triangle-free graph")
    if g.max_degree() > 3:
        raise NotSubcubicError("graph is not subcubic")
    hosts = gadget_hosts(g)
    if not hosts:
        return CubicExtension(g, g, 0)
    inner = [(u, v) for u, v, _ in gadget_k33_subdivided().edges]
    edges = list(g.edges)
    for i, s in enumerate(hosts):
        base = g.n + 7 * i
        edges += [(base + u, base + v, 0.0) for u, v in inner] + [(s, base + 6, 0.0)]
    return CubicExtension(WeightedGraph(g.n + 7 * len(hosts), edges), g, len(hosts))


def gadget_colors(host_color: int) -> tuple[int, ...]:
    """Colors of a gadget's vertices hung from a vertex of color c: c mod 3
    + 1 on the subdivision vertex, c on the side 3-5 and the third color on
    the side 0-2, so the gadget and its host edge are colored properly."""
    mid = host_color % 3 + 1
    return (6 - host_color - mid,) * 3 + (host_color,) * 3 + (mid,)


def padded_coloring(ext: CubicExtension) -> VertexColoring3:
    """The base's memoized coloring, extended over each gadget by the rule of
    ``gadget_colors``: proper by construction."""
    from cutbounds.subcubic import color_components
    color = color_components(ext.base).class_of
    pad = (c for s in gadget_hosts(ext.base) for c in gadget_colors(color[s]))
    return VertexColoring3(color + tuple(pad))


def successor_digraph(g: WeightedGraph, coloring: VertexColoring3):
    """The successor digraph of ``g`` itself, no padding counted."""
    from cutbounds.subcubic import _successors
    return _successors(g, coloring, repeat(0))


def _padded_candidates(g: WeightedGraph):
    """The cubic extension of ``g``, its edge-class weights and the three
    8/11 candidates built on it, by name, as ``(certified value, build)``:
    the padded pipeline, with every gadget built, colored, oriented and
    classified."""
    from cutbounds.cuts import _two_color, place_blocks
    from cutbounds.graph import _exact_weights
    from cutbounds.subcubic import classify_edges, component_layer_cut, mutual_matching_cut
    ext = regularize_to_cubic(g)
    g3 = ext.graph
    coloring = padded_coloring(ext)
    succ = successor_digraph(g3, coloring)
    cls = classify_edges(g3, succ)
    w0, w1, w2 = map(_exact_weights(g3).value, cls.sums(g3))

    def drop_class():
        dropped = {c: set() for c in (1, 2, 3)}
        for v, s in enumerate(succ.succ):
            if s is not None:
                dropped[coloring.class_of[v]].add(g3.edge_id(v, s))
        weight = {c: sum((Fraction(g3.edges[e][2]) for e in ids), Fraction(0))
                  for c, ids in dropped.items()}
        least = min((1, 2, 3), key=weight.__getitem__)
        return place_blocks(g3, _two_color(g3, (e for e in range(g3.m)
                                                if e not in dropped[least])))

    return ext, (w0, w1, w2), {
        "drop_class": (w0 + 2 * w1 / 3 + w2 / 3, drop_class),
        "layered_components": (w0 / 2 + 7 * w1 / 8 + w2,
                               lambda: component_layer_cut(g3, succ, cls)),
        "mutual_matching": (Fraction(3, 5) * (w0 + w1) + w2,
                            lambda: mutual_matching_cut(g3, cls)),
    }


def eight_elevenths_padded(g: WeightedGraph):
    """The ``eight_elevenths`` report built on the padded graph: the
    candidates are ranked on exact ``Fraction`` values, the winner's cut is
    built on the cubic extension and restricted back."""
    from cutbounds.bounds import _report, meets
    if g.n == 0:
        return _report("eight_elevenths", Fraction(0), Cut((), Fraction(0)), {})
    ext, class_weights, candidates = _padded_candidates(g)
    winner = max(candidates, key=lambda name: candidates[name][0])
    value, build = candidates[winner]
    cut = build()
    assert meets(cut, value)
    details = {"gadgets": ext.gadget_count,
               "class_weights": [float(w) for w in class_weights],
               **{name: {"certified": float(v)} for name, (v, _) in candidates.items()},
               "winner": winner}
    details[winner]["cut_weight"] = cut.weight
    total = sum((Fraction(w) for _, _, w in g.edges), Fraction(0))
    return _report("eight_elevenths", Fraction(8, 11) * total, ext.restrict(cut), details)


def eight_elevenths_candidate_cuts(g: WeightedGraph):
    """The cubic extension of ``g`` and every 8/11 candidate built on it, by
    name, as ``(cut, certified value)``.  Building all three runs each
    one's own ClaimViolationError checks; a cut below its certified value
    raises ClaimViolationError too."""
    from cutbounds.bounds import meets
    from cutbounds.subcubic import ClaimViolationError
    ext, _, candidates = _padded_candidates(g)
    out = {}
    for name, (value, build) in candidates.items():
        cut = build()
        if not meets(cut, value):
            raise ClaimViolationError(f"{name} cut weight {cut.weight} below certified {value}")
        out[name] = (cut, value)
    return ext.graph, out


def tree_paths(g: WeightedGraph, t) -> dict[int, list[int]]:
    """Tree edge ids on the tree path of every non-tree edge, by BFS over
    the tree edges from one endpoint."""
    paths = {}
    for f, (u, v, _) in enumerate(g.edges):
        if f in t.edge_ids:
            continue
        back = {u: None}
        queue = [u]
        for x in queue:
            for y, eid in g.adj[x]:
                if eid in t.edge_ids and y not in back:
                    back[y] = (x, eid)
                    queue.append(y)
        path, x = [], v
        while back[x] is not None:
            x, eid = back[x]
            path.append(eid)
        paths[f] = path
    return paths


def percolation_conditional_expectation(g: WeightedGraph, p, paths: dict[int, list[int]],
                                        state: dict) -> Fraction:
    """The percolation process's expected cut weight before orientation,
    over rationals with p = Fraction(p), given ``state[e]`` (True kept,
    False dropped, None undecided) for every tree edge e.  With every edge
    undecided this is sum_e w_e (1+p)/2 + sum_f w_f (1/2 + s_f p^L_f / 2),
    s_f = +1 for odd path length L_f and -1 for even."""
    p, total = Fraction(p), Fraction(0)
    for e, kept in state.items():
        w = Fraction(g.edges[e][2])
        total += w if kept else w / 2 if kept is False else w * (1 + p) / 2
    for f, path in paths.items():
        w = Fraction(g.edges[f][2])
        if any(state[e] is False for e in path):
            total += w / 2
        else:
            sign = 1 if len(path) % 2 else -1
            total += w * (1 + sign * p ** sum(state[e] is None for e in path)) / 2
    return total


def random_triangle_free_subcubic_by_scan(n: int, seed: int = 0,
                                          weight_dist: str = "unit") -> WeightedGraph:
    """The generator's reference: rescan every vertex pair for each edge,
    listing the addable pairs in row-major order, and pick one uniformly."""
    rng = random.Random(seed)
    nbrs: list[set[int]] = [set() for _ in range(n)]
    edges: list[tuple[int, int, float]] = []
    while True:
        candidates = []
        for u in range(n):
            if len(nbrs[u]) >= 3:
                continue
            for v in range(u + 1, n):
                if len(nbrs[v]) >= 3 or v in nbrs[u]:
                    continue
                if nbrs[u] & nbrs[v]:
                    continue
                candidates.append((u, v))
        if not candidates:
            break
        u, v = candidates[rng.randrange(len(candidates))]
        if weight_dist == "unit":
            w = 1.0
        elif weight_dist == "uniform":
            w = rng.random()
        else:
            w = float(rng.randint(0, 10))
        nbrs[u].add(v)
        nbrs[v].add(u)
        edges.append((u, v, w))
    return WeightedGraph(n, edges)


def vizing_by_dicts(g: WeightedGraph):
    """``vizing_edge_coloring``'s fan-and-path construction on per-vertex
    {color: edge} dicts, with the same choices throughout.

    Classical fan construction: edges are processed in id order; for an
    uncolored edge (u, v) a maximal fan at u is built (lowest-id choices),
    the alternating path in the two relevant colors through u is flipped,
    and a fan prefix is rotated.  Deterministic throughout.
    """
    from cutbounds.coloring import EdgeColoring
    palette = g.max_degree() + 1
    color = [0] * g.m
    at: list[dict[int, int]] = [dict() for _ in range(g.n)]  # vertex -> {color: eid}

    def free(v: int) -> int:
        for c in range(1, palette + 1):
            if c not in at[v]:
                return c
        raise AssertionError("no free color available")

    def set_color(eid: int, c: int) -> None:
        u, v, _ = g.edges[eid]
        old = color[eid]
        if old:
            del at[u][old]
            del at[v][old]
        color[eid] = c
        if c:
            at[u][c] = eid
            at[v][c] = eid

    def other(eid: int, x: int) -> int:
        u, v, _ = g.edges[eid]
        return v if x == u else u

    for start in range(g.m):
        if color[start]:
            continue
        u, v, _ = g.edges[start]
        # maximal fan at u starting with v
        fan = [v]
        fan_edge = [start]
        in_fan = {v}
        while True:
            last = fan[-1]
            nxt = None
            for z, eid in g.adj[u]:
                if z in in_fan or not color[eid]:
                    continue
                if color[eid] not in at[last]:
                    nxt = (z, eid)
                    break
            if nxt is None:
                break
            fan.append(nxt[0])
            fan_edge.append(nxt[1])
            in_fan.add(nxt[0])
        c = free(u)
        d = free(fan[-1])
        if c != d:
            # flip the maximal path through u alternating colors d, c;
            # clear first so the color index never holds duplicates
            path = []
            cur, want = u, d
            while want in at[cur]:
                eid = at[cur][want]
                path.append(eid)
                cur = other(eid, cur)
                want = c if want == d else d
            flipped = [c if color[eid] == d else d for eid in path]
            for eid in path:
                set_color(eid, 0)
            for eid, col in zip(path, flipped):
                set_color(eid, col)
        # first fan prefix that is still a fan and ends where d is free
        w_index = None
        for j in range(len(fan)):
            if d in at[fan[j]]:
                continue
            ok = True
            for i in range(1, j + 1):
                if not color[fan_edge[i]] or color[fan_edge[i]] in at[fan[i - 1]]:
                    ok = False
                    break
            if ok:
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
    return EdgeColoring(tuple(remap[c] for c in color), len(remap))


def shearer_sides_by_loop(g: WeightedGraph, first, tie, redraw) -> list[list[int]]:
    """``shearer_sample``'s second stage, vertex by vertex, on given coins:
    row i of each (b, n) bit block is trial i's first-stage sides, tie
    bits and redraws."""
    out = []
    for f, t, r in zip(first.tolist(), tie.tolist(), redraw.tolist()):
        side = []
        for v in range(g.n):
            other = sum(1 for u, _ in g.adj[v] if f[u] != f[v])
            d = len(g.adj[v])
            good = 2 * other > d or (2 * other == d and t[v] == 1)
            side.append(f[v] if good else r[v])
        out.append(side)
    return out


def shearer_expectation(g: WeightedGraph) -> Fraction:
    """The exact expected cut weight of the ``shearer_sample`` process.

    Over the 2^n equally likely first-stage sides: a vertex with more than
    half of its neighbours across keeps its side, a tied one keeps it with
    probability 1/2, and every other outcome is a fair redraw; given the
    first stage, vertices end independently.
    """
    total = Fraction(0)
    for bits in product((0, 1), repeat=g.n):
        p_one = []
        for v in range(g.n):
            other = sum(1 for u, _ in g.adj[v] if bits[u] != bits[v])
            d = len(g.adj[v])
            keep = 1 if 2 * other > d else Fraction(1, 2) if 2 * other == d else 0
            p_one.append(keep * bits[v] + (1 - keep) * Fraction(1, 2))
        total += sum(Fraction(w) * (p_one[u] * (1 - p_one[v]) + p_one[v] * (1 - p_one[u]))
                     for u, v, w in g.edges)
    return total / 2 ** g.n


def shearer_sample(g: WeightedGraph, rng: random.Random):
    """One sample of the two-stage process, vertex by vertex: a uniform
    partition, then re-randomize every vertex that does not have more than
    half of its neighbors on the other side (ties stay put with probability
    1/2)."""
    side = [rng.getrandbits(1) for _ in range(g.n)]
    good = [False] * g.n
    for v in range(g.n):
        other = sum(1 for u, _ in g.adj[v] if side[u] != side[v])
        d = g.degree(v)
        if 2 * other > d:
            good[v] = True
        elif 2 * other == d:
            good[v] = bool(rng.getrandbits(1))
    for v in range(g.n):
        if not good[v]:
            side[v] = rng.getrandbits(1)
    return Cut.from_side(g, side)


def percolation_raw(g: WeightedGraph, t, p: float, rng: random.Random):
    """One percolation sample before local search: keep each tree edge with
    probability p, 2-color the kept forest and orient each piece, a lone
    vertex too, uniformly at its minimum vertex."""
    from cutbounds.cuts import _two_color
    kept = [e for e in sorted(t.edge_ids) if rng.random() < p]
    label, color, _ = _two_color(g, kept)
    orient: dict[int, int] = {}  # by block; lone vertex v is block -1 - v
    side = [0] * g.n
    for v in range(g.n):
        b = label[v] if label[v] >= 0 else -1 - v
        if b not in orient:
            orient[b] = rng.getrandbits(1)
        side[v] = color[v] ^ orient[b]
    return Cut.from_side(g, side)


def tree_percolation_sample(g: WeightedGraph, t, p: float, rng: random.Random):
    """One percolation sample, then a local search."""
    from cutbounds import local_search_improve
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    return local_search_improve(g, percolation_raw(g, t, p, rng))


def tree_distances_from(g: WeightedGraph, t, src: int) -> list[int]:
    """Hop distances from ``src`` along the tree edges of ``t``, by BFS."""
    from collections import deque
    dist = [-1] * g.n
    dist[src] = 0
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for v, eid in g.adj[u]:
            if eid in t.edge_ids and dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def dfs_tree_by_direct_build(g: WeightedGraph, root: int):
    """The depth-first search tree from ``root``, neighbors explored in
    ascending vertex id, with parent and level set as the search descends.
    Raises DisconnectedGraphError("graph is not connected") when the search
    misses a vertex."""
    from cutbounds.graph import DisconnectedGraphError, _exact_weights
    from cutbounds.spanning import RootedSpanningTree
    parent, level, edge_ids = [None] * g.n, [-1] * g.n, set()
    level[root] = 0
    stack = [(root, iter(g.adj[root]))]
    while stack:
        u, it = stack[-1]
        for v, eid in it:
            if level[v] < 0:
                level[v], parent[v] = level[u] + 1, u
                edge_ids.add(eid)
                stack.append((v, iter(g.adj[v])))
                break
        else:
            stack.pop()
    if min(level) < 0:
        raise DisconnectedGraphError("graph is not connected")
    return RootedSpanningTree(tuple(parent), (root,), tuple(level), frozenset(edge_ids),
                              "dfs", _exact_weights(g).weight(edge_ids))


def fundamental_cycle_lengths(g: WeightedGraph, edge_ids: frozenset[int]):
    """``(eid, d_T(u, v) + 1)`` for every non-tree edge e = (u, v), by edge
    id, T being the spanning tree with edge set ``edge_ids`` rooted at 0.
    Raises DisconnectedGraphError when the edge set does not span the graph."""
    from cutbounds.spanning import _forest_cycle_lengths, _orient
    if all(e in edge_ids for e in range(g.m)):
        return []
    return _forest_cycle_lengths(g, _orient(g, edge_ids, (0,), "arbitrary"))


def cross_edges_by_parent_walk(g: WeightedGraph, t) -> list[int]:
    """Non-tree edges joining two vertices neither an ancestor of the other:
    walk the deeper end up to the other's level and compare."""
    bad = []
    for eid, (u, v, _) in enumerate(g.edges):
        if eid in t.edge_ids:
            continue
        a, b = (u, v) if t.level[u] >= t.level[v] else (v, u)
        while t.level[a] > t.level[b]:
            a = t.parent[a]
        if a != b:
            bad.append(eid)
    return bad


def petersen_spoke_ids(g: WeightedGraph) -> tuple[int, ...]:
    """Edge ids of the crossing perfect matching in the Petersen fixtures."""
    from cutbounds.generators import _PETERSEN_SPOKES
    return tuple(g.edge_id(u, v) for u, v in _PETERSEN_SPOKES)
