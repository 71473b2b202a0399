"""Fixture-graph generators: cycles, cliques, Petersen variants, gadgets,
and a seeded random triangle-free subcubic family."""

from __future__ import annotations

import random
from typing import Sequence

import numpy as np

from .graph import MAX_VERTICES, WeightedGraph

# Petersen on 10 vertices: outer 5-cycle 0..4, inner 5-cycle 5..9, and the
# crossing perfect matching between them.
_PETERSEN_OUTER = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
_PETERSEN_INNER = [(5, 6), (6, 7), (7, 8), (8, 9), (5, 9)]
_PETERSEN_SPOKES = [(0, 5), (1, 8), (2, 6), (3, 9), (4, 7)]


def cycle(n: int, weight: float = 1.0) -> WeightedGraph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return WeightedGraph(n, [(i, (i + 1) % n, weight) for i in range(n)])


def path(n: int, weight: float = 1.0) -> WeightedGraph:
    if n < 1:
        raise ValueError("path needs n >= 1")
    return WeightedGraph(n, [(i, i + 1, weight) for i in range(n - 1)])


def complete(n: int, weight: float = 1.0) -> WeightedGraph:
    if n < 1:
        raise ValueError("complete needs n >= 1")
    return WeightedGraph(n, [(u, v, weight) for u in range(n) for v in range(u + 1, n)])


def petersen(weight: float = 1.0) -> WeightedGraph:
    edges = [(u, v, weight) for u, v in
             _PETERSEN_OUTER + _PETERSEN_INNER + _PETERSEN_SPOKES]
    return WeightedGraph(10, edges)


def petersen_c3(matching_weight: float = 10.0, other_weight: float = 1.0) -> WeightedGraph:
    """Petersen graph with heavy crossing matching; the c3-tightness fixture."""
    edges = [(u, v, other_weight) for u, v in _PETERSEN_OUTER + _PETERSEN_INNER]
    edges += [(u, v, matching_weight) for u, v in _PETERSEN_SPOKES]
    return WeightedGraph(10, edges)


def star_counterexample(hub_weight: float, leaves: int) -> WeightedGraph:
    """K_{l+1} with heavy edges at a hub vertex.

    Vertex 0 is the hub; its incident edges weigh ``hub_weight``, all other
    edges weigh 1.  The spanning star at the hub then has large weight while
    the maximum cut stays near half the total, so no bound of the form
    w/2 + eps*w(T) can hold for arbitrary spanning trees T.
    """
    if leaves < 1:
        raise ValueError("star_counterexample needs leaves >= 1")
    if hub_weight < 0:
        raise ValueError("hub weight must be nonnegative")
    n = leaves + 1
    edges = [(0, v, float(hub_weight)) for v in range(1, n)]
    edges += [(u, v, 1.0) for u in range(1, n) for v in range(u + 1, n)]
    return WeightedGraph(n, edges)


def star_counterexample_params_ok(hub_weight: float, leaves: int, eps: float) -> bool:
    """Whether (hub_weight, leaves) defeat the eps-coefficient tree bound."""
    if eps <= 0:
        return False
    if hub_weight <= 1.0 / (4.0 * eps):
        return False
    return leaves > hub_weight ** 2 / (4.0 * hub_weight * eps - 1.0)


def gadget_k33_subdivided(weight: float = 1.0) -> WeightedGraph:
    """K_{3,3} with one edge subdivided: 7 vertices, 10 edges.

    Parts {0,1,2} and {3,4,5}, with the edge 0-3 replaced by the path
    0-6-3: vertex 6 is the degree-2 subdivision vertex; all others have
    degree 3.  The zero-weight padding of the 8/11 argument hangs a copy
    from each missing degree by vertex 6, raising the degree to 3 without
    creating triangles.
    """
    pairs = [(0, 4), (0, 5), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (0, 6), (3, 6)]
    return WeightedGraph(7, [(u, v, weight) for u, v in pairs])


WEIGHT_DISTS = ("unit", "uniform", "int")


def random_triangle_free_subcubic(n: int, seed: int = 0,
                                  weight_dist: str = "unit") -> WeightedGraph:
    """Random triangle-free graph with maximum degree at most 3.

    Incremental and rejection free: repeatedly pick a uniformly random
    addable pair (both endpoints of degree < 3, not adjacent, no common
    neighbor) until none remains.  Deterministic in (n, seed, weight_dist).

    The addable pairs u < v are a mask in row-major order with a count per
    row, which finds the k-th pair; each new edge clears only the pairs it
    blocks.  O(n^2) time and memory.

    weight_dist: "unit" (all 1), "uniform" (floats in [0,1)), or
    "int" (integers in 0..10).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if weight_dist not in WEIGHT_DISTS:
        raise ValueError(f"unknown weight_dist {weight_dist!r}")
    rng = random.Random(seed)
    addable = np.triu(np.ones((n, n), dtype=bool), 1)
    count = addable.sum(axis=1)
    nbrs: list[set[int]] = [set() for _ in range(n)]
    edges: list[tuple[int, int, float]] = []

    def block(a: int, b: int) -> None:
        a, b = min(a, b), max(a, b)
        if addable[a, b]:
            addable[a, b] = False
            count[a] -= 1

    while total := int(count.sum()):
        before = np.cumsum(count) - count  # pairs in earlier rows
        k = rng.randrange(total)
        u = int(np.searchsorted(before, k, side="right")) - 1
        v = int(np.flatnonzero(addable[u])[k - before[u]])
        if weight_dist == "unit":
            w = 1.0
        elif weight_dist == "uniform":
            w = rng.random()
        else:
            w = float(rng.randint(0, 10))
        block(u, v)
        for x in nbrs[u]:  # v and x now share the neighbour u
            block(v, x)
        for x in nbrs[v]:
            block(u, x)
        nbrs[u].add(v)
        nbrs[v].add(u)
        edges.append((u, v, w))
        for z in (u, v):
            if len(nbrs[z]) == 3:
                count[:z] -= addable[:z, z]
                addable[:z, z] = addable[z] = False
                count[z] = 0
    return WeightedGraph(n, edges)


# -- CLI-facing registry ------------------------------------------------

_SPECS = {
    "cycle": ((int, float), (None, 1.0), cycle),
    "path": ((int, float), (None, 1.0), path),
    "complete": ((int, float), (None, 1.0), complete),
    "petersen": ((float,), (1.0,), petersen),
    "petersen_c3": ((float, float), (10.0, 1.0), petersen_c3),
    "star_counterexample": ((float, int), (None, None), star_counterexample),
    "gadget_k33_subdivided": ((float,), (1.0,), gadget_k33_subdivided),
    "random_triangle_free_subcubic": ((int, int, str), (None, 0, "unit"),
                                      random_triangle_free_subcubic),
}

GENERATOR_KINDS = tuple(sorted(_SPECS))


def build(kind: str, params: Sequence[str]) -> WeightedGraph:
    """Build a named graph from string parameters (CLI entry point); sizes
    past ``MAX_VERTICES`` vertices, or vertex pairs where every pair is built
    or scanned, raise before anything is built."""
    if kind not in _SPECS:
        raise ValueError(f"unknown generator {kind!r}; known: {', '.join(GENERATOR_KINDS)}")
    types, defaults, fn = _SPECS[kind]
    if len(params) > len(types):
        raise ValueError(f"{kind} takes at most {len(types)} parameters")
    args = []
    for i, typ in enumerate(types):
        if i < len(params):
            try:
                args.append(typ(params[i]))
            except ValueError:
                raise ValueError(f"{kind}: bad parameter {params[i]!r}") from None
        elif defaults[i] is not None:
            args.append(defaults[i])
        else:
            raise ValueError(f"{kind}: missing required parameter #{i + 1}")
    if kind in ("cycle", "path") and args[0] > MAX_VERTICES:
        raise ValueError(f"{kind}: {args[0]} vertices exceed the limit {MAX_VERTICES}")
    if kind in ("complete", "star_counterexample", "random_triangle_free_subcubic"):
        n = args[1] + 1 if kind == "star_counterexample" else args[0]
        if n > 0 and n * (n - 1) // 2 > MAX_VERTICES:
            raise ValueError(f"{kind}: {n} vertices make {n * (n - 1) // 2} vertex "
                             f"pairs, above the limit {MAX_VERTICES}")
    return fn(*args)
