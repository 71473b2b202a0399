"""Seeded inputs and command lists for the benchmark workloads.

Every input is built here, from the workload seed alone, as a plain edge
list; nothing in this module imports the library.  The library's own
generators are fixture code (and the random one is cubic in n), so they
stay off the timed path and cannot change a workload by changing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

Edge = tuple[int, int, float]

BOUND_NAMES = ("poljak_turzik", "dfs_tree", "matching", "girth_layers",
               "triangle_free_tree", "edge_rooted_tree", "matching_vizing",
               "vizing_classes", "two_thirds", "eight_elevenths",
               "tree_percolation", "combined_tree", "shearer")


@dataclass(frozen=True)
class Graph:
    n: int
    edges: tuple[Edge, ...]

    @property
    def integer(self) -> bool:
        return all(float(w).is_integer() for _, _, w in self.edges)

    @property
    def total_weight(self) -> float:
        return sum(w for _, _, w in self.edges)


@dataclass(frozen=True)
class Item:
    """One command of a workload: the CLI argv and the graph it reads.

    ``kind`` is "bounds", "verify", "max-cut" or "max-induced-bipartite";
    ``ops`` is the number of operations the command's output reports.
    """

    label: str
    kind: str
    path: str
    graph: Graph

    @property
    def argv(self) -> list[str]:
        if self.kind == "bounds":
            return ["bounds", "--input", self.path, "--format", "json-lines"]
        if self.kind == "verify":
            return ["verify", "--input", self.path]
        return ["oracle", self.kind, "--input", self.path, "--format", "json-lines"]

    @property
    def ops(self) -> int:
        return len(BOUND_NAMES) if self.kind == "bounds" else 1


# -- generators ------------------------------------------------------------


def tf_subcubic(n: int, seed: int, wmax: int = 10) -> Graph:
    """Connected triangle-free graph of maximum degree 3, near-linear time.

    A random recursive tree whose vertices take at most three neighbours
    keeps the graph connected; then 4n random pairs among the vertices of
    degree below 3 are tried, and a pair becomes an edge when it is new
    and closes no triangle (the endpoints share no neighbour).  Each try
    costs O(1), so the whole build is O(n).  Weights are integers 0..wmax.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    rng = random.Random(seed)
    nbrs: list[set[int]] = [set() for _ in range(n)]
    pairs: list[tuple[int, int]] = []
    open_ = [0]
    for v in range(1, n):
        i = rng.randrange(len(open_))
        u = open_[i]
        nbrs[u].add(v)
        nbrs[v].add(u)
        pairs.append((u, v))
        if len(nbrs[u]) == 3:
            open_[i] = open_[-1]
            open_.pop()
        open_.append(v)
    for _ in range(4 * n):
        if len(open_) < 2:
            break
        i, j = rng.randrange(len(open_)), rng.randrange(len(open_))
        u, v = open_[i], open_[j]
        if u == v or v in nbrs[u] or nbrs[u] & nbrs[v]:
            continue
        nbrs[u].add(v)
        nbrs[v].add(u)
        pairs.append((u, v))
        for k in sorted((i, j), reverse=True):
            if len(nbrs[open_[k]]) == 3:
                open_[k] = open_[-1]
                open_.pop()
    return Graph(n, tuple((u, v, float(rng.randint(0, wmax))) for u, v in pairs))


def check_tf_subcubic(g: Graph) -> None:
    """Raise ValueError unless g is simple, connected, triangle-free and
    of maximum degree at most 3."""
    nbrs: list[set[int]] = [set() for _ in range(g.n)]
    for u, v, _ in g.edges:
        if u == v or not (0 <= u < g.n and 0 <= v < g.n):
            raise ValueError(f"bad edge ({u}, {v})")
        if v in nbrs[u]:
            raise ValueError(f"duplicate edge ({u}, {v})")
        nbrs[u].add(v)
        nbrs[v].add(u)
    for v in range(g.n):
        if len(nbrs[v]) > 3:
            raise ValueError(f"vertex {v} has degree {len(nbrs[v])}")
    for u, v, _ in g.edges:
        if nbrs[u] & nbrs[v]:
            raise ValueError(f"triangle on edge ({u}, {v})")
    seen = {0} if g.n else set()
    stack = list(seen)
    while stack:
        for v in nbrs[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    if len(seen) != g.n:
        raise ValueError("graph is disconnected")


_PETERSEN = ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4),
             (5, 6), (6, 7), (7, 8), (8, 9), (5, 9))
_SPOKES = ((0, 5), (1, 8), (2, 6), (3, 9), (4, 7))
# K3,3 on {0,1,2} x {3,4,5} with the edge 0-3 subdivided by vertex 6
_K33_SUBDIVIDED = ((0, 4), (0, 5), (1, 3), (1, 4), (1, 5),
                   (2, 3), (2, 4), (2, 5), (0, 6), (3, 6))


def _cycle_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % n) for i in range(n)]


def _path_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def _clique_pairs(n: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def disjoint_union(seed: int, count: int = 200) -> Graph:
    """``count`` components cycling path(3), C5, C6, Petersen and K3,3 with
    one edge subdivided, each edge weighted by an integer 1..9."""
    rng = random.Random(seed)
    shapes = [(3, _path_pairs(3)), (5, _cycle_pairs(5)), (6, _cycle_pairs(6)),
              (10, list(_PETERSEN + _SPOKES)), (7, list(_K33_SUBDIVIDED))]
    edges: list[Edge] = []
    base = 0
    for c in range(count):
        size, pairs = shapes[c % len(shapes)]
        edges += [(base + u, base + v, float(rng.randint(1, 9))) for u, v in pairs]
        base += size
    return Graph(base, tuple(edges))


def weighted_path(n: int, seed: int) -> Graph:
    rng = random.Random(seed)
    return Graph(n, tuple((u, v, float(rng.randint(1, 9))) for u, v in _path_pairs(n)))


def random_gnm(n: int, density: float, seed: int, integer: bool) -> Graph:
    """Uniform graph with exactly round(density * n(n-1)/2) edges, so the
    oracle's work (2^(n-1) * m) does not vary with the seed."""
    rng = random.Random(seed)
    pairs = sorted(rng.sample(_clique_pairs(n), round(density * n * (n - 1) / 2)))
    return Graph(n, tuple((u, v, _weight(rng, integer)) for u, v in pairs))


def _weight(rng: random.Random, integer: bool) -> float:
    if integer:
        return float(rng.randint(1, 9))
    return round(rng.uniform(0.5, 9.5), 6)


def verify_instance(index: int, seed: int, max_n: int = 14) -> Graph:
    """One of the seven kinds ``verify --random`` draws from, in the same
    rotation; odd indices get float weights, even ones integer weights.

    The size of each instance is a function of ``index`` alone: each kind
    steps through its size range round by round, so every seed gets the
    same mix of sizes and the per-command times of two seeds compare.
    The seed draws the weights and the triangle-free graphs' edges.
    """
    rng = random.Random(seed * 1_000_003 + index)
    integer = index % 2 == 0
    kind, round_ = index % 7, index // 7
    if kind == 0:
        n = 3 + round_ % (max_n - 2)
        w = _weight(rng, integer)
        return Graph(n, tuple((u, v, w) for u, v in _cycle_pairs(n)))
    if kind == 1:
        w = _weight(rng, integer)
        n = 2 + round_ % (min(8, max_n) - 1)
        return Graph(n, tuple((u, v, w) for u, v in _clique_pairs(n)))
    if kind == 2:
        w = _weight(rng, integer)
        return Graph(10, tuple((u, v, w) for u, v in _PETERSEN + _SPOKES))
    if kind == 3:
        heavy, light = _weight(rng, integer) + 1.0, _weight(rng, integer)
        return Graph(10, tuple([(u, v, light) for u, v in _PETERSEN]
                               + [(u, v, heavy) for u, v in _SPOKES]))
    if kind == 4:
        hub = _weight(rng, integer)
        leaves = 3 + round_ % (min(9, max_n) - 3)
        return Graph(leaves + 1, tuple((u, v, hub if u == 0 else 1.0)
                                       for u, v in _clique_pairs(leaves + 1)))
    if kind == 5:
        w = _weight(rng, integer)
        return Graph(7, tuple((u, v, w) for u, v in _K33_SUBDIVIDED))
    g = tf_subcubic(4 + round_ % (max_n - 3), rng.randint(0, 10 ** 6))
    return Graph(g.n, tuple((u, v, _weight(rng, integer)) for u, v, _ in g.edges))


# -- workloads --------------------------------------------------------------


def format_graph(g: Graph) -> str:
    """The library's edge-list text format; integral weights print bare."""
    lines = [f"p {g.n} {len(g.edges)}"]
    for u, v, w in g.edges:
        lines.append(f"e {u} {v} {int(w) if g.integer else repr(w)}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str


# Sizes are in _graphs below; perfbench/README.md explains each choice.
WORKLOADS = {w.name: w for w in (
    Workload("tf_large",
             "per-edge odd-cycle BFS and Monte Carlo sampling dominate; "
             "two sizes expose growth"),
    Workload("components",
             "per-component lifting, induced() per block, girth on acyclic graphs "
             "and k=n layers dominate"),
    Workload("verify_oracle",
             "400 small verify calls (fixed per-call cost: girth, root sweeps, Fraction, "
             "CLI, tiny oracle), then the exact max-cut and induced-bipartite solvers at scale"),
)}

# Instances of tf_large whose time ratio is reported as bound.<name>.growth.
GROWTH_PAIR = {"tf_large": (0, 1)}


def _graphs(name: str, seed: int) -> list[tuple[str, str, Graph]]:
    if name == "tf_large":
        return [(f"tf{n}", "bounds", tf_subcubic(n, seed * 7919 + n))
                for n in (1000, 2000)]
    if name == "components":
        return [("union200", "bounds", disjoint_union(seed)),
                ("path300", "bounds", weighted_path(300, seed))]
    if name == "verify_oracle":
        return [(f"v{i:03d}", "verify", verify_instance(i, seed)) for i in range(400)] + [
            ("cut21_int", "max-cut", random_gnm(21, 0.3, seed * 3 + 1, True)),
            ("cut21_float", "max-cut", random_gnm(21, 0.3, seed * 3 + 2, False)),
            ("mib15", "max-induced-bipartite", random_gnm(15, 0.3, seed * 3 + 3, True))]
    raise KeyError(name)


def build(name: str, seed: int, workdir: Path, root: Path) -> list[Item]:
    """Write the workload's input files under workdir; paths are relative
    to root, the directory the commands run in."""
    workdir.mkdir(parents=True, exist_ok=True)
    items = []
    for label, kind, g in _graphs(name, seed):
        path = workdir / f"{label}.txt"
        path.write_text(format_graph(g), encoding="utf-8")
        items.append(Item(label, kind, str(path.relative_to(root)), g))
    return items
