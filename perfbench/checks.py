"""Independent checks of the CLI's outputs.

Nothing here imports the library: cut weights are recomputed from the
printed bitstring and the benchmark's own copy of the input, exactly over
the integers when every weight is integral, and oracle witnesses are
re-evaluated against the reported value.  Each check also returns what
it observed (bound values and skips, verify counts, oracle values) so it
can be compared with the reference captured at the seed commit.
"""

from __future__ import annotations

import functools
import json
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from workloads import BOUND_NAMES, Graph, Item

REL_TOL = 1e-9
_VERIFY_LINE = re.compile(r"input: n=(\d+) m=(\d+) checked=(\d+) (ok|FAIL)$")


@dataclass
class Outcome:
    """Operations attempted and failed by one command, what it reported,
    and the cut weight / total weight of its deterministic certificates."""

    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    observed: object = None
    cut_weight: float = 0.0
    total_weight: float = 0.0

    def fail(self, message: str, ops: int = 1) -> None:
        self.failed = min(self.attempted, self.failed + ops)
        self.problems.append(message)


def _slack(g: Graph) -> float:
    return REL_TOL * max(1.0, g.total_weight)


def cut_weight(g: Graph, bits: str):
    """Crossing weight of a 0/1 side string: an int in integer mode."""
    if len(bits) != g.n or set(bits) - {"0", "1"}:
        raise ValueError(f"cut string of length {len(bits)} for n={g.n}")
    crossing = [w for u, v, w in g.edges if bits[u] != bits[v]]
    return sum(int(w) for w in crossing) if g.integer else math.fsum(crossing)


def _same(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def check(item: Item, cmd: dict, reference=None) -> Outcome:
    """Check one command's exit status and output; ``reference`` is what
    the seed commit observed on the same input, or None."""
    out = Outcome(item.ops)
    if cmd["exit"] != 0 or "Traceback" in cmd["stderr"]:
        out.fail(f"{item.label}: exit {cmd['exit']} {cmd['stderr'].strip()[-300:]}",
                 item.ops)
        return out
    try:
        if item.kind == "bounds":
            _check_bounds(item.graph, cmd["stdout"], out)
        elif item.kind == "verify":
            _check_verify(item.graph, cmd["stdout"], out)
        elif item.kind == "max-cut":
            _check_max_cut(item.graph, cmd["stdout"], out)
        else:
            _check_bipartite_family(item.graph, cmd["stdout"], out)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        out.fail(f"{item.label}: unreadable output: {exc}", item.ops)
        return out
    if reference is not None:
        _compare(item, out, reference)
    out.problems = [f"{item.label}: {p}" for p in out.problems]
    return out


def _check_bounds(g: Graph, stdout: str, out: Outcome) -> None:
    rows = {}
    for line in stdout.splitlines():
        row = json.loads(line)
        rows[row["name"]] = row
    observed = {}
    for name in BOUND_NAMES:
        row = rows.get(name)
        if row is None:
            out.fail(f"{name}: row missing")
            continue
        if row.get("skipped"):
            observed[name] = None
            continue
        w = cut_weight(g, row["cut"])
        bound = row["bound_value"]
        if g.integer:
            ok = float(w) == row["cut_weight"] and w >= Fraction(bound)
        else:
            ok = abs(w - row["cut_weight"]) <= _slack(g) and w >= bound - _slack(g)
        if not ok:
            out.fail(f"{name}: cut weighs {w}, reports {row['cut_weight']}, bound {bound}")
            continue
        observed[name] = bound
        if row["mode"] == "deterministic":
            out.cut_weight += float(w)
            out.total_weight += g.total_weight
    out.observed = observed


def _check_verify(g: Graph, stdout: str, out: Outcome) -> None:
    lines = stdout.splitlines()
    m = _VERIFY_LINE.match(lines[0]) if lines else None
    if m is None or lines[-1] != "verify: 1 instance(s), all sound":
        out.fail("verify did not report the instance sound")
        return
    n, edges, checked, status = int(m[1]), int(m[2]), int(m[3]), m[4]
    if (n, edges) != (g.n, len(g.edges)) or status != "ok":
        out.fail(f"verify read n={n} m={edges} status {status}")
        return
    out.observed = checked
    best = exact_max_cut(g)
    out.cut_weight, out.total_weight = best, g.total_weight


def _check_max_cut(g: Graph, stdout: str, out: Outcome) -> None:
    """The witness must weigh the reported value, and the value must be
    the optimum found by the benchmark's own enumeration."""
    row = json.loads(stdout)
    w = cut_weight(g, row["witness"])
    best = exact_max_cut(g)
    if not (row["exact"] and _same(w, row["value"]) and _same(w, best)):
        out.fail(f"witness weighs {w}, value {row['value']}, maximum {best}")
        return
    out.observed = row["value"]
    out.cut_weight, out.total_weight = float(w), best


def _check_bipartite_family(g: Graph, stdout: str, out: Outcome) -> None:
    """The witness edges must split into components that are each an
    induced, bipartite subgraph, and weigh the reported value."""
    row = json.loads(stdout)
    ids = row["witness"]
    if len(set(ids)) != len(ids) or not all(0 <= e < len(g.edges) for e in ids):
        out.fail("witness edge ids invalid")
        return
    chosen = set(ids)
    adj: dict[int, list[int]] = {}
    for e in ids:
        u, v, _ = g.edges[e]
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    comp, color = {}, {}
    for s in adj:
        if s in comp:
            continue
        comp[s], color[s] = s, 0
        stack = [s]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v not in comp:
                    comp[v], color[v] = s, color[u] ^ 1
                    stack.append(v)
                elif color[v] == color[u]:
                    out.fail(f"witness component at {s} is not bipartite")
                    return
    for e, (u, v, _) in enumerate(g.edges):
        if u in comp and v in comp and comp[u] == comp[v] and e not in chosen:
            out.fail(f"witness component at {comp[u]} is not induced (edge {e})")
            return
    weights = [g.edges[e][2] for e in ids]
    w = sum(int(x) for x in weights) if g.integer else math.fsum(weights)
    if not _same(w, row["value"]):
        out.fail(f"witness weighs {w}, value {row['value']}")
        return
    out.observed = row["value"]


def _compare(item: Item, out: Outcome, reference) -> None:
    if out.observed is None:
        return
    if item.kind == "bounds":
        for name in BOUND_NAMES:
            got, want = out.observed.get(name, "missing"), reference.get(name)
            if got == "missing":
                continue
            if (got is None) != (want is None) or (got is not None and not _same(got, want)):
                out.fail(f"{name}: bound {got}, reference {want}")
    elif item.kind == "verify":
        if out.observed != reference:
            out.fail(f"checked {out.observed} bounds, reference {reference}")
    elif not _same(out.observed, reference):
        out.fail(f"value {out.observed}, reference {reference}")


@functools.lru_cache(maxsize=None)
def exact_max_cut(g: Graph) -> float:
    """Maximum cut weight by enumerating every side vector (n <= 24 or so).

    The last vertex stays on side 0; integral weights accumulate in int64,
    so the result is exact for them."""
    if g.n < 2 or not g.edges:
        return 0.0
    masks = np.arange(1 << (g.n - 1), dtype=np.int64)
    bits = [((masks >> v) & 1).astype(np.int8) for v in range(g.n - 1)]
    bits.append(np.zeros(masks.shape, dtype=np.int8))
    dtype = np.int64 if g.integer else np.float64
    acc = np.zeros(masks.shape, dtype=dtype)
    for u, v, w in g.edges:
        acc += (bits[u] ^ bits[v]) * dtype(w)
    return float(acc.max())
