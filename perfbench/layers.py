"""Per-layer metrics from the spans of one traced pass.

A layer is a package module.  ``generators`` is fixture code and is not
traced: the benchmark builds its own inputs.
"""

from __future__ import annotations

import importlib
from types import ModuleType

from tracer import ATTRS, END, INSTANCE, NAME, PARENT, RAISED, START, Tracer, self_times
from workloads import BOUND_NAMES

LAYERS = ("graph", "cuts", "spanning", "bounds", "coloring", "subcubic", "oracle", "cli")

# Entry point of each bound in the CLI suite, as a span name.
BOUND_FUNCTIONS = {
    "bounds.poljak_turzik": "poljak_turzik",
    "bounds.dfs_bound": "dfs_tree",
    "bounds.matching_bound": "matching",
    "bounds.girth_bound": "girth_layers",
    "bounds.triangle_free_tree_bound": "triangle_free_tree",
    "bounds.edge_rooted_tree_bound": "edge_rooted_tree",
    "coloring.matching_vizing_bound": "matching_vizing",
    "coloring.vizing_classes_bound": "vizing_classes",
    "subcubic.two_thirds_bound": "two_thirds",
    "subcubic.eight_elevenths_bound": "eight_elevenths",
    "subcubic.tree_percolation_bound": "tree_percolation",
    "subcubic.combined_tree_bound": "combined_tree",
    "subcubic.shearer_bound": "shearer",
}
PER_COMPONENT = "bounds.per_component"


def _graph_size(args, kwargs, result) -> dict:
    g = args[0]
    return {"n": g.n, "m": g.m}


def _padding(args, kwargs, result) -> dict:
    return {"n_in": args[0].n, "n_out": result.graph.n}


def _bound_mode(args, kwargs, result) -> dict:
    return {"mode": result.mode}


def _lifted_bound(args, kwargs, result) -> dict:
    name = args[2] if len(args) > 2 else kwargs.get("name")
    return {"mode": result.mode, "bound": name}


ANNOTATORS = {"oracle.exact_max_cut": _graph_size,
              "subcubic.regularize_to_cubic": _padding,
              PER_COMPONENT: _lifted_bound,
              **{name: _bound_mode for name in BOUND_FUNCTIONS}}


def install(tracer: Tracer, package: ModuleType) -> None:
    """Trace every layer of the imported ``cutbounds`` package."""
    modules = {layer: importlib.import_module(f"{package.__name__}.{layer}")
               for layer in LAYERS}
    namespaces = [package, importlib.import_module(f"{package.__name__}.generators"),
                  *modules.values()]
    graph_cls = modules["graph"].WeightedGraph
    tracer.install(modules, namespaces,
                   [("graph.induced", graph_cls, "induced"),
                    ("graph.components", graph_cls, "components")])


def metric_names() -> list[str]:
    names = []
    for layer in LAYERS:
        names += [f"{layer}.calls", f"{layer}.self_s", f"{layer}.raised"]
    names += ["graph.girth.calls", "graph.induced.calls", "graph.induced.self_s",
              "spanning.tree_distances_from.calls",
              "spanning.shortest_fundamental_odd_cycle.total_s",
              "spanning.layer_edge_sets.total_s",
              "cuts.place_blocks.calls", "cuts.derandomized_cut.calls",
              "cuts.verify_induced_bipartite.self_s", "cuts.kept_ratio",
              "cuts.local_search_improve.calls", "cuts.local_search_improve.self_s",
              "subcubic.shearer_sample.calls", "subcubic.padding_ratio",
              "oracle.exact_max_cut.total_s", "oracle.exact_max_cut.mask_edge_ops",
              "oracle.mask_edge_ops_per_s", "oracle.max_induced_bipartite.total_s"]
    for b in BOUND_NAMES:
        names += [f"bound.{b}.total_s", f"bound.{b}.growth"]
    names.append("trace.overhead_s")
    return names


def _bound_of(span) -> str | None:
    if span[NAME] == PER_COMPONENT:
        return (span[ATTRS] or {}).get("bound")
    return BOUND_FUNCTIONS.get(span[NAME])


def layer_metrics(spans: list[list], growth_pair: tuple[int, int] | None) -> dict[str, float]:
    """Every metric of ``metric_names`` except ``trace.overhead_s``.

    ``bound.<name>.total_s`` sums the outermost spans of that bound's entry
    point (the bound function, or per_component lifting it), so a bound
    called inside another bound is charged to the outer one.
    ``bound.<name>.growth`` is the time on instance ``growth_pair[1]``
    over the time on ``growth_pair[0]``; 0 without a pair or a time.
    """
    selfs = self_times(spans)
    out: dict[str, float] = {}
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_by_name: dict[str, float] = {}
    for s, st in zip(spans, selfs):
        name = s[NAME]
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + s[END] - s[START]
        self_by_name[name] = self_by_name.get(name, 0.0) + st
    for layer in LAYERS:
        prefix = layer + "."
        out[f"{layer}.calls"] = sum(c for n, c in calls.items() if n.startswith(prefix))
        out[f"{layer}.self_s"] = sum(t for n, t in self_by_name.items()
                                     if n.startswith(prefix))
        out[f"{layer}.raised"] = sum(
            1 for s in spans if s[RAISED] and s[NAME].startswith(prefix)
            and (s[PARENT] < 0 or not spans[s[PARENT]][NAME].startswith(prefix)))
    for name in ("graph.girth", "graph.induced", "spanning.tree_distances_from",
                 "cuts.place_blocks", "cuts.derandomized_cut",
                 "cuts.local_search_improve", "subcubic.shearer_sample"):
        out[f"{name}.calls"] = calls.get(name, 0)
    for name in ("graph.induced", "cuts.verify_induced_bipartite",
                 "cuts.local_search_improve"):
        out[f"{name}.self_s"] = self_by_name.get(name, 0.0)
    for name in ("spanning.shortest_fundamental_odd_cycle", "spanning.layer_edge_sets",
                 "oracle.exact_max_cut", "oracle.max_induced_bipartite"):
        out[f"{name}.total_s"] = total.get(name, 0.0)

    bound_time = {(b, i): 0.0 for b in BOUND_NAMES for i in (0, 1)}
    bound_total = dict.fromkeys(BOUND_NAMES, 0.0)
    deterministic = 0
    for s in spans:
        b = _bound_of(s)
        if b is None or _inside_bound(spans, s):
            continue
        bound_total[b] += s[END] - s[START]
        if growth_pair and s[INSTANCE] in growth_pair:
            bound_time[b, growth_pair.index(s[INSTANCE])] += s[END] - s[START]
        if (s[ATTRS] or {}).get("mode") == "deterministic":
            deterministic += 1
    for b in BOUND_NAMES:
        out[f"bound.{b}.total_s"] = bound_total[b]
        base = bound_time[b, 0]
        out[f"bound.{b}.growth"] = bound_time[b, 1] / base if base > 0 else 0.0

    blocks = calls.get("cuts.place_blocks", 0)
    out["cuts.kept_ratio"] = deterministic / blocks if blocks else 0.0
    pad_in = sum(s[ATTRS]["n_in"] for s in spans
                 if s[NAME] == "subcubic.regularize_to_cubic" and s[ATTRS])
    pad_out = sum(s[ATTRS]["n_out"] for s in spans
                  if s[NAME] == "subcubic.regularize_to_cubic" and s[ATTRS])
    out["subcubic.padding_ratio"] = pad_out / pad_in if pad_in else 0.0
    ops = sum(2 ** (s[ATTRS]["n"] - 1) * s[ATTRS]["m"] for s in spans
              if s[NAME] == "oracle.exact_max_cut" and s[ATTRS] and s[ATTRS]["n"] > 0)
    out["oracle.exact_max_cut.mask_edge_ops"] = ops
    secs = out["oracle.exact_max_cut.total_s"]
    out["oracle.mask_edge_ops_per_s"] = ops / secs if secs > 0 else 0.0
    return out


def _inside_bound(spans: list[list], span: list) -> bool:
    p = span[PARENT]
    while p >= 0:
        if _bound_of(spans[p]) is not None:
            return True
        p = spans[p][PARENT]
    return False
