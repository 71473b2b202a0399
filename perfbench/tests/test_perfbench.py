"""The benchmark's own tests: python3 -m pytest perfbench/tests"""

from __future__ import annotations

import inspect
import io
import json
from pathlib import Path

import pytest

import checks
import layers
import run
import workloads
from tracer import Tracer, self_times

ROOT = Path(__file__).resolve().parents[2]


# -- generator ---------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 10, 200, 2000])
@pytest.mark.parametrize("seed", [0, 1, 17])
def test_generator_is_deterministic_and_meets_invariants(n, seed):
    g = workloads.tf_subcubic(n, seed)
    assert g == workloads.tf_subcubic(n, seed)
    workloads.check_tf_subcubic(g)
    assert all(0 <= w <= 10 and w.is_integer() for _, _, w in g.edges)
    if n >= 200:
        assert len(g.edges) > 1.3 * n  # most vertices reach degree 3


@pytest.mark.parametrize("edges,message", [
    ([(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)], "triangle"),
    ([(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0), (0, 4, 1.0)], "degree"),
    ([(0, 1, 1.0), (2, 3, 1.0)], "disconnected"),
    ([(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0), (2, 3, 1.0)], "duplicate"),
])
def test_invariant_check_rejects(edges, message):
    n = 1 + max(max(u, v) for u, v, _ in edges)
    with pytest.raises(ValueError, match=message):
        workloads.check_tf_subcubic(workloads.Graph(n, tuple(edges)))


def test_inputs_load_in_the_library_format():
    from cutbounds.graph import load_graph

    for g in (workloads.tf_subcubic(50, 3), workloads.verify_instance(1, 3),
              workloads.random_gnm(12, 0.3, 3, False)):
        h = load_graph(workloads.format_graph(g))
        assert h.n == g.n and sorted(h.edges) == sorted(
            (min(u, v), max(u, v), w) for u, v, w in g.edges)


# -- tracer ------------------------------------------------------------------


def _bindings(namespaces):
    return {(id(ns), attr): obj for ns in namespaces for attr, obj in vars(ns).items()}


def test_uninstall_restores_every_patched_name():
    import cutbounds
    from cutbounds import cli, generators, graph, spanning

    namespaces = [cutbounds, generators] + [getattr(cutbounds, m) for m in layers.LAYERS]
    before = _bindings(namespaces)
    induced, components = graph.WeightedGraph.induced, graph.WeightedGraph.components
    tracer = Tracer(layers.ANNOTATORS)
    layers.install(tracer, cutbounds)
    try:
        # the copy made by `from .graph import girth as graph_girth` is traced too
        assert spanning.graph_girth is graph.girth
        assert spanning.graph_girth is not before[(id(spanning), "graph_girth")]
        assert cli.main(["bounds", "--generate", "petersen", "--trials", "4"],
                        out=io.StringIO()) == 0
    finally:
        tracer.uninstall()
    after = _bindings(namespaces)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert graph.WeightedGraph.induced is induced
    assert graph.WeightedGraph.components is components
    names = {s[0] for s in tracer.spans}
    assert {"cli.main", "cli.cmd_bounds", "graph.girth", "graph.components",
            "bounds.per_component", "subcubic.shearer_bound"} <= names
    assert not any(n.startswith("generators.") or n.split(".")[-1].startswith("_")
                   for n in names)


def test_tracer_records_raised_and_restores_after_exception():
    import cutbounds
    from cutbounds import bounds, graph

    original = bounds.girth_bound
    tracer = Tracer()
    layers.install(tracer, cutbounds)
    try:
        g = graph.WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
        with pytest.raises(bounds.BoundPreconditionError):
            bounds.girth_bound(g)
    finally:
        tracer.uninstall()
    assert bounds.girth_bound is original
    metrics = layers.layer_metrics(tracer.spans, None)
    assert metrics["bounds.raised"] == 1
    assert metrics["graph.raised"] == 0


def test_self_time_of_nested_spans():
    # root [0, 10] with children [1, 4] and [3, 6] (overlapping) and [8, 9];
    # the first child has a grandchild [2, 3].
    spans = [["root", 0.0, 10.0, -1, 0, None, None],
             ["a", 1.0, 4.0, 0, 0, None, None],
             ["a.x", 2.0, 3.0, 1, 0, None, None],
             ["b", 3.0, 6.0, 0, 0, None, None],
             ["c", 8.0, 9.0, 0, 0, None, None]]
    assert self_times(spans) == pytest.approx([10 - 5 - 1, 3 - 1, 1, 3, 1])


def test_bound_totals_take_the_outermost_call():
    spans = [["cli.cmd_bounds", 0.0, 10.0, -1, 0, None, None],
             ["bounds.per_component", 1.0, 4.0, 0, 0, None,
              {"bound": "dfs_tree", "mode": "deterministic"}],
             ["bounds.dfs_bound", 1.5, 3.5, 1, 0, None, {"mode": "deterministic"}],
             ["subcubic.two_thirds_bound", 5.0, 9.0, 0, 1, None, {"mode": "deterministic"}],
             ["coloring.matching_vizing_bound", 6.0, 7.0, 3, 1, None,
              {"mode": "deterministic"}],
             ["cuts.place_blocks", 6.5, 6.9, 4, 1, None, None]]
    m = layers.layer_metrics(spans, (0, 1))
    assert m["bound.dfs_tree.total_s"] == pytest.approx(3.0)
    assert m["bound.two_thirds.total_s"] == pytest.approx(4.0)
    assert m["bound.matching_vizing.total_s"] == 0.0
    assert m["bound.dfs_tree.growth"] == 0.0
    assert m["cuts.kept_ratio"] == pytest.approx(2.0)
    assert m["cli.self_s"] == pytest.approx(10 - 3 - 4)


# -- checks ------------------------------------------------------------------


def _bounds_item(tmp_path):
    g = workloads.tf_subcubic(30, 5)
    return workloads.Item("g", "bounds", str(tmp_path / "g.txt"), g)


def test_checks_accept_the_cli_and_catch_a_forged_cut(tmp_path):
    from cutbounds import cli

    item = _bounds_item(tmp_path)
    Path(item.path).write_text(workloads.format_graph(item.graph))
    out = io.StringIO()
    assert cli.main(item.argv + ["--trials", "8"], out=out) == 0
    cmd = {"exit": 0, "stdout": out.getvalue(), "stderr": ""}
    good = checks.check(item, cmd)
    assert (good.attempted, good.failed) == (13, 0)
    assert 0.5 < good.cut_weight / good.total_weight <= 1.0

    rows = [json.loads(line) for line in cmd["stdout"].splitlines()]
    row = next(r for r in rows if not r.get("skipped"))
    row["bound_value"] = row["cut_weight"] + 1
    forged = "\n".join(json.dumps(r) for r in rows)
    bad = checks.check(item, {**cmd, "stdout": forged})
    assert bad.failed == 1
    assert checks.check(item, {**cmd, "exit": 3}).failed == 13
    ref = dict(good.observed)
    ref[row["name"]] = None
    assert checks.check(item, cmd, ref).failed == 1


def test_max_cut_check_requires_the_optimum():
    c5 = workloads.Graph(5, tuple((i, (i + 1) % 5, 1.0) for i in range(5)))
    assert checks.exact_max_cut(c5) == 4.0
    item = workloads.Item("c5", "max-cut", "c5.txt", c5)

    def output(witness, value):
        row = {"exact": True, "quantity": "max_cut", "value": value, "witness": witness}
        return {"exit": 0, "stdout": json.dumps(row), "stderr": ""}

    good = checks.check(item, output("01010", 4))
    assert good.failed == 0 and good.cut_weight == good.total_weight == 4.0
    assert checks.check(item, output("01100", 2)).failed == 1  # weighs 2, not optimal
    assert checks.check(item, output("01010", 3)).failed == 1  # value disagrees


# -- the benchmark end to end on reduced inputs -------------------------------


SMALL = {
    "tf_large": lambda seed: [("tf40", "bounds", workloads.tf_subcubic(40, seed)),
                              ("tf80", "bounds", workloads.tf_subcubic(80, seed))],
    "components": lambda seed: [("union10", "bounds", workloads.disjoint_union(seed, 10)),
                                ("path30", "bounds", workloads.weighted_path(30, seed))],
    "verify_oracle": lambda seed: [
        *((f"v{i}", "verify", workloads.verify_instance(i, seed)) for i in range(7)),
        ("cut12", "max-cut", workloads.random_gnm(12, 0.3, seed, True)),
        ("cut12f", "max-cut", workloads.random_gnm(12, 0.3, seed, False)),
        ("mib9", "max-induced-bipartite", workloads.random_gnm(9, 0.3, seed, True))],
}


@pytest.mark.parametrize("workload", sorted(SMALL))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run(workload, trace, tmp_path, monkeypatch, capsys):
    (tmp_path / "src").symlink_to(ROOT / "src")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(workloads, "_graphs", lambda name, seed: SMALL[name](seed))
    monkeypatch.setattr(run, "MIN_PASSES", 1)
    monkeypatch.setattr(run, "MIN_SETUPS", 2)
    # a seed with no captured reference: the small inputs are not the real ones
    assert run.main(["--workload", workload, "--seed", "424242", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == layers.metric_names()
    assert spec["paths"] == ["perfbench"]


def test_missing_library_is_an_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "tf_large", "--seed", "0", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_layer_functions_are_public_module_functions():
    import cutbounds

    for layer in layers.LAYERS:
        mod = getattr(cutbounds, layer)
        for name in layers.BOUND_FUNCTIONS:
            lay, fn = name.split(".")
            if lay == layer:
                assert inspect.isfunction(getattr(mod, fn)), name
