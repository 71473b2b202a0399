import argparse
import io
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

import cutbounds as cb
from cutbounds import cli
from cutbounds.cli import main
from helpers import certified, complete_bipartite


def run_cli(args):
    out = io.StringIO()
    code = main(args, out=out)
    return code, out.getvalue()


def test_bounds_table_c5(tmp_path):
    path = tmp_path / "c5.graph"
    path.write_text(cb.save_graph(cb.cycle(5)))
    code, text = run_cli(["bounds", "--input", str(path), "--trials", "16"])
    assert code == 0
    assert "poljak_turzik" in text and "3.500000" in text
    assert "girth_layers" in text and "4.000000" in text
    assert "eight_elevenths" in text and "3.636364" in text


def test_bounds_k4_inapplicable_rows():
    code, text = run_cli(["bounds", "--generate", "complete", "4", "--trials", "8"])
    assert code == 0
    assert "inapplicable" in text
    assert "girth" in text


def test_bounds_json_lines_round_trip():
    code, text = run_cli(["bounds", "--generate", "cycle", "5",
                          "--trials", "16", "--format", "json-lines"])
    assert code == 0
    rows = [json.loads(line) for line in text.strip().splitlines()]
    names = {r["name"] for r in rows}
    assert {"poljak_turzik", "matching", "girth_layers"} <= names
    for r in rows:
        if not r.get("skipped"):
            assert json.loads(json.dumps(r)) == r
            assert set(r["cut"]) <= {"0", "1"}


def test_bounds_deterministic_output():
    args = ["bounds", "--generate", "petersen", "--trials", "16",
            "--seed", "7", "--format", "json-lines"]
    assert run_cli(args) == run_cli(args)


def test_bounds_petersen_c3_matching_vizing():
    code, text = run_cli(["bounds", "--generate", "petersen_c3", "10", "1",
                          "--trials", "8", "--format", "json-lines"])
    assert code == 0
    rows = {r["name"]: r for r in map(json.loads, text.strip().splitlines())}
    assert rows["matching_vizing"]["bound_value"] == 56.0
    assert rows["matching_vizing"]["cut_weight"] == 56.0


def test_generate_star_and_reload(tmp_path):
    path = tmp_path / "k7.graph"
    code, _ = run_cli(["generate", "star_counterexample", "1", "6",
                       "--output", str(path)])
    assert code == 0
    g = cb.load_graph(path.read_text())
    assert g.n == 7 and g.m == 21 and g.total_weight == 21.0


def test_generate_to_stdout():
    code, text = run_cli(["generate", "cycle", "5"])
    assert code == 0
    assert cb.load_graph(text) == cb.load_graph(cb.save_graph(cb.cycle(5)))


def test_oracle_commands(capsys):
    code, text = run_cli(["oracle", "max-cut", "--generate", "cycle", "5"])
    assert code == 0 and "max_cut = 4" in text
    code, text = run_cli(["oracle", "five-cycle-cover", "--generate", "petersen"])
    assert code == 0 and "five_cycle_cover = 3" in text
    code, _ = run_cli(["oracle", "five-cycle-cover", "--generate", "complete", "4"])
    assert code == 2
    assert capsys.readouterr().err == \
        "error: five-cycle covers are defined for triangle-free graphs\n"
    code, text = run_cli(["oracle", "max-induced-bipartite", "--generate",
                          "complete", "4", "--format", "json-lines"])
    assert code == 0
    assert json.loads(text)["value"] == 2


def test_oracle_size_guard_exit():
    code, _ = run_cli(["oracle", "max-dfs-tree", "--generate", "cycle", "20"])
    assert code == 2


def test_verify_random_sweep():
    code, text = run_cli(["verify", "--random", "10", "--max-n", "12"])
    assert code == 0
    assert "all sound" in text


def test_verify_single_instance():
    code, text = run_cli(["verify", "--generate", "petersen_c3", "10", "1"])
    assert code == 0


def test_conjecture_command():
    code, text = run_cli(["conjecture", "--generate", "petersen_c3", "10", "1",
                          "--format", "json-lines"])
    assert code == 0
    row = json.loads(text.strip().splitlines()[0])
    assert row["matching_ratio"] == 0.6
    assert row["flags"] == []


def test_bad_input_exit_codes(tmp_path):
    bad = tmp_path / "bad.graph"
    bad.write_text("p 2 1\ne 0 0 1\n")
    code, _ = run_cli(["bounds", "--input", str(bad)])
    assert code == 2
    code, _ = run_cli(["bounds", "--input", str(tmp_path / "missing.graph")])
    assert code == 2
    code, _ = run_cli(["bounds", "--generate", "nope"])
    assert code == 2
    code, _ = run_cli(["bounds"])  # no input source
    assert code == 2


@pytest.mark.parametrize("weights", [["nan"], ["inf"], ["1e308", "1e308"]])
def test_non_finite_weights_exit_with_message(tmp_path, capsys, weights):
    path = tmp_path / "g.graph"
    path.write_text(f"p {len(weights) + 1} {len(weights)}\n"
                    + "".join(f"e {i} {i + 1} {w}\n" for i, w in enumerate(weights)))
    code, text = run_cli(["bounds", "--input", str(path)])
    err = capsys.readouterr().err
    assert code == 2 and text == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("over", [1, 10 ** 11])
def test_absurd_vertex_count_exits_2(tmp_path, capsys, over):
    header = cb.graph.MAX_VERTICES + over  # read first: nothing is loaded before it exists
    path = tmp_path / "g.graph"
    path.write_text(f"p {header} 0\n")
    code, text = run_cli(["bounds", "--input", str(path)])
    err = capsys.readouterr().err
    assert code == 2 and text == ""
    assert err.startswith("error: ") and "limit" in err and "Traceback" not in err


_MAX = cb.graph.MAX_VERTICES
# the fewest vertices with more than MAX_VERTICES vertex pairs
_PAIRS_OVER = next(n for n in range(2, _MAX) if n * (n - 1) // 2 > _MAX)


@pytest.mark.parametrize("kind, params", [
    ("cycle", [str(_MAX + 1)]), ("cycle", ["100000000000"]), ("path", [str(_MAX + 1)]),
    ("complete", [str(_PAIRS_OVER)]), ("star_counterexample", ["2", str(_PAIRS_OVER - 1)]),
    ("random_triangle_free_subcubic", [str(_PAIRS_OVER)])])
def test_over_limit_generate_exits_2_before_building(monkeypatch, capsys, kind, params):
    def unbuilt(*args):
        raise AssertionError(f"{kind} was built")

    types, defaults, _ = cb.generators._SPECS[kind]
    monkeypatch.setitem(cb.generators._SPECS, kind, (types, defaults, unbuilt))
    code, text = run_cli(["bounds", "--generate", kind, *params])
    err = capsys.readouterr().err
    assert code == 2 and text == ""
    assert err.startswith("error: ") and "limit" in err and "Traceback" not in err


@pytest.mark.parametrize("kind, params", [
    ("cycle", [str(_MAX)]), ("path", [str(_MAX)]), ("complete", [str(_PAIRS_OVER - 1)]),
    ("star_counterexample", ["2", str(_PAIRS_OVER - 2)]),
    ("random_triangle_free_subcubic", [str(_PAIRS_OVER - 1)])])
def test_generate_limits_admit_the_largest_size(monkeypatch, kind, params):
    built = []
    types, defaults, _ = cb.generators._SPECS[kind]
    monkeypatch.setitem(cb.generators._SPECS, kind,
                        (types, defaults, lambda *args: built.append(args) or cb.cycle(5)))
    cb.generators.build(kind, params)
    assert len(built) == 1


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_trials_below_one_exit_2(capsys, trials):
    code, text = run_cli(["bounds", "--generate", "cycle", "6", "--trials", trials])
    err = capsys.readouterr().err
    assert code == 2 and text == ""
    assert "--trials" in err and "Traceback" not in err


def test_verify_integer_weights_above_2_53(tmp_path):
    path = tmp_path / "big.graph"
    path.write_text("p 3 2\ne 0 1 9007199254740993\ne 1 2 1\n")
    code, text = run_cli(["verify", "--input", str(path)])
    assert code == 0 and "all sound" in text
    g = cb.load_graph(path.read_text())
    assert g.integer_weights  # integral at any size
    for rep in (cb.matching_bound(g), cb.edge_rooted_tree_bound(g),
                cb.matching_vizing_bound(g, cb.best_matching(g))):
        assert certified(rep)
    # 2^53 + 1 is no float: the file's weight parses to 2^53, and w = 2^53 + 1
    # exactly, which no float holds
    assert cb.matching_bound(g).bound_exact == Fraction(2 ** 54 + 1, 2)


@pytest.mark.parametrize("max_n", ["2", "0", "-1"])
def test_verify_random_max_n_below_four_exit_2(capsys, max_n):
    code, text = run_cli(["verify", "--random", "3", "--max-n", max_n])
    err = capsys.readouterr().err
    assert code == 2 and text == ""
    assert err.startswith("error: ") and "--max-n" in err
    assert "Traceback" not in err and "randrange" not in err


def test_verify_random_smallest_max_n_draws_every_kind():
    code, text = run_cli(["verify", "--random", "14", "--max-n", "4"])
    assert code == 0 and "14 instance(s), all sound" in text


def test_verify_negative_random_exit_2(capsys):
    code, text = run_cli(["verify", "--random", "-2"])
    err = capsys.readouterr().err
    assert code == 2 and text == ""
    assert "--random" in err and "Traceback" not in err


def test_verify_input_keeps_small_max_n():
    # --max-n only skips the exact cross-check for a loaded instance
    code, text = run_cli(["verify", "--generate", "cycle", "5", "--max-n", "2"])
    assert code == 0 and "all sound" in text


@pytest.mark.parametrize("command", [["oracle", "max-cut"], ["conjecture"]])
def test_max_n_override_zero_is_honoured(capsys, command):
    code, text = run_cli(command + ["--generate", "cycle", "40", "--max-n-override", "0"])
    err = capsys.readouterr().err
    assert code == 2 and text == ""
    assert "n <= 0" in err and "Traceback" not in err


@pytest.mark.parametrize("command", [["oracle", "max-cut"], ["conjecture"], ["bounds"]])
def test_negative_max_n_override_exit_2(capsys, command):
    code, text = run_cli(command + ["--generate", "cycle", "5", "--max-n-override", "-1"])
    err = capsys.readouterr().err
    assert code == 2 and text == ""
    assert "--max-n-override" in err and "Traceback" not in err


def _write(tmp_path, g, name="g.graph"):
    path = tmp_path / name
    path.write_text(cb.save_graph(g))
    return str(path)


def test_bounds_has_no_root_option(capsys):
    # every DFS bound takes the heaviest DFS tree by one rule; no root is chosen
    assert run_cli(["bounds", "--generate", "cycle", "5", "--root", "0"]) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("usage: cutbounds") and "unrecognized arguments: --root 0" in err


_STAR_K14 = "p 5 4\ne 0 1 1\ne 0 2 2\ne 0 3 3\ne 0 4 4\n"


def _skip_rows(text):
    return [(r["name"], r["reason"]) for r in map(json.loads, text.strip().splitlines())
            if r.get("skipped")]


def test_bounds_skip_rows_star_and_k4(tmp_path):
    path = tmp_path / "star.graph"
    path.write_text(_STAR_K14)
    code, text = run_cli(["bounds", "--input", str(path), "--trials", "8",
                          "--format", "json-lines"])
    assert code == 0
    assert _skip_rows(text) == [(name, "graph is not subcubic") for name in
                                ("two_thirds", "eight_elevenths", "tree_percolation",
                                 "combined_tree")]
    code, text = run_cli(["bounds", "--generate", "complete", "4", "--trials", "8",
                          "--format", "json-lines"])
    assert code == 0
    assert _skip_rows(text) == [
        ("girth_layers", "girth 3 < 4"),
        ("triangle_free_tree", "triangle-free tree bound needs girth >= 4"),
        ("matching_vizing", "matching contraction needs a triangle-free graph"),
        ("vizing_classes", "coefficient bound needs a triangle-free graph"),
        ("two_thirds", "bound expects a triangle-free graph"),
        ("eight_elevenths", "bound expects a triangle-free graph"),
        ("combined_tree", "bound expects a triangle-free graph"),
        ("shearer", "redistribution bound expects a triangle-free graph")]
    code, text = run_cli(["verify", "--input", str(path)])
    assert code == 0 and "checked=9 ok" in text


def test_bounds_on_the_empty_graph(tmp_path):
    path = tmp_path / "empty.graph"
    path.write_text("p 0 0\n")
    code, text = run_cli(["bounds", "--input", str(path), "--format", "json-lines"])
    assert code == 0
    no_tree = "empty graph has no spanning tree"
    rows = [(r["name"], r["reason"]) if r.get("skipped")
            else (r["name"], r["bound_value"], r["cut_weight"], r["mode"], r["cut"])
            for r in map(json.loads, text.strip().splitlines())]
    assert rows == [
        ("poljak_turzik", no_tree),
        ("dfs_tree", no_tree),
        ("matching", 0.0, 0.0, "deterministic", ""),
        ("girth_layers", no_tree),
        ("triangle_free_tree", no_tree),
        ("edge_rooted_tree", "edge-rooted bound needs at least one edge"),
        ("matching_vizing", 0.0, 0.0, "deterministic", ""),
        ("vizing_classes", 0.0, 0.0, "deterministic", ""),
        ("two_thirds", 0.0, 0.0, "deterministic", ""),
        ("eight_elevenths", 0.0, 0.0, "deterministic", ""),
        ("tree_percolation", no_tree),
        ("combined_tree", no_tree),
        ("shearer", 0.0, 0.0, "deterministic", "")]


def test_not_subcubic_is_a_typed_precondition():
    star = cb.load_graph(_STAR_K14)
    with pytest.raises(cb.NotSubcubicError, match="graph is not subcubic"):
        cb.two_thirds_bound(star)
    assert issubclass(cb.NotSubcubicError, cb.GraphError)
    assert issubclass(cb.NotSubcubicError, ValueError)


@pytest.mark.parametrize("command", ["bounds", "verify"])
def test_internal_value_error_in_a_bound_exits_3(monkeypatch, capsys, command):
    def boom(g):
        raise ValueError("boom")

    monkeypatch.setattr(cb.subcubic, "two_thirds_bound", boom)
    code, _ = run_cli([command, "--generate", "cycle", "5", "--trials", "8"])
    err = capsys.readouterr().err
    assert code == 3
    assert "two_thirds" in err and "boom" in err and "Traceback" not in err


@pytest.mark.parametrize("error", [cb.NotInducedError, cb.NotBipartiteError])
@pytest.mark.parametrize("command", ["bounds", "verify"])
def test_certificate_failure_in_a_bound_exits_3(monkeypatch, capsys, command, error):
    def broken(g):
        raise error("bad certificate")

    monkeypatch.setattr(cb.subcubic, "two_thirds_bound", broken)
    code, _ = run_cli([command, "--generate", "cycle", "5", "--trials", "8"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("internal error: ") and "two_thirds" in err
    assert "bad certificate" in err and "Traceback" not in err


def _zero_percolation_cut(monkeypatch):
    # T's bipartition certifies C5, so it is forced to zero too; only the
    # row's own call sees the zero colouring, which the 8/11 cuts also use
    real = cb.subcubic._tree_percolation

    def zero_cuts(g, t, p):
        with monkeypatch.context() as m:
            m.setattr(cb.subcubic, "_two_color",
                      lambda h, edge_ids: cb.cuts.Labelling((-1,) * h.n, (0,) * h.n, 0))
            m.setattr(cb.subcubic, "_percolation_cut",
                      lambda h, t, p, paths: cb.Cut.from_side(h, [0] * h.n))
            return real(g, t, p)

    monkeypatch.setattr(cb.subcubic, "_tree_percolation", zero_cuts)
    monkeypatch.setattr(cb.subcubic, "local_search_improve", lambda g, cut: cut)
    return "percolation cut weight 0.0 below certified"


def _overstated_tree_coefficient(monkeypatch):
    monkeypatch.setattr(cb.subcubic, "TREE_COEFFICIENT", 0.9)  # w/2 + 0.9 w(T) > w on C5
    return "combined_tree cut weight"


@pytest.mark.parametrize("force", [_zero_percolation_cut, _overstated_tree_coefficient])
@pytest.mark.parametrize("command", ["bounds", "verify"])
def test_cut_below_its_certified_bound_exits_3(monkeypatch, capsys, command, force):
    message = force(monkeypatch)
    code, _ = run_cli([command, "--generate", "cycle", "5"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("internal error: ") and message in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["bounds", "verify"])
def test_a_deterministic_row_below_its_value_exits_3(monkeypatch, capsys, command):
    # dfs_tree reads the parity cut poljak_turzik memoized; only its own call sees zero
    real = cb.bounds.dfs_bound

    def zero_parity_cut(g):
        with monkeypatch.context() as m:
            m.setattr(cb.bounds, "_parity_cut", lambda h: cb.Cut.from_side(h, [0] * h.n))
            return real(g)

    monkeypatch.setattr(cb.bounds, "dfs_bound", zero_parity_cut)
    code, _ = run_cli([command, "--generate", "cycle", "5", "--trials", "8"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("internal error: dfs_tree cut weight 0.0 below certified")
    assert "Traceback" not in err


def test_skips_are_precondition_errors():
    for error in (cb.BoundPreconditionError, cb.TriangleFoundError,
                  cb.DisconnectedGraphError, cb.NotSubcubicError, cb.OddCycleError):
        assert issubclass(error, cb.PreconditionError)
    assert issubclass(cb.PreconditionError, cb.GraphError)


@pytest.mark.parametrize("command", [
    ["bounds", "--max-n-override", "5"],
    ["oracle", "max-cut", "--seed", "1"],
    ["oracle", "max-cut", "--trials", "8"],
    ["conjecture", "--trials", "8"],
    ["conjecture", "--seed", "1"],
    ["verify", "--format", "json-lines"],
    ["verify", "--max-n-override", "10"],
])
def test_options_a_command_never_reads_exit_2(capsys, command):
    code, text = run_cli(command + ["--generate", "cycle", "5"])
    err = capsys.readouterr().err
    assert code == 2 and text == ""
    assert "unrecognized arguments" in err and "Traceback" not in err


def test_verify_honours_trials(monkeypatch):
    seen = []
    shearer = cb.subcubic.shearer_bound

    def spy(g, trials, seed):
        seen.append(trials)
        return shearer(g, trials=trials, seed=seed)

    monkeypatch.setattr(cb.subcubic, "shearer_bound", spy)
    for extra in ([], ["--trials", "3"]):
        code, text = run_cli(["verify", "--generate", "cycle", "6"] + extra)
        assert code == 0 and "all sound" in text
    assert seen == [16, 3]


@pytest.mark.parametrize("args", [
    ["--generate", "cycle", "31", "--max-n", "31"],
    ["--generate", "cycle", "12", "--max-n", "40"],
    ["--random", "5", "--max-n", "31"],
])
def test_verify_obeys_the_max_cut_guard(monkeypatch, capsys, args):
    def enumerate_masks(g, max_n):
        raise AssertionError("enumerated past the guard")

    monkeypatch.setattr(cb.oracle, "exact_max_cut", enumerate_masks)
    code, text = run_cli(["verify"] + args)
    err = capsys.readouterr().err
    assert code == 2 and text == ""
    assert err.startswith("error: ") and "n <= 30" in err and "Traceback" not in err


def test_verify_cross_checks_integer_weights_exactly(monkeypatch):
    # C5 of weight 10^9: max cut 4 * 10^9, float slack 5
    def one_above(g):
        over = Fraction(4 * 10 ** 9 + 1)
        return cb.bounds._report("two_thirds", over, cb.Cut((0,) * g.n, over), {})

    monkeypatch.setattr(cb.subcubic, "two_thirds_bound", one_above)
    code, text = run_cli(["verify", "--generate", "cycle", "5", "1000000000"])
    assert code == 1 and "FAIL" in text
    assert "two_thirds: bound 4000000001.0 exceeds max cut 4000000000.0" in text
    assert "two_thirds: cut 4000000001.0 exceeds max cut 4000000000.0" in text


def _option_reads(argv):
    """The parsed options ``argv``'s command reads while it runs."""
    reads = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    args = cli.build_parser().parse_args(argv, namespace=Recording())
    reads.clear()
    assert args.fn(args, io.StringIO()) == 0
    return reads


@pytest.mark.parametrize("command", [["bounds"], ["oracle", "max-cut"], ["verify"],
                                     ["conjecture"], ["generate", "cycle", "5"]])
def test_every_option_a_command_accepts_is_read(tmp_path, command):
    path = _write(tmp_path, cb.cycle(5))
    if command[0] == "generate":
        reads = _option_reads(command + ["--output", str(tmp_path / "out.graph")])
    else:
        reads = (_option_reads(command + ["--generate", "cycle", "5"])
                 | _option_reads(command + ["--input", path]))
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    accepted = {a.dest for a in sub.choices[command[0]]._actions if a.dest != "help"}
    assert accepted - reads == set()


# ``main`` builds its parser once per process; later calls reuse it.


def test_repeated_main_runs_a_rebound_command(monkeypatch):
    assert run_cli(["generate", "cycle", "3"])[0] == 0
    ran = []

    def fake_bounds(args, out):
        ran.append(args.seed)
        return 0

    monkeypatch.setattr(cli, "cmd_bounds", fake_bounds)
    assert run_cli(["bounds", "--generate", "cycle", "5", "--seed", "3"]) == (0, "")
    assert ran == [3]


def test_repeated_main_forgets_the_previous_options(tmp_path):
    # K17,17 has max degree 17, so --seed moves its shearer row
    path = _write(tmp_path, complete_bipartite(17, 17))
    base = ["bounds", "--input", path, "--trials", "8", "--format", "json-lines"]
    code, seeded = run_cli(base + ["--seed", "3"])
    assert code == 0
    after = run_cli(base)
    cli._parser.cache_clear()
    try:
        alone = run_cli(base)
    finally:
        cli._parser.cache_clear()
    assert after == alone and after[1] != seeded


def test_repeated_main_reports_a_bad_option_then_runs(capsys):
    assert run_cli(["generate", "cycle", "3"])[0] == 0
    capsys.readouterr()
    assert run_cli(["bounds", "--generate", "cycle", "5", "--bogus"]) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("usage: cutbounds") and "unrecognized arguments: --bogus" in err
    code, text = run_cli(["generate", "cycle", "3"])
    assert code == 0 and text.startswith("p 3 3")


# README's CLI section is what users copy, so it is held to the parser.
_README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_cli_section():
    text = _README.read_text(encoding="utf-8")
    return text[text.index("## CLI"):text.index("\n## ", text.index("## CLI") + 1)]


def test_readme_cli_examples_run(tmp_path, monkeypatch):
    block = _readme_cli_section().split("```")[1]
    lines = [line.split("#")[0].split() for line in block.splitlines()
             if line.startswith("cutbounds ")]
    assert lines
    monkeypatch.chdir(tmp_path)
    (tmp_path / "graph.txt").write_text(cb.save_graph(cb.petersen()))
    for argv in lines:
        assert run_cli(argv[1:])[0] == 0, " ".join(argv)


def test_readme_cli_bullets_name_every_option():
    bullets = re.findall(r"^- `(\w+)[^`]*`:(.*?)(?=^- |^$)", _readme_cli_section(),
                         re.M | re.S)
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(name for name, _ in bullets) == sorted(sub.choices)
    for name, text in bullets:
        accepted = {flag for a in sub.choices[name]._actions for flag in a.option_strings
                    if flag.startswith("--")} - {"--input", "--generate", "--help"}
        assert set(re.findall(r"--[a-z][a-z-]*", text)) == accepted, name
