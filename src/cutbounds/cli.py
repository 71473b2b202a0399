"""Command-line front end: run bound suites, exact oracles, soundness
sweeps, generators, and the conjecture lab.

Exit codes: 0 success, 1 verification failure, 2 bad input, 3 internal
assertion failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from typing import Callable, Optional

from . import bounds as bnd
from . import generators, oracle, subcubic
from .bounds import BoundReport, ClaimViolationError, per_component
from .coloring import matching_vizing_bound, vizing_classes_bound
from .cuts import NotBipartiteError, NotInducedError
from .graph import GraphError, PreconditionError, WeightedGraph, load_graph, save_graph

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3

# Smallest --max-n every kind of random verify instance can be drawn at.
RANDOM_VERIFY_MIN_N = 4
SHEARER_TRIALS = "shearer's trial count, read at max degree >= 17"


def _bound_suite(g: WeightedGraph, seed: int, trials: int):
    """Ordered (name, runner) pairs.  The tree rows sum over the components
    of one spanning forest themselves; ``eight_elevenths`` is lifted per
    component."""
    return [
        ("poljak_turzik", lambda: bnd.poljak_turzik(g)),
        ("dfs_tree", lambda: bnd.dfs_bound(g)),
        ("matching", lambda: bnd.matching_bound(g)),
        ("girth_layers", lambda: bnd.girth_bound(g)),
        ("triangle_free_tree", lambda: bnd.triangle_free_tree_bound(g)),
        ("edge_rooted_tree", lambda: bnd.edge_rooted_tree_bound(g)),
        ("matching_vizing", lambda: matching_vizing_bound(g, bnd.best_matching(g))),
        ("vizing_classes", lambda: vizing_classes_bound(g)),
        ("two_thirds", lambda: subcubic.two_thirds_bound(g)),
        ("eight_elevenths", lambda: per_component(g, subcubic.eight_elevenths_bound,
                                                  "eight_elevenths")),
        ("tree_percolation", lambda: subcubic.tree_percolation_bound(g)),
        ("combined_tree", lambda: subcubic.combined_tree_bound(g)),
        ("shearer", lambda: subcubic.shearer_bound(g, trials=trials, seed=seed)),
    ]


def _run_bound(name: str, runner: Callable[[], BoundReport]) -> BoundReport | str:
    """The bound's report, or the reason it does not apply to the graph.

    Any other ``ValueError``, and a certificate that fails its check, is a
    fault of the bound, not of the input, so it becomes an internal error
    that names the bound.
    """
    try:
        return runner()
    except PreconditionError as exc:
        return str(exc)
    except (ValueError, NotInducedError, NotBipartiteError) as exc:
        raise AssertionError(f"bound {name} failed: {exc}") from exc


def _load_input(args) -> WeightedGraph:
    if getattr(args, "generate", None):
        return generators.build(args.generate[0], args.generate[1:])
    if getattr(args, "input", None):
        with open(args.input, "r", encoding="utf-8") as fh:
            return load_graph(fh.read())
    raise ValueError("no input: pass --input FILE or --generate KIND PARAMS...")


def _render_reports(rows: list[dict], fmt: str, out) -> None:
    if fmt == "json-lines":
        for row in rows:
            print(json.dumps(row, sort_keys=True), file=out)
        return
    header = f"{'bound':<20} {'value':>14} {'cut_weight':>14} {'mode':<14} note"
    print(header, file=out)
    print("-" * len(header), file=out)
    for row in rows:
        if row.get("skipped"):
            print(f"{row['name']:<20} {'-':>14} {'-':>14} {'-':<14} "
                  f"inapplicable: {row['reason']}", file=out)
        else:
            print(f"{row['name']:<20} {row['bound_value']:>14.6f} "
                  f"{row['cut_weight']:>14.6f} {row['mode']:<14}", file=out)


def _report_row(rep: BoundReport) -> dict:
    return {
        "name": rep.name,
        "bound_value": rep.bound_value,
        "cut_weight": rep.cut.weight,
        "mode": rep.mode,
        "cut": rep.cut.bitstring(),
        "details": _json_safe(rep.details),
    }


def _json_safe(value):
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return str(value)


def cmd_bounds(args, out) -> int:
    g = _load_input(args)
    rows = []
    for name, runner in _bound_suite(g, args.seed, args.trials):
        rep = _run_bound(name, runner)
        rows.append({"name": name, "skipped": True, "reason": rep}
                    if isinstance(rep, str) else _report_row(rep))
    _render_reports(rows, args.format, out)
    return EXIT_OK


def _guard(args, default: int) -> int:
    """The oracle size guard: ``--max-n-override`` when given, else default."""
    return default if args.max_n_override is None else args.max_n_override


def cmd_oracle(args, out) -> int:
    g = _load_input(args)
    if args.quantity == "max-cut":
        res = oracle.exact_max_cut(g, _guard(args, oracle.MAX_CUT_GUARD))
        witness = res.witness.bitstring()
    elif args.quantity == "max-induced-bipartite":
        res = oracle.max_induced_bipartite(g, _guard(args, oracle.BIPARTITE_FAMILY_GUARD))
        witness = list(res.witness)
    elif args.quantity == "max-dfs-tree":
        res = oracle.max_dfs_tree_weight(g, _guard(args, oracle.DFS_WEIGHT_GUARD))
        witness = list(res.witness)
    elif args.quantity == "five-cycle-cover":
        res = oracle.five_cycle_cover(g, _guard(args, oracle.FIVE_CYCLE_GUARD))
        witness = (None if res.witness is None
                   else [list(g.edges[e][:2]) for e in res.witness])
    else:
        raise ValueError(f"unknown quantity {args.quantity!r}")
    row = {"quantity": res.quantity, "value": res.value, "exact": res.exact,
           "witness": _json_safe(witness)}
    if args.format == "json-lines":
        print(json.dumps(row, sort_keys=True), file=out)
    else:
        print(f"{res.quantity} = {res.value}", file=out)
        print(f"witness: {witness}", file=out)
    return EXIT_OK


def _verify_one(g: WeightedGraph, seed: int, trials: int,
                max_n: int) -> tuple[int, list[str]]:
    """Run every bound (``_report`` checks each deterministic cut); for n <=
    max_n check bound <= max cut and cut <= max cut, each exactly."""
    failures: list[str] = []
    checked = 0
    mac = oracle.exact_max_cut(g, max_n).witness.exact_weight if g.n <= max_n else None
    for name, runner in _bound_suite(g, seed, trials):
        rep = _run_bound(name, runner)
        if isinstance(rep, str):
            continue
        checked += 1
        if mac is not None:
            if rep.mode == bnd.DETERMINISTIC and rep.bound_exact > mac:
                failures.append(f"{name}: bound {rep.bound_value} exceeds max cut {float(mac)}")
            if rep.cut.exact_weight > mac:
                failures.append(f"{name}: cut {rep.cut.weight} exceeds max cut {float(mac)}")
    return checked, failures


def _random_verify_instance(index: int, seed: int, max_n: int) -> WeightedGraph:
    import random as _random
    rng = _random.Random(seed * 1_000_003 + index)
    kinds = ["cycle", "complete", "petersen", "petersen_c3", "star_counterexample",
             "gadget_k33_subdivided", "random_triangle_free_subcubic"]
    kind = kinds[index % len(kinds)]
    if kind == "cycle":
        return generators.cycle(rng.randint(3, max_n), float(rng.randint(1, 9)))
    if kind == "complete":
        return generators.complete(rng.randint(2, min(8, max_n)), float(rng.randint(1, 5)))
    if kind == "petersen":
        return generators.petersen(float(rng.randint(1, 9)))
    if kind == "petersen_c3":
        return generators.petersen_c3(float(rng.randint(2, 12)), float(rng.randint(1, 3)))
    if kind == "star_counterexample":
        return generators.star_counterexample(float(rng.randint(1, 4)),
                                              rng.randint(3, min(9, max_n) - 1))
    if kind == "gadget_k33_subdivided":
        return generators.gadget_k33_subdivided(float(rng.randint(1, 9)))
    return generators.random_triangle_free_subcubic(
        rng.randint(4, max_n), seed=rng.randint(0, 10 ** 6), weight_dist="int")


def cmd_verify(args, out) -> int:
    instances: list[tuple[str, WeightedGraph]] = []
    if args.max_n > oracle.MAX_CUT_GUARD:
        raise oracle.SizeGuardError(f"--max-n {args.max_n} is past the max cut guard "
                                    f"n <= {oracle.MAX_CUT_GUARD}")
    if args.random:
        if args.max_n < RANDOM_VERIFY_MIN_N:
            raise ValueError(f"--max-n must be at least {RANDOM_VERIFY_MIN_N} with --random, "
                             f"got {args.max_n}")
        for i in range(args.random):
            g = _random_verify_instance(i, args.seed, args.max_n)
            instances.append((f"random[{i}]", g))
    else:
        instances.append(("input", _load_input(args)))
    total_failures: list[str] = []
    for label, g in instances:
        checked, failures = _verify_one(g, args.seed, args.trials, args.max_n)
        marker = "FAIL" if failures else "ok"
        print(f"{label}: n={g.n} m={g.m} checked={checked} {marker}", file=out)
        for f in failures:
            print(f"  {f}", file=out)
        total_failures.extend(failures)
    print(f"verify: {len(instances)} instance(s), "
          f"{'all sound' if not total_failures else f'{len(total_failures)} failure(s)'}",
          file=out)
    return EXIT_OK if not total_failures else EXIT_VERIFY_FAIL


def cmd_generate(args, out) -> int:
    g = generators.build(args.kind, args.params)
    text = save_graph(g)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        out.write(text)
    return EXIT_OK


def cmd_conjecture(args, out) -> int:
    g = _load_input(args)
    rep = oracle.conjecture_report(g, max_n=_guard(args, 20))
    row = dataclasses.asdict(rep)
    if args.format == "json-lines":
        print(json.dumps(row, sort_keys=True), file=out)
    else:
        for key, value in row.items():
            print(f"{key}: {value}", file=out)
    if rep.flags:
        print("WARNING: conjecture violations flagged (potential counterexample)",
              file=out)
    return EXIT_OK


def _int_at_least(lowest: int) -> Callable[[str], int]:
    """An argparse type: an int no smaller than ``lowest``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < lowest:
            raise argparse.ArgumentTypeError(f"must be at least {lowest}, got {value}")
        return value
    return parse


def _option(flag: str, **kwargs) -> argparse.ArgumentParser:
    """A parent parser holding one option, for the subcommands that read it."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(flag, **kwargs)
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cutbounds",
        description="Certified lower bounds and explicit cuts for maximum weighted cut")
    sub = parser.add_subparsers(dest="command", required=True)

    graph_input = _option("--input", help="graph file to load")
    graph_input.add_argument("--generate", nargs="+", metavar="ARG",
                             help="generator kind followed by its parameters")
    seed = _option("--seed", type=int, default=0, help="shearer's seed, read at max degree >= 17")
    fmt = _option("--format", choices=("table", "json-lines"), default="table")
    guard = _option("--max-n-override", type=_int_at_least(0), default=None,
                    help="override oracle size guards")

    p = sub.add_parser("bounds", parents=[graph_input, seed, fmt],
                       help="run every applicable bound")
    p.add_argument("--trials", type=_int_at_least(1), default=256, help=SHEARER_TRIALS)
    # each fn looks its cmd_* up when it runs, so main's one parser follows a rebinding
    p.set_defaults(fn=lambda args, out: cmd_bounds(args, out))

    p = sub.add_parser("oracle", parents=[graph_input, fmt, guard],
                       help="exact desk-scale quantities")
    p.add_argument("quantity", choices=("max-cut", "max-induced-bipartite",
                                        "max-dfs-tree", "five-cycle-cover"))
    p.set_defaults(fn=lambda args, out: cmd_oracle(args, out))

    p = sub.add_parser("verify", parents=[graph_input, seed],
                       help="soundness sweep: cut >= bound <= max cut")
    p.add_argument("--trials", type=_int_at_least(1), default=16, help=SHEARER_TRIALS)
    p.add_argument("--random", type=_int_at_least(0), default=0,
                   help="verify this many seeded random instances")
    p.add_argument("--max-n", type=int, default=14,
                   help="max vertices for random instances / exact cross-check")
    p.set_defaults(fn=lambda args, out: cmd_verify(args, out))

    p = sub.add_parser("generate", help="write a fixture graph file")
    p.add_argument("kind", choices=generators.GENERATOR_KINDS)
    p.add_argument("params", nargs="*", help="generator parameters")
    p.add_argument("--output", help="output path (default stdout)")
    p.set_defaults(fn=lambda args, out: cmd_generate(args, out))

    p = sub.add_parser("conjecture", parents=[graph_input, fmt, guard],
                       help="per-instance conjecture evidence ratios")
    p.set_defaults(fn=lambda args, out: cmd_conjecture(args, out))

    return parser


_parser = functools.cache(build_parser)  # built on main's first call, not at import


def main(argv: Optional[list[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args, out)
    except (GraphError, OSError, ValueError, oracle.SizeGuardError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ClaimViolationError, AssertionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
