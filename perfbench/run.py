"""cutbounds benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload's inputs are built from
the seed under ``.perfbench/NAME/``; each pass runs every command of the
workload through ``cutbounds.cli.main`` in a fresh single-threaded
process (one closed-loop caller), and every output is checked without the
library's help.  Passes repeat while one more still ends within S
seconds (at least MIN_PASSES run).  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced passes and reports
the per-layer metrics, with the traced minus untraced wall time as
``trace.overhead_s``.  The last line of standard output is one JSON
object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import checks
import layers
import workloads

HERE = Path(__file__).resolve().parent
MIN_PASSES = 3
MIN_SETUPS = 11
DEADLINE_S = 170.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "item_p50_s": "s",
    "item_p95_s": "s",
    "peak_rss_mb": "MB",
    "cut_ratio": "ratio",
}

# numpy's BLAS pools stay at one thread; hashing is fixed for repeatability.
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
             "PYTHONHASHSEED": "0"}


class BenchError(Exception):
    """The benchmark itself could not run (not a failure of the program)."""


def layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last.endswith("_per_s"):
        return "1/s"
    if last.endswith("_s"):
        return "s"
    if last in ("calls", "raised", "mask_edge_ops"):
        return "count"
    return "ratio"


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Bench:
    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.src = root / "src"
        self.work = root / ".perfbench" / workload
        self.workload = workload
        self.seed = seed
        self.started = perf_counter()
        shutil.rmtree(self.work, ignore_errors=True)
        self.items = workloads.build(workload, seed, self.work / "inputs", root)
        ref = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
        self.reference = ref.get(workload, {}).get(str(seed))
        self.runs = 0

    def child(self, setup_only: bool = False, trace: bool = False) -> dict:
        self.runs += 1
        spec = {"src": str(self.src), "inputs": [it.path for it in self.items],
                "commands": [it.argv for it in self.items],
                "setup_only": setup_only, "trace": trace,
                "growth_pair": workloads.GROWTH_PAIR.get(self.workload),
                "spans_out": str(self.work / "spans.jsonl")}
        spec_path = self.work / f"spec{self.runs}.json"
        out_path = self.work / f"out{self.runs}.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        left = DEADLINE_S - (perf_counter() - self.started)
        if left <= 0:
            raise BenchError("out of time before the pass started")
        try:
            proc = subprocess.run([sys.executable, str(HERE / "child.py"),
                                   str(spec_path), str(out_path)],
                                  cwd=self.root, env={**os.environ, **CHILD_ENV},
                                  capture_output=True, text=True, timeout=left)
        except subprocess.TimeoutExpired:
            raise BenchError(f"pass did not finish within {DEADLINE_S} s") from None
        if proc.returncode != 0:
            raise BenchError(f"pass process exited {proc.returncode}: "
                             f"{proc.stderr.strip()[-2000:]}")
        result = json.loads(out_path.read_text(encoding="utf-8"))
        spec_path.unlink()
        out_path.unlink()
        return result

    def passes(self, seconds: float, trace: bool) -> tuple[list[dict], list[dict]]:
        """Untraced passes (and, with trace, a traced pass after each).

        After the minimum, a pass starts only if one more of the median
        length seen so far still ends within ``seconds``, so a run lasts
        about ``seconds`` rather than up to one pass longer.
        """
        plain, traced, lengths = [], [], []
        start = perf_counter()
        while (len(plain) < (1 if trace else MIN_PASSES)
               or perf_counter() - start + statistics.median(lengths) <= seconds):
            t = perf_counter()
            plain.append(self.child())
            if trace:
                traced.append(self.child(trace=True))
            lengths.append(perf_counter() - t)
        return plain, traced

    def check(self, passes: list[dict]) -> tuple[int, int, list[str], list[checks.Outcome]]:
        attempted = failed = 0
        problems: list[str] = []
        first: list[checks.Outcome] = []
        for p in passes:
            for i, (item, cmd) in enumerate(zip(self.items, p["commands"])):
                ref = self.reference[i] if self.reference is not None else None
                out = checks.check(item, cmd, ref)
                attempted += out.attempted
                failed += out.failed
                problems += out.problems
                if len(first) < len(self.items):
                    first.append(out)
        return attempted, failed, problems, first


def end_to_end(bench: Bench, plain: list[dict], first: list[checks.Outcome]) -> dict:
    setups = [p["setup_s"] for p in plain]
    while len(setups) < MIN_SETUPS:
        setups.append(bench.child(setup_only=True)["setup_s"])
    times = [[c["seconds"] for c in p["commands"]] for p in plain]
    cut = sum(o.cut_weight for o in first)
    total = sum(o.total_weight for o in first)
    values = {
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "setup_s": statistics.median(setups),
        "item_p50_s": statistics.median(statistics.median(t) for t in times),
        "item_p95_s": statistics.median(percentile(t, 0.95) for t in times),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        "cut_ratio": cut / total if total else 0.0,
    }
    print(f"# {len(plain)} passes of {len(bench.items)} commands, wall_s each: "
          + " ".join(f"{p['wall_s']:.4g}" for p in plain))
    print(f"# item percentiles: median over {len(plain)} passes of the percentile over "
          f"each pass's {len(bench.items)} commands; setup over {len(setups)} processes")
    return values


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    names = layers.metric_names()
    values = {n: statistics.median(t["layers"][n] for t in traced)
              for n in names if n != "trace.overhead_s"}
    values["trace.overhead_s"] = (statistics.median(t["wall_s"] for t in traced)
                                  - statistics.median(p["wall_s"] for p in plain))
    print(f"# {len(traced)} traced and {len(plain)} untraced passes")
    return {n: values[n] for n in names}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "cutbounds" / "__init__.py").is_file():
        print("perfbench: run from a checkout root: src/cutbounds is missing",
              file=sys.stderr)
        return 2
    try:
        bench = Bench(root, args.workload, args.seed)
        plain, traced = bench.passes(args.seconds, bool(args.trace))
        attempted, failed, problems, first = bench.check(plain + traced)
        if args.trace:
            values, units = per_layer(plain, traced), layer_unit
        else:
            values, units = end_to_end(bench, plain, first), END_TO_END.get
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for p in problems[:20]:
        print(f"# FAILED {p}")
    print(f"# {args.workload} seed {args.seed}: error_rate {failed}/{attempted} = "
          f"{failed / attempted:.6g} ratio; reference "
          f"{'compared' if bench.reference is not None else 'not captured for this seed'}")
    for name, value in values.items():
        print(f"# {name} = {value:.6g} {units(name)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {n: {"value": v, "unit": units(n)}
                                  for n, v in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
