"""Record what the current code reports, as the benchmark's reference.

    python3 perfbench/capture_reference.py --seeds 0-15 [--workload NAME ...]

Run from the checkout root, at the commit whose bound values, skip sets,
verify counts and oracle values later commits must reproduce.  Runs one
untraced pass per workload and seed, requires every independent check to
pass, and merges the observations into ``perfbench/reference.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import checks
import workloads
from run import HERE, Bench


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seed_range, required=True, help="e.g. 0-15")
    ap.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = ap.parse_args(argv)
    path = HERE / "reference.json"
    reference = json.loads(path.read_text(encoding="utf-8"))
    for name in args.workload or sorted(workloads.WORKLOADS):
        for seed in args.seeds:
            bench = Bench(Path.cwd(), name, seed)
            result = bench.child()
            observed = []
            for item, cmd in zip(bench.items, result["commands"]):
                out = checks.check(item, cmd)
                if out.failed:
                    print("\n".join(out.problems), file=sys.stderr)
                    return 1
                observed.append(out.observed)
            reference.setdefault(name, {})[str(seed)] = observed
            path.write_text(json.dumps(reference, sort_keys=True, separators=(",", ":"))
                            + "\n", encoding="utf-8")
            print(f"{name} seed {seed}: {result['wall_s']:.2f} s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
