"""One pass of a workload in a fresh process: ``python3 child.py SPEC OUT``.

SPEC is a JSON file written by run.py with the checkout's ``src``
directory, the input files, the CLI argv of every command, and whether to
trace.  The child times the set-up (importing ``cutbounds`` and loading
every input), then, unless the spec says ``setup_only``, runs the commands
one after another through ``cutbounds.cli.main`` and writes each one's
exit code, output and time, the pass's wall time, its peak memory and,
when traced, the per-layer metrics to OUT as JSON.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter


def main(spec_path: str, out_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))

    t0 = perf_counter()
    import cutbounds
    from cutbounds import cli
    from cutbounds.graph import load_graph
    for path in spec["inputs"]:
        load_graph(Path(path).read_text(encoding="utf-8"))
    setup_s = perf_counter() - t0
    if Path(cutbounds.__file__).resolve().parent != src / "cutbounds":
        print(f"imported cutbounds from {cutbounds.__file__}, not {src}", file=sys.stderr)
        return 2
    result = {"setup_s": setup_s}
    if not spec["setup_only"]:
        result.update(run_pass(cutbounds, cli, spec))
    Path(out_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


def run_pass(package, cli, spec: dict) -> dict:
    tracer = None
    if spec["trace"]:
        import layers
        from tracer import Tracer

        tracer = Tracer(layers.ANNOTATORS)
        layers.install(tracer, package)
    commands = []
    t_pass = perf_counter()
    for i, argv in enumerate(spec["commands"]):
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.instance = i
        t = perf_counter()
        try:
            with contextlib.redirect_stderr(err):
                code = cli.main(argv, out=out)
        except Exception:
            code = None
            err.write(traceback.format_exc())
        commands.append({"seconds": perf_counter() - t, "exit": code,
                         "stdout": out.getvalue(), "stderr": err.getvalue()})
    wall_s = perf_counter() - t_pass
    result = {"wall_s": wall_s, "commands": commands,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = layers.layer_metrics(
            tracer.spans, tuple(spec["growth_pair"]) if spec["growth_pair"] else None)
        Path(spec["spans_out"]).write_text(
            "\n".join(json.dumps(s) for s in tracer.spans) + "\n", encoding="utf-8")
    return result


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
