"""One pass of a workload in a fresh interpreter.

    python3 -I perfbench/pass_child.py <workload> <seed> [spans.jsonl]

run.py starts one of these for every pass, so nothing a pass leaves in
the process (a module-level cache, a filled table) speeds up the next
one: each pass pays what a fresh `optsl2 verify` pays.  With a spans
path the pass runs traced and the spans are written there.  The last
line of standard output is one JSON object: wall_s (the pass alone,
without start-up and input generation), rss_mb (peak resident memory of
this process), outcomes ([payload, ok, seconds] per record) and layers
(the per-layer metrics of a traced pass, else null).
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

sys.path.insert(0, BENCH_DIR)  # -I leaves the script's directory out

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


class SetupError(Exception):
    """optsl2 cannot be imported from this checkout."""


def from_src(path: str) -> bool:
    return os.path.abspath(path).startswith(SRC + os.sep)


def import_optsl2():
    if not os.path.isfile(os.path.join(SRC, "optsl2", "__init__.py")):
        raise SetupError("no optsl2 source under %s" % SRC)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import optsl2
    if not from_src(optsl2.__file__):
        raise SetupError("optsl2 imported from %s, not from %s"
                         % (optsl2.__file__, SRC))
    return optsl2


def one_pass(workload: str, seed: int, spans_path: str | None = None):
    import_optsl2()
    run_pass = workloads.make_pass(workload, seed)
    layers = None
    if spans_path is None:
        t0 = time.perf_counter()
        outcomes = run_pass()
        wall = time.perf_counter() - t0
    else:
        with Tracer() as tracer:
            tracer.wrap_attr(workloads, "cli_request", "request")
            tracer.wrap_attr(workloads, "qq_request", "request")
            t0 = time.perf_counter()
            outcomes = run_pass()
            wall = time.perf_counter() - t0
        layers = tracer.metrics()
        tracer.write_spans(spans_path)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"wall_s": wall, "rss_mb": rss_mb,
            "outcomes": [[o.payload, o.ok, o.seconds] for o in outcomes],
            "layers": layers}


if __name__ == "__main__":
    args = sys.argv[1:]
    result = one_pass(args[0], int(args[1]), args[2] if len(args) > 2 else None)
    print(json.dumps(result))
