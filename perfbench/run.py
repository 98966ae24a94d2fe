"""optsl2 benchmark: one workload, one caller, one pass at a time.

    python3 perfbench/run.py --workload enum-fp --seed 7 --seconds 30 --trace 0

Run from the root of an optsl2 checkout; the package is imported from
its `src/` directory.  Passes run back to back (a closed loop with one
caller), each in a fresh interpreter (pass_child.py), at least
MIN_PASSES of them and more while the next would end within --seconds.
Every record is checked; the last line of standard output is a JSON
object with `correct`, `attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics: wall_s (median pass time),
instances_per_s, record_p90_ms (90th percentile of the record times,
each record timed as its median across the passes), peak_rss_mb (median over the pass processes) and setup_s
(median over fresh interpreters importing optsl2).  --trace 1 runs
untraced and traced passes in turn, twice, and reports the per-layer
metrics of perfbench/tracer.py, writing the traced spans to
perfbench/out/.

Exit status: 0 every check held, 1 a check failed (the JSON line is
still printed), 2 usage error or no optsl2 source in this checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

import workloads
from pass_child import ROOT, SRC, SetupError, from_src
from tracer import Tracer

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(BENCH_DIR, "pass_child.py")
OUT_DIR = os.path.join(BENCH_DIR, "out")
EXPECTED = os.path.join(BENCH_DIR, "expected.json")

MIN_PASSES = 3      # so a record's time is a median, not a mean
SETUP_PROBES = 3    # before the first pass and after each pass
PASS_TIMEOUT = 150  # seconds; a pass takes about 12 at most

# a fresh interpreter until import, CLI parser and fields are ready;
# stdout is the elapsed seconds and the file optsl2 was imported from
SETUP_PROBE = """\
import contextlib, io, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import optsl2
from optsl2 import cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        cli.main(["--help"])
    except SystemExit:
        pass
fields = [optsl2.Fp(p) for p in (2, 3, 5, 7)] + [optsl2.QQ]
elapsed = time.perf_counter() - t0
print(elapsed, optsl2.__file__)
"""


def measure_setup(probes: int = SETUP_PROBES) -> list:
    """Seconds to a ready optsl2, each in a fresh interpreter."""
    times = []
    for _ in range(probes):
        proc = subprocess.run([sys.executable, "-I", "-c", SETUP_PROBE, SRC],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT)
        fields = proc.stdout.split()
        if proc.returncode != 0 or len(fields) != 2 or not from_src(fields[1]):
            raise SetupError("setup probe failed: %s" % proc.stderr.strip())
        times.append(float(fields[0]))
    return times


def pass_result(r: dict):
    """(wall s, rss MB, outcomes, layers) from pass_child's result."""
    return (r["wall_s"], r["rss_mb"],
            [workloads.Outcome(*o) for o in r["outcomes"]], r["layers"])


def cold_pass(workload: str, seed: int, spans_path: str | None = None):
    """One pass in a fresh interpreter, as pass_result gives it.  A pass
    process that fails is one failed outcome."""
    cmd = [sys.executable, "-I", CHILD, workload, str(seed)]
    if spans_path is not None:
        cmd.append(spans_path)
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT)
        if proc.returncode == 0:
            return pass_result(json.loads(proc.stdout.splitlines()[-1]))
        error = proc.stderr.strip().splitlines()[-1:]
    except subprocess.TimeoutExpired:
        error = ["no result after %d s" % PASS_TIMEOUT]
    failure = workloads.Outcome({"workload": workload, "error": error},
                                False, 0.0)
    return time.perf_counter() - t0, 0.0, [failure], None


def verdict_sha(outcomes) -> str:
    blob = json.dumps([o.payload for o in outcomes], sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload: str, seed: int, seconds: float):
    """At least MIN_PASSES passes, more while the next would end within
    `seconds`; the metrics, every pass's outcomes and notes."""
    start = time.perf_counter()
    measure_setup(1)  # writes the bytecode caches; not counted
    setup = measure_setup()
    passes = []
    while len(passes) < MIN_PASSES or (
            time.perf_counter() - start
            + statistics.median(p[0] for p in passes) <= seconds):
        passes.append(cold_pass(workload, seed))
        # spread over the run, so set-up samples see the same load drift
        setup += measure_setup()
    walls = [p[0] for p in passes]
    # every pass checks the same records; a record's time is its median
    # over the passes, so a load burst in one pass does not set it
    records = [statistics.median(ts) for ts in
               zip(*([o.seconds for o in p[2]] for p in passes))]
    metrics = {
        "wall_s": metric(statistics.median(walls), "s"),
        "instances_per_s": metric(
            statistics.median(len(p[2]) / p[0] for p in passes), "1/s"),
        "record_p90_ms": metric(
            statistics.quantiles(records, n=10)[-1] * 1000, "ms"),
        "peak_rss_mb": metric(statistics.median(p[1] for p in passes), "MB"),
        "setup_s": metric(statistics.median(setup), "s"),
    }
    notes = ["passes: %d, %s s" % (len(walls),
                                   " ".join("%.3f" % w for w in walls)),
             "record_p90_ms over %d records" % len(records),
             "peak_rss_mb per pass: %s" % " ".join("%.1f" % p[1]
                                                    for p in passes),
             "setup_s over %d fresh interpreters: %s" % (
                 len(setup), " ".join("%.4f" % s for s in setup))]
    return metrics, [p[2] for p in passes], notes


def traced(workload: str, seed: int):
    """Untraced and traced passes in turn, twice, so load drift hits
    both sides of trace.overhead_share; the per-layer metrics and spans
    come from the last traced pass."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "spans-%s-seed%d.jsonl" % (workload, seed))
    walls = {False: [], True: []}
    passes = []
    for tracing in (False, True, False, True):
        wall, _, outs, layers = cold_pass(workload, seed,
                                          path if tracing else None)
        walls[tracing].append(wall)
        passes.append(outs)
    metrics = layers or Tracer().metrics()
    metrics["trace.overhead_share"] = metric(
        sum(walls[True]) / sum(walls[False]) - 1, "share")
    notes = ["untraced passes %s s, traced passes %s s" % tuple(
                 " ".join("%.3f" % w for w in walls[t]) for t in (False, True)),
             "spans written to %s" % os.path.relpath(path, ROOT)]
    return metrics, passes, notes


def expectation_problems(workload: str, seed: int, outcomes) -> list:
    """Differences from perfbench/expected.json: the record count of a
    pass (every seed) and the verdict digest (the seeds stored there)."""
    with open(EXPECTED) as fh:
        want = json.load(fh)[workload]
    problems = []
    if len(outcomes) != want["records"]:
        problems.append("%d records, expected %d"
                        % (len(outcomes), want["records"]))
    sha = want["verdict_sha"].get(str(seed))
    if sha is not None and verdict_sha(outcomes) != sha:
        problems.append("verdict_sha differs from the stored %s for seed %d"
                        % (sha, seed))
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        if args.trace:
            measure_setup(1)  # fails fast without an optsl2 source
            metrics, passes, notes = traced(args.workload, args.seed)
        else:
            metrics, passes, notes = end_to_end(args.workload, args.seed,
                                                args.seconds)
    except SetupError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2

    outcomes = [o for outs in passes for o in outs]
    failed = sum(not o.ok for o in outcomes)
    shas = [verdict_sha(outs) for outs in passes]
    problems = expectation_problems(args.workload, args.seed, passes[0])
    if len(set(shas)) != 1:
        problems.append("verdict_sha differs between passes")
    correct = failed == 0 and not problems

    print("workload %s, seed %d, trace %d" % (args.workload, args.seed,
                                              args.trace))
    for note in notes:
        print("  " + note)
    for name, m in metrics.items():
        print("  %-40s %14.6g %s" % (name, m["value"], m["unit"]))
    print("  fail_share %.6g (%d of %d)" % (failed / len(outcomes), failed,
                                            len(outcomes)))
    print("  verdict_sha %s (%s across %d passes)" % (
        shas[0], "identical" if len(set(shas)) == 1 else "DIFFERENT",
        len(shas)))
    for problem in problems:
        print("  WRONG " + problem)
    for o in outcomes:
        if not o.ok:
            print("  FAILED %s" % json.dumps(o.payload, sort_keys=True))
            break
    print(json.dumps({"correct": correct, "attempted": len(outcomes),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
