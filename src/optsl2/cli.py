"""Command line driver.

Subcommands: verify (run a verification suite over a grid),
orbit-table (per-partition invariants for one n and p), tilt (tilting
certificate for an adjoint module), optimal (build / conjugacy / gcr
for one instance), springer (apply and invert one coefficient family).

Each subcommand takes only the shared options it reads: --format
everywhere, --seed where something is drawn (verify, optimal build,
optimal conjugacy), --budget where something is enumerated (verify,
optimal conjugacy, optimal gcr).

JSON output is byte-reproducible for a fixed seed and grid; wall-clock
timings are only included with --timings (JSON) and are always shown
in text mode.  A walk past --budget makes a skipped record.  Exit
status: 0 clean or skipped, 1 falsified claim or inconsistency, 2 usage.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .errors import (DomainError, InconsistencyError, OptSL2Error,
                     PreconditionError)
from .jordan import nilpotent_partition
from .literals import mat_to_literal, scalar_to_literal
from .matrices import DEFAULT_BUDGET, Mat
from .orbits import orbit_summary, rep_from_partition
from .partitions import admissible, check_partition, partitions_of
from .scalars import Fp, QQ, parse_rational
from .sl2 import build_optimal, verify_optimal
from .springer import SpringerCoeffs, springer_apply, springer_invert
from .suites import DEFAULT_SEED, SUITE_NAMES, run_suite
from .tilting import adjoint_descriptor, tilting_decompose

SCHEMA = 1


def _parse_ints(text: str, what: str):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise DomainError("%s must be a comma-separated integer list, "
                          "got %r" % (what, text))


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def _fmt_instance(instance: dict) -> str:
    return " ".join("%s=%s" % (k, instance[k]) for k in sorted(instance))


def _fmt_mat(M: Mat) -> str:
    cells = [[str(scalar_to_literal(M.domain, M[i, j]))
              for j in range(M.cols)] for i in range(M.rows)]
    width = max((len(c) for row in cells for c in row), default=1)
    return "\n".join("  [" + " ".join(c.rjust(width) for c in row) + "]"
                     for row in cells)


def _fmt_record(r: dict) -> str:
    """One text line per record, plus the witness of one that is not
    verified: what falsified it, or why it was skipped."""
    status = {True: "ok  ", False: "FAIL", None: "skip"}[r["verified"]]
    line = "%s %s  %s" % (status, r["claim"], _fmt_instance(r["instance"]))
    if r.get("runtime") is not None:
        line += "  (%.3fs)" % r["runtime"]
    if r["verified"] is not True:
        line += "\n     witness: %s" % r["witness"]
    return line


def _suite_records(suite, **grid) -> list:
    """The records of one run_suite call, without their runtimes."""
    report = run_suite(suite, **grid)
    return [{k: v for k, v in r._asdict().items() if k != "runtime"}
            for r in report.records]


# -- verify -------------------------------------------------------------

def _cmd_verify(args) -> int:
    report = run_suite(args.suite, n_max=args.n_max, primes=args.primes,
                       seed=args.seed, budget=args.budget,
                       timings=args.timings or args.format == "text")
    summary = report.summary
    records = [r._asdict() for r in report.records]
    if args.format == "json":
        obj = {
            "schema": SCHEMA,
            "suite": report.suite,
            "grid": report.grid,
            "seed": report.seed,
            "records": records,
            "summary": summary,
            "metadata": report.metadata,
        }
        print(_dump(obj))
    else:
        print("suite: %s" % report.suite)
        print("grid: %s" % _fmt_instance(report.grid))
        print("seed: %d" % report.seed)
        for r in records:
            print(_fmt_record(r))
        print("summary: %(instances)d instances, %(verified)d verified, "
              "%(falsified)d falsified, %(skipped)d skipped" % summary)
        print("note: %s" % report.metadata["closure_note"])
    if report.falsified:
        first = report.falsified[0]
        primes = ",".join(str(p) for p in report.grid["primes"])
        repro = "repro: optsl2 verify %s --primes %s --seed %d" % (
            report.suite, primes, report.seed)
        if "n_max" in report.grid:
            repro += " --n-max %d" % report.grid["n_max"]
        if args.budget != DEFAULT_BUDGET:
            repro += " --budget %d" % args.budget
        print(repro, file=sys.stderr)
        print("first falsified instance: %s" % _fmt_instance(first.instance),
              file=sys.stderr)
        return 1
    return 0


# -- orbit-table --------------------------------------------------------

def _cmd_orbit_table(args) -> int:
    if args.n > 12:
        raise PreconditionError("orbit tables are limited to n <= 12")
    Fp(args.p)
    if args.n < 1:
        raise DomainError("--n must be at least 1, got %d" % args.n)
    rows = [orbit_summary(args.p, lam) for lam in partitions_of(args.n)]
    if args.format == "json":
        print(_dump({"schema": SCHEMA, "n": args.n, "p": args.p,
                     "rows": rows}))
        return 0
    header = ("partition", "dim_c", "psi_weights", "max_w", "order",
              "X^[p]=0", "dist", "parabolic")
    table = [header]
    for r in rows:
        table.append((
            str(tuple(r["partition"])),
            str(r["dim_c"]),
            str(tuple(r["psi_weights"])),
            str(r["max_ad_weight"]),
            str(r["unip_order"]),
            "yes" if r["x_p_zero"] else "no",
            "yes" if r["distinguished"] else "no",
            str(tuple(r["parabolic_block_type"])),
        ))
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    for row in table:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return 0


# -- tilt ---------------------------------------------------------------

def _cmd_tilt(args) -> int:
    lam = _parse_ints(args.partition, "--partition")
    desc = adjoint_descriptor(lam, args.p)
    certified = True
    reason = None
    dec = None
    try:
        dec = tilting_decompose(desc, args.p)
    except (PreconditionError, InconsistencyError) as exc:
        certified = False
        reason = str(exc)
    obj = {
        "schema": SCHEMA,
        "partition": list(lam),
        "p": args.p,
        "character": {str(w): desc.character.mult(w)
                      for w in desc.character.support},
        "fix_p": desc.fix_p,
        "fix_0": desc.fix_0,
        "decomposition": None if dec is None else {
            "summands": dec.summands(),
            "r": {str(d): m for d, m in sorted(dec.r.items())},
            "v": {str(d): m for d, m in sorted(dec.v.items())},
        },
        "certified": certified,
        "reason": reason,
    }
    if args.format == "json":
        print(_dump(obj))
    else:
        print("partition: %s   p: %d" % (tuple(lam), args.p))
        print("character: " + "  ".join(
            "%d:%d" % (w, desc.character.mult(w))
            for w in desc.character.support))
        print("fixed points: char p -> %d, char 0 -> %d"
              % (desc.fix_p, desc.fix_0))
        if dec is not None:
            print("decomposition: %s" % (dec,))
        else:
            print("decomposition: none (%s)" % reason)
        print("certified tilting: %s" % ("yes" if certified else "no"))
    return 0 if certified else 1


# -- optimal ------------------------------------------------------------

def _cmd_optimal_build(args) -> int:
    lam = _parse_ints(args.partition, "--partition")
    dom = Fp(args.p)
    X = rep_from_partition(dom, lam)
    phi = build_optimal(X)
    report = verify_optimal(phi, X, random.Random(args.seed))
    psi = phi.psi
    obj = {
        "schema": SCHEMA,
        "claim": "optimal-homomorphism-for-partition",
        "instance": {"partition": list(lam), "p": args.p},
        "witness": {
            "torus_weights": list(psi.weights),
            "dx_matches": report.dx_matches,
            "triple_brackets": report.triple_brackets,
            "torus_associated": report.torus_associated,
            "exp_aligned": report.exp_aligned,
            "multiplicative": report.multiplicative,
        },
        "verified": report.all_passed,
    }
    if args.format == "json":
        print(_dump(obj))
    else:
        print("optimal homomorphism for partition %s over F_%d"
              % (tuple(lam), args.p))
        print("torus weights: %s" % (tuple(psi.weights),))
        for key in ("dx_matches", "triple_brackets", "torus_associated",
                    "exp_aligned", "multiplicative"):
            print("  %-17s %s" % (key, obj["witness"][key]))
        print("verified: %s" % report.all_passed)
    return 0 if report.all_passed else 1


def _cmd_optimal_conjugacy(args) -> int:
    """The conjugacy suite's check, one twist, for every admissible
    partition of n."""
    if args.n < 1:
        raise DomainError("--n must be at least 1, got %d" % args.n)
    records = _suite_records("conjugacy", n_max=args.n, primes=(args.p,),
                             seed=args.seed, budget=args.budget, twists=1,
                             only=lambda i: sum(i["partition"]) == args.n)
    ok = all(r["verified"] is not False for r in records)
    if args.format == "json":
        print(_dump({"schema": SCHEMA, "n": args.n, "p": args.p,
                     "seed": args.seed, "records": records}))
    else:
        for r in records:
            print(_fmt_record(r))
    return 0 if ok else 1


def _cmd_optimal_gcr(args) -> int:
    lam = check_partition(_parse_ints(args.partition, "--partition"))
    if not admissible(lam, args.p):
        raise PreconditionError("largest part %d exceeds p = %d, no optimal "
                                "homomorphism" % (lam[0], args.p))
    instance = {"partition": list(lam), "p": args.p}
    [obj] = _suite_records("gcr", n_max=sum(lam), primes=(args.p,),
                           budget=args.budget, only=lambda i: i == instance)
    witness = obj["witness"]
    if args.format == "json":
        print(_dump(dict(obj, schema=SCHEMA)))
    else:
        print("natural module under the optimal image, partition %s, F_%d"
              % (tuple(lam), args.p))
        if "subspaces" in witness:
            print("  subspaces checked: %d (invariant: %d)"
                  % (witness["subspaces"], witness["invariant"]))
        else:  # the error, or the budget, that stopped the check
            print("  %s: %s" % next(iter(witness.items())))
        print("semisimple: %s" % obj["verified"])
    return 0 if obj["verified"] is not False else 1


# -- springer -----------------------------------------------------------

def _cmd_springer(args) -> int:
    if args.q:
        dom = QQ
        a = [parse_rational(x) for x in args.a.split(",")] if args.a else []
    else:
        dom = Fp(args.p)
        a = _parse_ints(args.a, "--a") if args.a else []
    lam = _parse_ints(args.partition, "--partition")
    n = sum(lam)
    if len(a) != max(0, n - 1):
        raise DomainError("need %d coefficients for n = %d, got %d"
                          % (max(0, n - 1), n, len(a)))
    coeffs = SpringerCoeffs(dom, a)
    X = rep_from_partition(dom, lam)
    u = Mat.identity(dom, n) + X
    fu = springer_apply(coeffs, u)
    back = springer_invert(coeffs, fu)
    preserved = nilpotent_partition(fu) == lam
    verified = back == u and preserved
    obj = {
        "schema": SCHEMA,
        "claim": "springer-apply-invert",
        "instance": {"partition": list(lam),
                     "domain": "Q" if args.q else "F_%d" % args.p,
                     "a": [scalar_to_literal(dom, c) for c in coeffs.a]},
        "witness": {"u": mat_to_literal(u), "f_u": mat_to_literal(fu),
                    "roundtrip": back == u,
                    "partition_preserved": preserved},
        "verified": verified,
    }
    if args.format == "json":
        print(_dump(obj))
    else:
        print("f(1 + e) = %s applied to the partition-%s unipotent"
              % (" + ".join("%s e^%d" % (scalar_to_literal(dom, c), i + 1)
                            for i, c in enumerate(coeffs.a)) or "0",
                 tuple(lam)))
        print("u =")
        print(_fmt_mat(u))
        print("f(u) =")
        print(_fmt_mat(fu))
        print("round trip: %s   partition preserved: %s"
              % (back == u, preserved))
    return 0 if verified else 1


# -- wiring -------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("text", "json"), default="text",
                     help="output format")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=DEFAULT_SEED,
                      help="seed for all randomized checks")
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                        help="candidates one brute-force walk may visit")

    parser = argparse.ArgumentParser(
        prog="optsl2",
        description="exact computations with nilpotent orbits and "
                    "optimal SL2-homomorphisms in type A")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", parents=[fmt, seed, budget],
                              help="run a verification suite")
    p_verify.add_argument("suite", choices=SUITE_NAMES)
    p_verify.add_argument("--n-max", type=int, default=None, dest="n_max")
    p_verify.add_argument("--primes", type=lambda s: _parse_ints(s, "--primes"),
                          default=None)
    p_verify.add_argument("--timings", action="store_true",
                          help="include wall-clock times in JSON output "
                               "(breaks byte-reproducibility)")
    p_verify.set_defaults(func=_cmd_verify)

    p_table = sub.add_parser("orbit-table", parents=[fmt],
                             help="per-partition invariants for one n, p")
    p_table.add_argument("--n", type=int, required=True)
    p_table.add_argument("--p", type=int, required=True)
    p_table.set_defaults(func=_cmd_orbit_table)

    p_tilt = sub.add_parser("tilt", parents=[fmt],
                            help="tilting certificate for an adjoint module")
    p_tilt.add_argument("--partition", required=True)
    p_tilt.add_argument("--p", type=int, required=True)
    p_tilt.set_defaults(func=_cmd_tilt)

    p_opt = sub.add_parser("optimal", help="single-instance reports")
    opt_sub = p_opt.add_subparsers(dest="subcommand", required=True)
    p_build = opt_sub.add_parser("build", parents=[fmt, seed])
    p_build.add_argument("--partition", required=True)
    p_build.add_argument("--p", type=int, required=True)
    p_build.set_defaults(func=_cmd_optimal_build)
    p_conj = opt_sub.add_parser("conjugacy", parents=[fmt, seed, budget])
    p_conj.add_argument("--n", type=int, required=True)
    p_conj.add_argument("--p", type=int, required=True)
    p_conj.set_defaults(func=_cmd_optimal_conjugacy)
    p_gcr = opt_sub.add_parser("gcr", parents=[fmt, budget])
    p_gcr.add_argument("--partition", required=True)
    p_gcr.add_argument("--p", type=int, required=True)
    p_gcr.set_defaults(func=_cmd_optimal_gcr)

    p_spr = sub.add_parser("springer", parents=[fmt],
                           help="apply one coefficient family")
    p_spr.add_argument("--partition", required=True)
    field = p_spr.add_mutually_exclusive_group(required=True)
    field.add_argument("--p", type=int, help="work over F_p")
    field.add_argument("--q", action="store_true",
                       help="work over the rationals")
    p_spr.add_argument("--a", default="",
                       help="comma-separated coefficients a1,...,a_{n-1}")
    p_spr.set_defaults(func=_cmd_springer)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, PreconditionError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except InconsistencyError as exc:
        print("inconsistency: %s" % exc, file=sys.stderr)
        return 1
    except OptSL2Error as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
