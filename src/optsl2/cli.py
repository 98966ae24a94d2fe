"""Command line driver.

Subcommands: verify (run a verification suite over a grid),
orbit-table (per-partition invariants for one n and p), tilt (tilting
certificate for an adjoint module), optimal (build / conjugacy / gcr
for one instance), springer (apply and invert one coefficient family),
demo (tangent-map experiments, no assertions).

JSON output is byte-reproducible for a fixed seed and grid; wall-clock
timings are only included with --timings (JSON) and are always shown
in text mode.  Exit status: 0 clean, 1 falsified claim or internal
inconsistency, 2 usage, 3 budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .errors import (BudgetError, DomainError, InconsistencyError,
                     OptSL2Error, PreconditionError)
from .jordan import nilpotent_jordan
from .literals import mat_to_literal, scalar_to_literal
from .matrices import DEFAULT_BUDGET, Mat
from .orbits import orbit_summary, rep_from_partition
from .partitions import partitions_of
from .scalars import Fp, QQ, parse_rational
from .sl2 import (build_optimal, conjugate_hom, conjugate_optimal,
                  count_radical_conjugators, gcr_check_hom, hom_torus_cochar,
                  positive_commutant_basis, verify_optimal)
from .springer import (SpringerCoeffs, springer_apply, springer_invert,
                       springer_tangent_experiment)
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


# -- verify -------------------------------------------------------------

def _cmd_verify(args) -> int:
    report = run_suite(args.suite, n_max=args.n_max, primes=args.primes,
                       seed=args.seed, budget=args.budget,
                       timings=args.timings or args.format == "text")
    summary = report.summary
    if args.format == "json":
        obj = {
            "schema": SCHEMA,
            "suite": report.suite,
            "grid": report.grid,
            "seed": report.seed,
            "records": [{"claim": r.claim, "instance": r.instance,
                         "witness": r.witness, "verified": r.verified,
                         "runtime": r.runtime if args.timings else None}
                        for r in report.records],
            "summary": summary,
            "metadata": report.metadata,
        }
        print(_dump(obj))
    else:
        print("suite: %s" % report.suite)
        print("grid: %s" % _fmt_instance(report.grid))
        print("seed: %d" % report.seed)
        for r in report.records:
            status = {True: "ok  ", False: "FAIL", None: "skip"}[r.verified]
            line = "%s %s  %s" % (status, r.claim, _fmt_instance(r.instance))
            if r.runtime is not None:
                line += "  (%.3fs)" % r.runtime
            print(line)
            if r.verified is False:
                print("     witness: %s" % r.witness)
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
            print("decomposition: %s" % dec)
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
    report = verify_optimal(phi, X)
    psi = hom_torus_cochar(phi)
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
    dom = Fp(args.p)
    records = []
    for lam in partitions_of(args.n):
        if lam[0] > args.p:
            continue
        X = rep_from_partition(dom, lam)
        phi1 = build_optimal(X)
        basis = positive_commutant_basis(X, hom_torus_cochar(phi1))
        instance = {"partition": list(lam), "p": args.p}
        if args.p ** len(basis) > args.budget:
            records.append({"claim": "radical-conjugator-unique",
                            "instance": instance,
                            "witness": {"radical_size":
                                        "%d^%d" % (args.p, len(basis))},
                            "verified": None})
            continue
        rnd = random.Random("%d|cli-conjugacy|%d|%s"
                            % (args.seed, args.p, lam))
        n = X.rows
        N = Mat.zero(dom, n)
        for B in basis:
            N = N + B.scale(rnd.randrange(args.p))
        twist = Mat.identity(dom, n) + N
        phi2 = conjugate_hom(phi1, twist)
        recovered = conjugate_optimal(phi1, phi2)
        matches = count_radical_conjugators(phi1, phi2, basis)
        verified = recovered == twist and matches == 1
        records.append({"claim": "radical-conjugator-unique",
                        "instance": instance,
                        "witness": {"recovered_equals_twist":
                                    recovered == twist,
                                    "radical_conjugators": matches},
                        "verified": verified})
    ok = all(r["verified"] is not False for r in records)
    if args.format == "json":
        print(_dump({"schema": SCHEMA, "n": args.n, "p": args.p,
                     "seed": args.seed, "records": records}))
    else:
        for r in records:
            status = {True: "ok  ", False: "FAIL", None: "skip"}[r["verified"]]
            print("%s %s  %s" % (status, r["claim"],
                                 _fmt_instance(r["instance"])))
    return 0 if ok else 1


def _cmd_optimal_gcr(args) -> int:
    lam = _parse_ints(args.partition, "--partition")
    phi = build_optimal(rep_from_partition(Fp(args.p), lam))
    rep = gcr_check_hom(phi, budget=args.budget)
    obj = {
        "schema": SCHEMA,
        "claim": "optimal-image-semisimple",
        "instance": {"partition": list(lam), "p": args.p},
        "witness": {"subspaces": rep.n_subspaces,
                    "invariant": rep.n_invariant},
        "verified": rep.semisimple,
    }
    if args.format == "json":
        print(_dump(obj))
    else:
        print("natural module under the optimal image, partition %s, F_%d"
              % (tuple(lam), args.p))
        print("  subspaces checked: %d (invariant: %d)"
              % (rep.n_subspaces, rep.n_invariant))
        print("semisimple: %s" % rep.semisimple)
    return 0 if rep.semisimple else 1


# -- springer -----------------------------------------------------------

def _cmd_springer(args) -> int:
    if args.q:
        dom = QQ
        a = [parse_rational(x) for x in args.a.split(",")] if args.a else []
    else:
        if args.p is None:
            raise DomainError("springer needs --p or --q")
        dom = Fp(args.p)
        a = [int(x) for x in args.a.split(",")] if args.a else []
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
    preserved = nilpotent_jordan(fu).partition == lam
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


# -- demo ---------------------------------------------------------------

def _demo_grid(seed):
    """Deterministic list of coefficient systems for the tangent-map
    experiment: small n over Q and F_5, seeded coefficient draws."""
    grid = []
    for a1 in (1, 2, 3):
        grid.append((QQ, [a1]))
    for a1 in (1, 2):
        grid.append((Fp(5), [a1]))
    rnd = random.Random("%d|demo" % seed)
    for _ in range(5):
        grid.append((QQ, [rnd.choice([1, 2, 3, -1]),
                          rnd.randint(-2, 2)]))
    grid.append((Fp(5), [1, 1]))
    for _ in range(3):
        grid.append((Fp(5), [rnd.randrange(1, 5), rnd.randrange(5),
                             rnd.randrange(5)]))
    for _ in range(2):
        grid.append((QQ, [rnd.choice([1, 2]), rnd.randint(-2, 2),
                          rnd.randint(-2, 2)]))
    return grid


def _cmd_demo(args) -> int:
    records = []
    for dom, a in _demo_grid(args.seed):
        rep = springer_tangent_experiment(SpringerCoeffs(dom, a))
        records.append({
            "n": rep.n,
            "domain": "Q" if dom is QQ else "F_%d" % dom.p,
            "a": [scalar_to_literal(dom, dom.of(c)) for c in a],
            "is_scalar": rep.is_scalar,
            "scalar": (scalar_to_literal(dom, rep.scalar)
                       if rep.is_scalar else None),
            "matrix": mat_to_literal(rep.matrix),
        })
    if args.format == "json":
        print(_dump({"schema": SCHEMA, "demo": args.name,
                     "seed": args.seed, "records": records}))
        return 0
    print("tangent map of f_a on the centralizer of a regular unipotent")
    print("(experiment: outcomes are recorded, none is asserted)")
    for r in records:
        line = "n=%d %s a=%s: " % (r["n"], r["domain"], tuple(r["a"]))
        if r["is_scalar"]:
            line += "scalar, value %s" % r["scalar"]
        else:
            line += "not scalar"
        print(line)
    scalars = [r["is_scalar"] for r in records]
    print("scalar in %d of %d runs" % (sum(scalars), len(scalars)))
    return 0


# -- wiring -------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"),
                        default="text", help="output format")
    common.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="seed for all randomized checks")
    common.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                        help="enumeration budget for brute-force checks")

    parser = argparse.ArgumentParser(
        prog="optsl2",
        description="exact computations with nilpotent orbits and "
                    "optimal SL2-homomorphisms in type A")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", parents=[common],
                              help="run a verification suite")
    p_verify.add_argument("suite", choices=SUITE_NAMES)
    p_verify.add_argument("--n-max", type=int, default=None, dest="n_max")
    p_verify.add_argument("--primes", type=lambda s: _parse_ints(s, "--primes"),
                          default=None)
    p_verify.add_argument("--timings", action="store_true",
                          help="include wall-clock times in JSON output "
                               "(breaks byte-reproducibility)")
    p_verify.set_defaults(func=_cmd_verify)

    p_table = sub.add_parser("orbit-table", parents=[common],
                             help="per-partition invariants for one n, p")
    p_table.add_argument("--n", type=int, required=True)
    p_table.add_argument("--p", type=int, required=True)
    p_table.set_defaults(func=_cmd_orbit_table)

    p_tilt = sub.add_parser("tilt", parents=[common],
                            help="tilting certificate for an adjoint module")
    p_tilt.add_argument("--partition", required=True)
    p_tilt.add_argument("--p", type=int, required=True)
    p_tilt.set_defaults(func=_cmd_tilt)

    p_opt = sub.add_parser("optimal", help="single-instance reports")
    opt_sub = p_opt.add_subparsers(dest="subcommand", required=True)
    p_build = opt_sub.add_parser("build", parents=[common])
    p_build.add_argument("--partition", required=True)
    p_build.add_argument("--p", type=int, required=True)
    p_build.set_defaults(func=_cmd_optimal_build)
    p_conj = opt_sub.add_parser("conjugacy", parents=[common])
    p_conj.add_argument("--n", type=int, required=True)
    p_conj.add_argument("--p", type=int, required=True)
    p_conj.set_defaults(func=_cmd_optimal_conjugacy)
    p_gcr = opt_sub.add_parser("gcr", parents=[common])
    p_gcr.add_argument("--partition", required=True)
    p_gcr.add_argument("--p", type=int, required=True)
    p_gcr.set_defaults(func=_cmd_optimal_gcr)

    p_spr = sub.add_parser("springer", parents=[common],
                           help="apply one coefficient family")
    p_spr.add_argument("--partition", required=True)
    p_spr.add_argument("--p", type=int, default=None)
    p_spr.add_argument("--q", action="store_true",
                       help="work over the rationals")
    p_spr.add_argument("--a", default="",
                       help="comma-separated coefficients a1,...,a_{n-1}")
    p_spr.set_defaults(func=_cmd_springer)

    p_demo = sub.add_parser("demo", parents=[common],
                            help="tangent-map experiments")
    p_demo.add_argument("name", choices=("springer-tangent", "serre-note"))
    p_demo.set_defaults(func=_cmd_demo)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetError as exc:
        print("budget exceeded: %s" % exc, file=sys.stderr)
        return 3
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
