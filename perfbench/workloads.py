"""The three benchmark workloads, one pass each.

A pass returns one Outcome per checked record.  `payload` holds the
verdict content (claim, instance, witness, verified) that the
benchmark digests; `ok` is the benchmark's own judgement; `seconds` is
the record's wall time.

- enum-fp: `optsl2 verify` for the brute-force suites (group and
  radical enumeration over F_p).
- sweep-fp: `optsl2 verify` for the one-off computation suites
  (Jordan, Springer, elimination; no enumeration).
- conjugates-qq: library calls on seeded random rational conjugates of
  every nilpotent orbit with 2 <= n <= 6.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction

ENUM_SUITES = ("centralizer", "conjugacy", "gcr")
SWEEP_SUITES = ("springer", "order-formula", "untwist", "epsilon",
                "weight-bound", "spaltenstein", "tilting")

QQ_SIZES = range(2, 7)
QQ_SCALARS = tuple(Fraction(a, b) for a, b in
                   ((1, 1), (-1, 1), (2, 1), (-2, 1), (1, 2), (-1, 2),
                    (3, 2), (-1, 3)))
QQ_ELEMENTARY_OPS = 12

# the record fields a verdict consists of; `runtime` is left out
VERDICT_KEYS = ("claim", "instance", "witness", "verified")


@dataclass
class Outcome:
    payload: dict
    ok: bool
    seconds: float


# -- enum-fp and sweep-fp: the verify command -----------------------------

def cli_request(suite: str, seed: int):
    """One `optsl2 verify <suite> --format json` call in this process.
    Returns (exit code, parsed report, stderr text)."""
    from optsl2 import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["verify", suite, "--format", "json",
                         "--seed", str(seed), "--timings"])
    text = out.getvalue()
    return code, json.loads(text) if text.strip() else None, err.getvalue()


def cli_pass(suites, seed: int) -> list:
    outcomes = []
    for suite in suites:
        try:
            code, report, err = cli_request(suite, seed)
        except Exception as exc:  # a raise is a failed operation
            outcomes.append(Outcome({"suite": suite, "error": repr(exc)},
                                    False, 0.0))
            continue
        records = (report or {}).get("records") or []
        if not records:  # a suite that reports nothing has checked nothing
            outcomes.append(Outcome({"suite": suite, "error": "no records",
                                     "exit": code}, False, 0.0))
        for rec in records:
            payload = {"suite": suite}
            payload.update((k, rec.get(k)) for k in VERDICT_KEYS)
            outcomes.append(Outcome(payload, rec.get("verified") is True,
                                    rec.get("runtime") or 0.0))
        if code != 0:
            outcomes.append(Outcome({"suite": suite, "exit": code,
                                     "stderr": err.strip()}, False, 0.0))
    return outcomes


# -- conjugates-qq: generated rational instances ----------------------------

@dataclass(frozen=True)
class QQInstance:
    partition: tuple
    matrix: tuple      # rows of Fractions, a conjugate of the Jordan form
    springer: tuple    # coefficients a1 (nonzero), ..., a_{n-1}
    verify_seed: int


def partitions(n: int, largest: int | None = None):
    """Partitions of n, largest part first, (n) first.  Kept apart from
    optsl2.partitions_of: the expected Jordan types must not come from
    the program under test."""
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest), 0, -1):
        for rest in partitions(n - k, k):
            yield (k,) + rest


def qq_instances(seed: int) -> list:
    """One random rational conjugate g J g^-1 of the Jordan form J of
    each partition, with g a product of elementary matrices 1 + c e_ij
    (so the conjugation is exact row and column operations)."""
    rnd = random.Random("conjugates-qq|%d" % seed)
    out = []
    for n in QQ_SIZES:
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        for lam in partitions(n):
            X = [[Fraction(0)] * n for _ in range(n)]
            start = 0
            for part in lam:
                for i in range(start, start + part - 1):
                    X[i][i + 1] = Fraction(1)
                start += part
            for _ in range(QQ_ELEMENTARY_OPS):
                i, j = rnd.choice(pairs)
                c = rnd.choice(QQ_SCALARS)
                # X <- (1 + c e_ij) X (1 - c e_ij)
                X[i] = [a + c * b for a, b in zip(X[i], X[j])]
                for row in X:
                    row[j] -= c * row[i]
            a = [rnd.choice(QQ_SCALARS)]
            a += [rnd.choice(QQ_SCALARS + (Fraction(0),))
                  for _ in range(n - 2)]
            out.append(QQInstance(lam, tuple(map(tuple, X)), tuple(a),
                                  rnd.randrange(1 << 32)))
    return out


def qq_request(inst: QQInstance) -> dict:
    """Check one instance through the library: Jordan type, optimal
    homomorphism, Springer round trip.  Returns the witness."""
    import optsl2
    X = optsl2.Mat.from_rows(optsl2.QQ, inst.matrix)
    found = optsl2.nilpotent_jordan(X).partition
    rep = optsl2.verify_optimal(optsl2.build_optimal(X), X,
                                random.Random(inst.verify_seed))
    coeffs = optsl2.SpringerCoeffs(optsl2.QQ, inst.springer)
    u = optsl2.Mat.identity(optsl2.QQ, X.rows) + X
    image = optsl2.springer_apply(coeffs, u)
    round_trip = optsl2.springer_invert(coeffs, image) == u
    return {"partition": list(found),
            "optimal": [rep.dx_matches, rep.triple_brackets,
                        rep.torus_associated, rep.exp_aligned,
                        rep.multiplicative],
            # the Springer image is unique, so it pins the digest to the
            # seed's inputs without depending on a choice of basis
            "springer_image": [[str(x) for x in row]
                               for row in image.to_lists()],
            "springer_round_trip": round_trip}


def qq_pass(instances) -> list:
    outcomes = []
    for index, inst in enumerate(instances):
        payload = {"claim": "rational-conjugate-checks",
                   "instance": {"partition": list(inst.partition),
                                "index": index}}
        t0 = time.perf_counter()
        try:
            witness = qq_request(inst)
        except Exception as exc:  # a raise is a failed check
            witness = {"error": repr(exc)}
        seconds = time.perf_counter() - t0
        ok = (witness.get("partition") == list(inst.partition)
              and all(witness["optimal"])
              and witness["springer_round_trip"] is True)
        payload.update(witness=witness, verified=ok)
        outcomes.append(Outcome(payload, ok, seconds))
    return outcomes


# -- dispatch -----------------------------------------------------------------

WORKLOADS = ("enum-fp", "sweep-fp", "conjugates-qq")


def make_pass(workload: str, seed: int):
    """A zero-argument function running one pass of the workload; inputs
    are generated here, once, outside the timed passes."""
    if workload == "enum-fp":
        return lambda: cli_pass(ENUM_SUITES, seed)
    if workload == "sweep-fp":
        return lambda: cli_pass(SWEEP_SUITES, seed)
    if workload == "conjugates-qq":
        instances = qq_instances(seed)
        return lambda: qq_pass(instances)
    raise ValueError("unknown workload %r" % workload)
