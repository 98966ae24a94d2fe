"""Verification suites behind the command line driver.

Each suite declares a grid kind, its default grid and its rows.  The
kinds: regular (lam = (n), n <= n_max), all (every partition of n <=
n_max), admissible (those with no part above p) and index (count
seeded draws), each per prime.  A row (claim, check[, only_when]) gives
a record at every grid point where only_when holds of the records its
instance has so far; extra rows run once after the grid.  run_suite
alone enumerates grids and turns checks into records, keeping only the
instances its only predicate accepts.  A record's runtime times its
check alone, not the instance's seeding or the draw that fixes an index
instance (the untwist suite's r).  A check whose walk passes the
budget raises BudgetError, a skipped record (verified None) with the
error text as witness budget_exceeded; any other library error is one
falsified record with witness error.  Either way the suite goes on.
Per-instance seeds derived from the suite seed make reports
reproducible, and the memos of jordan are emptied when each instance
starts, before its draw, so a record makes the same products whether
its instance runs alone or in the full grid.
"""

from __future__ import annotations

import random
import time
from functools import partial
from typing import NamedTuple

from .errors import BudgetError, DomainError, OptSL2Error
from .jordan import clear_memos, jordan_block, nilpotent_powers
from .matrices import (DEFAULT_BUDGET, Mat, ad_operator, inverse, lin_comb,
                       rank, random_invertible)
from .orbits import (order_formula_report, rep_from_partition,
                     weight_bound_check)
from .partitions import (admissible, centralizer_dim, centralizer_order,
                         image_centralizer_order, partitions_of, radical_dim)
from .scalars import Fp, QQ
from .sl2 import (aligns_with_exp, build_optimal, conjugate_hom,
                  conjugate_optimal, eval_hom, exp_centralizer_check,
                  exp_kernels_agree, gcr_check, gcr_check_hom,
                  hom_centralizer_check, radical_conjugator_counts,
                  radical_element)
from .springer import (AdditiveHom, SpringerCoeffs, additive_eval,
                       additive_untwist, orbit_bijection_check,
                       springer_apply, springer_invert)
from .tilting import adjoint_descriptor, tilting_decompose

DEFAULT_SEED = 7


class Record(NamedTuple):
    claim: str
    instance: dict
    witness: dict
    verified: bool | None  # None marks a skipped instance
    runtime: float | None = None


class SuiteReport(NamedTuple):
    suite: str
    grid: dict
    seed: int
    records: list
    metadata: dict

    @property
    def summary(self) -> dict:
        v = sum(1 for r in self.records if r.verified is True)
        f = sum(1 for r in self.records if r.verified is False)
        s = sum(1 for r in self.records if r.verified is None)
        return {"instances": len(self.records), "verified": v,
                "falsified": f, "skipped": s}

    @property
    def falsified(self):
        return [r for r in self.records if r.verified is False]


def _rng(seed, *key) -> random.Random:
    # string seeding hashes with sha512, stable across processes
    return random.Random("%d|%s" % (seed, "|".join(map(str, key))))


class _Suite(NamedTuple):
    kind: str
    grid: dict
    rows: tuple
    seeded: bool = False  # its checks draw from ctx.rnd
    extra: tuple = ()     # (claim, instance, check), after the grid


class _Context:
    """What a check reads besides its grid point."""

    def __init__(self, grid: dict, budget: int):
        self.grid = grid
        self.budget = budget
        self.rnd: random.Random | None = None
        self.memo = {}  # lives for one run


def _points(kind, grid):
    """(p, point) for every point of a grid, in report order: the
    point is a partition, or the index of a draw."""
    for p in grid["primes"]:
        if kind == "index":
            yield from ((p, i) for i in range(grid["count"]))
        else:
            for n in range(1, grid["n_max"] + 1):
                for lam in ((n,),) if kind == "regular" else partitions_of(n):
                    if kind != "admissible" or admissible(lam, p):
                        yield p, lam


# -- the checks of the ten suites ---------------------------------------

def _order_formula(p, lam, ctx):
    rep = order_formula_report(p, lam)
    return ({"unip_order": rep.unip_order,
             "max_ad_weight": rep.max_ad_weight,
             "radical_class": rep.radical_class,
             "conditions": [rep.has_order_p, rep.x_p_zero,
                            rep.weights_below_2p, rep.class_below_p]},
            rep.all_agree)


def _weight_bound(p, lam, ctx):
    rep = weight_bound_check(p, lam)
    return ({"min": rep.min_ad_weight, "max": rep.max_ad_weight,
             "bound": 2 * p - 2}, rep.within_bound)


def _random_springer(dom, n, rnd) -> SpringerCoeffs:
    p = dom.p
    a = [rnd.randrange(1, p)] if n >= 2 else []
    a += [rnd.randrange(p) for _ in range(n - 2)]
    return SpringerCoeffs(dom, a)


def _springer(p, lam, ctx):
    dom = Fp(p)
    n = sum(lam)
    pairs, rnd = ctx.grid["pairs"], ctx.rnd
    u = Mat.identity(dom, n) + rep_from_partition(dom, lam)
    note = None
    for _ in range(pairs):
        ca = _random_springer(dom, n, rnd)
        cb = _random_springer(dom, n, rnd)
        bij = orbit_bijection_check(ca, cb, u)
        if not bij.partitions_agree or bij.partition_u != lam:
            note = "orbit map moved the partition"
            break
        fa = springer_apply(ca, u)
        if springer_invert(ca, fa) != u:
            note = "round trip failed"
            break
        g = random_invertible(dom, n, rnd)
        gi = inverse(g)
        if springer_apply(ca, g * u * gi) != g * fa * gi:
            note = "equivariance failed"
            break
    return {"coefficient_pairs": pairs, "failure": note}, note is None


def _epsilon(p, lam, ctx):
    dom = Fp(p)
    X = rep_from_partition(dom, lam)
    aligned = aligns_with_exp(partial(eval_hom, build_optimal(X)), X)
    # the group enumeration lives in the centralizer suite
    kernels = exp_kernels_agree(X)
    return ({"t_values": p, "exp_aligned": aligned,
             "kernels_agree": kernels}, aligned and kernels)


def _conjugacy(p, lam, ctx):
    dom = Fp(p)
    twists, rnd = ctx.grid["twists"], ctx.rnd
    X = rep_from_partition(dom, lam)
    phi1 = build_optimal(X)
    basis = phi1.radical_basis
    size = "%d^%d" % (p, len(basis))
    # the twists, the count and the solver all live in the span of the
    # basis, so only its closed-form dimension catches a short basis
    if len(basis) != radical_dim(lam):
        note = "radical dimension %d, expected %d" % (len(basis),
                                                       radical_dim(lam))
        return {"twists": twists, "radical_size": size, "failure": note}, False
    drawn = [radical_element(dom, X.rows, basis,
                             [rnd.randrange(p) for _ in basis])
             for _ in range(twists)]
    phi2s = [conjugate_hom(phi1, twist) for twist in drawn]
    # one pass over the radical counts every twist's conjugators; the
    # counts have no side effects, so judging the twists in order, the
    # solver before the count, keeps the note of the first failure
    counts = radical_conjugator_counts(phi1, phi2s, basis, ctx.budget)
    note = None
    for twist, phi2, matches in zip(drawn, phi2s, counts):
        if conjugate_optimal(phi1, phi2) != twist:
            note = "solver returned a different conjugator"
            break
        if matches != 1:
            note = "%d radical conjugators found" % matches
            break
    return ({"twists": twists, "radical_size": size, "failure": note},
            note is None)


# Both sides of each group comparison go through the same intertwiner
# test, so a fault in it cancels there; the counted size is therefore
# also held against its closed form from the partition.

def _group_skipped(earlier):
    """The instance's first record, its group comparison, is a skip."""
    return earlier[0].verified is None


def _exp_centralizer(p, lam, ctx):
    rep = exp_centralizer_check(rep_from_partition(Fp(p), lam),
                                budget=ctx.budget)
    verified = (rep.nullspaces_agree and rep.group_agree
                and rep.group_size == centralizer_order(lam, p))
    # group_checked is always true; REPORT_SHA pins these witness bytes
    return {"group_checked": True, "group_size": rep.group_size}, verified


def _exp_kernels(p, lam, ctx):
    return ({"t_values": p - 1},
            exp_kernels_agree(rep_from_partition(Fp(p), lam)))


def _image_centralizer(p, lam, ctx):
    rep = hom_centralizer_check(build_optimal(rep_from_partition(Fp(p), lam)),
                                budget=ctx.budget)
    return ({"centralizer_size": rep.image_centralizer_size},
            rep.equal and rep.image_centralizer_size
            == image_centralizer_order(lam, p))


def _gcr(p, lam, ctx):
    rep = gcr_check_hom(build_optimal(rep_from_partition(Fp(p), lam)),
                        budget=ctx.budget)
    return ({"subspaces": rep.n_subspaces, "invariant": rep.n_invariant},
            rep.semisimple)


def _gcr_control(p, point, ctx):
    dom = Fp(p)
    rep = gcr_check([Mat.identity(dom, 3) + jordan_block(dom, 3)],
                    budget=ctx.budget)
    return {"invariant": rep.n_invariant}, not rep.semisimple


_TILTING_GOLDENS = {((2,), 2): "T(2)", ((3,), 3): "T(4) + L(2)"}


def _tilting(p, lam, ctx):
    desc = adjoint_descriptor(lam, p)
    dec = str(tilting_decompose(desc, p))
    ok = (desc.fix_p == desc.fix_0 == centralizer_dim(lam)
          and dec == _TILTING_GOLDENS.get((lam, p), dec))
    return ({"decomposition": dec, "fix_p": desc.fix_p,
             "fix_0": desc.fix_0}, ok)


def _random_additive(dom, rnd):
    """Seeded additive homomorphism with a known twist: coefficients are
    constant-free polynomials in one nilpotent N (so they commute and
    length-p products vanish), padded with r leading zeros."""
    p = dom.p
    choices = [lam for n in (2, 3, 4) for lam in partitions_of(n)
               if lam[0] >= 2 and admissible(lam, p)]
    lam = choices[rnd.randrange(len(choices))]
    N = rep_from_partition(dom, lam)
    n = N.rows
    powers = nilpotent_powers(N)
    m = rnd.randint(1, 3)
    coeffs = []
    for i in range(m):
        c1 = rnd.randrange(1, p) if i == 0 else rnd.randrange(p)
        rest = [rnd.randrange(p) for _ in range(2, n)]
        coeffs.append(lin_comb(N.scale(c1), rest, powers[1:]))
    r = rnd.randint(0, 3)
    zeros = [Mat.zero(dom, n)] * r
    return AdditiveHom(dom, zeros + coeffs), r


def _untwist(p, drawn, ctx):
    h, r = drawn
    h2, r2 = additive_untwist(h)
    ok = (r2 == r
          and h2.coeffs == h.coeffs[r:]
          and not h2.coeffs[0].is_zero()
          and all(additive_eval(h, s) == additive_eval(h2, s)
                  for s in range(h.domain.p)))
    return {"coefficients": len(h.coeffs), "n": h.n}, ok


def _spaltenstein(p, lam, ctx):
    n = sum(lam)
    rational_dims = ctx.memo  # one rational rank per partition
    if lam not in rational_dims:
        XQ = rep_from_partition(QQ, lam)
        rational_dims[lam] = n * n - rank(ad_operator(XQ))
    dim_p = n * n - rank(ad_operator(rep_from_partition(Fp(p), lam)))
    dim_0 = rational_dims[lam]
    formula = centralizer_dim(lam)
    return ({"dim_p": dim_p, "dim_0": dim_0, "formula": formula},
            dim_p == dim_0 == formula)


CLOSURE_NOTES = {
    "order-formula": "element orders and nilpotence degrees are computed "
                     "over the prime field and do not change under field "
                     "extension",
    "weight-bound": "cocharacter weights are integers attached to the "
                    "partition; the bound is field-independent",
    "springer": "polynomial identities are checked on prime-field points "
                "and coefficients; the same identities define the map over "
                "every extension",
    "epsilon": "both sides are polynomial in t of degree below p, so "
               "agreement at all t in F_p forces agreement over every "
               "extension",
    "conjugacy": "uniqueness is enumerated among F_p points of the "
                 "unipotent radical; points over extensions are not "
                 "enumerated",
    "centralizer": "group centralizers are enumerated over F_p; the "
                   "Lie-algebra kernels are rank computations and "
                   "field-independent",
    "gcr": "semisimplicity over the perfect field F_p persists over the "
           "algebraic closure",
    "tilting": "characters and fixed-point dimensions are rank "
               "computations, unchanged by field extension",
    "untwist": "untwisting is exact coefficient surgery; the evaluation "
               "identity is additionally checked on all prime-field points",
    "spaltenstein": "matrix rank is unchanged by field extension, so the "
                    "computed dimensions cover the closures of F_p and Q",
}

_SUITES = {
    "order-formula": _Suite("regular", {"n_max": 8, "primes": (2, 3, 5, 7)},
                            (("order-conditions-agree", _order_formula),)),
    "weight-bound": _Suite("admissible", {"n_max": 8, "primes": (2, 3, 5, 7)},
                           (("ad-weights-within-2p-2", _weight_bound),)),
    "springer": _Suite("all", {"n_max": 6, "primes": (2, 3, 5), "pairs": 20},
                       (("springer-family-orbit-map", _springer),),
                       seeded=True),
    "epsilon": _Suite("admissible", {"n_max": 5, "primes": (2, 3, 5)},
                      (("exp-alignment-and-kernels", _epsilon),)),
    "conjugacy": _Suite("admissible",
                        {"n_max": 4, "primes": (2, 3), "twists": 10},
                        (("radical-conjugator-unique", _conjugacy),),
                        seeded=True),
    "centralizer": _Suite("admissible", {"n_max": 3, "primes": (2, 3)}, (
        ("exp-centralizer-equals-x-centralizer", _exp_centralizer),
        # when the group comparison above is a skip, the Lie-level
        # comparison still runs and gets a record of its own
        ("exp-centralizer-lie-kernels-agree", _exp_kernels, _group_skipped),
        ("image-centralizer-intersection", _image_centralizer))),
    "gcr": _Suite("admissible", {"n_max": 4, "primes": (2, 3)},
                  (("optimal-image-semisimple", _gcr),),
                  extra=(("non-semisimple-control-flagged",
                          {"generator": "1 + J3", "p": 2}, _gcr_control),)),
    "tilting": _Suite("admissible", {"n_max": 8, "primes": (2, 3, 5, 7)},
                      (("adjoint-module-tilting", _tilting),)),
    "untwist": _Suite("index", {"primes": (2, 3, 5), "count": 100},
                      (("frobenius-untwist-exact", _untwist),), seeded=True),
    "spaltenstein": _Suite("all", {"n_max": 8, "primes": (2, 3, 5, 7)},
                           (("centralizer-dim-characteristic-free",
                             _spaltenstein),)),
}

SUITE_NAMES = tuple(sorted(_SUITES))


def run_suite(name: str, n_max: int | None = None, primes=None,
              seed: int = DEFAULT_SEED, budget: int = DEFAULT_BUDGET,
              timings: bool = False, only=None,
              twists: int | None = None) -> SuiteReport:
    """Run one suite over its grid and assemble the report.

    n_max, primes and twists override the suite defaults where
    applicable; a grid that checks nothing (n_max or twists below 1, no
    prime, a budget below 1) or checks an instance twice (a repeated
    prime) is a DomainError.  only(instance) selects the instances to
    check.  timings adds wall-clock seconds per record (off by default
    so that reports are byte-reproducible).
    """
    if name not in _SUITES:
        raise OptSL2Error("unknown suite %r; choose from %s"
                          % (name, ", ".join(SUITE_NAMES)))
    suite = _SUITES[name]
    grid = dict(suite.grid)
    for key, value in (("n_max", n_max), ("twists", twists)):
        if value is not None:
            if key not in grid:
                raise OptSL2Error("suite %r does not take %s" % (name, key))
            if value < 1:
                raise DomainError("%s must be at least 1, got %d"
                                  % (key, value))
            grid[key] = value
    if primes is not None:
        grid["primes"] = tuple(primes)
    if not grid["primes"] or len(set(grid["primes"])) < len(grid["primes"]):
        raise DomainError("primes must be distinct and at least one, got %s"
                          % list(grid["primes"]))
    for p in grid["primes"]:
        Fp(p)  # validates primality before any work happens
    if budget < 1:
        raise DomainError("budget must be at least 1, got %d" % budget)

    ctx = _Context(grid, budget)
    records = []

    def run(claim, instance, check, p, point):
        t0 = time.perf_counter()
        try:
            witness, verified = check(p, point, ctx)
        except BudgetError as exc:
            witness, verified = {"budget_exceeded": str(exc)}, None
        except OptSL2Error as exc:
            witness, verified = {"error": str(exc)}, False
        runtime = time.perf_counter() - t0 if timings else None
        records.append(Record(claim, instance, witness, verified, runtime))

    for p, point in _points(suite.kind, grid):
        clear_memos()
        if suite.seeded:
            ctx.rnd = _rng(seed, name, p, point)
        if suite.kind == "index":
            # the draw fixes r, which is part of the instance
            h, r = _random_additive(Fp(p), ctx.rnd)
            instance, point = {"p": p, "index": point, "r": r}, (h, r)
        else:
            instance = {"partition": list(point), "p": p}
        if only is None or only(instance):
            start = len(records)
            for claim, check, *when in suite.rows:
                if not when or when[0](records[start:]):
                    run(claim, instance, check, p, point)
    for claim, instance, check in suite.extra:
        clear_memos()
        if only is None or only(instance):
            run(claim, dict(instance), check, instance["p"], None)
    grid["primes"] = list(grid["primes"])
    return SuiteReport(suite=name, grid=grid, seed=seed, records=records,
                       metadata={"closure_note": CLOSURE_NOTES[name]})
