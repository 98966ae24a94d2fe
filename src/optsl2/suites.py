"""Verification suites behind the command line driver.

Each suite sweeps a parameter grid and yields, per instance, the claim
id, the instance data and a check: a zero-argument callable returning
a small witness and the verdict.  run_suite alone turns checks into
records.  A record's runtime times its check alone, so draws that fix
the instance itself (the untwist suite's r) fall outside it.  A check
that raises a library error other than BudgetError becomes one
falsified record whose witness carries the error text, and the suite
goes on.  All randomness comes from per-instance seeds derived from the
suite seed, making reports reproducible.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from functools import partial

from .errors import BudgetError, DomainError, OptSL2Error
from .jordan import jordan_block, nilpotent_powers
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


@dataclass
class Record:
    claim: str
    instance: dict
    witness: dict
    verified: bool | None  # None marks a skipped instance
    runtime: float | None = None


@dataclass
class SuiteReport:
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


def _admissible_grid(n_max, primes):
    for p in primes:
        for n in range(1, n_max + 1):
            for lam in partitions_of(n):
                if admissible(lam, p):
                    yield p, lam


# -- the ten suites -----------------------------------------------------

def _instance(lam, p) -> dict:
    return {"partition": list(lam), "p": p}


def _suite_order_formula(grid, seed, budget):
    for p in grid["primes"]:
        for n in range(1, grid["n_max"] + 1):
            yield ("order-conditions-agree", _instance((n,), p),
                   partial(_order_formula, p, n))


def _order_formula(p, n):
    rep = order_formula_report(p, (n,))
    return ({"unip_order": rep.unip_order,
             "max_ad_weight": rep.max_ad_weight,
             "radical_class": rep.radical_class,
             "conditions": [rep.has_order_p, rep.x_p_zero,
                            rep.weights_below_2p, rep.class_below_p]},
            rep.all_agree)


def _suite_weight_bound(grid, seed, budget):
    for p, lam in _admissible_grid(grid["n_max"], grid["primes"]):
        yield ("ad-weights-within-2p-2", _instance(lam, p),
               partial(_weight_bound, p, lam))


def _weight_bound(p, lam):
    rep = weight_bound_check(p, lam)
    return ({"min": rep.min_ad_weight, "max": rep.max_ad_weight,
             "bound": 2 * p - 2}, rep.within_bound)


def _random_springer(dom, n, rnd) -> SpringerCoeffs:
    p = dom.p
    a = [rnd.randrange(1, p)] if n >= 2 else []
    a += [rnd.randrange(p) for _ in range(n - 2)]
    return SpringerCoeffs(dom, a)


def _suite_springer(grid, seed, budget):
    for p in grid["primes"]:
        for n in range(1, grid["n_max"] + 1):
            for lam in partitions_of(n):
                yield ("springer-family-orbit-map", _instance(lam, p),
                       partial(_springer, p, lam, grid["pairs"],
                               _rng(seed, "springer", p, lam)))


def _springer(p, lam, pairs, rnd):
    dom = Fp(p)
    n = sum(lam)
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


def _suite_epsilon(grid, seed, budget):
    for p, lam in _admissible_grid(grid["n_max"], grid["primes"]):
        yield ("exp-alignment-and-kernels", _instance(lam, p),
               partial(_epsilon, p, lam))


def _epsilon(p, lam):
    dom = Fp(p)
    X = rep_from_partition(dom, lam)
    aligned = aligns_with_exp(partial(eval_hom, build_optimal(X)), X)
    # the group enumeration lives in the centralizer suite
    kernels = exp_kernels_agree(X)
    return ({"t_values": p, "exp_aligned": aligned,
             "kernels_agree": kernels}, aligned and kernels)


def _suite_conjugacy(grid, seed, budget):
    for p, lam in _admissible_grid(grid["n_max"], grid["primes"]):
        yield ("radical-conjugator-unique", _instance(lam, p),
               partial(_conjugacy, p, lam, grid["twists"],
                       _rng(seed, "conjugacy", p, lam), budget))


def _conjugacy(p, lam, twists, rnd, budget):
    dom = Fp(p)
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
    if p ** len(basis) > budget:
        return {"radical_size": size}, None
    drawn = [radical_element(dom, X.rows, basis,
                             [rnd.randrange(p) for _ in basis])
             for _ in range(twists)]
    phi2s = [conjugate_hom(phi1, twist) for twist in drawn]
    # one pass over the radical counts every twist's conjugators; the
    # counts have no side effects, so judging the twists in order, the
    # solver before the count, keeps the note of the first failure
    counts = radical_conjugator_counts(phi1, phi2s, basis)
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


def _suite_centralizer(grid, seed, budget):
    for p, lam in _admissible_grid(grid["n_max"], grid["primes"]):
        n = sum(lam)
        yield ("exp-centralizer-equals-x-centralizer", _instance(lam, p),
               partial(_exp_centralizer, p, lam, budget))
        if p ** (n * n) > budget:
            # the group comparison above is a skip; the Lie-level
            # comparison still runs and gets a record of its own
            yield ("exp-centralizer-lie-kernels-agree", _instance(lam, p),
                   partial(_exp_kernels, p, lam))
        yield ("image-centralizer-intersection", _instance(lam, p),
               partial(_image_centralizer, p, lam, budget))


# Both sides of each group comparison go through the same intertwiner
# test, so a fault in it cancels there; the counted size is therefore
# also held against its closed form from the partition.

def _exp_centralizer(p, lam, budget):
    n = sum(lam)
    if p ** (n * n) > budget:
        return {"group_checked": False, "group_size": None}, None
    rep = exp_centralizer_check(rep_from_partition(Fp(p), lam),
                                budget=budget)
    verified = (rep.nullspaces_agree and rep.group_agree
                and rep.group_size == centralizer_order(lam, p))
    return ({"group_checked": rep.group_checked,
             "group_size": rep.group_size}, verified)


def _exp_kernels(p, lam):
    return ({"t_values": p - 1},
            exp_kernels_agree(rep_from_partition(Fp(p), lam)))


def _image_centralizer(p, lam, budget):
    n = sum(lam)
    if p ** (n * n) > budget:
        return {"matrices": "%d^%d" % (p, n * n)}, None
    rep = hom_centralizer_check(build_optimal(rep_from_partition(Fp(p), lam)),
                                budget=budget)
    return ({"centralizer_size": rep.image_centralizer_size},
            rep.equal and rep.image_centralizer_size
            == image_centralizer_order(lam, p))


def _suite_gcr(grid, seed, budget):
    for p, lam in _admissible_grid(grid["n_max"], grid["primes"]):
        yield ("optimal-image-semisimple", _instance(lam, p),
               partial(_gcr, p, lam, budget))
    yield ("non-semisimple-control-flagged", {"generator": "1 + J3", "p": 2},
           partial(_gcr_control, budget))


def _gcr(p, lam, budget):
    rep = gcr_check_hom(build_optimal(rep_from_partition(Fp(p), lam)),
                        budget=budget)
    return ({"subspaces": rep.n_subspaces, "invariant": rep.n_invariant},
            rep.semisimple)


def _gcr_control(budget):
    dom = Fp(2)
    rep = gcr_check([Mat.identity(dom, 3) + jordan_block(dom, 3)],
                    budget=budget)
    return {"invariant": rep.n_invariant}, not rep.semisimple


_TILTING_GOLDENS = {((2,), 2): "T(2)", ((3,), 3): "T(4) + L(2)"}


def _suite_tilting(grid, seed, budget):
    for p, lam in _admissible_grid(grid["n_max"], grid["primes"]):
        yield ("adjoint-module-tilting", _instance(lam, p),
               partial(_tilting, p, lam))


def _tilting(p, lam):
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


def _suite_untwist(grid, seed, budget):
    for p in grid["primes"]:
        for i in range(grid["count"]):
            # the draw fixes r, which is part of the instance
            h, r = _random_additive(Fp(p), _rng(seed, "untwist", p, i))
            yield ("frobenius-untwist-exact", {"p": p, "index": i, "r": r},
                   partial(_untwist, h, r))


def _untwist(h, r):
    h2, r2 = additive_untwist(h)
    ok = (r2 == r
          and h2.coeffs == h.coeffs[r:]
          and not h2.coeffs[0].is_zero()
          and all(additive_eval(h, s) == additive_eval(h2, s)
                  for s in range(h.domain.p)))
    return {"coefficients": len(h.coeffs), "n": h.n}, ok


def _suite_spaltenstein(grid, seed, budget):
    rational_dims = {}  # one rational rank per partition, across primes
    for p in grid["primes"]:
        for n in range(1, grid["n_max"] + 1):
            for lam in partitions_of(n):
                yield ("centralizer-dim-characteristic-free",
                       _instance(lam, p),
                       partial(_spaltenstein, p, lam, rational_dims))


def _spaltenstein(p, lam, rational_dims):
    n = sum(lam)
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

_SUITE_FUNCS = {
    "order-formula": (_suite_order_formula, {"n_max": 8,
                                             "primes": (2, 3, 5, 7)}),
    "weight-bound": (_suite_weight_bound, {"n_max": 8,
                                           "primes": (2, 3, 5, 7)}),
    "springer": (_suite_springer, {"n_max": 6, "primes": (2, 3, 5),
                                   "pairs": 20}),
    "epsilon": (_suite_epsilon, {"n_max": 5, "primes": (2, 3, 5)}),
    "conjugacy": (_suite_conjugacy, {"n_max": 4, "primes": (2, 3),
                                     "twists": 10}),
    "centralizer": (_suite_centralizer, {"n_max": 3, "primes": (2, 3)}),
    "gcr": (_suite_gcr, {"n_max": 4, "primes": (2, 3)}),
    "tilting": (_suite_tilting, {"n_max": 8, "primes": (2, 3, 5, 7)}),
    "untwist": (_suite_untwist, {"primes": (2, 3, 5), "count": 100}),
    "spaltenstein": (_suite_spaltenstein, {"n_max": 8,
                                           "primes": (2, 3, 5, 7)}),
}

SUITE_NAMES = tuple(sorted(_SUITE_FUNCS))


def _check_budget(budget: int) -> None:
    """A budget below 1 admits no candidate, so every brute-force check
    would be skipped: a DomainError."""
    if budget < 1:
        raise DomainError("budget must be at least 1, got %d" % budget)


def run_suite(name: str, n_max: int | None = None, primes=None,
              seed: int = DEFAULT_SEED, budget: int = DEFAULT_BUDGET,
              timings: bool = False) -> SuiteReport:
    """Run one suite over its grid and assemble the report.

    n_max and primes override the suite defaults where applicable; a
    grid that checks nothing (n_max below 1, no prime, a budget below
    1) or checks an instance twice (a repeated prime) is a
    DomainError.  timings adds wall-clock seconds per record (off by
    default so that reports are byte-reproducible).
    """
    if name not in _SUITE_FUNCS:
        raise OptSL2Error("unknown suite %r; choose from %s"
                          % (name, ", ".join(SUITE_NAMES)))
    func, defaults = _SUITE_FUNCS[name]
    grid = dict(defaults)
    if n_max is not None:
        if "n_max" not in grid:
            raise OptSL2Error("suite %r does not take n_max" % name)
        if n_max < 1:
            raise DomainError("n_max must be at least 1, got %d" % n_max)
        grid["n_max"] = n_max
    if primes is not None:
        grid["primes"] = tuple(primes)
    if not grid["primes"] or len(set(grid["primes"])) < len(grid["primes"]):
        raise DomainError("primes must be distinct and at least one, got %s"
                          % list(grid["primes"]))
    for p in grid["primes"]:
        Fp(p)  # validates primality before any work happens
    _check_budget(budget)

    records = []
    for claim, instance, check in func(grid, seed, budget):
        t0 = time.perf_counter()
        try:
            witness, verified = check()
        except BudgetError:
            raise
        except OptSL2Error as exc:
            witness, verified = {"error": str(exc)}, False
        runtime = time.perf_counter() - t0 if timings else None
        records.append(Record(claim, instance, witness, verified, runtime))
    grid["primes"] = list(grid["primes"])
    return SuiteReport(suite=name, grid=grid, seed=seed, records=records,
                       metadata={"closure_note": CLOSURE_NOTES[name]})
