"""Verification suites behind the command line driver.

Each suite sweeps a parameter grid and emits one record per instance
with the claim id, the instance data, a small witness, and the
verdict.  Suites are generators so the driver can time records
individually; all randomness comes from per-instance seeds derived
from the suite seed, making reports reproducible.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from .errors import BudgetError, OptSL2Error
from .jordan import jordan_block
from .matrices import (DEFAULT_BUDGET, Mat, ad_operator, inverse, rank,
                       random_invertible)
from .orbits import (order_formula_report, rep_from_partition,
                     weight_bound_check)
from .partitions import admissible, conjugate, partitions_of
from .scalars import Fp, QQ
from .sl2 import (build_optimal, conjugate_hom, conjugate_optimal,
                  count_radical_conjugators, eval_hom, exp_centralizer_check,
                  gcr_check, gcr_check_hom, hom_centralizer_check,
                  hom_torus_cochar, positive_commutant_basis, sl2_x1)
from .springer import (AdditiveHom, SpringerCoeffs, additive_eval,
                       additive_untwist, eps_exp, orbit_bijection_check,
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

def _suite_order_formula(grid, seed, budget):
    for p in grid["primes"]:
        for n in range(1, grid["n_max"] + 1):
            rep = order_formula_report(p, (n,))
            yield Record(
                claim="order-conditions-agree",
                instance={"partition": [n], "p": p},
                witness={"unip_order": rep.unip_order,
                         "max_ad_weight": rep.max_ad_weight,
                         "radical_class": rep.radical_class,
                         "conditions": [rep.has_order_p, rep.x_p_zero,
                                        rep.weights_below_2p,
                                        rep.class_below_p]},
                verified=rep.all_agree)


def _suite_weight_bound(grid, seed, budget):
    for p, lam in _admissible_grid(grid["n_max"], grid["primes"]):
        rep = weight_bound_check(p, lam)
        yield Record(
            claim="ad-weights-within-2p-2",
            instance={"partition": list(lam), "p": p},
            witness={"min": rep.min_ad_weight, "max": rep.max_ad_weight,
                     "bound": 2 * p - 2},
            verified=rep.within_bound)


def _random_springer(dom, n, rnd) -> SpringerCoeffs:
    p = dom.p
    a = [rnd.randrange(1, p)] if n >= 2 else []
    a += [rnd.randrange(p) for _ in range(n - 2)]
    return SpringerCoeffs(dom, a)


def _suite_springer(grid, seed, budget):
    pairs = grid["pairs"]
    for p in grid["primes"]:
        dom = Fp(p)
        for n in range(1, grid["n_max"] + 1):
            for lam in partitions_of(n):
                rnd = _rng(seed, "springer", p, lam)
                X = rep_from_partition(dom, lam)
                u = Mat.identity(dom, n) + X
                ok = True
                note = None
                for k in range(pairs):
                    ca = _random_springer(dom, n, rnd)
                    cb = _random_springer(dom, n, rnd)
                    bij = orbit_bijection_check(ca, cb, u)
                    if not bij.partitions_agree or bij.partition_u != lam:
                        ok, note = False, "orbit map moved the partition"
                        break
                    fa = springer_apply(ca, u)
                    if springer_invert(ca, fa) != u:
                        ok, note = False, "round trip failed"
                        break
                    g = random_invertible(dom, n, rnd)
                    gi = inverse(g)
                    if springer_apply(ca, g * u * gi) != g * fa * gi:
                        ok, note = False, "equivariance failed"
                        break
                yield Record(
                    claim="springer-family-orbit-map",
                    instance={"partition": list(lam), "p": p},
                    witness={"coefficient_pairs": pairs,
                             "failure": note},
                    verified=ok)


def _suite_epsilon(grid, seed, budget):
    for p, lam in _admissible_grid(grid["n_max"], grid["primes"]):
        dom = Fp(p)
        X = rep_from_partition(dom, lam)
        phi = build_optimal(X)
        aligned = all(eval_hom(phi, sl2_x1(dom, t)) == eps_exp(X.scale(t))
                      for t in range(p))
        # budget 1 keeps this to the Lie-level kernels; the group
        # enumeration lives in the centralizer suite
        kernels = exp_centralizer_check(X, budget=1).nullspaces_agree
        yield Record(
            claim="exp-alignment-and-kernels",
            instance={"partition": list(lam), "p": p},
            witness={"t_values": p, "exp_aligned": aligned,
                     "kernels_agree": kernels},
            verified=aligned and kernels)


def _suite_conjugacy(grid, seed, budget):
    for p, lam in _admissible_grid(grid["n_max"], grid["primes"]):
        dom = Fp(p)
        X = rep_from_partition(dom, lam)
        phi1 = build_optimal(X)
        psi = hom_torus_cochar(phi1)
        basis = positive_commutant_basis(X, psi)
        if p ** len(basis) > budget:
            yield Record(
                claim="radical-conjugator-unique",
                instance={"partition": list(lam), "p": p},
                witness={"radical_size": "%d^%d" % (p, len(basis))},
                verified=None)
            continue
        rnd = _rng(seed, "conjugacy", p, lam)
        n = X.rows
        ident = Mat.identity(dom, n)
        ok = True
        note = None
        for k in range(grid["twists"]):
            N = Mat.zero(dom, n)
            for B in basis:
                N = N + B.scale(rnd.randrange(p))
            twist = ident + N
            phi2 = conjugate_hom(phi1, twist)
            recovered = conjugate_optimal(phi1, phi2)
            if recovered != twist:
                ok, note = False, "solver returned a different conjugator"
                break
            matches = count_radical_conjugators(phi1, phi2, basis)
            if matches != 1:
                ok, note = False, "%d radical conjugators found" % matches
                break
        yield Record(
            claim="radical-conjugator-unique",
            instance={"partition": list(lam), "p": p},
            witness={"twists": grid["twists"],
                     "radical_size": "%d^%d" % (p, len(basis)),
                     "failure": note},
            verified=ok)


def _suite_centralizer(grid, seed, budget):
    for p, lam in _admissible_grid(grid["n_max"], grid["primes"]):
        dom = Fp(p)
        X = rep_from_partition(dom, lam)
        n = X.rows
        rep = exp_centralizer_check(X, budget=budget)
        yield Record(
            claim="exp-centralizer-equals-x-centralizer",
            instance={"partition": list(lam), "p": p},
            witness={"group_checked": rep.group_checked,
                     "group_size": rep.group_size},
            verified=rep.group_agree if rep.nullspaces_agree else False)
        phi = build_optimal(X)
        try:
            hrep = hom_centralizer_check(phi, budget=budget)
        except BudgetError:
            yield Record(
                claim="image-centralizer-intersection",
                instance={"partition": list(lam), "p": p},
                witness={"matrices": "%d^%d" % (p, n * n)},
                verified=None)
            continue
        yield Record(
            claim="image-centralizer-intersection",
            instance={"partition": list(lam), "p": p},
            witness={"centralizer_size": hrep.image_centralizer_size},
            verified=hrep.equal)


def _suite_gcr(grid, seed, budget):
    for p, lam in _admissible_grid(grid["n_max"], grid["primes"]):
        rep = gcr_check_hom(build_optimal(rep_from_partition(Fp(p), lam)),
                            budget=budget)
        yield Record(
            claim="optimal-image-semisimple",
            instance={"partition": list(lam), "p": p},
            witness={"subspaces": rep.n_subspaces,
                     "invariant": rep.n_invariant},
            verified=rep.semisimple)
    dom = Fp(2)
    control = gcr_check([Mat.identity(dom, 3) + jordan_block(dom, 3)],
                        budget=budget)
    yield Record(
        claim="non-semisimple-control-flagged",
        instance={"generator": "1 + J3", "p": 2},
        witness={"invariant": control.n_invariant},
        verified=not control.semisimple)


def _suite_tilting(grid, seed, budget):
    goldens = {((2,), 2): "T(2)", ((3,), 3): "T(4) + L(2)"}
    for p, lam in _admissible_grid(grid["n_max"], grid["primes"]):
        desc = adjoint_descriptor(lam, p)
        try:
            dec = tilting_decompose(desc, p)
        except OptSL2Error as exc:
            yield Record(
                claim="adjoint-module-tilting",
                instance={"partition": list(lam), "p": p},
                witness={"error": str(exc)},
                verified=False)
            continue
        expected_fix = sum(m * m for m in conjugate(lam))
        ok = desc.fix_p == desc.fix_0 == expected_fix
        golden = goldens.get((lam, p))
        if golden is not None:
            ok = ok and str(dec) == golden
        yield Record(
            claim="adjoint-module-tilting",
            instance={"partition": list(lam), "p": p},
            witness={"decomposition": str(dec), "fix_p": desc.fix_p,
                     "fix_0": desc.fix_0},
            verified=ok)


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
    m = rnd.randint(1, 3)
    coeffs = []
    for i in range(m):
        c1 = rnd.randrange(1, p) if i == 0 else rnd.randrange(p)
        M = N.scale(c1)
        power = N
        for _ in range(2, n):
            power = power * N
            M = M + power.scale(rnd.randrange(p))
        coeffs.append(M)
    r = rnd.randint(0, 3)
    zeros = [Mat.zero(dom, n)] * r
    return AdditiveHom(dom, zeros + coeffs), r


def _suite_untwist(grid, seed, budget):
    for p in grid["primes"]:
        dom = Fp(p)
        for i in range(grid["count"]):
            rnd = _rng(seed, "untwist", p, i)
            h, r = _random_additive(dom, rnd)
            h2, r2 = additive_untwist(h)
            ok = (r2 == r
                  and h2.coeffs == h.coeffs[r:]
                  and not h2.coeffs[0].is_zero()
                  and all(additive_eval(h, s) == additive_eval(h2, s)
                          for s in range(p)))
            yield Record(
                claim="frobenius-untwist-exact",
                instance={"p": p, "index": i, "r": r},
                witness={"coefficients": len(h.coeffs), "n": h.n},
                verified=ok)


def _suite_spaltenstein(grid, seed, budget):
    rational_dims = {}
    for p in grid["primes"]:
        for n in range(1, grid["n_max"] + 1):
            for lam in partitions_of(n):
                if lam not in rational_dims:
                    XQ = rep_from_partition(QQ, lam)
                    rational_dims[lam] = n * n - rank(ad_operator(XQ))
                Xp = rep_from_partition(Fp(p), lam)
                dim_p = n * n - rank(ad_operator(Xp))
                dim_0 = rational_dims[lam]
                formula = sum(m * m for m in conjugate(lam))
                yield Record(
                    claim="centralizer-dim-characteristic-free",
                    instance={"partition": list(lam), "p": p},
                    witness={"dim_p": dim_p, "dim_0": dim_0,
                             "formula": formula},
                    verified=dim_p == dim_0 == formula)


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


def run_suite(name: str, n_max: int | None = None, primes=None,
              seed: int = DEFAULT_SEED, budget: int = DEFAULT_BUDGET,
              timings: bool = False) -> SuiteReport:
    """Run one suite over its grid and assemble the report.

    n_max and primes override the suite defaults where applicable;
    timings adds wall-clock seconds per record (off by default so that
    reports are byte-reproducible).
    """
    if name not in _SUITE_FUNCS:
        raise OptSL2Error("unknown suite %r; choose from %s"
                          % (name, ", ".join(SUITE_NAMES)))
    func, defaults = _SUITE_FUNCS[name]
    grid = dict(defaults)
    if n_max is not None:
        if "n_max" not in grid:
            raise OptSL2Error("suite %r does not take n_max" % name)
        grid["n_max"] = n_max
    if primes is not None:
        grid["primes"] = tuple(primes)
    for p in grid["primes"]:
        Fp(p)  # validates primality before any work happens

    records = []
    gen = func(grid, seed, budget)
    while True:
        t0 = time.perf_counter()
        try:
            rec = next(gen)
        except StopIteration:
            break
        if timings:
            rec.runtime = time.perf_counter() - t0
        records.append(rec)
    grid["primes"] = list(grid["primes"])
    return SuiteReport(suite=name, grid=grid, seed=seed, records=records,
                       metadata={"closure_note": CLOSURE_NOTES[name]})
