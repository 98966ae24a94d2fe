"""Nilpotent orbits in gl_n: representatives, associated cocharacters,
instability parabolics, centralizer dimensions and the order formula.

Orbits are classified by partitions.  The associated cocharacter of a
nilpotent X is built on a Jordan basis, with weights d-1, d-3, ...,
1-d on each chain of length d; X then sits in degree 2 of the induced
grading and the weights sum to zero on every chain, which is the
type A form of the defining conditions.
"""

from __future__ import annotations

from typing import NamedTuple

from .cochar import Cocharacter, ParabolicData, radical_class
from .errors import InconsistencyError, PreconditionError
from .jordan import (NilpotentJordanData, jordan_form, nilpotent_jordan,
                     nilpotent_partition, nilpotent_powers)
from .matrices import (Mat, ad_operator, devectorize, hstack, inverse,
                       rank, rank_nullspace)
from .partitions import admissible, centralizer_dim, check_partition
from .scalars import Fp


def rep_from_partition(domain, lam) -> Mat:
    """Canonical orbit representative: Jordan blocks, longest first."""
    return jordan_form(domain, check_partition(lam))


def block_weights(lam) -> tuple:
    """Associated cocharacter weights in Jordan basis order."""
    ws = []
    for d in check_partition(lam):
        ws.extend(range(d - 1, -d, -2))
    return tuple(ws)


class AssociatedCocharacterData(NamedTuple):
    psi: Cocharacter
    jordan: NilpotentJordanData


def associated_cocharacter(X: Mat) -> AssociatedCocharacterData:
    jd = nilpotent_jordan(X)
    psi = Cocharacter(jd.basis, block_weights(jd.partition))
    if psi.component(X, 2) != X:
        raise InconsistencyError("X is not concentrated in degree 2")
    return AssociatedCocharacterData(psi=psi, jordan=jd)


class InstabilityData(NamedTuple):
    psi: Cocharacter
    parabolic: ParabolicData


def instability_parabolic(X: Mat) -> InstabilityData:
    """P(psi) for the associated cocharacter psi; the optimal
    destabilising parabolic of the unstable vector X."""
    psi = associated_cocharacter(X).psi
    return InstabilityData(psi=psi, parabolic=ParabolicData(psi))


class CentralizerReport(NamedTuple):
    partition: tuple
    dim_c: int
    formula_dim: int
    rank_ad: int
    contained_in_p_psi: bool


def centralizer_report(X: Mat) -> CentralizerReport:
    """Centralizer dimension of X in gl_n, computed from ad X, against
    the partition formula centralizer_dim."""
    n = X.rows
    data = associated_cocharacter(X)
    rank_ad, null = rank_nullspace(ad_operator(X))
    dim_c = n * n - rank_ad
    formula = centralizer_dim(data.jordan.partition)
    pd = ParabolicData(data.psi)
    contained = all(pd.contains(devectorize(v, n)) for v in null)
    return CentralizerReport(partition=data.jordan.partition, dim_c=dim_c,
                             formula_dim=formula, rank_ad=rank_ad,
                             contained_in_p_psi=contained)


class OrderFormulaReport(NamedTuple):
    partition: tuple
    p: int
    unip_order: int
    has_order_p: bool       # u^p = 1
    x_p_zero: bool          # X^[p] = 0
    max_ad_weight: int
    weights_below_2p: bool  # every ad-weight is < 2p
    radical_class: int      # nilpotence class of U(psi)
    class_below_p: bool
    all_agree: bool


def order_formula_report(p: int, lam) -> OrderFormulaReport:
    """The four order conditions for u = 1 + X, X of the given partition:
    u^p = 1, X^[p] = 0, ad-weights below 2p, radical class below p.

    For a single Jordan block these are equivalent; the report computes
    each side independently so the equivalence can be checked rather
    than assumed.
    """
    lam = check_partition(lam)
    dom = Fp(p)
    X = rep_from_partition(dom, lam)
    n = X.rows
    u = Mat.identity(dom, n) + X

    order = 1
    power = u
    while not power.is_identity():
        power = power ** p
        order *= p

    psi = associated_cocharacter(X).psi
    max_w = max(psi.ad_weight_values())
    cls = radical_class(psi)
    has_order_p = (u ** p).is_identity()
    x_p_zero = len(nilpotent_powers(X)) < p
    weights_below_2p = max_w < 2 * p
    class_below_p = cls < p
    flags = (has_order_p, x_p_zero, weights_below_2p, class_below_p)
    return OrderFormulaReport(
        partition=lam, p=p,
        unip_order=order,
        has_order_p=has_order_p,
        x_p_zero=x_p_zero,
        max_ad_weight=max_w,
        weights_below_2p=weights_below_2p,
        radical_class=cls,
        class_below_p=class_below_p,
        all_agree=len(set(flags)) == 1)


class WeightBoundReport(NamedTuple):
    partition: tuple
    p: int
    min_ad_weight: int
    max_ad_weight: int
    within_bound: bool  # all ad-weights in [-2p+2, 2p-2]


def weight_bound_check(p: int, lam) -> WeightBoundReport:
    """Ad-weight window for X with X^[p] = 0: largest part at most p
    forces every ad-weight into [-2p+2, 2p-2]."""
    lam = check_partition(lam)
    if not admissible(lam, p):
        raise PreconditionError(
            "largest part %d exceeds p = %d, X^[p] != 0" % (lam[0], p))
    X = rep_from_partition(Fp(p), lam)
    psi = associated_cocharacter(X).psi
    support = psi.ad_weight_values()
    lo, hi = min(support), max(support)
    return WeightBoundReport(partition=lam, p=p, min_ad_weight=lo,
                             max_ad_weight=hi,
                             within_bound=(-2 * p + 2 <= lo
                                           and hi <= 2 * p - 2))


def _unit_bracket(C: Mat, r: int, c: int) -> list:
    """[E_rc, C] scaled by C's denominator, as a flat row-major list of
    ints written straight from C's numerators: E_rc C is row c of C in
    row r, C E_rc is column r of C in column c.  Entries are left
    unreduced over F_p; Mat.from_ints reduces."""
    n, x = C.rows, C.num
    v = [0] * (n * n)
    v[r * n:(r + 1) * n] = x[c * n:(c + 1) * n]
    for i in range(n):
        v[i * n + c] -= x[i * n + r]
    return v


def is_associated(psi: Cocharacter, Y: Mat) -> bool:
    """Whether psi is associated to the nilpotent Y: Y lies in degree 2
    and bracketing degree 0 against Y fills all of degree 2.  In
    eigenbasis coordinates C of Y the degree-0 piece is spanned by the
    units E_rc, so the image is spanned by the brackets [E_rc, C]: its
    dimension is the rank of the matrix of their rows."""
    C = psi.coords(Y)
    if psi.masked(C, lambda e: e == 2) != C:
        return False
    units = psi.mask(lambda e: e == 0)
    image = [x for r, c in units for x in _unit_bracket(C, r, c)]
    return rank(Mat.from_ints(psi.domain, len(units), C.rows * C.cols,
                              image, 1)) == len(psi.mask(lambda e: e == 2))


def regular_richardson_for_borel(psi: Cocharacter) -> Mat:
    """Richardson element of P(psi) when P(psi) is a Borel: a regular
    nilpotent inside the radical, built on the weight-sorted basis."""
    n = psi.n
    if len(set(psi.weights)) != n:
        raise PreconditionError("P(psi) is not a Borel, weights repeat")
    order = sorted(range(n), key=lambda i: -psi.weights[i])
    B = hstack([psi.basis.col(i) for i in order])
    Y = B * jordan_form(psi.domain, (n,)) * inverse(B)
    if nilpotent_partition(Y) != (n,):
        raise InconsistencyError("constructed element is not regular")
    if not ParabolicData(psi).contains(Y):
        raise InconsistencyError("element is outside Lie P(psi)")
    return Y


def parabolic_block_type(psi: Cocharacter) -> tuple:
    """Levi block sizes of P(psi): weight multiplicities, by descending
    weight.  All ones means P(psi) is a Borel."""
    ws = sorted(set(psi.weights), reverse=True)
    return tuple(sum(1 for x in psi.weights if x == w) for w in ws)


def orbit_summary(p: int, lam) -> dict:
    """One orbit-table row, assembled from the exact computations.  The
    standard basis is a Jordan basis of the representative, so the
    associated cocharacter is diagonal with the block weights."""
    lam = check_partition(lam)
    dom = Fp(p)
    X = rep_from_partition(dom, lam)
    n = X.rows
    oreport = order_formula_report(p, lam)
    weights = block_weights(lam)
    psi = Cocharacter.diagonal(dom, weights)
    return {
        "partition": list(lam),
        "dim_c": n * n - rank(ad_operator(X)),
        "psi_weights": list(weights),
        "max_ad_weight": oreport.max_ad_weight,
        "unip_order": oreport.unip_order,
        "x_p_zero": oreport.x_p_zero,
        "distinguished": len(lam) == 1,
        "parabolic_block_type": list(parabolic_block_type(psi)),
    }
