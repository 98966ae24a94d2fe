"""Optimal SL2-homomorphisms for GL_n.

An optimal homomorphism for a nilpotent X restricts on the diagonal
torus to a cocharacter associated to X.  For X with Jordan blocks of
sizes d_1 >= d_2 >= ... (all at most p in characteristic p) the
construction is blockwise: the chain of length d carries the degree
d-1 symmetric power of the plane in the divided-power basis, scaled so
that the standard nilpotent generator maps exactly to the Jordan
block.  With that normalization the unipotent one-parameter subgroups
align with the truncated exponential on the nose.
"""

from __future__ import annotations

import itertools
import random
from functools import cached_property, partial
from math import comb, factorial, lcm
from operator import mul
from typing import NamedTuple

from .cochar import Cocharacter, ParabolicData, levi_limit
from .errors import DomainError, InconsistencyError, PreconditionError
from .jordan import jordan_block, nilpotent_jordan
from .matrices import (DEFAULT_BUDGET, Mat, _meter, _pivot_columns, _tally,
                       ad_operator, bracket, combination_walk, commutes,
                       det, devectorize, independent, intertwiner_counts,
                       lin_comb, rank_nullspace, rref, same_span)
from .orbits import block_weights, is_associated
from .partitions import admissible, check_partition
from .scalars import Fp, FpDomain
from .springer import eps_exp

# -- SL2 bookkeeping ----------------------------------------------------


def sl2_x1(domain, t) -> Mat:
    return Mat.from_rows(domain, [[1, t], [0, 1]])


def sl2_y1(domain, t) -> Mat:
    return Mat.from_rows(domain, [[1, 0], [t, 1]])


def sl2_torus(domain, t) -> Mat:
    t = domain.of(t)
    return Mat.diagonal(domain, [t, domain.inv(t)])


def primitive_root(p: int) -> int:
    """Smallest generator of the cyclic group F_p^*."""
    if p == 2:
        return 1
    for g in range(2, p):
        seen = set()
        v = 1
        for _ in range(p - 1):
            v = (v * g) % p
            seen.add(v)
        if len(seen) == p - 1:
            return g
    raise InconsistencyError("no primitive root found mod %d" % p)


def sl2_generators(domain):
    """x1(1), y1(1), then the torus element at a primitive root mod p
    for p > 2, or at 2 over Q.  They generate SL_2(F_p) over F_p and a
    Zariski-dense subgroup over Q, so two homomorphisms that agree on
    them agree everywhere."""
    gens = [sl2_x1(domain, 1), sl2_y1(domain, 1)]
    if domain.p is None:
        gens.append(sl2_torus(domain, 2))
    elif domain.p > 2:
        gens.append(sl2_torus(domain, primitive_root(domain.p)))
    return gens


def _sl2_element(p: int, index: int) -> Mat:
    """The element at position index of SL_2(F_p) listed in
    lexicographic (a, b, c, d) entry order, without building the list.
    The p(p-1) elements with a = 0 come first, ordered by b != 0 (then
    c = -1/b) and d; each a != 0 follows with p^2 elements, ordered by
    (b, c), with d = (1 + bc)/a."""
    head = p * (p - 1)
    if index < head:
        a, d = 0, index % p
        b = 1 + index // p
        c = -pow(b, -1, p) % p
    else:
        a, r = divmod(index - head, p * p)
        a += 1
        b, c = divmod(r, p)
        d = (1 + b * c) * pow(a, -1, p) % p
    return Mat(Fp(p), 2, 2, (a, b, c, d))


def sl2_sample(domain, rnd) -> Mat:
    """Seeded random element of SL_2: uniform over F_p, a short random
    word in the generators over Q."""
    if isinstance(domain, FpDomain):
        p = domain.p
        return _sl2_element(p, rnd.randrange(p ** 3 - p))
    g = Mat.identity(domain, 2)
    for _ in range(rnd.randrange(1, 5)):
        kind = rnd.randrange(3)
        if kind == 0:
            g = g * sl2_x1(domain, rnd.randint(-3, 3))
        elif kind == 1:
            g = g * sl2_y1(domain, rnd.randint(-3, 3))
        else:
            g = g * sl2_torus(domain, rnd.choice([1, 2, 3, -1, -2]))
    return g


# -- symmetric powers in the divided-power basis ------------------------

def sym_power_rep(m: int, g: Mat) -> Mat:
    """Matrix of g on the degree-m symmetric power of the plane, in the
    divided-power basis e_j = v1^(m-j) v2^j / j!.

    The scaling makes d(x1) exactly the Jordan block J_{m+1}, so it
    needs j! invertible, hence m <= p-1 over F_p.  Entry (i, j) is
    (i!/j!) * sum over k+l=i of C(m-j, k) C(j, l) a^(m-j-k) c^k
    b^(j-l) d^l for g = [[a, b], [c, d]].

    Every term is homogeneous of degree m in a, b, c, d, so the sum s
    is taken in integers on the integer form of g, numerators over
    `den`, with unreduced power tables.  The entry is s i! (m!/j!) over
    the one denominator den^m m!, and Mat.from_ints normalises it: by
    the gcd over Q, by (m!)^-1 mod p over F_p (den is 1 there).
    """
    if m < 0:
        raise DomainError("negative symmetric power")
    if g.rows != 2 or g.cols != 2:
        raise DomainError("2x2 matrix expected")
    dom = g.domain
    p = dom.p
    if p is not None and m > p - 1:
        raise PreconditionError(
            "degree %d needs %d! invertible, impossible for p = %d"
            % (m, m, p))
    (a, b, c, d), den = g.num, g.den
    tables = []
    for x in (a, b, c, d):
        t = [1]
        for _ in range(m):
            t.append(t[-1] * x)
        tables.append(t)
    pa, pb, pc, pd = tables
    data = []
    for i in range(m + 1):
        for j in range(m + 1):
            s = 0
            for k in range(max(0, i - j), min(i, m - j) + 1):
                l = i - k
                s += (comb(m - j, k) * comb(j, l) * pa[m - j - k] * pc[k]
                      * pb[j - l] * pd[l])
            data.append(s * factorial(i) * (factorial(m) // factorial(j)))
    return Mat.from_ints(dom, m + 1, m + 1, data, den ** m * factorial(m))


def sym_power_dX(domain, m: int) -> Mat:
    """Tangent of t -> sym_power_rep(m, x1(t)): the Jordan block."""
    return jordan_block(domain, m + 1)


def sym_power_dH(domain, m: int) -> Mat:
    return Mat.diagonal(domain, [m - 2 * j for j in range(m + 1)])


def sym_power_dY(domain, m: int) -> Mat:
    """Tangent of t -> sym_power_rep(m, y1(t)): subdiagonal entries
    (m-j)(j+1)."""
    n = m + 1
    data = [domain.zero()] * (n * n)
    for j in range(m):
        data[(j + 1) * n + j] = domain.of((m - j) * (j + 1))
    return Mat(domain, n, n, data)


# -- the homomorphisms --------------------------------------------------

class Sl2Triple(NamedTuple):
    X: Mat
    H: Mat
    Y: Mat


class OptimalSL2Hom:
    """Blockwise symmetric-power homomorphism conjugated into place.

    block_sizes is the partition (parts = Jordan block sizes, largest
    first); conjugator columns are the Jordan basis the blocks act on.
    psi, the torus cocharacter on that basis with the block weights,
    is built once; X, radical_basis, radical_coords and
    generator_images are computed on first use.
    """

    def __init__(self, block_sizes, conjugator: Mat):
        self.block_sizes = check_partition(block_sizes)
        self.conjugator = conjugator
        self.domain = conjugator.domain
        n = sum(self.block_sizes)
        if conjugator.rows != n:
            raise DomainError("conjugator size %d does not match partition "
                              "sum %d" % (conjugator.rows, n))
        if isinstance(self.domain, FpDomain) and \
                not admissible(self.block_sizes, self.domain.p):
            raise PreconditionError(
                "largest part %d exceeds p = %d, no optimal homomorphism"
                % (self.block_sizes[0], self.domain.p))
        # the restriction to the diagonal torus; its coordinate change
        # puts every block-diagonal matrix into place
        self.psi = Cocharacter(conjugator, block_weights(self.block_sizes))

    @cached_property
    def X(self) -> Mat:
        """The nilpotent d(phi) of the x1-direction."""
        return _d_part(self, sym_power_dX)

    @cached_property
    def radical_basis(self) -> list:
        """A basis of the Lie algebra of R_u(C(X))."""
        return positive_commutant_basis(self.X, self.psi)

    @cached_property
    def radical_coords(self) -> tuple:
        """radical_basis in psi's eigenbasis coordinates."""
        return tuple(self.psi.coords(B) for B in self.radical_basis)

    @cached_property
    def generator_images(self) -> tuple:
        """The images of sl2_generators(domain), in that order."""
        return tuple(eval_hom(self, g) for g in sl2_generators(self.domain))

    @property
    def n(self) -> int:
        return self.conjugator.rows

    @property
    def p(self):
        return self.domain.p

    def __eq__(self, other):
        return (isinstance(other, OptimalSL2Hom)
                and self.block_sizes == other.block_sizes
                and self.conjugator == other.conjugator)

    def __repr__(self):
        return "OptimalSL2Hom(partition=%r, %r)" % (self.block_sizes,
                                                    self.domain)


def build_optimal(X: Mat) -> OptimalSL2Hom:
    """Optimal homomorphism with d(x1-direction) = X, on a Jordan basis
    of X.  Over F_p all parts must be at most p."""
    jd = nilpotent_jordan(X)
    phi = OptimalSL2Hom(jd.partition, jd.basis)
    if phi.X != X:
        raise InconsistencyError("construction does not differentiate to X")
    return phi


def eval_hom(phi: OptimalSL2Hom, g: Mat) -> Mat:
    """phi(g): the block-diagonal symmetric-power image of g, each block
    built once per distinct part size, put into place by phi.psi."""
    if g.domain != phi.domain:
        raise DomainError("mixed domains")
    sizes = phi.block_sizes
    reps = {dd: sym_power_rep(dd - 1, g) for dd in set(sizes)}
    return phi.psi.from_coords(Mat.block_diag(
        phi.domain, [reps[dd] for dd in sizes]))


def _d_part(phi: OptimalSL2Hom, block) -> Mat:
    """One differential of phi: the block-diagonal matrix of
    block(domain, d - 1) over the parts d, conjugated into place.  block
    is sym_power_dX, sym_power_dH or sym_power_dY."""
    dom = phi.domain
    return phi.psi.from_coords(Mat.block_diag(
        dom, [block(dom, dd - 1) for dd in phi.block_sizes]))


def d_hom(phi: OptimalSL2Hom) -> Sl2Triple:
    return Sl2Triple(X=phi.X, H=_d_part(phi, sym_power_dH),
                     Y=_d_part(phi, sym_power_dY))


def conjugate_hom(phi: OptimalSL2Hom, g: Mat) -> OptimalSL2Hom:
    """The twist Int(g) o phi."""
    return OptimalSL2Hom(phi.block_sizes, g * phi.conjugator)


class OptimalVerifyReport(NamedTuple):
    dx_matches: bool
    triple_brackets: bool
    torus_associated: bool
    exp_aligned: bool
    multiplicative: bool

    @property
    def all_passed(self) -> bool:
        return (self.dx_matches and self.triple_brackets
                and self.torus_associated and self.exp_aligned
                and self.multiplicative)


def verify_optimal(phi: OptimalSL2Hom, X: Mat,
                   rnd=None) -> OptimalVerifyReport:
    """Direct checks of optimality: tangent data, the sl2-triple, the
    associated torus restriction, and the value checks of _value_checks
    with pairs drawn from rnd."""
    if rnd is None:
        rnd = random.Random(7)
    dom = phi.domain
    triple = d_hom(phi)
    two = dom.of(2)
    triple_brackets = (
        bracket(triple.X, triple.Y) == triple.H
        and bracket(triple.H, triple.X) == triple.X.scale(two)
        and bracket(triple.H, triple.Y) == triple.Y.scale(dom.neg(two)))
    exp_aligned, multiplicative, torus_agrees = _value_checks(
        partial(eval_hom, phi), X, phi.psi, rnd)
    return OptimalVerifyReport(
        dx_matches=triple.X == X, triple_brackets=triple_brackets,
        torus_associated=is_associated(phi.psi, X) and torus_agrees,
        exp_aligned=exp_aligned, multiplicative=multiplicative)


def _test_points(dom):
    """The values of t at which x1(t) and the torus element at t are
    evaluated: every t over F_p (every t != 0 on the torus); t in
    {-2, ..., 3} and torus t in {1, 2} over Q."""
    if isinstance(dom, FpDomain):
        return range(dom.p), range(1, dom.p)
    return [dom.of(v) for v in range(-2, 4)], [1, dom.of(2)]


def aligns_with_exp(hom, X: Mat) -> bool:
    """hom(x1(t)) = eps(tX) at every test point t; hom maps SL_2
    matrices to GL_n matrices."""
    dom = X.domain
    return all(hom(sl2_x1(dom, t)) == eps_exp(X.scale(t))
               for t in _test_points(dom)[0])


def _value_checks(hom, X: Mat, psi: Cocharacter, rnd):
    """The three checks of a homomorphism's values, as (exp_aligned,
    multiplicative, torus_agrees): hom(x1(t)) = eps(tX), hom(gh) =
    hom(g) hom(h) on 12 pairs drawn from rnd, and hom on the torus
    equals psi at every test point."""
    dom = X.domain
    aligned = aligns_with_exp(hom, X)
    multiplicative = True
    for _ in range(12):
        g = sl2_sample(dom, rnd)
        h = sl2_sample(dom, rnd)
        if hom(g * h) != hom(g) * hom(h):
            multiplicative = False
            break
    torus_agrees = all(hom(sl2_torus(dom, t)) == psi.at(t)
                       for t in _test_points(dom)[1])
    return aligned, multiplicative, torus_agrees


# -- conjugacy ----------------------------------------------------------

def positive_commutant_basis(X: Mat, psi: Cocharacter):
    """Basis of the positive-weight part of the centralizer of X in
    gl_n; 1 + this space is the unipotent radical of C(X)."""
    n = X.rows
    _, null = rank_nullspace(ad_operator(X))
    comps = [comp for v in null for comp in
             psi.components(devectorize(v, n), lambda w: w > 0).values()]
    return [comps[i] for i in independent(comps)]


def conjugate_optimal(phi1: OptimalSL2Hom, phi2: OptimalSL2Hom) -> Mat:
    """The unique element of the unipotent radical of C(X) conjugating
    phi1 to phi2, for two optimal homomorphisms of the same X.

    Writes x = 1 + sum c_i B_i over phi1.radical_basis.  x carries the
    torus restriction of phi1 to that of phi2 exactly when it maps each
    weight space of psi1 into the one of psi2 of the same weight, that
    is when C2^-1 x C1 (C1, C2 the eigenbases) vanishes at every entry
    (r, c) with psi2.weights[r] != psi1.weights[c].  With R = C2^-1 C1
    that is R + sum c_i R coords1(B_i), an affine system in the c_i.
    One elimination of the augmented matrix gives the solution and the
    rank; full column rank certifies that the transporter in the
    radical is unique.  The result is verified on generators.
    """
    if phi1.X != phi2.X:  # Mat equality includes the domain
        raise DomainError("the homomorphisms differentiate to different "
                          "nilpotents")
    dom = phi1.domain
    n = phi1.n
    psi1, psi2 = phi1.psi, phi2.psi
    if set(psi1.weights) != set(psi2.weights):
        raise InconsistencyError("torus weight sets differ")
    basis = phi1.radical_basis
    k = len(basis)
    R = psi2.basis_inv * psi1.basis
    # column i holds R coords1(B_i) at the entries whose weights differ,
    # the last column -R there, all over one common denominator
    cols = [R * D for D in phi1.radical_coords] + [-R]
    den = lcm(*(M.den for M in cols))
    scaled = [(M.num, den // M.den) for M in cols]
    off = [r * n + c for r, w2 in enumerate(psi2.weights)
           for c, w1 in enumerate(psi1.weights) if w2 != w1]
    rk, piv, red = rref(Mat.from_ints(
        dom, len(off), k + 1,
        [num[i] * f for i in off for num, f in scaled], den))
    if piv and piv[-1] == k:
        raise InconsistencyError("transporter system has no solution in "
                                 "the radical")
    if rk < k:
        raise InconsistencyError("transporter in the radical is not unique: "
                                 "rank %d of %d" % (rk, k))
    x = radical_element(dom, n, basis, [red[i, k] for i in range(k)])
    if not hom_conjugators_agree(phi1, phi2, x):
        raise InconsistencyError(
            "transporter solution does not conjugate the homomorphisms")
    return x


def radical_cochar_transporters(phi1: OptimalSL2Hom, phi2: OptimalSL2Hom,
                                budget: int = DEFAULT_BUDGET):
    """Every radical_element x, c in F_p^k in product order, with Int(x)
    carrying psi1 to psi2: x P1 = P2 x for the projections onto each
    weight space, by one combination_walk (x is 1 + nilpotent, hence
    invertible), which raises BudgetError once it passes the budget.
    Over F_p only."""
    dom, basis = phi1.domain, phi1.radical_basis
    if not isinstance(dom, FpDomain):
        raise DomainError("exhaustive search needs a finite field")
    if phi1.X != phi2.X:  # Mat equality includes the domain
        raise DomainError("the homomorphisms differentiate to different "
                          "nilpotents")
    psi1, psi2 = phi1.psi, phi2.psi
    projections = [(psi1.weight_projection(w), psi2.weight_projection(w))
                   for w in sorted(set(psi1.weights))]
    walk = combination_walk(dom.p, phi1.n, basis, [projections], budget)
    return [radical_element(dom, phi1.n, basis, c) for c, _ in walk]


def radical_element(domain, n: int, basis, coeffs) -> Mat:
    """x = 1 + c_1 B_1 + ... + c_k B_k."""
    return lin_comb(Mat.identity(domain, n), coeffs, basis)


def _conjugator_tests(phi1: OptimalSL2Hom, phi2s):
    """Per twist phi2, the pairs (phi1(g), phi2(g)) of generator_images
    for g = y1(1), x1(1), which generate SL_2(F_p).  y1(1) comes first:
    when phi1 and phi2 differentiate to the same X, every radical element
    has x phi1(x1(1)) = phi2(x1(1)) x, as both are eps(X)."""
    x1, y1 = phi1.generator_images[:2]
    return [[(y1, phi2.generator_images[1]), (x1, phi2.generator_images[0])]
            for phi2 in phi2s]


def radical_conjugator_counts(phi1: OptimalSL2Hom, phi2s, basis,
                              budget: int = DEFAULT_BUDGET) -> list:
    """For each phi2 in phi2s, how many radical_element x, c in F_p^k,
    have Int(x) o phi1 = phi2 on x1(1) and y1(1), by one combination_walk
    with a side per twist (x is 1 + nilpotent, hence invertible), which
    raises BudgetError once it passes the budget."""
    sides = _conjugator_tests(phi1, phi2s)
    walk = combination_walk(phi1.domain.p, phi1.n, basis, sides, budget)
    return _tally(walk, len(sides))[1]


def hom_conjugators_agree(phi1, phi2, x) -> bool:
    """Whether Int(x) o phi1 = phi2, tested as x phi1(g) = phi2(g) x for
    invertible x on sl2_generators, by products on the two
    homomorphisms' generator_images."""
    return all(x * A == B * x for A, B in
               zip(phi1.generator_images, phi2.generator_images))


# -- centralizer comparisons --------------------------------------------

class ExpCentralizerReport(NamedTuple):
    p: int
    n: int
    nullspaces_agree: bool
    group_agree: bool
    group_size: int


def exp_kernels_agree(X: Mat) -> bool:
    """The Lie-level fixed spaces agree: the kernel of ad X equals the
    kernel of Ad(eps(tX)) - 1 for every t in F_p^*.  That kernel is
    ker ad(u) for u = eps(tX), as Ad(u)M - M = [u, M] u^-1, so no
    inverse or operator of M -> u M u^-1 is built.

    The nullspaces are compared, not ranks.  Testing ker A = ker B as
    rank A = rank B = rank [A; B] gives the same verdicts, but under a
    planted _pivot_columns fault that never clears the last row it
    falsified none of the 44 default epsilon records and none of the 22
    centralizer records; this route falsifies 12 and 3, and
    test_planted_forward_rank_faults_are_caught requires the 12."""
    dom = X.domain
    if not isinstance(dom, FpDomain):
        raise DomainError("finite field expected")
    _, null_ad = rank_nullspace(ad_operator(X))
    agree = True
    for t in range(1, dom.p):
        _, null_u = rank_nullspace(ad_operator(eps_exp(X.scale(t))))
        if not same_span(null_ad, null_u):
            agree = False
    return agree


def exp_centralizer_check(X: Mat,
                          budget: int = DEFAULT_BUDGET) -> ExpCentralizerReport:
    """Centralizers of X and of eps(tX) coincide, t nonzero.

    Compares the Lie-level fixed spaces (exp_kernels_agree) and the
    finite group centralizers elementwise, by one intertwiner_counts
    walk with the sides [X] and [eps(tX)] for each t: C(X) has
    counts[0] elements, and the centralizers agree when every side
    counts the whole union.  The walk visits only prefixes that some
    side's centralizer still completes, and counts every element of
    GL_n(F_p) that lies in one; below the last row any side's forms
    read it counts completions without visiting them, so for X = 0 it
    is one count of GL_n(F_p).  Raises BudgetError once the walk passes
    the budget.
    """
    agree = exp_kernels_agree(X)
    p = X.domain.p
    n = X.rows
    sides = [[(X, X)]] + [[(u, u)] for u in
                          (eps_exp(X.scale(t)) for t in range(1, p))]
    union, counts = intertwiner_counts(n, p, sides, budget)
    return ExpCentralizerReport(p=p, n=n, nullspaces_agree=agree,
                                group_agree=all(c == union for c in counts),
                                group_size=counts[0])


class HomCentralizerReport(NamedTuple):
    p: int
    n: int
    equal: bool
    image_centralizer_size: int
    pair_centralizer_size: int


def hom_centralizer_check(phi: OptimalSL2Hom,
                          budget: int = DEFAULT_BUDGET) -> HomCentralizerReport:
    """C(image of phi) = C(X) cap C(torus image), elementwise over F_p.

    The right side treats the torus image scheme-theoretically: g
    centralizes it when g commutes with every weight projection.  One
    intertwiner_counts walk takes the sides [generator_images] and
    [X and the weight projections]; the sets are equal when both sizes
    equal the size of their union.  Raises BudgetError once the walk
    passes the budget.
    """
    dom = phi.domain
    if not isinstance(dom, FpDomain):
        raise DomainError("finite field expected")
    p = dom.p
    n = phi.n
    psi = phi.psi
    projections = [psi.weight_projection(w) for w in sorted(set(psi.weights))]
    union, (size_l, size_r) = intertwiner_counts(n, p, [
        [(G, G) for G in phi.generator_images],
        [(M, M) for M in (phi.X, *projections)]], budget)
    return HomCentralizerReport(p=p, n=n, equal=size_l == size_r == union,
                                image_centralizer_size=size_l,
                                pair_centralizer_size=size_r)


# -- Levi containment and limits ----------------------------------------

class LeviContainmentReport(NamedTuple):
    commutes_with_isotypic_torus: bool
    dets_one_on_isotypic_blocks: bool

    @property
    def contained(self) -> bool:
        return (self.commutes_with_isotypic_torus
                and self.dets_one_on_isotypic_blocks)


def levi_containment_check(phi: OptimalSL2Hom) -> LeviContainmentReport:
    """Image lies in the derived group of the Levi C(S): commutes with
    the block-scalar torus S of the centralizer (blocks grouped by
    Jordan size) and has determinant 1 on each isotypic piece, tested
    on sl2_generators and 8 seeded random elements."""
    rnd = random.Random(13)
    dom = phi.domain
    n = phi.n
    sizes = phi.block_sizes
    distinct = sorted(set(sizes), reverse=True)
    indicator = {}
    pos = 0
    for dd in sizes:
        for i in range(pos, pos + dd):
            indicator.setdefault(dd, []).append(i)
        pos += dd
    projectors = {}
    for dd in distinct:
        diag = [1 if i in indicator[dd] else 0 for i in range(n)]
        projectors[dd] = phi.psi.from_coords(Mat.diagonal(dom, diag))

    gens = sl2_generators(dom)
    for _ in range(8):
        gens.append(sl2_sample(dom, rnd))

    torus_commutes = True
    dets_one = True
    for g in gens:
        img = eval_hom(phi, g)
        base = phi.psi.coords(img)
        for dd in distinct:
            if not commutes(img, projectors[dd]):
                torus_commutes = False
            idx = indicator[dd]
            sub = Mat(dom, len(idx), len(idx),
                      [base[r, c] for r in idx for c in idx])
            if det(sub) != dom.one():
                dets_one = False
    return LeviContainmentReport(commutes_with_isotypic_torus=torus_commutes,
                                 dets_one_on_isotypic_blocks=dets_one)


class LimitHom:
    """Composition of an optimal homomorphism with the Levi limit along
    a cocharacter gamma whose parabolic contains the image."""

    def __init__(self, phi: OptimalSL2Hom, gamma: Cocharacter):
        if gamma.domain != phi.domain or gamma.n != phi.n:
            raise DomainError("cocharacter does not match the homomorphism")
        psi = phi.psi
        for w1 in set(psi.weights):
            P1 = psi.weight_projection(w1)
            for w2 in set(gamma.weights):
                P2 = gamma.weight_projection(w2)
                if not commutes(P1, P2):
                    raise PreconditionError(
                        "gamma does not centralize the torus image")
        pd = ParabolicData(gamma)
        if not pd.contains(phi.X):
            raise PreconditionError("d(phi) leaves Lie P(gamma)")
        if isinstance(phi.domain, FpDomain):
            for t in range(phi.domain.p):
                if not (pd.contains(eval_hom(phi, sl2_x1(phi.domain, t)))
                        and pd.contains(eval_hom(phi, sl2_y1(phi.domain, t)))):
                    raise PreconditionError(
                        "image of phi is not contained in P(gamma)")
        self.phi = phi
        self.gamma = gamma
        self.X0 = gamma.component(phi.X, 0)

    def eval(self, g: Mat) -> Mat:
        return levi_limit(self.gamma, eval_hom(self.phi, g))


class LimitReport(NamedTuple):
    multiplicative: bool
    exp_aligned_with_X0: bool
    torus_unchanged: bool
    psi_associated_to_X0: bool

    @property
    def all_passed(self) -> bool:
        return (self.multiplicative and self.exp_aligned_with_X0
                and self.torus_unchanged and self.psi_associated_to_X0)


def deform_to_levi(phi: OptimalSL2Hom, gamma: Cocharacter) -> LimitHom:
    return LimitHom(phi, gamma)


def verify_limit(lim: LimitHom) -> LimitReport:
    """The limit homomorphism passes the value checks of _value_checks
    with the weight-0 part X0 of X and the same torus restriction, and
    that restriction is associated to X0."""
    psi = lim.phi.psi
    aligned, multiplicative, torus_unchanged = _value_checks(
        lim.eval, lim.X0, psi, random.Random(17))
    return LimitReport(multiplicative=multiplicative,
                       exp_aligned_with_X0=aligned,
                       torus_unchanged=torus_unchanged,
                       psi_associated_to_X0=is_associated(psi, lim.X0))


# -- complete reducibility ----------------------------------------------

def _subspaces(p: int, n: int):
    """All subspaces of F_p^n as reduced column echelon bases, by
    dimension, pivots lex.  Returns a list of (dim, list of column
    tuples)."""
    out = []
    for k in range(n + 1):
        if k == 0:
            out.append((0, []))
            continue
        for pivots in itertools.combinations(range(n), k):
            free_pos = []
            for j, pr in enumerate(pivots):
                for r in range(pr + 1, n):
                    if r not in pivots:
                        free_pos.append((r, j))
            for vals in itertools.product(range(p), repeat=len(free_pos)):
                cols = [[0] * n for _ in range(k)]
                for j, pr in enumerate(pivots):
                    cols[j][pr] = 1
                for (r, j), v in zip(free_pos, vals):
                    cols[j][r] = v
                out.append((k, [tuple(c) for c in cols]))
    return out


class GcrReport(NamedTuple):
    p: int
    n: int
    n_subspaces: int
    n_invariant: int
    semisimple: bool
    offending: Mat | None


def _distinct_generators(generators) -> list:
    """The generators that can move a subspace, each tested once: the
    distinct ones (equal by value) other than the identity, in order."""
    return [g for g in dict.fromkeys(generators) if not g.is_identity()]


def gcr_check(generators, budget: int = DEFAULT_BUDGET) -> GcrReport:
    """Semisimplicity of the natural module for the group generated by
    the given invertible matrices over F_p: every invariant subspace
    has an invariant complement, by exhaustive subspace enumeration.
    It visits every subspace, so it charges their number, the sum of
    the Gaussian binomials [n, k]_p, once before it builds them (past
    the budget, BudgetError), and a different count of what it builds
    raises InconsistencyError.  Raises DomainError unless every
    generator is n x n over the first one's F_p.  After that check,
    invariance is tested once per distinct non-identity generator
    (_distinct_generators): the identity and a repeat generate nothing
    new, so under the images of the partition 1^n every subspace is
    invariant without a test."""
    if not generators:
        raise DomainError("at least one generator required")
    dom = generators[0].domain
    if not isinstance(dom, FpDomain):
        raise DomainError("finite field expected")
    p = dom.p
    n = generators[0].rows
    for g in generators:
        if g.domain != dom or g.rows != n or g.cols != n:
            raise DomainError("generators must be %dx%d over F_%d"
                              % (n, n, p))
    count = 0
    for k in range(n + 1):
        c = 1
        for i in range(k):
            c = c * (p ** (n - i) - 1) // (p ** (i + 1) - 1)
        count += c
    _meter(budget)(count)

    subspaces = _subspaces(p, n)
    if len(subspaces) != count:
        raise InconsistencyError("%d subspaces of F_%d^%d enumerated, the "
                                 "Gaussian binomials give %d"
                                 % (len(subspaces), p, n, count))

    # the bases are reduced column echelon, so v lies in a span exactly
    # when v = sum_j v[pivot_j] col_j; images use the integer rows
    gens = [[g.num[i * n:(i + 1) * n] for i in range(n)]
            for g in _distinct_generators(generators)]

    def inside(v, cols, pivots):
        return all((x - sum(v[q] * c[i] for q, c in zip(pivots, cols))) % p
                   == 0 for i, x in enumerate(v))

    proper = subspaces[1:-1]  # 0 < k < n; the other two are invariant
    invariant = []
    inv_by_dim = {}
    for k, cols in proper:
        pivots = [c.index(1) for c in cols]
        if all(inside([sum(map(mul, row, c)) for row in g], cols, pivots)
               for g in gens for c in cols):
            invariant.append((k, cols))
            inv_by_dim.setdefault(k, []).append(cols)

    def direct(cols, cols2):
        return len(_pivot_columns([list(row) for row in zip(*cols, *cols2)],
                                  p)) == n

    # an invariant subspace of dimension n - k is a complement of one of
    # dimension k exactly when the joined bases are independent
    offending = None
    for k, cols in invariant:
        if not any(direct(cols, cols2) for cols2 in inv_by_dim.get(n - k, ())):
            offending = Mat(dom, n, k, [c[i] for i in range(n) for c in cols])
            break
    n_invariant = len(subspaces) - len(proper) + len(invariant)
    return GcrReport(p=p, n=n, n_subspaces=len(subspaces),
                     n_invariant=n_invariant, semisimple=offending is None,
                     offending=offending)


def gcr_check_hom(phi: OptimalSL2Hom,
                  budget: int = DEFAULT_BUDGET) -> GcrReport:
    return gcr_check(phi.generator_images, budget=budget)
