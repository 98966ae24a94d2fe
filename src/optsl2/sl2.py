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
from dataclasses import dataclass
from math import comb

from .cochar import Cocharacter, levi_limit, parabolic_data
from .errors import (BudgetError, DomainError, InconsistencyError,
                     PreconditionError)
from .jordan import jordan_block, nilpotent_jordan
from .matrices import (DEFAULT_BUDGET, IncrementalSpan, Mat, ad_operator,
                       bracket, commutes, conj_operator, det, devectorize,
                       enumerate_group, inverse, mul_operator, rank_nullspace,
                       same_span, vstack)
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


def sl2_X1(domain) -> Mat:
    return Mat.from_rows(domain, [[0, 1], [0, 0]])


def sl2_Y1(domain) -> Mat:
    return Mat.from_rows(domain, [[0, 0], [1, 0]])


def sl2_H1(domain) -> Mat:
    return Mat.diagonal(domain, [1, -1])


def sl2_elements(p: int):
    """All of SL_2(F_p) in lexicographic entry order."""
    dom = Fp(p)
    out = []
    for a, b, c, d in itertools.product(range(p), repeat=4):
        if (a * d - b * c) % p == 1:
            out.append(Mat(dom, 2, 2, (a, b, c, d)))
    return out


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


def sl2_sample(domain, rnd) -> Mat:
    """Seeded random element of SL_2: uniform over F_p, a short random
    word in the generators over Q."""
    if isinstance(domain, FpDomain):
        elements = sl2_elements(domain.p)
        return elements[rnd.randrange(len(elements))]
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

def _power(domain, x, e: int):
    v = domain.one()
    for _ in range(e):
        v = domain.mul(v, x)
    return v


def sym_power_rep(m: int, g: Mat) -> Mat:
    """Matrix of g on the degree-m symmetric power of the plane, in the
    divided-power basis e_j = v1^(m-j) v2^j / j!.

    The scaling makes d(x1) exactly the Jordan block J_{m+1}, so it
    needs j! invertible, hence m <= p-1 over F_p.  Entry (i, j) is
    (i!/j!) * sum over k+l=i of C(m-j, k) C(j, l) a^(m-j-k) c^k
    b^(j-l) d^l for g = [[a, b], [c, d]].
    """
    if m < 0:
        raise DomainError("negative symmetric power")
    if g.rows != 2 or g.cols != 2:
        raise DomainError("2x2 matrix expected")
    dom = g.domain
    if isinstance(dom, FpDomain) and m > dom.p - 1:
        raise PreconditionError(
            "degree %d needs %d! invertible, impossible for p = %d"
            % (m, m, dom.p))
    a, b = g[0, 0], g[0, 1]
    c, d = g[1, 0], g[1, 1]
    fact = [dom.one()]
    for i in range(1, m + 1):
        fact.append(dom.mul(fact[-1], dom.of(i)))
    data = []
    for i in range(m + 1):
        for j in range(m + 1):
            s = dom.zero()
            for k in range(0, min(i, m - j) + 1):
                l = i - k
                if l > j:
                    continue
                term = dom.mul(dom.of(comb(m - j, k)), dom.of(comb(j, l)))
                term = dom.mul(term, _power(dom, a, m - j - k))
                term = dom.mul(term, _power(dom, c, k))
                term = dom.mul(term, _power(dom, b, j - l))
                term = dom.mul(term, _power(dom, d, l))
                s = dom.add(s, term)
            s = dom.mul(s, dom.mul(fact[i], dom.inv(fact[j])))
            data.append(s)
    return Mat(dom, m + 1, m + 1, data)


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

@dataclass(frozen=True)
class Sl2Triple:
    X: Mat
    H: Mat
    Y: Mat


class OptimalSL2Hom:
    """Blockwise symmetric-power homomorphism conjugated into place.

    block_sizes is the partition (parts = Jordan block sizes, largest
    first); conjugator columns are the Jordan basis the blocks act on.
    """

    def __init__(self, block_sizes, conjugator: Mat):
        self.block_sizes = check_partition(block_sizes)
        self.conjugator = conjugator
        self.conjugator_inv = inverse(conjugator)
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
    if d_hom(phi).X != X:
        raise InconsistencyError("construction does not differentiate to X")
    return phi


def eval_hom(phi: OptimalSL2Hom, g: Mat) -> Mat:
    if g.domain != phi.domain:
        raise DomainError("mixed domains")
    blocks = [sym_power_rep(dd - 1, g) for dd in phi.block_sizes]
    return phi.conjugator * Mat.block_diag(phi.domain, blocks) \
        * phi.conjugator_inv


def d_hom(phi: OptimalSL2Hom) -> Sl2Triple:
    dom = phi.domain
    bx = [sym_power_dX(dom, dd - 1) for dd in phi.block_sizes]
    bh = [sym_power_dH(dom, dd - 1) for dd in phi.block_sizes]
    by = [sym_power_dY(dom, dd - 1) for dd in phi.block_sizes]
    C, Ci = phi.conjugator, phi.conjugator_inv
    return Sl2Triple(X=C * Mat.block_diag(dom, bx) * Ci,
                     H=C * Mat.block_diag(dom, bh) * Ci,
                     Y=C * Mat.block_diag(dom, by) * Ci)


def hom_torus_cochar(phi: OptimalSL2Hom) -> Cocharacter:
    """Restriction of phi to the diagonal torus, as a cocharacter."""
    return Cocharacter(phi.conjugator, block_weights(phi.block_sizes))


def conjugate_hom(phi: OptimalSL2Hom, g: Mat) -> OptimalSL2Hom:
    """The twist Int(g) o phi."""
    return OptimalSL2Hom(phi.block_sizes, g * phi.conjugator)


@dataclass(frozen=True)
class OptimalVerifyReport:
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


def verify_optimal(phi: OptimalSL2Hom, X: Mat, rnd=None,
                   samples: int = 12) -> OptimalVerifyReport:
    """Direct checks of optimality: tangent data, associated torus
    restriction, exponential alignment, multiplicativity on samples."""
    if rnd is None:
        rnd = random.Random(7)
    dom = phi.domain
    triple = d_hom(phi)
    dx_matches = triple.X == X

    two = dom.of(2)
    triple_brackets = (
        bracket(triple.X, triple.Y) == triple.H
        and bracket(triple.H, triple.X) == triple.X.scale(two)
        and bracket(triple.H, triple.Y) == triple.Y.scale(dom.neg(two)))

    psi = hom_torus_cochar(phi)
    torus_associated = is_associated(psi, X)

    if isinstance(dom, FpDomain):
        ts = range(dom.p)
    else:
        ts = [dom.of(v) for v in (-2, -1, 0, 1, 2, 3)]
    exp_aligned = all(eval_hom(phi, sl2_x1(dom, t)) == eps_exp(X.scale(t))
                      for t in ts)

    multiplicative = True
    for _ in range(samples):
        g = sl2_sample(dom, rnd)
        h = sl2_sample(dom, rnd)
        if eval_hom(phi, g * h) != eval_hom(phi, g) * eval_hom(phi, h):
            multiplicative = False
            break
    torus_vals = [t for t in ([1, dom.of(2)] if not isinstance(dom, FpDomain)
                              else range(1, dom.p))]
    for t in torus_vals:
        if eval_hom(phi, sl2_torus(dom, t)) != psi.at(t):
            torus_associated = False
    return OptimalVerifyReport(dx_matches=dx_matches,
                               triple_brackets=triple_brackets,
                               torus_associated=torus_associated,
                               exp_aligned=exp_aligned,
                               multiplicative=multiplicative)


# -- conjugacy ----------------------------------------------------------

def positive_commutant_basis(X: Mat, psi: Cocharacter):
    """Basis of the positive-weight part of the centralizer of X in
    gl_n; 1 + this space is the unipotent radical of C(X)."""
    n = X.rows
    _, null = rank_nullspace(ad_operator(X))
    span = IncrementalSpan(X.domain)
    basis = []
    for v in null:
        M = devectorize(v, n)
        for w in psi.ad_weight_values():
            if w <= 0:
                continue
            comp = psi.component(M, w)
            if not comp.is_zero() and span.add_mat(comp):
                basis.append(comp)
    return basis


def weight_zero_commutant_basis(X: Mat, psi: Cocharacter):
    n = X.rows
    _, null = rank_nullspace(ad_operator(X))
    span = IncrementalSpan(X.domain)
    basis = []
    for v in null:
        M = devectorize(v, n)
        comp = psi.component(M, 0)
        if not comp.is_zero() and span.add_mat(comp):
            basis.append(comp)
    return basis


def _cochar_transport_conditions(psi1: Cocharacter, psi2: Cocharacter):
    """Linear conditions on M for M (psi1 weight space) = psi2 weight
    space, weight by weight: (1 - Q2_w) M Q1_w = 0."""
    dom = psi1.domain
    n = psi1.n
    ident = Mat.identity(dom, n)
    rows = []
    for w in sorted(set(psi1.weights)):
        Q1 = psi1.weight_projection(w)
        Q2 = psi2.weight_projection(w)
        rows.append(mul_operator(ident - Q2, Q1))
    return rows


def conjugate_optimal(phi1: OptimalSL2Hom, phi2: OptimalSL2Hom,
                      rnd=None, attempts: int = 64) -> Mat:
    """The unique element of the unipotent radical of C(X) conjugating
    phi1 to phi2, for two optimal homomorphisms of the same X.

    Solves the linear transporter system (commute with X, map torus
    weight spaces across), picks an invertible solution, strips its
    weight-0 part with the Levi limit, and verifies the result on
    generators.
    """
    if rnd is None:
        rnd = random.Random(7)
    if phi1.domain != phi2.domain:
        raise DomainError("mixed domains")
    dom = phi1.domain
    X = d_hom(phi1).X
    if d_hom(phi2).X != X:
        raise DomainError("the homomorphisms differentiate to different "
                          "nilpotents")
    n = phi1.n
    psi1 = hom_torus_cochar(phi1)
    psi2 = hom_torus_cochar(phi2)
    if set(psi1.weights) != set(psi2.weights):
        raise InconsistencyError("torus weight sets differ")

    system = [ad_operator(X)]
    system.extend(_cochar_transport_conditions(psi1, psi2))
    _, null = rank_nullspace(vstack(system))
    if not null:
        raise InconsistencyError("transporter system has no solutions")
    candidates = []
    total = Mat.zero(dom, n * n, 1)
    for v in null:
        total = total + v
    candidates.append(total)
    candidates.extend(null)
    prefix = null[0]
    for v in null[1:]:
        prefix = prefix + v
        candidates.append(prefix)

    def random_candidate():
        acc = Mat.zero(dom, n * n, 1)
        for v in null:
            if isinstance(dom, FpDomain):
                c = rnd.randrange(dom.p)
            else:
                c = rnd.randint(-5, 5)
            acc = acc + v.scale(c)
        return acc

    M = None
    tried = 0
    for cand in itertools.chain(candidates,
                                (random_candidate() for _ in range(attempts))):
        tried += 1
        candM = devectorize(cand, n)
        if candM.is_invertible():
            M = candM
            break
    if M is None:
        raise InconsistencyError(
            "no invertible transporter found after %d candidates" % tried)

    M0 = levi_limit(psi1, M)
    x = M * inverse(M0)

    if bracket(x, X) != Mat.zero(dom, n):
        raise InconsistencyError("conjugator does not centralize X")
    if not levi_limit(psi1, x).is_identity():
        raise InconsistencyError("conjugator has nontrivial Levi part")
    gens = [sl2_x1(dom, 1), sl2_y1(dom, 1)]
    if isinstance(dom, FpDomain) and dom.p > 2:
        gens.append(sl2_torus(dom, primitive_root(dom.p)))
    if not isinstance(dom, FpDomain):
        gens.append(sl2_torus(dom, 2))
    x_inv = inverse(x)
    for g in gens:
        if x * eval_hom(phi1, g) * x_inv != eval_hom(phi2, g):
            raise InconsistencyError(
                "transporter solution does not conjugate the homomorphisms")
    return x


def radical_cochar_transporters(phi1: OptimalSL2Hom, phi2: OptimalSL2Hom,
                                budget: int = DEFAULT_BUDGET):
    """Exhaustive list of radical elements x = 1 + N, N in the positive
    commutant, with Int(x) carrying the torus cocharacter of phi1 to
    that of phi2.  Over F_p only."""
    dom = phi1.domain
    if not isinstance(dom, FpDomain):
        raise DomainError("exhaustive search needs a finite field")
    X = d_hom(phi1).X
    if d_hom(phi2).X != X:
        raise DomainError("different nilpotents")
    psi1 = hom_torus_cochar(phi1)
    psi2 = hom_torus_cochar(phi2)
    basis = positive_commutant_basis(X, psi1)
    p = dom.p
    if p ** len(basis) > budget:
        raise BudgetError("radical has %d^%d elements, budget %d"
                          % (p, len(basis), budget))
    weights = sorted(set(psi1.weights))
    projections = [(psi1.weight_projection(w), psi2.weight_projection(w))
                   for w in weights]
    found = []
    for x in radical_elements(dom, phi1.n, basis):
        xi = inverse(x)
        if all(x * Q1 * xi == Q2 for Q1, Q2 in projections):
            found.append(x)
    return found


def radical_elements(domain, n: int, basis):
    """Every x = 1 + c_1 B_1 + ... + c_k B_k with c in F_p^k, one per
    coefficient vector, in itertools.product order of the coefficients.
    For a basis of the positive commutant these are the F_p points of
    the unipotent radical of C(X)."""
    ident = Mat.identity(domain, n)
    for coeffs in itertools.product(range(domain.p), repeat=len(basis)):
        x = ident
        for c, B in zip(coeffs, basis):
            if c:
                x = x + B.scale(c)
        yield x


def count_radical_conjugators(phi1: OptimalSL2Hom, phi2: OptimalSL2Hom,
                              basis) -> int:
    """How many radical elements x (see radical_elements) satisfy
    Int(x) o phi1 = phi2 on x1(1) and y1(1), which generate SL_2(F_p),
    so agreement there pins the homomorphisms down everywhere."""
    dom = phi1.domain
    images = [(eval_hom(phi1, g), eval_hom(phi2, g))
              for g in (sl2_x1(dom, 1), sl2_y1(dom, 1))]
    matches = 0
    for x in radical_elements(dom, phi1.n, basis):
        xi = inverse(x)
        if all(x * a * xi == b for a, b in images):
            matches += 1
    return matches


def hom_conjugators_agree(phi1, phi2, x, rnd=None, samples: int = 8) -> bool:
    """Whether Int(x) o phi1 = phi2 on generators and random samples."""
    if rnd is None:
        rnd = random.Random(11)
    dom = phi1.domain
    xi = inverse(x)
    gens = [sl2_x1(dom, 1), sl2_y1(dom, 1)]
    if isinstance(dom, FpDomain):
        if dom.p > 2:
            gens.append(sl2_torus(dom, primitive_root(dom.p)))
    else:
        gens.append(sl2_torus(dom, 2))
    for _ in range(samples):
        gens.append(sl2_sample(dom, rnd))
    return all(x * eval_hom(phi1, g) * xi == eval_hom(phi2, g) for g in gens)


# -- centralizer comparisons --------------------------------------------

@dataclass(frozen=True)
class ExpCentralizerReport:
    p: int
    n: int
    nullspaces_agree: bool
    group_checked: bool
    group_agree: bool | None
    group_size: int | None


def exp_centralizer_check(X: Mat,
                          budget: int = DEFAULT_BUDGET) -> ExpCentralizerReport:
    """Centralizers of X and of eps(tX) coincide, t nonzero.

    Always compares the Lie-level fixed spaces (kernel of ad X against
    kernel of Ad(eps(tX)) - 1 for every t in F_p^*); when p^(n^2) fits
    the budget also compares the finite group centralizers elementwise.
    """
    dom = X.domain
    if not isinstance(dom, FpDomain):
        raise DomainError("finite field expected")
    p = dom.p
    n = X.rows
    _, null_ad = rank_nullspace(ad_operator(X))
    ident_op = Mat.identity(dom, n * n)
    exps = []
    agree = True
    for t in range(1, p):
        u = eps_exp(X.scale(t))
        exps.append(u)
        _, null_u = rank_nullspace(conj_operator(u) - ident_op)
        if not same_span(null_ad, null_u):
            agree = False

    group_checked = p ** (n * n) <= budget
    group_agree = None
    group_size = None
    if group_checked:
        group_agree = True
        group_size = 0
        for g in enumerate_group(n, p, budget=budget):
            in_cx = commutes(g, X)
            if in_cx:
                group_size += 1
            for u in exps:
                if commutes(g, u) != in_cx:
                    group_agree = False
    return ExpCentralizerReport(p=p, n=n, nullspaces_agree=agree,
                                group_checked=group_checked,
                                group_agree=group_agree,
                                group_size=group_size)


@dataclass(frozen=True)
class HomCentralizerReport:
    p: int
    n: int
    equal: bool
    image_centralizer_size: int
    pair_centralizer_size: int


def hom_centralizer_check(phi: OptimalSL2Hom,
                          budget: int = DEFAULT_BUDGET) -> HomCentralizerReport:
    """C(image of phi) = C(X) cap C(torus image), elementwise over F_p.

    The right side treats the torus image scheme-theoretically: g
    centralizes it when g commutes with every weight projection.
    """
    dom = phi.domain
    if not isinstance(dom, FpDomain):
        raise DomainError("finite field expected")
    p = dom.p
    n = phi.n
    if p ** (n * n) > budget:
        raise BudgetError("enumeration of %d matrices exceeds budget %d"
                          % (p ** (n * n), budget))
    gens = [eval_hom(phi, sl2_x1(dom, 1)), eval_hom(phi, sl2_y1(dom, 1))]
    if p > 2:
        gens.append(eval_hom(phi, sl2_torus(dom, primitive_root(p))))
    X = d_hom(phi).X
    psi = hom_torus_cochar(phi)
    projections = [psi.weight_projection(w) for w in sorted(set(psi.weights))]
    equal = True
    size_l = size_r = 0
    for g in enumerate_group(n, p, budget=budget):
        lhs = all(commutes(g, G) for G in gens)
        rhs = (commutes(g, X)
               and all(commutes(g, Q) for Q in projections))
        size_l += lhs
        size_r += rhs
        if lhs != rhs:
            equal = False
    return HomCentralizerReport(p=p, n=n, equal=equal,
                                image_centralizer_size=size_l,
                                pair_centralizer_size=size_r)


# -- Levi containment and limits ----------------------------------------

@dataclass(frozen=True)
class LeviContainmentReport:
    commutes_with_isotypic_torus: bool
    dets_one_on_isotypic_blocks: bool

    @property
    def contained(self) -> bool:
        return (self.commutes_with_isotypic_torus
                and self.dets_one_on_isotypic_blocks)


def levi_containment_check(phi: OptimalSL2Hom, rnd=None,
                           samples: int = 8) -> LeviContainmentReport:
    """Image lies in the derived group of the Levi C(S): commutes with
    the block-scalar torus S of the centralizer (blocks grouped by
    Jordan size) and has determinant 1 on each isotypic piece."""
    if rnd is None:
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
        projectors[dd] = phi.conjugator * Mat.diagonal(dom, diag) \
            * phi.conjugator_inv

    gens = [sl2_x1(dom, 1), sl2_y1(dom, 1)]
    if isinstance(dom, FpDomain):
        if dom.p > 2:
            gens.append(sl2_torus(dom, primitive_root(dom.p)))
    else:
        gens.append(sl2_torus(dom, 2))
    for _ in range(samples):
        gens.append(sl2_sample(dom, rnd))

    torus_commutes = True
    dets_one = True
    for g in gens:
        img = eval_hom(phi, g)
        base = phi.conjugator_inv * img * phi.conjugator
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
        psi = hom_torus_cochar(phi)
        for w1 in set(psi.weights):
            P1 = psi.weight_projection(w1)
            for w2 in set(gamma.weights):
                P2 = gamma.weight_projection(w2)
                if not commutes(P1, P2):
                    raise PreconditionError(
                        "gamma does not centralize the torus image")
        X = d_hom(phi).X
        if not parabolic_data(gamma).lie_contains(X):
            raise PreconditionError("d(phi) leaves Lie P(gamma)")
        if isinstance(phi.domain, FpDomain):
            pd = parabolic_data(gamma)
            for t in range(phi.domain.p):
                if not (pd.contains(eval_hom(phi, sl2_x1(phi.domain, t)))
                        and pd.contains(eval_hom(phi, sl2_y1(phi.domain, t)))):
                    raise PreconditionError(
                        "image of phi is not contained in P(gamma)")
        self.phi = phi
        self.gamma = gamma
        self.X0 = gamma.component(X, 0)

    def eval(self, g: Mat) -> Mat:
        return levi_limit(self.gamma, eval_hom(self.phi, g))


@dataclass(frozen=True)
class LimitReport:
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


def verify_limit(lim: LimitHom, rnd=None, samples: int = 10) -> LimitReport:
    """The limit homomorphism is again a homomorphism, is aligned with
    the truncated exponential of the weight-0 part X0, keeps the same
    torus restriction, and that restriction is associated to X0."""
    if rnd is None:
        rnd = random.Random(17)
    dom = lim.phi.domain
    multiplicative = True
    for _ in range(samples):
        g = sl2_sample(dom, rnd)
        h = sl2_sample(dom, rnd)
        if lim.eval(g * h) != lim.eval(g) * lim.eval(h):
            multiplicative = False
            break
    if isinstance(dom, FpDomain):
        ts = range(dom.p)
        torus_ts = range(1, dom.p)
    else:
        ts = [dom.of(v) for v in (-2, -1, 0, 1, 2)]
        torus_ts = [1, 2, 3]
    exp_aligned = all(lim.eval(sl2_x1(dom, t)) == eps_exp(lim.X0.scale(t))
                      for t in ts)
    psi = hom_torus_cochar(lim.phi)
    torus_unchanged = all(lim.eval(sl2_torus(dom, t)) == psi.at(t)
                          for t in torus_ts)
    return LimitReport(multiplicative=multiplicative,
                       exp_aligned_with_X0=exp_aligned,
                       torus_unchanged=torus_unchanged,
                       psi_associated_to_X0=is_associated(psi, lim.X0))


# -- complete reducibility ----------------------------------------------

def _subspaces(p: int, n: int, dims=None):
    """All subspaces of F_p^n as reduced column echelon bases, by
    dimension, pivots lex.  Returns a list of (dim, list of column
    tuples)."""
    out = []
    for k in (range(n + 1) if dims is None else dims):
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


@dataclass(frozen=True)
class GcrReport:
    p: int
    n: int
    n_subspaces: int
    n_invariant: int
    semisimple: bool
    offending: Mat | None


def gcr_check(generators, budget: int = 1 << 20) -> GcrReport:
    """Semisimplicity of the natural module for the group generated by
    the given invertible matrices over F_p: every invariant subspace
    has an invariant complement, by exhaustive subspace enumeration."""
    if not generators:
        raise DomainError("at least one generator required")
    dom = generators[0].domain
    if not isinstance(dom, FpDomain):
        raise DomainError("finite field expected")
    p = dom.p
    n = generators[0].rows
    count = 0
    for k in range(n + 1):
        c = 1
        for i in range(k):
            c = c * (p ** (n - i) - 1) // (p ** (i + 1) - 1)
        count += c
    if count > budget:
        raise BudgetError("%d subspaces exceed budget %d" % (count, budget))

    subspaces = _subspaces(p, n)

    def col_mat(cols):
        return Mat(dom, n, len(cols),
                   [cols[j][i] for i in range(n) for j in range(len(cols))])

    invariant = []
    for k, cols in subspaces:
        if k == 0 or k == n:
            invariant.append((k, cols, True))
            continue
        span = IncrementalSpan(dom)
        for c in cols:
            span.add(c)
        ok = True
        for g in generators:
            for c in cols:
                img = g * Mat(dom, n, 1, c)
                if not span.contains(img.data):
                    ok = False
                    break
            if not ok:
                break
        invariant.append((k, cols, ok))

    inv_by_dim = {}
    for k, cols, ok in invariant:
        if ok:
            inv_by_dim.setdefault(k, []).append(cols)

    semisimple = True
    offending = None
    for k, cols, ok in invariant:
        if not ok or k == 0 or k == n:
            continue
        span = IncrementalSpan(dom)
        for c in cols:
            span.add(c)
        found = False
        for comp_cols in inv_by_dim.get(n - k, []):
            trial = IncrementalSpan(dom)
            for c in cols:
                trial.add(c)
            direct = all(trial.add(c) for c in comp_cols)
            if direct and trial.dim == n:
                found = True
                break
        if not found:
            semisimple = False
            offending = col_mat(cols)
            break
    n_invariant = sum(1 for _, _, ok in invariant if ok)
    return GcrReport(p=p, n=n, n_subspaces=len(subspaces),
                     n_invariant=n_invariant, semisimple=semisimple,
                     offending=offending)


def gcr_check_hom(phi: OptimalSL2Hom, budget: int = 1 << 20) -> GcrReport:
    dom = phi.domain
    gens = [eval_hom(phi, sl2_x1(dom, 1)), eval_hom(phi, sl2_y1(dom, 1))]
    if isinstance(dom, FpDomain) and dom.p > 2:
        gens.append(eval_hom(phi, sl2_torus(dom, primitive_root(dom.p))))
    return gcr_check(gens, budget=budget)
