"""Springer isomorphisms for type A, the truncated exponential, and
additive one-parameter subgroups with Frobenius twists.

The Springer family sends a unipotent u = 1 + e to a1 e + a2 e^2 + ...
+ a_{n-1} e^{n-1} with a1 nonzero.  Each member is GL_n-equivariant by
construction, restricts to a bijection on unipotent/nilpotent cones,
and induces the same map on orbits whatever the higher coefficients
are.  The inverse is computed by reverting the defining power series
modulo t^n, which is exact because e^n = 0.

Every series here is a sum over jordan.nilpotent_powers of its one
nilpotent, which is also the test that the input lies in the cone: a
square matrix that is not nilpotent (not unipotent) fails the
operation's hypothesis, a PreconditionError.  Over F_p the class bound
X^[p] = 0 of the truncated exponential and logarithm is that the list
has fewer than p powers.
"""

from __future__ import annotations

import itertools
from math import factorial
from typing import NamedTuple

from .errors import DomainError, InconsistencyError, PreconditionError
from .jordan import nilpotent_partition, nilpotent_powers
from .matrices import Mat, commutes, hstack, lin_comb, rank, solve
from .scalars import FpDomain


class SpringerCoeffs:
    """Coefficient system (a1, ..., a_{n-1}) with a1 invertible."""

    def __init__(self, domain, a):
        self.domain = domain
        self.a = tuple(domain.of(x) for x in a)
        # empty coefficient list is the n = 1 case, where there is no a1
        if self.a and self.a[0] == domain.zero():
            raise DomainError("leading coefficient a1 must be nonzero")

    @property
    def n(self) -> int:
        """Ambient matrix size this system applies to."""
        return len(self.a) + 1

    def __eq__(self, other):
        return (isinstance(other, SpringerCoeffs)
                and self.domain == other.domain and self.a == other.a)

    def __repr__(self):
        return "SpringerCoeffs(%r, %r)" % (self.domain, list(self.a))


def _powers(N: Mat, what: str, name: str = None) -> list:
    """nilpotent_powers(N), where a square N that is not nilpotent
    raises PreconditionError("matrix is not <what>").  With a name, over
    F_p, also the class bound N^[p] = 0: fewer than p nonzero powers."""
    try:
        powers = nilpotent_powers(N)
    except DomainError:
        if not N.is_square():
            raise
        raise PreconditionError("matrix is not %s" % what) from None
    d = N.domain
    if name and isinstance(d, FpDomain) and len(powers) >= d.p:
        raise PreconditionError(
            "length-%d product %s^[%d] is nonzero, class bound fails"
            % (d.p, name, d.p))
    return powers


def springer_apply(coeffs: SpringerCoeffs, u: Mat) -> Mat:
    """Value a1 e + ... + a_{n-1} e^{n-1} at u = 1 + e."""
    powers = _powers(u - Mat.identity(u.domain, u.rows), "unipotent")
    if coeffs.n != u.rows:
        raise DomainError("coefficient system is for n = %d, got n = %d"
                          % (coeffs.n, u.rows))
    return lin_comb(Mat.zero(u.domain, u.rows), coeffs.a, powers)


def _poly_mul_trunc(f, g, domain, trunc):
    out = [domain.zero()] * trunc
    for i, fi in enumerate(f):
        if fi == domain.zero() or i >= trunc:
            continue
        for j, gj in enumerate(g):
            if i + j >= trunc:
                break
            out[i + j] = domain.add(out[i + j], domain.mul(fi, gj))
    return out


def _poly_compose_trunc(f, g, domain, trunc):
    """f(g(t)) mod t^trunc; g must have zero constant term."""
    result = [domain.zero()] * trunc
    for c in reversed(f):
        result = _poly_mul_trunc(result, g, domain, trunc)
        result[0] = domain.add(result[0], c)
    return result


def reversion(coeffs: SpringerCoeffs, trunc: int):
    """Coefficients (b1, ..., b_{trunc-1}) of the compositional inverse
    g of f(t) = a1 t + a2 t^2 + ... modulo t^trunc.

    [t^k] f(g) = a1 b_k + sum over j >= 2 of a_j [t^k] g^j, and for
    j >= 2 the coefficient [t^k] g^j only involves b_1, ..., b_{k-1}.
    So a table of the [t^k] g^j is extended one degree k at a time,
    from the degrees below it, before b_k is set: O(trunc^3) in all.
    The full composition f(g) is checked once at the end.
    """
    d = coeffs.domain
    zero = d.zero()
    f = [zero] + list(coeffs.a) + [zero] * max(0, trunc - 1 - len(coeffs.a))
    a1_inv = d.inv(coeffs.a[0])
    g = ([zero, a1_inv] + [zero] * max(0, trunc - 2))[:trunc]
    # powers[j][k] = [t^k] g^j; g^1 is g itself, filled in as each b_k is set
    powers = [None, g]
    for k in range(2, trunc):
        powers.append([zero] * trunc)
        s = zero
        for j in range(2, k + 1):
            below = powers[j - 1]
            c = zero
            for m in range(1, k - j + 2):
                c = d.add(c, d.mul(g[m], below[k - m]))
            powers[j][k] = c
            s = d.add(s, d.mul(f[j], c))
        g[k] = d.neg(d.mul(s, a1_inv))
    check = _poly_compose_trunc(f, g, d, trunc)
    expected = [zero] * trunc
    if trunc > 1:
        expected[1] = d.one()
    if check != expected:
        raise InconsistencyError("series reversion failed to invert")
    return tuple(g[1:])


def springer_invert(coeffs: SpringerCoeffs, X: Mat) -> Mat:
    """The unique unipotent u with springer_apply(coeffs, u) = X."""
    if coeffs.n != X.rows:
        raise DomainError("coefficient system is for n = %d, got n = %d"
                          % (coeffs.n, X.rows))
    powers = _powers(X, "nilpotent")
    d = X.domain
    n = X.rows
    if n == 1:
        return Mat.identity(d, 1)
    u = lin_comb(Mat.identity(d, n), reversion(coeffs, n), powers)
    if springer_apply(coeffs, u) != X:
        raise InconsistencyError("inverse image does not map back to X")
    return u


class OrbitBijectionReport(NamedTuple):
    partition_u: tuple
    partition_a: tuple
    partition_b: tuple
    partitions_agree: bool


def orbit_bijection_check(ca: SpringerCoeffs, cb: SpringerCoeffs,
                          u: Mat) -> OrbitBijectionReport:
    """The induced orbit maps of two coefficient systems agree, and both
    preserve the Jordan type: partition(f(u)) = partition(u - 1).  Each
    partition is read off the ranks of the powers of its nilpotent
    (jordan.nilpotent_partition); no Jordan basis is built."""
    fa = springer_apply(ca, u)  # rejects u that is not unipotent
    pu = nilpotent_partition(u - Mat.identity(u.domain, u.rows))
    pa = nilpotent_partition(fa)
    pb = nilpotent_partition(springer_apply(cb, u))
    return OrbitBijectionReport(partition_u=pu, partition_a=pa,
                                partition_b=pb,
                                partitions_agree=(pu == pa == pb))


# -- truncated exponential and logarithm --------------------------------

def eps_exp(X: Mat) -> Mat:
    """Truncated exponential sum_{i<p} X^i / i! over F_p, or the full
    nilpotent exponential over Q.  Over F_p the class bound X^[p] = 0
    is required, and then the sum is the whole exponential."""
    powers = _powers(X, "nilpotent", "X")
    d = X.domain
    coeffs = [d.inv(d.of(factorial(i))) for i in range(1, len(powers) + 1)]
    return lin_comb(Mat.identity(d, X.rows), coeffs, powers)


def eps_log(u: Mat) -> Mat:
    """Inverse of eps_exp: sum_{i<p} (-1)^(i+1) (u-1)^i / i, with the
    same class bound (u-1)^[p] = 0 over F_p."""
    d = u.domain
    powers = _powers(u - Mat.identity(d, u.rows), "unipotent", "(u-1)")
    coeffs = [d.inv(d.of(i if i % 2 else -i))
              for i in range(1, len(powers) + 1)]
    return lin_comb(Mat.zero(d, u.rows), coeffs, powers)


# -- additive one-parameter subgroups -----------------------------------

class AdditiveHom:
    """Product form eps(s X0) eps(s^p X1) eps(s^p^2 X2) ... with
    pairwise commuting coefficients whose length-p products vanish."""

    def __init__(self, domain: FpDomain, coeffs):
        if not isinstance(domain, FpDomain):
            raise DomainError("additive homs with Frobenius twists need F_p")
        coeffs = tuple(coeffs)
        if not coeffs:
            raise DomainError("at least one coefficient matrix required")
        n = coeffs[0].rows
        for X in coeffs:
            if X.domain != domain or X.rows != n or X.cols != n:
                raise DomainError("coefficients must share size and domain")
        for A, B in itertools.combinations(coeffs, 2):
            if not commutes(A, B):
                raise PreconditionError("coefficients do not commute")
        # The products over non-decreasing index tuples, one length at a
        # time, each extending its prefix by one factor: (last index,
        # product).  A zero prefix is dropped, as all its extensions are
        # zero; a zero coefficient is never a factor, for the same reason.
        nonzero = [i for i, X in enumerate(coeffs) if not X.is_zero()]
        level = [(i, coeffs[i]) for i in nonzero]
        for _ in range(domain.p - 1):
            level = [(j, prod * coeffs[j]) for i, prod in level
                     for j in nonzero if j >= i]
            level = [(j, prod) for j, prod in level if not prod.is_zero()]
        if level:
            raise PreconditionError(
                "length-%d product of coefficients is nonzero" % domain.p)
        self.domain = domain
        self.coeffs = coeffs

    @property
    def n(self) -> int:
        return self.coeffs[0].rows

    def is_zero(self) -> bool:
        return all(X.is_zero() for X in self.coeffs)

    def __eq__(self, other):
        return (isinstance(other, AdditiveHom)
                and self.domain == other.domain
                and self.coeffs == other.coeffs)

    def __repr__(self):
        return "AdditiveHom(%r, %d coefficients)" % (self.domain,
                                                     len(self.coeffs))


def additive_eval(h: AdditiveHom, s) -> Mat:
    """h(s) = eps(s X0) eps(s^p X1) eps(s^p^2 X2) ..., the product
    started at the first factor: one product per further coefficient."""
    d = h.domain
    s = d.of(s)
    out = None
    for i, X in enumerate(h.coeffs):
        factor = eps_exp(X.scale(pow(s, d.p ** i, d.p)))
        out = factor if out is None else out * factor
    return out


def additive_derivative(h: AdditiveHom) -> Mat:
    """Tangent vector at s = 0; the Frobenius-twisted factors die."""
    return h.coeffs[0]


def additive_untwist(h: AdditiveHom):
    """Strip leading zero coefficients: h = h' o F^r with nonzero
    derivative for h' unless h is the zero hom.  Returns (h', r)."""
    if h.is_zero():
        return h, 0
    r = 0
    while h.coeffs[r].is_zero():
        r += 1
    if r == 0:
        return h, 0
    return AdditiveHom(h.domain, h.coeffs[r:]), r


def springer_coeffs_from_value(v: Mat, X: Mat) -> SpringerCoeffs:
    """Recover the coefficient system from one regular value: solve
    a1 e + ... + a_{n-1} e^(n-1) = X for e = v - 1 regular unipotent."""
    powers = _powers(v - Mat.identity(v.domain, v.rows), "unipotent")
    n = v.rows
    if n == 1:
        if not X.is_zero():
            raise PreconditionError("X must vanish for n = 1")
        return SpringerCoeffs(v.domain, ())
    if len(powers) != n - 1:  # a nilpotent of index n is regular
        raise PreconditionError("v is not regular unipotent")
    A = hstack([P.vectorize() for P in powers])
    sol = solve(A, X.vectorize())
    if sol is None:
        raise PreconditionError("X is not a polynomial in e")
    if rank(A) != n - 1:
        raise InconsistencyError("powers of a regular nilpotent dependent")
    return SpringerCoeffs(v.domain, sol.data)
