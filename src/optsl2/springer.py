"""Springer isomorphisms for type A, the truncated exponential, and
additive one-parameter subgroups with Frobenius twists.

The Springer family sends a unipotent u = 1 + e to a1 e + a2 e^2 + ...
+ a_{n-1} e^{n-1} with a1 nonzero.  Each member is GL_n-equivariant by
construction, restricts to a bijection on unipotent/nilpotent cones,
and induces the same map on orbits whatever the higher coefficients
are.  The inverse is computed by reverting the defining power series
modulo t^n, which is exact because e^n = 0.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import DomainError, InconsistencyError, PreconditionError
from .jordan import jordan_block, nilpotent_jordan
from .matrices import Mat, commutes, hstack, rank, solve
from .scalars import Domain, FpDomain


class SpringerCoeffs:
    """Coefficient system (a1, ..., a_{n-1}) with a1 invertible."""

    def __init__(self, domain: Domain, a):
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


def _unipotent_part(u: Mat) -> Mat:
    if not u.is_square():
        raise DomainError("square matrix expected")
    e = u - Mat.identity(u.domain, u.rows)
    if not (e ** u.rows).is_zero():
        raise PreconditionError("matrix is not unipotent")
    return e


def springer_apply(coeffs: SpringerCoeffs, u: Mat) -> Mat:
    """Value a1 e + ... + a_{n-1} e^{n-1} at u = 1 + e."""
    e = _unipotent_part(u)
    if coeffs.n != u.rows:
        raise DomainError("coefficient system is for n = %d, got n = %d"
                          % (coeffs.n, u.rows))
    d = u.domain
    acc = Mat.zero(d, u.rows)
    power = Mat.identity(d, u.rows)
    for ai in coeffs.a:
        power = power * e
        acc = acc + power.scale(ai)
    return acc


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
    of f(t) = a1 t + a2 t^2 + ... modulo t^trunc."""
    d = coeffs.domain
    f = [d.zero()] + list(coeffs.a)
    a1_inv = d.inv(coeffs.a[0])
    g = [d.zero(), a1_inv] + [d.zero()] * max(0, trunc - 2)
    g = g[:trunc]
    for k in range(2, trunc):
        comp = _poly_compose_trunc(f, g, d, k + 1)
        g[k] = d.neg(d.mul(comp[k], a1_inv))
    check = _poly_compose_trunc(f, g, d, trunc)
    expected = [d.zero()] * trunc
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
    if not (X ** X.rows).is_zero():
        raise PreconditionError("matrix is not nilpotent")
    d = X.domain
    n = X.rows
    if n == 1:
        return Mat.identity(d, 1)
    b = reversion(coeffs, n)
    u = Mat.identity(d, n)
    power = Mat.identity(d, n)
    for bk in b:
        power = power * X
        u = u + power.scale(bk)
    if springer_apply(coeffs, u) != X:
        raise InconsistencyError("inverse image does not map back to X")
    return u


@dataclass(frozen=True)
class OrbitBijectionReport:
    partition_u: tuple
    partition_a: tuple
    partition_b: tuple
    partitions_agree: bool


def orbit_bijection_check(ca: SpringerCoeffs, cb: SpringerCoeffs,
                          u: Mat) -> OrbitBijectionReport:
    """The induced orbit maps of two coefficient systems agree, and both
    preserve the Jordan type: partition(f(u)) = partition(u - 1)."""
    e = _unipotent_part(u)
    pu = nilpotent_jordan(e).partition
    pa = nilpotent_jordan(springer_apply(ca, u)).partition
    pb = nilpotent_jordan(springer_apply(cb, u)).partition
    return OrbitBijectionReport(partition_u=pu, partition_a=pa,
                                partition_b=pb,
                                partitions_agree=(pu == pa == pb))


# -- truncated exponential and logarithm --------------------------------

def eps_exp(X: Mat) -> Mat:
    """Truncated exponential sum_{i<p} X^i / i! over F_p, or the full
    nilpotent exponential over Q.  Over F_p the class bound X^[p] = 0
    is required, and then the sum is the whole exponential."""
    if not X.is_square():
        raise DomainError("square matrix expected")
    d = X.domain
    n = X.rows
    if not (X ** n).is_zero():
        raise PreconditionError("matrix is not nilpotent")
    if isinstance(d, FpDomain):
        if not (X ** d.p).is_zero():
            raise PreconditionError(
                "length-%d product X^[%d] is nonzero, class bound fails"
                % (d.p, d.p))
        bound = d.p
    else:
        bound = n
    acc = Mat.identity(d, n)
    power = Mat.identity(d, n)
    fact = d.one()
    for i in range(1, bound):
        power = power * X
        if power.is_zero():
            break
        fact = d.mul(fact, d.of(i))
        acc = acc + power.scale(d.inv(fact))
    return acc


def eps_log(u: Mat) -> Mat:
    """Inverse of eps_exp: sum_{i<p} (-1)^(i+1) (u-1)^i / i, with the
    same class bound (u-1)^[p] = 0 over F_p."""
    e = _unipotent_part(u)
    d = u.domain
    n = u.rows
    if isinstance(d, FpDomain):
        if not (e ** d.p).is_zero():
            raise PreconditionError(
                "length-%d product (u-1)^[%d] is nonzero, class bound fails"
                % (d.p, d.p))
        bound = d.p
    else:
        bound = n
    acc = Mat.zero(d, n)
    power = Mat.identity(d, n)
    for i in range(1, bound):
        power = power * e
        if power.is_zero():
            break
        term = power.scale(d.inv(d.of(i)))
        if i % 2 == 1:
            acc = acc + term
        else:
            acc = acc - term
    return acc


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
        for combo in itertools.combinations_with_replacement(
                range(len(coeffs)), domain.p):
            prod = Mat.identity(domain, n)
            for i in combo:
                prod = prod * coeffs[i]
            if not prod.is_zero():
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
    d = h.domain
    s = d.of(s)
    out = Mat.identity(d, h.n)
    for i, X in enumerate(h.coeffs):
        scalar = pow(s, d.p ** i, d.p)
        out = out * eps_exp(X.scale(scalar))
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


# -- tangent map experiment on the regular centralizer ------------------

@dataclass(frozen=True)
class TangentReport:
    n: int
    matrix: Mat          # action on the basis e, e^2, ..., e^(n-1)
    is_scalar: bool
    scalar: object       # the scalar when is_scalar, else None


def springer_tangent_experiment(coeffs: SpringerCoeffs) -> TangentReport:
    """First-order behaviour of f along the centralizer of a regular
    unipotent u = 1 + e.

    Directions Z run over c(u) = span(e, ..., e^(n-1)), the curve is
    the affine one v_s = u + s Z inside C(u), and the derivative is
    extracted with dual-number bookkeeping (pairs (A, B) standing for
    A + eps B with eps^2 = 0).  This is an experiment: the report
    records whether the resulting endomorphism of c(u) is scalar, and
    no particular outcome is asserted.
    """
    d = coeffs.domain
    n = coeffs.n
    e = jordan_block(d, n)
    u = Mat.identity(d, n) + e

    def dual_mul(x, y):
        return (x[0] * y[0], x[0] * y[1] + x[1] * y[0])

    columns = []
    zero = Mat.zero(d, n)
    for k in range(1, n):
        Z = e ** k
        v = (u, Z)  # u + eps Z, first order in eps
        ev = (v[0] - Mat.identity(d, n), v[1])
        acc = (zero, zero)
        power = (Mat.identity(d, n), zero)
        for ai in coeffs.a:
            power = dual_mul(power, ev)
            acc = (acc[0] + power[0].scale(ai), acc[1] + power[1].scale(ai))
        image = acc[1]
        # expand in the powers of e: coefficient of e^m sits at entry (0, m)
        coords = [image[0, m] for m in range(1, n)]
        rebuilt = Mat.zero(d, n)
        for m, c in enumerate(coords, start=1):
            rebuilt = rebuilt + (e ** m).scale(c)
        if rebuilt != image:
            raise InconsistencyError("tangent image left the span of e^k")
        columns.append(coords)
    m = n - 1
    matrix = Mat(d, m, m, [columns[j][i] for i in range(m) for j in range(m)])
    scalar = matrix[0, 0] if m else d.one()
    is_scalar = matrix == Mat.identity(d, m).scale(scalar)
    return TangentReport(n=n, matrix=matrix, is_scalar=is_scalar,
                         scalar=scalar if is_scalar else None)


def springer_coeffs_from_value(v: Mat, X: Mat) -> SpringerCoeffs:
    """Recover the coefficient system from one regular value: solve
    a1 e + ... + a_{n-1} e^(n-1) = X for e = v - 1 regular unipotent."""
    e = _unipotent_part(v)
    n = v.rows
    if n == 1:
        if not X.is_zero():
            raise PreconditionError("X must vanish for n = 1")
        return SpringerCoeffs(v.domain, ())
    if nilpotent_jordan(e).partition != (n,):
        raise PreconditionError("v is not regular unipotent")
    powers = []
    power = Mat.identity(v.domain, n)
    for _ in range(1, n):
        power = power * e
        powers.append(power.vectorize())
    A = hstack(powers)
    sol = solve(A, X.vectorize())
    if sol is None:
        raise PreconditionError("X is not a polynomial in e")
    if rank(A) != n - 1:
        raise InconsistencyError("powers of a regular nilpotent dependent")
    return SpringerCoeffs(v.domain, sol.data)
