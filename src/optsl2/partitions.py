"""Partition combinatorics used by the orbit classification."""

from __future__ import annotations

from .errors import DomainError


def check_partition(lam) -> tuple:
    lam = tuple(int(x) for x in lam)
    if any(x <= 0 for x in lam):
        raise DomainError("partition parts must be positive: %r" % (lam,))
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise DomainError("partition must be nonincreasing: %r" % (lam,))
    return lam


def conjugate(lam) -> tuple:
    """Transpose of the Young diagram: lam'_i = #{j : lam_j >= i}."""
    lam = check_partition(lam)
    if not lam:
        return ()
    return tuple(sum(1 for part in lam if part >= i)
                 for i in range(1, lam[0] + 1))


def partitions_of(n: int):
    """All partitions of n in reverse lexicographic order, (n) first."""
    if n < 0:
        raise DomainError("n must be nonnegative")
    if n == 0:
        yield ()
        return

    def gen(remaining, largest):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, largest), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    yield from gen(n, n)


def admissible(lam, p: int) -> bool:
    """Largest part at most p, the existence condition for optimal maps."""
    lam = check_partition(lam)
    return not lam or lam[0] <= p


def _multiplicities(lam) -> list:
    """The multiplicities m_i of the distinct parts of lam, largest part
    first."""
    lam = check_partition(lam)
    return [lam.count(part) for part in sorted(set(lam), reverse=True)]


def _gl_order(m: int, q: int) -> int:
    """|GL_m(F_q)| = (q^m - 1)(q^m - q) ... (q^m - q^(m-1))."""
    order = 1
    for i in range(m):
        order *= q ** m - q ** i
    return order


def centralizer_dim(lam) -> int:
    """dim C(X) for X nilpotent of Jordan type lam: sum lam'_j^2, the
    sum of the squared conjugate parts."""
    return sum(c * c for c in conjugate(lam))


def radical_dim(lam) -> int:
    """dim R_u(C(X)) for X nilpotent of Jordan type lam: centralizer_dim
    less sum m_i^2, the dimension of the reductive part prod GL_m_i, m_i
    the multiplicity of part i."""
    return centralizer_dim(lam) - sum(m * m for m in _multiplicities(lam))


def centralizer_order(lam, q: int) -> int:
    """|C_GL_n(F_q)(X)| for X nilpotent of Jordan type lam:
    q^radical_dim(lam) * prod |GL_m_i(F_q)| (the reductive part is
    prod GL_m_i, the unipotent radical an affine space)."""
    return q ** radical_dim(lam) * image_centralizer_order(lam, q)


def image_centralizer_order(lam, q: int) -> int:
    """|C_GL_n(F_q)(image of phi)| for an optimal phi of Jordan type lam:
    prod |GL_m_i(F_q)|, the reductive part of the centralizer of X."""
    order = 1
    for m in _multiplicities(lam):
        order *= _gl_order(m, q)
    return order
