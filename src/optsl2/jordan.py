"""Jordan type and Jordan basis of nilpotent matrices over F_p or Q.

nilpotent_powers lists the nonzero powers N, N^2, ..., N^(k-1) of a
nilpotent N of index k, one product each; it is the nilpotency test of
the package, and every series in one nilpotent (the Springer maps, the
truncated exponential and logarithm) is a sum over its list.  The same
nilpotent comes back many times (a Springer check applies, partitions
and inverts through one u - 1), so the lists are memoised by matrix
value in a process-local least-recently-used cache of _POWERS_CACHE_SIZE
entries, and so are the Jordan types of nilpotent_partition, in a
second cache of the same size (a springer check reads the type of one
u - 1 per coefficient pair, and over a small field the images repeat).
Mat is immutable and hashable, and its equality includes the domain,
so equal residues over different F_p never share an entry.  The powers
cache holds tuples and every call returns a fresh list; a raise is not
cached, so a rejected input raises again on every call.  clear_memos
empties both; suites.run_suite calls it when each instance starts, so
that what a record computes does not depend on the records before it.

There are two routes.  nilpotent_partition returns the Jordan type
alone, read off the ranks of those powers: the conjugate partition is
lam'_i = rank N^(i-1) - rank N^i.  nilpotent_jordan also returns a
Jordan basis, assembled from Jordan chains.  The basis is deterministic:
kernels come from the standard RREF nullspace bases, the chain seeds of
length L are the ker X^L vectors that independent finds outside the
span of ker X^(L-1) + X ker X^(L+1) and the seeds before them, exactly
as many as the partition asks for, and chains go longest first.  Its
partition comes from the nullities of the same kernels through the same
rank differences, is compared with the chain lengths, and the change of
basis is verified to conjugate X into the block form exactly.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .errors import DomainError, InconsistencyError
from .matrices import Mat, hstack, independent, rank, rank_nullspace
from .partitions import check_partition, conjugate


class NilpotentJordanData(NamedTuple):
    partition: tuple
    basis: Mat  # columns are the Jordan basis, chains ordered longest first

    @property
    def n(self) -> int:
        return self.basis.rows


def jordan_block(domain, d: int) -> Mat:
    """Nilpotent Jordan block with ones on the superdiagonal."""
    data = [domain.zero()] * (d * d)
    for i in range(d - 1):
        data[i * d + i + 1] = domain.one()
    return Mat(domain, d, d, data)


def jordan_form(domain, lam) -> Mat:
    lam = check_partition(lam)
    return Mat.block_diag(domain, [jordan_block(domain, d) for d in lam])


_POWERS_CACHE_SIZE = 16


def nilpotent_powers(N: Mat) -> list:
    """The nonzero powers [N, N^2, ..., N^(k-1)] of a nilpotent N of
    index k (N^k = 0, N^(k-1) != 0), at one product each the first time
    a value is seen.  The list is empty for N = 0, including the 0x0 and
    1x1 cases.  Raises DomainError when N is not square or N^n != 0."""
    return list(_nilpotent_powers(N))


@lru_cache(maxsize=_POWERS_CACHE_SIZE)
def _nilpotent_powers(N: Mat) -> tuple:
    if not N.is_square():
        raise DomainError("square matrix expected")
    n = N.rows
    powers = []
    power = N
    while not power.is_zero():
        if len(powers) == n - 1:
            raise DomainError("matrix is not nilpotent: X^%d still has "
                              "rank %d" % (n, rank(power)))
        powers.append(power)
        power = power * N
    return tuple(powers)


def clear_memos() -> None:
    """Empty the memos of nilpotent_powers and nilpotent_partition, so
    that what follows computes as it would in a fresh process."""
    _nilpotent_powers.cache_clear()
    _nilpotent_partition.cache_clear()


def _conjugate_type(ranks) -> tuple:
    """The conjugate Jordan type lam' of a nilpotent N of index m from
    ranks = [rank N^0, rank N^1, ..., rank N^m = 0]:
    lam'_i = rank N^(i-1) - rank N^i."""
    return tuple(ranks[i - 1] - ranks[i] for i in range(1, len(ranks)))


def nilpotent_partition(N: Mat) -> tuple:
    """Jordan type of a nilpotent N, from the ranks of the powers that
    nilpotent_powers returns; no basis is built.  Raises DomainError
    when N is not square or not nilpotent, as nilpotent_powers does."""
    return _nilpotent_partition(N)


@lru_cache(maxsize=_POWERS_CACHE_SIZE)
def _nilpotent_partition(N: Mat) -> tuple:
    powers = nilpotent_powers(N)
    if N.rows == 0:
        return ()
    return conjugate(_conjugate_type(
        [N.rows] + [rank(power) for power in powers] + [0]))


def nilpotent_jordan(X: Mat) -> NilpotentJordanData:
    powers = nilpotent_powers(X)
    n = X.rows
    d = X.domain
    if n == 0:
        return NilpotentJordanData(partition=(), basis=Mat.zero(d, 0, 0))
    m = len(powers) + 1  # nilpotency index, X^m = 0, X^(m-1) != 0

    # ker X^m is all of k^n: its standard basis, the one rank_nullspace
    # reads off the zero matrix
    kernels = ([[]] + [rank_nullspace(power)[1] for power in powers]
               + [[Mat.unit(d, n, 1, i, 0) for i in range(n)]])
    lam_conj = _conjugate_type([n - len(ker) for ker in kernels])
    partition = conjugate(lam_conj)

    # Chain seeds at level L span a complement of ker X^(L-1) + X ker X^(L+1)
    # inside ker X^L: the independent vectors that fall in the ker X^L block
    # of [ker X^(L-1) | X ker X^(L+1) | ker X^L], in nullspace-basis order,
    # which fixes "lowest original column index" as the tie break.
    chains = []
    for L in range(m, 0, -1):
        count = lam_conj[L - 1] - (lam_conj[L] if L < m else 0)
        if count == 0:
            continue
        below = kernels[L - 1] + ([X * v for v in kernels[L + 1]]
                                  if L < m else [])
        candidates = below + kernels[L]
        seeds = [candidates[i] for i in independent(candidates)
                 if i >= len(below)]
        if len(seeds) != count:
            raise InconsistencyError("chain extraction found %d seeds of "
                                     "length %d, expected %d"
                                     % (len(seeds), L, count))
        for v in seeds:
            # X^(L-1) v first, seed last
            chain = [powers[i] * v for i in range(L - 2, -1, -1)] + [v]
            chains.append((L, chain))

    chain_lengths = tuple(L for L, _ in chains)
    if chain_lengths != partition:
        raise InconsistencyError(
            "chain lengths %r disagree with nullity partition %r"
            % (chain_lengths, partition))

    basis = hstack([v for _, chain in chains for v in chain])
    if rank(basis) != n:
        raise InconsistencyError("Jordan chains do not form a basis")
    # the basis is invertible, so X B = B J is B^-1 X B = J
    if X * basis != basis * jordan_form(d, partition):
        raise InconsistencyError("basis does not conjugate X to Jordan form")
    return NilpotentJordanData(partition=partition, basis=basis)
