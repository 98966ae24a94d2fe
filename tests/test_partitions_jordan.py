import hashlib
import random

import pytest

from optsl2 import jordan
from optsl2.errors import DomainError, InconsistencyError
from optsl2.jordan import (jordan_block, jordan_form, nilpotent_jordan,
                           nilpotent_powers)
from optsl2.matrices import Mat, inverse, random_invertible, rank_nullspace
from optsl2.orbits import associated_cocharacter
from optsl2.partitions import (admissible, check_partition, conjugate,
                               partitions_of)
from optsl2.scalars import Fp, QQ
from optsl2.sl2 import positive_commutant_basis

F2 = Fp(2)
F3 = Fp(3)


def test_check_partition():
    assert check_partition([3, 1]) == (3, 1)
    assert check_partition(()) == ()
    with pytest.raises(DomainError):
        check_partition((1, 2))
    with pytest.raises(DomainError):
        check_partition((2, 0))
    with pytest.raises(DomainError):
        check_partition((-1,))


def test_conjugate_known_values_and_involution():
    assert conjugate((4, 2, 1)) == (3, 2, 1, 1)
    assert conjugate((5,)) == (1, 1, 1, 1, 1)
    assert conjugate(()) == ()
    for n in range(8):
        for lam in partitions_of(n):
            assert conjugate(conjugate(lam)) == lam
            assert sum(conjugate(lam)) == n


def test_partitions_of_counts_and_order():
    counts = [1, 1, 2, 3, 5, 7, 11, 15, 22]
    for n, expected in enumerate(counts):
        parts = list(partitions_of(n))
        assert len(parts) == expected
        assert len(set(parts)) == expected
        for lam in parts:
            assert check_partition(lam) == lam
            assert sum(lam) == n
    assert list(partitions_of(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1),
                                      (1, 1, 1, 1)]
    with pytest.raises(DomainError):
        list(partitions_of(-1))


def test_admissible():
    assert admissible((2, 2, 1), 2)
    assert not admissible((3,), 2)
    assert admissible((5, 3), 5)
    assert admissible((), 2)


def test_jordan_block_and_form():
    J = jordan_block(F3, 3)
    assert J.to_lists() == [[0, 1, 0], [0, 0, 1], [0, 0, 0]]
    F = jordan_form(QQ, (2, 1))
    assert F.to_lists() == [[0, 1, 0], [0, 0, 0], [0, 0, 0]]
    assert jordan_form(F2, ()).rows == 0


def test_nilpotent_jordan_recovers_partition():
    rnd = random.Random(11)
    for dom in (F2, F3, QQ):
        for n in range(1, 6):
            for lam in partitions_of(n):
                J = jordan_form(dom, lam)
                g = random_invertible(dom, n, rnd, bound=2)
                data = nilpotent_jordan(g * J * inverse(g))
                assert data.partition == lam
                assert data.n == n


def test_nilpotent_jordan_basis_conjugates_to_block_form():
    rnd = random.Random(12)
    for dom in (F3, QQ):
        J = jordan_form(dom, (3, 2, 1, 1))
        g = random_invertible(dom, 7, rnd, bound=2)
        X = g * J * inverse(g)
        data = nilpotent_jordan(X)
        C = data.basis
        assert inverse(C) * X * C == J


def test_nilpotent_jordan_rejects_a_basis_with_swapped_chain_vectors(
        monkeypatch):
    """A swap keeps the rank, so only the closing X B = B J check sees
    it."""
    exact = jordan.hstack

    def swapped(vectors):
        vectors = list(vectors)
        vectors[0], vectors[1] = vectors[1], vectors[0]
        return exact(vectors)

    monkeypatch.setattr(jordan, "hstack", swapped)
    rnd = random.Random(15)
    for dom in (F3, QQ):
        for lam in ((2,), (3, 1), (2, 2)):
            n = sum(lam)
            g = random_invertible(dom, n, rnd, bound=2)
            with pytest.raises(InconsistencyError):
                nilpotent_jordan(g * jordan_form(dom, lam) * inverse(g))


def test_nilpotent_jordan_edge_cases():
    data = nilpotent_jordan(Mat.zero(F2, 3, 3))
    assert data.partition == (1, 1, 1)
    assert data.basis == Mat.identity(F2, 3)
    with pytest.raises(DomainError):
        nilpotent_jordan(Mat.identity(F3, 2))
    with pytest.raises(DomainError):
        nilpotent_jordan(Mat.zero(F3, 2, 3))


def test_nilpotent_jordan_is_deterministic():
    rnd = random.Random(13)
    X = None
    for _ in range(3):
        g = random_invertible(F3, 5, rnd, bound=2)
        X = g * jordan_form(F3, (3, 2)) * inverse(g)
        first = nilpotent_jordan(X)
        second = nilpotent_jordan(X)
        assert first.basis == second.basis
        assert first.partition == second.partition


def test_nilpotent_jordan_eliminates_only_nonzero_powers(monkeypatch):
    """ker X^m = k^n is the standard basis, the one rank_nullspace reads
    off the zero matrix, so only the nonzero powers are eliminated."""
    for dom in (F2, QQ):
        for n in range(1, 5):
            assert rank_nullspace(Mat.zero(dom, n))[1] == \
                [Mat.unit(dom, n, 1, i, 0) for i in range(n)]
    calls = [0]

    def counting(M):
        calls[0] += 1
        return rank_nullspace(M)

    monkeypatch.setattr(jordan, "rank_nullspace", counting)
    rnd = random.Random(14)
    for dom in (F3, QQ):
        for lam in partitions_of(4):
            g = random_invertible(dom, 4, rnd, bound=2)
            X = g * jordan_form(dom, lam) * inverse(g)
            calls[0] = 0
            assert nilpotent_jordan(X).partition == lam
            assert calls[0] == len(nilpotent_powers(X)) == lam[0] - 1


def _basis_cases():
    """(domain, Y) for the Jordan form and one seeded dense conjugate
    g J g^-1 of every partition of n <= 6, over F_2, F_3, F_7 and Q."""
    rnd = random.Random(28)
    for dom in (F2, F3, Fp(7), QQ):
        for n in range(1, 7):
            for lam in partitions_of(n):
                J = jordan_form(dom, lam)
                g = random_invertible(dom, n, rnd, bound=3)
                yield dom, J
                yield dom, g * J * inverse(g)


# SHA-256 of the bases below on the cases of _basis_cases
_BASES_SHA = ("30ceb317c68230f828bc357c9f0dbbcc"
              "78e40dfdc62f4a9792bd2e9a097c7c6f")


def test_jordan_and_radical_bases_are_pinned():
    """The reports carry no bases, so this pins the choice of basis: the
    Jordan basis of nilpotent_jordan and positive_commutant_basis under
    the associated cocharacter, on 232 cases, hashed by integer form."""
    digest = hashlib.sha256()
    cases = 0
    for dom, Y in _basis_cases():
        psi = associated_cocharacter(Y).psi
        for M in [nilpotent_jordan(Y).basis] + \
                positive_commutant_basis(Y, psi):
            digest.update(repr((dom.p, M.rows, M.cols, M.num,
                                M.den)).encode())
        digest.update(b";")
        cases += 1
    assert cases == 232
    assert digest.hexdigest() == _BASES_SHA
