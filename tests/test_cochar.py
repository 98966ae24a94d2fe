import random

import pytest

from optsl2.cochar import (Cocharacter, distinguished_check, graded_decompose,
                           levi_limit, parabolic_data, radical_class)
from optsl2.errors import DomainError, PreconditionError
from optsl2.matrices import Mat, bracket, random_mat
from optsl2.scalars import Fp, QQ

F2 = Fp(2)
F3 = Fp(3)
F5 = Fp(5)


def test_constructor_validation():
    with pytest.raises(DomainError):
        Cocharacter(Mat.zero(F3, 2, 3), (1, 0))
    with pytest.raises(DomainError):
        Cocharacter(Mat.identity(F3, 2), (1, 0, -1))
    with pytest.raises(DomainError):
        Cocharacter(Mat.zero(F3, 2, 2), (1, 0))


def test_diagonal_values():
    gamma = Cocharacter.diagonal(F5, (2, 0, -1))
    assert gamma.at(2) == Mat.diagonal(F5, [4, 1, 3])
    assert gamma.at(1) == Mat.identity(F5, 3)
    with pytest.raises(DomainError):
        gamma.at(0)
    mu = Cocharacter.diagonal(QQ, (1, -1))
    assert mu.at("1/2") == Mat.diagonal(QQ, ["1/2", 2])


def test_weight_projections_resolve_identity():
    gamma = Cocharacter.diagonal(F3, (1, 1, 0, -2))
    total = Mat.zero(F3, 4, 4)
    for w in gamma.weight_values():
        P = gamma.weight_projection(w)
        assert P * P == P
        total = total + P
    assert total == Mat.identity(F3, 4)


def test_equality_is_basis_independent():
    swap = Mat.from_rows(F3, [[0, 1], [1, 0]])
    a = Cocharacter.diagonal(F3, (1, 0))
    b = Cocharacter(swap, (0, 1))
    assert a == b
    assert hash(a) == hash(b)
    assert a != Cocharacter.diagonal(F3, (0, 1))
    assert a != Cocharacter.diagonal(F3, (2, 0))


def test_graded_components_sum_and_multiply():
    rnd = random.Random(4)
    gamma = Cocharacter.diagonal(F5, (2, 0, 0, -1))
    for _ in range(10):
        M = random_mat(F5, 4, 4, rnd)
        comps = graded_decompose(gamma, M)
        total = Mat.zero(F5, 4, 4)
        for w, part in comps.items():
            assert gamma.component(part, w) == part
            total = total + part
        assert total == M
    # grading respects the bracket: degrees add
    A = gamma.component(random_mat(F5, 4, 4, rnd), 2)
    B = gamma.component(random_mat(F5, 4, 4, rnd), 1)
    C = bracket(A, B)
    assert gamma.component(C, 3) == C


def test_piece_basis_dimensions():
    gamma = Cocharacter.diagonal(QQ, (1, 0, -1))
    pieces = {w: gamma.piece_basis(w) for w in gamma.ad_weight_values()}
    dims = {w: len(bs) for w, bs in pieces.items()}
    assert dims == {-2: 1, -1: 2, 0: 3, 1: 2, 2: 1}
    assert sum(dims.values()) == 9
    for w, bs in pieces.items():
        assert all(gamma.component(B, w) == B for B in bs)
    assert gamma.piece_basis(3) == []


def test_parabolic_membership_and_dims():
    gamma = Cocharacter.diagonal(F3, (1, 0, -1))
    pd = parabolic_data(gamma)
    assert (pd.dim_z, pd.dim_u, pd.dim_p) == (3, 3, 6)
    upper = Mat.from_rows(F3, [[1, 2, 0], [0, 1, 1], [0, 0, 2]])
    lower = Mat.from_rows(F3, [[1, 0, 0], [1, 1, 0], [0, 0, 1]])
    assert pd.contains(upper)
    assert not pd.contains(lower)
    assert pd.levi_contains(Mat.diagonal(F3, [1, 2, 1]))
    assert not pd.levi_contains(upper)
    unip = Mat.from_rows(F3, [[1, 2, 1], [0, 1, 0], [0, 0, 1]])
    assert pd.radical_contains(unip)
    assert not pd.radical_contains(Mat.diagonal(F3, [2, 1, 1]))
    assert pd.lie_contains(Mat.from_rows(F3, [[1, 1, 0], [0, 0, 2], [0, 0, 1]]))
    assert not pd.lie_contains(lower)
    assert len(pd.lie_p_basis()) == pd.dim_p
    assert len(pd.lie_u_basis()) == pd.dim_u
    assert len(pd.lie_z_basis()) == pd.dim_z


def test_levi_limit_kills_the_radical():
    gamma = Cocharacter.diagonal(QQ, (1, 1, 0))
    g = Mat.from_rows(QQ, [[2, 1, 5], [0, 1, 7], [0, 0, 3]])
    limit = levi_limit(gamma, g)
    assert limit == Mat.from_rows(QQ, [[2, 1, 0], [0, 1, 0], [0, 0, 3]])
    unip = Mat.from_rows(QQ, [[1, 0, 4], [0, 1, 1], [0, 0, 1]])
    assert levi_limit(gamma, unip) == Mat.identity(QQ, 3)
    with pytest.raises(PreconditionError):
        levi_limit(gamma, Mat.from_rows(QQ, [[1, 0, 0], [0, 1, 0], [1, 0, 1]]))


def test_levi_limit_matches_conjugation_at_values():
    # over Q the limit agrees with gamma(t) g gamma(t)^-1 after the
    # positive-weight entries are scaled down; spot check at t = 1/2
    gamma = Cocharacter.diagonal(QQ, (1, 0))
    g = Mat.from_rows(QQ, [[1, 3], [0, 2]])
    conj = gamma.at("1/2") * g * gamma.at(2)
    assert conj == Mat.from_rows(QQ, [[1, QQ.of("3/2")], [0, 2]])
    assert levi_limit(gamma, g) == Mat.from_rows(QQ, [[1, 0], [0, 2]])


def test_distinguished_check():
    # Borel weights: always a distinguished parabolic
    assert distinguished_check(Cocharacter.diagonal(QQ, (2, 0, -2))).is_distinguished
    assert distinguished_check(Cocharacter.diagonal(F5, (1, 0, -1))).is_distinguished
    # two equal blocks: abelian radical, too small
    rep = distinguished_check(Cocharacter.diagonal(QQ, (1, 1, 0, 0)))
    assert rep.dim_levi == 8
    assert rep.dim_u_mod_comm == 4
    assert not rep.is_distinguished


def test_radical_class():
    for n in range(2, 6):
        gamma = Cocharacter.diagonal(QQ, range(n - 1, -n, -2))
        assert radical_class(gamma) == n - 1
    assert radical_class(Cocharacter.diagonal(F2, (1, 1, 0, 0))) == 1
    assert radical_class(Cocharacter.diagonal(F3, (0, 0))) == 0
