import itertools
import random
from fractions import Fraction

import pytest

from optsl2.errors import BudgetError, DomainError
from optsl2.matrices import (DEFAULT_BUDGET, IncrementalSpan, Mat,
                             ad_operator, bracket, commutes, conj_operator,
                             det, devectorize, enumerate_group, hstack,
                             in_span, inverse, mul_operator,
                             random_invertible, random_mat, rank,
                             rank_nullspace, rref, same_span, solve,
                             span_rank, vstack)
from optsl2.scalars import Fp, QQ

F2, F3, F5 = Fp(2), Fp(3), Fp(5)


def test_constructors_and_indexing():
    M = Mat.from_rows(F5, [[1, 7], [-1, 0]])
    assert M[0, 1] == 2 and M[1, 0] == 4
    assert M.row_values(0) == (1, 2)
    assert M.col(1).to_lists() == [[2], [0]]
    assert Mat.identity(F5, 3).is_identity()
    assert Mat.zero(F5, 2, 3).is_zero()
    assert Mat.unit(F5, 2, 2, 0, 1) == Mat.from_rows(F5, [[0, 1], [0, 0]])
    assert Mat.diagonal(QQ, [1, Fraction(1, 2)])[1, 1] == Fraction(1, 2)
    cols = Mat.from_cols(F3, [(1, 0), (2, 1)])
    assert cols == Mat.from_rows(F3, [[1, 2], [0, 1]])


def test_ring_operations_match_reference():
    rnd = random.Random(0)
    for dom in (F3, QQ):
        for _ in range(20):
            A = random_mat(dom, 3, 3, rnd, bound=4)
            B = random_mat(dom, 3, 3, rnd, bound=4)
            C = random_mat(dom, 3, 3, rnd, bound=4)
            assert (A + B) - B == A
            assert A * (B + C) == A * B + A * C
            assert (A * B).transpose() == B.transpose() * A.transpose()
            assert (A * B).trace() == (B * A).trace()
            assert A.scale(dom.of(2)) == A + A
            assert bracket(A, B) == A * B - B * A


def test_power_is_repeated_multiplication():
    A = Mat.from_rows(F5, [[1, 1], [0, 1]])
    assert A ** 0 == Mat.identity(F5, 2)
    assert A ** 7 == Mat.from_rows(F5, [[1, 7 % 5], [0, 1]])
    assert A ** -1 == inverse(A)
    assert (A ** -2) * (A ** 2) == Mat.identity(F5, 2)


def test_block_diag_and_stacks():
    A = Mat.from_rows(F3, [[1, 2]])
    B = Mat.from_rows(F3, [[2]])
    D = Mat.block_diag(F3, [A, B])
    assert D.to_lists() == [[1, 2, 0], [0, 0, 2]]
    assert vstack([A, Mat.from_rows(F3, [[0, 1]])]).rows == 2
    assert hstack([B, B]).to_lists() == [[2, 2]]


def test_rref_idempotent_and_pivot_rule():
    M = Mat.from_rows(F5, [[0, 2, 1], [0, 4, 2], [1, 1, 1]])
    rk, pivots, R = rref(M)
    assert rref(R) == (rk, pivots, R)
    assert rk == 2
    assert pivots == [0, 1]
    assert R.row_values(0)[pivots[0]] == 1
    assert rank(M) == 2


def test_rank_nullspace_over_both_domains():
    rnd = random.Random(1)
    for dom in (F2, F3, QQ):
        for _ in range(25):
            M = random_mat(dom, 4, 5, rnd, bound=3)
            rk, null = rank_nullspace(M)
            assert rk + len(null) == 5
            for v in null:
                assert (M * v).is_zero()
            assert span_rank(null) == len(null)


def test_inverse_and_solve():
    rnd = random.Random(2)
    for dom in (F3, F5, QQ):
        for _ in range(15):
            A = random_invertible(dom, 3, rnd, bound=3)
            assert A * inverse(A) == Mat.identity(dom, 3)
            b = random_mat(dom, 3, 1, rnd, bound=3)
            x = solve(A, b)
            assert A * x == b
    singular = Mat.from_rows(F3, [[1, 2], [2, 1 + 3]])
    with pytest.raises(DomainError):
        inverse(singular)


def test_det_multiplicative_and_matches_cofactor():
    rnd = random.Random(3)

    def cof3(M):
        # cyclic minors absorb the cofactor signs, so all terms add
        d = M.domain
        tot = d.zero()
        for j in range(3):
            minor = d.sub(
                d.mul(M[1, (j + 1) % 3], M[2, (j + 2) % 3]),
                d.mul(M[1, (j + 2) % 3], M[2, (j + 1) % 3]))
            tot = d.add(tot, d.mul(M[0, j], minor))
        return tot

    for dom in (F5, QQ):
        for _ in range(20):
            A = random_mat(dom, 3, 3, rnd, bound=3)
            B = random_mat(dom, 3, 3, rnd, bound=3)
            assert det(A) == cof3(A)
            assert det(A * B) == dom.mul(det(A), det(B))
    assert det(Mat.identity(QQ, 4)) == 1


def test_span_membership_helpers():
    vs = [Mat.from_rows(F3, [[1], [0], [1]]),
          Mat.from_rows(F3, [[0], [1], [1]])]
    assert in_span(vs, Mat.from_rows(F3, [[1], [1], [2]]))
    assert not in_span(vs, Mat.from_rows(F3, [[1], [0], [0]]))
    assert same_span(vs, [vs[1], vs[0] + vs[1]])
    assert not same_span(vs, [vs[0]])


def test_incremental_span_tracks_full_elimination():
    rnd = random.Random(4)
    for dom in (F2, QQ):
        span = IncrementalSpan(dom)
        added = []
        for _ in range(12):
            v = random_mat(dom, 1, 5, rnd, bound=2).data
            grew = span.add(v)
            if grew:
                added.append(v)
            assert span.contains(v)
            assert span.dim == span_rank(
                [Mat(dom, 5, 1, list(a)) for a in added])
        M = random_mat(dom, 3, 3, rnd)
        span2 = IncrementalSpan(dom)
        assert span2.add_mat(M) or M.is_zero()
        assert span2.contains_mat(M.scale(dom.of(1)))


def test_vectorize_devectorize_round_trip():
    M = Mat.from_rows(F5, [[1, 2], [3, 4]])
    assert devectorize(M.vectorize(), 2) == M


def test_operator_matrices_agree_with_direct_action():
    rnd = random.Random(5)
    for dom in (F3, QQ):
        X = random_mat(dom, 3, 3, rnd, bound=2)
        A = random_mat(dom, 3, 3, rnd, bound=2)
        B = random_mat(dom, 3, 3, rnd, bound=2)
        u = random_invertible(dom, 3, rnd, bound=2)
        M = random_mat(dom, 3, 3, rnd, bound=2)
        v = M.vectorize()
        assert devectorize(ad_operator(X) * v, 3) == bracket(X, M)
        assert devectorize(conj_operator(u) * v, 3) == u * M * inverse(u)
        assert devectorize(mul_operator(A, B) * v, 3) == A * M * B


def test_enumerate_group_order_and_determinism():
    els = list(enumerate_group(2, 2))
    assert len(els) == 6  # (4-1)(4-2) = 6
    assert els == list(enumerate_group(2, 2))
    seen = set(els)
    assert len(seen) == 6
    els3 = list(enumerate_group(2, 3))
    assert len(els3) == (9 - 1) * (9 - 3)
    with pytest.raises(BudgetError):
        list(enumerate_group(4, 3))
    assert 3 ** 16 > DEFAULT_BUDGET


def _rank_filtered_scan(n, p):
    """Reference enumeration: every n x n matrix over F_p in
    lexicographic entry order, kept when it has rank n."""
    dom = Fp(p)
    for entries in itertools.product(range(p), repeat=n * n):
        M = Mat(dom, n, n, entries)
        if rank(M) == n:
            yield M


@pytest.mark.parametrize("n, p", [(0, 2), (1, 2), (2, 2), (2, 3), (2, 5),
                                  (3, 2), (3, 3), (4, 2)])
def test_enumerate_group_equals_rank_filtered_scan(n, p):
    # the order is part of the contract, so compare lists, not sets
    assert list(enumerate_group(n, p)) == list(_rank_filtered_scan(n, p))


def _bump(M, i, j):
    """M with one to its (i, j) entry added."""
    data = list(M.data)
    data[i * M.cols + j] = M.domain.add(data[i * M.cols + j],
                                        M.domain.one())
    return Mat(M.domain, M.rows, M.cols, data)


def test_commutes_matches_products():
    rnd = random.Random(8)
    for dom in (F2, F3, F5, QQ):
        for n in (1, 2, 3, 4):
            for _ in range(10):
                A = random_mat(dom, n, n, rnd, bound=3)
                if not dom.is_fp:
                    A = A.scale(Fraction(1, rnd.randint(1, 4)))
                # polynomials in A commute with A
                P = A * A + A.scale(dom.of(2)) + Mat.identity(dom, n)
                B = random_mat(dom, n, n, rnd, bound=3)
                Q = _bump(P, rnd.randrange(n), rnd.randrange(n))
                for a, b in ((A, P), (P, A), (A, B), (A, Q), (Q, A)):
                    assert commutes(a, b) == (a * b == b * a)
                assert commutes(A, P)


def test_commutes_rejects_mixed_domains_and_shapes():
    rnd = random.Random(9)
    A3, A5 = random_mat(F3, 2, 2, rnd), random_mat(F5, 2, 2, rnd)
    AQ = random_mat(QQ, 2, 2, rnd)
    for a, b in ((A3, A5), (A3, AQ), (AQ, A5), (A3, random_mat(F3, 3, 3, rnd)),
                 (random_mat(F3, 2, 3, rnd), random_mat(F3, 2, 3, rnd))):
        with pytest.raises(DomainError):
            a * b == b * a
        with pytest.raises(DomainError):
            commutes(a, b)


def test_mixed_domain_arithmetic_rejected():
    A = Mat.identity(F3, 2)
    B = Mat.identity(F5, 2)
    with pytest.raises(DomainError):
        A + B
    with pytest.raises(DomainError):
        A * B
