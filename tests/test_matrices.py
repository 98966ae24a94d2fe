import inspect
import itertools
import random
import sys
from fractions import Fraction
from math import comb, factorial, gcd
from types import SimpleNamespace

import pytest

from optsl2 import cli, jordan, matrices, partitions, sl2
from optsl2.cochar import Cocharacter
from optsl2.errors import BudgetError, DomainError, OptSL2Error
from optsl2.matrices import (Mat, ad_operator, bracket, combination_walk,
                             commutes, det, devectorize, enumerate_group,
                             hstack, independent, intertwiner_counts,
                             intertwiner_forms, inverse, random_invertible,
                             random_mat, rank, rank_nullspace, rref,
                             same_span, solve)
from optsl2.orbits import is_associated, rep_from_partition
from optsl2.partitions import (centralizer_dim, centralizer_order,
                               partitions_of)
from optsl2.scalars import Fp, QQ
from optsl2.jordan import nilpotent_jordan
from optsl2.sl2 import (build_optimal, eval_hom, exp_centralizer_check,
                        hom_centralizer_check, sl2_sample, sym_power_rep)
from optsl2.springer import eps_exp
from optsl2.suites import run_suite

F2, F3, F5, F7 = Fp(2), Fp(3), Fp(5), Fp(7)


def span_rank(vectors) -> int:
    """Dimension of the span of column vectors, by one full elimination."""
    vectors = list(vectors)
    if not vectors:
        return 0
    return rank(hstack(vectors))


def in_span(vectors, v) -> bool:
    """Whether the column vector v lies in the span of vectors."""
    vectors = list(vectors)
    if not vectors:
        return v.is_zero()
    base = hstack(vectors)
    return rank(base) == rank(hstack([base, v]))


def test_constructors_and_indexing():
    M = Mat.from_rows(F5, [[1, 7], [-1, 0]])
    assert M[0, 1] == 2 and M[1, 0] == 4
    assert M.row_values(0) == (1, 2)
    assert M.col(1).to_lists() == [[2], [0]]
    assert Mat.identity(F5, 3).is_identity()
    assert Mat.zero(F5, 2, 3).is_zero()
    assert Mat.unit(F5, 2, 2, 0, 1) == Mat.from_rows(F5, [[0, 1], [0, 0]])
    assert Mat.diagonal(QQ, [1, Fraction(1, 2)])[1, 1] == Fraction(1, 2)


def test_ring_operations_match_reference():
    rnd = random.Random(0)
    for dom in (F3, QQ):
        for _ in range(20):
            A = random_mat(dom, 3, 3, rnd, bound=4)
            B = random_mat(dom, 3, 3, rnd, bound=4)
            C = random_mat(dom, 3, 3, rnd, bound=4)
            assert (A + B) - B == A
            assert A * (B + C) == A * B + A * C
            assert A.scale(dom.of(2)) == A + A
            assert bracket(A, B) == A * B - B * A


def test_power_is_repeated_multiplication():
    A = Mat.from_rows(F5, [[1, 1], [0, 1]])
    assert A ** 0 == Mat.identity(F5, 2)
    assert A ** 7 == Mat.from_rows(F5, [[1, 7 % 5], [0, 1]])
    assert A ** -1 == inverse(A)
    assert (A ** -2) * (A ** 2) == Mat.identity(F5, 2)


def test_power_squares_only_while_bits_remain(monkeypatch):
    rnd = random.Random(9)
    for dom in (F3, QQ):
        A = random_invertible(dom, 3, rnd, bound=3)
        expected = [Mat.identity(dom, 3)]
        for _ in range(12):
            expected.append(expected[-1] * A)
        calls = [0]
        exact = Mat.__mul__

        def counted(a, b):
            calls[0] += 1
            return exact(a, b)

        monkeypatch.setattr(Mat, "__mul__", counted)
        for e, want in enumerate(expected):
            calls[0] = 0
            assert A ** e == want
            # one squaring per bit after the first, one product per
            # further set bit; nothing multiplies onto the identity
            squarings = max(0, e.bit_length() - 1)
            assert calls[0] == squarings + max(0, bin(e).count("1") - 1)
        monkeypatch.undo()


def test_block_diag_and_stacks():
    A = Mat.from_rows(F3, [[1, 2]])
    B = Mat.from_rows(F3, [[2]])
    D = Mat.block_diag(F3, [A, B])
    assert D.to_lists() == [[1, 2, 0], [0, 0, 2]]
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


def _span_candidates(dom, rnd, length=6):
    """Vectors for independent: seeded random ones (over Q with
    denominators up to 12), the first twelve combinations of three
    fixed ones so the span stays small a while, scaled duplicates of
    earlier vectors and the zero vector."""
    def draw():
        v = list(random_mat(dom, 1, length, rnd, bound=2).data)
        if dom.p is None:
            v = [x / rnd.randint(1, 12) for x in v]
        return v

    def coeff():
        if dom.p is None:
            return Fraction(rnd.randint(-4, 4), rnd.randint(1, 9))
        return dom.of(rnd.randrange(dom.p))

    hidden = [draw() for _ in range(3)]
    drawn = []
    for k in range(28):
        if k % 7 == 5:
            v = [dom.zero()] * length
        elif drawn and k % 4 == 3:
            c = coeff() or dom.one()
            v = [dom.mul(c, x) for x in rnd.choice(drawn)]
        elif k < 12:
            v = [dom.zero()] * length
            for h in hidden:
                c = coeff()
                v = [dom.add(x, dom.mul(c, y)) for x, y in zip(v, h)]
        else:
            v = draw()
        drawn.append(v)
    return drawn


def test_independent_matches_fraction_gauss_jordan():
    """independent gives the candidates that raise the reference rank of
    the ones before them, which are the reference pivot columns of the
    matrix they form as columns: Fraction Gauss-Jordan over Q, on
    residues over F_p.  Matrices of any shape count as the vectors of
    their entries; mixed domains and shapes raise."""
    rnd = random.Random(4)
    for dom in (F2, F3, F5, F7, QQ):
        cands = _span_candidates(dom, rnd)
        found = independent(Mat(dom, 6, 1, v) for v in cands)
        columns = [[v[i] for v in cands] for i in range(6)]
        ranks = [_rref_reference([row[:k] for row in columns], dom.p)[0]
                 for k in range(len(cands) + 1)]
        assert found == [k for k in range(len(cands))
                         if ranks[k + 1] > ranks[k]]
        assert found == _rref_reference(columns, dom.p)[1]
        assert len(found) == 6
        assert sum(k < 12 for k in found) <= 3
        assert set(range(12, len(cands))) - set(found)
        M = random_mat(dom, 3, 3, rnd)
        Z = Mat.zero(dom, 3)
        assert independent([Z, M, M.scale(dom.of(-1)), Z]) == \
            ([] if M.is_zero() else [1])
        assert independent([]) == []
    for vs in ([Mat.zero(F3, 2, 1), Mat.zero(F5, 2, 1)],
               [Mat.zero(F3, 2, 1), Mat.zero(QQ, 2, 1)],
               [Mat.zero(F3, 2, 1), Mat.zero(F3, 3, 1)],
               [Mat.zero(F3, 2, 1), Mat.zero(F3, 1, 2)]):
        with pytest.raises(DomainError):
            independent(vs)


def test_hstack_builds_one_integer_form():
    """hstack over Q reads only the integer forms: inputs built by
    from_ints keep their Fractions unbuilt, and the result equals the
    matrix built from the Fraction entries side by side.  Mismatched
    row counts or domains raise."""
    rnd = random.Random(28)
    for _ in range(20):
        r = rnd.randint(0, 4)
        mats = [_q_case(rnd, r, rnd.randint(1, 3))
                for _ in range(rnd.randint(1, 4))]
        mats = [Mat.from_ints(QQ, M.rows, M.cols, M.num, M.den)
                for M in mats]
        H = hstack(mats)
        assert all(M._entries is None for M in mats)
        want = [x for i in range(r) for M in mats
                for x in M.data[i * M.cols:(i + 1) * M.cols]]
        assert H == Mat(QQ, r, sum(M.cols for M in mats), want)
    for dom in (F2, F7):
        A, B = random_mat(dom, 3, 2, rnd), random_mat(dom, 3, 1, rnd)
        assert hstack([A, B]).to_lists() == [a + b for a, b in
                                             zip(A.to_lists(), B.to_lists())]
    for mats in ([Mat.zero(F3, 2, 1), Mat.zero(F3, 3, 1)],
                 [Mat.zero(F3, 2, 1), Mat.zero(F5, 2, 1)],
                 [Mat.zero(QQ, 2, 1), Mat.zero(F3, 2, 1)]):
        with pytest.raises(DomainError):
            hstack(mats)


def test_vectorize_devectorize_round_trip():
    M = Mat.from_rows(F5, [[1, 2], [3, 4]])
    assert devectorize(M.vectorize(), 2) == M


def test_operator_matrices_agree_with_direct_action():
    rnd = random.Random(5)
    for dom in (F3, QQ):
        X = random_mat(dom, 3, 3, rnd, bound=2)
        random_mat(dom, 3, 3, rnd, bound=2)  # keeps the seeded draws
        random_mat(dom, 3, 3, rnd, bound=2)
        u = random_invertible(dom, 3, rnd, bound=2)
        M = random_mat(dom, 3, 3, rnd, bound=2)
        v = M.vectorize()
        assert devectorize(ad_operator(X) * v, 3) == bracket(X, M)
        # conjugation moves M by [u, M] u^-1, so its fixed points are
        # ker ad(u), the identity exp_kernels_agree and tilting rely on
        assert devectorize(ad_operator(u) * v, 3) * inverse(u) \
            == u * M * inverse(u) - M


def _ad_reference(X):
    """ad X term by term: d.add/d.sub of every X[i, k] and X[l, j]."""
    n, d = X.rows, X.domain
    N = n * n
    data = [d.zero()] * (N * N)
    for i in range(n):
        for j in range(n):
            row = i * n + j
            for k in range(n):
                t = row * N + k * n + j
                data[t] = d.add(data[t], X[i, k])
            for l in range(n):
                t = row * N + i * n + l
                data[t] = d.sub(data[t], X[l, j])
    return Mat(d, N, N, data)


def test_operator_matrices_match_term_by_term_reference():
    rnd = random.Random(48)
    for dom in (F2, F3, F5, QQ):
        for n in range(1, 5):
            for _ in range(4):
                X, A, B = (random_mat(dom, n, n, rnd, bound=3)
                           for _ in range(3))
                # sparse inputs exercise the skipped zero entries
                S = Mat(dom, n, n, [x if rnd.random() < 0.3 else dom.zero()
                                    for x in X.data])
                for M in (X, S, Mat.zero(dom, n), Mat.identity(dom, n)):
                    assert ad_operator(M) == _ad_reference(M)
                if dom is QQ:
                    assert all(isinstance(v, Fraction)
                               for v in ad_operator(X).data)


def test_enumerate_group_order_and_determinism():
    els = list(enumerate_group(2, 2))
    assert len(els) == 6  # (4-1)(4-2) = 6
    assert els == list(enumerate_group(2, 2))
    seen = set(els)
    assert len(seen) == 6
    els3 = list(enumerate_group(2, 3))
    assert len(els3) == (9 - 1) * (9 - 3)
    # the walk charges the 81 rows of each prefix it extends, so it
    # stops after about 10^4 / 81 prefixes, long before it holds
    # GL_4(F_3)
    with pytest.raises(BudgetError):
        list(enumerate_group(4, 3, budget=10 ** 4))


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
    # the order is part of the contract, so compare lists, not sets;
    # the stream holds the flat row-major entry tuples
    assert list(enumerate_group(n, p)) == \
        [M.data for M in _rank_filtered_scan(n, p)]


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
                if dom.p is None:
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


def _forms_vanish(forms, x, p):
    """Whether every (index, coefficient) form is zero on the flat tuple
    x: mod p over F_p, exactly over Q (p None)."""
    values = (sum(x[t] * c for t, c in form) for form in forms)
    return not any(v % p if p else v for v in values)


def test_intertwiner_test_matches_products():
    """The forms of intertwiner_forms(P, Q) vanish on x exactly when
    x P == Q x, over F_p and Q."""
    rnd = random.Random(10)
    for dom in (F2, F3, F5, F7, QQ):
        for n in range(5):
            zero, one = Mat.zero(dom, n), Mat.identity(dom, n)
            for _ in range(6):
                A = random_mat(dom, n, n, rnd, bound=3)
                g = random_invertible(dom, n, rnd, bound=3)
                if dom.p is None:
                    A = A.scale(Fraction(1, rnd.randint(1, 4)))
                # g intertwines A with g A g^-1
                conj = g * A * inverse(g)
                pairs = ((A, A), (A, conj), (A, random_mat(dom, n, n, rnd)))
                xs = (zero, one, g, random_mat(dom, n, n, rnd, bound=3))
                for P, Q in pairs:
                    forms = intertwiner_forms(P, Q)
                    for x in xs:
                        assert _forms_vanish(forms, x.data, dom.p) == \
                            (x * P == Q * x)
                assert _forms_vanish(intertwiner_forms(A, conj), g.data,
                                     dom.p)


def test_intertwiner_test_rejects_mixed_domains_and_shapes():
    rnd = random.Random(11)
    A3, A5 = random_mat(F3, 2, 2, rnd), random_mat(F5, 2, 2, rnd)
    for a, b in ((A3, A5), (A3, random_mat(QQ, 2, 2, rnd)),
                 (A3, random_mat(F3, 3, 3, rnd)),
                 (random_mat(F3, 2, 3, rnd), random_mat(F3, 2, 3, rnd))):
        with pytest.raises(DomainError):
            intertwiner_forms(a, b)


def _filtered_counts(n, p, sides):
    """Reference for intertwiner_counts: every element of GL_n(F_p)
    from enumerate_group, tested on every pair of every side by
    evaluating all of intertwiner_forms (held against literal products
    above)."""
    compiled = [[intertwiner_forms(A, B) for A, B in side] for side in sides]
    union, counts = 0, [0] * len(sides)
    for g in enumerate_group(n, p):
        hits = [all(_forms_vanish(forms, g, p) for forms in side)
                for side in compiled]
        union += any(hits)
        for s, hit in enumerate(hits):
            counts[s] += hit
    return union, counts


def _random_pair(dom, n, rnd):
    """One (A, B) pair of a kind drawn from rnd: a commutant, an
    intertwiner of A with a conjugate (a coset of C(A)), an unrelated
    pair, a scalar pair with no forms, or an upper-triangular nilpotent
    with its truncated exponential."""
    kind = rnd.randrange(5)
    A = random_mat(dom, n, n, rnd)
    if kind == 0:
        return A, A
    if kind == 1:
        g = random_invertible(dom, n, rnd)
        return A, g * A * inverse(g)
    if kind == 2:
        return A, random_mat(dom, n, n, rnd)
    if kind == 3:
        c = Mat.identity(dom, n).scale(rnd.randrange(dom.p))
        return c, c
    lam = rnd.choice([lam for lam in partitions_of(n) if lam[0] <= dom.p])
    X = rep_from_partition(dom, lam)
    return X, eps_exp(X) if rnd.randrange(2) else X


def _random_sides(dom, n, rnd):
    return [[_random_pair(dom, n, rnd) for _ in range(rnd.randint(1, 3))]
            for _ in range(rnd.randint(1, 3))]


def test_intertwiner_counts_match_a_filtered_enumeration():
    rnd = random.Random(22)
    for p in (2, 3):
        dom = Fp(p)
        for n in (1, 2, 3):
            for _ in range(12 if n < 3 else 6):
                sides = _random_sides(dom, n, rnd)
                assert intertwiner_counts(n, p, sides) == \
                    _filtered_counts(n, p, sides), sides
    # a side with no pairs holds everywhere, and no side holds nowhere
    assert intertwiner_counts(2, 3, [[]]) == (48, [48])
    assert intertwiner_counts(2, 3, []) == (0, [])
    assert intertwiner_counts(0, 2, [[]]) == (1, [1])
    assert intertwiner_counts(0, 2, []) == (0, [])


def test_intertwiner_counts_match_on_the_centralizer_suite_sides(
        monkeypatch):
    walks = []
    exact = sl2.intertwiner_counts

    def recorded(n, p, sides, budget):
        result = exact(n, p, sides, budget)
        walks.append((n, p, sides, result))
        return result

    monkeypatch.setattr(sl2, "intertwiner_counts", recorded)
    assert not run_suite("centralizer").falsified
    # both checks of every admissible (p, partition) of n <= 3
    assert len(walks) == 2 * 11
    # and of every admissible partition of n <= 4 at p = 2, where the
    # walks of 1^n are one count each
    assert not run_suite("centralizer", n_max=4, primes=(2,)).falsified
    assert len(walks) == 2 * 11 + 2 * 8
    for n, p, sides, result in walks:
        assert result == _filtered_counts(n, p, sides)


def _tail_cases():
    """(n, p, sides, last row any form reads): the commutant of every
    partition of n <= 4 at p = 2 beside a side with no pairs, which
    reads row n - 1 unless X = 0; X = 0 with the identity; and a scalar
    pair (c, c + E_0k) beside X = 0, whose forms (c - B) x read only row
    k of x, row n - 1 - k of the walk (x reversed), so its count is 0
    while the union is |GL_n(F_p)|."""
    cases = []
    for p, n_max in ((2, 4), (3, 3)):
        dom = Fp(p)
        for n in range(1, n_max + 1):
            zero, one = Mat.zero(dom, n), Mat.identity(dom, n)
            cases.append((n, p, [[(zero, zero)], [(one, one), (zero, zero)]],
                          -1))
            for k in range(1, n):
                c = one.scale(p - 1)
                cases.append((n, p, [[(c, c + Mat.unit(dom, n, n, 0, k))],
                                     [(zero, zero)]], n - 1 - k))
            if p == 2:
                for lam in partitions_of(n):
                    X = rep_from_partition(dom, lam)
                    cases.append((n, p, [[(X, X)], []],
                                  n - 1 if lam[0] > 1 else -1))
    return cases


def test_tail_counts_match_the_enumeration():
    """The walk that counts the completions below the last row any form
    reads gives the counts of the full enumeration: on the commutant of
    every partition of n <= 4 at p = 2, on X = 0 and on walks that stop
    at every depth from 0 to n - 2."""
    for n, p, sides, last in _tail_cases():
        forms = [[tuple((n * n - 1 - t, c) for t, c in form)
                  for A, B in side for form in intertwiner_forms(A, B)]
                 for side in sides]
        assert matrices._pruning_step(p, forms, n, n).last == last
        assert intertwiner_counts(n, p, sides) == \
            _filtered_counts(n, p, sides), (n, p, sides)


def test_zero_nilpotent_walks_test_no_row(monkeypatch):
    """Tier-1 guard on the tail count: for X = 0 no side has a form, so
    both centralizer walks of the partition 1^n are one count of
    GL_n(F_p), 11,232 for (1, 1, 1) over F_3, and call the pruning step
    zero times."""
    tested = []
    exact = matrices._pruning_step

    def counted(*args):
        step = exact(*args)

        def counting(depth, prefix, alive):
            tested.append(depth)
            return step(depth, prefix, alive)
        counting.last = step.last
        return counting

    monkeypatch.setattr(matrices, "_pruning_step", counted)
    for p, lam in ((2, (1, 1)), (2, (1, 1, 1, 1)), (3, (1, 1, 1))):
        X = rep_from_partition(Fp(p), lam)
        rep = exp_centralizer_check(X)
        assert rep.group_agree and rep.group_size == centralizer_order(lam, p)
        assert hom_centralizer_check(build_optimal(X)) \
            .image_centralizer_size == centralizer_order(lam, p)
    assert tested == []
    # the counting step is in place: the regular nilpotent tests rows
    assert exp_centralizer_check(rep_from_partition(F3, (3,))).group_size \
        == 18
    assert tested


def test_planted_tail_count_fault_is_caught(monkeypatch):
    """A tail count that takes p^(i+1) for the p^i vectors of the span
    at depth i disagrees with the full enumeration on every walk that
    stops early."""
    def shifted(n, p, rows):
        count = 1
        for i in range(rows, n):
            count *= p ** n - p ** (i + 1)
        return count

    cases = [(n, p, sides, _filtered_counts(n, p, sides))
             for n, p, sides, last in _tail_cases() if last < n - 1]
    monkeypatch.setattr(matrices, "_completions", shifted)
    for n, p, sides, expected in cases:
        assert intertwiner_counts(n, p, sides) != expected, (n, p, sides)
    assert intertwiner_counts(3, 3, [[]]) != (11232, [11232])


def test_planted_gl_order_fault_falsifies_the_zero_records(monkeypatch):
    """The tail count is a second route to |GL_n(F_p)|: with
    partitions._gl_order one factor short, the closed forms move and
    both group records of the partition (1, 1, 1), X = 0, are
    falsified, because the walk does not read _gl_order."""
    def one_factor_short(m, q):
        order = 1
        for i in range(m - 1):
            order *= q ** m - q ** i
        return order

    monkeypatch.setattr(partitions, "_gl_order", one_factor_short)
    zero = [r for r in run_suite("centralizer").records
            if r.instance["partition"] == [1, 1, 1]]
    claims = {"exp-centralizer-equals-x-centralizer",
              "image-centralizer-intersection"}
    assert sorted(r.instance["p"] for r in zero if r.claim in claims) == \
        [2, 2, 3, 3]
    assert all(r.verified is False for r in zero if r.claim in claims)
    assert {(r.instance["p"], r.witness.get("group_size",
             r.witness.get("centralizer_size"))) for r in zero
            if r.claim in claims} == {(2, 168), (3, 11232)}


def test_intertwiner_counts_on_one_by_one_and_budget():
    for p in (2, 3, 5):
        dom = Fp(p)
        for a in range(p):
            A = Mat(dom, 1, 1, (a,))
            B = Mat(dom, 1, 1, ((a + 1) % p,))
            assert intertwiner_counts(1, p, [[(A, A)], [(A, B)]]) == \
                _filtered_counts(1, p, [[(A, A)], [(A, B)]]) == \
                (p - 1, [p - 1, 0])
    # a side with no form is one count, which visits no row, so no
    # budget stops it; with no side nothing is walked
    order = (81 - 1) * (81 - 3) * (81 - 9) * (81 - 27)
    assert intertwiner_counts(4, 3, [[]], budget=1) == (order, [order])
    assert intertwiner_counts(4, 3, [], budget=1) == (0, [])
    # C(J_2) over F_2: the 4 first rows of y, then the 4 second rows of
    # the one prefix C(J_2) keeps
    J = Mat.from_rows(F2, [[0, 1], [0, 0]])
    assert intertwiner_counts(2, 2, [[(J, J)]], budget=8) == (2, [2])
    with pytest.raises(BudgetError,
                       match="^walk of 8 candidates exceeds budget 7$"):
        intertwiner_counts(2, 2, [[(J, J)]], budget=7)
    with pytest.raises(DomainError):
        intertwiner_counts(2, 3, [[(Mat.identity(F2, 2),) * 2]])
    with pytest.raises(DomainError):
        intertwiner_counts(2, 3, [[(Mat.identity(F3, 3),) * 2]])


def test_intertwiner_counts_eliminate_nothing(monkeypatch):
    rnd = random.Random(23)
    cases = []
    for p in (2, 3):
        for n in (2, 3):
            sides = _random_sides(Fp(p), n, rnd)
            cases.append((n, p, sides, _filtered_counts(n, p, sides)))

    def no_elimination(*args):
        raise AssertionError("the walk eliminated")

    monkeypatch.setattr(matrices, "_rref_rows", no_elimination)
    monkeypatch.setattr(matrices, "rank", no_elimination)
    for n, p, sides, expected in cases:
        assert intertwiner_counts(n, p, sides) == expected


def _one_level_early(monkeypatch):
    """Plant an unsound cut in the bucketing both walks share: each form
    is evaluated one depth early (one row, or one coefficient), with the
    entries that depth does not fix yet read as zero."""
    exact = matrices._depth_buckets

    def one_level_early(forms, width, depths):
        buckets = exact(forms, width, depths)
        early = [list(buckets[0])]
        for d in range(1, depths):
            early[-1].extend(form for form in (
                tuple((t, c) for t, c in form if t < d * width)
                for form in buckets[d]) if form)
            early.append([])
        return early

    monkeypatch.setattr(matrices, "_depth_buckets", one_level_early)


def test_planted_early_cut_is_caught(monkeypatch):
    """Each form evaluated one row early, its entries not yet fixed read
    as zero, prunes prefixes whose completions lie in a centralizer."""
    X = rep_from_partition(F3, (3,))
    sides = [[(u, u)] for u in (X, eps_exp(X), eps_exp(X.scale(2)))]
    expected = _filtered_counts(3, 3, sides)
    assert intertwiner_counts(3, 3, sides) == expected == (18, [18] * 3)
    _one_level_early(monkeypatch)
    assert intertwiner_counts(3, 3, sides) != expected


def test_planted_early_coefficient_cut_is_caught(monkeypatch):
    """The same cut in the coefficient walk, each form evaluated one
    coefficient early: it loses radical conjugators, so counts change
    and the conjugacy suite falsifies records."""
    phi1 = build_optimal(rep_from_partition(F3, (2, 1)))
    basis = phi1.radical_basis
    twists = [sl2.radical_element(F3, 3, basis, c)
              for c in itertools.product(range(3), repeat=len(basis))]
    phi2s = [sl2.conjugate_hom(phi1, x) for x in twists]
    assert sl2.radical_conjugator_counts(phi1, phi2s, basis) == \
        [1] * len(twists)
    _one_level_early(monkeypatch)
    assert sl2.radical_conjugator_counts(phi1, phi2s, basis) != \
        [1] * len(twists)
    assert run_suite("conjugacy").falsified


def test_combination_walk_checks_its_inputs():
    """Every basis element and every pair must be n x n over F_p: a
    basis over another prime, a basis of another size and pairs over
    another prime each raise, where they were once read mod p or cut
    short."""
    A = rep_from_partition(F3, (2,))
    for basis, sides in (([Mat.unit(F5, 2, 2, 0, 1)], [[(A, A)]]),
                         ([Mat.unit(F3, 3, 3, 0, 1)], [[(A, A)]]),
                         ([Mat.unit(F3, 2, 3, 0, 1)], [[(A, A)]]),
                         ([A], [[(rep_from_partition(F5, (2,)),) * 2]]),
                         ([A], [[(A, A)], [(Mat.identity(F3, 3),) * 2]]),
                         ([A], [[(Mat.identity(QQ, 2),) * 2]])):
        with pytest.raises(DomainError):
            combination_walk(3, 2, basis, sides)
    with pytest.raises(DomainError):
        combination_walk(4, 2, [], [])
    # with no sides nothing holds, so nothing is yielded
    assert list(combination_walk(3, 2, [A], [])) == []
    # the same inputs over F_3 walk: 1 + c A commutes with A for all c
    assert [(c, list(alive)) for c, alive in
            combination_walk(3, 2, [A], [[(A, A)]])] == \
        [((c,), [0]) for c in range(3)]


def test_walks_charge_what_they_visit(monkeypatch):
    """A budget is the candidates a walk scans, charged per prefix: the
    row walk over GL_2(F_2) scans 4 first rows and 4 second rows under
    each of the 3 nonzero first rows, 16 in all; combination_walk over
    x = 1 + c A scans the one leading 1 and 3 values of c."""
    assert len(list(enumerate_group(2, 2, budget=16))) == 6
    with pytest.raises(BudgetError,
                       match="^walk of 16 candidates exceeds budget 15$"):
        list(enumerate_group(2, 2, budget=15))
    A = rep_from_partition(F3, (2,))
    assert len(list(combination_walk(3, 2, [A], [[(A, A)]], budget=4))) == 3
    with pytest.raises(BudgetError,
                       match="^walk of 4 candidates exceeds budget 3$"):
        list(combination_walk(3, 2, [A], [[(A, A)]], budget=3))

    # the first charge comes on the call, before the 7^8 rows are built
    def refused(*args, **kw):
        raise AssertionError("the walk built its rows")

    monkeypatch.setattr(matrices, "itertools",
                        SimpleNamespace(product=refused))
    with pytest.raises(BudgetError,
                       match="^walk of 5764801 candidates exceeds budget 10$"):
        matrices._row_walk(8, 7, budget=10)


def _plant_uncharged(monkeypatch, module, name):
    """Replace the walk module.name by the same walk on a meter that
    charges nothing."""
    exact = getattr(module, name)

    def uncharged(*args, **kw):
        with monkeypatch.context() as m:
            m.setattr(matrices, "_meter", lambda budget: lambda k: None)
            return exact(*args, **kw)

    monkeypatch.setattr(module, name, uncharged)


def test_planted_uncharged_row_walk_runs_past_the_budget(monkeypatch):
    """A row walk that charges nothing fails the budget tests: its
    walks finish at budgets the metered walk cannot pass, and the
    centralizer records it should skip are walked in full."""
    J = Mat.from_rows(F2, [[0, 1], [0, 0]])
    grid = {"n_max": 3, "primes": (3,), "budget": 81}
    assert run_suite("centralizer", **grid).summary["skipped"] == 4
    _plant_uncharged(monkeypatch, matrices, "_row_walk")
    assert len(list(enumerate_group(2, 2, budget=15))) == 6
    assert intertwiner_counts(2, 2, [[(J, J)]], budget=7) == (2, [2])
    assert run_suite("centralizer", **grid).summary["skipped"] == 0
    # the radical walk still charges
    A = rep_from_partition(F3, (2,))
    with pytest.raises(BudgetError):
        list(combination_walk(3, 2, [A], [[(A, A)]], budget=3))


def test_planted_uncharged_combination_walk_runs_past_the_budget(
        monkeypatch):
    """A combination_walk that charges nothing fails the budget tests:
    it finishes at a budget the metered walk cannot pass, and the
    conjugacy records it should skip are walked in full."""
    A = rep_from_partition(F3, (2,))
    grid = {"n_max": 4, "primes": (3,), "budget": 10}
    assert run_suite("conjugacy", **grid).summary["skipped"] > 0
    _plant_uncharged(monkeypatch, matrices, "combination_walk")
    _plant_uncharged(monkeypatch, sl2, "combination_walk")
    assert len(list(matrices.combination_walk(3, 2, [A], [[(A, A)]],
                                              budget=3))) == 3
    assert run_suite("conjugacy", **grid).summary["skipped"] == 0
    # the row walk still charges
    with pytest.raises(BudgetError):
        list(enumerate_group(2, 2, budget=15))


def test_walk_prunes_the_regular_nilpotent(monkeypatch):
    """Tier-1 guard on the pruning itself: C(J_3) over F_3 has 18
    elements, and the walk tests fewer than 500 candidate rows for it
    where a full scan builds 11,232 matrices."""
    tested = []
    exact = matrices._row_walk

    def counted(n, p, budget, step=None, state=()):
        def counting(depth, prefix, alive):
            tested.append(depth)
            return step(depth, prefix, alive)
        return exact(n, p, budget, counting, state)

    monkeypatch.setattr(matrices, "_row_walk", counted)
    rep = exp_centralizer_check(rep_from_partition(F3, (3,)))
    assert rep.group_agree and rep.group_size == 18
    assert 0 < len(tested) < 500


def test_mixed_domain_arithmetic_rejected():
    A = Mat.identity(F3, 2)
    B = Mat.identity(F5, 2)
    with pytest.raises(DomainError):
        A + B
    with pytest.raises(DomainError):
        A * B


def _schoolbook_product(A, B):
    """Reference Q product: one Fraction operation per term."""
    n, k, m = A.rows, A.cols, B.cols
    out = []
    for i in range(n):
        for j in range(m):
            s = Fraction(0)
            for t in range(k):
                s = s + A.data[i * k + t] * B.data[t * m + j]
            out.append(s)
    return Mat(QQ, n, m, out)


def _random_rational(rnd, rows, cols, dens):
    return Mat(QQ, rows, cols,
               [Fraction(rnd.randint(-50, 50), rnd.choice(dens))
                for _ in range(rows * cols)])


def test_rational_product_matches_schoolbook():
    rnd = random.Random(10)
    small = (1, 2, 3, 4, 6)
    large = (1, 7, 2 ** 61 - 1, 10 ** 12 + 39, 3 ** 30)
    shapes = [(1, 1, 1), (2, 3, 4), (4, 3, 2), (5, 1, 5), (1, 5, 1),
              (3, 0, 2), (0, 3, 2), (2, 3, 0), (6, 6, 6)]
    for n, k, m in shapes:
        for dens in (small, large):
            for _ in range(4):
                A = _random_rational(rnd, n, k, dens)
                B = _random_rational(rnd, k, m, dens)
                if n and k and rnd.random() < 0.5:  # a zero row
                    A = Mat(QQ, n, k, [Fraction(0)] * k + list(A.data[k:]))
                if k and m and rnd.random() < 0.5:  # a zero column
                    data = list(B.data)
                    for t in range(k):
                        data[t * m] = Fraction(0)
                    B = Mat(QQ, k, m, data)
                P = A * B
                assert P == _schoolbook_product(A, B)
                assert all(type(x) is Fraction for x in P.data)
    # inner dimension 0 gives the zero matrix, still of Fractions
    Z = Mat(QQ, 2, 0, ()) * Mat(QQ, 0, 3, ())
    assert Z == Mat.zero(QQ, 2, 3)
    assert all(type(x) is Fraction for x in Z.data)


def _rref_reference(rows, p=None):
    """Reference Q Gauss-Jordan, one Fraction operation per term (over
    F_p, given p, one operation per term on residues, each reduced mod
    p), with the same pivot rule: (rank, pivots, reduced rows)."""
    def red(x):
        return x if p is None else x % p

    rows = [list(row) for row in rows]
    m = len(rows)
    n = len(rows[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n):
        if r == m:
            break
        pr = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = 1 / rows[r][c] if p is None else pow(rows[r][c], -1, p)
        rows[r] = [red(x * inv) for x in rows[r]]
        for i in range(m):
            f = rows[i][c]
            if i != r and f != 0:
                rows[i] = [red(a - f * b) for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return r, pivots, rows


def test_rational_elimination_matches_fraction_gauss_jordan():
    """The integer-row elimination gives the reference's rank, pivots and
    reduced rows, every entry a Fraction, on full-rank, rank-deficient
    (products through a narrower inner size), zero-row and empty
    matrices, with small and large denominators."""
    rnd = random.Random(11)
    small = (1, 2, 3, 4, 6)
    large = (1, 7, 2 ** 61 - 1, 10 ** 12 + 39, 3 ** 30)
    shapes = [(0, 3), (3, 0), (0, 0), (1, 1), (1, 4), (4, 1), (3, 5),
              (5, 3), (6, 6), (7, 7)]
    cases = []
    for rows, cols in shapes:
        for dens in (small, large):
            for _ in range(3):
                cases.append(_random_rational(rnd, rows, cols, dens))
                if rows and cols:
                    k = rnd.randint(1, min(rows, cols))
                    cases.append(_random_rational(rnd, rows, k, dens)
                                 * _random_rational(rnd, k, cols, dens))
                    i = rnd.randrange(rows)
                    data = list(cases[-1].data)
                    data[i * cols:(i + 1) * cols] = [Fraction(0)] * cols
                    cases.append(Mat(QQ, rows, cols, data))
    cases.append(Mat.zero(QQ, 3, 4))
    deficient = 0
    for M in cases:
        rk, piv, R = rref(M)
        want_rk, want_piv, want_rows = _rref_reference(M.to_lists())
        assert (rk, piv, R.to_lists()) == (want_rk, want_piv, want_rows), M
        assert all(type(x) is Fraction for x in R.data)
        assert rank(M) == want_rk
        deficient += want_rk < min(M.rows, M.cols)
    assert deficient > 20


def test_planted_integer_numerator_fault_falsifies_spaltenstein(
        monkeypatch, capsys):
    """Zeroing the first nonzero numerator of each row that the rational
    elimination scales to integers changes the rational rank of ad X for
    every nonzero nilpotent, so exactly those spaltenstein records are
    falsified (dim_0 off, the F_p side intact) and the CLI exits 1."""
    exact = matrices.integer_numerators

    def drop_first(values):
        nums, den = exact(values)
        for i, x in enumerate(nums):
            if x:
                return nums[:i] + [0] + nums[i + 1:], den
        return nums, den

    clean = run_suite("spaltenstein", n_max=3, primes=(2,)).records
    assert all(r.verified for r in clean)
    monkeypatch.setattr(matrices, "integer_numerators", drop_first)
    planted = run_suite("spaltenstein", n_max=3, primes=(2,)).records
    assert [r.instance for r in planted] == [r.instance for r in clean]
    falsified = [r.instance["partition"] for r in planted
                 if r.verified is False]
    assert falsified == [[2], [3], [2, 1]]
    for r, c in zip(planted, clean):
        if r.instance["partition"] in falsified:
            assert r.witness["dim_p"] == c.witness["dim_p"]
            assert r.witness["dim_0"] != c.witness["dim_0"]
        else:
            assert r == c
    assert cli.main(["verify", "spaltenstein", "--n-max", "3",
                     "--primes", "2"]) == 1
    err = capsys.readouterr().err
    assert "repro: optsl2 verify spaltenstein --primes 2 --seed 7 " \
        "--n-max 3" in err


# -- rank by one forward pass ---------------------------------------------

def _rank_cases(dom, rnd):
    """The empty shapes, wide and tall matrices, dense random matrices
    and rank-deficient products through thin factors, and ad X' of a
    dense conjugate X' = g J g^-1 for every partition of n <= 5, with
    its partition (None for the other cases).  On a Jordan form J itself
    ad J needs almost no clearing; on X' the pivots clear dense rows."""
    cases = [(Mat.zero(dom, r, c), None)
             for r, c in ((0, 0), (0, 3), (3, 0))]
    for r, c in ((2, 7), (7, 2), (5, 5), (6, 4)):
        cases.append((random_mat(dom, r, c, rnd), None))
        for k in (1, 2, 3):
            cases.append((random_mat(dom, r, k, rnd)
                          * random_mat(dom, k, c, rnd), None))
    for n in range(1, 6):
        for lam in partitions_of(n):
            g = random_invertible(dom, n, rnd, bound=3)
            X = g * rep_from_partition(dom, lam) * inverse(g)
            cases.append((ad_operator(X), lam))
    return cases


def _rank_mismatches(rank_fn, cases) -> list:
    """The matrices of (M, partition, reference rank) cases on which
    rank_fn differs from the reference."""
    return [M for M, lam, want in cases if rank_fn(M) != want]


@pytest.fixture(scope="module")
def rank_cases():
    """_rank_cases over F_2, F_3, F_5, F_7 and Q, each with the rank that
    Gauss-Jordan elimination (_rref_rows) gives."""
    rnd = random.Random(61)
    out = []
    for dom in (F2, F3, F5, F7, QQ):
        for M, lam in _rank_cases(dom, rnd):
            want, _ = matrices._rref_rows(matrices._elim_rows(M), dom)
            out.append((M, lam, want))
    return out


def test_forward_rank_matches_gauss_jordan(rank_cases, monkeypatch):
    """rank eliminates forward only: it gives _rref_rows' rank on every
    case with _rref_rows made to raise, and n^2 - rank ad X' is the
    centralizer dimension of X's partition over every field."""
    deficient = sum(want < min(M.rows, M.cols) for M, _, want in rank_cases)
    assert deficient > 100
    for M, lam, want in rank_cases:
        if lam is not None:
            assert M.rows - want == centralizer_dim(lam)

    def no_gauss_jordan(rows, domain):
        raise AssertionError("rank ran Gauss-Jordan elimination")

    monkeypatch.setattr(matrices, "_rref_rows", no_gauss_jordan)
    assert _rank_mismatches(rank, rank_cases) == []


def _planted_pivots(old, new):
    """matrices._pivot_columns rebuilt from its own source with `old`
    replaced by `new` in both clearing loops (F_p and Q)."""
    source = inspect.getsource(matrices._pivot_columns)
    assert source.count(old) == 2
    namespace = dict(vars(matrices))
    exec(source.replace(old, new), namespace)
    return namespace["_pivot_columns"]


# the clearing loop skips the last row, or the row after the pivot
_RANK_FAULTS = {"last-row": ("range(r + 1, m)", "range(r + 1, m - 1)"),
                "next-row": ("range(r + 1, m)", "range(r + 2, m)")}


def _rebind_pivots(monkeypatch, planted):
    """Put planted in place of every binding of matrices._pivot_columns
    in the package, so rank, independent and their callers all use it."""
    exact = matrices._pivot_columns
    for name, module in list(sys.modules.items()):
        if (name == "optsl2" or name.startswith("optsl2.")) and \
                getattr(module, "_pivot_columns", None) is exact:
            monkeypatch.setattr(module, "_pivot_columns", planted)


def _falsified(suite, **grid):
    return sum(r.verified is False for r in run_suite(suite, **grid).records)


def _dense_conjugates():
    """(partition, g J g^-1) for a seeded dense conjugate of the Jordan
    form J of every partition of n <= 5, over F_3 and Q."""
    rnd = random.Random(71)
    return [(lam, g * rep_from_partition(dom, lam) * inverse(g))
            for dom in (F3, QQ) for n in range(1, 6)
            for lam in partitions_of(n)
            for g in [random_invertible(dom, n, rnd, bound=3)]]


def _wrong_jordan(conjugates) -> int:
    """How many conjugates nilpotent_jordan rejects or gives a wrong
    partition."""
    wrong = 0
    for lam, X in conjugates:
        try:
            wrong += nilpotent_jordan(X).partition != lam
        except OptSL2Error:
            wrong += 1
    return wrong


@pytest.mark.parametrize("fault", sorted(_RANK_FAULTS))
def test_planted_forward_rank_faults_are_caught(fault, rank_cases,
                                                monkeypatch):
    """A clearing loop of _pivot_columns that skips one row of those
    below the pivot gives wrong ranks on the kernel cases of at most 16
    rows over every field, makes nilpotent_jordan reject or mistype a
    dense conjugate of n <= 5 over F_3 and Q (its chain seeds are the
    independent vectors), and falsifies at least 10 of the 11 springer
    records of n <= 4 over F_3 (Jordan types read off ranks of the
    powers of u - 1); skipping the last row also falsifies at least 12
    of the 44 default epsilon records.  (Over Q the rows a fault leaves
    uncleared grow fast, so the larger cases are left out.)"""
    assert _falsified("springer", n_max=4, primes=(3,)) == 0
    conjugates = _dense_conjugates()
    assert _wrong_jordan(conjugates) == 0
    _rebind_pivots(monkeypatch, _planted_pivots(*_RANK_FAULTS[fault]))
    wrong = _rank_mismatches(rank, [c for c in rank_cases
                                    if c[0].rows <= 16])
    assert {M.domain for M in wrong} == {F2, F3, F5, F7, QQ}
    assert _wrong_jordan(conjugates) >= 1
    assert _falsified("springer", n_max=4, primes=(3,)) >= 10
    if fault == "last-row":
        assert _falsified("epsilon") >= 12


def test_inverse_reads_the_right_half_times_den():
    """inverse gives the reference Gauss-Jordan inverse of [M | 1] on
    rational matrices with large and small denominators, and over F_p,
    and rejects singular matrices of both domains."""
    rnd = random.Random(67)
    for dens in ((1, 2, 3, 4, 6), (1, 7, 2 ** 61 - 1, 3 ** 30)):
        for n in (0, 1, 2, 4, 6):
            A = _random_rational(rnd, n, n, dens)
            rows = [row + [Fraction(int(i == j)) for j in range(n)]
                    for i, row in enumerate(A.to_lists())]
            rk, piv, red = _rref_reference(rows)
            if piv[:n] != list(range(n)):
                with pytest.raises(DomainError):
                    inverse(A)
                continue
            want = Mat(QQ, n, n, [x for row in red for x in row[n:]])
            assert inverse(A) == want
            assert A * want == want * A == Mat.identity(QQ, n)
    for dom in (F2, F3, F7):
        for _ in range(10):
            A = random_invertible(dom, 4, rnd)
            assert inverse(A) * A == Mat.identity(dom, 4)
    for dom in (F3, QQ):
        for M in (Mat.zero(dom, 2), Mat.from_rows(dom, [[1, 2], [2, 4]])):
            with pytest.raises(DomainError):
                inverse(M)


# -- the canonical integer form of Q matrices ----------------------------

def _q_case(rnd, rows, cols):
    """A seeded Q matrix with negative entries, denominators up to 12
    and, half the time, a zero row."""
    data = [Fraction(rnd.randint(-9, 9), rnd.randint(1, 12))
            for _ in range(rows * cols)]
    if rows and rnd.random() < 0.5:
        i = rnd.randrange(rows)
        data[i * cols:(i + 1) * cols] = [Fraction(0)] * cols
    return Mat(QQ, rows, cols, data)


def _q_square_cases(rnd):
    cases = []
    for n in (0, 1, 2, 3, 4):
        cases.append(Mat.zero(QQ, n))
        cases.extend(_q_case(rnd, n, n) for _ in range(3))
    return cases


def _fraction_mat(rows, cols, entries):
    entries = list(entries)
    assert all(type(x) is Fraction for x in entries)
    return Mat(QQ, rows, cols, entries)


def _assert_canonical(M, ref):
    """M equals the Fraction-entry reference ref entry by entry, and
    equals and hashes like the matrix rebuilt from its own entries; its
    integer form is the canonical one."""
    assert M == ref and ref == M
    assert M.data == ref.data
    assert all(type(x) is Fraction for x in M.data)
    again = Mat(QQ, M.rows, M.cols, list(M.data))
    assert M == again and hash(M) == hash(again)
    num, den = M.num, M.den
    assert (num, den) == (again.num, again.den)
    assert den > 0 and gcd(den, *num) == 1


def test_rational_kernels_build_the_canonical_form():
    """Products, sums, differences, scaling, linear combinations, block
    diagonals, the compiled coordinate change (through Cocharacter and
    eval_hom) and symmetric powers, each built from ints, agree with a
    Fraction-entry reference, including zero rows, the zero matrix and
    the 1x1 and 0x0 cases."""
    rnd = random.Random(15)
    cases = _q_square_cases(rnd)
    scalars = [0, 1, -1, 3, Fraction(-5, 12), Fraction(7, 6)]
    for A in cases:
        n = A.rows
        same = [B for B in cases if B.rows == n]
        for B in same:
            _assert_canonical(A * B, _schoolbook_product(A, B))
            _assert_canonical(A + B, _fraction_mat(
                n, n, (x + y for x, y in zip(A.data, B.data))))
            _assert_canonical(A - B, _fraction_mat(
                n, n, (x - y for x, y in zip(A.data, B.data))))
        _assert_canonical(-A, _fraction_mat(n, n, (-x for x in A.data)))
        for c in scalars:
            _assert_canonical(A.scale(c), _fraction_mat(
                n, n, (Fraction(c) * x for x in A.data)))
        coeffs = [rnd.choice(scalars) for _ in same]
        want = list(A.data)
        for c, B in zip(coeffs, same):
            want = [x + Fraction(c) * y for x, y in zip(want, B.data)]
        _assert_canonical(matrices.lin_comb(A, coeffs, same),
                          _fraction_mat(n, n, want))
        if n:
            g = random_invertible(QQ, n, rnd, bound=3).scale(
                Fraction(1, rnd.randint(1, 12)))
            psi = Cocharacter(g, range(n))
            g_inv = inverse(g)
            _assert_canonical(psi.coords(A), _schoolbook_product(
                _schoolbook_product(g_inv, A), g))
            _assert_canonical(psi.from_coords(A), _schoolbook_product(
                _schoolbook_product(g, A), g_inv))
    _assert_canonical(matrices._Sandwich(cases[0], cases[0])(cases[0]),
                      Mat(QQ, 0, 0, ()))
    for k in range(6):
        blocks = [rnd.choice(cases) for _ in range(k)]
        rows = []
        m = sum(b.cols for b in blocks)
        c0 = 0
        for b in blocks:
            for i in range(b.rows):
                row = [Fraction(0)] * m
                row[c0:c0 + b.cols] = b.row_values(i)
                rows.append(row)
            c0 += b.cols
        _assert_canonical(Mat.block_diag(QQ, blocks),
                          _fraction_mat(m, m, (x for r in rows for x in r)))
    for g in [c for c in cases if c.rows == 2] + [sl2_sample(QQ, rnd)
                                                  for _ in range(4)]:
        for m in range(5):
            _assert_canonical(sym_power_rep(m, g),
                              _sym_power_fraction_reference(m, g))
    for lam in ((3,), (2, 1), (2, 2), (3, 1, 1)):
        n = sum(lam)
        g = random_invertible(QQ, n, rnd, bound=3)
        phi = build_optimal(g * rep_from_partition(QQ, lam) * inverse(g))
        for _ in range(3):
            h = sl2_sample(QQ, rnd)
            want = Mat.block_diag(QQ, [_sym_power_fraction_reference(d - 1, h)
                                       for d in lam])
            B = phi.conjugator
            _assert_canonical(eval_hom(phi, h), _schoolbook_product(
                _schoolbook_product(B, Mat(QQ, n, n, list(want.data))),
                inverse(B)))


def _sym_power_fraction_reference(m, g):
    """sym_power_rep's per-entry formula in Fraction arithmetic."""
    a, b, c, d = g.data
    data = []
    for i in range(m + 1):
        for j in range(m + 1):
            s = sum(comb(m - j, k) * comb(j, i - k) * a ** (m - j - k)
                    * c ** k * b ** (j - i + k) * d ** (i - k)
                    for k in range(max(0, i - j), min(i, m - j) + 1))
            data.append(Fraction(s) * factorial(i) / factorial(j))
    return _fraction_mat(m + 1, m + 1, data)


# -- the one integer form over both domains ------------------------------

def _mod(x, p):
    """The residue of an int, or of a Fraction with denominator prime to
    p, computed here and not by the domain."""
    x = Fraction(x)
    return x.numerator * pow(x.denominator, -1, p) % p


def _assert_residues(M, ref):
    """M over F_p is in its canonical form: num is data, residues
    0..p-1 over den 1, equal entry by entry to `% p` of the exact
    reference values ref (ints or Fractions); it equals and hashes like
    the matrix rebuilt from its entries."""
    p = M.domain.p
    assert M.num is M.data and M.den == 1
    assert all(type(x) is int and 0 <= x < p for x in M.num)
    assert list(M.num) == [_mod(x, p) for x in ref]
    again = Mat(M.domain, M.rows, M.cols, list(M.data))
    assert M == again and hash(M) == hash(again)


def _int_product(a, b, n, k, m):
    """The exact product of flat row-major int tuples, unreduced."""
    return [sum(a[i * k + t] * b[t * m + j] for t in range(k))
            for i in range(n) for j in range(m)]


def _masked_reference(psi, C, keep):
    n, ws = psi.n, psi.weights
    return [C.data[r * n + c] if keep(ws[r] - ws[c]) else 0
            for r in range(n) for c in range(n)]


def test_fp_kernels_build_residues_over_one():
    """Over F_2, F_3 and F_7 every kernel that builds through
    Mat.from_ints, and the four F_p arithmetic loops, give residues over
    1 whose num is data, equal to `% p` of an exact integer (or, for
    symmetric powers, Fraction) reference, including the zero matrix,
    the identity and the 1x1 and 0x0 cases."""
    rnd = random.Random(20)
    scalars = [0, 1, -1, 3, 12, Fraction(-5, 11), Fraction(7, 13)]
    for dom in (F2, F3, F7):
        p = dom.p
        cases = []
        for n in range(5):
            cases += [Mat.zero(dom, n), Mat.identity(dom, n)]
            cases += [random_mat(dom, n, n, rnd) for _ in range(3)]
        for A in cases:
            n, a = A.rows, A.data
            same = [B for B in cases if B.rows == n]
            for B in rnd.sample(same, 3):
                b = B.data
                _assert_residues(A * B, _int_product(a, b, n, n, n))
                _assert_residues(A + B, [x + y for x, y in zip(a, b)])
                _assert_residues(A - B, [x - y for x, y in zip(a, b)])
            _assert_residues(-A, [-x for x in a])
            for c in scalars:
                _assert_residues(A.scale(c), [Fraction(c) * x for x in a])
            coeffs = [rnd.choice(scalars) for _ in same]
            want = list(a)
            for c, B in zip(coeffs, same):
                want = [x + Fraction(c) * y for x, y in zip(want, B.data)]
            _assert_residues(matrices.lin_comb(A, coeffs, same), want)
            _assert_residues(ad_operator(A), _ad_reference(A).data)
            rnd.choice(same)  # keeps the seeded draws
            if n:
                g = random_invertible(dom, n, rnd)
                g_inv = inverse(g)
                psi = Cocharacter(g, range(n))
                _assert_residues(psi.coords(A), _int_product(
                    _int_product(g_inv.data, a, n, n, n), g.data, n, n, n))
                _assert_residues(psi.from_coords(A), _int_product(
                    _int_product(g.data, a, n, n, n), g_inv.data, n, n, n))
                for keep in (lambda e: e > 0, lambda e: e == 0,
                             lambda e: e == 2):
                    _assert_residues(psi.masked(A, keep),
                                     _masked_reference(psi, A, keep))
        for k in range(5):
            blocks = [rnd.choice(cases) for _ in range(k)]
            m = sum(b.rows for b in blocks)
            want = [0] * (m * m)
            r0 = 0
            for b in blocks:
                for i in range(b.rows):
                    for j in range(b.cols):
                        want[(r0 + i) * m + r0 + j] = b[i, j]
                r0 += b.rows
            _assert_residues(Mat.block_diag(dom, blocks), want)
        for g in [c for c in cases if c.rows == 2] + [sl2_sample(dom, rnd)
                                                      for _ in range(4)]:
            for m in range(p):
                ref = _sym_power_fraction_reference(
                    m, Mat(QQ, 2, 2, [Fraction(x) for x in g.data]))
                _assert_residues(sym_power_rep(m, g), ref.data)


def test_rational_operator_kernels_build_the_canonical_form():
    """ad_operator and Cocharacter.masked over Q build the canonical
    integer form and agree with a Fraction-entry reference."""
    rnd = random.Random(21)
    cases = _q_square_cases(rnd)
    for A in cases:
        n = A.rows
        _assert_canonical(ad_operator(A), _ad_reference(A))
        rnd.choice([B for B in cases if B.rows == n])  # keeps the draws
        if n:
            g = random_invertible(QQ, n, rnd, bound=3).scale(
                Fraction(1, rnd.randint(1, 12)))
            psi = Cocharacter(g, [rnd.randint(-2, 2) for _ in range(n)])
            for keep in (lambda e: e > 0, lambda e: e == 0,
                         lambda e: e < 0):
                _assert_canonical(psi.masked(A, keep), _fraction_mat(
                    n, n, (Fraction(x) for x in
                           _masked_reference(psi, A, keep))))


def test_rational_kernels_read_no_fraction_entries(monkeypatch):
    """With the Fraction entries of every matrix built from ints made
    unreadable, a chain of Q kernels still finishes and gives the same
    values: each kernel reads the integer forms of its inputs only."""
    rnd = random.Random(22)
    g = random_invertible(QQ, 4, rnd, bound=3).scale(Fraction(1, 6))
    X = g * rep_from_partition(QQ, (2, 2)) * inverse(g)
    phi = build_optimal(X)
    h = sl2_sample(QQ, rnd)
    A, B = (_q_case(rnd, 4, 4) * g for _ in range(2))
    assert all(type(M) is matrices._IntMat for M in (X, h, A, B))

    def chain():
        P = A * B
        S = A + B - P
        L = matrices.lin_comb(S, [2, Fraction(-1, 3)], [A, P])
        D = Mat.block_diag(QQ, [A, P])
        C = phi.psi.coords(L)
        F = phi.psi.from_coords(C)
        K = phi.psi.masked(C, lambda e: e > 0)
        ad = ad_operator(K)
        sym, hom = sym_power_rep(3, h), eval_hom(phi, h)
        return [P, S, L, D, C, F, K, -K, ad, sym, hom,
                is_associated(phi.psi, X), P == S, hash(D), K.is_zero(),
                rank(ad), rank(D)]

    def unreadable(self):
        raise AssertionError("a kernel read Fraction entries")

    want = chain()
    monkeypatch.setattr(matrices._IntMat, "data", property(unreadable))
    got = chain()
    assert got == want
    assert got[11] is True


def test_equal_rational_values_share_one_powers_entry(monkeypatch):
    """A nilpotent built by products and the same entries read back
    through Mat.from_rows are one matrix value: the powers are
    memoised once, at one product chain in total."""
    g = random_invertible(QQ, 4, random.Random(16), bound=3)
    X = g.scale(Fraction(1, 6)) * rep_from_partition(QQ, (3, 1)) \
        * inverse(g.scale(Fraction(1, 6)))
    Y = Mat.from_rows(QQ, X.to_lists())
    assert type(X) is not type(Y) and X == Y and hash(X) == hash(Y)
    jordan._nilpotent_powers.cache_clear()
    calls = [0]
    exact = Mat.__mul__

    def counted(a, b):
        calls[0] += 1
        return exact(a, b)

    monkeypatch.setattr(Mat, "__mul__", counted)
    first = jordan.nilpotent_powers(X)
    assert calls[0] == 2 and len(first) == 2
    assert jordan.nilpotent_powers(Y) == first
    assert calls[0] == 2
    assert jordan._nilpotent_powers.cache_info().currsize == 1
