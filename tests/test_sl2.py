import inspect
import itertools
import random
import tracemalloc
from fractions import Fraction
from math import comb

import pytest

from optsl2 import cli, matrices, sl2
from optsl2.cochar import Cocharacter
from optsl2.errors import (BudgetError, DomainError, InconsistencyError,
                           PreconditionError)
from optsl2.jordan import jordan_block
from optsl2.matrices import (DEFAULT_BUDGET, Mat, bracket,
                             combination_walk, det, hstack, inverse,
                             random_invertible, rank)
from optsl2.orbits import associated_cocharacter, rep_from_partition
from optsl2.scalars import Fp, QQ
from optsl2.sl2 import (build_optimal, conjugate_hom, conjugate_optimal,
                        d_hom, deform_to_levi, eval_hom,
                        exp_centralizer_check, exp_kernels_agree, gcr_check,
                        gcr_check_hom, hom_centralizer_check,
                        hom_conjugators_agree, levi_containment_check,
                        positive_commutant_basis, primitive_root,
                        radical_cochar_transporters,
                        radical_conjugator_counts, radical_element,
                        sl2_generators, sl2_sample, sl2_torus, sl2_x1, sl2_y1,
                        sym_power_dH, sym_power_dX, sym_power_dY,
                        sym_power_rep, verify_limit, verify_optimal)
from optsl2.matrices import enumerate_group
from optsl2.partitions import (admissible, centralizer_order,
                               image_centralizer_order, partitions_of,
                               radical_dim)
from optsl2.springer import eps_exp
from optsl2.suites import _SUITES, run_suite

F2 = Fp(2)
F3 = Fp(3)
F5 = Fp(5)


def in_span(vectors, v) -> bool:
    """Whether the column vector v lies in the span of vectors, by full
    elimination."""
    vectors = list(vectors)
    if not vectors:
        return v.is_zero()
    base = hstack(vectors)
    return rank(base) == rank(hstack([base, v]))


def test_generator_relations():
    for dom in (F5, QQ):
        assert sl2_x1(dom, 2) * sl2_x1(dom, 3) == sl2_x1(dom, 5)
        assert sl2_y1(dom, 1) * sl2_y1(dom, 1) == sl2_y1(dom, 2)
        a, t = dom.of(2), dom.of(3)
        lhs = sl2_torus(dom, a) * sl2_x1(dom, t) * inverse(sl2_torus(dom, a))
        assert lhs == sl2_x1(dom, dom.mul(dom.mul(a, a), t))
        for g in (sl2_x1(dom, 3), sl2_y1(dom, 2), sl2_torus(dom, 2)):
            assert det(g) == dom.one()


def _sl2_list(p):
    """All of SL_2(F_p) in lexicographic entry order, by filtering the
    p^4 entry tuples on the determinant."""
    dom = Fp(p)
    return [Mat(dom, 2, 2, (a, b, c, d))
            for a, b, c, d in itertools.product(range(p), repeat=4)
            if (a * d - b * c) % p == 1]


def test_sl2_elements_order_formula():
    for p in (2, 3, 5):
        elems = _sl2_list(p)
        assert len(elems) == p * (p * p - 1)
        assert len(set(tuple(g.data) for g in elems)) == len(elems)
        dom = Fp(p)
        assert all(det(g) == dom.one() for g in elems)


def test_primitive_root_has_full_order():
    for p in (3, 5, 7, 11, 13):
        r = primitive_root(p)
        order = 1
        acc = r % p
        while acc != 1:
            acc = acc * r % p
            order += 1
        assert order == p - 1


def _closure(gens):
    """The subgroup generated by finitely many invertible matrices of
    finite order, by breadth-first multiplication."""
    ident = Mat.identity(gens[0].domain, gens[0].rows)
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for g in frontier:
            for s in gens:
                h = g * s
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    return seen


def test_sl2_generators_generate_sl2_fp():
    for p in (2, 3, 5, 7):
        dom = Fp(p)
        gens = sl2_generators(dom)
        assert gens[:2] == [sl2_x1(dom, 1), sl2_y1(dom, 1)]
        assert gens[2:] == ([sl2_torus(dom, primitive_root(p))]
                            if p > 2 else [])
        group = set(_sl2_list(p))
        assert len(group) == p * (p * p - 1)
        assert _closure(gens) == group
        # radical_conjugator_counts tests on x1(1) and y1(1) alone
        assert _closure(gens[:2]) == group
    assert sl2_generators(QQ) == [sl2_x1(QQ, 1), sl2_y1(QQ, 1),
                                  sl2_torus(QQ, 2)]


def test_sl2_sample():
    rnd = random.Random(41)
    table = set(tuple(g.data) for g in _sl2_list(3))
    for _ in range(30):
        assert tuple(sl2_sample(F3, rnd).data) in table
    for _ in range(10):
        assert det(sl2_sample(QQ, rnd)) == QQ.one()


def test_sl2_sample_unranks_the_lexicographic_list():
    """The index sl2_sample draws names the element at that position of
    the lexicographic list, so a draw is the same element as from it."""
    for p in (2, 3, 5, 7):
        elems = _sl2_list(p)
        got = [sl2._sl2_element(p, i) for i in range(len(elems))]
        assert [g.data for g in got] == [g.data for g in elems]
        assert all(g.domain == Fp(p) for g in got)
        rnd, twin = random.Random(p), random.Random(p)
        for _ in range(20):
            assert sl2_sample(Fp(p), rnd) == \
                elems[twin.randrange(p ** 3 - p)]


def test_verify_optimal_at_p_53_builds_no_element_list():
    dom = Fp(53)
    X = rep_from_partition(dom, (2,))
    assert verify_optimal(build_optimal(X), X, random.Random(7)).all_passed


def test_sym_power_rep_is_multiplicative():
    rnd = random.Random(42)
    for dom, m in ((QQ, 4), (F5, 4), (F3, 2), (F2, 1)):
        for _ in range(8):
            A = sl2_sample(dom, rnd)
            B = sl2_sample(dom, rnd)
            assert sym_power_rep(m, A * B) == sym_power_rep(m, A) \
                * sym_power_rep(m, B)
            assert det(sym_power_rep(m, A)) == dom.one()
    g = sl2_sample(QQ, rnd)
    assert sym_power_rep(1, g) == g
    assert sym_power_rep(0, g) == Mat.identity(QQ, 1)


def _sym_power_reference(m, g):
    """Reference sym_power_rep: the per-entry formula in domain
    arithmetic, one dom.mul per factor."""
    dom = g.domain

    def power(x, e):
        v = dom.one()
        for _ in range(e):
            v = dom.mul(v, x)
        return v

    a, b, c, d = g.data
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
                term = dom.mul(term, power(a, m - j - k))
                term = dom.mul(term, power(c, k))
                term = dom.mul(term, power(b, j - l))
                term = dom.mul(term, power(d, l))
                s = dom.add(s, term)
            data.append(dom.mul(s, dom.mul(fact[i], dom.inv(fact[j]))))
    return Mat(dom, m + 1, m + 1, data)


def test_sym_power_rep_matches_reference_over_fp():
    rnd = random.Random(44)
    for p in (2, 3, 5, 7):
        dom = Fp(p)
        if p <= 3:  # every 2x2 matrix, singular ones included
            gs = [Mat(dom, 2, 2, e)
                  for e in itertools.product(range(p), repeat=4)]
        else:
            gs = [Mat(dom, 2, 2, [rnd.randrange(p) for _ in range(4)])
                  for _ in range(30)]
            gs.append(Mat.zero(dom, 2))
            gs.append(Mat.from_rows(dom, [[1, 2], [2, 4]]))  # rank one
        for m in range(p):
            for g in gs:
                assert sym_power_rep(m, g) == _sym_power_reference(m, g)


def test_sym_power_rep_matches_reference_over_q():
    rnd = random.Random(45)
    gs = [Mat.zero(QQ, 2),
          Mat.from_rows(QQ, [[Fraction(1, 2), Fraction(1, 3)],
                             [Fraction(3, 2), 1]]),  # singular
          Mat.from_rows(QQ, [[Fraction(-7, 4), Fraction(5, 6)],
                             [0, Fraction(2, 9)]]),
          Mat.from_rows(QQ, [[Fraction(1, 10 ** 9 + 7), -3],
                             [Fraction(-2, 5), Fraction(11, 12)]])]
    for _ in range(12):
        gs.append(Mat(QQ, 2, 2, [Fraction(rnd.randint(-9, 9),
                                          rnd.randint(1, 12))
                                 for _ in range(4)]))
    for m in range(7):
        for g in gs:
            rep = sym_power_rep(m, g)
            assert rep == _sym_power_reference(m, g)
            assert all(type(x) is Fraction for x in rep.data)


def _planted_sym_power_fault(monkeypatch):
    """sym_power_rep with one added to entry (0, 0) for m >= 1."""
    exact = sl2.sym_power_rep

    def off_by_one(m, g):
        rep = exact(m, g)
        if m < 1:
            return rep
        data = list(rep.data)
        data[0] = rep.domain.add(data[0], rep.domain.one())
        return Mat(rep.domain, rep.rows, rep.cols, data)

    monkeypatch.setattr(sl2, "sym_power_rep", off_by_one)


def test_planted_sym_power_fault_is_caught(monkeypatch, capsys):
    g = Mat.from_rows(QQ, [[1, Fraction(1, 2), 0], [0, 1, 0],
                           [Fraction(-2, 3), 0, 1]])
    X = g * rep_from_partition(QQ, (2, 1)) * inverse(g)
    phi = build_optimal(X)
    assert verify_optimal(phi, X).all_passed

    _planted_sym_power_fault(monkeypatch)
    assert not verify_optimal(phi, X).all_passed
    report = run_suite("epsilon")
    assert any(r.verified is False for r in report.records)
    assert cli.main(["verify", "epsilon"]) == 1
    capsys.readouterr()


def test_gcr_checks_default_to_the_common_budget():
    for fn in (gcr_check, gcr_check_hom):
        budget = inspect.signature(fn).parameters["budget"].default
        assert budget == DEFAULT_BUDGET


def test_sym_power_rep_needs_small_degree():
    with pytest.raises(PreconditionError):
        sym_power_rep(2, sl2_x1(F2, 1))
    with pytest.raises(PreconditionError):
        sym_power_rep(5, sl2_x1(F5, 1))


def test_sym_power_differentials():
    for dom, m in ((QQ, 4), (F5, 4), (F2, 1), (F3, 2)):
        dX = sym_power_dX(dom, m)
        dH = sym_power_dH(dom, m)
        dY = sym_power_dY(dom, m)
        assert dX == jordan_block(dom, m + 1)
        assert dH == Mat.diagonal(dom, [dom.of(m - 2 * j)
                                        for j in range(m + 1)])
        assert bracket(dH, dX) == dX.scale(2)
        assert bracket(dH, dY) == dY.scale(-2)
        assert bracket(dX, dY) == dH


def test_sym_power_exp_alignment():
    # the block raised from x1(t) is exactly the truncated exponential
    for dom, m in ((F5, 4), (F3, 2), (QQ, 5)):
        dX = sym_power_dX(dom, m)
        ts = range(dom.p) if dom is not QQ else (-2, 0, 1, 3)
        for t in ts:
            assert sym_power_rep(m, sl2_x1(dom, t)) == eps_exp(dX.scale(t))


def test_build_optimal_and_verify():
    rnd = random.Random(43)
    cases = [((3,), F3), ((2, 2), F2), ((3, 1), F5), ((2, 1), QQ),
             ((4, 2, 1), QQ)]
    for lam, dom in cases:
        n = sum(lam)
        g = random_invertible(dom, n, rnd, bound=2)
        X = g * rep_from_partition(dom, lam) * inverse(g)
        phi = build_optimal(X)
        assert phi.block_sizes == lam
        assert d_hom(phi).X == X
        assert verify_optimal(phi, X, rnd=rnd).all_passed
        assert phi.psi == associated_cocharacter(X).psi
        ident = Mat.identity(dom, 2)
        assert eval_hom(phi, ident) == Mat.identity(dom, n)


def test_build_optimal_rejects_large_parts():
    with pytest.raises(PreconditionError):
        build_optimal(rep_from_partition(F2, (3,)))
    with pytest.raises(PreconditionError):
        build_optimal(rep_from_partition(F3, (4, 1)))


def test_verify_optimal_flags_wrong_nilpotent():
    X = rep_from_partition(F5, (2, 1))
    phi = build_optimal(X)
    rep = verify_optimal(phi, rep_from_partition(F5, (3,)))
    assert not rep.dx_matches
    assert not rep.all_passed


def test_conjugate_optimal_recovers_radical_twist():
    for lam, dom in (((2, 2), F2), ((3, 1), F3), ((2, 1), QQ)):
        n = sum(lam)
        X = rep_from_partition(dom, lam)
        phi1 = build_optimal(X)
        pos = phi1.radical_basis
        assert pos  # the radical of C(X) is nontrivial for these shapes
        N = Mat.zero(dom, n)
        for B in pos:
            N = N + B
        x_true = Mat.identity(dom, n) + N
        phi2 = conjugate_hom(phi1, x_true)
        x = conjugate_optimal(phi1, phi2)
        assert x == x_true
        assert hom_conjugators_agree(phi1, phi2, x)
        assert not hom_conjugators_agree(phi1, phi2, Mat.identity(dom, n))


def test_conjugate_optimal_identity_twist():
    X = rep_from_partition(F3, (2, 1))
    phi = build_optimal(X)
    assert conjugate_optimal(phi, phi) == Mat.identity(F3, 3)


def _assert_twist_is_the_conjugate(phi, x, twist_first=False):
    """conjugate_hom(phi, x), which puts phi's shared blocks into place
    by its own coordinate change, against x phi(.) x^-1 by products:
    the generator images, and X, H and Y."""
    phi2 = conjugate_hom(phi, x)
    assert phi2.blocks is phi.blocks
    if twist_first:  # the twist builds the shared blocks
        phi2.generator_images
    xi = inverse(x)
    images = phi.generator_images
    assert len(phi2.generator_images) == len(images)
    for G, G2 in zip(images, phi2.generator_images, strict=True):
        assert G2 == x * G * xi
    assert phi2.X == x * phi.X * xi
    for M, M2 in zip(d_hom(phi), d_hom(phi2), strict=True):
        assert M2 == x * M * xi


def test_twists_share_blocks_and_equal_the_conjugated_images():
    """Seeded radical twists and random invertible twists over F_2, F_3
    and F_5, and a twist of a dense rational conjugate: each twist's
    generator images and X equal x phi(g) x^-1 and x X x^-1."""
    rnd = random.Random(33)
    checked = 0
    for dom in (F2, F3, F5):
        p = dom.p
        for n in range(1, 4):
            for lam in partitions_of(n):
                if not admissible(lam, p):
                    continue
                X = rep_from_partition(dom, lam)
                for k, x in enumerate(
                        [x for x, _ in _seeded_radical_twists(
                            build_optimal(X), 2, lambda: rnd.randrange(p))]
                        + [random_invertible(dom, n, rnd) for _ in range(2)]):
                    _assert_twist_is_the_conjugate(build_optimal(X), x,
                                                   twist_first=k % 2 == 1)
                    checked += 1
    assert checked == 4 * (5 + 6 + 6)
    lam = (3, 2, 1)
    g = random_invertible(QQ, 6, rnd, bound=3)
    X = g * rep_from_partition(QQ, lam) * inverse(g)
    phi = build_optimal(X)
    assert phi.conjugator != Mat.identity(QQ, 6)
    _assert_twist_is_the_conjugate(phi, random_invertible(QQ, 6, rnd,
                                                          bound=3))
    with pytest.raises(DomainError, match="another partition"):
        sl2.OptimalSL2Hom((2, 1), Mat.identity(F3, 3), phi.blocks)


def test_twists_reuse_the_instance_blocks_and_pairs(monkeypatch):
    """Tier-1 guard on what a conjugacy instance builds once: after
    phi1's generator images and X exist, ten twists' generator images
    and X evaluate no symmetric power and build no block diagonal, and
    the radical count compiles each distinct pair once, so the x1(1)
    pair, eps(X) on both sides for every twist, once in all."""
    dom = Fp(5)
    phi1 = build_optimal(rep_from_partition(dom, (3, 2)))
    phi1.generator_images
    basis = phi1.radical_basis
    rnd = random.Random(49)
    twists = [radical_element(dom, 5, basis, [rnd.randrange(5) for _ in basis])
              for _ in range(10)]
    assert len(set(twists)) == 10

    def forbidden(*args):
        raise AssertionError("a twist rebuilt a block")

    with monkeypatch.context() as m:
        m.setattr(sl2, "sym_power_rep", forbidden)
        m.setattr(Mat, "block_diag", staticmethod(forbidden))
        phi2s = [conjugate_hom(phi1, x) for x in twists]
        for phi2 in phi2s:
            phi2.generator_images, phi2.X

    compiled = []
    exact = matrices.intertwiner_forms

    def recording(A, B):
        compiled.append((A, B))
        return exact(A, B)

    monkeypatch.setattr(matrices, "intertwiner_forms", recording)
    assert radical_conjugator_counts(phi1, phi2s, basis) == [1] * 10
    pairs = {pair for side in sl2._conjugator_tests(phi1, phi2s)
             for pair in side}
    assert len(pairs) == 11  # ten y1(1) pairs and one x1(1) pair
    assert len(compiled) == len(set(compiled)) == 11
    assert set(compiled) == pairs


def test_optimal_hom_owns_its_jordan_basis_data():
    """phi.X, phi.psi and phi.radical_basis are the nilpotent, the torus
    cocharacter and the radical basis the free functions compute, each
    built once per homomorphism."""
    rnd = random.Random(48)
    for lam, dom in (((3,), F3), ((2, 2), F2), ((3, 1), F5),
                     ((2, 1), QQ), ((3, 2, 1), QQ)):
        n = sum(lam)
        g = random_invertible(dom, n, rnd, bound=2)
        X = g * rep_from_partition(dom, lam) * inverse(g)
        phi = build_optimal(X)
        assert phi.X == d_hom(phi).X == X
        assert phi.psi.basis == phi.conjugator
        assert phi.psi == associated_cocharacter(X).psi
        assert phi.radical_basis == positive_commutant_basis(X, phi.psi)
        assert phi.X is phi.X
        assert phi.radical_basis is phi.radical_basis


def _seeded_radical_twists(phi, count, draw):
    """count twists Int(x) o phi by x = 1 + sum c_i B_i over
    phi.radical_basis, each c_i drawn by draw()."""
    twists = [radical_element(phi.domain, phi.n, phi.radical_basis,
                              [draw() for _ in phi.radical_basis])
              for _ in range(count)]
    return [(x, conjugate_hom(phi, x)) for x in twists]


def test_conjugate_optimal_matches_the_exhaustive_transporters():
    rnd = random.Random(49)
    checked = 0
    for p in (2, 3):
        dom = Fp(p)
        for n in range(1, 4):
            for lam in partitions_of(n):
                if not admissible(lam, p):
                    continue
                phi1 = build_optimal(rep_from_partition(dom, lam))
                for x, phi2 in _seeded_radical_twists(
                        phi1, 4, lambda: rnd.randrange(p)):
                    assert radical_cochar_transporters(phi1, phi2) == \
                        [conjugate_optimal(phi1, phi2)] == [x]
                    checked += 1
    assert checked == 4 * 11


def test_conjugate_optimal_recovers_rational_radical_twists():
    rnd = random.Random(50)
    for n in range(1, 5):
        for lam in partitions_of(n):
            g = random_invertible(QQ, n, rnd, bound=2)
            phi1 = build_optimal(g * rep_from_partition(QQ, lam)
                                 * inverse(g))
            for x, phi2 in _seeded_radical_twists(
                    phi1, 2, lambda: Fraction(rnd.randint(-9, 9),
                                              rnd.randint(1, 4))):
                assert conjugate_optimal(phi1, phi2) == x


def test_conjugate_optimal_rejects_an_unreachable_torus():
    """A torus restriction no radical element reaches: phi1's own
    cocharacter with its weights negated."""
    for dom in (F3, QQ):
        phi1 = build_optimal(rep_from_partition(dom, (2,)))
        phi2 = conjugate_hom(phi1, Mat.identity(dom, 2))
        phi2.psi = Cocharacter(phi2.conjugator,
                               [-w for w in phi1.psi.weights])
        with pytest.raises(InconsistencyError, match="no solution"):
            conjugate_optimal(phi1, phi2)


def test_radical_dim_matches_the_commutant_basis():
    """The closed form sum lam'_j^2 - sum m_i^2 against the computed
    radical basis, on every admissible partition with n <= 5 over F_2,
    F_3, F_5 and Q."""
    checked = 0
    for dom in (F2, F3, F5, QQ):
        for n in range(1, 6):
            for lam in partitions_of(n):
                if dom.p is not None and not admissible(lam, dom.p):
                    continue
                phi = build_optimal(rep_from_partition(dom, lam))
                assert len(phi.radical_basis) == radical_dim(lam)
                checked += 1
    assert checked == 62


def test_radical_transporter_is_unique():
    for lam, p in (((2, 2), 2), ((2, 1), 3)):
        dom = Fp(p)
        X = rep_from_partition(dom, lam)
        phi1 = build_optimal(X)
        found = radical_cochar_transporters(phi1, phi1)
        assert found == [Mat.identity(dom, sum(lam))]
        pos = phi1.radical_basis
        x_true = Mat.identity(dom, sum(lam)) + pos[0]
        phi2 = conjugate_hom(phi1, x_true)
        found = radical_cochar_transporters(phi1, phi2)
        assert found == [x_true]


def _radical_search_reference(dom, n, basis, pairs):
    """The radical search with an explicit inverse: every x = 1 + sum
    c_i B_i, c in F_p^k in product order, with x A x^-1 = B for every
    pair (A, B)."""
    ident = Mat.identity(dom, n)
    found = []
    for coeffs in itertools.product(range(dom.p), repeat=len(basis)):
        x = ident
        for c, B in zip(coeffs, basis):
            x = x + B.scale(c)
        xi = inverse(x)
        if all(x * A * xi == B for A, B in pairs):
            found.append(x)
    return found


def _walked_elements(dom, n, basis, pairs):
    """The radical_element of every c the coefficient walk yields for
    the one side `pairs`."""
    return [radical_element(dom, n, basis, c)
            for c, _ in combination_walk(dom.p, n, basis, [pairs])]


def test_radical_search_matches_inverse_reference():
    grid = _SUITES["conjugacy"].grid
    rnd = random.Random(46)
    for p in grid["primes"]:
        dom = Fp(p)
        for n in range(1, 4):
            for lam in partitions_of(n):
                if not admissible(lam, p):
                    continue
                X = rep_from_partition(dom, lam)
                phi1 = build_optimal(X)
                psi1 = phi1.psi
                basis = phi1.radical_basis
                twist = radical_element(dom, n, basis,
                                        [rnd.randrange(p) for _ in basis])
                phi2 = conjugate_hom(phi1, twist)
                psi2 = phi2.psi
                projections = [(psi1.weight_projection(w),
                                psi2.weight_projection(w))
                               for w in sorted(set(psi1.weights))]
                images = [(eval_hom(phi1, g), eval_hom(phi2, g))
                          for g in (sl2_x1(dom, 1), sl2_y1(dom, 1))]
                assert radical_cochar_transporters(phi1, phi2) == \
                    _radical_search_reference(dom, n, basis, projections)
                # the planted duplicate basis of the conjugacy suite's
                # fault test reaches each element more than once
                for b in (basis, basis + basis[:1]):
                    expected = _radical_search_reference(dom, n, b, images)
                    assert _walked_elements(dom, n, b, images) == expected
                    assert radical_conjugator_counts(phi1, [phi2], b)[0] \
                        == len(expected)
                    assert twist in expected
                    assert len(expected) == (p if len(b) > len(basis) else 1)


def _literal_conjugator_count(phi1, phi2, basis):
    """How many x = radical_element(c), c in F_p^k, have x A == B x for
    (A, B) = (phi1(g), phi2(g)) on g = x1(1) and y1(1), by products."""
    dom = phi1.domain
    pairs = [(eval_hom(phi1, g), eval_hom(phi2, g))
             for g in (sl2_x1(dom, 1), sl2_y1(dom, 1))]
    count = 0
    for coeffs in itertools.product(range(dom.p), repeat=len(basis)):
        x = radical_element(dom, phi1.n, basis, coeffs)
        if all(x * A == B * x for A, B in pairs):
            count += 1
    return count


def test_radical_conjugator_counts_match_literal_products():
    """The one-pass counter against a count by literal products, twist
    by twist: radical twists (exactly one conjugator each), the same
    twists on a basis with a repeated element (p each), and twists by
    random invertible matrices (mostly none)."""
    rnd = random.Random(47)
    checked = 0
    for p in (2, 3):
        dom = Fp(p)
        for n in range(1, 4):
            for lam in partitions_of(n):
                if not admissible(lam, p):
                    continue
                X = rep_from_partition(dom, lam)
                phi1 = build_optimal(X)
                basis = phi1.radical_basis
                twists = [radical_element(dom, n, basis,
                                          [rnd.randrange(p) for _ in basis])
                          for _ in range(4)]
                twists += [random_invertible(dom, n, rnd) for _ in range(2)]
                phi2s = [conjugate_hom(phi1, g) for g in twists]
                for b in (basis, basis + basis[:1]):
                    counts = radical_conjugator_counts(phi1, phi2s, b)
                    expected = [_literal_conjugator_count(phi1, phi2, b)
                                for phi2 in phi2s]
                    assert counts == expected
                    assert [radical_conjugator_counts(phi1, [phi2], b)[0]
                            for phi2 in phi2s] == expected
                    radical = p if len(b) > len(basis) else 1
                    assert expected[:4] == [radical] * 4
                    checked += 1
    assert checked == 2 * 11  # 5 partitions admissible at p = 2, 6 at 3
    assert radical_conjugator_counts(phi1, [], basis) == []


def test_radical_counts_on_every_default_conjugacy_instance(monkeypatch):
    """The pruned coefficient walk on every default conjugacy instance,
    on the radical basis and on the basis with a repeated element: its
    counts equal the literal-product reference, and stay the same with
    every elimination routine made to raise (the bases and the
    generator images are built before)."""
    grid = _SUITES["conjugacy"].grid
    rnd = random.Random(48)
    cases = []
    for p in grid["primes"]:
        dom = Fp(p)
        for n in range(1, grid["n_max"] + 1):
            for lam in partitions_of(n):
                if not admissible(lam, p):
                    continue
                phi1 = build_optimal(rep_from_partition(dom, lam))
                basis = phi1.radical_basis
                twists = [radical_element(dom, n, basis,
                                          [rnd.randrange(p) for _ in basis])
                          for _ in range(2)]
                twists.append(random_invertible(dom, n, rnd))
                phi2s = [conjugate_hom(phi1, g) for g in twists]
                for phi in [phi1] + phi2s:
                    phi.generator_images
                for b in (basis, basis + basis[:1]):
                    expected = [_literal_conjugator_count(phi1, phi2, b)
                                for phi2 in phi2s]
                    radical = p if len(b) > len(basis) else 1
                    assert expected[:2] == [radical] * 2
                    assert radical_conjugator_counts(phi1, phi2s, b) == \
                        expected
                    cases.append((phi1, phi2s, b, expected))
    assert len(cases) == 2 * 18  # the 18 records of the default report

    def no_elimination(*args):
        raise AssertionError("the walk eliminated")

    for name in ("_rref_rows", "rank", "_pivot_columns"):
        monkeypatch.setattr(matrices, name, no_elimination)
    for phi1, phi2s, b, expected in cases:
        assert radical_conjugator_counts(phi1, phi2s, b) == expected


def test_coefficient_walk_prunes_the_radical(monkeypatch):
    """Tier-1 guard on the pruning of the coefficient walk: for the
    partition (3, 2) over F_5 the radical has 5^7 = 78,125 elements,
    and the walk tests 536 coefficient prefixes for ten seeded twists,
    where the unpruned tree has 97,656."""
    visited = []
    exact = matrices._pruning_step

    def counted(*args):
        step = exact(*args)

        def counting(depth, prefix, alive):
            visited.append(depth)
            return step(depth, prefix, alive)
        return counting

    dom = Fp(5)
    phi1 = build_optimal(rep_from_partition(dom, (3, 2)))
    basis = phi1.radical_basis
    assert len(basis) == 7
    rnd = random.Random(49)
    phi2s = [conjugate_hom(phi1, radical_element(
        dom, 5, basis, [rnd.randrange(5) for _ in basis])) for _ in range(10)]
    monkeypatch.setattr(matrices, "_pruning_step", counted)
    assert radical_conjugator_counts(phi1, phi2s, basis) == [1] * 10
    assert len(visited) == 536


def test_radical_intertwiners_with_empty_basis_yield_the_identity():
    for dom in (F2, F3, F5):
        for n in (1, 2, 3):
            A = rep_from_partition(dom, (n,))
            ident = Mat.identity(dom, n)
            assert _walked_elements(dom, n, [], []) == [ident]
            assert _walked_elements(dom, n, [], [(A, A)]) == [ident]
            if n > 1:
                shifted = A + ident
                assert _walked_elements(dom, n, [], [(A, shifted)]) == []
        # partition [1]: the radical is trivial and the identity is the
        # one conjugator of phi to itself
        X = rep_from_partition(dom, (1,))
        phi = build_optimal(X)
        basis = phi.radical_basis
        assert basis == []
        assert radical_conjugator_counts(phi, [phi], basis)[0] == 1
        assert radical_cochar_transporters(phi, phi) == [Mat.identity(dom, 1)]


def test_centralizer_orders_match_literal_products():
    for p, n_max in ((2, 3), (3, 2)):
        dom = Fp(p)
        for n in range(1, n_max + 1):
            group = [Mat(dom, n, n, g) for g in enumerate_group(n, p)]
            for lam in partitions_of(n):
                X = rep_from_partition(dom, lam)
                assert sum(1 for g in group if g * X == X * g) \
                    == centralizer_order(lam, p)
                if admissible(lam, p):
                    gens = [eval_hom(build_optimal(X), h)
                            for h in sl2_generators(dom)]
                    assert sum(1 for g in group
                               if all(g * G == G * g for G in gens)) \
                        == image_centralizer_order(lam, p)
    # GL_2(F_5) has 480 elements; the regular nilpotent's centralizer is
    # {a + bX : a != 0}
    assert centralizer_order((1, 1), 5) == image_centralizer_order((1, 1), 5)
    assert centralizer_order((1, 1), 5) == 480
    assert centralizer_order((2,), 5) == 20


def test_radical_transporters_budget():
    X = rep_from_partition(F2, (2, 2))
    phi = build_optimal(X)
    with pytest.raises(BudgetError):
        radical_cochar_transporters(phi, phi, budget=1)


def test_exp_centralizer_agreement():
    for dom, lam in ((F2, (2,)), (F3, (2,)), (F2, (2, 1))):
        X = rep_from_partition(dom, lam)
        rep = exp_centralizer_check(X)
        assert rep.nullspaces_agree
        assert exp_kernels_agree(X)
        assert rep.group_agree
        assert rep.group_size == centralizer_order(lam, dom.p)
    # past the budget the check raises, and never reports half of itself
    with pytest.raises(BudgetError):
        exp_centralizer_check(rep_from_partition(F3, (2,)), budget=1)
    # X = 0 is one count, which visits no row, so no budget stops it
    zero = exp_centralizer_check(rep_from_partition(F3, (1, 1)), budget=1)
    assert zero.nullspaces_agree and zero.group_agree
    assert zero.group_size == centralizer_order((1, 1), 3) == 48


def test_hom_centralizer_agreement():
    phi = build_optimal(rep_from_partition(F2, (2,)))
    rep = hom_centralizer_check(phi)
    assert rep.equal
    assert rep.image_centralizer_size == rep.pair_centralizer_size


def test_centralizers_of_dense_conjugates_match_closed_forms():
    """The suites build X in Jordan form, where the walk prunes best and
    build_optimal's conjugator is the identity.  A seeded dense conjugate
    X' = g X g^-1 moves every form to the last row and the homomorphism
    off the standard basis; the counts must not change."""
    rnd = random.Random(2211)
    for p in (2, 3):
        dom = Fp(p)
        for n in (1, 2, 3):
            for lam in partitions_of(n):
                if not admissible(lam, p):
                    continue
                # the first draw off the walk's best case: X' not upper
                # triangular unless X = 0
                while True:
                    g = random_invertible(dom, n, rnd)
                    X = g * rep_from_partition(dom, lam) * inverse(g)
                    if lam[0] == 1 or any(X[i, j] for i in range(n)
                                          for j in range(i)):
                        break
                phi = build_optimal(X)
                assert phi.conjugator.is_identity() == (lam[0] == 1)
                rep = exp_centralizer_check(X)
                assert rep.nullspaces_agree and rep.group_agree, (p, lam)
                assert rep.group_size == centralizer_order(lam, p)
                hom = hom_centralizer_check(phi)
                assert hom.equal, (p, lam)
                assert hom.image_centralizer_size \
                    == image_centralizer_order(lam, p)


def test_planted_exp_fault_breaks_group_agreement(monkeypatch):
    exact = sl2.eps_exp

    def off_by_one(M):
        u = exact(M)
        data = list(u.data)
        data[0] = u.domain.add(data[0], 1)
        return Mat(u.domain, u.rows, u.cols, data)

    monkeypatch.setattr(sl2, "eps_exp", off_by_one)
    rep = exp_centralizer_check(rep_from_partition(F3, (2, 1)))
    assert rep.group_agree is False


def test_planted_exp_fault_flips_every_alignment_check(monkeypatch):
    """verify_optimal, verify_limit and the epsilon suite read one
    alignment check; a doubled linear term in the exponential it reads
    fails all three, and only where X != 0."""
    exact = sl2.eps_exp
    monkeypatch.setattr(sl2, "eps_exp", lambda M: exact(M) + M)
    for dom in (F3, QQ):
        X, gamma = _deform_instance(dom)
        phi = build_optimal(X)
        rep = verify_optimal(phi, X)
        assert not rep.exp_aligned
        assert rep.multiplicative and rep.torus_associated
        lim_rep = verify_limit(deform_to_levi(phi, gamma))
        assert not lim_rep.exp_aligned_with_X0
        assert lim_rep.multiplicative and lim_rep.torus_unchanged
    report = run_suite("epsilon", n_max=3, primes=(3,))
    for r in report.records:
        nonzero = r.instance["partition"][0] > 1
        assert r.witness["exp_aligned"] is not nonzero
        assert r.verified is not nonzero


def test_planted_torus_fault_breaks_hom_centralizer(monkeypatch):
    phi = build_optimal(rep_from_partition(F2, (2,)))
    monkeypatch.setattr(phi, "psi", Cocharacter(phi.conjugator, [0] * phi.n))
    rep = hom_centralizer_check(phi)
    assert rep.equal is False
    assert (rep.image_centralizer_size, rep.pair_centralizer_size) == (1, 2)


def test_levi_containment():
    for lam, dom in (((2, 1), F3), ((2, 2), F2), ((3, 1), QQ)):
        phi = build_optimal(rep_from_partition(dom, lam))
        rep = levi_containment_check(phi)
        assert rep.commutes_with_isotypic_torus
        assert rep.dets_one_on_isotypic_blocks
        assert rep.contained


def _deform_instance(dom):
    X = Mat.zero(dom, 4, 4)
    X = X + Mat.unit(dom, 4, 4, 0, 1) + Mat.unit(dom, 4, 4, 2, 3) \
        - Mat.unit(dom, 4, 4, 0, 3)
    gamma = Cocharacter.diagonal(dom, (1, 1, 0, 0))
    return X, gamma


def test_deform_to_levi_limit_is_again_optimal():
    for dom in (F2, F3, QQ):
        X, gamma = _deform_instance(dom)
        phi = build_optimal(X)
        lim = deform_to_levi(phi, gamma)
        expected_X0 = Mat.unit(dom, 4, 4, 0, 1) + Mat.unit(dom, 4, 4, 2, 3)
        assert lim.X0 == expected_X0
        rep = verify_limit(lim)
        assert rep.multiplicative
        assert rep.exp_aligned_with_X0
        assert rep.torus_unchanged
        assert rep.psi_associated_to_X0
        assert rep.all_passed


def test_deform_preconditions():
    X, _ = _deform_instance(F3)
    phi = build_optimal(X)
    bad_gamma = Cocharacter.diagonal(F3, (1, 0, 0, 0))
    with pytest.raises(PreconditionError):
        deform_to_levi(phi, bad_gamma)


def test_gcr_positive_for_optimal_images():
    for lam, p in (((2,), 2), ((2, 1), 3), ((2, 2), 2)):
        phi = build_optimal(rep_from_partition(Fp(p), lam))
        rep = gcr_check_hom(phi)
        assert rep.semisimple
        assert rep.offending is None


def test_gcr_negative_control():
    u = Mat.identity(F2, 3) + jordan_block(F2, 3)
    rep = gcr_check([u])
    assert not rep.semisimple
    assert rep.offending is not None
    assert rep.n_subspaces == 16
    # the offending subspace really is invariant
    span_cols = [rep.offending.col(j) for j in range(rep.offending.cols)]
    for c in span_cols:
        assert in_span(span_cols, u * c)


def test_gcr_budget_and_validation():
    u = Mat.identity(F2, 3) + jordan_block(F2, 3)
    with pytest.raises(BudgetError):
        gcr_check([u], budget=3)
    with pytest.raises(DomainError):
        gcr_check([])
    with pytest.raises(DomainError):
        gcr_check([Mat.identity(QQ, 2)])


_MISMATCHED_GENERATORS = {
    "size": lambda: [Mat.identity(F3, 2), jordan_block(F3, 3)],
    "non-square": lambda: [Mat.from_rows(F3, [[1, 0, 0], [0, 1, 0]])],
    "prime": lambda: [Mat.identity(F3, 2),
                      Mat.from_rows(F5, [[1, 4], [0, 1]])],
}


@pytest.mark.parametrize("case", sorted(_MISMATCHED_GENERATORS))
def test_gcr_rejects_mismatched_generators(case):
    """Every generator must be n x n over the first one's F_p; a matrix
    of another size, a non-square one or one over another prime is a
    DomainError rather than a verdict on truncated or reduced entries."""
    with pytest.raises(DomainError):
        gcr_check(_MISMATCHED_GENERATORS[case]())


def test_gcr_memory_stays_polynomial_in_p():
    """Under the identity all 1,988 subspaces of F_31^3 are invariant
    and kept.  Holding each as its set of p^k vectors peaks near 100 MB
    here; echelon membership and joined-basis ranks stay under 1 MB."""
    tracemalloc.start()
    try:
        rep = gcr_check([Mat.identity(Fp(31), 3)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rep.n_subspaces, rep.n_invariant, rep.semisimple) == (
        1988, 1988, True)
    assert peak < 8_000_000


def _gcr_generator_sets():
    """The generator lists of every default gcr record (the optimal
    images, and the 1 + J3 control), then lists with repeated and
    identity generators over F_2 and F_3."""
    grid = _SUITES["gcr"].grid
    sets = [list(build_optimal(rep_from_partition(Fp(p), lam))
                 .generator_images)
            for p in grid["primes"] for n in range(1, grid["n_max"] + 1)
            for lam in partitions_of(n) if admissible(lam, p)]
    u, one = Mat.identity(F2, 3) + jordan_block(F2, 3), Mat.identity(F2, 3)
    sets += [[u], [one], [one, one], [u, u, one], [one, u, one, u * u, u]]
    x, y = sl2_x1(F3, 1), sl2_y1(F3, 1)
    sets += [[x, x], [x, Mat.identity(F3, 2), x], [y, x, y, x * x, x]]
    return sets


def _gcr_reports(monkeypatch, distinct):
    monkeypatch.setattr(sl2, "_distinct_generators", distinct)
    return [gcr_check(gens) for gens in _gcr_generator_sets()]


def test_gcr_tests_each_distinct_generator_once(monkeypatch):
    """Dropping identity and repeated generators before the subspace
    loop gives the report of the full list on every default gcr
    instance, the 1 + J3 control and lists with repeats and identities;
    for the partitions 1^n no generator is left to test."""
    exact = sl2._distinct_generators
    sets = _gcr_generator_sets()
    kept = [exact(gens) for gens in sets]
    assert sum(map(len, kept)) < sum(map(len, sets))
    assert [] in kept and [k for k in kept if len(k) == 3]
    deduped = _gcr_reports(monkeypatch, exact)
    assert deduped == _gcr_reports(monkeypatch, list)
    assert any(not rep.semisimple for rep in deduped)


def test_planted_shape_dedupe_is_caught(monkeypatch):
    """A dedupe that keeps one generator per shape drops distinct ones:
    its reports differ from the full list's, and the gcr suite
    falsifies optimal-image records."""
    full = _gcr_reports(monkeypatch, list)

    def by_shape(generators):
        return list({(g.rows, g.cols): g for g in generators}.values())

    assert _gcr_reports(monkeypatch, by_shape) != full
    records = run_suite("gcr").records
    assert any(r.verified is False for r in records
               if r.claim == "optimal-image-semisimple")


def test_planted_coordinate_subspaces_falsify_every_gcr_record(
        monkeypatch, capsys):
    """An enumeration that yields only the coordinate subspaces misses
    the Gaussian-binomial count for n >= 2, so every gcr record with
    n >= 2 is falsified, the non-semisimple control included, and
    `optimal gcr` exits 1.  For n = 1 the coordinate subspaces are all
    the subspaces, and those records stay as they were."""
    exact = sl2._subspaces

    def coordinate_only(p, n):
        return [(k, cols) for k, cols in exact(p, n)
                if all(sum(c) == 1 for c in cols)]

    clean = run_suite("gcr").records
    assert clean and all(r.verified for r in clean)
    monkeypatch.setattr(sl2, "_subspaces", coordinate_only)
    planted = run_suite("gcr").records
    assert [r.instance for r in planted] == [r.instance for r in clean]
    lines = [r.instance.get("partition") == [1] for r in planted]
    assert sum(lines) == 2
    for r, c, line in zip(planted, clean, lines):
        if line:
            assert r == c
        else:
            assert r.verified is False
            assert "Gaussian binomials" in r.witness["error"]
    assert cli.main(["optimal", "gcr", "--partition", "2", "--p", "2"]) == 1
    assert "Gaussian binomials" in capsys.readouterr().out
