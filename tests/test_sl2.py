import inspect
import itertools
import random
from fractions import Fraction
from math import comb

import pytest

from optsl2 import cli, sl2
from optsl2.cochar import Cocharacter
from optsl2.errors import BudgetError, DomainError, PreconditionError
from optsl2.jordan import jordan_block
from optsl2.matrices import (DEFAULT_BUDGET, Mat, bracket, det, in_span,
                             inverse, random_invertible)
from optsl2.orbits import associated_cocharacter, rep_from_partition
from optsl2.scalars import Fp, QQ
from optsl2.sl2 import (build_optimal, conjugate_hom, conjugate_optimal,
                        d_hom, deform_to_levi, eval_hom,
                        exp_centralizer_check, gcr_check, gcr_check_hom,
                        hom_centralizer_check, hom_conjugators_agree,
                        hom_torus_cochar, levi_containment_check,
                        positive_commutant_basis, primitive_root,
                        radical_cochar_transporters, sl2_elements, sl2_sample,
                        sl2_torus, sl2_x1, sl2_y1, sym_power_dH, sym_power_dX,
                        sym_power_dY, sym_power_rep, verify_limit,
                        verify_optimal)
from optsl2.springer import eps_exp
from optsl2.suites import run_suite

F2 = Fp(2)
F3 = Fp(3)
F5 = Fp(5)


def test_generator_relations():
    for dom in (F5, QQ):
        assert sl2_x1(dom, 2) * sl2_x1(dom, 3) == sl2_x1(dom, 5)
        assert sl2_y1(dom, 1) * sl2_y1(dom, 1) == sl2_y1(dom, 2)
        a, t = dom.of(2), dom.of(3)
        lhs = sl2_torus(dom, a) * sl2_x1(dom, t) * inverse(sl2_torus(dom, a))
        assert lhs == sl2_x1(dom, dom.mul(dom.mul(a, a), t))
        for g in (sl2_x1(dom, 3), sl2_y1(dom, 2), sl2_torus(dom, 2)):
            assert det(g) == dom.one()


def test_sl2_elements_order_formula():
    for p in (2, 3, 5):
        elems = sl2_elements(p)
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


def test_sl2_sample():
    rnd = random.Random(41)
    table = set(tuple(g.data) for g in sl2_elements(3))
    for _ in range(30):
        assert tuple(sl2_sample(F3, rnd).data) in table
    for _ in range(10):
        assert det(sl2_sample(QQ, rnd)) == QQ.one()


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
        assert hom_torus_cochar(phi) == associated_cocharacter(X).psi
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
        psi = hom_torus_cochar(phi1)
        pos = positive_commutant_basis(X, psi)
        assert pos  # the radical of C(X) is nontrivial for these shapes
        N = Mat.zero(dom, n)
        for B in pos:
            N = N + B
        x_true = Mat.identity(dom, n) + N
        phi2 = conjugate_hom(phi1, x_true)
        x = conjugate_optimal(phi1, phi2)
        assert x == x_true
        assert hom_conjugators_agree(phi1, phi2, x)


def test_conjugate_optimal_identity_twist():
    X = rep_from_partition(F3, (2, 1))
    phi = build_optimal(X)
    assert conjugate_optimal(phi, phi) == Mat.identity(F3, 3)


def test_radical_transporter_is_unique():
    for lam, p in (((2, 2), 2), ((2, 1), 3)):
        dom = Fp(p)
        X = rep_from_partition(dom, lam)
        phi1 = build_optimal(X)
        found = radical_cochar_transporters(phi1, phi1)
        assert found == [Mat.identity(dom, sum(lam))]
        pos = positive_commutant_basis(X, hom_torus_cochar(phi1))
        x_true = Mat.identity(dom, sum(lam)) + pos[0]
        phi2 = conjugate_hom(phi1, x_true)
        found = radical_cochar_transporters(phi1, phi2)
        assert found == [x_true]


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
        assert rep.group_checked
        assert rep.group_agree
        assert rep.group_size is not None
    skipped = exp_centralizer_check(rep_from_partition(F3, (2,)), budget=1)
    assert skipped.nullspaces_agree
    assert not skipped.group_checked
    assert skipped.group_agree is None


def test_hom_centralizer_agreement():
    phi = build_optimal(rep_from_partition(F2, (2,)))
    rep = hom_centralizer_check(phi)
    assert rep.equal
    assert rep.image_centralizer_size == rep.pair_centralizer_size


def test_planted_exp_fault_breaks_group_agreement(monkeypatch):
    exact = sl2.eps_exp

    def off_by_one(M):
        u = exact(M)
        data = list(u.data)
        data[0] = u.domain.add(data[0], 1)
        return Mat(u.domain, u.rows, u.cols, data)

    monkeypatch.setattr(sl2, "eps_exp", off_by_one)
    rep = exp_centralizer_check(rep_from_partition(F3, (2, 1)))
    assert rep.group_checked
    assert rep.group_agree is False


def test_planted_torus_fault_breaks_hom_centralizer(monkeypatch):
    phi = build_optimal(rep_from_partition(F2, (2,)))
    monkeypatch.setattr(sl2, "hom_torus_cochar",
                        lambda phi: Cocharacter(phi.conjugator, [0] * phi.n))
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
