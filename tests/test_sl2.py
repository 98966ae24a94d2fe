import random

import pytest

from optsl2 import sl2
from optsl2.cochar import Cocharacter
from optsl2.errors import BudgetError, DomainError, PreconditionError
from optsl2.jordan import jordan_block
from optsl2.matrices import (Mat, bracket, det, in_span, inverse,
                             random_invertible)
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
