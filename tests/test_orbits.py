import random

import pytest

from optsl2.errors import PreconditionError
from optsl2.matrices import Mat, inverse, random_invertible
from optsl2.orbits import (associated_cocharacter, block_weights,
                           centralizer_report, instability_parabolic,
                           is_associated, orbit_summary, order_formula_report,
                           parabolic_block_type, regular_richardson_for_borel,
                           rep_from_partition, weight_bound_check)
from optsl2.partitions import conjugate, partitions_of
from optsl2.scalars import Fp, QQ

F2 = Fp(2)
F3 = Fp(3)
F5 = Fp(5)


def test_block_weights_known_values():
    assert block_weights((3, 1)) == (2, 0, -2, 0)
    assert block_weights((2, 2)) == (1, -1, 1, -1)
    assert block_weights((1, 1)) == (0, 0)
    assert block_weights(()) == ()


def test_associated_cocharacter_basics():
    rnd = random.Random(21)
    for dom in (F3, QQ):
        for lam in partitions_of(4):
            g = random_invertible(dom, 4, rnd, bound=2)
            X = g * rep_from_partition(dom, lam) * inverse(g)
            data = associated_cocharacter(X)
            assert data.jordan.partition == lam
            assert data.psi.components(X) == ({2: X} if lam[0] > 1 else {})
            assert is_associated(data.psi, X)


def test_is_associated_rejects_other_orbits():
    X = rep_from_partition(F5, (3,))
    psi = associated_cocharacter(X).psi
    assert not is_associated(psi, rep_from_partition(F5, (2, 1)))
    assert not is_associated(psi, Mat.zero(F5, 3, 3))


def test_instability_parabolic_contains_centralizing_unipotents():
    X = rep_from_partition(F3, (2, 1))
    data = instability_parabolic(X)
    u = Mat.identity(F3, 3) + X
    assert data.parabolic.contains(u)
    assert data.parabolic.contains(X)
    assert not data.parabolic.contains(Mat.unit(F3, 3, 3, 1, 0))


def test_centralizer_dimension_matches_partition_formula():
    for dom in (F2, F3, QQ):
        for n in range(1, 5):
            for lam in partitions_of(n):
                rep = centralizer_report(rep_from_partition(dom, lam))
                assert rep.dim_c == rep.formula_dim
                assert rep.formula_dim == sum(c * c for c in conjugate(lam))
                assert rep.contained_in_p_psi


def test_order_formula_small_block():
    rep = order_formula_report(2, (2,))
    assert rep.unip_order == 2
    assert rep.has_order_p and rep.x_p_zero
    assert rep.weights_below_2p and rep.class_below_p
    assert rep.all_agree


def test_order_formula_equivalence_is_a_single_block_statement():
    # (2,1) at p = 2: three conditions hold but the radical of the Borel
    # P(psi) already has class p, so the four-way agreement needs a
    # single Jordan block
    rep = order_formula_report(2, (2, 1))
    assert rep.has_order_p and rep.x_p_zero and rep.weights_below_2p
    assert rep.radical_class == 2 and not rep.class_below_p
    assert not rep.all_agree


def test_order_formula_large_block_fails_all_four_conditions():
    rep = order_formula_report(2, (3,))
    assert rep.unip_order == 4
    assert not rep.has_order_p
    assert not rep.x_p_zero
    assert rep.max_ad_weight == 4 and not rep.weights_below_2p
    assert rep.radical_class == 2 and not rep.class_below_p
    assert rep.all_agree


def test_order_formula_agreement_sweep_single_blocks():
    for p in (2, 3, 5, 7):
        for n in range(1, 9):
            assert order_formula_report(p, (n,)).all_agree


def test_weight_bound():
    rep = weight_bound_check(3, (3, 2))
    assert (rep.min_ad_weight, rep.max_ad_weight) == (-4, 4)
    assert rep.within_bound
    with pytest.raises(PreconditionError):
        weight_bound_check(2, (3,))


def test_regular_richardson_for_borel():
    for dom, lam in ((F5, (3, 2)), (QQ, (4, 3))):
        psi = associated_cocharacter(rep_from_partition(dom, lam)).psi
        assert parabolic_block_type(psi) == (1,) * psi.n
        Y = regular_richardson_for_borel(psi)
        assert associated_cocharacter(Y).jordan.partition == (psi.n,)
    psi22 = associated_cocharacter(rep_from_partition(QQ, (2, 2))).psi
    with pytest.raises(PreconditionError):
        regular_richardson_for_borel(psi22)


def test_parabolic_block_type():
    psi = associated_cocharacter(rep_from_partition(QQ, (2, 2))).psi
    assert parabolic_block_type(psi) == (2, 2)
    psi31 = associated_cocharacter(rep_from_partition(QQ, (3, 1))).psi
    assert parabolic_block_type(psi31) == (1, 2, 1)


def test_orbit_summary_row():
    row = orbit_summary(3, (3, 2))
    assert row["partition"] == [3, 2]
    assert row["dim_c"] == 9
    assert row["psi_weights"] == [2, 0, -2, 1, -1]
    assert row["max_ad_weight"] == 4
    assert row["unip_order"] == 3
    assert row["x_p_zero"] is True
    assert row["distinguished"] is False
    assert row["parabolic_block_type"] == [1, 1, 1, 1, 1]
    reg = orbit_summary(2, (4,))
    assert reg["distinguished"] is True
    assert reg["unip_order"] == 4


def test_orbit_summary_builds_one_jordan_basis_per_row(monkeypatch):
    from optsl2 import orbits
    calls = [0]
    exact = orbits.nilpotent_jordan

    def counted(X):
        calls[0] += 1
        return exact(X)

    monkeypatch.setattr(orbits, "nilpotent_jordan", counted)
    for p in (2, 3):
        for lam in partitions_of(5):
            calls[0] = 0
            row = orbit_summary(p, lam)
            assert calls[0] == 1, (p, lam)
            # the reference route: a Jordan basis per invariant
            X = rep_from_partition(Fp(p), lam)
            psi = associated_cocharacter(X).psi
            assert row["dim_c"] == centralizer_report(X).dim_c
            assert row["parabolic_block_type"] == \
                list(parabolic_block_type(psi))
