"""End-to-end acceptance runs: each test drives one verification suite
(or the direct instance checks) over its full grid, requires zero
falsifications and zero skips, and enforces the wall-clock limit."""

import time

from optsl2.jordan import nilpotent_jordan
from optsl2.matrices import Mat
from optsl2.orbits import (associated_cocharacter, parabolic_block_type,
                           regular_richardson_for_borel, rep_from_partition)
from optsl2.scalars import Fp
from optsl2.suites import run_suite
from optsl2.tilting import adjoint_descriptor, tilting_decompose


def _clean_suite(name, instances, limit, **kw):
    t0 = time.perf_counter()
    report = run_suite(name, **kw)
    elapsed = time.perf_counter() - t0
    s = report.summary
    assert s["instances"] == instances, s
    assert s["falsified"] == 0, report.falsified[:3]
    assert s["skipped"] == 0, s
    assert elapsed < limit, "suite %s took %.1fs, limit %ds" % (name, elapsed,
                                                               limit)
    return report


def test_criterion_01_worked_instance_partition_3_2():
    t0 = time.perf_counter()
    X = rep_from_partition(Fp(3), (3, 2))
    psi = associated_cocharacter(X).psi
    assert sorted(psi.weights, reverse=True) == [2, 1, 0, -1, -2]
    assert len(set(psi.weights)) == 5
    assert parabolic_block_type(psi) == (1, 1, 1, 1, 1)
    assert (X ** 3).is_zero()
    Y = regular_richardson_for_borel(psi)
    assert nilpotent_jordan(Y).partition == (5,)
    assert not (Y ** 3).is_zero()
    assert time.perf_counter() - t0 < 1
    print("criterion 1 (worked instance (3,2) at p=3): PASS")


def test_criterion_02_weight_bound():
    _clean_suite("weight-bound", 188, 10)
    print("criterion 2 (ad-weight bound 2p-2): PASS")


def test_criterion_03_order_formula():
    report = _clean_suite("order-formula", 32, 10)
    for r in report.records:
        assert len(set(r.witness["conditions"])) == 1
    print("criterion 3 (order formula, four conditions): PASS")


def test_criterion_04_spaltenstein_invariance():
    _clean_suite("spaltenstein", 264, 30)
    print("criterion 4 (centralizer dimension characteristic-free): PASS")


def test_criterion_05_springer_family():
    _clean_suite("springer", 87, 60)
    print("criterion 5 (Springer family independence): PASS")


def test_criterion_06_conjugacy_unique_radical_element():
    _clean_suite("conjugacy", 18, 300)
    print("criterion 6 (unique unipotent-radical conjugator): PASS")


def test_criterion_07_epsilon_compatibility():
    report = _clean_suite("epsilon", 44, 60)
    for r in report.records:
        assert r.witness["exp_aligned"] and r.witness["kernels_agree"]
    print("criterion 7 (phi(x1(t)) = eps(tX) and kernel agreement): PASS")


def test_criterion_08_tilting_with_goldens():
    _clean_suite("tilting", 188, 30)
    assert str(tilting_decompose(adjoint_descriptor((2,), 2), 2)) == "T(2)"
    assert str(tilting_decompose(adjoint_descriptor((3,), 3), 3)) \
        == "T(4) + L(2)"
    print("criterion 8 (adjoint module tilting certificates): PASS")


def test_criterion_09_complete_reducibility():
    report = _clean_suite("gcr", 19, 120)
    control = [r for r in report.records
               if r.claim == "non-semisimple-control-flagged"]
    assert len(control) == 1 and control[0].verified
    print("criterion 9 (optimal image semisimple, control flagged): PASS")


def test_criterion_10_frobenius_untwist():
    report = _clean_suite("untwist", 300, 10)
    for r in report.records:
        assert 0 <= r.instance["r"] <= 3
    print("criterion 10 (Frobenius untwist exact): PASS")


def test_criterion_11_centralizer_brute_force():
    _clean_suite("centralizer", 22, 60)
    print("criterion 11 (C(X) = C(eps(tX)) = C(X) cap C(torus image)): PASS")
