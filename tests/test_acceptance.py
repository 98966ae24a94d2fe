"""End-to-end acceptance runs: each test drives one verification suite
(or the direct instance checks) over its full grid, requires zero
falsifications and zero skips, pins the digest of the records and
enforces the wall-clock limit."""

import hashlib
import json
import time

from optsl2.jordan import nilpotent_jordan
from optsl2.matrices import Mat
from optsl2.orbits import (associated_cocharacter, parabolic_block_type,
                           regular_richardson_for_borel, rep_from_partition)
from optsl2.scalars import Fp
from optsl2.suites import run_suite
from optsl2.tilting import adjoint_descriptor, tilting_decompose


# SHA-256 of the sorted-key JSON of every record's (claim, instance,
# witness, verified) on the default grid and seed: the reports must stay
# byte-identical unless a change alters verdicts on purpose and says so.
REPORT_SHA = {
    "centralizer":
        "f5e2b18c16ddf93eb19508bca0018c060615083e3ae0ec3d9fd1d7a93dde64bb",
    "conjugacy":
        "ed6d08ad4bd1a3b774d65e967f9c99e92edd3814551c5e4344012164b2833395",
    "epsilon":
        "5fdaf9d08e30f9627405e1514e364f287e2a66e72de459527c59e74a947543d2",
    "gcr":
        "0967f4c20383f7db5c266060dfa43229f7aafe6b0ae71688388928b2ae53e6dd",
    "order-formula":
        "4b9464ca13648340aa4ec663d65f3487a2c933900b5c283b18470da77073dcd4",
    "spaltenstein":
        "905e2c15525bfc4b364c8b0e3f4644c31c1422be2f9d24ca719608c5d41aee6f",
    "springer":
        "6bbe009d3f99d2a72b238ef2332e7af0a0089753319602a8d577df444e449dae",
    "tilting":
        "004a3c693c330811e42c40703e5472fd3012bb7483e6bdaa195e06bea374a989",
    "untwist":
        "512b212f9eea0a05315deaf4be159b34e35ca4e2fb6d27a9b13172d2d45aa297",
    "weight-bound":
        "7b892fd9ae9caf1c1b8820c87f8a3f2d3c5c92f6b943ba7702a8927db193d80a",
}


def _record_sha(report):
    blob = json.dumps([{"claim": r.claim, "instance": r.instance,
                        "witness": r.witness, "verified": r.verified}
                       for r in report.records],
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


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
    assert _record_sha(report) == REPORT_SHA[name], name
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
