import pytest

from optsl2 import suites
from optsl2.errors import DomainError, OptSL2Error
from optsl2.suites import (CLOSURE_NOTES, DEFAULT_SEED, SUITE_NAMES,
                           run_suite)

EXPECTED_NAMES = ("centralizer", "conjugacy", "epsilon", "gcr",
                  "order-formula", "spaltenstein", "springer", "tilting",
                  "untwist", "weight-bound")


def test_suite_registry():
    assert SUITE_NAMES == EXPECTED_NAMES
    assert set(CLOSURE_NOTES) == set(SUITE_NAMES)
    assert all(isinstance(v, str) and v for v in CLOSURE_NOTES.values())


def test_unknown_suite_rejected():
    with pytest.raises(OptSL2Error):
        run_suite("frobnicate")


def test_grid_overrides_validated():
    with pytest.raises(DomainError):
        run_suite("epsilon", primes=(4,))
    with pytest.raises(OptSL2Error):
        # untwist runs on a fixed count, not an n ladder
        run_suite("untwist", n_max=3)


def test_report_shape_and_summary():
    report = run_suite("epsilon", n_max=3, primes=(2,))
    assert report.suite == "epsilon"
    assert report.seed == DEFAULT_SEED
    assert report.grid["primes"] == [2]
    s = report.summary
    assert s["instances"] == len(report.records)
    assert s["instances"] == s["verified"] + s["falsified"] + s["skipped"]
    assert s["falsified"] == 0
    assert report.falsified == []
    for r in report.records:
        assert r.claim
        assert isinstance(r.instance, dict)
        assert isinstance(r.witness, dict)
        assert r.runtime is None


def test_timings_are_opt_in():
    timed = run_suite("weight-bound", n_max=3, primes=(2,), timings=True)
    assert all(isinstance(r.runtime, float) for r in timed.records)
    plain = run_suite("weight-bound", n_max=3, primes=(2,))
    assert all(r.runtime is None for r in plain.records)


def test_same_seed_reproduces_records():
    a = run_suite("springer", n_max=3, primes=(3,), seed=5)
    b = run_suite("springer", n_max=3, primes=(3,), seed=5)
    assert a.records == b.records
    # the untwist instances expose the seeded draws directly
    c5 = run_suite("untwist", primes=(3,), seed=5)
    c6 = run_suite("untwist", primes=(3,), seed=6)
    assert [r.instance for r in c5.records] != [r.instance for r in c6.records]


def test_budget_produces_skips_not_failures():
    report = run_suite("centralizer", n_max=3, primes=(2,), budget=1)
    s = report.summary
    assert s["falsified"] == 0
    assert s["skipped"] > 0
    # 3^4 fits the budget, 3^9 does not: the n = 3 group claims are skips
    report = run_suite("centralizer", n_max=3, primes=(3,), budget=81)
    unchecked = [r for r in report.records
                 if r.witness.get("group_checked") is False]
    assert len(unchecked) == 3
    assert all(r.verified is None for r in unchecked)
    assert report.summary["falsified"] == 0


def test_planted_duplicate_basis_finds_two_conjugators(monkeypatch):
    exact = suites.positive_commutant_basis

    def with_repeat(X, psi):
        basis = exact(X, psi)
        return basis + basis[:1]

    monkeypatch.setattr(suites, "positive_commutant_basis", with_repeat)
    report = run_suite("conjugacy", n_max=3, primes=(2,))
    failures = [r.witness["failure"] for r in report.falsified]
    assert failures
    assert set(failures) == {"2 radical conjugators found"}
