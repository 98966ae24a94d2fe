import pytest

from optsl2 import sl2, suites
from optsl2.cli import main
from optsl2.errors import DomainError, InconsistencyError, OptSL2Error
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
    # a grid that checks nothing, or checks an instance twice
    for kw in ({"n_max": 0}, {"primes": ()}, {"primes": (3, 2, 3)}):
        with pytest.raises(DomainError):
            run_suite("epsilon", **kw)


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


def test_a_raising_check_is_one_falsified_record(monkeypatch):
    clean = run_suite("weight-bound", n_max=3, primes=(2, 3)).records
    exact = suites.weight_bound_check

    def raising(p, lam):
        if (p, lam) == (3, (2, 1)):
            raise InconsistencyError("planted")
        return exact(p, lam)

    monkeypatch.setattr(suites, "weight_bound_check", raising)
    records = run_suite("weight-bound", n_max=3, primes=(2, 3)).records
    assert len(records) == len(clean)
    for r, c in zip(records, clean):
        if r.instance == {"partition": [2, 1], "p": 3}:
            assert (r.claim, r.verified) == (c.claim, False)
            assert r.witness == {"error": "planted"}
        else:
            assert r == c


def test_planted_duplicate_basis_finds_two_conjugators(monkeypatch, capsys):
    exact = suites.positive_commutant_basis

    def with_repeat(X, psi):
        basis = exact(X, psi)
        return basis + basis[:1]

    monkeypatch.setattr(suites, "positive_commutant_basis", with_repeat)
    report = run_suite("conjugacy", n_max=3, primes=(2,))
    failures = [r.witness["failure"] for r in report.falsified]
    assert failures
    assert set(failures) == {"2 radical conjugators found"}
    # the command line runs the same check
    assert main(["optimal", "conjugacy", "--n", "3", "--p", "2"]) == 1
    assert "2 radical conjugators found" in capsys.readouterr().out


def test_planted_intertwiner_fault_falsifies_both_brute_force_suites(
        monkeypatch):
    exact = sl2.intertwiner_test

    def blind_to_last_entry(A, B):
        test = exact(A, B)
        return lambda x: test(x[:-1] + (0,))

    monkeypatch.setattr(sl2, "intertwiner_test", blind_to_last_entry)
    assert run_suite("conjugacy").falsified
    # both sides of each centralizer comparison see the same fault, so
    # only the closed-form orders catch it
    report = run_suite("centralizer")
    assert report.falsified
    assert all("error" not in r.witness for r in report.falsified)
    assert main(["verify", "centralizer"]) == 1
