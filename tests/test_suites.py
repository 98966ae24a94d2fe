import json
import re

import pytest

from optsl2 import (cochar, matrices, orbits, partitions, sl2, suites,
                    tilting)
from optsl2.cli import main
from optsl2.errors import DomainError, InconsistencyError, OptSL2Error
from optsl2.scalars import Fp
from optsl2.springer import AdditiveHom
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
    with pytest.raises(OptSL2Error, match="does not take twists"):
        run_suite("epsilon", twists=3)
    # a grid that checks nothing, or checks an instance twice
    for kw in ({"n_max": 0}, {"primes": ()}, {"primes": (3, 2, 3)}):
        with pytest.raises(DomainError):
            run_suite("epsilon", **kw)
    # a conjugacy record with no twist would verify a check it never ran
    with pytest.raises(DomainError, match="twists must be at least 1"):
        run_suite("conjugacy", twists=0)


@pytest.mark.parametrize("name, kw, key", [
    ("order-formula", {"n_max": 3, "primes": (2, 3)},
     {"partition": [3], "p": 3}),
    ("weight-bound", {"n_max": 3, "primes": (2, 3)},
     {"partition": [2, 1], "p": 3}),
    ("springer", {"n_max": 3, "primes": (2, 3)},
     {"partition": [2, 1], "p": 3}),
    ("epsilon", {"n_max": 3, "primes": (2, 3)},
     {"partition": [2, 1], "p": 3}),
    ("conjugacy", {"n_max": 3, "primes": (2, 3)},
     {"partition": [2, 1], "p": 3}),
    # the skipped group gives the Lie kernels a record of their own
    ("centralizer", {"n_max": 3, "primes": (2, 3), "budget": 81},
     {"partition": [2, 1], "p": 3}),
    ("gcr", {"n_max": 2, "primes": (2, 3)}, {"generator": "1 + J3", "p": 2}),
    ("tilting", {"n_max": 3, "primes": (2, 3)}, {"partition": [3], "p": 3}),
    ("untwist", {"primes": (2, 3)}, {"index": 5, "p": 3}),
    # the full run takes the rational rank of (2, 1) at p = 2 first
    ("spaltenstein", {"n_max": 3, "primes": (2, 3)},
     {"partition": [2, 1], "p": 3}),
])
def test_only_gives_the_full_runs_records_of_one_instance(name, kw, key):
    def wanted(instance):
        return all(instance.get(k) == v for k, v in key.items())

    full = [r for r in run_suite(name, **kw).records if wanted(r.instance)]
    assert full and all(r.instance == full[0].instance for r in full)
    if name == "centralizer":
        assert [r.claim for r in full] == [
            "exp-centralizer-equals-x-centralizer",
            "exp-centralizer-lie-kernels-agree",
            "image-centralizer-intersection"]
    assert run_suite(name, only=wanted, **kw).records == full


def test_only_builds_no_check_for_a_rejected_instance(monkeypatch):
    def built(*args, **kw):
        raise AssertionError("a check was built")

    for attr in ("weight_bound_check", "gcr_check", "gcr_check_hom",
                 "additive_untwist"):
        monkeypatch.setattr(suites, attr, built)
    for name in ("weight-bound", "gcr", "untwist"):
        assert run_suite(name, only=lambda i: False).records == []
    with pytest.raises(AssertionError, match="a check was built"):
        run_suite("gcr", only=lambda i: "generator" in i)


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
    # the walks of (2) at p = 3 scan 27 rows and fit a budget of 81;
    # those of (3) and (2, 1) pass it and are skips, with the charge at
    # which they stopped; X = 0, one count, is never a skip
    report = run_suite("centralizer", n_max=3, primes=(3,), budget=81)
    skipped = [r for r in report.records if r.verified is None]
    assert [(r.instance["partition"], r.claim) for r in skipped] == [
        ([3], "exp-centralizer-equals-x-centralizer"),
        ([3], "image-centralizer-intersection"),
        ([2, 1], "exp-centralizer-equals-x-centralizer"),
        ([2, 1], "image-centralizer-intersection")]
    for r in skipped:
        [(key, text)] = r.witness.items()
        assert key == "budget_exceeded"
        spent = int(re.fullmatch(
            r"walk of (\d+) candidates exceeds budget 81", text).group(1))
        assert 81 < spent <= 81 + 27
    assert report.summary["falsified"] == 0


@pytest.mark.parametrize("name, n_max, p", [
    ("centralizer", 4, 3), ("centralizer", 5, 2),
    ("conjugacy", 6, 5), ("conjugacy", 6, 7)])
def test_default_budget_skips_nothing_the_walks_settle(name, n_max, p):
    """Grids whose records the up-front sizes p^(n^2) and p^dim once
    skipped: the walks visit a small share of those sizes, and every
    record verifies at the default budget."""
    s = run_suite(name, n_max=n_max, primes=(p,)).summary
    assert s["verified"] == s["instances"] > 0


def test_a_small_budget_stops_a_large_grid_with_skips():
    report = run_suite("centralizer", n_max=5, primes=(3,), budget=10 ** 4)
    s = report.summary
    assert s["skipped"] > 0 and s["falsified"] == 0
    assert s["verified"] + s["skipped"] == s["instances"]


def test_skipped_group_gives_the_lie_kernels_a_record_of_their_own(
        monkeypatch):
    lie_claim = "exp-centralizer-lie-kernels-agree"
    # the default budget checks every group: no Lie-level record
    assert all(r.claim != lie_claim for r in run_suite("centralizer").records)
    # at 81 the walks of (3) and (2, 1) are skips; X = 0 is one count
    report = run_suite("centralizer", n_max=3, primes=(3,), budget=81)
    lie = [i for i, r in enumerate(report.records) if r.claim == lie_claim]
    assert [report.records[i].instance["partition"] for i in lie] == \
        [[3], [2, 1]]
    for i in lie:
        r, group = report.records[i], report.records[i - 1]
        assert (r.witness, r.verified) == ({"t_values": 2}, True)
        # right after the skipped group record of the same instance
        assert group.claim == "exp-centralizer-equals-x-centralizer"
        assert group.instance == r.instance
        assert list(group.witness) == ["budget_exceeded"]
        assert group.verified is None
    assert report.summary == {"instances": 14, "verified": 10,
                              "falsified": 0, "skipped": 4}

    # kernels that disagree falsify the Lie-level records, and the group
    # records that ran; the skipped group records stay skips
    for module in (sl2, suites):
        monkeypatch.setattr(module, "exp_kernels_agree", lambda X: False)
    planted = run_suite("centralizer", n_max=3, primes=(3,), budget=81)
    for r, c in zip(planted.records, report.records):
        if c.claim == lie_claim or (c.claim.startswith("exp-")
                                    and c.verified is True):
            assert (r.instance, r.witness, r.verified) == \
                (c.instance, c.witness, False)
        else:
            assert r == c


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


def _falsified(report):
    """(falsified records, those of them whose check returned a verdict
    rather than raising)."""
    bad = [r for r in report.records if r.verified is False]
    return len(bad), sum("error" not in r.witness for r in bad)


def test_planted_overstripping_untwist_falsifies_the_untwist_suite(
        monkeypatch):
    exact = suites.additive_untwist

    def one_too_many(h):
        h2, r = exact(h)
        return AdditiveHom(h2.domain, h2.coeffs[1:]), r + 1

    monkeypatch.setattr(suites, "additive_untwist", one_too_many)
    report = run_suite("untwist")
    falsified, returned = _falsified(report)
    assert falsified == len(report.records) == 300
    assert returned >= 196


def test_planted_doubled_ad_weights_falsify_weight_bound(monkeypatch):
    exact = cochar.Cocharacter.ad_weight_values
    monkeypatch.setattr(cochar.Cocharacter, "ad_weight_values",
                        lambda self: [2 * w for w in exact(self)])
    falsified, returned = _falsified(run_suite("weight-bound"))
    assert falsified >= 64
    assert returned == falsified


def test_planted_duplicate_basis_finds_two_conjugators(monkeypatch, capsys):
    exact = suites.radical_conjugator_counts

    def with_repeat(phi1, phi2s, basis, budget):
        return exact(phi1, phi2s, basis + basis[:1], budget)

    monkeypatch.setattr(suites, "radical_conjugator_counts", with_repeat)
    report = run_suite("conjugacy", n_max=3, primes=(2,))
    failures = [r.witness["failure"] for r in report.falsified]
    assert failures
    assert set(failures) == {"2 radical conjugators found"}
    # the command line runs the same check
    assert main(["optimal", "conjugacy", "--n", "3", "--p", "2"]) == 1
    assert "2 radical conjugators found" in capsys.readouterr().out


def test_planted_intertwiner_fault_falsifies_both_brute_force_suites(
        monkeypatch):
    exact = matrices.intertwiner_forms

    def blind_to_last_entry(A, B):
        last = A.rows * A.cols - 1
        forms = [tuple((t, c) for t, c in form if t != last)
                 for form in exact(A, B)]
        return [form for form in forms if form]

    monkeypatch.setattr(matrices, "intertwiner_forms", blind_to_last_entry)
    assert run_suite("conjugacy").falsified
    # both sides of each centralizer comparison see the same fault, so
    # only the closed-form orders catch it
    report = run_suite("centralizer")
    assert report.falsified
    assert all("error" not in r.witness for r in report.falsified)
    assert main(["verify", "centralizer"]) == 1


def test_planted_centralizer_dim_fault_falsifies_four_suites(monkeypatch):
    """Every reader of the one centralizer-dimension formula sees an
    off-by-one in it."""
    exact = partitions.centralizer_dim
    for module in (partitions, orbits, tilting, suites):
        monkeypatch.setattr(module, "centralizer_dim",
                            lambda lam: exact(lam) + 1)
    for name in ("spaltenstein", "tilting", "conjugacy", "centralizer"):
        report = run_suite(name, n_max=2, primes=(2,))
        assert report.falsified, name
    rep = orbits.centralizer_report(orbits.rep_from_partition(Fp(2), (2, 1)))
    assert rep.dim_c != rep.formula_dim


def _radical_exponent(record):
    """k of a conjugacy record's radical size p^k."""
    return int(record.witness["radical_size"].split("^")[1])


def _assert_full_radical_counts(report):
    """Records with a nontrivial radical are falsified with the count
    of the whole radical, p^k; the others still hold."""
    assert report.falsified
    for r in report.records:
        p, k = r.instance["p"], _radical_exponent(r)
        if k:
            assert r.verified is False
            assert r.witness["failure"] == \
                "%d radical conjugators found" % p ** k
        else:
            assert r.verified is True


def test_planted_identity_coordinate_change_falsifies_only_twists(
        monkeypatch):
    """Cocharacter.coords and from_coords planted as the identity.  The
    default grids build X in Jordan form, whose Jordan basis is the
    identity, so only a twist's coordinate change is wrong: each twist
    then has phi1's images, and the 10 conjugacy records with a
    nontrivial radical are falsified, while centralizer and gcr stay
    verified.  So each twist puts the shared blocks into place by its
    own coordinate change."""
    monkeypatch.setattr(cochar.Cocharacter, "coords", lambda self, M: M)
    monkeypatch.setattr(cochar.Cocharacter, "from_coords",
                        lambda self, C: C)
    report = run_suite("conjugacy")
    assert len(report.records) == 18
    bad = [r for r in report.records if r.verified is not True]
    assert len(bad) == 10
    for r in report.records:
        nontrivial = partitions.radical_dim(tuple(r.instance["partition"]))
        assert (r.verified is False) == (nontrivial > 0)
    assert {r.witness.get("error") for r in bad} == {
        "transporter solution does not conjugate the homomorphisms"}
    for name in ("centralizer", "gcr"):
        report = run_suite(name)
        assert report.records
        assert all(r.verified is True for r in report.records), name


def test_planted_shifted_twist_predicates_are_caught(monkeypatch):
    exact = sl2._conjugator_tests

    def shifted(phi1, phi2s):
        # twist i is tested with the predicates of twist i + 1; the last
        # twist has no successor and is left with no predicate at all
        return exact(phi1, phi2s)[1:] + [[]]

    monkeypatch.setattr(sl2, "_conjugator_tests", shifted)
    _assert_full_radical_counts(run_suite("conjugacy", n_max=3,
                                          primes=(2, 3)))


def test_planted_dropped_y1_predicate_is_caught(monkeypatch):
    exact = sl2._conjugator_tests

    def x1_only(phi1, phi2s):
        return [tests[1:] for tests in exact(phi1, phi2s)]

    monkeypatch.setattr(sl2, "_conjugator_tests", x1_only)
    _assert_full_radical_counts(run_suite("conjugacy", n_max=3,
                                          primes=(2, 3)))


def test_planted_repeated_radical_basis_makes_the_solver_not_unique(
        monkeypatch):
    """The solver on a radical basis with a repeated element: its system
    loses full column rank, so every record with a nontrivial radical
    becomes an error record; the others are unchanged."""
    clean = run_suite("conjugacy", n_max=3, primes=(2, 3))
    exact = suites.conjugate_optimal

    def on_repeated_basis(phi1, phi2):
        basis = sl2.positive_commutant_basis(phi1.X, phi1.psi)
        phi1.radical_basis = basis + basis[:1]
        return exact(phi1, phi2)

    monkeypatch.setattr(suites, "conjugate_optimal", on_repeated_basis)
    planted = run_suite("conjugacy", n_max=3, primes=(2, 3))
    falsified = 0
    for r, c in zip(planted.records, clean.records, strict=True):
        if _radical_exponent(c):
            assert (r.instance, r.verified) == (c.instance, False)
            assert "not unique" in r.witness["error"]
            falsified += 1
        else:
            assert r == c
    assert (falsified, len(clean.records)) == (5, 11)


def test_planted_short_radical_basis_misses_the_closed_form(monkeypatch):
    """A radical basis that drops its last element: the twists, the
    count and the solver all live in its span and agree with each
    other, so only the closed-form dimension falsifies the record."""
    clean = run_suite("conjugacy")
    exact = sl2.positive_commutant_basis
    monkeypatch.setattr(sl2, "positive_commutant_basis",
                        lambda X, psi: exact(X, psi)[:-1])
    planted = run_suite("conjugacy")
    assert planted.falsified
    for r, c in zip(planted.records, clean.records, strict=True):
        p, d = c.instance["p"], _radical_exponent(c)
        if d:
            assert (r.instance, r.verified) == (c.instance, False)
            assert r.witness == {
                "twists": 10, "radical_size": "%d^%d" % (p, d - 1),
                "failure": "radical dimension %d, expected %d" % (d - 1, d)}
        else:
            assert r == c


@pytest.mark.parametrize("count_twist, solver_twist",
                         [(1, 3), (3, 1), (2, 2)])
def test_conjugacy_notes_follow_the_twist_order(monkeypatch, count_twist,
                                                solver_twist):
    """A count fault and a solver fault on different twists: the record
    carries the note of the earlier twist, and on one twist the
    solver's, as when each twist was solved and then counted in turn."""
    exact_tests = sl2._conjugator_tests
    exact_solver = suites.conjugate_optimal
    state = {"phi1": None, "calls": 0}

    def count_fault(phi1, phi2s):
        tests = exact_tests(phi1, phi2s)
        tests[count_twist] = []
        return tests

    def solver_fault(phi1, phi2):
        if phi1 is not state["phi1"]:  # a new instance
            state.update(phi1=phi1, calls=0)
        twist = state["calls"]
        state["calls"] += 1
        x = exact_solver(phi1, phi2)
        return x.scale(2) if twist == solver_twist else x

    monkeypatch.setattr(sl2, "_conjugator_tests", count_fault)
    monkeypatch.setattr(suites, "conjugate_optimal", solver_fault)
    report = run_suite("conjugacy", n_max=3, primes=(2, 3))
    assert all(r.verified is False for r in report.records)
    for r in report.records:
        p, k = r.instance["p"], _radical_exponent(r)
        if k and count_twist < solver_twist:
            assert r.witness["failure"] == \
                "%d radical conjugators found" % p ** k
        else:
            assert r.witness["failure"] == \
                "solver returned a different conjugator"


def test_conjugacy_reaches_n5_over_f5():
    """The pruned radical walk takes the conjugacy suite to n <= 5 over
    F_5, whose radicals reach 5^8 elements: every record verified."""
    report = run_suite("conjugacy", n_max=5, primes=(5,))
    assert len(report.records) == 18
    assert report.summary["verified"] == 18


def test_conjugacy_grid_to_n5_keeps_the_default_records():
    """The grid of the next growth step: n <= 5 over F_2 and F_3.  Every
    instance is seeded by itself, so the default grid's records come
    back byte for byte inside the larger report."""
    default = run_suite("conjugacy")
    grown = run_suite("conjugacy", n_max=5, primes=(2, 3))
    assert len(default.records) == 18
    assert len(grown.records) == 26
    assert grown.summary["verified"] == 26

    def dump(r):
        return json.dumps(r._asdict(), sort_keys=True)

    grown_dumps = [dump(r) for r in grown.records]
    assert all(dump(r) in grown_dumps for r in default.records)



def _count_check_products(monkeypatch, name):
    """The Mat.__mul__ calls and the result of each check of a one-row
    suite, in record order: the row's check is wrapped in the suite's
    declaration."""
    counts, calls = [], [0]
    exact = matrices.Mat.__mul__

    def counted_mul(a, b):
        calls[0] += 1
        return exact(a, b)

    suite = suites._SUITES[name]
    (claim, check), = suite.rows

    def counted(p, point, ctx):
        start = calls[0]
        result = check(p, point, ctx)
        counts.append((calls[0] - start, result))
        return result

    monkeypatch.setattr(matrices.Mat, "__mul__", counted_mul)
    monkeypatch.setitem(suites._SUITES, name,
                        suite._replace(rows=((claim, counted),)))
    return counts


class _Past(Exception):
    """Raised by an only predicate once its one instance has run."""


def test_untwist_records_cost_what_they_cost_alone(monkeypatch):
    """The memos of jordan are emptied when each instance starts, so a
    record's products do not depend on the records before it: every
    untwist record of the default grid makes as many products, with the
    same result, in the full run as when run_suite runs its instance
    alone.  The lone run stops at the next instance, whose draw comes
    after the lone check."""
    counts = _count_check_products(monkeypatch, "untwist")
    full = run_suite("untwist").records
    in_full = list(counts)
    assert len(in_full) == len(full) == 300
    assert all(r.verified for r in full)
    for record, want in zip(full, in_full):
        instance = record.instance

        def alone(i):
            if i["index"] > instance["index"]:
                raise _Past
            return i == instance

        counts.clear()
        try:
            run_suite("untwist", primes=(instance["p"],), only=alone)
        except _Past:
            pass
        assert counts == [want], instance
