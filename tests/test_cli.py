import argparse
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from optsl2 import (Cocharacter, Fp, Mat, SpringerCoeffs, adjoint_descriptor,
                    associated_cocharacter, build_optimal, centralizer_report,
                    cli, d_hom, deform_to_levi, distinguished_check,
                    exp_centralizer_check, gcr_check_hom,
                    hom_centralizer_check, instability_parabolic,
                    levi_containment_check, nilpotent_jordan,
                    orbit_bijection_check, order_formula_report,
                    rep_from_partition, run_suite, suites, tilting_decompose,
                    verify_limit, verify_optimal, weight_bound_check)
from optsl2.cli import main
from optsl2.errors import InconsistencyError
from optsl2.partitions import partitions_of
from optsl2.suites import DEFAULT_SEED


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_json_is_byte_reproducible(capsys):
    argv = ("verify", "epsilon", "--n-max", "3", "--primes", "2",
            "--format", "json")
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    obj = json.loads(out1)
    assert obj["schema"] == 1
    assert obj["suite"] == "epsilon"
    assert obj["summary"]["falsified"] == 0
    assert all(r["runtime"] is None for r in obj["records"])


def test_verify_seed_changes_the_report(capsys):
    base = ("verify", "untwist", "--primes", "3", "--format", "json")
    _, out5a, _ = run_cli(capsys, *base, "--seed", "5")
    _, out5b, _ = run_cli(capsys, *base, "--seed", "5")
    _, out6, _ = run_cli(capsys, *base, "--seed", "6")
    assert out5a == out5b
    assert out5a != out6
    assert json.loads(out6)["seed"] == 6


def test_verify_timings_flag(capsys):
    argv = ("verify", "weight-bound", "--n-max", "3", "--primes", "2",
            "--format", "json", "--timings")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    obj = json.loads(out)
    assert all(isinstance(r["runtime"], float) for r in obj["records"])


def test_verify_text_output(capsys):
    code, out, err = run_cli(capsys, "verify", "order-formula",
                             "--n-max", "3", "--primes", "2,3")
    assert code == 0
    assert err == ""
    assert "suite: order-formula" in out
    assert "summary:" in out
    assert "note:" in out
    # text mode always carries per-record timings
    assert "s)" in out
    assert "FAIL" not in out


def test_repro_line_carries_a_non_default_budget(capsys, monkeypatch):
    exact = suites.weight_bound_check
    monkeypatch.setattr(suites, "weight_bound_check", lambda p, lam: exact(
        p, lam)._replace(within_bound=False))
    argv = ("verify", "weight-bound", "--n-max", "2", "--primes", "2")
    code, _, err = run_cli(capsys, *argv, "--budget", "1000")
    assert code == 1
    assert "repro: optsl2 verify weight-bound --primes 2 --seed 7 " \
        "--n-max 2 --budget 1000" in err
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert "repro:" in err
    assert "--budget" not in err


def test_orbit_table_text(capsys):
    code, out, _ = run_cli(capsys, "orbit-table", "--n", "5", "--p", "3")
    assert code == 0
    assert "(3, 2)" in out
    assert "(1, 1, 1, 1, 1)" in out
    assert "partition" in out


def test_orbit_table_json(capsys):
    code, out, _ = run_cli(capsys, "orbit-table", "--n", "5", "--p", "3",
                           "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["schema"] == 1
    assert len(obj["rows"]) == len(list(partitions_of(5)))
    row = next(r for r in obj["rows"] if r["partition"] == [3, 2])
    assert row["dim_c"] == 9
    assert row["parabolic_block_type"] == [1, 1, 1, 1, 1]
    assert run_cli(capsys, "orbit-table", "--n", "13", "--p", "2")[0] == 2


@pytest.mark.parametrize("n", ["0", "-1"])
def test_orbit_table_rejects_n_below_one(capsys, n):
    code, out, err = run_cli(capsys, "orbit-table", "--n", n, "--p", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_tilt_goldens(capsys):
    code, out, _ = run_cli(capsys, "tilt", "--partition", "2", "--p", "2",
                           "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["decomposition"]["summands"] == ["T(2)"]
    assert obj["certified"] is True
    assert obj["fix_p"] == obj["fix_0"] == 2

    code, out, _ = run_cli(capsys, "tilt", "--partition", "3", "--p", "3")
    assert code == 0
    assert "T(4) + L(2)" in out
    assert "certified tilting: yes" in out


def test_tilt_inadmissible_partition_is_a_usage_error(capsys):
    code, _, err = run_cli(capsys, "tilt", "--partition", "3", "--p", "2")
    assert code == 2
    assert "error" in err


def test_optimal_build(capsys):
    code, out, _ = run_cli(capsys, "optimal", "build", "--partition", "2,1",
                           "--p", "3", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["verified"] is True
    assert obj["witness"]["torus_weights"] == [1, -1, 0]
    assert all(obj["witness"][k] for k in
               ("dx_matches", "triple_brackets", "torus_associated",
                "exp_aligned", "multiplicative"))


def test_optimal_conjugacy(capsys):
    code, out, _ = run_cli(capsys, "optimal", "conjugacy", "--n", "3",
                           "--p", "2", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert [r["instance"]["partition"] for r in obj["records"]] == \
        [[2, 1], [1, 1, 1]]
    for r in obj["records"]:
        assert r["claim"] == "radical-conjugator-unique"
        assert r["verified"] is True
        assert r["witness"]["twists"] == 1
        assert r["witness"]["failure"] is None
    code, out, _ = run_cli(capsys, "optimal", "conjugacy", "--n", "4",
                           "--p", "3", "--budget", "10")
    assert code == 0
    assert out.count("skip radical-conjugator-unique") == 3
    # each skip says why
    assert out.count("witness: {'budget_exceeded': ") == 3
    code, _, err = run_cli(capsys, "optimal", "conjugacy", "--n", "0",
                           "--p", "2")
    assert code == 2
    assert err == "error: --n must be at least 1, got 0\n"


def test_a_raising_check_is_one_falsified_conjugacy_record(capsys,
                                                           monkeypatch):
    argv = ("optimal", "conjugacy", "--n", "3", "--p", "2",
            "--format", "json")
    clean = json.loads(run_cli(capsys, *argv)[1])["records"]
    exact = suites.radical_dim

    def raising(lam):
        if lam == (2, 1):
            raise InconsistencyError("planted")
        return exact(lam)

    monkeypatch.setattr(suites, "radical_dim", raising)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 1
    planted = json.loads(out)["records"]
    assert [r["instance"]["partition"] for r in planted] == [[2, 1],
                                                            [1, 1, 1]]
    assert planted[0] == dict(clean[0], witness={"error": "planted"},
                              verified=False)
    assert planted[1] == clean[1]


def test_optimal_gcr(capsys):
    code, out, _ = run_cli(capsys, "optimal", "gcr", "--partition", "2",
                           "--p", "2", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["verified"] is True
    assert obj["witness"]["subspaces"] == 5


def test_optimal_gcr_past_the_budget_is_a_skip(capsys):
    """F_2^2 has 5 subspaces, more than a budget of 3: the record is a
    skip in both formats, the text names the reason, and the exit
    status is 0, as for a skipped conjugacy record."""
    argv = ("optimal", "gcr", "--partition", "2", "--p", "2",
            "--budget", "3")
    reason = "walk of 5 candidates exceeds budget 3"
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    obj = json.loads(out)
    assert obj["verified"] is None
    assert obj["witness"] == {"budget_exceeded": reason}
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert "  budget_exceeded: %s\n" % reason in out
    assert "semisimple: None" in out


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_budget_below_one_is_a_usage_error(capsys, budget):
    # with no candidate admitted every group check would be a skip
    for argv in (("verify", "centralizer"),
                 ("optimal", "conjugacy", "--n", "2", "--p", "2"),
                 ("optimal", "gcr", "--partition", "2", "--p", "2")):
        code, out, err = run_cli(capsys, *argv, "--budget", budget)
        assert code == 2, argv
        assert out == ""
        assert "budget must be at least 1, got %s" % budget in err


def test_springer_subcommand(capsys):
    code, out, _ = run_cli(capsys, "springer", "--p", "3",
                           "--partition", "2,1", "--a", "1,2",
                           "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["verified"] is True
    assert obj["witness"]["roundtrip"] is True
    assert obj["witness"]["partition_preserved"] is True

    code, out, _ = run_cli(capsys, "springer", "--q", "--partition", "3",
                           "--a", "1/2,1/3")
    assert code == 0
    assert "round trip: True" in out

    code, _, err = run_cli(capsys, "springer", "--p", "3",
                           "--partition", "2,1", "--a", "1")
    assert code == 2
    assert "coefficients" in err

    code, _, err = run_cli(capsys, "springer", "--p", "3",
                           "--partition", "2", "--a", "x")
    assert code == 2
    assert "--a" in err


def test_springer_needs_exactly_one_field(capsys):
    for field in (("--p", "3", "--q"), ()):
        with pytest.raises(SystemExit) as exc:
            main(["springer", *field, "--partition", "2", "--a", "1"])
        assert exc.value.code == 2, field
        assert "--p" in capsys.readouterr().err


def test_optimal_build_draws_from_its_seed(capsys, monkeypatch):
    states = []
    exact = cli.verify_optimal

    def recording(phi, X, rnd):
        states.append(rnd.getstate())
        return exact(phi, X, rnd)

    def draws(rnd):
        return [rnd.random() for _ in range(5)]

    monkeypatch.setattr(cli, "verify_optimal", recording)
    argv = ("optimal", "build", "--partition", "2,1", "--p", "3")
    assert run_cli(capsys, *argv, "--seed", "11")[0] == 0
    assert run_cli(capsys, *argv)[0] == 0
    captured = []
    for state in states:
        rnd = random.Random()
        rnd.setstate(state)
        captured.append(draws(rnd))
    assert captured == [draws(random.Random(11)),
                        draws(random.Random(DEFAULT_SEED))]


# Each subcommand's options: the shared --format, --seed and --budget
# only where the command reads them, plus its own.
SUBCOMMAND_OPTIONS = {
    "verify": {"--format", "--seed", "--budget", "--n-max", "--primes",
               "--timings"},
    "optimal conjugacy": {"--format", "--seed", "--budget", "--n", "--p"},
    "optimal build": {"--format", "--seed", "--partition", "--p"},
    "optimal gcr": {"--format", "--budget", "--partition", "--p"},
    "orbit-table": {"--format", "--n", "--p"},
    "tilt": {"--format", "--partition", "--p"},
    "springer": {"--format", "--partition", "--p", "--q", "--a"},
}


def _leaf_parsers(parser, prefix=()):
    """(command words, parser) for every subcommand that runs."""
    subs = [a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield " ".join(prefix), parser
    for action in subs:
        for name, child in action.choices.items():
            yield from _leaf_parsers(child, prefix + (name,))


def test_each_subcommand_takes_only_the_options_it_reads():
    options = {name: {o for a in p._actions for o in a.option_strings}
               - {"-h", "--help"}
               for name, p in _leaf_parsers(cli._build_parser())}
    assert options == SUBCOMMAND_OPTIONS
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```\n", 2)[1]
    named = set()
    for line in block.splitlines():
        words = line.split()[1:]
        two = " ".join(words[:2])
        named.add(two if two in options else words[0])
    assert named == set(options)


def test_exit_codes(capsys):
    # invalid prime in the grid: usage error
    code, _, err = run_cli(capsys, "verify", "epsilon", "--primes", "9")
    assert code == 2
    assert "error" in err
    # walks past the budget are skipped records, and the run goes on
    code, out, err = run_cli(capsys, "verify", "gcr", "--n-max", "2",
                             "--primes", "2", "--budget", "3")
    assert code == 0
    assert err == ""
    assert "summary: 4 instances, 1 verified, 0 falsified, 3 skipped" in out
    assert out.count("witness: {'budget_exceeded': ") == 3
    # a grid that checks nothing, or checks an instance twice
    for argv in (("epsilon", "--n-max", "0"), ("untwist", "--primes", "3,3")):
        code, _, err = run_cli(capsys, "verify", *argv)
        assert code == 2
        assert "error" in err
    # unknown suite is rejected by argparse itself
    with pytest.raises(SystemExit) as exc:
        main(["verify", "frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()


# -- cold start and report types ----------------------------------------

def test_import_leaves_dataclasses_and_inspect_unloaded():
    """A fresh `optsl2 verify` pays for what `import optsl2` loads; the
    report types are NamedTuples, so neither dataclasses nor the
    inspect module it pulls in is loaded."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); "
             "import optsl2, optsl2.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-I", "-c", probe, src],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_report_fields_cannot_be_assigned():
    """Every report type is immutable: assigning a field raises
    AttributeError (FrozenInstanceError, for the types that were frozen
    dataclasses, subclasses it)."""
    dom = Fp(3)
    X = rep_from_partition(dom, (2, 1))
    phi = build_optimal(X)
    u = Mat.identity(dom, 3) + X
    trivial = Cocharacter.diagonal(dom, (0, 0, 0))  # P(trivial) = GL_3
    ca = SpringerCoeffs(dom, (1, 0))
    report = run_suite("gcr", n_max=1, primes=(2,))
    desc = adjoint_descriptor((2, 1), 3)
    reports = [
        distinguished_check(phi.psi), nilpotent_jordan(X),
        associated_cocharacter(X), instability_parabolic(X),
        centralizer_report(X), order_formula_report(3, (2, 1)),
        weight_bound_check(3, (2, 1)), d_hom(phi), verify_optimal(phi, X),
        exp_centralizer_check(X), hom_centralizer_check(phi),
        levi_containment_check(phi),
        verify_limit(deform_to_levi(phi, trivial)), gcr_check_hom(phi),
        orbit_bijection_check(ca, ca, u),
        desc, tilting_decompose(desc, 3), report, report.records[0],
        suites._SUITES["gcr"],
    ]
    assert len({type(r) for r in reports}) == len(reports) == 20
    for r in reports:
        field = next(iter(type(r).__annotations__))
        with pytest.raises(AttributeError):
            setattr(r, field, getattr(r, field))
