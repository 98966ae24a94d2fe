"""nilpotent_powers and the series built on it, against the power loops
they replaced.

The reference functions below are the earlier implementations: the
nilpotency and class-bound tests by `Mat.__pow__`, and each series
recomputing the powers of its nilpotent from the identity.  Values and
exception classes must agree on every input, accepted or rejected.
The Jordan type read off the ranks of the powers (nilpotent_partition)
has the chain route's partition (nilpotent_jordan) as its reference.
"""

import random
import sys
from functools import lru_cache

import pytest

from optsl2 import cli
from optsl2 import jordan
from optsl2 import matrices
from optsl2 import springer
from optsl2.errors import (DomainError, InconsistencyError,
                           PreconditionError)
from optsl2.jordan import (jordan_block, nilpotent_jordan,
                           nilpotent_partition, nilpotent_powers)
from optsl2.matrices import (Mat, hstack, inverse, random_invertible,
                             rank_nullspace, rref)
from optsl2.orbits import rep_from_partition
from optsl2.partitions import conjugate, partitions_of
from optsl2.scalars import Fp, FpDomain, QQ
from optsl2.springer import (SpringerCoeffs, eps_exp, eps_log, reversion,
                             springer_apply, springer_invert)
from optsl2.suites import run_suite

DOMAINS = (Fp(2), Fp(3), Fp(5), QQ)


# -- the replaced implementations ----------------------------------------

def _ref_unipotent_part(u):
    if not u.is_square():
        raise DomainError("square matrix expected")
    e = u - Mat.identity(u.domain, u.rows)
    if not (e ** u.rows).is_zero():
        raise PreconditionError("matrix is not unipotent")
    return e


def _ref_series_terms(N):
    d = N.domain
    if not isinstance(d, FpDomain):
        return N.rows
    if not (N ** d.p).is_zero():
        raise PreconditionError("class bound fails")
    return d.p


def _ref_springer_apply(coeffs, u):
    e = _ref_unipotent_part(u)
    if coeffs.n != u.rows:
        raise DomainError("size mismatch")
    d = u.domain
    acc = Mat.zero(d, u.rows)
    power = Mat.identity(d, u.rows)
    for ai in coeffs.a:
        power = power * e
        acc = acc + power.scale(ai)
    return acc


def _ref_springer_invert(coeffs, X):
    if coeffs.n != X.rows:
        raise DomainError("size mismatch")
    if not (X ** X.rows).is_zero():
        raise PreconditionError("matrix is not nilpotent")
    d = X.domain
    n = X.rows
    if n == 1:
        return Mat.identity(d, 1)
    u = Mat.identity(d, n)
    power = Mat.identity(d, n)
    for bk in reversion(coeffs, n):
        power = power * X
        u = u + power.scale(bk)
    if _ref_springer_apply(coeffs, u) != X:
        raise InconsistencyError("inverse image does not map back to X")
    return u


def _ref_eps_exp(X):
    if not X.is_square():
        raise DomainError("square matrix expected")
    d = X.domain
    n = X.rows
    if not (X ** n).is_zero():
        raise PreconditionError("matrix is not nilpotent")
    bound = _ref_series_terms(X)
    acc = Mat.identity(d, n)
    power = Mat.identity(d, n)
    fact = d.one()
    for i in range(1, bound):
        power = power * X
        if power.is_zero():
            break
        fact = d.mul(fact, d.of(i))
        acc = acc + power.scale(d.inv(fact))
    return acc


def _ref_eps_log(u):
    e = _ref_unipotent_part(u)
    d = u.domain
    n = u.rows
    bound = _ref_series_terms(e)
    acc = Mat.zero(d, n)
    power = Mat.identity(d, n)
    for i in range(1, bound):
        power = power * e
        if power.is_zero():
            break
        term = power.scale(d.inv(d.of(i)))
        acc = acc + term if i % 2 == 1 else acc - term
    return acc


def _ref_nilpotent_jordan(X):
    """(partition, basis) by the power loop from the identity and the
    chain extraction that iterates X on each seed."""
    if not X.is_square():
        raise DomainError("square matrix expected")
    n = X.rows
    d = X.domain
    powers = [Mat.identity(d, n)]
    while len(powers) <= n and not powers[-1].is_zero():
        powers.append(powers[-1] * X)
    if not powers[-1].is_zero():
        raise DomainError("matrix is not nilpotent")
    m = len(powers) - 1
    kernels = [[]] + [rank_nullspace(P)[1] for P in powers[1:]]
    nullities = [len(k) for k in kernels]
    lam_conj = tuple(nullities[i] - nullities[i - 1] for i in range(1, m + 1))
    chains = []
    for L in range(m, 0, -1):
        count = lam_conj[L - 1] - (lam_conj[L] if L < m else 0)
        below = list(kernels[L - 1])
        if L < m:
            below += [X * v for v in kernels[L + 1]]
        candidates = below + kernels[L]
        # the seeds are the RREF pivot columns in the ker X^L block
        _, pivots, _ = rref(hstack(candidates))
        for i in [i for i in pivots if i >= len(below)][:count]:
            chain = []
            w = candidates[i]
            for _ in range(L):
                chain.append(w)
                w = X * w
            chains.extend(reversed(chain))
    if n == 0:
        return (), Mat.zero(d, 0, 0)
    return conjugate(lam_conj), hstack(chains)


def _outcome(fn, *args):
    """("ok", value) or ("raises", exception class)."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # the class is what is compared
        return "raises", type(exc)


# -- inputs ---------------------------------------------------------------

def _nilpotent_inputs(dom, rnd):
    """0x0, zeros, regular blocks, conjugates of every partition with
    n <= 5 (regular blocks up to p + 1, so the class bound fails too)."""
    out = [Mat.zero(dom, 0, 0), Mat.zero(dom, 1, 1), Mat.zero(dom, 3, 3)]
    top = 5 if dom is QQ else max(5, dom.p + 1)
    out.extend(jordan_block(dom, d) for d in range(1, top + 1))
    for n in range(1, 6):
        for lam in partitions_of(n):
            g = random_invertible(dom, n, rnd, bound=3)
            out.append(g * rep_from_partition(dom, lam) * inverse(g))
    return out


def _other_inputs(dom):
    """Square matrices that are not nilpotent (the last ones are the
    companion matrices of t^n - 1), and a non-square one."""
    out = [Mat.identity(dom, 1), Mat.diagonal(dom, [1, 0, 0]),
           Mat.identity(dom, 2) + jordan_block(dom, 2), Mat.zero(dom, 2, 3)]
    out.extend(jordan_block(dom, n) + Mat.unit(dom, n, n, n - 1, 0)
               for n in (2, 3, 4))
    return out


def _springer_systems(dom, n, rnd):
    """The systems for size n and, for the size checks, for n + 1."""
    out = []
    for size in (n, n + 1):
        a = [2 if dom.of(2) else 1] + [rnd.randrange(3) for _ in range(size)]
        out.append(SpringerCoeffs(dom, a[:size - 1]))
    return out


@pytest.mark.parametrize("dom", DOMAINS, ids=str)
def test_series_and_jordan_match_the_power_loops(dom):
    rnd = random.Random(41)
    nilpotents = _nilpotent_inputs(dom, rnd)
    others = _other_inputs(dom)
    raised = set()
    for X in nilpotents + others:
        n = X.rows
        u = X + (Mat.identity(dom, n) if X.is_square() else X)
        for new, ref, arg in ((nilpotent_jordan, _ref_nilpotent_jordan, X),
                              (eps_exp, _ref_eps_exp, X),
                              (eps_log, _ref_eps_log, u)):
            got, want = _outcome(new, arg), _outcome(ref, arg)
            if new is nilpotent_jordan and got[0] == "ok":
                got = ("ok", (got[1].partition, got[1].basis))
            assert got == want, (new.__name__, X)
            if got[0] == "raises":
                raised.add((new.__name__, got[1]))
        if n == 0:
            continue
        for c in _springer_systems(dom, n, rnd):
            for new, ref, arg in ((springer_apply, _ref_springer_apply, u),
                                  (springer_invert, _ref_springer_invert, X)):
                got, want = _outcome(new, c, arg), _outcome(ref, c, arg)
                assert got == want, (new.__name__, c, X)
                if got[0] == "raises":
                    raised.add((new.__name__, got[1]))
    # every rejection the functions document did happen on this grid
    assert ("nilpotent_jordan", DomainError) in raised
    for name in ("eps_exp", "eps_log", "springer_apply", "springer_invert"):
        assert (name, PreconditionError) in raised
        assert (name, DomainError) in raised


@pytest.mark.parametrize("dom", DOMAINS, ids=str)
def test_nilpotent_partition_matches_the_jordan_basis_route(dom):
    """The rank route gives the chain route's partition on every
    nilpotent input, and rejects every other input with the DomainError
    of nilpotent_powers, message included."""
    for X in _nilpotent_inputs(dom, random.Random(41)):
        assert nilpotent_partition(X) == nilpotent_jordan(X).partition, X
    for X in _other_inputs(dom):
        with pytest.raises(DomainError) as want:
            nilpotent_powers(X)
        with pytest.raises(DomainError) as got:
            nilpotent_partition(X)
        assert str(got.value) == str(want.value), X


def test_nilpotent_powers_lists_the_nonzero_powers():
    for dom in DOMAINS:
        assert nilpotent_powers(Mat.zero(dom, 0, 0)) == []
        assert nilpotent_powers(Mat.zero(dom, 1, 1)) == []
        assert nilpotent_jordan(Mat.zero(dom, 0, 0)).partition == ()
        for d in range(1, 6):
            e = jordan_block(dom, d)
            assert nilpotent_powers(e) == [e ** i for i in range(1, d)]
        for bad in (Mat.identity(dom, 1), Mat.zero(dom, 2, 3),
                    jordan_block(dom, 3) + Mat.unit(dom, 3, 3, 2, 0)):
            with pytest.raises(DomainError):
                nilpotent_powers(bad)


def _count_products(monkeypatch):
    calls = [0]
    exact = Mat.__mul__

    def counted(a, b):
        calls[0] += 1
        return exact(a, b)

    monkeypatch.setattr(Mat, "__mul__", counted)
    return calls


def test_series_make_one_product_per_power(monkeypatch):
    rnd = random.Random(43)
    cases = []
    for dom in (Fp(5), QQ):
        for n in range(1, 6):
            for lam in partitions_of(n):
                g = random_invertible(dom, n, rnd, bound=3)
                X = g * rep_from_partition(dom, lam) * inverse(g)
                u = Mat.identity(dom, n) + X
                c = SpringerCoeffs(dom, [1] * (n - 1))
                cases.append((lam[0], X, u, c))
    calls = _count_products(monkeypatch)
    for k, X, u, c in cases:
        calls[0] = 0
        eps_exp(X)
        assert calls[0] <= k - 1, ("eps_exp", X)
        calls[0] = 0
        springer_apply(c, u)
        assert calls[0] <= k - 1, ("springer_apply", X)


def test_planted_reversion_fault_is_caught(monkeypatch, capsys):
    """One perturbed coefficient of the series reversion (the top one,
    which only regular orbits see) falsifies the springer records it
    reaches, each with the inconsistency's text, while the other
    records come out as in the clean run and the CLI exits 1."""
    exact = springer.reversion

    def off_by_one(coeffs, trunc):
        b = exact(coeffs, trunc)
        if not b:
            return b
        d = coeffs.domain
        return b[:-1] + (d.add(b[-1], d.one()),)

    clean = run_suite("springer", n_max=3, primes=(3,)).records
    monkeypatch.setattr(springer, "reversion", off_by_one)
    planted = run_suite("springer", n_max=3, primes=(3,)).records
    assert [r.instance for r in planted] == [r.instance for r in clean]
    falsified = [r.instance["partition"] for r in planted
                 if r.verified is False]
    assert falsified == [[2], [3]]
    for r, c in zip(planted, clean):
        if r.instance["partition"] in falsified:
            assert r.witness == {"error": "inverse image does not map "
                                          "back to X"}
        else:
            assert r == c
    assert cli.main(["verify", "springer", "--n-max", "3",
                     "--primes", "3"]) == 1
    err = capsys.readouterr().err
    assert "repro: optsl2 verify springer --primes 3 --seed 7 --n-max 3" \
        in err


def _count_jordan_bases(monkeypatch):
    """Count nilpotent_jordan calls through every binding of it in the
    package."""
    calls = [0]
    exact = jordan.nilpotent_jordan

    def counted(X):
        calls[0] += 1
        return exact(X)

    for name, module in list(sys.modules.items()):
        if (name == "optsl2" or name.startswith("optsl2.")) and \
                getattr(module, "nilpotent_jordan", None) is exact:
            monkeypatch.setattr(module, "nilpotent_jordan", counted)
    return calls


def test_planted_partition_fault_is_caught(monkeypatch, capsys):
    """nilpotent_partition without its final conjugate(...) returns the
    conjugate type lam', which falsifies exactly the springer records of
    the partitions that are not self-conjugate, and the CLI exits 1.  The
    suite reads every partition off ranks: no Jordan basis is built."""
    calls = _count_jordan_bases(monkeypatch)
    clean = run_suite("springer", n_max=3, primes=(3,)).records
    assert calls[0] == 0
    assert all(r.verified for r in clean)
    monkeypatch.setattr(jordan, "conjugate", tuple)
    planted = run_suite("springer", n_max=3, primes=(3,)).records
    assert calls[0] == 0
    assert [r.instance for r in planted] == [r.instance for r in clean]
    falsified = [r.instance["partition"] for r in planted
                 if r.verified is False]
    assert falsified == [[2], [1, 1], [3], [1, 1, 1]]
    for r, c in zip(planted, clean):
        if r.instance["partition"] in falsified:
            assert r.witness["failure"] == "orbit map moved the partition"
        else:
            assert r == c
    assert cli.main(["verify", "springer", "--n-max", "3",
                     "--primes", "3"]) == 1
    assert calls[0] == 0
    err = capsys.readouterr().err
    assert "repro: optsl2 verify springer --primes 3 --seed 7 --n-max 3" \
        in err


# -- the memo of nilpotent_powers ------------------------------------------

def _ref_powers(N):
    """The uncached product chain: N, N^2, ... while nonzero, DomainError
    when N is not square or N^n != 0."""
    if not N.is_square():
        raise DomainError("square matrix expected")
    powers = []
    power = N
    while not power.is_zero():
        if len(powers) == N.rows - 1:
            raise DomainError("matrix is not nilpotent")
        powers.append(power)
        power = power * N
    return powers


@pytest.mark.parametrize("dom", DOMAINS, ids=str)
def test_memoised_powers_match_the_product_chain(dom):
    """Repeated calls on random conjugates, in an order that revisits
    values after others have been cached, give the reference list; a
    list a caller mutates does not reach the next call."""
    inputs = _nilpotent_inputs(dom, random.Random(47))
    for X in inputs + inputs[::-1] + inputs:
        assert nilpotent_powers(X) == _ref_powers(X), X
    for X in inputs:
        got = nilpotent_powers(X)
        got.append(Mat.identity(dom, X.rows))
        if got[:-1]:
            got[0] = Mat.zero(dom, X.rows)
        assert nilpotent_powers(X) == _ref_powers(X), X


@pytest.mark.parametrize("dom", DOMAINS, ids=str)
def test_rejected_inputs_raise_on_every_call(dom):
    for X in _other_inputs(dom):
        for _ in range(3):
            with pytest.raises(DomainError):
                nilpotent_powers(X)


def test_equal_residues_over_different_primes_do_not_share_an_entry():
    """J = all ones (2x2) squares to 2J: nilpotent over F_2, not over F_3;
    whichever field is asked first, the other gets its own answer."""
    ones = [[1, 1], [1, 1]]
    for first, second in ((Fp(2), Fp(3)), (Fp(3), Fp(2))):
        jordan._nilpotent_powers.cache_clear()
        for dom in (first, second, first, second):
            J = Mat.from_rows(dom, ones)
            if dom.p == 2:
                got = nilpotent_powers(J)
                assert got == [J] and got[0].domain == dom
            else:
                with pytest.raises(DomainError):
                    nilpotent_powers(J)


def test_powers_cache_stays_within_its_fixed_bound():
    bound = jordan._POWERS_CACHE_SIZE
    cache = jordan._nilpotent_powers
    assert cache.cache_info().maxsize == bound
    cache.cache_clear()
    rnd = random.Random(53)
    for k in range(3 * bound):
        dom = DOMAINS[k % len(DOMAINS)]
        g = random_invertible(dom, 3, rnd, bound=3)
        nilpotent_powers(g * jordan_block(dom, 3) * inverse(g))
        assert cache.cache_info().currsize <= bound
    assert cache.cache_info().currsize == bound


# -- the memo of nilpotent_partition ---------------------------------------

@pytest.mark.parametrize("dom", DOMAINS, ids=str)
def test_memoised_partitions_match_the_jordan_basis_route(dom):
    """Repeated calls, in an order that revisits values after others
    have been cached, give the chain route's partition; rejected inputs
    raise on every call; the memo keeps at most _POWERS_CACHE_SIZE
    entries, and clear_memos empties it and the powers memo."""
    inputs = _nilpotent_inputs(dom, random.Random(59))
    want = {X: nilpotent_jordan(X).partition for X in inputs}
    for X in inputs + inputs[::-1] + inputs:
        assert nilpotent_partition(X) == want[X], X
    for X in _other_inputs(dom):
        for _ in range(3):
            with pytest.raises(DomainError):
                nilpotent_partition(X)
    memos = (jordan._nilpotent_powers, jordan._nilpotent_partition)
    for memo in memos:
        info = memo.cache_info()
        assert info.maxsize == info.currsize == jordan._POWERS_CACHE_SIZE
    jordan.clear_memos()
    assert [memo.cache_info().currsize for memo in memos] == [0, 0]


def _count_partitions_and_ranks(monkeypatch):
    """[computations behind the nilpotent_partition memo, rank calls]:
    the memo is replaced by one of the same size around a counted copy
    of the computation, and rank is counted through every binding of it
    in the package."""
    calls = [0, 0]
    compute = jordan._nilpotent_partition.__wrapped__
    exact_rank = matrices.rank

    def computed(N):
        calls[0] += 1
        return compute(N)

    def counted_rank(M):
        calls[1] += 1
        return exact_rank(M)

    monkeypatch.setattr(jordan, "_nilpotent_partition",
                        lru_cache(maxsize=jordan._POWERS_CACHE_SIZE)(computed))
    for name, module in list(sys.modules.items()):
        if (name == "optsl2" or name.startswith("optsl2.")) and \
                getattr(module, "rank", None) is exact_rank:
            monkeypatch.setattr(module, "rank", counted_rank)
    return calls


def test_springer_partitions_are_computed_once_per_instance(monkeypatch):
    """The seed-7 springer suite on n <= 4 over F_3 reads 660 Jordan
    types (three per coefficient pair) in 40 computations and 503 rank
    calls; without the memo it would take 660 and 1083.  The counts are
    the same after the suite's second instance has run alone just
    before, whose memo entries the full run would start from if the
    memos were not emptied when each instance starts."""
    calls = _count_partitions_and_ranks(monkeypatch)
    for warm in (None, [2]):
        if warm is not None:
            run_suite("springer", n_max=4, primes=(3,),
                      only=lambda i: i["partition"] == warm)
        calls[:] = [0, 0]
        records = run_suite("springer", n_max=4, primes=(3,)).records
        assert len(records) == 11 and all(r.verified for r in records)
        assert calls == [40, 503]
