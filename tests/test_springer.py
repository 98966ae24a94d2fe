import itertools
import random
from fractions import Fraction

import pytest

from optsl2 import matrices, springer
from optsl2.errors import DomainError, PreconditionError
from optsl2.jordan import jordan_block
from optsl2.matrices import (Mat, commutes, inverse, lin_comb,
                             random_invertible)
from optsl2.orbits import rep_from_partition
from optsl2.partitions import partitions_of
from optsl2.scalars import Fp, QQ
from optsl2.suites import _random_additive, run_suite
from optsl2.springer import (AdditiveHom, SpringerCoeffs, additive_derivative,
                             additive_eval, additive_untwist, eps_exp,
                             eps_log, orbit_bijection_check, reversion,
                             springer_apply, springer_coeffs_from_value,
                             springer_invert)

F2 = Fp(2)
F3 = Fp(3)
F5 = Fp(5)


def test_coeffs_validation():
    c = SpringerCoeffs(QQ, (1, "1/2"))
    assert c.n == 3
    assert SpringerCoeffs(F3, ()).n == 1
    with pytest.raises(DomainError):
        SpringerCoeffs(F3, (0, 1))


def test_apply_known_value_and_equivariance():
    rnd = random.Random(31)
    c = SpringerCoeffs(QQ, (1, "1/2"))
    e = jordan_block(QQ, 3)
    u = Mat.identity(QQ, 3) + e
    f = springer_apply(c, u)
    assert f == e + (e * e).scale(QQ.of("1/2"))
    g = random_invertible(QQ, 3, rnd, bound=3)
    assert springer_apply(c, g * u * inverse(g)) == g * f * inverse(g)


def test_apply_rejects_bad_input():
    c = SpringerCoeffs(F3, (1, 1))
    with pytest.raises(PreconditionError):
        springer_apply(c, Mat.diagonal(F3, [1, 2, 1]))
    with pytest.raises(DomainError):
        springer_apply(c, Mat.identity(F3, 2))


def test_reversion_catalan_pattern():
    # inverse of t + t^2 starts t - t^2 + 2t^3 - 5t^4 (signed Catalans)
    b = reversion(SpringerCoeffs(QQ, (1, 1, 0, 0)), 5)
    assert b == (1, -1, 2, -5)


def _compose_reference(f, g, d, trunc):
    """f(g(t)) mod t^trunc by Horner's rule on truncated products."""
    result = [d.zero()] * trunc
    for c in reversed(f):
        prod = [d.zero()] * trunc
        for i, ri in enumerate(result):
            for j, gj in enumerate(g[:trunc - i]):
                prod[i + j] = d.add(prod[i + j], d.mul(ri, gj))
        prod[0] = d.add(prod[0], c)
        result = prod
    return result


def _reversion_reference(coeffs, trunc):
    """Series reversion that recomposes f(g) mod t^(k+1) for each k."""
    d = coeffs.domain
    f = [d.zero()] + list(coeffs.a)
    a1_inv = d.inv(coeffs.a[0])
    g = ([d.zero(), a1_inv] + [d.zero()] * max(0, trunc - 2))[:trunc]
    for k in range(2, trunc):
        comp = _compose_reference(f, g, d, k + 1)
        g[k] = d.neg(d.mul(comp[k], a1_inv))
    return tuple(g[1:])


def test_reversion_matches_recomposition_reference():
    rnd = random.Random(49)
    for _ in range(120):
        n = rnd.randint(2, 9)
        trunc = rnd.choice([1, max(1, n - 2), n, n, n + 2])
        if rnd.random() < 0.5:
            dom = Fp(rnd.choice([2, 3, 5, 7, 11]))
            a = ([rnd.randrange(1, dom.p)]
                 + [rnd.randrange(dom.p) for _ in range(n - 2)])
        else:
            dom = QQ
            a = ([rnd.choice([1, -1, 2, "1/2", "-3/5"])]
                 + [Fraction(rnd.randint(-4, 4), rnd.randint(1, 3))
                    for _ in range(n - 2)])
        coeffs = SpringerCoeffs(dom, a)
        b = reversion(coeffs, trunc)
        assert b == _reversion_reference(coeffs, trunc)
        assert len(b) == max(0, trunc - 1)
        f = [dom.zero()] + list(coeffs.a)
        assert _compose_reference(f, [dom.zero()] + list(b), dom, trunc) \
            == [dom.of(int(k == 1)) for k in range(trunc)]


def test_invert_round_trips():
    rnd = random.Random(32)
    systems = {
        F2: [(1,), (1, 1), (1, 0, 1)],
        F3: [(1,), (2, 1), (1, 2, 1)],
        QQ: [(1,), (1, "1/2"), (2, 0, "1/3")],
    }
    for dom, coeff_lists in systems.items():
        for a in coeff_lists:
            n = len(a) + 1
            c = SpringerCoeffs(dom, a)
            for lam in partitions_of(n):
                g = random_invertible(dom, n, rnd, bound=2)
                X = g * rep_from_partition(dom, lam) * inverse(g)
                u = springer_invert(c, X)
                assert springer_apply(c, u) == X
                assert springer_invert(c, springer_apply(c, u)) == u
    assert springer_invert(SpringerCoeffs(F2, ()),
                           Mat.zero(F2, 1, 1)) == Mat.identity(F2, 1)


def test_invert_rejects_non_nilpotent():
    with pytest.raises(PreconditionError):
        springer_invert(SpringerCoeffs(F3, (1,)), Mat.identity(F3, 2))


def test_orbit_bijection_two_systems_agree():
    rnd = random.Random(33)
    ca = SpringerCoeffs(F3, (1, 2, 0))
    cb = SpringerCoeffs(F3, (2, 1, 1))
    for lam in partitions_of(4):
        g = random_invertible(F3, 4, rnd, bound=2)
        u = Mat.identity(F3, 4) + g * rep_from_partition(F3, lam) * inverse(g)
        rep = orbit_bijection_check(ca, cb, u)
        assert rep.partitions_agree
        assert rep.partition_u == lam


def test_eps_exp_log_round_trip():
    rnd = random.Random(34)
    for dom, n in ((F2, 4), (F3, 5), (F5, 4), (QQ, 4)):
        for lam in partitions_of(n):
            g = random_invertible(dom, n, rnd, bound=2)
            X = g * rep_from_partition(dom, lam) * inverse(g)
            if dom is not QQ and lam[0] > dom.p:
                with pytest.raises(PreconditionError):
                    eps_exp(X)
                continue
            u = eps_exp(X)
            assert eps_log(u) == X
            assert eps_exp(eps_log(u)) == u


def test_eps_exp_known_values():
    e = jordan_block(QQ, 4)
    u = eps_exp(e)
    assert u[0, 1] == 1 and u[0, 2] == QQ.of("1/2") and u[0, 3] == QQ.of("1/6")
    # over F_5 a chain of length 4 is fine and 1/3! = inv(6) = inv(1) = 1
    u5 = eps_exp(jordan_block(F5, 4))
    assert u5[0, 3] == F5.inv(F5.of(6))


def test_eps_exp_is_additive_in_the_parameter():
    for p, lam in ((2, (2, 2)), (3, (3, 1)), (5, (4,))):
        dom = Fp(p)
        X = rep_from_partition(dom, lam)
        for s in range(p):
            for t in range(p):
                lhs = eps_exp(X.scale(s)) * eps_exp(X.scale(t))
                assert lhs == eps_exp(X.scale((s + t) % p))


def test_additive_hom_validation():
    N = jordan_block(F3, 3)
    AdditiveHom(F3, (N, N * N))
    with pytest.raises(PreconditionError):
        AdditiveHom(F3, (Mat.unit(F3, 3, 3, 0, 1), Mat.unit(F3, 3, 3, 1, 0)))
    with pytest.raises(PreconditionError):
        AdditiveHom(F2, (jordan_block(F2, 3),))
    with pytest.raises(DomainError):
        AdditiveHom(F3, ())


def _ref_additive_check(domain, coeffs):
    """The earlier length-p test of AdditiveHom: every product over
    combinations_with_replacement, each from scratch, after the commute
    check."""
    for A, B in itertools.combinations(coeffs, 2):
        if not commutes(A, B):
            raise PreconditionError("coefficients do not commute")
    for combo in itertools.combinations_with_replacement(
            range(len(coeffs)), domain.p):
        prod = coeffs[combo[0]]
        for i in combo[1:]:
            prod = prod * coeffs[i]
        if not prod.is_zero():
            raise PreconditionError(
                "length-%d product of coefficients is nonzero" % domain.p)


def _check_outcome(check, *args):
    try:
        check(*args)
    except PreconditionError as exc:
        return str(exc)
    return "ok"


def _polynomial_family(dom, n, rnd):
    """Leading zeros, then constant-free polynomials in one regular
    nilpotent of size n (n > p, so some length-p products survive)."""
    N = jordan_block(dom, n)
    powers = [N ** k for k in range(1, n)]
    zeros = [Mat.zero(dom, n)] * rnd.randint(0, 2)
    coeffs = [lin_comb(Mat.zero(dom, n),
                       [rnd.randrange(dom.p) if rnd.random() < 0.6 else 0
                        for _ in powers], powers)
              for _ in range(rnd.randint(1, 3))]
    return zeros + coeffs


def test_length_p_products_match_the_full_enumeration():
    """The level-by-level products over shared prefixes accept and reject
    exactly the families the full enumeration does, with its message:
    seeded _random_additive families (some with leading zero
    coefficients) and polynomial families in a nilpotent of index > p."""
    outcomes = set()
    leading_zeros = 0
    for p in (2, 3, 5, 7):
        dom = Fp(p)
        rnd = random.Random(100 + p)
        families = []
        for _ in range(15):
            h, r = _random_additive(dom, rnd)
            leading_zeros += r > 0
            families.append(h.coeffs)
        families += [_polynomial_family(dom, rnd.choice((p + 1, p + 2)), rnd)
                     for _ in range(15)]
        for coeffs in families:
            want = _check_outcome(_ref_additive_check, dom, coeffs)
            got = _check_outcome(AdditiveHom, dom, coeffs)
            assert got == want, (p, coeffs)
            outcomes.add(want)
    assert leading_zeros > 0
    assert "ok" in outcomes and len(outcomes) > 1


def test_mixed_length_p_product_is_rejected():
    """Multiplication by x and by y on F_2[x, y]/(x^2, y^2), basis
    1, x, y, xy: the squares vanish, the only nonzero length-2 product
    is xy, and both routes reject the pair."""
    def mult(images):  # column j is the image of basis vector j
        return Mat(F2, 4, 4, [1 if images[j] == i else 0
                              for i in range(4) for j in range(4)])

    x = mult([1, None, 3, None])
    y = mult([2, 3, None, None])
    assert commutes(x, y) and (x * x).is_zero() and (y * y).is_zero()
    assert not (x * y).is_zero()
    AdditiveHom(F2, (x,))
    AdditiveHom(F2, (y,))
    for check in (AdditiveHom, _ref_additive_check):
        with pytest.raises(PreconditionError,
                           match="length-2 product of coefficients"):
            check(F2, (x, y))


def test_additive_eval_is_a_homomorphism():
    N = jordan_block(F3, 3)
    h = AdditiveHom(F3, (N, N * N))
    for s in range(3):
        for t in range(3):
            assert (additive_eval(h, s) * additive_eval(h, t)
                    == additive_eval(h, (s + t) % 3))
    assert additive_eval(h, 0) == Mat.identity(F3, 3)


def test_additive_eval_makes_one_product_per_further_factor(monkeypatch):
    """h(s) is the product of its k factors eps(s^(p^i) X_i), started at
    the first: k - 1 products, not k from an identity start.  The
    factors are looked up, so only additive_eval's own products count;
    the values are the literal products."""
    rnd = random.Random(31)
    cases = []
    for p in (2, 3, 5):
        dom = Fp(p)
        for _ in range(6):
            h, _ = _random_additive(dom, rnd)
            for s in range(p):
                factors = [eps_exp(X.scale(pow(s, p ** i, p)))
                           for i, X in enumerate(h.coeffs)]
                want = Mat.identity(dom, h.n)
                for f in factors:
                    want = want * f
                cases.append((h, s, factors, want))
    exps = {}
    for h, s, factors, _ in cases:
        for i, X in enumerate(h.coeffs):
            exps[X.scale(pow(s, h.domain.p ** i, h.domain.p))] = factors[i]
    products = []
    exact = Mat.__mul__

    def counted(a, b):
        products.append(1)
        return exact(a, b)

    monkeypatch.setattr(springer, "eps_exp", exps.__getitem__)
    monkeypatch.setattr(Mat, "__mul__", counted)
    for h, s, factors, want in cases:
        products.clear()
        assert additive_eval(h, s) == want
        assert len(products) == len(h.coeffs) - 1
    assert {len(h.coeffs) for h, *_ in cases} >= {1, 2, 3}


def test_commuting_coefficients_compile_no_intertwiner_forms(monkeypatch):
    """commutes compares the two products, so AdditiveHom compiles no
    intertwiner forms: with intertwiner_forms made to raise, additive
    homomorphisms on commuting coefficients build and evaluate, a
    non-commuting pair is still rejected, and a small untwist run stays
    verified."""
    def no_forms(A, B):
        raise AssertionError("intertwiner_forms compiled")

    monkeypatch.setattr(matrices, "intertwiner_forms", no_forms)
    N = jordan_block(F3, 3)
    h = AdditiveHom(F3, (N, N * N, Mat.zero(F3, 3, 3)))
    assert additive_eval(h, 1) * additive_eval(h, 2) == Mat.identity(F3, 3)
    with pytest.raises(PreconditionError):
        AdditiveHom(F3, (Mat.unit(F3, 3, 3, 0, 1), Mat.unit(F3, 3, 3, 1, 0)))
    records = run_suite("untwist", primes=(2, 3)).records
    assert len(records) == 200 and all(r.verified for r in records)


def test_additive_untwist_strips_frobenius_twists():
    N = jordan_block(F5, 2)
    Z = Mat.zero(F5, 2, 2)
    h = AdditiveHom(F5, (Z, Z, N))
    core, r = additive_untwist(h)
    assert r == 2
    assert not additive_derivative(core).is_zero()
    assert additive_derivative(h).is_zero()
    # untwisting matches precomposition with Frobenius: h(s) = core(s^(p^r))
    for s in range(5):
        assert additive_eval(h, s) == additive_eval(core, pow(s, 5 ** r, 5))
    zero = AdditiveHom(F5, (Z,))
    assert additive_untwist(zero) == (zero, 0)
    plain = AdditiveHom(F5, (N,))
    assert additive_untwist(plain) == (plain, 0)


def test_coeffs_recovered_from_one_regular_value():
    for dom, a in ((QQ, (1, "1/2", 5)), (F5, (2, 0, 3))):
        c = SpringerCoeffs(dom, a)
        u = Mat.identity(dom, 4) + jordan_block(dom, 4)
        X = springer_apply(c, u)
        assert springer_coeffs_from_value(u, X) == c
    with pytest.raises(PreconditionError):
        springer_coeffs_from_value(Mat.identity(F3, 3),
                                   Mat.zero(F3, 3, 3))
