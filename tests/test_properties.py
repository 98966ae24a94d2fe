"""Property tests on generated instances (hypothesis, derandomized so
every run draws the same examples)."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from optsl2.jordan import nilpotent_jordan, nilpotent_partition
from optsl2.matrices import Mat, intertwiner_forms, inverse
from optsl2.orbits import rep_from_partition
from optsl2.partitions import admissible, partitions_of
from optsl2.scalars import Fp, QQ
from optsl2.sl2 import build_optimal, sym_power_rep, verify_optimal
from optsl2.springer import (SpringerCoeffs, eps_exp, eps_log,
                             springer_apply, springer_invert)

PROPERTY = settings(derandomize=True, database=None, max_examples=40,
                    deadline=None)

rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12))
nonzero_rationals = st.builds(Fraction, st.integers(1, 9)
                              .flatmap(lambda a: st.sampled_from((a, -a))),
                              st.integers(1, 12))


def scalars(dom):
    """Strategies for (all, nonzero) values of a domain."""
    if dom.p is not None:
        return st.integers(0, dom.p - 1), st.integers(1, dom.p - 1)
    return rationals, nonzero_rationals


def rational_2x2():
    return st.lists(rationals, min_size=4, max_size=4).map(
        lambda e: Mat(QQ, 2, 2, e))


@st.composite
def invertible(draw, dom, n):
    """A product of elementary matrices 1 + c e_ij (i != j) and an
    invertible diagonal, so invertible by construction."""
    values, units = scalars(dom)
    g = Mat.diagonal(dom, draw(st.lists(units, min_size=n, max_size=n)))
    for _ in range(draw(st.integers(0, 2 * n))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i != j:
            g = g * (Mat.identity(dom, n)
                     + Mat.unit(dom, n, n, i, j).scale(draw(values)))
    return g


@st.composite
def nilpotent_conjugate(draw, dom, n_max):
    """g X g^-1 for X the Jordan form of a random partition; over F_p
    only partitions with parts at most p."""
    n = draw(st.integers(1, n_max))
    lams = [lam for lam in partitions_of(n)
            if dom.p is None or admissible(lam, dom.p)]
    lam = draw(st.sampled_from(lams))
    g = draw(invertible(dom, n))
    return g * rep_from_partition(dom, lam) * inverse(g)


@PROPERTY
@given(st.integers(0, 5), rational_2x2(), rational_2x2())
def test_sym_power_rep_is_multiplicative_on_rationals(m, g, h):
    assert sym_power_rep(m, g * h) == sym_power_rep(m, g) \
        * sym_power_rep(m, h)


@PROPERTY
@given(st.data())
def test_springer_invert_undoes_apply_on_rational_conjugates(data):
    X = data.draw(nilpotent_conjugate(QQ, 5))
    n = X.rows
    a = []
    if n > 1:  # a1 nonzero, then a2 .. a_{n-1}
        a = [data.draw(nonzero_rationals)] + data.draw(
            st.lists(rationals, min_size=n - 2, max_size=n - 2))
    coeffs = SpringerCoeffs(QQ, a)
    u = Mat.identity(QQ, n) + X
    assert springer_invert(coeffs, springer_apply(coeffs, u)) == u


@PROPERTY
@given(st.data(), st.sampled_from([Fp(2), Fp(3), Fp(5)]))
def test_springer_invert_undoes_apply_on_fp_conjugates(data, dom):
    X = data.draw(nilpotent_conjugate(dom, 5))
    n = X.rows
    values, units = scalars(dom)
    a = []
    if n > 1:
        a = [data.draw(units)] + data.draw(
            st.lists(values, min_size=n - 2, max_size=n - 2))
    coeffs = SpringerCoeffs(dom, a)
    u = Mat.identity(dom, n) + X
    assert springer_invert(coeffs, springer_apply(coeffs, u)) == u


@PROPERTY
@given(st.data(), st.sampled_from([Fp(2), Fp(3), Fp(5)]))
def test_build_optimal_passes_verify_optimal_on_fp_conjugates(data, dom):
    """Dense inputs over F_p: a random conjugate of an admissible
    partition (parts at most p), not in Jordan form."""
    X = data.draw(nilpotent_conjugate(dom, 5))
    assert verify_optimal(build_optimal(X), X).all_passed


@PROPERTY
@given(st.data(), st.sampled_from([Fp(2), Fp(3), Fp(5), QQ]))
def test_eps_log_undoes_eps_exp(data, dom):
    X = data.draw(nilpotent_conjugate(dom, 5))
    assert eps_log(eps_exp(X)) == X


@PROPERTY
@given(st.data(), st.sampled_from([Fp(2), Fp(3), Fp(5)]))
def test_partition_of_a_random_fp_conjugate(data, dom):
    """Both routes read the Jordan type of g X g^-1 as that of X, for
    every partition of n <= 5, admissible or not."""
    n = data.draw(st.integers(1, 5))
    lam = data.draw(st.sampled_from(list(partitions_of(n))))
    g = data.draw(invertible(dom, n))
    Y = g * rep_from_partition(dom, lam) * inverse(g)
    assert nilpotent_partition(Y) == lam == nilpotent_jordan(Y).partition


@st.composite
def square(draw, dom, n):
    values, _ = scalars(dom)
    return Mat(dom, n, n, draw(st.lists(values, min_size=n * n,
                                        max_size=n * n)))


@PROPERTY
@given(st.data())
def test_intertwiner_test_matches_products(data):
    dom = data.draw(st.sampled_from((Fp(2), Fp(3), Fp(5), Fp(7), QQ)))
    n = data.draw(st.integers(0, 4))
    A = data.draw(square(dom, n))
    g = data.draw(invertible(dom, n))
    # B = A, a conjugate that g intertwines A with, or unrelated
    B = data.draw(st.sampled_from((A, g * A * inverse(g),
                                   data.draw(square(dom, n)))))
    x = data.draw(st.sampled_from((Mat.zero(dom, n), Mat.identity(dom, n), g,
                                   data.draw(square(dom, n)))))
    # the forms of intertwiner_forms vanish on x exactly when x A == B x
    values = [sum(x.data[t] * c for t, c in form)
              for form in intertwiner_forms(A, B)]
    p = dom.p
    assert (not any(v % p if p else v for v in values)) == (x * A == B * x)
