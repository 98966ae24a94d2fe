import random
from fractions import Fraction

import pytest

from optsl2 import cli, cochar, matrices, orbits
from optsl2.cochar import (Cocharacter, ParabolicData, distinguished_check,
                           levi_limit, radical_class)
from optsl2.errors import DomainError, PreconditionError
from optsl2.matrices import (Mat, bracket, hstack, inverse,
                             random_invertible, random_mat, rank, rref)
from optsl2.orbits import is_associated, rep_from_partition
from optsl2.partitions import admissible, partitions_of
from optsl2.scalars import Fp, QQ, integer_numerators
from optsl2.sl2 import OptimalSL2Hom, build_optimal, verify_optimal
from optsl2.suites import run_suite

F2 = Fp(2)
F3 = Fp(3)
F5 = Fp(5)


def test_constructor_validation():
    with pytest.raises(DomainError):
        Cocharacter(Mat.zero(F3, 2, 3), (1, 0))
    with pytest.raises(DomainError):
        Cocharacter(Mat.identity(F3, 2), (1, 0, -1))
    with pytest.raises(DomainError):
        Cocharacter(Mat.zero(F3, 2, 2), (1, 0))


def test_diagonal_values():
    gamma = Cocharacter.diagonal(F5, (2, 0, -1))
    assert gamma.at(2) == Mat.diagonal(F5, [4, 1, 3])
    assert gamma.at(1) == Mat.identity(F5, 3)
    with pytest.raises(DomainError):
        gamma.at(0)
    mu = Cocharacter.diagonal(QQ, (1, -1))
    assert mu.at("1/2") == Mat.diagonal(QQ, ["1/2", 2])


def test_weight_projections_resolve_identity():
    gamma = Cocharacter.diagonal(F3, (1, 1, 0, -2))
    total = Mat.zero(F3, 4, 4)
    for w in sorted(set(gamma.weights)):
        P = gamma.weight_projection(w)
        assert P * P == P
        total = total + P
    assert total == Mat.identity(F3, 4)


def test_equality_is_basis_independent():
    swap = Mat.from_rows(F3, [[0, 1], [1, 0]])
    a = Cocharacter.diagonal(F3, (1, 0))
    b = Cocharacter(swap, (0, 1))
    assert a == b
    assert hash(a) == hash(b)
    assert a != Cocharacter.diagonal(F3, (0, 1))
    assert a != Cocharacter.diagonal(F3, (2, 0))


def test_graded_components_sum_and_multiply():
    rnd = random.Random(4)
    gamma = Cocharacter.diagonal(F5, (2, 0, 0, -1))
    for _ in range(10):
        M = random_mat(F5, 4, 4, rnd)
        comps = gamma.components(M)
        total = Mat.zero(F5, 4, 4)
        for w, part in comps.items():
            assert gamma.component(part, w) == part
            total = total + part
        assert total == M
    # grading respects the bracket: degrees add
    A = gamma.component(random_mat(F5, 4, 4, rnd), 2)
    B = gamma.component(random_mat(F5, 4, 4, rnd), 1)
    C = bracket(A, B)
    assert gamma.component(C, 3) == C


def _piece_basis(gamma, w):
    """Basis matrices of the degree-w graded piece of gl_n: the units of
    degree w in eigenbasis coordinates, carried back to the standard
    basis."""
    n = gamma.n
    return [gamma.from_coords(Mat.unit(gamma.domain, n, n, r, c))
            for r, c in gamma.mask(lambda e: e == w)]


def test_piece_basis_dimensions():
    gamma = Cocharacter.diagonal(QQ, (1, 0, -1))
    pieces = {w: _piece_basis(gamma, w) for w in gamma.ad_weight_values()}
    dims = {w: len(bs) for w, bs in pieces.items()}
    assert dims == {-2: 1, -1: 2, 0: 3, 1: 2, 2: 1}
    assert sum(dims.values()) == 9
    for w, bs in pieces.items():
        assert all(gamma.component(B, w) == B for B in bs)
    assert _piece_basis(gamma, 3) == []


def test_parabolic_membership_and_dims():
    gamma = Cocharacter.diagonal(F3, (1, 0, -1))
    pd = ParabolicData(gamma)
    assert (pd.dim_z, pd.dim_u, pd.dim_p) == (3, 3, 6)
    upper = Mat.from_rows(F3, [[1, 2, 0], [0, 1, 1], [0, 0, 2]])
    lower = Mat.from_rows(F3, [[1, 0, 0], [1, 1, 0], [0, 0, 1]])
    assert pd.contains(upper)
    assert not pd.contains(lower)
    assert pd.contains(Mat.from_rows(F3, [[1, 1, 0], [0, 0, 2], [0, 0, 1]]))
    # dimensions are the sizes of the graded pieces
    pieces = {w: len(_piece_basis(gamma, w))
              for w in gamma.ad_weight_values()}
    assert pd.dim_z == pieces[0]
    assert pd.dim_u == sum(k for w, k in pieces.items() if w > 0)


def test_levi_limit_kills_the_radical():
    gamma = Cocharacter.diagonal(QQ, (1, 1, 0))
    g = Mat.from_rows(QQ, [[2, 1, 5], [0, 1, 7], [0, 0, 3]])
    limit = levi_limit(gamma, g)
    assert limit == Mat.from_rows(QQ, [[2, 1, 0], [0, 1, 0], [0, 0, 3]])
    unip = Mat.from_rows(QQ, [[1, 0, 4], [0, 1, 1], [0, 0, 1]])
    assert levi_limit(gamma, unip) == Mat.identity(QQ, 3)
    with pytest.raises(PreconditionError):
        levi_limit(gamma, Mat.from_rows(QQ, [[1, 0, 0], [0, 1, 0], [1, 0, 1]]))


def test_levi_limit_changes_coordinates_once(monkeypatch):
    gamma = Cocharacter(random_invertible(F5, 3, random.Random(3)),
                        (1, 1, 0))
    g = gamma.from_coords(Mat.from_rows(F5, [[2, 1, 4], [3, 1, 1],
                                             [0, 0, 3]]))
    calls = []
    for name in ("coords", "from_coords"):
        exact = getattr(Cocharacter, name)

        def counted(self, M, name=name, exact=exact):
            calls.append(name)
            return exact(self, M)

        monkeypatch.setattr(Cocharacter, name, counted)
    limit = levi_limit(gamma, g)
    assert sorted(calls) == ["coords", "from_coords"]
    monkeypatch.undo()
    assert limit == gamma.component(g, 0)


def _bases_with_denominators(rnd, n):
    """Seeded rational bases of size n whose inverses carry
    denominators, with entries of their own over small denominators."""
    while True:
        B = random_invertible(QQ, n, rnd, bound=4)
        B = Mat(QQ, n, n, [x / rnd.choice((1, 2, 3, 5)) for x in B.data])
        if any(x.denominator > 1 for x in inverse(B).data):
            return B


def test_compiled_coordinate_change_matches_plain_products():
    """coords and from_coords equal basis_inv * M * basis and
    basis * C * basis_inv over Q and F_2, F_3, F_5, F_7, n <= 6."""
    rnd = random.Random(63)
    for dom in (QQ, F2, F3, F5, Fp(7)):
        for n in range(1, 7):
            for _ in range(3):
                if dom.p is None:
                    B = _bases_with_denominators(rnd, n)
                else:
                    B = random_invertible(dom, n, rnd)
                gamma = Cocharacter(B, [0] * n)
                B_inv = inverse(B)
                M = random_mat(dom, n, n, rnd, bound=5)
                if dom.p is None:
                    M = Mat(QQ, n, n, [x / rnd.randint(1, 9)
                                       for x in M.data])
                for A in (M, Mat.zero(dom, n), Mat.identity(dom, n),
                          Mat.unit(dom, n, n, n - 1, 0)):
                    coords = gamma.coords(A)
                    assert coords == B_inv * A * B
                    assert gamma.from_coords(A) == B * A * B_inv
                    assert gamma.from_coords(coords) == A
                    if dom.p is None:
                        assert all(type(x) is Fraction for x in coords.data)


def test_compiled_coordinate_change_rejects_shape_and_domain():
    gamma = Cocharacter(random_invertible(F3, 3, random.Random(5)),
                        (1, 0, -1))
    wrong = [Mat.zero(F3, 2), Mat.zero(F3, 3, 2), Mat.zero(F3, 2, 3),
             Mat.identity(F5, 3), Mat.identity(QQ, 3)]
    for M in wrong:
        with pytest.raises(DomainError):
            gamma.coords(M)
        with pytest.raises(DomainError):
            gamma.from_coords(M)


def test_planted_dropped_basis_denominator_fails_verify_optimal(
        monkeypatch):
    """Compiling the coordinate change without the common denominator
    of its left factor (the basis for from_coords) makes verify_optimal
    on a seeded rational conjugate stop reporting all_passed."""
    rnd = random.Random(64)
    g = _bases_with_denominators(rnd, 4)
    X = g * rep_from_partition(QQ, (2, 2)) * inverse(g)
    phi = build_optimal(X)
    assert any(x.denominator > 1 for x in phi.conjugator.data)
    assert verify_optimal(phi, X, random.Random(7)).all_passed

    exact = matrices._Sandwich.__init__

    def planted(self, A, B):
        exact(self, A, B)
        self.den //= integer_numerators(A.data)[1]

    monkeypatch.setattr(matrices._Sandwich, "__init__", planted)
    phi = OptimalSL2Hom(phi.block_sizes, phi.conjugator)
    assert not verify_optimal(phi, X, random.Random(7)).all_passed


def test_levi_limit_matches_conjugation_at_values():
    # over Q the limit agrees with gamma(t) g gamma(t)^-1 after the
    # positive-weight entries are scaled down; spot check at t = 1/2
    gamma = Cocharacter.diagonal(QQ, (1, 0))
    g = Mat.from_rows(QQ, [[1, 3], [0, 2]])
    conj = gamma.at("1/2") * g * gamma.at(2)
    assert conj == Mat.from_rows(QQ, [[1, QQ.of("3/2")], [0, 2]])
    assert levi_limit(gamma, g) == Mat.from_rows(QQ, [[1, 0], [0, 2]])


def test_distinguished_check():
    # Borel weights: always a distinguished parabolic
    assert distinguished_check(Cocharacter.diagonal(QQ, (2, 0, -2))).is_distinguished
    assert distinguished_check(Cocharacter.diagonal(F5, (1, 0, -1))).is_distinguished
    # two equal blocks: abelian radical, too small
    rep = distinguished_check(Cocharacter.diagonal(QQ, (1, 1, 0, 0)))
    assert rep.dim_levi == 8
    assert rep.dim_u_mod_comm == 4
    assert not rep.is_distinguished


def test_radical_class():
    for n in range(2, 6):
        gamma = Cocharacter.diagonal(QQ, range(n - 1, -n, -2))
        assert radical_class(gamma) == n - 1
    assert radical_class(Cocharacter.diagonal(F2, (1, 1, 0, 0))) == 1
    assert radical_class(Cocharacter.diagonal(F3, (0, 0))) == 0


# -- the dense route of the parent design, kept as the reference --------

def _dense_component(gamma, M, w):
    B, B_inv = gamma.basis, inverse(gamma.basis)
    C = B_inv * M * B
    n, ws, z = gamma.n, gamma.weights, gamma.domain.zero()
    data = [C[r, c] if ws[r] - ws[c] == w else z
            for r in range(n) for c in range(n)]
    return B * Mat(gamma.domain, n, n, data) * B_inv


def _dense_contains(gamma, g):
    C = inverse(gamma.basis) * g * gamma.basis
    n, ws, z = gamma.n, gamma.weights, gamma.domain.zero()
    return all(C[r, c] == z for r in range(n) for c in range(n)
               if ws[r] < ws[c])


def _dense_u_basis(gamma):
    B, B_inv = gamma.basis, inverse(gamma.basis)
    n, ws = gamma.n, gamma.weights
    return [B * Mat.unit(gamma.domain, n, n, r, c) * B_inv
            for w in gamma.ad_weight_values() if w > 0
            for r in range(n) for c in range(n) if ws[r] - ws[c] == w]


def _spanning_subset(mats):
    """The mats outside the span of those before them: the pivot columns
    of the Gauss-Jordan RREF of their vectorisations side by side."""
    if not mats:
        return []
    _, pivots, _ = rref(hstack([M.vectorize() for M in mats]))
    return [mats[i] for i in pivots]


def _dense_radical_class(gamma):
    layer = full = _dense_u_basis(gamma)
    cls = 0
    while layer:
        cls += 1
        layer = _spanning_subset([bracket(a, b) for a in full
                                  for b in layer])
    return cls


def _dense_distinguished(gamma):
    u_basis = _dense_u_basis(gamma)
    comm = _spanning_subset([bracket(a, b) for a in u_basis
                             for b in u_basis])
    ws = gamma.weights
    dim_levi = sum(1 for a in ws for b in ws if a == b)
    dim_u_mod = len(u_basis) - len(comm)
    return dim_levi, dim_u_mod, dim_levi == dim_u_mod + 1


def _dense_is_associated(psi, Y):
    """The image of the degree-0 piece under [., Y] measured by one full
    elimination of the vectorised dense brackets."""
    if _dense_component(psi, Y, 2) != Y:
        return False
    B, B_inv = psi.basis, inverse(psi.basis)
    n, ws = psi.n, psi.weights
    pieces = {w: [B * Mat.unit(psi.domain, n, n, r, c) * B_inv
                  for r in range(n) for c in range(n)
                  if ws[r] - ws[c] == w] for w in (0, 2)}
    image = hstack([bracket(b, Y).vectorize() for b in pieces[0]])
    return rank(image) == len(pieces[2])


def _random_cochars(rnd):
    """Cocharacters on seeded random bases over F_2, F_3, F_5 and Q,
    n <= 5, with weights drawn with and without repeats."""
    for dom in (F2, F3, F5, QQ):
        for n in range(1, 6):
            for repeats in (False, True):
                if repeats:
                    ws = [rnd.randint(-2, 2) for _ in range(n)]
                else:
                    ws = rnd.sample(range(-4, 5), n)
                yield Cocharacter(random_invertible(dom, n, rnd, bound=3), ws)


def _optimal_cochars(rnd):
    """(build_optimal(X').psi, X') for seeded random
    conjugates X' = g X g^-1 of every admissible partition, n <= 5."""
    for dom in (F2, F3, F5, QQ):
        for n in range(1, 6):
            for lam in partitions_of(n):
                if dom.p is not None and not admissible(lam, dom.p):
                    continue
                g = random_invertible(dom, n, rnd, bound=3)
                X = g * rep_from_partition(dom, lam) * inverse(g)
                yield build_optimal(X).psi, X


def _check_against_dense(gamma, rnd):
    d, n = gamma.domain, gamma.n
    assert radical_class(gamma) == _dense_radical_class(gamma)
    rep = distinguished_check(gamma)
    assert (rep.dim_levi, rep.dim_u_mod_comm, rep.is_distinguished) \
        == _dense_distinguished(gamma)
    pd = ParabolicData(gamma)
    M = random_mat(d, n, n, rnd, bound=3)
    comps = gamma.components(M)
    for w in gamma.ad_weight_values():
        dense = _dense_component(gamma, M, w)
        assert gamma.component(M, w) == dense
        assert comps.get(w, Mat.zero(d, n)) == dense
    # a random matrix, its part of nonnegative degree, and that part
    # plus one unit of the lowest degree (negative unless the weights
    # are all equal)
    in_p = Mat.zero(d, n)
    for w, part in comps.items():
        if w >= 0:
            in_p = in_p + part
    lowest = _piece_basis(gamma, min(gamma.ad_weight_values()))
    candidates = [M, in_p, in_p + lowest[0]]
    for g in candidates:
        assert pd.contains(g) == _dense_contains(gamma, g)
    assert pd.contains(in_p)


def test_grading_matches_dense_reference_on_random_cochars():
    rnd = random.Random(61)
    for gamma in _random_cochars(rnd):
        _check_against_dense(gamma, rnd)


def test_grading_matches_dense_reference_on_optimal_cochars():
    rnd = random.Random(62)
    verdicts_in_degree_2 = set()
    for psi, X in _optimal_cochars(rnd):
        _check_against_dense(psi, rnd)
        d, n = psi.domain, psi.n
        degree_2 = _piece_basis(psi, 2)
        ys = [X, X + Mat.identity(d, n), Mat.zero(d, n)] + degree_2[:1]
        if degree_2:
            ys.append(X + degree_2[-1])
            ys.append(random_mat(d, n, n, rnd, bound=3))
        for Y in ys:
            verdict = is_associated(psi, Y)
            assert verdict == _dense_is_associated(psi, Y), (psi, Y)
            if psi.component(Y, 2) == Y:
                verdicts_in_degree_2.add(verdict)
        assert is_associated(psi, X)
    # degree-2 elements that are and are not associated both occurred
    assert verdicts_in_degree_2 == {True, False}


def test_planted_unit_bracket_fault_disagrees_with_dense(monkeypatch):
    """Dropping the column term of the product-free bracket, C E_rc,
    makes is_associated disagree with the dense oracle."""
    def planted(C, r, c):
        n = C.rows
        v = [0] * (n * n)
        v[r * n:(r + 1) * n] = C.num[c * n:(c + 1) * n]
        return v

    monkeypatch.setattr(orbits, "_unit_bracket", planted)
    rnd = random.Random(62)
    disagreements = 0
    for psi, X in _optimal_cochars(rnd):
        if is_associated(psi, X) != _dense_is_associated(psi, X):
            disagreements += 1
    assert disagreements > 0


def test_planted_radical_series_fault_is_caught(monkeypatch, capsys):
    """Dropping the last term of the lower central series lowers every
    nonzero radical class by one, which the order-formula suite reports
    as falsified records and the CLI as exit status 1."""
    exact = cochar._radical_series
    monkeypatch.setattr(cochar, "_radical_series",
                        lambda weights: exact(weights)[:-1])
    report = run_suite("order-formula")
    assert report.summary["falsified"] > 0
    assert cli.main(["verify", "order-formula"]) == 1
    capsys.readouterr()
