"""Cocharacters of GL_n, the gradings they induce on gl_n, and the
attached parabolic data.

A cocharacter is stored as an eigenbasis (columns of an invertible
matrix B) together with integer weights.  The grading it induces is a
mask on eigenbasis coordinates: `coords` writes M as B^-1 M B, whose
entry (r, c) has degree w_r - w_c, and the degree mask is the one place
that tests a degree, because in those coordinates every matrix unit
E_rc is homogeneous.  A graded component, a parabolic membership test
or a Levi limit is one coordinate change plus one mask.  The lower
central series of Lie U(psi) runs on unit positions alone, because
conjugation by B is a Lie algebra automorphism and the bracket of two
units is a unit up to sign or zero.  Two cocharacters count as equal
when they induce the same weight space projections, which is basis
independent and works over any field, including F_2 where the group of
rational points of G_m is trivial.

The coordinate change is compiled once, when the cocharacter is built:
coords applies M -> B^-1 M B from the integer rows of B^-1 and columns
of B, from_coords applies C -> B C B^-1 from the integer rows of B and
columns of B^-1, each from the integer forms of its factors over the
product of their denominators (see matrices._Sandwich).  Every grading
question, and every optimal homomorphism put into place by its torus
cocharacter, then costs one fused triple product in ints, normalised
once by Mat.from_ints; the degree mask copies the integer form of the
coordinates, so no grading question reads a Fraction entry.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import DomainError, PreconditionError
from .matrices import Mat, _Sandwich, inverse


def _degree_mask(weights, keep) -> list:
    """The coordinate positions (r, c), row-major, whose degree
    w_r - w_c the predicate keep accepts."""
    return [(r, c) for r, wr in enumerate(weights)
            for c, wc in enumerate(weights) if keep(wr - wc)]


class Cocharacter:
    def __init__(self, basis: Mat, weights):
        if not basis.is_square():
            raise DomainError("cocharacter basis must be square")
        self.basis = basis
        self.weights = tuple(int(w) for w in weights)
        if len(self.weights) != basis.rows:
            raise DomainError("weight count %d does not match n = %d"
                              % (len(self.weights), basis.rows))
        self.basis_inv = inverse(basis)  # raises if singular
        self.domain = basis.domain
        self._coords = _Sandwich(self.basis_inv, basis)
        self._from_coords = _Sandwich(basis, self.basis_inv)
        self._projections = {}

    @staticmethod
    def diagonal(domain, weights):
        return Cocharacter(Mat.identity(domain, len(tuple(weights))), weights)

    @property
    def n(self) -> int:
        return self.basis.rows

    # -- eigenbasis coordinates ----------------------------------------

    def coords(self, M: Mat) -> Mat:
        """M in eigenbasis coordinates, B^-1 M B."""
        return self._coords(M)

    def from_coords(self, C: Mat) -> Mat:
        """The matrix with eigenbasis coordinates C, B C B^-1."""
        return self._from_coords(C)

    def mask(self, keep) -> list:
        """The degree mask: coordinate positions (r, c), row-major, whose
        degree w_r - w_c the predicate keep accepts."""
        return _degree_mask(self.weights, keep)

    def masked(self, C: Mat, keep) -> Mat:
        """Coordinates C with every entry outside mask(keep) zeroed,
        copied from C's integer form."""
        n, num = self.n, C.num
        data = [0] * (n * n)
        for r, c in self.mask(keep):
            data[r * n + c] = num[r * n + c]
        return Mat.from_ints(self.domain, n, n, data, C.den)

    def at(self, t) -> Mat:
        """Value of the cocharacter at a nonzero field element t."""
        d = self.domain
        t = d.of(t)
        if t == d.zero():
            raise DomainError("cocharacter evaluated at zero")
        t_inv = d.inv(t)
        diag = []
        for w in self.weights:
            if w >= 0:
                v = d.one()
                for _ in range(w):
                    v = d.mul(v, t)
            else:
                v = d.one()
                for _ in range(-w):
                    v = d.mul(v, t_inv)
            diag.append(v)
        return self.from_coords(Mat.diagonal(d, diag))

    # -- action on the natural module ----------------------------------

    def weight_projection(self, w: int) -> Mat:
        """Projection of k^n onto the weight-w eigenspace, built once per
        weight and kept on the instance."""
        P = self._projections.get(w)
        if P is None:
            d = self.domain
            diag = [d.one() if wi == w else d.zero() for wi in self.weights]
            P = self._projections[w] = self.from_coords(Mat.diagonal(d, diag))
        return P

    def __eq__(self, other):
        if not isinstance(other, Cocharacter):
            return NotImplemented
        if self.domain != other.domain or self.n != other.n:
            return False
        ws = set(self.weights)
        if ws != set(other.weights):
            return False
        return all(self.weight_projection(w) == other.weight_projection(w)
                   for w in ws)

    def __hash__(self):
        return hash((self.domain, self.n, tuple(sorted(self.weights))))

    def __repr__(self):
        return "Cocharacter(weights=%r)" % (self.weights,)

    # -- induced grading on gl_n ---------------------------------------

    def ad_weight_values(self):
        return sorted({wr - wc for wr in self.weights for wc in self.weights})

    def component(self, M: Mat, w: int) -> Mat:
        """Degree-w part of M in the grading of gl_n, ad-weight w."""
        return self.from_coords(self.masked(self.coords(M),
                                            lambda e: e == w))

    def components(self, M: Mat, keep=lambda w: True) -> dict:
        """The nonzero graded components of M whose weight keep accepts,
        as a weight -> Mat map by increasing weight, built alone."""
        n, wt = self.n, self.weights
        C = self.coords(M)
        parts = {}
        for r, c in self.mask(keep):
            if C.num[r * n + c]:
                part = parts.setdefault(wt[r] - wt[c], [0] * (n * n))
                part[r * n + c] = C.num[r * n + c]
        return {w: self.from_coords(Mat.from_ints(self.domain, n, n,
                                                  parts[w], C.den))
                for w in sorted(parts)}


class ParabolicData:
    def __init__(self, gamma: Cocharacter):
        self.gamma = gamma
        self.dim_z = len(gamma.mask(lambda e: e == 0))
        self.dim_u = len(gamma.mask(lambda e: e > 0))
        self.dim_p = self.dim_z + self.dim_u

    def contains(self, M: Mat) -> bool:
        """Membership of a group element in P(gamma), or of a matrix in
        Lie P(gamma): no coordinate of negative degree."""
        gamma = self.gamma
        return gamma.masked(gamma.coords(M), lambda e: e < 0).is_zero()


def levi_limit(gamma: Cocharacter, g: Mat) -> Mat:
    """Limit of gamma(t) g gamma(t)^-1 as t -> 0, for g in P(gamma).

    Concretely the weight-0 component of g; the negative components must
    vanish for the limit to exist, positive ones are killed by it.
    """
    C = gamma.coords(g)
    if not gamma.masked(C, lambda e: e < 0).is_zero():
        raise PreconditionError("element is not in P(gamma), no limit")
    return gamma.from_coords(gamma.masked(C, lambda e: e == 0))


def _radical_series(weights) -> list:
    """Lower central series u, [u, u], [u, [u, u]], ... of Lie U(psi)
    up to its last nonzero term, each term as the set of unit positions
    (r, c) whose matrix units E_rc span it in eigenbasis coordinates.

    [E_ij, E_kl] = d_jk E_il - d_li E_kj, and for two units of positive
    degree both deltas would give w_i > w_j > w_i, so each bracket is a
    unit up to sign and every term is spanned by units, in every
    characteristic.
    """
    u = _degree_mask(weights, lambda e: e > 0)
    series = []
    term = set(u)
    while term:
        series.append(term)
        term = ({(i, l) for i, j in u for k, l in term if j == k}
                | {(k, j) for i, j in u for k, l in term if l == i})
    return series


class DistinguishedReport(NamedTuple):
    dim_levi: int
    dim_u_mod_comm: int
    dim_center: int
    is_distinguished: bool


def distinguished_check(gamma: Cocharacter) -> DistinguishedReport:
    """Distinguished parabolic test: dim P/U = dim U/(U,U) + dim Z,
    where the center Z of GL_n has dimension 1.

    Commutators are computed on the Lie algebra of the radical, which in
    type A matches the group lower central series step.
    """
    pd = ParabolicData(gamma)
    series = _radical_series(gamma.weights)
    dim_comm = len(series[1]) if len(series) > 1 else 0
    dim_levi = pd.dim_z
    dim_u_mod = pd.dim_u - dim_comm
    return DistinguishedReport(
        dim_levi=dim_levi,
        dim_u_mod_comm=dim_u_mod,
        dim_center=1,
        is_distinguished=(dim_levi == dim_u_mod + 1))


def radical_class(gamma: Cocharacter) -> int:
    """Nilpotence class of U(gamma): the length of the lower central
    series of its Lie algebra of strictly positive weight matrices."""
    return len(_radical_series(gamma.weights))
