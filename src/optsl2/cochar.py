"""Cocharacters of GL_n, the gradings they induce on gl_n, and the
attached parabolic data.

A cocharacter is stored as an eigenbasis (columns of an invertible
matrix) together with integer weights.  Everything downstream is
phrased through the induced grading: the component of M in degree i is
the part of B^-1 M B supported on entry positions (r, c) with
w_r - w_c = i, conjugated back.  Two cocharacters count as equal when
they induce the same weight space projections, which is basis
independent and works over any field, including F_2 where the group of
rational points of G_m is trivial.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DomainError, PreconditionError
from .matrices import IncrementalSpan, Mat, bracket, inverse


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

    @staticmethod
    def diagonal(domain, weights):
        return Cocharacter(Mat.identity(domain, len(tuple(weights))), weights)

    @property
    def n(self) -> int:
        return self.basis.rows

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
        return self.basis * Mat.diagonal(d, diag) * self.basis_inv

    # -- action on the natural module ----------------------------------

    def weight_values(self):
        return sorted(set(self.weights))

    def weight_projection(self, w: int) -> Mat:
        """Projection of k^n onto the weight-w eigenspace."""
        d = self.domain
        diag = [d.one() if wi == w else d.zero() for wi in self.weights]
        return self.basis * Mat.diagonal(d, diag) * self.basis_inv

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
        if M.rows != self.n or M.cols != self.n:
            raise DomainError("matrix size does not match cocharacter")
        C = self.basis_inv * M * self.basis
        d = self.domain
        z = d.zero()
        data = list(C.data)
        n = self.n
        for r in range(n):
            for c in range(n):
                if self.weights[r] - self.weights[c] != w:
                    data[r * n + c] = z
        masked = Mat(d, n, n, data)
        return self.basis * masked * self.basis_inv

    def components(self, M: Mat) -> dict:
        """All nonzero graded components, as a weight -> Mat map."""
        out = {}
        for w in self.ad_weight_values():
            comp = self.component(M, w)
            if not comp.is_zero():
                out[w] = comp
        return out

    def piece_basis(self, w: int):
        """Basis matrices of the degree-w graded piece of gl_n."""
        out = []
        n = self.n
        d = self.domain
        for r in range(n):
            for c in range(n):
                if self.weights[r] - self.weights[c] == w:
                    out.append(self.basis * Mat.unit(d, n, n, r, c)
                               * self.basis_inv)
        return out


def graded_decompose(gamma: Cocharacter, M: Mat) -> dict:
    return gamma.components(M)


@dataclass
class ParabolicData:
    gamma: Cocharacter
    dim_p: int = field(init=False)
    dim_u: int = field(init=False)
    dim_z: int = field(init=False)

    def __post_init__(self):
        n = self.gamma.n
        ws = self.gamma.weights
        self.dim_z = sum(1 for r in range(n) for c in range(n)
                         if ws[r] == ws[c])
        self.dim_u = sum(1 for r in range(n) for c in range(n)
                         if ws[r] > ws[c])
        self.dim_p = self.dim_z + self.dim_u

    def _in_basis(self, g: Mat) -> Mat:
        if g.rows != self.gamma.n or g.cols != self.gamma.n:
            raise DomainError("matrix size does not match parabolic")
        return self.gamma.basis_inv * g * self.gamma.basis

    def contains(self, g: Mat) -> bool:
        """Membership in P(gamma): no component of negative weight."""
        C = self._in_basis(g)
        ws = self.gamma.weights
        z = g.domain.zero()
        n = self.gamma.n
        return all(C[r, c] == z for r in range(n) for c in range(n)
                   if ws[r] < ws[c])

    def levi_contains(self, g: Mat) -> bool:
        """Membership in the Levi Z(gamma): purely weight-0."""
        C = self._in_basis(g)
        ws = self.gamma.weights
        z = g.domain.zero()
        n = self.gamma.n
        return all(C[r, c] == z for r in range(n) for c in range(n)
                   if ws[r] != ws[c])

    def radical_contains(self, g: Mat) -> bool:
        """Membership in U(gamma): in P with weight-0 part the identity."""
        if not self.contains(g):
            return False
        zero_part = self.gamma.component(g, 0)
        return zero_part.is_identity()

    def lie_p_basis(self):
        out = []
        for w in self.gamma.ad_weight_values():
            if w >= 0:
                out.extend(self.gamma.piece_basis(w))
        return out

    def lie_u_basis(self):
        out = []
        for w in self.gamma.ad_weight_values():
            if w > 0:
                out.extend(self.gamma.piece_basis(w))
        return out

    def lie_z_basis(self):
        return self.gamma.piece_basis(0)

    def lie_contains(self, M: Mat) -> bool:
        """Lie algebra membership: no negative graded component."""
        C = self._in_basis(M)
        ws = self.gamma.weights
        z = M.domain.zero()
        n = self.gamma.n
        return all(C[r, c] == z for r in range(n) for c in range(n)
                   if ws[r] < ws[c])


def parabolic_data(gamma: Cocharacter) -> ParabolicData:
    return ParabolicData(gamma)


def levi_limit(gamma: Cocharacter, g: Mat) -> Mat:
    """Limit of gamma(t) g gamma(t)^-1 as t -> 0, for g in P(gamma).

    Concretely the weight-0 component of g; the negative components must
    vanish for the limit to exist, positive ones are killed by it.
    """
    if not parabolic_data(gamma).contains(g):
        raise PreconditionError("element is not in P(gamma), no limit")
    return gamma.component(g, 0)


@dataclass(frozen=True)
class DistinguishedReport:
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
    pd = parabolic_data(gamma)
    u_basis = pd.lie_u_basis()
    comm = IncrementalSpan(gamma.domain)
    for a in u_basis:
        for b in u_basis:
            comm.add_mat(bracket(a, b))
    dim_comm = comm.dim
    dim_levi = pd.dim_z
    dim_u_mod = pd.dim_u - dim_comm
    return DistinguishedReport(
        dim_levi=dim_levi,
        dim_u_mod_comm=dim_u_mod,
        dim_center=1,
        is_distinguished=(dim_levi == dim_u_mod + 1))


def radical_class(gamma: Cocharacter) -> int:
    """Nilpotence class of U(gamma) via the lower central series of its
    Lie algebra of strictly positive weight matrices."""
    pd = parabolic_data(gamma)
    layer = pd.lie_u_basis()
    full = layer
    cls = 0
    while layer:
        cls += 1
        span = IncrementalSpan(gamma.domain)
        nxt = []
        for a in full:
            for b in layer:
                c = bracket(a, b)
                if span.add_mat(c):
                    nxt.append(c)
        layer = nxt
    return cls
