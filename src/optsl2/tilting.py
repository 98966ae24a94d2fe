"""SL2 module characters and the tilting certificate.

For an optimal homomorphism all torus weights on the adjoint module
lie in [-(2p-2), 2p-2].  In that window a module is pinned down by its
formal character together with the fixed-point dimensions of a
nontrivial unipotent element in characteristic p and of its
characteristic-0 lift: the character determines the only possible
tilting decomposition (greedy peel from the top weight), and the
fixed-point equation rules out every non-tilting extension.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import DomainError, InconsistencyError, PreconditionError
from .matrices import ad_operator, rank
from .orbits import block_weights, rep_from_partition
from .partitions import admissible, centralizer_dim, check_partition
from .scalars import Fp
from .sl2 import build_optimal, eval_hom, sl2_x1


class CharacterVector:
    """Formal character of a torus module: finite multiset of integer
    weights.  Symmetry under negation is enforced; it is the cheap
    necessary condition for self-duality."""

    __slots__ = ("_mult",)

    def __init__(self, mult):
        clean = {}
        for w, m in dict(mult).items():
            m = int(m)
            if m < 0:
                raise DomainError("negative multiplicity at weight %d" % w)
            if m:
                clean[int(w)] = m
        for w, m in clean.items():
            if clean.get(-w, 0) != m:
                raise DomainError(
                    "character not symmetric under negation at weight %d" % w)
        self._mult = clean

    @classmethod
    def from_weights(cls, weights):
        mult = {}
        for w in weights:
            mult[w] = mult.get(w, 0) + 1
        return cls(mult)

    def mult(self, w: int) -> int:
        return self._mult.get(w, 0)

    def as_dict(self) -> dict:
        return dict(self._mult)

    @property
    def support(self):
        return sorted(self._mult, reverse=True)

    def __add__(self, other):
        mult = dict(self._mult)
        for w, m in other._mult.items():
            mult[w] = mult.get(w, 0) + m
        return CharacterVector(mult)

    def __eq__(self, other):
        return isinstance(other, CharacterVector) and \
            self._mult == other._mult

    def __hash__(self):
        return hash(frozenset(self._mult.items()))

    def __repr__(self):
        body = ", ".join("%d: %d" % (w, self._mult[w]) for w in self.support)
        return "CharacterVector({%s})" % body


KINDS = ("simple", "weyl", "tilting")


def _check_kind_range(kind: str, m: int, p: int) -> None:
    Fp(p)
    if kind not in KINDS:
        raise DomainError("unknown module kind %r" % (kind,))
    if kind == "weyl":
        if m < 0:
            raise PreconditionError("weyl high weight must be >= 0")
    elif kind == "simple":
        if not 0 <= m <= p - 1:
            raise PreconditionError(
                "simple modules are tabulated for 0 <= m <= p-1 only")
    else:
        if not p - 1 <= m <= 2 * p - 2:
            raise PreconditionError(
                "tilting modules are tabulated for p-1 <= m <= 2p-2 only")


def char_of(kind: str, m: int, p: int) -> CharacterVector:
    """Formal character of W(m), L(m), or T(m) for SL2 over F_p.

    W(m) is the weight string m, m-2, ..., -m; L(m) = W(m) in the
    restricted range; T(m) = W(m) + W(2p-2-m) for p <= m <= 2p-2 and
    T(p-1) = W(p-1).
    """
    _check_kind_range(kind, m, p)
    string = CharacterVector.from_weights(range(m, -m - 1, -2))
    if kind == "tilting" and m >= p:
        c = 2 * p - 2 - m
        return string + CharacterVector.from_weights(range(c, -c - 1, -2))
    return string


def fixdim_of(kind: str, m: int, p: int, characteristic: int) -> int:
    """Dimension of the fixed points of a nontrivial unipotent on the
    module, in the stated characteristic (p or 0).

    In characteristic 0 every Weyl constituent contributes one fixed
    line.  In characteristic p a simple L(m) contributes one, and
    T(m) with p <= m <= 2p-2 is free of rank 2 over the order-p cyclic
    group generated by the unipotent, so contributes two.
    """
    _check_kind_range(kind, m, p)
    weyl_constituents = 2 if (kind == "tilting" and m >= p) else 1
    if characteristic == 0:
        return weyl_constituents
    if characteristic == p:
        if kind == "weyl" and m > p - 1:
            raise PreconditionError(
                "unipotent fixed points of W(%d) in characteristic %d "
                "are outside the tabulated range" % (m, p))
        return weyl_constituents
    raise DomainError("characteristic must be 0 or %d" % p)


class ModuleDescriptor(NamedTuple):
    """Character plus unipotent fixed-point dimensions in
    characteristic p and in the characteristic-0 lift."""
    character: CharacterVector
    fix_p: int
    fix_0: int


class TiltingDecomposition(NamedTuple):
    """Certified decomposition: r[d] copies of T(2p-2-d) for
    0 <= d <= p-2 and v[d] copies of L(d) for 0 <= d <= p-1, with the
    fixed-point equation checked on both sides."""
    p: int
    r: dict
    v: dict

    def character(self) -> CharacterVector:
        total = CharacterVector({})
        for d, m in self.r.items():
            piece = char_of("tilting", 2 * self.p - 2 - d, self.p)
            for _ in range(m):
                total = total + piece
        for d, m in self.v.items():
            piece = char_of("simple", d, self.p)
            for _ in range(m):
                total = total + piece
        return total

    def fixdim(self, characteristic: int) -> int:
        tot = 0
        for d, m in self.r.items():
            tot += m * fixdim_of("tilting", 2 * self.p - 2 - d, self.p,
                                 characteristic)
        for d, m in self.v.items():
            tot += m * fixdim_of("simple", d, self.p, characteristic)
        return tot

    def summands(self):
        """Human-readable pieces, highest weight first."""
        out = []
        for d in sorted(self.r):
            m = self.r[d]
            label = "T(%d)" % (2 * self.p - 2 - d)
            out.append(label if m == 1 else label + "^%d" % m)
        for d in sorted(self.v, reverse=True):
            m = self.v[d]
            label = "L(%d)" % d
            out.append(label if m == 1 else label + "^%d" % m)
        return out

    def __str__(self):
        return " + ".join(self.summands()) if (self.r or self.v) else "0"


def tilting_decompose(desc: ModuleDescriptor, p: int) -> TiltingDecomposition:
    """Certify the descriptor as a tilting module and return its
    decomposition.

    Greedy peel: the multiplicity remaining at each weight w from 2p-2
    down to p forces that many copies of T(w); what remains in the
    restricted window forces simple modules.  A negative remainder or
    a nonzero residue means the character is not a non-negative
    combination of these pieces; a fixed-point count differing from
    the peel's prediction means a non-tilting extension is present.
    """
    Fp(p)
    ch = desc.character
    top = 2 * p - 2
    for w in ch.support:
        if abs(w) > top:
            raise PreconditionError(
                "weight %d exceeds 2p-2 = %d, outside the certified window"
                % (w, top))
    rem = {w: ch.mult(w) for w in range(-top, top + 1)}

    def subtract(piece: CharacterVector, count: int):
        for w, m in piece.as_dict().items():
            rem[w] -= count * m

    r = {}
    for w in range(top, p - 1, -1):
        c = rem[w]
        if c < 0:
            raise PreconditionError("not a non-negative tilting combination")
        if c:
            r[top - w] = c
            subtract(char_of("tilting", w, p), c)
    v = {}
    for w in range(p - 1, -1, -1):
        c = rem[w]
        if c < 0:
            raise PreconditionError("not a non-negative tilting combination")
        if c:
            v[w] = c
            subtract(char_of("weyl", w, p), c)
    if any(rem.values()):
        raise PreconditionError("not a non-negative tilting combination")

    dec = TiltingDecomposition(p=p, r=r, v=v)
    if dec.character() != ch:
        raise InconsistencyError("peel does not reconstruct the character")
    total = dec.fixdim(p)
    if total != desc.fix_p or total != desc.fix_0:
        raise InconsistencyError(
            "fixed-point count contradicts a tilting decomposition: "
            "peel predicts %d, descriptor has fix_p = %d, fix_0 = %d"
            % (total, desc.fix_p, desc.fix_0))
    return dec


def adjoint_descriptor(lam, p: int) -> ModuleDescriptor:
    """Descriptor of the adjoint module gl_n pulled back through the
    optimal homomorphism for the partition lam over F_p.

    The character is the multiset of weight differences of the
    associated cocharacter; fix_p is computed from the group element
    u = phi(x1(1)) acting by conjugation, as n^2 - rank(ad u): the fixed
    points of M -> u M u^-1 are ker ad(u), since u M u^-1 - M =
    [u, M] u^-1; fix_0 is the characteristic-0 centralizer dimension,
    centralizer_dim(lam).
    """
    lam = check_partition(lam)
    if not admissible(lam, p):
        raise PreconditionError(
            "largest part %d exceeds p = %d, no optimal homomorphism"
            % (lam[0], p))
    dom = Fp(p)
    weights = block_weights(lam)
    ch = CharacterVector.from_weights(wr - wc for wr in weights
                                      for wc in weights)

    phi = build_optimal(rep_from_partition(dom, lam))
    u = eval_hom(phi, sl2_x1(dom, 1))
    n = sum(lam)
    fix_p = n * n - rank(ad_operator(u))

    fix_0 = centralizer_dim(lam)
    return ModuleDescriptor(character=ch, fix_p=fix_p, fix_0=fix_0)
