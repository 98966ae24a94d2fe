"""Exact scalar domains: prime fields F_p (p <= 251) and the rationals.

A domain object owns the arithmetic; matrix entries are raw values
(ints for F_p, Fraction for Q).  Both domain classes offer zero, one,
add, sub, mul, neg, inv, `of` (coerce an int, string or Fraction) and
the attribute `p`.  The matrix kernels do not call back
into the domain per term: every matrix also holds one integer form,
int numerators over one positive denominator (the residues over 1 on
F_p), and the kernels compute on it in plain ints.  Over Q the form of
a matrix built from its entries comes from `integer_numerators`.  Apart
from the F_p arithmetic and elimination loops, a kernel reads the
domain only where its result is normalised, by `p` (None for Q):
residues mod p, or a division by the gcd.  F_p values are always
reduced to 0..p-1, rationals are kept in lowest terms with positive
denominator by the Fraction type itself.  No floats anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import DomainError

MAX_PRIME = 251


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class FpDomain:
    def __init__(self, p: int):
        if not isinstance(p, int) or not is_prime(p) or p > MAX_PRIME:
            raise DomainError("p must be a prime <= %d, got %r" % (MAX_PRIME, p))
        self.p = p

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise DomainError("division by zero in F_%d" % self.p)
        return pow(a, self.p - 2, self.p)

    def of(self, x):
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise DomainError("denominator divisible by %d" % self.p)
            return (x.numerator * self.inv(x.denominator % self.p)) % self.p
        if isinstance(x, str):
            return self.of(parse_rational(x))
        if isinstance(x, int):
            return x % self.p
        raise DomainError("cannot coerce %r into F_%d" % (x, self.p))

    def __repr__(self):
        return "Fp(%d)" % self.p

    def __eq__(self, other):
        return isinstance(other, FpDomain) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))


class RationalDomain:
    p = None

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise DomainError("division by zero in Q")
        return 1 / Fraction(a)

    def of(self, x):
        if isinstance(x, (int, Fraction)):
            return Fraction(x)
        if isinstance(x, str):
            return parse_rational(x)
        raise DomainError("cannot coerce %r into Q" % (x,))

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalDomain)

    def __hash__(self):
        return hash("QQ")


def parse_rational(s: str) -> Fraction:
    """Parse "a/b" or "a" into a Fraction; used by the literal formats."""
    try:
        if "/" in s:
            num, den = s.split("/")
            f = Fraction(int(num), int(den))
        else:
            f = Fraction(int(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError("bad rational literal %r" % s) from exc
    return f


def integer_numerators(values):
    """(integer numerators, common denominator) of a sequence of
    rationals, written over the lcm of their denominators."""
    den = lcm(*[x.denominator for x in values])
    return [x.numerator * (den // x.denominator) for x in values], den


def format_rational(f: Fraction):
    """Inverse of parse_rational; integers come back as plain ints."""
    if f.denominator == 1:
        return int(f)
    return "%d/%d" % (f.numerator, f.denominator)


QQ = RationalDomain()

_fp_cache: dict[int, FpDomain] = {}


def Fp(p: int) -> FpDomain:
    if p not in _fp_cache:
        _fp_cache[p] = FpDomain(p)
    return _fp_cache[p]
