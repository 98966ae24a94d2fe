"""Exact dense matrices over F_p and Q.

Mat objects are immutable and hashable.  Every Mat stores one integer
form in two slots: `num`, a flat row-major tuple of ints, and `den`, a
positive int, with entries num[i] / den.  Over F_p `num` is the tuple
of residues 0..p-1 itself (the same object as `data`) and `den` is 1.
Over Q `num` holds integer numerators over one positive denominator
with gcd 1 across the numerators and the denominator.  The form is
unique over both domains, so equality and hashing compare it.
Mat.__init__ takes domain values (Fractions over Q) and derives the
form once; Mat.from_ints(domain, rows, cols, num, den) is the one
constructor of kernel results and the one place that decides the
representation: over F_p it reduces num / den to residues, over Q it
divides by the gcd and returns a matrix whose tuple of Fractions is
built only when `data` is first read.  The shared kernels (negation,
block diagonals, linear combinations, the compiled coordinate change,
the operator matrix of ad X, and sym_power_rep in sl2)
compute on the forms of their inputs in plain ints and hand the result
to from_ints, with no domain branch.  Products, sums, differences and
scaling keep a loop of their own over F_p, which reduces each entry in
place and is faster on the small matrices of the brute-force route.

All elimination uses the same deterministic pivot rule: scan each
column in order and take the first row with a nonzero entry.  The hot
loops run on the integer rows of the form: over F_p on residues, over
Q on numerator rows, each kept primitive while it is reduced, which
leaves the row space and so the unique RREF unchanged.  Every span
question goes to one forward pass, _pivot_columns, whose pivots are
the columns outside the span of those before them (each pivot clears
only the rows below it, and nothing is divided): rank counts them, and
independent(vectors) reads them off the vectors as columns.  rref,
rank_nullspace, solve and inverse share one Gauss-Jordan loop,
_rref_rows, which also clears above each pivot and divides the pivot
rows into Fractions once, at the end; inverse reduces [num | 1] and
scales the right half by den.  Mat.identity is memoised, as Mat is
immutable.  A change of coordinates M -> A M B by one fixed pair
(A, B), the cocharacter coordinate change, is compiled once into the
integer rows of A and columns of B over one common denominator, so
each use is one fused triple product in ints, normalised once by
from_ints, with no intermediate Mat.

The brute-force checks count the x with x A == B x for fixed pairs
(A, B): intertwiner_forms compiles a pair once into the linear forms
of x A - B x on x's flat tuple, so no product is built per element.
Two depth-first walks test each form once its entries are fixed, with
one pruning step that drops a prefix when every side has a nonzero
form: intertwiner_counts fixes a row of x in GL_n(F_p) at a time
(enumerate_group is the same walk unpruned), and combination_walk a
coefficient of x = 1 + sum c_i B_i at a time, which in sl2 walks the
unipotent radical of C(X).  Nothing is eliminated.  Below the last
row that any form reads no test can fail, so intertwiner_counts stops
there and counts the completions of each prefix, the row at depth i
having p^n - p^i choices; with no form at all (X = 0) its walk is one
count.  enumerate_group and combination_walk still yield every element.
Each walk charges its _meter with a prefix's candidates before it scans
them, and raises BudgetError once the charge passes the budget.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul

from .errors import BudgetError, DomainError
from .scalars import Fp, FpDomain, integer_numerators

DEFAULT_BUDGET = 2 ** 24


class Mat:
    __slots__ = ("domain", "rows", "cols", "data", "num", "den")

    def __init__(self, domain, rows: int, cols: int, data):
        self.domain = domain
        self.rows = rows
        self.cols = cols
        self.data = data = tuple(data)
        if len(data) != rows * cols:
            raise DomainError("entry count %d does not match %dx%d"
                              % (len(data), rows, cols))
        if domain.p is None:
            # over the lcm of the denominators the gcd is already 1
            num, self.den = integer_numerators(data)
            self.num = tuple(num)
        else:
            self.num, self.den = data, 1

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_ints(domain, rows, cols, num, den):
        """The matrix with entries num[i] / den (row-major ints, den > 0)
        in its canonical form: residues over F_p, where den must be
        prime to p; over Q divided by the gcd, with its Fraction entries
        built on the first read of data."""
        p = domain.p
        if p is not None:
            if den != 1:
                f = pow(den, -1, p)
                num = [x * f % p for x in num]
            else:
                num = [x % p for x in num]
            M = Mat.__new__(Mat)
            M.data = M.num = tuple(num)
            M.den = 1
        else:
            g = gcd(den, *num)
            if g != 1:
                num = [x // g for x in num]
                den //= g
            M = _IntMat.__new__(_IntMat)
            M.num, M.den = tuple(num), den
            M._entries = None
        M.domain, M.rows, M.cols = domain, rows, cols
        return M

    @staticmethod
    def from_rows(domain, rows):
        r = len(rows)
        c = len(rows[0]) if r else 0
        data = []
        for row in rows:
            if len(row) != c:
                raise DomainError("ragged rows")
            data.extend(domain.of(x) for x in row)
        return Mat(domain, r, c, data)

    @staticmethod
    def zero(domain, rows, cols=None):
        if cols is None:
            cols = rows
        z = domain.zero()
        return Mat(domain, rows, cols, [z] * (rows * cols))

    @staticmethod
    @lru_cache(maxsize=32)
    def identity(domain, n):
        z, o = domain.zero(), domain.one()
        data = [o if i == j else z for i in range(n) for j in range(n)]
        return Mat(domain, n, n, data)

    @staticmethod
    def unit(domain, rows, cols, r, c):
        """Matrix unit E_rc."""
        data = [domain.zero()] * (rows * cols)
        data[r * cols + c] = domain.one()
        return Mat(domain, rows, cols, data)

    @staticmethod
    def diagonal(domain, values):
        n = len(values)
        z = domain.zero()
        data = [z] * (n * n)
        for i, v in enumerate(values):
            data[i * n + i] = domain.of(v)
        return Mat(domain, n, n, data)

    @staticmethod
    def block_diag(domain, blocks):
        """The blocks' numerators, each written over the lcm of their
        denominators."""
        n = sum(b.rows for b in blocks)
        m = sum(b.cols for b in blocks)
        for b in blocks:
            if b.domain != domain:
                raise DomainError("mixed domains in block_diag")
        den = lcm(*[b.den for b in blocks])
        out = [0] * (n * m)
        r0 = c0 = 0
        for b in blocks:
            w, f = b.cols, den // b.den
            vals = b.num if f == 1 else [x * f for x in b.num]
            for i in range(b.rows):
                at = (r0 + i) * m + c0
                out[at:at + w] = vals[i * w:(i + 1) * w]
            r0 += b.rows
            c0 += w
        return Mat.from_ints(domain, n, m, out, den)

    # -- access ---------------------------------------------------------

    def __getitem__(self, rc):
        r, c = rc
        return self.data[r * self.cols + c]

    def row_values(self, i):
        return self.data[i * self.cols:(i + 1) * self.cols]

    def col(self, j):
        return Mat(self.domain, self.rows, 1,
                   [self.data[i * self.cols + j] for i in range(self.rows)])

    def to_lists(self):
        return [list(self.row_values(i)) for i in range(self.rows)]

    def vectorize(self):
        """Row-major flattening as a column vector."""
        return Mat(self.domain, self.rows * self.cols, 1, self.data)

    # -- predicates -----------------------------------------------------

    def is_zero(self):
        return not any(self.num)

    def is_identity(self):
        if self.rows != self.cols:
            return False
        return self == Mat.identity(self.domain, self.rows)

    def is_square(self):
        return self.rows == self.cols

    # -- arithmetic -----------------------------------------------------

    def _check(self, other, same_shape):
        if not isinstance(other, Mat):
            raise DomainError("Mat expected, got %r" % (other,))
        if self.domain != other.domain:
            raise DomainError("mixed domains %r and %r"
                              % (self.domain, other.domain))
        if same_shape and (self.rows, self.cols) != (other.rows, other.cols):
            raise DomainError("shape mismatch")

    def __add__(self, other):
        self._check(other, same_shape=True)
        d = self.domain
        if isinstance(d, FpDomain):
            p = d.p
            data = [(a + b) % p for a, b in zip(self.data, other.data)]
            return Mat(d, self.rows, self.cols, data)
        return _sum(self, ((1, other),))

    def __sub__(self, other):
        self._check(other, same_shape=True)
        d = self.domain
        if isinstance(d, FpDomain):
            p = d.p
            data = [(a - b) % p for a, b in zip(self.data, other.data)]
            return Mat(d, self.rows, self.cols, data)
        return _sum(self, ((-1, other),))

    def __neg__(self):
        return Mat.from_ints(self.domain, self.rows, self.cols,
                             [-x for x in self.num], self.den)

    def __mul__(self, other):
        self._check(other, same_shape=False)
        if self.cols != other.rows:
            raise DomainError("inner dimension mismatch")
        d = self.domain
        n, k, m = self.rows, self.cols, other.cols
        out = []
        if isinstance(d, FpDomain):
            a, b = self.data, other.data
            p = d.p
            for i in range(n):
                ai = a[i * k:(i + 1) * k]
                for j in range(m):
                    s = 0
                    for t in range(k):
                        s += ai[t] * b[t * m + j]
                    out.append(s % p)
            return Mat(d, n, m, out)
        a, b = self.num, other.num
        cols = [b[j::m] for j in range(m)]
        for i in range(n):
            ai = a[i * k:(i + 1) * k]
            out.extend(sum(map(mul, ai, bj)) for bj in cols)
        return Mat.from_ints(d, n, m, out, self.den * other.den)

    def scale(self, c):
        d = self.domain
        c = d.of(c)
        if isinstance(d, FpDomain):
            p = d.p
            data = [(c * x) % p for x in self.data]
            return Mat(d, self.rows, self.cols, data)
        f = c.numerator
        return Mat.from_ints(d, self.rows, self.cols,
                             [f * x for x in self.num],
                             self.den * c.denominator)

    def __pow__(self, e: int):
        if not self.is_square():
            raise DomainError("power of non-square matrix")
        if e < 0:
            return inverse(self) ** (-e)
        if e == 0:
            return Mat.identity(self.domain, self.rows)
        result = None
        base = self
        while True:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if not e:
                return result
            base = base * base

    # -- equality -------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.domain == other.domain
                and self.rows == other.rows and self.cols == other.cols
                and self.den == other.den and self.num == other.num)

    def __hash__(self):
        return hash((self.domain, self.rows, self.cols, self.num, self.den))

    def __repr__(self):
        return "Mat(%r, %r)" % (self.domain, self.to_lists())


class _IntMat(Mat):
    """A Q matrix built by Mat.from_ints: its canonical integer form is
    set, and its Fractions are made on the first read of data."""

    __slots__ = ("_entries",)

    @property
    def data(self):
        entries = self._entries
        if entries is None:
            den = self.den
            entries = self._entries = tuple(Fraction(x, den)
                                            for x in self.num)
        return entries


def bracket(a: Mat, b: Mat) -> Mat:
    """Lie bracket [a, b] = ab - ba."""
    return a * b - b * a


def lin_comb(start: Mat, coeffs, mats) -> Mat:
    """start + c_1 M_1 + c_2 M_2 + ... over zip(coeffs, mats), skipping
    zero coefficients: one sum on the integer forms, or start itself
    when every coefficient is zero."""
    d = start.domain
    terms = []
    for c, M in zip(coeffs, mats):
        if c:
            start._check(M, same_shape=True)
            terms.append((d.of(c), M))
    return _sum(start, terms) if terms else start


def _sum(start: Mat, terms) -> Mat:
    """start + c_1 M_1 + ... for (c, M) terms, c an int (a residue over
    F_p) or a Fraction, computed on the integer forms over the lcm of
    the term denominators and normalised once by Mat.from_ints."""
    s, den = start.num, start.den
    for c, M in terms:
        dm = M.den * c.denominator
        common = lcm(den, dm)
        fs, fm = common // den, c.numerator * (common // dm)
        s = [x * fs + y * fm for x, y in zip(s, M.num)]
        den = common
    return Mat.from_ints(start.domain, start.rows, start.cols, s, den)


class _Sandwich:
    """The map M -> A M B for fixed n x n matrices A and B of one domain,
    compiled once: the rows of A and the columns of B as ints over one
    common denominator `den`, the product of their denominators.  A call
    forms each row of A M in ints and each entry of A M B from it, and
    normalises once: Mat.from_ints over den times the denominator of M.
    Raises DomainError unless M is n x n over the domain.
    """

    __slots__ = ("domain", "n", "rows", "cols", "den")

    def __init__(self, A: Mat, B: Mat):
        self.domain = A.domain
        self.n = n = A.rows
        a, b = A.num, B.num
        self.den = A.den * B.den
        self.rows = [a[i * n:(i + 1) * n] for i in range(n)]
        self.cols = [b[j::n] for j in range(n)]

    def __call__(self, M: Mat) -> Mat:
        d, n = self.domain, self.n
        if M.domain != d or M.rows != n or M.cols != n:
            raise DomainError("expected a %dx%d matrix over %r" % (n, n, d))
        m = M.num
        mcols = [m[j::n] for j in range(n)]
        out = []
        for a in self.rows:
            am = [sum(map(mul, a, c)) for c in mcols]
            out.extend(sum(map(mul, am, b)) for b in self.cols)
        return Mat.from_ints(d, n, n, out, self.den * M.den)


def hstack(mats):
    """The matrices side by side, built from their numerators over the
    lcm of their denominators; one row count and domain."""
    mats = list(mats)
    d, r = mats[0].domain, mats[0].rows
    for m in mats:
        if m.rows != r or m.domain != d:
            raise DomainError("hstack mismatch")
    den = lcm(*[m.den for m in mats])
    blocks = [(m.cols, m.num if m.den == den
               else [x * (den // m.den) for x in m.num]) for m in mats]
    out = []
    for i in range(r):
        for w, num in blocks:
            out.extend(num[i * w:(i + 1) * w])
    return Mat.from_ints(d, r, sum(w for w, _ in blocks), out, den)


# -- elimination --------------------------------------------------------

def _rref_rows(rows, domain):
    """In-place reduced row echelon form; returns (rank, pivot columns).

    Pivot rule: first nonzero row in each column, scanning columns left
    to right.  Both paths eliminate on plain ints: residues mod p over
    F_p, integer rows over Q (_elim_rows gives the numerator rows of the
    integer form), and the Q result rows hold Fractions.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    pivots = []
    r = 0
    if isinstance(domain, FpDomain):
        p = domain.p
        for c in range(n):
            if r == m:
                break
            pr = None
            for i in range(r, m):
                if rows[i][c]:
                    pr = i
                    break
            if pr is None:
                continue
            rows[r], rows[pr] = rows[pr], rows[r]
            inv = pow(rows[r][c], p - 2, p)
            if inv != 1:
                rows[r] = [(x * inv) % p for x in rows[r]]
            rr = rows[r]
            for i in range(m):
                f = rows[i][c]
                if i != r and f:
                    ri = rows[i]
                    rows[i] = [(ri[k] - f * rr[k]) % p for k in range(n)]
            pivots.append(c)
            r += 1
    else:
        # scaling a row keeps the row space, and so the unique RREF
        for i in range(m):
            rows[i] = _primitive(rows[i])
        for c in range(n):
            if r == m:
                break
            pr = None
            for i in range(r, m):
                if rows[i][c]:
                    pr = i
                    break
            if pr is None:
                continue
            rows[r], rows[pr] = rows[pr], rows[r]
            rr = rows[r]
            a = rr[c]
            for i in range(m):
                f = rows[i][c]
                if i != r and f:
                    rows[i] = _primitive([a * x - f * y
                                          for x, y in zip(rows[i], rr)])
            pivots.append(c)
            r += 1
        zero = domain.zero()
        for i, c in enumerate(pivots):
            a = rows[i][c]
            rows[i] = [Fraction(x, a) if x else zero for x in rows[i]]
        rows[r:] = [[zero] * n for _ in range(m - r)]
    return len(pivots), pivots


def _primitive(row):
    """An integer row divided by its content, the gcd of its entries."""
    g = gcd(*row)
    return row if g <= 1 else [x // g for x in row]


def _elim_rows(M: Mat) -> list:
    """The rows _rref_rows reduces: the numerator rows of the integer
    form, M's rows scaled by den, which have the same RREF (over F_p
    the residues themselves)."""
    num, c = M.num, M.cols
    return [list(num[i * c:(i + 1) * c]) for i in range(M.rows)]


def rref(M: Mat):
    """(rank, pivot columns, reduced matrix)."""
    rows = _elim_rows(M)
    rk, piv = _rref_rows(rows, M.domain)
    flat = [x for row in rows for x in row]
    return rk, piv, Mat(M.domain, M.rows, M.cols, flat)


def _pivot_columns(rows, p) -> list:
    """The columns outside the span of the columns before them, as the
    pivots of one forward elimination of the integer rows (residues mod
    p, or ints over Q when p is None; consumed) with the pivot rule of
    _rref_rows.  Each pivot clears only the rows below it, and only the
    columns to its right: the entries left of it are zero there, so a
    cleared row keeps its columns from the next one on and is read from
    its right end (column c at index c - n).  No Fraction is built."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    pivots = []
    r = 0
    for k in range(-n, 0):
        if r == m:
            break
        for pr in range(r, m):
            if rows[pr][k]:
                break
        else:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pivots.append(n + k)
        if k == -1:
            break
        pivot = rows[r][k + 1:]
        a = rows[r][k]
        if p is None:
            for i in range(r + 1, m):
                row = rows[i]
                f = row[k]
                if f:
                    rows[i] = _primitive([a * x - f * y for x, y
                                          in zip(row[k + 1:], pivot)])
        else:
            inv = pow(a, -1, p)
            for i in range(r + 1, m):
                row = rows[i]
                f = row[k]
                if f:
                    f = f * inv % p
                    rows[i] = [(x - f * y) % p for x, y
                               in zip(row[k + 1:], pivot)]
        r += 1
    return pivots


def rank(M: Mat) -> int:
    """The number of pivot columns of _elim_rows(M)."""
    return len(_pivot_columns(_elim_rows(M), M.domain.p))


def independent(vectors) -> list:
    """The indices i of the vectors outside the span of vectors[:i], for
    Mats of one domain and shape read as the vectors of their entries:
    the pivot columns of the matrix whose columns are their numerators
    (a scaled column keeps its independence).  Raises DomainError on
    mixed domains or shapes."""
    vectors = list(vectors)
    for v in vectors[1:]:
        vectors[0]._check(v, same_shape=True)
    rows = [list(row) for row in zip(*[v.num for v in vectors])]
    return _pivot_columns(rows, vectors[0].domain.p) if vectors else []


def rank_nullspace(M: Mat):
    """(rank, basis of the right null space as column vectors).

    The basis is the standard one read off the RREF: one vector per free
    column, in increasing column order, with a 1 in the free position.
    """
    rows = _elim_rows(M)
    rk, piv = _rref_rows(rows, M.domain)
    d = M.domain
    pivset = set(piv)
    basis = []
    for fc in range(M.cols):
        if fc in pivset:
            continue
        v = [d.zero()] * M.cols
        v[fc] = d.one()
        for i, pc in enumerate(piv):
            v[pc] = d.neg(rows[i][fc])
        basis.append(Mat(d, M.cols, 1, v))
    return rk, basis


def inverse(M: Mat) -> Mat:
    if not M.is_square():
        raise DomainError("inverse of non-square matrix")
    n = M.rows
    rows = _elim_rows(M)
    for i, row in enumerate(rows):
        row.extend([0] * n)
        row[n + i] = 1
    rk, piv = _rref_rows(rows, M.domain)
    if rk < n or piv[:n] != list(range(n)):
        raise DomainError("matrix is singular")
    # [num | 1] reduces to [1 | num^-1], and M^-1 = den num^-1
    den = M.den
    data = [x * den for row in rows for x in row[n:]]
    return Mat(M.domain, n, n, data)


def solve(A: Mat, b: Mat):
    """One solution x of A x = b, or None if the system is inconsistent."""
    if b.rows != A.rows or b.cols != 1:
        raise DomainError("right-hand side shape mismatch")
    aug = hstack([A, b])
    rk, piv, red = rref(aug)
    if piv and piv[-1] == A.cols:
        return None
    d = A.domain
    x = [d.zero()] * A.cols
    for i, pc in enumerate(piv):
        x[pc] = red[i, A.cols]
    return Mat(d, A.cols, 1, x)


# -- span utilities -----------------------------------------------------

def same_span(vs, ws) -> bool:
    """Whether two lists of Mats of one domain and shape span one space."""
    vs, ws = list(vs), list(ws)
    return (len(independent(vs)) == len(independent(ws))
            == len(independent(vs + ws)))


# -- exhaustive enumeration --------------------------------------------

def _meter(budget: int):
    """charge(k) adds k candidates to one walk's visits, and raises
    BudgetError once they pass the budget."""
    spent = 0

    def charge(k):
        nonlocal spent
        spent += k
        if spent > budget:
            raise BudgetError("walk of %d candidates exceeds budget %d"
                              % (spent, budget))
    return charge


def _row_walk(n: int, p: int, budget: int, step=None, state=()):
    """The one depth-first walk over GL_n(F_p) by rows, top-down.

    An iterator of (flat row-major tuple, state) for every invertible
    matrix in lexicographic entry order.  A matrix is invertible exactly
    when no row lies in the span of the rows above it, and that span is
    kept as the set of its p^k vectors, grown by one row at a time, so
    no candidate is eliminated.  When step is given, step(depth,
    prefix, state) is called on each prefix whose last row (index
    depth) is out of the span, and returns the state its completions
    carry, or None to drop them.  A step that reads no row below some
    depth names that depth as step.last (see _pruning_step; -1 when it
    reads no row): the walk stops there and yields each prefix of
    step.last + 1 rows in place of its completions, which the step
    cannot tell apart, and _completions counts them.  It charges the
    p^n rows of each prefix it extends, the first on the call before it
    builds them, and a walk that reads no row charges nothing.
    """
    Fp(p)  # validates p before the walk starts
    last = getattr(step, "last", n - 1)
    if last < 0:
        return iter([((), state)])
    charge = _meter(budget)
    charge(p ** n)
    vectors = list(itertools.product(range(p), repeat=n))

    def completions(prefix, span, depth, state):
        for v in vectors:
            if v in span:
                continue
            x = prefix + v
            kept = state if step is None else step(depth, x, state)
            if kept is None:
                continue
            if depth == last:
                yield x, kept
            else:
                charge(len(vectors))
                wider = {tuple((a + c * b) % p for a, b in zip(s, v))
                         for s in span for c in range(p)}
                yield from completions(x, wider, depth + 1, kept)

    return completions((), {vectors[0]}, 0, state)


def _completions(n: int, p: int, rows: int) -> int:
    """How many invertible matrices complete `rows` independent rows of
    F_p^n, counted the way _row_walk's loop meets them: the row at depth
    i has p^n - p^i choices outside the span of the p^i vectors of the
    rows above it."""
    count = 1
    for i in range(rows, n):
        count *= p ** n - p ** i
    return count


def enumerate_group(n: int, p: int, budget: int = DEFAULT_BUDGET):
    """Yield every g in GL_n(F_p) exactly once, as its flat row-major
    tuple of residues, the tuple intertwiner_forms' forms read.

    The stream equals the scan of all p^(n*n) matrices in lexicographic
    entry order (row-major) that keeps those of rank n, so it is
    deterministic and restartable: the unpruned _row_walk.
    """
    for g, _ in _row_walk(n, p, budget):
        yield g


def _expect_square(M: Mat, n: int, p: int) -> None:
    if M.domain.p != p or M.rows != n or M.cols != n:
        raise DomainError("expected %dx%d matrices over F_%d" % (n, n, p))


def _side_forms(side, n: int, p: int) -> list:
    """The intertwiner_forms of a side's pairs, each n x n over F_p."""
    forms = []
    for A, B in side:
        _expect_square(A, n, p)
        forms.extend(intertwiner_forms(A, B))
    return forms


def _depth_buckets(forms, width: int, depths: int) -> list:
    """Bucket d lists the forms whose last index a walk fixing `width`
    entries per depth fixes at depth d, where they are evaluated."""
    buckets = [[] for _ in range(depths)]
    for form in forms:
        buckets[max(t for t, _ in form) // width].append(form)
    return buckets


def _pruning_step(p: int, sides, width: int, depths: int):
    """step(depth, prefix, alive) of a pruned walk (see _row_walk) whose
    sides are lists of linear forms on the walked tuple: the sides in
    alive whose forms bucketed at this depth vanish mod p on the prefix,
    or None to drop the prefix when none is left.  step.last is the
    deepest depth with a form, -1 when there is none: below it every
    prefix keeps the sides it has."""
    buckets = [_depth_buckets(forms, width, depths) for forms in sides]
    # levels[d][s]: the forms of side s evaluated at depth d; None where
    # no side has one, so the depth keeps every side
    levels = [[b[d] for b in buckets] for d in range(depths)]
    levels = [level if any(level) else None for level in levels]

    def step(depth, prefix, alive):
        level = levels[depth]
        if level is None:
            return alive or None
        kept = []
        for s in alive:
            for form in level[s]:
                acc = 0
                for t, c in form:
                    acc += prefix[t] * c
                if acc % p:
                    break
            else:
                kept.append(s)
        return kept or None

    step.last = max((d for d, level in enumerate(levels)
                     if level is not None), default=-1)
    return step


def _tally(walk, nsides: int, weight=None):
    """(union, counts) of a pruned walk: counts[s] values keep side s
    alive, union values keep some side, each yielded value counted
    weight(value) times (once when weight is None); with no sides the
    walk is not run."""
    union, counts = 0, [0] * nsides
    for x, alive in (walk if nsides else ()):
        w = 1 if weight is None else weight(x)
        union += w
        for s in alive:
            counts[s] += w
    return union, counts


def intertwiner_counts(n: int, p: int, sides, budget: int = DEFAULT_BUDGET):
    """(union, counts) over GL_n(F_p): counts[s] is the number of x with
    x A == B x for every pair (A, B) of sides[s], and union the number
    of x that satisfy at least one side.  A side is a list of pairs of
    n x n matrices over F_p; a side with no pairs, or with no form that
    can be nonzero, holds everywhere, and with no sides the result is
    (0, []).

    One pruned _row_walk over y = w0 x w0 (x's tuple reversed), testing
    each form at the row that fixes its last entry, so for upper-
    triangular pairs (a Jordan nilpotent, its truncated exponentials,
    the image of x1(1)) each row of x pins down the forms of its own
    row.  Below the last row any form reads, no completion can change
    the sides a prefix keeps, so the walk stops there and each prefix
    counts for its _completions; with no form at all (X = 0, identity
    images) the walk is that one count, |GL_n(F_p)|, and charges
    nothing.  Raises BudgetError once the walk passes the budget.
    """
    last = n * n - 1
    moved = [[tuple((last - t, c) for t, c in form)
              for form in _side_forms(side, n, p)] for side in sides]
    walk = _row_walk(n, p, budget, _pruning_step(p, moved, n, n),
                     range(len(sides)))
    # a prefix of r rows, r * n entries, stands for its completions
    tails = {r * n: _completions(n, p, r) for r in range(n + 1)}
    return _tally(walk, len(sides), lambda y: tails[len(y)])


def combination_walk(p: int, n: int, basis, sides,
                     budget: int = DEFAULT_BUDGET):
    """(c, alive) for each c in F_p^k, in itertools.product order, whose
    x = 1 + c_1 B_1 + ... + c_k B_k satisfies some side, a list of pairs
    (A, B) with x A == B x; alive lists the sides it satisfies.  Each
    form of a side, composed with the flat tuples of 1, B_1, ..., B_k,
    is a linear form on (1, c), tested once the walk, which fixes 1 and
    then one coefficient at a time, fixes its last coefficient.  Raises
    DomainError unless the B_i and the pairs are n x n over F_p, and
    BudgetError once the values of c_i it scans pass the budget.
    """
    cols = [Mat.identity(Fp(p), n).num]
    for B in basis:
        _expect_square(B, n, p)
        cols.append(B.num)

    def on_coefficients(form):
        values = [sum(a * col[t] for t, a in form) % p for col in cols]
        return tuple((j, v) for j, v in enumerate(values) if v)

    composed = []
    for side in sides:
        forms = map(on_coefficients, _side_forms(side, n, p))
        composed.append([g for g in forms if g])
    step = _pruning_step(p, composed, 1, len(cols))
    choices = [(1,)] + [range(p)] * len(basis)
    charge = _meter(budget)

    def completions(prefix, alive):
        depth = len(prefix)
        charge(len(choices[depth]))
        for c in choices[depth]:
            v = prefix + (c,)
            kept = step(depth, v, alive)
            if kept is None:
                continue
            if depth == len(basis):
                yield v[1:], kept
            else:
                yield from completions(v, kept)

    return completions((), range(len(sides)))


def intertwiner_forms(A: Mat, B: Mat) -> list:
    """The linear forms in the entries of x, read on x's flat row-major
    tuple, whose common zeros are the x with x A == B x, for square A
    and B of one size and domain: one tuple of (index, coefficient)
    terms per entry of x A - B x that does not vanish identically, in
    row-major order.

    Entry (i, j) has terms x[i n + k] A[k, j] and -B[i, k] x[k n + j].
    The forms are built once, in O(n^3): terms at the shared index
    i n + j are merged and coefficients reduced mod p (kept exact over
    Q).  Raises DomainError on mixed domains or shapes.
    """
    A._check(B, same_shape=True)
    if not A.is_square():
        raise DomainError("square matrices expected")
    n = A.rows
    p = A.domain.p
    a, b = A.data, B.data
    forms = []
    for i in range(n):
        for j in range(n):
            coeffs = {}
            for k in range(n):
                if a[k * n + j]:
                    t = i * n + k
                    coeffs[t] = coeffs.get(t, 0) + a[k * n + j]
                if b[i * n + k]:
                    t = k * n + j
                    coeffs[t] = coeffs.get(t, 0) - b[i * n + k]
            if p is not None:
                coeffs = {t: c % p for t, c in coeffs.items()}
            form = tuple((t, c) for t, c in coeffs.items() if c)
            if form:
                forms.append(form)
    return forms


def commutes(a: Mat, b: Mat) -> bool:
    """Whether ab = ba, for square matrices of one size and domain, by
    the two products.  Raises DomainError on mixed domains or shapes."""
    a._check(b, same_shape=True)
    return a * b == b * a


def det(M: Mat):
    """Determinant by forward elimination with the standard pivot rule."""
    if not M.is_square():
        raise DomainError("determinant of non-square matrix")
    d = M.domain
    n = M.rows
    rows = M.to_lists()
    zero = d.zero()
    sign = 1
    acc = d.one()
    for c in range(n):
        pr = None
        for i in range(c, n):
            if rows[i][c] != zero:
                pr = i
                break
        if pr is None:
            return zero
        if pr != c:
            rows[c], rows[pr] = rows[pr], rows[c]
            sign = -sign
        piv = rows[c][c]
        acc = d.mul(acc, piv)
        inv = d.inv(piv)
        for i in range(c + 1, n):
            f = rows[i][c]
            if f != zero:
                f = d.mul(f, inv)
                rows[i] = [d.sub(a, d.mul(f, b))
                           for a, b in zip(rows[i], rows[c])]
    if sign < 0:
        acc = d.neg(acc)
    return acc


# -- operators on gl_n, vectorized row-major ---------------------------

def ad_operator(X: Mat) -> Mat:
    """Matrix of M -> [X, M] acting on vectorized n x n matrices.

    Row (i, j) holds X[i, k] at column (k, j) and -X[l, j] at column
    (i, l); the two meet only at column (i, j).  Zero entries of X are
    skipped, and the others are written in ints straight from X's
    numerators, over X's denominator.
    """
    if not X.is_square():
        raise DomainError("square matrix expected")
    n = X.rows
    x = X.num
    N = n * n
    data = [0] * (N * N)
    for i in range(n):
        for j in range(n):
            base = (i * n + j) * N
            for k in range(n):
                v = x[i * n + k]
                if v:
                    data[base + k * n + j] = v
            for l in range(n):
                v = x[l * n + j]
                if v:
                    data[base + i * n + l] -= v
    return Mat.from_ints(X.domain, N, N, data, X.den)


def devectorize(v: Mat, n: int) -> Mat:
    """Inverse of Mat.vectorize for square matrices."""
    if v.cols != 1 or v.rows != n * n:
        raise DomainError("expected an n^2 column vector")
    return Mat(v.domain, n, n, v.data)


# -- seeded sampling ----------------------------------------------------

def random_mat(domain, rows, cols, rnd, bound=9):
    if isinstance(domain, FpDomain):
        data = [rnd.randrange(domain.p) for _ in range(rows * cols)]
    else:
        data = [domain.of(rnd.randint(-bound, bound))
                for _ in range(rows * cols)]
    return Mat(domain, rows, cols, data)


def random_invertible(domain, n, rnd, bound=9):
    while True:
        M = random_mat(domain, n, n, rnd, bound)
        if rank(M) == n:
            return M
