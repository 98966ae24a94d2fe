"""Exact dense matrices over F_p and Q.

Entries are raw domain values (ints reduced mod p, or Fractions) in a
flat row-major tuple, so Mat objects are immutable and hashable.  All
elimination uses the same deterministic pivot rule: scan each column in
order and take the first row with a nonzero entry.  Over F_p the hot
loops run on plain ints to keep grid sweeps fast.
"""

from __future__ import annotations

import itertools
from operator import mul

from .errors import BudgetError, DomainError
from .scalars import Domain, Fp, FpDomain, QQ

DEFAULT_BUDGET = 2 ** 24


class Mat:
    __slots__ = ("domain", "rows", "cols", "data")

    def __init__(self, domain: Domain, rows: int, cols: int, data):
        self.domain = domain
        self.rows = rows
        self.cols = cols
        self.data = tuple(data)
        if len(self.data) != rows * cols:
            raise DomainError("entry count %d does not match %dx%d"
                              % (len(self.data), rows, cols))

    # -- constructors ---------------------------------------------------

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
        n = sum(b.rows for b in blocks)
        m = sum(b.cols for b in blocks)
        out = [[domain.zero()] * m for _ in range(n)]
        r0 = c0 = 0
        for b in blocks:
            if b.domain != domain:
                raise DomainError("mixed domains in block_diag")
            for i in range(b.rows):
                for j in range(b.cols):
                    out[r0 + i][c0 + j] = b.data[i * b.cols + j]
            r0 += b.rows
            c0 += b.cols
        return Mat(domain, n, m, [x for row in out for x in row])

    @staticmethod
    def from_cols(domain, cols):
        """Assemble a matrix from column vectors (k x 1 Mats or tuples)."""
        vecs = []
        for v in cols:
            if isinstance(v, Mat):
                if v.cols != 1:
                    raise DomainError("column vector expected")
                vecs.append(v.data)
            else:
                vecs.append(tuple(domain.of(x) for x in v))
        n = len(vecs[0])
        data = [vecs[j][i] for i in range(n) for j in range(len(vecs))]
        return Mat(domain, n, len(vecs), data)

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
        z = self.domain.zero()
        return all(x == z for x in self.data)

    def is_identity(self):
        if self.rows != self.cols:
            return False
        return self == Mat.identity(self.domain, self.rows)

    def is_square(self):
        return self.rows == self.cols

    def is_invertible(self):
        return self.is_square() and rank(self) == self.rows

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
        else:
            data = [a + b for a, b in zip(self.data, other.data)]
        return Mat(d, self.rows, self.cols, data)

    def __sub__(self, other):
        self._check(other, same_shape=True)
        d = self.domain
        if isinstance(d, FpDomain):
            p = d.p
            data = [(a - b) % p for a, b in zip(self.data, other.data)]
        else:
            data = [a - b for a, b in zip(self.data, other.data)]
        return Mat(d, self.rows, self.cols, data)

    def __neg__(self):
        d = self.domain
        return Mat(d, self.rows, self.cols, [d.neg(x) for x in self.data])

    def __mul__(self, other):
        self._check(other, same_shape=False)
        if self.cols != other.rows:
            raise DomainError("inner dimension mismatch")
        d = self.domain
        n, k, m = self.rows, self.cols, other.cols
        a, b = self.data, other.data
        out = []
        if isinstance(d, FpDomain):
            p = d.p
            for i in range(n):
                ai = a[i * k:(i + 1) * k]
                for j in range(m):
                    s = 0
                    for t in range(k):
                        s += ai[t] * b[t * m + j]
                    out.append(s % p)
        else:
            for i in range(n):
                ai = a[i * k:(i + 1) * k]
                for j in range(m):
                    s = d.zero()
                    for t in range(k):
                        s = s + ai[t] * b[t * m + j]
                    out.append(s)
        return Mat(d, n, m, out)

    def scale(self, c):
        d = self.domain
        c = d.of(c)
        if isinstance(d, FpDomain):
            p = d.p
            data = [(c * x) % p for x in self.data]
        else:
            data = [c * x for x in self.data]
        return Mat(d, self.rows, self.cols, data)

    def __pow__(self, e: int):
        if not self.is_square():
            raise DomainError("power of non-square matrix")
        if e < 0:
            return inverse(self) ** (-e)
        result = Mat.identity(self.domain, self.rows)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def transpose(self):
        data = [self.data[i * self.cols + j]
                for j in range(self.cols) for i in range(self.rows)]
        return Mat(self.domain, self.cols, self.rows, data)

    def trace(self):
        if not self.is_square():
            raise DomainError("trace of non-square matrix")
        t = self.domain.zero()
        for i in range(self.rows):
            t = self.domain.add(t, self.data[i * self.cols + i])
        return t

    # -- equality -------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.domain == other.domain
                and self.rows == other.rows and self.cols == other.cols
                and self.data == other.data)

    def __hash__(self):
        return hash((self.domain, self.rows, self.cols, self.data))

    def __repr__(self):
        return "Mat(%r, %r)" % (self.domain, self.to_lists())


def bracket(a: Mat, b: Mat) -> Mat:
    """Lie bracket [a, b] = ab - ba."""
    return a * b - b * a


def hstack(mats):
    mats = list(mats)
    d = mats[0].domain
    r = mats[0].rows
    rows = []
    for i in range(r):
        row = []
        for m in mats:
            if m.rows != r or m.domain != d:
                raise DomainError("hstack mismatch")
            row.extend(m.row_values(i))
        rows.append(row)
    return Mat(d, r, sum(m.cols for m in mats),
               [x for row in rows for x in row])


def vstack(mats):
    mats = list(mats)
    d = mats[0].domain
    c = mats[0].cols
    data = []
    for m in mats:
        if m.cols != c or m.domain != d:
            raise DomainError("vstack mismatch")
        data.extend(m.data)
    return Mat(d, sum(m.rows for m in mats), c, data)


# -- elimination --------------------------------------------------------

def _rref_rows(rows, domain):
    """In-place reduced row echelon form; returns (rank, pivot columns).

    Pivot rule: first nonzero row in each column, scanning columns left
    to right.  Specialised int path for F_p.
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
        zero = domain.zero()
        for c in range(n):
            if r == m:
                break
            pr = None
            for i in range(r, m):
                if rows[i][c] != zero:
                    pr = i
                    break
            if pr is None:
                continue
            rows[r], rows[pr] = rows[pr], rows[r]
            inv = domain.inv(rows[r][c])
            if inv != domain.one():
                rows[r] = [x * inv for x in rows[r]]
            rr = rows[r]
            for i in range(m):
                f = rows[i][c]
                if i != r and f != zero:
                    ri = rows[i]
                    rows[i] = [ri[k] - f * rr[k] for k in range(n)]
            pivots.append(c)
            r += 1
    return len(pivots), pivots


def rref(M: Mat):
    """(rank, pivot columns, reduced matrix)."""
    rows = M.to_lists()
    rk, piv = _rref_rows(rows, M.domain)
    flat = [x for row in rows for x in row]
    return rk, piv, Mat(M.domain, M.rows, M.cols, flat)


def rank(M: Mat) -> int:
    rows = M.to_lists()
    rk, _ = _rref_rows(rows, M.domain)
    return rk


def rank_nullspace(M: Mat):
    """(rank, basis of the right null space as column vectors).

    The basis is the standard one read off the RREF: one vector per free
    column, in increasing column order, with a 1 in the free position.
    """
    rows = M.to_lists()
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
    aug = hstack([M, Mat.identity(M.domain, n)])
    rk, piv, red = rref(aug)
    if rk < n or piv[:n] != list(range(n)):
        raise DomainError("matrix is singular")
    data = []
    for i in range(n):
        data.extend(red.row_values(i)[n:])
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

class IncrementalSpan:
    """Growing row-space with cheap membership tests.

    Vectors are reduced against a maintained echelon ladder, so adding m
    vectors of length n costs O(m * rank * n) instead of re-running full
    elimination per candidate.
    """

    def __init__(self, domain):
        self.domain = domain
        self._rows = []  # (pivot index, normalized row list), sorted by pivot

    @property
    def dim(self) -> int:
        return len(self._rows)

    def _residual(self, vec):
        d = self.domain
        if isinstance(d, FpDomain):
            p = d.p
            v = [x % p for x in vec]
            for piv, row in self._rows:
                f = v[piv]
                if f:
                    v = [(a - f * b) % p for a, b in zip(v, row)]
            return v
        v = [d.of(x) for x in vec]
        zero = d.zero()
        for piv, row in self._rows:
            f = v[piv]
            if f != zero:
                v = [a - f * b for a, b in zip(v, row)]
        return v

    def contains(self, vec) -> bool:
        zero = self.domain.zero()
        return all(x == zero for x in self._residual(vec))

    def add(self, vec) -> bool:
        """Add a vector; True if it enlarged the span."""
        d = self.domain
        v = self._residual(vec)
        zero = d.zero()
        piv = None
        for i, x in enumerate(v):
            if x != zero:
                piv = i
                break
        if piv is None:
            return False
        inv = d.inv(v[piv])
        if isinstance(d, FpDomain):
            p = d.p
            v = [(x * inv) % p for x in v]
        elif inv != d.one():
            v = [x * inv for x in v]
        self._rows.append((piv, v))
        self._rows.sort(key=lambda t: t[0])
        return True

    def add_mat(self, M: Mat) -> bool:
        return self.add(M.data)

    def contains_mat(self, M: Mat) -> bool:
        return self.contains(M.data)


def span_rank(vectors) -> int:
    vectors = list(vectors)
    if not vectors:
        return 0
    return rank(hstack(vectors))


def in_span(vectors, v) -> bool:
    vectors = list(vectors)
    if not vectors:
        return v.is_zero()
    base = hstack(vectors)
    return rank(base) == rank(hstack([base, v]))


def same_span(vs, ws) -> bool:
    vs, ws = list(vs), list(ws)
    if not vs and not ws:
        return True
    if not vs:
        return all(w.is_zero() for w in ws)
    if not ws:
        return all(v.is_zero() for v in vs)
    a, b = hstack(vs), hstack(ws)
    ra, rb = rank(a), rank(b)
    return ra == rb == rank(hstack([a, b]))


# -- exhaustive enumeration --------------------------------------------

def enumerate_group(n: int, p: int, budget: int = DEFAULT_BUDGET):
    """Yield every g in GL_n(F_p) exactly once.

    The stream equals the scan of all p^(n*n) matrices in lexicographic
    entry order (row-major) that keeps those of rank n, so it is
    deterministic and restartable.  It is built row by row: a matrix is
    invertible exactly when no row lies in the span of the rows above
    it, and that span is kept as the set of its p^k vectors, grown by
    one row at a time, so no candidate is eliminated.  Raises
    BudgetError up front when p^(n*n) exceeds the budget.
    """
    dom = Fp(p)
    total = p ** (n * n)
    if total > budget:
        raise BudgetError("enumeration of %d candidate matrices exceeds "
                          "budget %d" % (total, budget))
    if n == 0:
        yield Mat(dom, 0, 0, ())
        return
    vectors = list(itertools.product(range(p), repeat=n))

    def completions(prefix, span, rows_left):
        for v in vectors:
            if v in span:
                continue
            if rows_left == 1:
                yield Mat(dom, n, n, prefix + v)
            else:
                wider = {tuple((a + c * b) % p for a, b in zip(s, v))
                         for s in span for c in range(p)}
                yield from completions(prefix + v, wider, rows_left - 1)

    yield from completions((), {vectors[0]}, n)


def commutes(a: Mat, b: Mat) -> bool:
    """Whether ab = ba, for square matrices of one size and domain.

    Compares ab and ba entry by entry on the flat tuples, stopping at
    the first difference, without building either product: over F_p
    the difference of the two entry sums is reduced mod p, over Q it
    is compared exactly.  Raises DomainError on mixed domains or shapes.
    """
    a._check(b, same_shape=True)
    if not a.is_square():
        raise DomainError("square matrices expected")
    n = a.rows
    p = a.domain.p
    x, y = a.data, b.data
    x_cols = [x[j::n] for j in range(n)]
    y_cols = [y[j::n] for j in range(n)]
    for i in range(n):
        x_row, y_row = x[i * n:(i + 1) * n], y[i * n:(i + 1) * n]
        for j in range(n):
            diff = sum(map(mul, x_row, y_cols[j])) \
                - sum(map(mul, y_row, x_cols[j]))
            if p is not None:
                diff %= p
            if diff:
                return False
    return True


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
    """Matrix of M -> [X, M] acting on vectorized n x n matrices."""
    if not X.is_square():
        raise DomainError("square matrix expected")
    n = X.rows
    d = X.domain
    z = d.zero()
    data = [z] * (n * n * n * n)
    N = n * n
    for i in range(n):
        for j in range(n):
            row = i * n + j
            for k in range(n):
                data[row * N + k * n + j] = d.add(data[row * N + k * n + j],
                                                  X[i, k])
            for l in range(n):
                data[row * N + i * n + l] = d.sub(data[row * N + i * n + l],
                                                  X[l, j])
    return Mat(d, N, N, data)


def conj_operator(u: Mat, u_inv: Mat | None = None) -> Mat:
    """Matrix of M -> u M u^-1 acting on vectorized n x n matrices."""
    if not u.is_square():
        raise DomainError("square matrix expected")
    if u_inv is None:
        u_inv = inverse(u)
    n = u.rows
    d = u.domain
    N = n * n
    data = [d.zero()] * (N * N)
    for i in range(n):
        for j in range(n):
            row = i * n + j
            for k in range(n):
                uik = u[i, k]
                if uik == d.zero():
                    continue
                for l in range(n):
                    data[row * N + k * n + l] = d.add(
                        data[row * N + k * n + l], d.mul(uik, u_inv[l, j]))
    return Mat(d, N, N, data)


def mul_operator(A: Mat, B: Mat) -> Mat:
    """Matrix of M -> A M B acting on vectorized n x n matrices."""
    if not (A.is_square() and B.is_square() and A.rows == B.rows):
        raise DomainError("square matrices of equal size expected")
    n = A.rows
    d = A.domain
    N = n * n
    z = d.zero()
    data = [z] * (N * N)
    for i in range(n):
        for k in range(n):
            aik = A[i, k]
            if aik == z:
                continue
            for j in range(n):
                row = i * n + j
                for l in range(n):
                    data[row * N + k * n + l] = d.add(
                        data[row * N + k * n + l], d.mul(aik, B[l, j]))
    return Mat(d, N, N, data)


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
