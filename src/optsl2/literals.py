"""JSON literal formats for scalars, domains and matrices.

Scalars: ints over F_p, and over Q rationals written "a/b" (plain ints
stay ints).  Domains: {"domain": "Fp", "p": <prime>} or {"domain":
"Q"}.  Matrices: a domain literal plus "rows": R, "cols": C and
"entries": [[..]] of scalar literals.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError
from .matrices import Mat
from .scalars import Fp, FpDomain, QQ, format_rational, parse_rational


def scalar_to_literal(domain, x):
    if isinstance(domain, FpDomain):
        return int(x)
    return format_rational(x)


def scalar_from_literal(domain, v):
    if isinstance(domain, FpDomain):
        if not isinstance(v, int):
            raise DomainError("mod-p entries must be integers, got %r" % (v,))
        return domain.of(v)
    if isinstance(v, str):
        return parse_rational(v)
    if isinstance(v, int):
        return Fraction(v)
    raise DomainError("rational entries must be ints or 'a/b' strings, "
                      "got %r" % (v,))


def domain_to_literal(domain) -> dict:
    if isinstance(domain, FpDomain):
        return {"domain": "Fp", "p": domain.p}
    return {"domain": "Q"}


def domain_from_literal(obj):
    kind = obj.get("domain")
    if kind == "Fp":
        if "p" not in obj:
            raise DomainError("Fp literal needs a prime p")
        return Fp(obj["p"])
    if kind == "Q":
        return QQ
    raise DomainError("unknown domain %r" % (kind,))


def mat_to_literal(M: Mat) -> dict:
    lit = domain_to_literal(M.domain)
    lit["rows"] = M.rows
    lit["cols"] = M.cols
    lit["entries"] = [[scalar_to_literal(M.domain, M[i, j])
                       for j in range(M.cols)] for i in range(M.rows)]
    return lit


def mat_from_literal(obj) -> Mat:
    """Inverse of mat_to_literal; no command reads matrix literals, and
    test_literals keeps it as the round-trip reference."""
    dom = domain_from_literal(obj)
    rows, cols = obj["rows"], obj["cols"]
    entries = obj["entries"]
    if len(entries) != rows or any(len(r) != cols for r in entries):
        raise DomainError("entry grid does not match rows x cols")
    data = [scalar_from_literal(dom, v) for row in entries for v in row]
    return Mat(dom, rows, cols, data)
