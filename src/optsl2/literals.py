"""JSON literal formats for scalars, domains and matrices.

Scalars: ints over F_p, and over Q rationals written "a/b" (plain ints
stay ints).  Domains: {"domain": "Fp", "p": <prime>} or {"domain":
"Q"}.  Matrices: a domain literal plus "rows": R, "cols": C and
"entries": [[..]] of scalar literals.  Commands write these literals;
none reads them back.
"""

from __future__ import annotations

from .matrices import Mat
from .scalars import FpDomain, format_rational


def scalar_to_literal(domain, x):
    if isinstance(domain, FpDomain):
        return int(x)
    return format_rational(x)


def domain_to_literal(domain) -> dict:
    if isinstance(domain, FpDomain):
        return {"domain": "Fp", "p": domain.p}
    return {"domain": "Q"}


def mat_to_literal(M: Mat) -> dict:
    lit = domain_to_literal(M.domain)
    lit["rows"] = M.rows
    lit["cols"] = M.cols
    lit["entries"] = [[scalar_to_literal(M.domain, M[i, j])
                       for j in range(M.cols)] for i in range(M.rows)]
    return lit
