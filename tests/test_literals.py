import json
from fractions import Fraction

import pytest

from optsl2.errors import DomainError
from optsl2.literals import (domain_from_literal, domain_to_literal,
                             mat_from_literal, mat_to_literal,
                             scalar_from_literal, scalar_to_literal)
from optsl2.matrices import Mat
from optsl2.scalars import Fp, QQ

F3 = Fp(3)
F5 = Fp(5)


def test_scalar_literals():
    assert scalar_to_literal(F5, F5.of(7)) == 2
    assert scalar_to_literal(QQ, Fraction(3, 2)) == "3/2"
    assert scalar_to_literal(QQ, Fraction(4, 2)) == 2
    assert scalar_from_literal(F5, 7) == 2
    assert scalar_from_literal(QQ, "3/2") == Fraction(3, 2)
    assert scalar_from_literal(QQ, -4) == Fraction(-4)
    with pytest.raises(DomainError):
        scalar_from_literal(F5, "2")
    with pytest.raises(DomainError):
        scalar_from_literal(QQ, 1.5)


def test_domain_literals():
    assert domain_to_literal(F3) == {"domain": "Fp", "p": 3}
    assert domain_to_literal(QQ) == {"domain": "Q"}
    assert domain_from_literal({"domain": "Fp", "p": 3}) is F3
    assert domain_from_literal({"domain": "Q"}) is QQ
    with pytest.raises(DomainError):
        domain_from_literal({"domain": "Fp"})
    with pytest.raises(DomainError):
        domain_from_literal({"domain": "R"})


def test_matrix_literal_round_trip():
    M = Mat.from_rows(F3, [[1, 2], [0, 1]])
    lit = mat_to_literal(M)
    assert lit == {"domain": "Fp", "p": 3, "rows": 2, "cols": 2,
                   "entries": [[1, 2], [0, 1]]}
    assert mat_from_literal(lit) == M
    R = Mat.from_rows(QQ, [[Fraction(1, 2), 3]])
    lit_q = mat_to_literal(R)
    assert lit_q == {"domain": "Q", "rows": 1, "cols": 2,
                     "entries": [["1/2", 3]]}
    assert mat_from_literal(lit_q) == R
    # the literal is honest JSON
    assert mat_from_literal(json.loads(json.dumps(lit_q))) == R


def test_matrix_literal_validation():
    with pytest.raises(DomainError):
        mat_from_literal({"domain": "Fp", "p": 3, "rows": 2, "cols": 2,
                          "entries": [[1, 2]]})
