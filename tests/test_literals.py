import json
from fractions import Fraction

from optsl2.literals import (domain_to_literal, mat_to_literal,
                             scalar_to_literal)
from optsl2.matrices import Mat
from optsl2.scalars import Fp, QQ

F3 = Fp(3)
F5 = Fp(5)


def test_scalar_literals():
    assert scalar_to_literal(F5, F5.of(7)) == 2
    assert scalar_to_literal(QQ, Fraction(3, 2)) == "3/2"
    assert scalar_to_literal(QQ, Fraction(4, 2)) == 2


def test_domain_literals():
    assert domain_to_literal(F3) == {"domain": "Fp", "p": 3}
    assert domain_to_literal(QQ) == {"domain": "Q"}


def test_matrix_literal_round_trip():
    M = Mat.from_rows(F3, [[1, 2], [0, 1]])
    assert mat_to_literal(M) == {"domain": "Fp", "p": 3, "rows": 2,
                                 "cols": 2, "entries": [[1, 2], [0, 1]]}
    lit_q = mat_to_literal(Mat.from_rows(QQ, [[Fraction(1, 2), 3]]))
    assert lit_q == {"domain": "Q", "rows": 1, "cols": 2,
                     "entries": [["1/2", 3]]}
    # the literal is honest JSON
    assert json.loads(json.dumps(lit_q)) == lit_q
