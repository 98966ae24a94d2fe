import pytest

from optsl2.errors import DomainError, InconsistencyError, PreconditionError
from optsl2.partitions import partitions_of
from optsl2.tilting import (CharacterVector, ModuleDescriptor,
                            TiltingDecomposition, adjoint_descriptor,
                            char_of, fixdim_of, tilting_decompose)


def test_character_vector_basics():
    c = CharacterVector({2: 1, 0: 2, -2: 1})
    assert sum(c.as_dict().values()) == 4
    assert c.mult(0) == 2 and c.mult(4) == 0
    assert c.support == [2, 0, -2]
    assert CharacterVector({1: 0}) == CharacterVector({})
    assert CharacterVector.from_weights([1, -1, 1, -1]).mult(1) == 2


def test_character_vector_rejects_bad_input():
    with pytest.raises(DomainError):
        CharacterVector({1: 1})  # not symmetric
    with pytest.raises(DomainError):
        CharacterVector({0: -1})


def test_character_vector_addition():
    a = CharacterVector({1: 1, -1: 1})
    b = CharacterVector({0: 1})
    assert (a + b).as_dict() == {1: 1, -1: 1, 0: 1}


def test_char_of_known_strings():
    assert char_of("weyl", 2, 3).as_dict() == {2: 1, 0: 1, -2: 1}
    assert char_of("simple", 1, 2).as_dict() == {1: 1, -1: 1}
    # T(m) for m >= p carries the extra Weyl string
    assert char_of("tilting", 2, 2).as_dict() == {2: 1, 0: 2, -2: 1}
    # T(p-1) is just the Steinberg Weyl module
    assert char_of("tilting", 1, 2) == char_of("weyl", 1, 2)
    assert char_of("tilting", 4, 3).as_dict() == {4: 1, 2: 1, 0: 2, -2: 1,
                                                  -4: 1}


def test_char_of_range_validation():
    with pytest.raises(PreconditionError):
        char_of("simple", 3, 3)
    with pytest.raises(PreconditionError):
        char_of("tilting", 1, 3)
    with pytest.raises(PreconditionError):
        char_of("tilting", 5, 3)
    with pytest.raises(DomainError):
        char_of("induced", 1, 3)
    with pytest.raises(DomainError):
        char_of("weyl", 1, 4)


def test_fixdim_values():
    assert fixdim_of("simple", 2, 5, 5) == 1
    assert fixdim_of("simple", 2, 5, 0) == 1
    assert fixdim_of("tilting", 6, 5, 5) == 2
    assert fixdim_of("tilting", 6, 5, 0) == 2
    assert fixdim_of("tilting", 4, 5, 5) == 1
    assert fixdim_of("weyl", 7, 5, 0) == 1
    with pytest.raises(PreconditionError):
        fixdim_of("weyl", 7, 5, 5)
    with pytest.raises(DomainError):
        fixdim_of("simple", 1, 5, 3)


def test_decomposition_rendering():
    dec = TiltingDecomposition(p=3, r={0: 1}, v={2: 2, 0: 1})
    assert dec.summands() == ["T(4)", "L(2)^2", "L(0)"]
    assert str(dec) == "T(4) + L(2)^2 + L(0)"
    assert str(TiltingDecomposition(p=3, r={}, v={})) == "0"


def test_decompose_golden_sl2_adjoints():
    # gl_2 through the regular map at p = 2: T(2)
    dec2 = tilting_decompose(adjoint_descriptor((2,), 2), 2)
    assert str(dec2) == "T(2)"
    # gl_3 through the regular map at p = 3: T(4) + L(2)
    dec3 = tilting_decompose(adjoint_descriptor((3,), 3), 3)
    assert str(dec3) == "T(4) + L(2)"


def test_decompose_reconstructs_character_and_fixdims():
    for p in (2, 3, 5):
        for n in range(1, 6):
            for lam in partitions_of(n):
                if lam and lam[0] > p:
                    continue
                desc = adjoint_descriptor(lam, p)
                dec = tilting_decompose(desc, p)
                assert dec.character() == desc.character
                assert dec.fixdim(p) == desc.fix_p
                assert dec.fixdim(0) == desc.fix_0


def test_decompose_rejects_wide_window():
    wide = ModuleDescriptor(
        character=CharacterVector({4: 1, -4: 1}), fix_p=1, fix_0=1)
    with pytest.raises(PreconditionError):
        tilting_decompose(wide, 2)


def test_decompose_rejects_non_tilting_character():
    # a bare weight pair 2, -2 with no weight 0 cannot be assembled at
    # p = 3: peeling W(2) drives the weight-0 slot negative
    bad = ModuleDescriptor(
        character=CharacterVector({2: 1, -2: 1}), fix_p=1, fix_0=1)
    with pytest.raises(PreconditionError, match="non-negative"):
        tilting_decompose(bad, 3)


def test_decompose_detects_fixed_point_contradiction():
    good = adjoint_descriptor((2,), 2)
    tampered = ModuleDescriptor(character=good.character,
                                fix_p=good.fix_p + 1, fix_0=good.fix_0)
    with pytest.raises(InconsistencyError, match="fixed-point count"):
        tilting_decompose(tampered, 2)


def test_adjoint_descriptor_contents():
    desc = adjoint_descriptor((2,), 2)
    assert desc.character.as_dict() == {2: 1, 0: 2, -2: 1}
    assert desc.fix_p == 2
    assert desc.fix_0 == 2
    with pytest.raises(PreconditionError):
        adjoint_descriptor((3,), 2)


def test_adjoint_fix0_is_centralizer_dimension():
    desc = adjoint_descriptor((2, 1), 3)
    # conjugate of (2,1) is (2,1): 4 + 1 = 5
    assert desc.fix_0 == 5
    assert sum(desc.character.as_dict().values()) == 9
