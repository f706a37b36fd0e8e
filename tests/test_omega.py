from fractions import Fraction

import pytest

from ckcoh.omega import OmegaVector, sign_vectors
from ckcoh.rationals import format_rational, parse_rational, ratio


def test_omega_aa_is_one():
    om = OmegaVector([5, 7, -3])
    for a in range(4):
        assert om.product(a, a) == 1


def test_all_ones_product():
    om = OmegaVector([1, 1, 1])
    assert om.product(0, 3) == 1


def test_zero_factor_annihilates():
    om = OmegaVector([1, 0, -1])
    assert om.product(0, 3) == 0
    assert om.product(1, 2) == 0
    assert om.product(2, 3) == -1


def test_product_out_of_range():
    om = OmegaVector([1, 1])
    with pytest.raises(IndexError):
        om.product(1, 3)
    with pytest.raises(IndexError):
        om.product(-1, 1)
    with pytest.raises(IndexError):
        om.product(2, 1)


def test_factorization_identity_exhaustive():
    # omega_ac = omega_ab * omega_bc for every a <= b <= c, N <= 6 sign grids
    for n in range(1, 7):
        for om in sign_vectors(n):
            for a in range(n + 1):
                for b in range(a, n + 1):
                    for c in range(b, n + 1):
                        assert om.product(a, c) == om.product(a, b) * om.product(b, c)


def test_factorization_identity_rationals():
    om = OmegaVector([Fraction(2, 3), -5, Fraction(-1, 7), 4])
    for a in range(5):
        for b in range(a, 5):
            for c in range(b, 5):
                assert om.product(a, c) == om.product(a, b) * om.product(b, c)


def test_adjacent_product_is_omega_k():
    om = OmegaVector([Fraction(2, 3), -5, 0])
    for k in range(1, 4):
        assert om.product(k - 1, k) == om.omega(k)


def test_parse_signs_and_rationals():
    om = OmegaVector.parse("+,−,0")
    assert om.values == (1, -1, 0)
    om = OmegaVector.parse("2/3, -1, 0")
    assert om.values == (Fraction(2, 3), -1, 0)
    assert OmegaVector.parse(om.tokens()) == om
    with pytest.raises(ValueError):
        OmegaVector.parse("")
    with pytest.raises(ValueError):
        OmegaVector.parse("x,y")


def test_zero_set_and_contracted():
    om = OmegaVector([1, 0, -1])
    assert om.zero_set == (2,)
    assert om.n_zero == 1
    assert om.contracted(3).values == (1, 0, 0)
    assert om.reversed().values == (-1, 0, 1)


def test_sign_vector_count():
    assert sum(1 for _ in sign_vectors(4)) == 81


def test_rational_helpers_normal_form():
    v = ratio(Fraction(6, 3))
    assert isinstance(v, int) and v == 2
    v = parse_rational("-10/4")
    assert v == Fraction(-5, 2) and v.denominator == 2 > 0
    assert format_rational(v) == "-5/2"
    assert format_rational(7) == "7"
    with pytest.raises(ValueError):
        parse_rational("1/0")
