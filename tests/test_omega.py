import random
from fractions import Fraction

import pytest

import ckcoh.omega
from ckcoh.algebra import build_su_omega
from ckcoh.extensions import classify
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


@pytest.mark.parametrize(
    "text, position",
    [("0,,+", 2), ("1,1,", 3), ("1, ,1", 2), (",1", 1), ("+,-,0,,", 4)],
)
def test_parse_rejects_empty_entries(text, position):
    with pytest.raises(ValueError, match=f"position {position}"):
        OmegaVector.parse(text)


def test_parse_keeps_whitespace_around_entries():
    assert OmegaVector.parse(" 0 , + ,-1/2 ").values == (0, 1, Fraction(-1, 2))
    with pytest.raises(ValueError, match="empty omega list"):
        OmegaVector.parse("  ")


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


def test_exponent_notation_rejected_decimals_kept():
    for token in ("1e400", "2E3", "1/2e1"):
        with pytest.raises(ValueError, match="exponent"):
            parse_rational(token)
    with pytest.raises(ValueError, match="1e400"):
        OmegaVector.parse("+,1e400")
    assert parse_rational("0.5") == Fraction(1, 2)
    assert OmegaVector.parse("0.5,-1.25").values == (Fraction(1, 2), Fraction(-5, 4))


def test_text_is_refused_and_sent_to_parse():
    for text in ("10", "1,0", ""):
        with pytest.raises(TypeError, match="OmegaVector.parse"):
            OmegaVector(text)
    with pytest.raises(TypeError, match="OmegaVector.parse"):
        build_su_omega(2, "10")
    with pytest.raises(TypeError, match="OmegaVector.parse"):
        classify("su", 2, "10")
    assert OmegaVector(OmegaVector([1, 0])) == OmegaVector.parse("1,0")


def test_an_omega_vector_is_not_coerced_again(monkeypatch):
    omega = OmegaVector.parse("2/3,0,-1")
    monkeypatch.setattr(ckcoh.omega, "ratio", None)  # any call would raise
    again = OmegaVector(omega)
    assert again == omega and again.values is omega.values


def _mutate(text, rng):
    """One or two seeded edits: a character deleted, inserted or replaced, or a line repeated or dropped."""
    chars = "0123456789-+/ .,:#\n\t\"'[]{}esuIX−"
    for _ in range(rng.randint(1, 2)):
        at = rng.randrange(len(text) + 1)
        kind = rng.randrange(5)
        if kind == 0:
            text = text[:at] + text[at + 1 :]
        elif kind == 1:
            text = text[:at] + rng.choice(chars) + text[at:]
        elif kind == 2:
            text = text[:at] + rng.choice(chars) + text[at + 1 :]
        else:
            lines = text.split("\n")
            k = rng.randrange(len(lines))
            if kind == 3:
                lines.insert(k, lines[rng.randrange(len(lines))])
            else:
                del lines[k]
            text = "\n".join(lines)
    return text


def test_parse_raises_only_value_error():
    # the CLI turns a ValueError into a usage error; anything else would be a traceback
    seeds = ["+,0,-1/2,3", "−,2/7,0"]
    for seed in seeds:
        OmegaVector.parse(seed)
    rng = random.Random("OmegaVector")
    parsed = 0
    for _ in range(300):
        try:
            OmegaVector.parse(_mutate(rng.choice(seeds), rng))
        except ValueError:
            continue
        parsed += 1
    # both outcomes must occur, or the mutations miss the parser
    assert 0 < parsed < 300
