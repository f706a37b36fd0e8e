"""Mutation fuzz of every text and JSON reader: bad input raises ValueError.

Each reader gets a few hundred seeded mutations of a valid input (characters
and lines for text, keys, elements and value types for JSON objects).  A
mutant may still parse; what it may not do is raise anything but ValueError,
which is what the CLI turns into a usage error.
"""

import copy
import json
import random
from fractions import Fraction

import pytest

from ckcoh.algebra import LieAlgebra, build_su_omega, build_u_omega
from ckcoh.cochains import OneCochain, TwoCochain
from ckcoh.extensions import BasicCoefficients
from ckcoh.omega import OmegaVector

MUTANTS = 300
CHARS = "0123456789-+/ .,:#\n\t\"'[]{}esuIX−"
VALUES = (None, True, 0, -1, 2, 7, 1.5, "", "x", "1/0", "3", [], [1], {}, {"a": 1})


def _mutate_text(text, rng):
    for _ in range(rng.randint(1, 2)):
        at = rng.randrange(len(text) + 1)
        kind = rng.randrange(5)
        if kind == 0:
            text = text[:at] + text[at + 1 :]
        elif kind == 1:
            text = text[:at] + rng.choice(CHARS) + text[at:]
        elif kind == 2:
            text = text[:at] + rng.choice(CHARS) + text[at + 1 :]
        else:
            lines = text.split("\n")
            k = rng.randrange(len(lines))
            if kind == 3:
                lines.insert(k, lines[rng.randrange(len(lines))])
            else:
                del lines[k]
            text = "\n".join(lines)
    return text


def _containers(obj, out):
    if isinstance(obj, (dict, list)) and obj:
        out.append(obj)
        for child in obj.values() if isinstance(obj, dict) else obj:
            _containers(child, out)
    return out


def _mutate_obj(obj, rng):
    obj = copy.deepcopy(obj)
    for _ in range(rng.randint(1, 2)):
        found = _containers(obj, [])
        if not found:
            return rng.choice(VALUES)
        node = rng.choice(found)
        key = rng.choice(list(node) if isinstance(node, dict) else range(len(node)))
        if rng.random() < 0.3:
            del node[key]
        else:
            node[key] = copy.deepcopy(rng.choice(VALUES))
    return obj


def _survives(read, data):
    try:
        read(data)
    except ValueError:
        return False
    return True


def _fuzz(read, mutants):
    parsed = sum(_survives(read, data) for data in mutants)
    # both outcomes must occur, or the mutations miss the reader
    assert 0 < parsed < len(mutants)


G = build_u_omega(2, [Fraction(1, 2), 0])
XI = TwoCochain(6, {(0, 1): 2, (1, 4): Fraction(-3, 5), (2, 5): 1})
MU = OneCochain(7, {0: 1, 3: Fraction(2, 3), 6: -4})
COEFFS = BasicCoefficients(
    eta={(0, 2): 1}, tau={(1, 2): Fraction(1, 2)}, alpha={2: -1}, beta={(1, 2): 3}, gamma={1: 2}
)

TEXT_READERS = [
    ("LieAlgebra", LieAlgebra.from_text, [G.to_text(), build_su_omega(1, [0]).to_text()]),
    ("TwoCochain", TwoCochain.from_text, [XI.to_text()]),
    ("OmegaVector", OmegaVector.parse, ["+,0,-1/2,3", "−,2/7,0"]),
]
JSON_READERS = [
    ("LieAlgebra", LieAlgebra.from_json_obj, G.to_json_obj()),
    ("TwoCochain", TwoCochain.from_json_obj, XI.to_json_obj()),
    ("OneCochain", OneCochain.from_json_obj, MU.to_json_obj()),
    ("BasicCoefficients", BasicCoefficients.from_json_obj, COEFFS.to_json_obj()),
]


@pytest.mark.parametrize("name,read,seeds", TEXT_READERS, ids=[r[0] for r in TEXT_READERS])
def test_text_reader_raises_only_value_error(name, read, seeds):
    for seed in seeds:
        assert _survives(read, seed)
    rng = random.Random(name)
    _fuzz(read, [_mutate_text(rng.choice(seeds), rng) for _ in range(MUTANTS)])


@pytest.mark.parametrize("name,read,obj", JSON_READERS, ids=[r[0] for r in JSON_READERS])
def test_json_reader_raises_only_value_error(name, read, obj):
    assert _survives(read, json.loads(json.dumps(obj)))
    rng = random.Random(name)
    _fuzz(read, [_mutate_obj(obj, rng) for _ in range(MUTANTS)])
