"""`cli._write_json` writes exactly what `json.dumps(obj, indent=2, sort_keys=True)` gives.

Checked on every JSON golden under `tests/data` and on a seeded fuzz of
nested payloads: α/β/γ/ω labels, quotes, backslashes and control
characters, empty and nested-empty containers, negative ints and ints over
64 bits, booleans in lists and as dict values, and None.  Every payload is
also written one piece at a time, so the pieces must join to those bytes.
"""

import glob
import json
import os
import random
from fractions import Fraction

import pytest

from ckcoh.cli import _write_json

DATA = os.path.join(os.path.dirname(__file__), "data")


def written(obj) -> tuple[str, int]:
    """The text `_write_json` gives for obj, and how many writes it took."""
    pieces = []
    _write_json(obj, pieces.append)
    return "".join(pieces), len(pieces)


def dumped(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "path", sorted(glob.glob(os.path.join(DATA, "*.json"))), ids=os.path.basename
)
def test_every_json_golden_is_written_byte_for_byte(path):
    with open(path, "rb") as handle:
        golden = handle.read()
    obj = json.loads(golden)
    text, writes = written(obj)
    assert text == dumped(obj)
    assert text.encode("utf-8") == golden
    assert writes > 1


LABELS = ["α_1", "β_13", "γ_2", "ω_4", "η_02", "τ_13", "Ξ", "😀"]
TRICKY = ['"', "\\", "\\\"", "\n", "\t", "\x00", "\x1f", "\x7f", "a\"b\\c", "", " ", "/", " "]
INTS = [0, 1, -1, 7, -42, 2**63 - 1, 2**63, -(2**64) - 5, 3**80, -(7**60)]


def _text(rng):
    pick = rng.random()
    if pick < 0.3:
        return rng.choice(LABELS)
    if pick < 0.6:
        return "".join(rng.choice(TRICKY + LABELS) for _ in range(rng.randint(1, 4)))
    return "".join(chr(rng.randint(0, 0x2FF)) for _ in range(rng.randint(0, 6)))


def _scalar(rng):
    pick = rng.randrange(5)
    if pick == 0:
        return _text(rng)
    if pick == 1:
        return rng.choice(INTS + [rng.randint(-(2**100), 2**100)])
    if pick == 2:
        return rng.choice([True, False])
    if pick == 3:
        return None
    return rng.choice([[], {}, [[]], {"": {}}, [{}, []]])


def _payload(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        return _scalar(rng)
    size = rng.choice([0, 1, 2, 3, 5])
    if rng.random() < 0.5:
        return [_payload(rng, depth - 1) for _ in range(size)]
    return {_text(rng): _payload(rng, depth - 1) for _ in range(size)}


def test_fuzzed_payloads_are_written_as_json_dumps_writes_them():
    rng = random.Random(2024)
    kinds = set()
    for _ in range(600):
        obj = _payload(rng, rng.randint(0, 5))
        kinds.add(type(obj).__name__)
        text, _ = written(obj)
        assert text == dumped(obj), obj
    assert kinds >= {"dict", "list", "str", "int", "bool", "NoneType"}


@pytest.mark.parametrize(
    "obj",
    [
        [True, False, None, -3, 2**65, "ω"],
        {"ok": True, "bad": False, "none": None, "n": -(2**70)},
        {"": [], "a": {}, "b": [[], {}, [[]]], "c": {"d": {}}},
        {"B": 1, "a": 2, "α": 3, "10": 4, "9": 5, "": 6},
        [],
        {},
        "\"quoted\" \\ back\x01slash\n",
        0,
        None,
    ],
    ids=["scalars", "bools-as-values", "nested-empty", "key-order", "empty-list", "empty-dict",
         "top-string", "top-int", "top-null"],
)
def test_hand_picked_payloads(obj):
    assert written(obj)[0] == dumped(obj)


def test_a_generator_is_written_as_the_list_it_yields():
    rows = [["1", "0"], ["0", "-1/2"]]
    assert written({"re": (row for row in rows)})[0] == dumped({"re": rows})
    assert written({"re": (row for row in [])})[0] == dumped({"re": []})


@pytest.mark.parametrize(
    "obj",
    [1.5, (1, 2), {1, 2}, {1: "a"}, Fraction(1, 2), [0.0], {"a": (1,)}, {"a": {2: 3}}],
    ids=["float", "tuple", "set", "int-key", "fraction", "float-in-list", "tuple-value",
         "nested-int-key"],
)
def test_anything_else_raises_type_error(obj):
    with pytest.raises(TypeError):
        _write_json(obj, lambda piece: None)
