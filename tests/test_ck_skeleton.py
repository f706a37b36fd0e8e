"""The CK algebras filled from a shared skeleton against the table checked entry by entry.

`algebra._build_ck` fills the bracket skeleton of its (N, family) at omega.
`full_oracle.checked_build_ck` builds the whole table, passes it through
`LieAlgebra.__init__` and sets the sign characters pair by pair.  Both must
give the same `constants` (items in order, coefficient types included: an
int where the value is integral, else a `Fraction`), the same `_into` (key
and list order included), `_chars` and names: every sign vector with N <= 5
in both families, and seeded rational omegas with N <= 7 and every count of
zero entries from 0 to N.  `_ck_structure` must be the filled table.

The skeleton is checked once, when it is made: a skeleton whose table
`LieAlgebra` would not keep as it is must fail that check, and
`LieAlgebra.__init__` must indeed change or refuse the table it fills.  So
must a skeleton that breaks the sign characters, a target whose character
is not the bracket's or several targets of nonzero character, or one that
lets two terms of the cyclic walk meet in one entry of block 0, a repeated
target or a bracket along its own generator, though `LieAlgebra` keeps
those tables, and one whose slot is not a code of the skeleton.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from ckcoh.algebra import (
    LieAlgebra,
    _block_0_pairs,
    _build_ck,
    _ck_skeleton,
    _ck_structure,
    _CKSkeleton,
    _cyclic_terms,
)
from ckcoh.generators import CKBasis, _basis
from ckcoh.omega import OmegaVector

from full_oracle import checked_build_ck


def _typed(entries):
    return [(k, c, type(c)) for k, c in entries]


def _facts(g):
    return (
        g.dim,
        g.family,
        g.omega,
        g.names,
        [(pair, _typed(entries)) for pair, entries in g.constants.items()],
        [(k, [(p, q, c, type(c)) for p, q, c in entries]) for k, entries in g._into.items()],
        g._chars,
    )


def _rational_omegas():
    rng = random.Random(17)
    for n in range(1, 8):
        for zeros in range(n + 1):
            for _ in range(3):
                at = set(rng.sample(range(n), zeros))
                yield [
                    0
                    if k in at
                    else Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
                    for k in range(n)
                ]


def _omegas():
    for n in range(1, 6):
        yield from product((1, 0, -1), repeat=n)
    yield from _rational_omegas()


@pytest.mark.parametrize("family", ["su", "u"])
def test_the_filled_skeleton_matches_the_checked_table(family):
    fractions = 0
    for values in _omegas():
        omega = OmegaVector(values)
        g = _build_ck(omega.n, omega, family)
        want = checked_build_ck(omega.n, omega, family)
        assert _facts(g) == _facts(want), values
        assert g._chars is _ck_skeleton(g.ck_basis()).chars
        table = _ck_structure(_basis(omega.n, family), omega)
        assert [(p, _typed(e)) for p, e in table.items()] == _facts(want)[4], values
        fractions += any(type(c) is Fraction for e in g.constants.values() for _, c in e)
    assert fractions > 50


def test_each_algebra_reads_its_characters_from_its_skeleton():
    g, h = _build_ck(3, [1, 0, -1], "su"), _build_ck(3, [1, 1, 1], "su")
    skeleton = _ck_skeleton(_basis(3, "su"))
    assert g._skeleton is h._skeleton is skeleton
    assert g._chars is h._chars is skeleton.chars and type(skeleton.chars) is tuple


def _corrupted(skeleton, fault):
    """A copy of the skeleton with one bracket broken."""
    pairs, targets, slots = list(skeleton.pairs), list(skeleton.targets), list(skeleton.slots)
    multi = next(n for n, t in enumerate(targets) if len(t) > 1)
    if fault == "repeated pair":
        pairs[1] = pairs[0]
    elif fault == "reversed pair":
        pairs[0] = pairs[0][::-1]
    elif fault == "pair out of range":
        pairs[0] = (0, skeleton.basis.dim)
    elif fault == "target out of range":
        targets[0] = (skeleton.basis.dim,)
    elif fault == "unsorted targets":
        targets[multi] = targets[multi][::-1]
    elif fault == "repeated target":
        targets[multi] = targets[multi][:1] * 2
    elif fault == "no target":
        targets[0] = ()
    elif fault == "slot out of range":  # fill reads the value of another code
        slots[0] = 2 * skeleton.basis.pair_count + 3
    elif fault == "target of another character":
        targets[0] = (skeleton.basis.b(1),)
    elif fault == "several targets of nonzero character":
        targets[0] = (targets[0][0], skeleton.basis.pair_count + targets[0][0])
    elif fault == "target along its own generator":
        # [J_ab, B_l] along J_ab and [M_ab, B_l] along M_ab, of their own characters
        n = next(n for n, (_, q) in enumerate(pairs) if q >= 2 * skeleton.basis.pair_count)
        targets[n], targets[n + 1] = pairs[n][:1], pairs[n + 1][:1]
    copy = _CKSkeleton(skeleton.basis)
    object.__setattr__(copy, "pairs", tuple(pairs))
    object.__setattr__(copy, "targets", tuple(targets))
    object.__setattr__(copy, "slots", tuple(slots))
    return copy


def _kept_by_lie_algebra(skeleton) -> bool:
    """Whether `LieAlgebra.__init__` keeps the table filled at omega = (2, ..., 2) as it is."""
    constants, into, _ = skeleton.fill(OmegaVector([2] * skeleton.basis.N))
    try:
        checked = LieAlgebra(skeleton.basis.dim, constants)
    except ValueError:
        return False
    return list(checked.constants.items()) == list(constants.items()) and list(
        checked._into.items()
    ) == list(into.items())


@pytest.mark.parametrize(
    "fault",
    [
        "repeated pair",
        "reversed pair",
        "pair out of range",
        "target out of range",
        "unsorted targets",
        "repeated target",
        "no target",
        "slot out of range",
        "target of another character",
        "several targets of nonzero character",
        "target along its own generator",
    ],
)
def test_the_check_fails_on_a_corrupted_skeleton(fault):
    basis = CKBasis(3, "u")
    skeleton = _CKSkeleton(basis)
    skeleton.check()
    assert _kept_by_lie_algebra(skeleton)
    corrupted = _corrupted(skeleton, fault)
    with pytest.raises(AssertionError):
        corrupted.check()
    # a wrong coefficient, broken characters or an own target still make a
    # table LieAlgebra keeps
    kept = ("slot out of range", "target along its own generator")
    assert _kept_by_lie_algebra(corrupted) == (fault.endswith("character") or fault in kept)


def _meetings(skeleton) -> int:
    """How many terms of the cyclic walk over block 0 land in an entry already reached."""
    into = {}
    for (p, q), targets, slot in zip(skeleton.pairs, skeleton.targets, skeleton.slots):
        for k in targets:
            into.setdefault(k, []).append((p, q, slot))
    entries = [
        (triple, col)
        for col, (a, b) in enumerate(_block_0_pairs(skeleton.basis.dim, skeleton.chars))
        for triple, _ in _cyclic_terms(into, a, b)
    ]
    return len(entries) - len(set(entries))


def test_block_0_refuses_two_terms_in_one_entry():
    # `_ck_block_0` reads each entry of a walked row as one coefficient; the
    # check refuses both faults that make two terms meet.  A repeated target
    # of [J_02, M_02] meets itself in the column (B_1, B_2); [J_ab, B_l] along
    # J_ab meets [M_ab, B_l] along M_ab in the column (J_ab, M_ab).
    skeleton = _CKSkeleton(CKBasis(3, "u"))
    assert _meetings(skeleton) == 0
    for fault in ("repeated target", "target along its own generator"):
        corrupted = _corrupted(skeleton, fault)
        assert _meetings(corrupted) > 0, fault
        with pytest.raises(AssertionError, match="two terms of its cocycle system meet"):
            corrupted.check()


def test_a_skeleton_is_immutable():
    skeleton = _ck_skeleton(_basis(2, "su"))
    with pytest.raises(AttributeError):
        skeleton.pairs = ()
