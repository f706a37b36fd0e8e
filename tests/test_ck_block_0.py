"""Block 0 filled from the skeleton against the walk over the filled table.

`h2` takes the block-0 pairs of a builder's algebra from its skeleton and
the cocycle rows from `algebra._ck_block_0`, filled at the algebra's code
values.  `full_oracle.checked_build_ck` makes the same algebra with its sign
characters and no skeleton, so `cohomology` solves it by the walk over its
table.  On every sign vector with N <= 5 in both families, the seeded
rational omegas of `test_ck_skeleton` (N <= 7, every count of zero entries)
and seeded omegas at N = 6 with 4 to 6 zero entries:

  * the pairs and the image rows are the walk's, key order included;
  * the filled rows are the walk's rows in the same order, less only rows
    equal to an earlier row;
  * the echelon, with and without the rank ceiling, has the walk's pivots
    and pivot rows, key order included, and so do `nullspace` and the `h2`
    dimensions and representatives.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from ckcoh.algebra import _build_ck, _ck_block_0
from ckcoh.cohomology import _block_0, cocycle_system, h2
from ckcoh.omega import OmegaVector
from ckcoh.sparse import Echelon, _build_echelon, _integer_row, nullspace

from full_oracle import checked_build_ck
from test_ck_skeleton import _rational_omegas


def _contracted_omegas():
    rng = random.Random(6)
    for zeros in (4, 5, 6):
        for _ in range(8):
            at = set(rng.sample(range(6), zeros))
            yield [
                0
                if k in at
                else Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
                for k in range(6)
            ]


def _omegas():
    for n in range(1, 6):
        yield from product((1, 0, -1), repeat=n)
    yield from _rational_omegas()
    yield from _contracted_omegas()


def _items(rows):
    return [list(row.items()) for row in rows]


def _pivots(echelon):
    return [(col, list(row.items())) for col, row in echelon.pivots]


def _assert_less_only_repeats(got, want):
    """`got` is `want` in order, less rows equal (as dicts) to an earlier row of `want`."""
    at = 0
    for n, row in enumerate(want):
        if at < len(got) and list(got[at].items()) == list(row.items()):
            at += 1
        else:
            assert row in want[:n]
    assert at == len(got)


@pytest.mark.parametrize("family", ["su", "u"])
def test_block_0_from_the_skeleton_matches_the_walk(family):
    dropped = 0
    for values in _omegas():
        omega = OmegaVector(values)
        g = _build_ck(omega.n, omega, family)
        walked = checked_build_ck(omega.n, omega, family)
        assert walked._skeleton is None and walked._chars == g._chars
        (block, image), (want_block, want_image) = _block_0(g), _block_0(walked)
        assert block is g._skeleton.block_pairs and block == want_block, values
        assert _items(image) == _items(want_image), values
        system = cocycle_system(g, block)
        want = cocycle_system(walked, block)
        assert system.cols == want.cols == len(block)
        _assert_less_only_repeats(system.data, want.data)
        dropped += want.rows - system.rows
        absorbed = Echelon(len(block))
        for row in image:
            absorbed.absorb(_integer_row(row))
        for ceiling in (None, len(block) - absorbed.rank):  # the ceiling `h2` passes
            assert _pivots(_build_echelon(system, max_rank=ceiling)) == _pivots(
                _build_echelon(want, max_rank=ceiling)
            ), values
        assert _items(nullspace(system)) == _items(nullspace(want)), values
        for representatives in (True, False):
            got, expected = h2(g, representatives), h2(walked, representatives)
            assert (got.dim_Z2, got.dim_B2, got.dim_H2) == (
                expected.dim_Z2,
                expected.dim_B2,
                expected.dim_H2,
            ), values
            assert [list(xi.entries.items()) for xi in got.representatives] == [
                list(xi.entries.items()) for xi in expected.representatives
            ], values
    assert dropped > 1000


def test_block_0_is_made_once_per_skeleton_and_keeps_each_row_once():
    zero = _ck_block_0(_build_ck(6, [1] * 6, "su")._skeleton)
    assert type(zero) is tuple
    assert len(set(zero)) == len(zero) == 155
    assert _ck_block_0(_build_ck(6, [0] * 6, "su")._skeleton) is zero
    assert all(len(cols) == len(codes) for cols, codes in zero)


def test_a_pair_list_other_than_the_block_is_walked_without_making_the_block():
    omega = OmegaVector([1, -1, 0, 1])
    g, walked = _build_ck(4, omega, "su"), checked_build_ck(4, omega, "su")
    _ck_block_0.cache_clear()
    for pairs in ([(0, 1), (0, 2)], None):
        system = cocycle_system(g, pairs)
        assert _ck_block_0.cache_info().currsize == 0
        assert _items(system.data) == _items(cocycle_system(walked, pairs).data)
        assert system.rows > 0
    h2(g)  # hands over the skeleton's block pairs
    assert _ck_block_0.cache_info().currsize == 1
