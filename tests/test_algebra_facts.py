"""The facts an algebra is made with, against the functions that rebuilt them.

`LieAlgebra._into` (the bracket index by target generator) and
`LieAlgebra._chars` (the sign characters) are set when the algebra is made.
`full_oracle._bracket_index` and `full_oracle._characters` rebuild them from
the table and from the CK formulas; both must agree, list order included, on
every sign vector with N <= 4 in both families and five rational omegas, and
at the zero omegas of N = 5, 6, whose tables hold the fewest brackets.  The
same table made directly, without a builder, has no characters and must
give the same `h2` as one block.  Solving either leaves its bracket index,
and the builder's skeleton, as they were.
"""

import copy
from itertools import product
from math import comb

import pytest

from ckcoh.algebra import LieAlgebra, build_su_omega, build_u_omega
from ckcoh.cohomology import _block_0, cocycle_system, h2
from ckcoh.omega import OmegaVector

from full_oracle import _bracket_index, _characters

RATIONAL = ("2/3,-1", "0,-1/2,0", "-2/3,1,5/2", "0,3/4,0,-2", "1/2,-3,2/5,7")
FAMILIES = [build_su_omega, build_u_omega]


def _omegas(max_n):
    texts = [",".join(s) for n in range(1, max_n + 1) for s in product("+-0", repeat=n)]
    return [OmegaVector.parse(t) for t in texts + [t for t in RATIONAL if t.count(",") < max_n]]


@pytest.mark.parametrize("build", FAMILIES, ids=["su", "u"])
def test_index_and_characters_match_the_rebuilt_ones(build):
    for omega in _omegas(4) + [OmegaVector([0] * n) for n in (5, 6)]:
        g = build(omega.n, omega)
        assert len(g.constants) >= 4 * comb(omega.n + 1, 3), omega
        assert g._into == _bracket_index(g), omega
        assert g._chars == _characters(g), omega


@pytest.mark.parametrize("build", FAMILIES, ids=["su", "u"])
def test_a_table_made_directly_is_solved_as_one_block(build):
    for omega in _omegas(3):
        g = build(omega.n, omega)
        plain = LieAlgebra(g.dim, g.constants)
        assert plain._chars is None and plain._into == g._into, omega
        block, whole = h2(g), h2(plain)
        assert (whole.dim_Z2, whole.dim_B2, whole.dim_H2) == (
            block.dim_Z2,
            block.dim_B2,
            block.dim_H2,
        ), omega
        assert [list(xi.entries.items()) for xi in whole.representatives] == [
            list(xi.entries.items()) for xi in block.representatives
        ], omega


@pytest.mark.parametrize("build", FAMILIES, ids=["su", "u"])
def test_solving_leaves_the_index_and_the_skeleton_as_they_were(build):
    g = build(3, OmegaVector.parse("+,0,-"))
    plain = LieAlgebra(g.dim, g.constants)
    skeleton = g._skeleton
    columns = copy.deepcopy((skeleton.pairs, skeleton.targets, skeleton.slots))
    for algebra in (g, plain):
        before = copy.deepcopy(algebra._into)
        cocycle_system(algebra)
        cocycle_system(algebra, _block_0(algebra)[0])
        h2(algebra)
        assert list(algebra._into.items()) == list(before.items()), algebra
    assert (skeleton.pairs, skeleton.targets, skeleton.slots) == columns
