"""The character-0 block solve of `h2` against the full-system solve.

Both paths (`representatives=True` through `nullspace`, `False` through
`rank`) must give the same (dim Z2, dim B2, dim H2) as `full_oracle.full_h2`,
and the representatives must be equal including the key order of each
cochain: every sign vector with N <= 4 in both families, five rational
omegas and a fixed sample of sign vectors at N = 5.
"""

import random
from itertools import product

import pytest

from ckcoh.algebra import build_su_omega, build_u_omega
from ckcoh.cohomology import h2
from ckcoh.omega import OmegaVector

from full_oracle import full_h2

RATIONAL = ("2/3,-1", "0,-1/2,0", "-2/3,1,5/2", "0,3/4,0,-2", "1/2,-3,2/5,7")


def _omegas():
    texts = [",".join(s) for n in range(1, 5) for s in product("+-0", repeat=n)]
    texts += RATIONAL
    texts += random.Random(5).sample([",".join(s) for s in product("+-0", repeat=5)], 12)
    return texts


def _dims(res):
    return res.dim_Z2, res.dim_B2, res.dim_H2


def _reps(res):
    return [list(xi.entries.items()) for xi in res.representatives]


@pytest.mark.parametrize("build", [build_su_omega, build_u_omega], ids=["su", "u"])
def test_block_solve_matches_the_full_system(build):
    for text in _omegas():
        omega = OmegaVector.parse(text)
        g = build(omega.n, omega)
        block, full = h2(g), full_h2(g)
        assert _dims(block) == _dims(full), text
        assert _reps(block) == _reps(full), text
        assert _dims(h2(g, representatives=False)) == _dims(full), text
        assert _dims(full_h2(g, representatives=False)) == _dims(full), text
