"""The character-0 block solve of `h2` against the full-system solve.

Both paths (`representatives=True` through `nullspace`, `False` through
`rank`) must give the same (dim Z2, dim B2, dim H2) as `full_oracle.full_h2`,
and the representatives must be equal including the key order of each
cochain: every sign vector with N <= 4 in both families, five rational
omegas and a fixed sample of sign vectors at N = 5.

`are_coboundaries`, which solves only the sign-character blocks its cochains
touch, must answer as `full_oracle.full_are_coboundaries` does: the same
`None`-ness and equal `mu`, key order included, or the same
`NotACocycleError`.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from ckcoh.algebra import build_su_omega, build_u_omega
from ckcoh.cochains import OneCochain, TwoCochain, pair_list
from ckcoh.cohomology import NotACocycleError, are_coboundaries, delta, h2
from ckcoh.extensions import BasicCoefficients, classify, extension_cocycle
from ckcoh.omega import OmegaVector

from full_oracle import full_are_coboundaries, full_h2
from random_algebras import random_algebra

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


def _canonical(g):
    """The alpha, beta and gamma cocycles `verify_theorem` tests."""
    family, omega = g.family, g.omega
    cls = classify(family, omega.n, omega)
    coeffs = [BasicCoefficients(alpha={k: 1}) for k in range(1, omega.n + 1)]
    coeffs += [BasicCoefficients(beta={kl: 1}) for kl in cls.type3_beta_allowed]
    coeffs += [BasicCoefficients(gamma={k: 1}) for k in cls.type3_gamma_allowed]
    return [extension_cocycle(family, omega.n, omega, c) for c in coeffs]


def _unbracketed(g):
    """Cochains with one entry on a pair whose bracket is zero: never coboundaries."""
    pairs = [pair for pair in pair_list(g.dim) if pair not in g.constants][:1]
    if g.is_ck() and g.omega.n >= 2:
        basis = g.ck_basis()
        pairs.append((basis.b(1), basis.b(2)))  # the beta_12 cocycle when omega_1 = omega_2 = 0
    return [TwoCochain(g.dim, {pair: 1}) for pair in pairs]


def _one_entry(g):
    """Cochains with one entry on a bracket pair, for up to three characters.

    Mostly not cocycles: with `assume_cocycle` the rows of the same block with
    a zero right-hand side decide whether the system is consistent.
    """
    firsts = {}
    for i, j in sorted(g.constants):
        firsts.setdefault(g._chars[i] ^ g._chars[j], (i, j))
    return [TwoCochain(g.dim, {pair: 1}) for pair in list(firsts.values())[:3]]


def _answers(solve, g, cochains, assume_cocycle):
    try:
        answers = solve(g, cochains, assume_cocycle=assume_cocycle)
    except NotACocycleError:
        return "not a cocycle"
    return [None if mu is None else list(mu.mu.items()) for mu in answers]


def test_touched_blocks_solve_matches_the_full_solve():
    rng = random.Random(9)
    texts = [",".join(s) for n in range(1, 5) for s in product("+-0", repeat=n)]
    algebras = [
        build(omega.n, omega)
        for build in (build_su_omega, build_u_omega)
        for omega in map(OmegaVector.parse, texts + list(RATIONAL))
    ]
    algebras += [random_algebra(random.Random(seed), max_dim=9) for seed in range(12)]
    trivial = 0
    for g in algebras:
        reps = h2(g).representatives
        mu = {k: Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for k in range(g.dim)}
        cob = delta(g, OneCochain(g.dim, mu))  # touches every block
        block0 = reps + (_canonical(g) if g.is_ck() else []) + [TwoCochain(g.dim)]
        unbracketed = _unbracketed(g)
        singles = block0 + [cob] + [rep - cob for rep in reps[:3]] + unbracketed + _one_entry(g)
        for xi in singles:
            ours = _answers(are_coboundaries, g, [xi], True)
            assert ours == _answers(full_are_coboundaries, g, [xi], True), g
            trivial += ours[0] is not None
        for xi in unbracketed:
            assert _answers(are_coboundaries, g, [xi], True) == [None], g
        for batch in (block0, singles, unbracketed + [cob]):
            for assume in (True, False):
                ours = _answers(are_coboundaries, g, batch, assume)
                assert ours == _answers(full_are_coboundaries, g, batch, assume), g
    assert trivial > 1000
