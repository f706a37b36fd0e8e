"""The character-0 block solve of `h2` against the full-system solve.

Both paths (`representatives=True` through `nullspace`, `False` through
`rank`) must give the same (dim Z2, dim B2, dim H2) as `full_oracle.full_h2`,
and the representatives must be equal including the key order of each
cochain: every sign vector with N <= 4 in both families, five rational
omegas, a fixed sample of sign vectors at N = 5, seeded random algebras
(one block) and CK algebras in a basis mixed within each sign character
(brackets of nonzero character with several targets).

The echelon that reduces each distinct row once must equal
`full_oracle.full_build_echelon`, which reduces every row: the same pivots
and leftovers, key order included, and the same `rank`, `nullspace` and
`solve_many` results, on matrices with repeated, scaled and negated rows and
on repeated inconsistent rows under right-hand sides.

Stopped at the rank ceiling `h2` passes (the block's size less the rank of
its coboundaries), the echelon must equal the one of the run over every
row: the same pivots, pivot rows and key order, on every sign vector with
N <= 4 in both families, random algebras and CK algebras in a mixed basis.

`are_coboundaries`, which solves only the sign-character blocks its cochains
touch, must answer as `full_oracle.full_are_coboundaries` does: the same
`None`-ness and equal `mu`, key order included, or the same
`NotACocycleError`.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

import ckcoh.cohomology
import ckcoh.sparse
from ckcoh.algebra import build_su_omega, build_u_omega
from ckcoh.cochains import OneCochain, TwoCochain, pair_list
from ckcoh.cohomology import NotACocycleError, are_coboundaries, delta, h2
from ckcoh.extensions import BasicCoefficients, classify, extension_cocycle
from ckcoh.omega import OmegaVector
from ckcoh.sparse import SparseMatrix, _build_echelon, nullspace, rank, solve_many

from full_oracle import full_are_coboundaries, full_build_echelon, full_h2
from pair_vectors import matvec
from random_algebras import graded_change_of_basis, random_algebra
from test_scan_oracle import MATRICES

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


def _algebras(kind):
    if kind == "random":
        return [random_algebra(random.Random(seed), max_dim=9) for seed in range(12)]
    if kind == "graded":
        rng = random.Random(7)
        omegas = [OmegaVector.parse(t) for t in ("+,+", "0,-", "+,0,-", "0,0,0") + RATIONAL[:3]]
        return [
            graded_change_of_basis(build(omega.n, omega), rng)
            for omega in omegas
            for build in (build_su_omega, build_u_omega)
        ]
    build = build_su_omega if kind == "su" else build_u_omega
    return [build(omega.n, omega) for omega in map(OmegaVector.parse, _omegas())]


@pytest.mark.parametrize("kind", ["su", "u", "random", "graded"])
def test_block_solve_matches_the_full_system(kind):
    for g in _algebras(kind):
        text = g.omega.tokens() if g.is_ck() else repr(g)
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
    chars = g._chars or [0] * g.dim
    for i, j in sorted(g.constants):
        firsts.setdefault(chars[i] ^ chars[j], (i, j))
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


def _state(ech):
    pivots = [(col, list(prow.items())) for col, prow in ech.pivots]
    return pivots, [list(row.items()) for row in ech.leftovers]


def _ordered(rows):
    return [None if row is None else list(row.items()) for row in rows]


def _with_copies(matrix, rng):
    """The matrix with copies of some rows inserted after their originals.

    Each copy is the row itself, the row times -3/2 or the row negated.
    """
    rows = [dict(row) for row in matrix.data]
    for at in sorted(rng.sample(range(len(rows)), min(12, len(rows))), reverse=True):
        factor = rng.choice((1, 1, Fraction(-3, 2), -1))
        copy = {c: v * factor for c, v in rows[at].items()}
        rows.insert(rng.randint(at + 1, len(rows)), copy)
    out = SparseMatrix(len(rows), matrix.cols)
    out.data[:] = rows
    return out


def _rhs_list(matrix, rng):
    """Consistent right-hand sides, and random ones that give copies of a row unequal values."""
    out = []
    for _ in range(2):
        cols = rng.sample(range(matrix.cols), min(4, matrix.cols))
        out.append(matvec(matrix, {c: Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for c in cols}))
    out.append({r: rng.choice((1, 2)) for r in range(matrix.rows)})
    return out


def _repeated_inconsistent():
    """Copies of a row, and of zero rows, whose right-hand sides disagree."""
    matrix = SparseMatrix(8, 3)
    matrix.data[:] = [{0: 1, 1: 2}, {0: 1, 1: 2}, {}, {0: 2, 1: 4}, {}, {0: 1, 1: 2}, {2: -3}, {2: 3}]
    rhs = [{0: 1, 1: 2, 2: 1, 3: 2, 4: 1, 5: 2, 6: 1, 7: 1}, {1: 5, 5: 5, 7: -1}, {2: 4, 4: 4}]
    return matrix, rhs


def _echelon_cases():
    rng = random.Random(41)
    for matrix in MATRICES:
        if not matrix.rows or not matrix.cols:
            continue
        yield matrix, _rhs_list(matrix, rng)
        if matrix.rows > 600 or matrix.cols > 200:  # N = 4 systems, wide random ones: plain only
            continue
        copied = _with_copies(matrix, rng)
        yield copied, _rhs_list(copied, rng)
    yield _repeated_inconsistent()


def test_each_distinct_row_once_matches_the_no_skip_echelon(monkeypatch):
    skipped = 0
    for matrix, rhs in _echelon_cases():
        for rhs_list in ((), rhs):
            ours = _build_echelon(matrix, rhs_list)
            assert _state(ours) == _state(full_build_echelon(matrix, rhs_list))
        ours = rank(matrix), _ordered(nullspace(matrix)), _ordered(solve_many(matrix, rhs))
        with monkeypatch.context() as patch:
            patch.setattr(ckcoh.sparse, "_build_echelon", full_build_echelon)
            theirs = rank(matrix), _ordered(nullspace(matrix)), _ordered(solve_many(matrix, rhs))
        assert ours == theirs
        skipped += len({frozenset(row.items()) for row in matrix.data}) < matrix.rows
    assert skipped > 30
    matrix, rhs = _repeated_inconsistent()
    ech = _build_echelon(matrix, rhs)
    assert len(ech.leftovers) == 5 and solve_many(matrix, rhs) == [None, None, None]


def test_the_rank_ceiling_leaves_the_echelon_of_the_full_run(monkeypatch):
    seen = []
    for name in ("nullspace", "rank"):

        def spy(matrix, max_rank=None, solve=getattr(ckcoh.cohomology, name)):
            seen.append((matrix, max_rank))
            return solve(matrix, max_rank)

        monkeypatch.setattr(ckcoh.cohomology, name, spy)
    reduced = []
    reduce = ckcoh.sparse.Echelon.reduce

    def counted(self, row):
        reduced.append(1)
        return reduce(self, row)

    texts = [",".join(s) for n in range(1, 5) for s in product("+-0", repeat=n)]
    algebras = [
        build(omega.n, omega)
        for build in (build_su_omega, build_u_omega)
        for omega in map(OmegaVector.parse, texts + list(RATIONAL))
    ]
    algebras += _algebras("random") + _algebras("graded")
    stopped = 0
    for g in algebras:
        for representatives in (True, False):
            seen.clear()
            h2(g, representatives=representatives)
            [(matrix, ceiling)] = seen
            with monkeypatch.context() as patch:
                patch.setattr(ckcoh.sparse.Echelon, "reduce", counted)
                reduced.clear()
                ours = _build_echelon(matrix, max_rank=ceiling)
                ours_calls = len(reduced)
                reduced.clear()
                whole = _build_echelon(matrix)
                stopped += ours_calls < len(reduced)
            full = full_build_echelon(matrix)
            assert _state(ours) == _state(whole) == _state(full), g
            assert list(ours.pivot_cols.items()) == list(full.pivot_cols.items()), g
            assert full.rank <= ceiling, g
    assert stopped > 100
