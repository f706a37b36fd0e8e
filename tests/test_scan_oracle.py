"""The indexed elimination, back-substitution and cyclic sums against scans.

Every comparison is exact and includes dict key order: the pivot rows and
leftovers of an echelon, the kernel vectors of `nullspace`, the solutions of
`solve_many` and the representatives of `h2`.  The entry-driven cyclic sums
give the same `cocycle_defect`, `jacobi_residual` and cocycle-system rows, in
the same row order, as a walk over all C(r,3) triples.
"""

import random
from fractions import Fraction

import pytest

import ckcoh.cohomology
import ckcoh.sparse
from ckcoh.algebra import LieAlgebra, build_su_omega, build_u_omega, jacobi_residual
from ckcoh.cochains import TwoCochain, pair_list
from ckcoh.cohomology import are_coboundaries, cocycle_defect, cocycle_system, h2
from ckcoh.omega import OmegaVector, sign_vectors
from ckcoh.rationals import ratio
from ckcoh.sparse import SparseMatrix, _build_echelon, nullspace, solve_many

from pair_vectors import from_vector, matvec
from random_algebras import random_algebra
from scan_oracle import (
    ScanEchelon,
    scan_cocycle_defect,
    scan_cocycle_system,
    scan_jacobi_residual,
)


def _ck_algebras():
    """su and u for every sign vector with N <= 2, a spread at N = 3, 4 and rational omegas."""
    omegas = [om for n in (1, 2) for om in sign_vectors(n)]
    omegas += [OmegaVector.parse(t) for t in ("+,+,+", "0,0,0", "+,0,-", "0,-,0", "-,+,0")]
    omegas += [OmegaVector.parse(t) for t in ("+,+,+,+", "0,0,0,0", "+,0,+,0", "0,-,0,+")]
    omegas += [
        OmegaVector.parse(t)
        for t in ("2/3,-1", "0,-1/2,0", "-2/3,1,5/2", "0,3/4,0,-2", "1/2,-3,2/5,7")
    ]
    for om in omegas:
        yield build_su_omega(om.n, om)
        yield build_u_omega(om.n, om)


CK = list(_ck_algebras())
RANDOM = [random_algebra(random.Random(seed), max_dim=9) for seed in range(12)]


def _random_matrix(rng, rows, cols, per_row):
    m = SparseMatrix(rows, cols)
    for r in range(rows):
        for _ in range(per_row):
            m.set(r, rng.randrange(cols), Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
    return m


def _random_matrices():
    rng = random.Random(2718)
    out = []
    for _ in range(12):
        rows, cols = rng.randint(5, 40), rng.randint(5, 60)
        out.append(_random_matrix(rng, rows, cols, rng.randint(1, 6)))
    for _ in range(4):
        cols = rng.randint(200, 260)
        out.append(_random_matrix(rng, rng.randint(60, 220), cols, rng.randint(2, 6)))
    return out


MATRICES = [cocycle_system(g) for g in CK + RANDOM] + _random_matrices()


@pytest.fixture
def scan(monkeypatch):
    """Run a thunk once with the indexed Echelon and once with ScanEchelon."""

    def both(thunk):
        fast = thunk()
        with monkeypatch.context() as patch:
            patch.setattr(ckcoh.sparse, "Echelon", ScanEchelon)
            patch.setattr(ckcoh.cohomology, "Echelon", ScanEchelon)
            slow = thunk()
        return fast, slow

    return both


def _ordered(rows):
    return [None if row is None else list(row.items()) for row in rows]


def _echelon_state(ech):
    pivots = [(col, list(prow.items())) for col, prow in ech.pivots]
    return pivots, _ordered(ech.leftovers)


def _rhs_list(matrix, rng):
    """Consistent right-hand sides (images of random vectors) and random ones."""
    out = []
    for _ in range(3):
        cols = rng.sample(range(matrix.cols), min(4, matrix.cols))
        x = {c: Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for c in cols}
        out.append(matvec(matrix, x))
    rows = rng.sample(range(matrix.rows), min(3, matrix.rows))
    out.append({r: rng.randint(-2, 2) for r in rows})
    return out


def test_echelon_pivots_and_leftovers_match_scan(scan):
    for matrix in MATRICES:
        fast, slow = scan(lambda: _echelon_state(_build_echelon(matrix)))
        assert fast == slow


def test_nullspace_matches_scan_with_key_order(scan):
    for matrix in MATRICES:
        fast, slow = scan(lambda: _ordered(nullspace(matrix)))
        assert fast == slow


def test_solve_many_matches_scan_with_key_order(scan):
    rng = random.Random(31)
    for matrix in MATRICES:
        if not matrix.rows or not matrix.cols:
            continue
        rhs = _rhs_list(matrix, rng)
        fast, slow = scan(lambda: _ordered(solve_many(matrix, rhs)))
        assert fast == slow
        assert fast[0] is not None


def test_h2_representatives_and_coboundaries_match_scan(scan):
    for g in CK + RANDOM:

        def run():
            res = h2(g)
            reps = res.representatives
            trivial = are_coboundaries(g, reps, assume_cocycle=True)
            return (
                [list(xi.entries.items()) for xi in reps],
                [None if mu is None else list(mu.mu.items()) for mu in trivial],
            )

        fast, slow = scan(run)
        assert fast == slow


def test_echelon_indexes_hold_their_invariant():
    for matrix in MATRICES:
        ech = _build_echelon(matrix)
        uses = {}
        for k, (col, prow) in enumerate(ech.pivots):
            assert ech.pivot_cols[col] == k
            # `insert` stores every pivot entry positive, which `reduce` relies on
            assert prow[col] > 0
            for c in prow:
                if c == col:
                    continue
                # no pivot row holds the pivot column of an earlier pivot
                assert ech.pivot_cols.get(c, k + 1) > k
                uses.setdefault(c, []).append(k)
        assert len(ech.pivot_cols) == ech.rank
        assert ech.uses == uses


def _kernel_cochains(g):
    return [from_vector(g.dim, vec) for vec in nullspace(cocycle_system(g))]


def _random_cochains(g, rng, count):
    pairs = pair_list(g.dim)
    out = []
    for _ in range(count):
        picked = rng.sample(pairs, min(len(pairs), rng.randint(1, 6)))
        entries = {p: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for p in picked}
        out.append(TwoCochain(g.dim, entries))
    return out


def test_cocycle_defect_matches_scan():
    rng = random.Random(99)
    nonzero = 0
    for g in CK + RANDOM:
        cochains = _kernel_cochains(g)[:8] + _random_cochains(g, rng, 6)
        for xi in cochains:
            fast = cocycle_defect(g, xi)
            slow = scan_cocycle_defect(g, xi)
            # equal values; the indexed walk returns the normalised scalar
            assert fast == slow and type(fast) is type(ratio(slow))
            nonzero += fast != 0
    assert nonzero > 100


def _sweep_algebras():
    """su and u for every sign vector with N <= 4, plus rational omegas."""
    omegas = [om for n in range(1, 5) for om in sign_vectors(n)]
    omegas += [
        OmegaVector.parse(t)
        for t in ("2/3,-1", "0,-1/2,0", "-2/3,1,5/2", "0,3/4,0,-2", "1/2,-3,2/5,7")
    ]
    for om in omegas:
        yield build_su_omega(om.n, om)
        yield build_u_omega(om.n, om)


def _perturbed(g, rng):
    """g with one structure constant changed: scaled, negated or retargeted."""
    table = {pair: list(entries) for pair, entries in g.constants.items()}
    pair = rng.choice(sorted(table))
    entries = table[pair]
    at = rng.randrange(len(entries))
    k, c = entries[at]
    kind = rng.randrange(3)
    if kind == 0:
        entries[at] = (k, c * Fraction(rng.choice((2, 3, -1, 1)), rng.randint(1, 3)) + 1)
    elif kind == 1:
        entries[at] = (k, -c)
    else:
        entries[at] = (rng.randrange(g.dim), c)
    return LieAlgebra(g.dim, table)


SWEEP = list(_sweep_algebras())
RANDOM_WIDE = [random_algebra(random.Random(100 + seed), max_dim=10) for seed in range(40)]


def test_cocycle_system_matches_the_triple_loop():
    for g in SWEEP + RANDOM_WIDE:
        fast, slow = cocycle_system(g), scan_cocycle_system(g)
        assert (fast.rows, fast.cols) == (slow.rows, slow.cols)
        assert fast.data == slow.data  # same rows in the same order


def test_cocycle_system_gives_the_same_kernel_with_key_order():
    for g in CK + RANDOM:
        fast = _ordered(nullspace(cocycle_system(g)))
        assert fast == _ordered(nullspace(scan_cocycle_system(g)))


def test_jacobi_residual_matches_the_triple_loop():
    for g in SWEEP + RANDOM_WIDE:
        assert jacobi_residual(g) == scan_jacobi_residual(g) == 0
    rng = random.Random(5)
    nonzero = 0
    bases = [g for g in SWEEP if g.dim <= 15] + [g for g in RANDOM_WIDE if g.constants]
    for g in rng.sample(bases, 50):
        bad = _perturbed(g, rng)
        fast, slow = jacobi_residual(bad), scan_jacobi_residual(bad)
        assert fast == slow and type(fast) is type(slow), bad
        assert cocycle_system(bad).data == scan_cocycle_system(bad).data
        nonzero += fast != 0
    assert nonzero >= 40
