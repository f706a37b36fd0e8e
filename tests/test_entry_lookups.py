"""The lookups between the block-0 kernel and the payload against the loops they replaced.

Each lookup must give what its loop gave, dict key order and value types
included: the kernel vectors of `nullspace` (a free column no pivot row
holds is set directly), the solutions of `solve_many` (inconsistent
right-hand sides collected in one pass over the leftovers), the rows
`are_coboundaries` solves (brackets read from the index under the targets
of a touched character), the cocycles of `_write_cocycle` (alpha weights as
running products), the readings of `_read_basic` (only the fields it holds)
and the block-0 rows of `_fill_rows` (a plain loop).  The loops are kept in
`scan_oracle.py`.
"""

import random
from fractions import Fraction

import pytest

import ckcoh.cohomology
from ckcoh.algebra import _ck_block_0, _fill_rows, build_su_omega, build_u_omega
from ckcoh.cochains import TwoCochain, pair_list
from ckcoh.cohomology import (
    _block_0,
    are_coboundaries,
    coboundary_matrix,
    cocycle_system,
    h2,
)
from ckcoh.extensions import (
    BasicCoefficients,
    _read_basic,
    _readings,
    _write_cocycle,
    classify,
    extension_cocycle,
)
from ckcoh.omega import OmegaVector, sign_vectors
from ckcoh.sparse import (
    Echelon,
    SparseMatrix,
    _build_echelon,
    _integer_row,
    nullspace,
    solve_many,
)

from pair_vectors import matvec
from random_algebras import graded_change_of_basis, random_algebra
from scan_oracle import (
    scan_coboundary_pairs,
    scan_fill_rows,
    scan_nullspace,
    scan_read_basic,
    scan_solve_many,
    scan_write_cocycle,
)

RATIONAL = ("2/3,-1", "0,-1/2,0", "-2/3,1,5/2", "0,3/4,0,-2", "1/2,-3,2/5,7")


def _ck_sweep():
    """su and u for every sign vector with N <= 4, plus the rational omegas."""
    omegas = [om for n in range(1, 5) for om in sign_vectors(n)]
    omegas += [OmegaVector.parse(t) for t in RATIONAL]
    for om in omegas:
        yield build_su_omega(om.n, om)
        yield build_u_omega(om.n, om)


CK = list(_ck_sweep())
RANDOM = [random_algebra(random.Random(seed), max_dim=9) for seed in range(12)]
_rng = random.Random(404)
GRADED = [graded_change_of_basis(g, _rng) for g in _rng.sample([g for g in CK if g.dim <= 16], 12)]


def _exact(row):
    """A dict as its items in key order, each value with its type."""
    return None if row is None else [(k, v, type(v)) for k, v in row.items()]


def _random_cochains(g, rng, count):
    pairs = pair_list(g.dim)
    out = []
    for _ in range(count):
        picked = rng.sample(pairs, min(len(pairs), rng.randint(1, 5)))
        entries = {p: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for p in picked}
        out.append(TwoCochain(g.dim, entries))
    return out


def _canonical_cocycles(g):
    """The alpha, beta and gamma cocycles `verify_theorem` checks."""
    family, omega = g.family, g.omega
    cls = classify(family, omega.n, omega)
    coeffs = [BasicCoefficients(alpha={k: 1}) for k in range(1, omega.n + 1)]
    coeffs += [BasicCoefficients(beta={key: 1}) for key in cls.type3_beta_allowed]
    coeffs += [BasicCoefficients(gamma={k: 1}) for k in cls.type3_gamma_allowed]
    return [extension_cocycle(family, omega.n, omega, c) for c in coeffs]


# -- nullspace ---------------------------------------------------------------


def _held_only_by_zero_entries():
    """Column 3 is all zero; column 2 sits only in entries of value 0, rows that reduce to {}."""
    m = SparseMatrix(4, 5)
    m.data[:] = [{0: 1, 1: -1, 2: 0}, {2: 0}, {1: 2, 4: 3}, {0: 2, 1: -2, 2: 0}]
    return m


def test_nullspace_sets_an_unheld_free_column_as_back_substitution_would():
    unheld = held = 0
    matrices = [_held_only_by_zero_entries()]
    for g in CK:
        block, _ = _block_0(g)
        matrices.append(cocycle_system(g, block))
    matrices += [cocycle_system(g) for g in RANDOM + GRADED]
    for matrix in matrices:
        assert list(map(_exact, nullspace(matrix))) == list(map(_exact, scan_nullspace(matrix)))
        ech = _build_echelon(matrix)
        free = [c for c in range(matrix.cols) if c not in ech.pivot_cols]
        unheld += sum(c not in ech.uses for c in free)
        held += sum(c in ech.uses for c in free)
    assert unheld > 500 and held > 500  # both ways of setting a vector are taken
    assert nullspace(_held_only_by_zero_entries()) == [{2: 1}, {3: 1}, {4: 2, 1: -3, 0: -3}]


def test_nullspace_under_the_rank_ceiling_matches_back_substitution():
    for g in CK:
        block, image = _block_0(g)
        system = cocycle_system(g, block)
        coboundaries = Echelon(len(block))
        for row in image:
            coboundaries.absorb(_integer_row(row))
        ceiling = len(block) - coboundaries.rank  # the bound `h2` passes
        fast = nullspace(system, ceiling)
        assert list(map(_exact, fast)) == list(map(_exact, scan_nullspace(system, ceiling)))


# -- solve_many --------------------------------------------------------------


def test_solve_many_with_a_leftover_holding_two_right_hand_sides():
    # rows 0 and 1 agree on the matrix, so the leftover of row 1 holds the
    # difference of their right-hand sides: rhs 0 and rhs 2 are inconsistent
    m = SparseMatrix(3, 2)
    m.data[:] = [{0: 1}, {0: 1}, {1: 1}]
    rhs = [{0: 1, 1: 2}, {0: 1, 1: 1, 2: 5}, {1: 3}, {2: -1}]
    ech = _build_echelon(m, rhs)
    assert [sorted(row) for row in ech.leftovers] == [[2, 4]]
    fast = solve_many(m, rhs)
    assert fast == [None, {0: 1, 1: 5}, None, {1: -1}]
    assert list(map(_exact, fast)) == list(map(_exact, scan_solve_many(m, rhs)))
    # the first right-hand side consistent, a later pair not
    rhs = [{0: 2, 1: 2}, {0: 1}, {1: 1}]
    assert solve_many(m, rhs) == scan_solve_many(m, rhs) == [{0: 2}, None, None]


def _random_matrix(rng, rows, cols, per_row):
    m = SparseMatrix(rows, cols)
    for r in range(rows):
        for _ in range(per_row):
            m.set(r, rng.randrange(cols), Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
    return m


def test_solve_many_matches_the_leftover_scan_on_mixed_right_hand_sides():
    rng = random.Random(1913)
    matrices = [coboundary_matrix(g) for g in RANDOM + GRADED + CK[:40]]
    matrices += [_random_matrix(rng, rng.randint(4, 30), rng.randint(3, 20), 3) for _ in range(30)]
    inconsistent = consistent = 0
    for m in matrices:
        if not m.rows or not m.cols:
            continue
        rhs = []
        for _ in range(5):
            if rng.random() < 0.5:
                cols = rng.sample(range(m.cols), min(2, m.cols))
                rhs.append(matvec(m, {c: Fraction(rng.randint(-3, 3), 2) for c in cols}))
            else:
                rows = rng.sample(range(m.rows), min(3, m.rows))
                rhs.append({r: rng.randint(-2, 2) for r in rows})
        fast = solve_many(m, rhs)
        assert list(map(_exact, fast)) == list(map(_exact, scan_solve_many(m, rhs)))
        inconsistent += fast.count(None)
        consistent += len(fast) - fast.count(None)
    assert inconsistent > 50 and consistent > 50


# -- are_coboundaries ----------------------------------------------------------


@pytest.fixture
def solved_pairs(monkeypatch):
    """The pairs of every coboundary matrix `are_coboundaries` builds, in call order."""
    seen = []

    def recording(algebra, pairs=None):
        seen.append(list(pairs))
        return coboundary_matrix(algebra, pairs)

    monkeypatch.setattr(ckcoh.cohomology, "coboundary_matrix", recording)
    return seen


def _scan_are_coboundaries(g, cochains):
    """The solutions over the rows the `constants` scan picks."""
    pairs = scan_coboundary_pairs(g, cochains)
    row_of = {pair: n for n, pair in enumerate(pairs)}
    rhs = [{row_of[pair]: v for pair, v in xi.entries.items()} for xi in cochains]
    return pairs, scan_solve_many(coboundary_matrix(g, pairs), rhs)


def test_are_coboundaries_solves_the_rows_the_constants_scan_picks(solved_pairs):
    rng = random.Random(77)
    narrower = 0
    for g in CK + RANDOM + GRADED:
        batches = [[], _random_cochains(g, rng, 4), h2(g).representatives]
        if g.family:
            batches.append(_canonical_cocycles(g))
        for cochains in batches:
            answers = are_coboundaries(g, cochains, assume_cocycle=True)
            pairs, solutions = _scan_are_coboundaries(g, cochains)
            assert solved_pairs.pop() == pairs
            assert [_exact(mu and mu.mu) for mu in answers] == list(map(_exact, solutions))
            narrower += len(pairs) < len(g.constants)
    assert not solved_pairs
    assert narrower > 300  # the blocks the cochains leave alone are not solved


# -- _write_cocycle ------------------------------------------------------------


def _coefficient_sets(g, rng):
    """Each alpha alone, all alphas at rational values, and random sets of every kind."""
    n = g.omega.n
    out = [BasicCoefficients(alpha={k: 1}) for k in range(1, n + 1)]
    out.append(BasicCoefficients(alpha={k: Fraction(k, 3) - 1 for k in range(1, n + 1)}))
    pairs = [(a, c) for a in range(n + 1) for c in range(a + 1, n + 1)]
    for _ in range(3):
        alphas = rng.sample(range(1, n + 1), min(2, n))
        coeffs = {
            "eta": {p: rng.randint(-2, 2) for p in rng.sample(pairs, min(2, len(pairs)))},
            "tau": {p: Fraction(rng.randint(-3, 3), 2) for p in rng.sample(pairs, 1)},
            "alpha": {k: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for k in alphas},
            "beta": {(k, k + 1): rng.randint(1, 3) for k in range(1, n)},
        }
        if g.family == "u":
            coeffs["gamma"] = {rng.randint(1, n): -1}
        out.append(BasicCoefficients(**coeffs))
    return out


def test_write_cocycle_takes_alpha_weights_from_running_products():
    rng = random.Random(8)
    for g in CK:
        basis, omega = g.ck_basis(), g.omega
        for coeffs in _coefficient_sets(g, rng):
            fast = _write_cocycle(basis, omega, coeffs, g.constants)
            slow = scan_write_cocycle(basis, omega, coeffs, g.constants)
            assert _exact(fast) == _exact(slow), (g, coeffs)


# -- _read_basic and BasicCoefficients -----------------------------------------


def _reading_cochains(g, rng):
    """Cochains with entries on the reading pairs of the algebra, and on others."""
    readings = list(_readings(g.ck_basis()))
    out = []
    for count in (1, 3, 12):
        picked = rng.sample(readings, min(len(readings), count))
        out.append(TwoCochain(g.dim, {p: Fraction(rng.randint(-4, 4), 3) for p in picked}))
    return out + _random_cochains(g, rng, 2) + h2(g).representatives


def test_read_basic_makes_only_the_fields_a_reading_holds():
    rng = random.Random(12)
    for g in CK:
        for xi in _reading_cochains(g, rng):
            fast = _read_basic(g, xi)
            slow = scan_read_basic(g, xi)
            for name, table in slow.items():
                assert _exact(getattr(fast, name)) == _exact(table)


def test_basic_coefficients_clean_each_field_into_a_new_dict():
    given = {2: Fraction(4, 2), 1: Fraction(1, 3), 3: 0}
    empty = {}
    coeffs = BasicCoefficients(alpha=given, beta=empty, gamma=None)
    assert _exact(coeffs.alpha) == [(2, 2, int), (1, Fraction(1, 3), Fraction)]
    assert coeffs.alpha is not given and given[3] == 0
    assert coeffs.beta == {} and coeffs.beta is not empty and coeffs.gamma == {}
    assert coeffs.eta == coeffs.tau == {} and coeffs.eta is not coeffs.tau
    with pytest.raises(AttributeError):
        coeffs.alpha = {}


# -- _fill_rows ----------------------------------------------------------------


def test_fill_rows_matches_the_comprehension_fill():
    for g in CK:
        coded = _ck_block_0(g._skeleton)
        fast = _fill_rows(coded, g._slot_values)
        slow = scan_fill_rows(coded, g._slot_values)
        assert list(map(_exact, fast)) == list(map(_exact, slow))
