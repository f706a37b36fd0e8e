import random
from fractions import Fraction

import pytest

from ckcoh.sparse import (
    SparseMatrix,
    _integer_row,
    matvec,
    nullspace,
    rank,
    solve,
    solve_many,
)

from dense_oracle import dense_nullspace, row_echelon_rank


def _to_dense(m: SparseMatrix):
    return [[m.entry(r, c) for c in range(m.cols)] for r in range(m.rows)]


def test_identity_has_empty_kernel():
    m = SparseMatrix.from_entries(4, 4, [(i, i, 1) for i in range(4)])
    assert rank(m) == 4
    assert nullspace(m) == []


def test_zero_matrix_unit_kernel():
    m = SparseMatrix(3, 5)
    assert rank(m) == 0
    basis = nullspace(m)
    assert basis == [{c: 1} for c in range(5)]


def _random_rank50_matrix(seed=20240229):
    """50x80 with known rank 50: full-rank echelon pattern times unit factor."""
    rng = random.Random(seed)
    rows, cols, rk = 50, 80, 50
    base = [[0] * cols for _ in range(rk)]
    lead = sorted(rng.sample(range(cols), rk))
    for r in range(rk):
        base[r][lead[r]] = rng.choice((1, 2, 3, -1, -2))
        for c in range(lead[r] + 1, cols):
            if rng.random() < 0.25:
                base[r][c] = rng.randint(-4, 4)
    # left-multiply by a unit lower-triangular matrix: rank preserved
    out = [row[:] for row in base]
    for r in range(1, rk):
        for s in range(r):
            f = rng.randint(-2, 2)
            if f:
                for c in range(cols):
                    out[r][c] += f * base[s][c]
    m = SparseMatrix(rows, cols)
    for r in range(rows):
        for c in range(cols):
            if out[r][c]:
                m.set(r, c, out[r][c])
    return m


def test_random_50x80_rank50_kernel():
    m = _random_rank50_matrix()
    assert row_echelon_rank(_to_dense(m)) == 50  # oracle confirms construction
    assert rank(m) == 50
    basis = nullspace(m)
    assert len(basis) == 30
    for vec in basis:
        assert matvec(m, vec) == {}
    # kernel vectors are integer, content-free and independent (one free col each)
    frees = set()
    for vec in basis:
        assert all(isinstance(v, int) for v in vec.values())
        mine = set(vec) - frees
        assert mine
        frees |= set(vec)


def test_nullspace_matches_dense_oracle_on_random_matrices():
    rng = random.Random(777)
    for _ in range(25):
        rows = rng.randint(1, 12)
        cols = rng.randint(1, 12)
        m = SparseMatrix(rows, cols)
        for r in range(rows):
            for c in range(cols):
                if rng.random() < 0.4:
                    m.set(r, c, Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
        dense = _to_dense(m)
        assert rank(m) == row_echelon_rank(dense)
        kernel = nullspace(m)
        assert len(kernel) == len(dense_nullspace(dense, cols))
        for vec in kernel:
            assert matvec(m, vec) == {}


def test_deterministic_output():
    m1 = _random_rank50_matrix()
    m2 = _random_rank50_matrix()
    assert nullspace(m1) == nullspace(m2)
    assert m1.to_text() == m2.to_text()


def test_large_column_regime_uses_same_contract():
    # a wide matrix (250 columns, 40 rows): most columns are free
    rng = random.Random(1)
    m = SparseMatrix(40, 250)
    for r in range(40):
        for _ in range(5):
            m.set(r, rng.randrange(250), rng.randint(-3, 3))
    kernel = nullspace(m)
    assert len(kernel) == 250 - rank(m)
    for vec in kernel:
        assert matvec(m, vec) == {}


def test_solve_consistent_and_inconsistent():
    # x + y = 3, y = 1 -> x = 2 with the third equation dependent
    m = SparseMatrix.from_entries(
        3, 2, [(0, 0, 1), (0, 1, 1), (1, 1, 1), (2, 0, 2), (2, 1, 2)]
    )
    sol = solve(m, {0: 3, 1: 1, 2: 6})
    assert sol == {0: 2, 1: 1}
    assert solve(m, {0: 3, 1: 1, 2: 7}) is None
    many = solve_many(m, [{0: 3, 1: 1, 2: 6}, {0: 3, 1: 1, 2: 7}, {}])
    assert many[0] == {0: 2, 1: 1} and many[1] is None and many[2] == {}


def test_solve_free_variables_are_zero():
    # single equation x0 + x1 + x2 = 6: pivot gets everything, free vars 0
    m = SparseMatrix.from_entries(1, 3, [(0, 0, 1), (0, 1, 1), (0, 2, 1)])
    assert solve(m, {0: 6}) == {0: 6}


def test_rational_entries_and_fraction_free_core():
    m = SparseMatrix.from_entries(
        2, 3, [(0, 0, Fraction(1, 2)), (0, 1, Fraction(1, 3)), (1, 1, 2), (1, 2, 5)]
    )
    kernel = nullspace(m)
    assert len(kernel) == 1
    assert matvec(m, kernel[0]) == {}
    assert all(isinstance(v, int) for v in kernel[0].values())


def test_serialization_round_trip():
    import json

    m = SparseMatrix.from_entries(
        3, 4, [(0, 1, Fraction(-7, 3)), (2, 0, 5), (2, 3, Fraction(1, 2))]
    )
    assert SparseMatrix.from_text(m.to_text()) == m
    assert SparseMatrix.from_json_obj(json.loads(m.to_json())) == m
    with pytest.raises(IndexError):
        m.set(5, 0, 1)


def test_integer_rows_have_no_denominators_and_unit_content():
    assert _integer_row({0: Fraction(1, 2), 3: Fraction(-3, 4)}) == {0: 2, 3: -3}
    assert _integer_row({1: 4, 2: -6, 5: 10}) == {1: 2, 2: -3, 5: 5}
    assert _integer_row({0: Fraction(2, 3), 1: Fraction(4, 3)}) == {0: 1, 1: 2}
    assert _integer_row({0: 7}) == {0: 1}
    assert _integer_row({0: 0, 1: Fraction(0)}) == {}
    assert _integer_row({}) == {}
