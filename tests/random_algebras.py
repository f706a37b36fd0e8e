"""Seeded random Lie algebras for oracle cross-checks.

Valid algebras of dim <= 10 are produced as direct sums of known blocks
(abelian, heisenberg, su_omega(2) with random rational omega) pushed through a
random rational change of basis, which keeps the Jacobi identity exactly while
producing dense, ugly structure constants.

`graded_change_of_basis` mixes the generators of a Cayley-Klein algebra only
within each sign character and keeps the characters, so the algebra stays
graded while its brackets of nonzero character get several targets.
"""

import random
from fractions import Fraction

from ckcoh.algebra import LieAlgebra, build_su_omega


def direct_sum(a: LieAlgebra, b: LieAlgebra) -> LieAlgebra:
    off = a.dim
    table = {pair: list(entries) for pair, entries in a.constants.items()}
    for (i, j), entries in b.constants.items():
        table[(i + off, j + off)] = [(k + off, c) for k, c in entries]
    return LieAlgebra(a.dim + b.dim, table)


def abelian(n: int) -> LieAlgebra:
    return LieAlgebra(n, {})


def heisenberg3() -> LieAlgebra:
    return LieAlgebra(3, {(0, 1): [(2, 1)]})


def _invert(matrix):
    """Exact inverse of a small dense rational matrix (Gauss-Jordan)."""
    n = len(matrix)
    aug = [
        [Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(matrix)
    ]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [v / pv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def change_of_basis(g: LieAlgebra, t) -> LieAlgebra:
    """Structure constants of Y_i = sum_j t[i][j] X_j (t invertible)."""
    tinv = _invert(t)
    n = g.dim
    table = {}
    for i in range(n):
        for j in range(i + 1, n):
            acc = [Fraction(0)] * n
            for p in range(n):
                tip = t[i][p]
                if not tip:
                    continue
                for q in range(n):
                    tjq = t[j][q]
                    if not tjq:
                        continue
                    for r, c in g.bracket(p, q):
                        acc[r] += tip * tjq * c
            entries = []
            for s in range(n):
                v = sum(acc[r] * tinv[r][s] for r in range(n) if acc[r])
                if v:
                    entries.append((s, v))
            if entries:
                table[(i, j)] = entries
    return LieAlgebra(n, table)


def random_invertible(rng: random.Random, n: int):
    """Unit lower-triangular times unit upper-triangular with small entries."""
    lo = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    up = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            lo[i][j] = Fraction(rng.randint(-2, 2))
        for j in range(i + 1, n):
            up[i][j] = Fraction(rng.randint(-2, 2))
    return [
        [sum(lo[i][k] * up[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


def random_algebra(rng: random.Random, max_dim: int = 10) -> LieAlgebra:
    blocks = []
    total = 0
    while True:
        kind = rng.choice(("abelian", "heisenberg", "su2"))
        if kind == "abelian":
            size = rng.randint(1, 3)
            block = abelian(size)
        elif kind == "heisenberg":
            block = heisenberg3()
        else:
            omega = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            block = build_su_omega(1, [omega])
        if total + block.dim > max_dim:
            break
        blocks.append(block)
        total += block.dim
        if total >= max_dim - 1 or (total >= 4 and rng.random() < 0.4):
            break
    g = blocks[0]
    for block in blocks[1:]:
        g = direct_sum(g, block)
    return change_of_basis(g, random_invertible(rng, g.dim))


def graded_change_of_basis(g: LieAlgebra, rng: random.Random) -> LieAlgebra:
    """g in a random basis that mixes generators of one sign character only."""
    n = g.dim
    t = [[Fraction(0)] * n for _ in range(n)]
    groups = {}
    for i, chi in enumerate(g._chars or [0] * n):
        groups.setdefault(chi, []).append(i)
    for group in groups.values():
        block = random_invertible(rng, len(group))
        for a, i in enumerate(group):
            for b, j in enumerate(group):
                t[i][j] = block[a][b]
    h = change_of_basis(g, t)
    object.__setattr__(h, "_chars", g._chars)
    return h
