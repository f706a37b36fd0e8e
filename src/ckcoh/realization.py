"""Fundamental (N+1)x(N+1) matrix realization of the quasi-unitary algebras.

With e_ab the matrix unit (row a, column b) and w_ab the two-index omega
product:

    J_ab = -w_ab e_ab + e_ba        M_ab = i (w_ab e_ab + e_ba)
    B_l  = i (e_{l-1,l-1} - e_ll)   I    = i sum_a e_aa

Every realized generator X obeys  X^dagger I_w + I_w X = 0  for the metric
matrix I_w = diag(1, w_01, w_02, ..., w_0N), and the matrix commutators
reproduce the structure constants exactly.  Entries are exact rationals,
stored as separate real and imaginary parts.
"""

from __future__ import annotations

from .algebra import LieAlgebra
from .generators import _basis
from .omega import OmegaVector
from .rationals import format_rational, ratio


class ComplexMatrix:
    """Square matrix of exact complex rationals (re, im stored separately)."""

    __slots__ = ("size", "re", "im")

    def __init__(self, size, re=None, im=None):
        def grid(rows):
            if rows is None:
                return [[0] * size for _ in range(size)]
            if len(rows) != size or any(len(r) != size for r in rows):
                raise ValueError("matrix shape mismatch")
            return [[ratio(x) for x in row] for row in rows]

        self.size = size
        self.re = grid(re)
        self.im = grid(im)

    def __eq__(self, other):
        return (
            isinstance(other, ComplexMatrix)
            and self.size == other.size
            and self.re == other.re
            and self.im == other.im
        )

    def __repr__(self):
        return "ComplexMatrix([" + ", ".join(self.format_rows()) + "])"

    def format_rows(self) -> list[str]:
        """One `[a, b+ci, c-di, ...]` string per row, entries exact."""
        rows = []
        for re_row, im_row in zip(self.re, self.im):
            cells = []
            for re, im in zip(re_row, im_row):
                cell = format_rational(re)
                if im:
                    cell += f"{'+' if im > 0 else '-'}{format_rational(abs(im))}i"
                cells.append(cell)
            rows.append("[" + ", ".join(cells) + "]")
        return rows

    def is_zero(self) -> bool:
        return all(not v for row in self.re for v in row) and all(
            not v for row in self.im for v in row
        )

    def __add__(self, other):
        n = self.size
        return ComplexMatrix(
            n,
            [[self.re[r][c] + other.re[r][c] for c in range(n)] for r in range(n)],
            [[self.im[r][c] + other.im[r][c] for c in range(n)] for r in range(n)],
        )

    def __sub__(self, other):
        n = self.size
        return ComplexMatrix(
            n,
            [[self.re[r][c] - other.re[r][c] for c in range(n)] for r in range(n)],
            [[self.im[r][c] - other.im[r][c] for c in range(n)] for r in range(n)],
        )

    def scaled(self, factor) -> "ComplexMatrix":
        factor = ratio(factor)
        n = self.size
        return ComplexMatrix(
            n,
            [[factor * v for v in row] for row in self.re],
            [[factor * v for v in row] for row in self.im],
        )

    def __matmul__(self, other):
        n = self.size
        re = [[0] * n for _ in range(n)]
        im = [[0] * n for _ in range(n)]
        for r in range(n):
            are, aim = self.re[r], self.im[r]
            for k in range(n):
                xr, xi = are[k], aim[k]
                if not xr and not xi:
                    continue
                bre, bim = other.re[k], other.im[k]
                rr, ri = re[r], im[r]
                for c in range(n):
                    yr, yi = bre[c], bim[c]
                    if yr or yi:
                        rr[c] += xr * yr - xi * yi
                        ri[c] += xr * yi + xi * yr
        return ComplexMatrix(n, re, im)

    def commutator(self, other) -> "ComplexMatrix":
        return self @ other - other @ self

    def conjugate_transpose(self) -> "ComplexMatrix":
        n = self.size
        return ComplexMatrix(
            n,
            [[self.re[c][r] for c in range(n)] for r in range(n)],
            [[-self.im[c][r] for c in range(n)] for r in range(n)],
        )

    def trace(self):
        tre = sum(self.re[r][r] for r in range(self.size))
        tim = sum(self.im[r][r] for r in range(self.size))
        return ratio(tre), ratio(tim)


def _unit(n, r, c):
    g = [[0] * n for _ in range(n)]
    g[r][c] = 1
    return g


def fundamental_matrices(N: int, omega, family: str) -> list[ComplexMatrix]:
    """Realized generators in canonical order, (N+1)x(N+1) each."""
    omega = OmegaVector(omega)
    basis = _basis(N, family)
    n = N + 1
    mats = []
    for a, b in basis.index_pairs():
        re = _unit(n, b, a)
        re[a][b] = -omega.product(a, b)
        mats.append(ComplexMatrix(n, re, None))
    for a, b in basis.index_pairs():
        im = _unit(n, b, a)
        im[a][b] = omega.product(a, b)
        mats.append(ComplexMatrix(n, None, im))
    for l in range(1, N + 1):
        im = [[0] * n for _ in range(n)]
        im[l - 1][l - 1] = 1
        im[l][l] = -1
        mats.append(ComplexMatrix(n, None, im))
    if family == "u":
        mats.append(ComplexMatrix(n, None, [[1 if r == c else 0 for c in range(n)] for r in range(n)]))
    return mats


def metric_matrix(N: int, omega) -> ComplexMatrix:
    """I_w = diag(1, w_01, w_02, ..., w_0N)."""
    omega = OmegaVector(omega)
    n = N + 1
    re = [[omega.product(0, r) if r == c else 0 for c in range(n)] for r in range(n)]
    return ComplexMatrix(n, re, None)


def isometry_defect(mat: ComplexMatrix, metric: ComplexMatrix) -> ComplexMatrix:
    """X^dagger I_w + I_w X; the zero matrix exactly when X is an isometry."""
    return mat.conjugate_transpose() @ metric + metric @ mat


def representation_defects(algebra: LieAlgebra, mats: list[ComplexMatrix]):
    """Pairs (i, j) where [rho(X_i), rho(X_j)] != sum_k C_ij^k rho(X_k)."""
    bad = []
    for i in range(algebra.dim):
        for j in range(i + 1, algebra.dim):
            want = mats[i].commutator(mats[j])
            for k, c in algebra.bracket(i, j):
                want = want - mats[k].scaled(c)
            if not want.is_zero():
                bad.append((i, j))
    return bad
