"""Fundamental (N+1)x(N+1) matrix realization of the quasi-unitary algebras.

With e_ab the matrix unit (row a, column b) and w_ab the two-index omega
product:

    J_ab = -w_ab e_ab + e_ba        M_ab = i (w_ab e_ab + e_ba)
    B_l  = i (e_{l-1,l-1} - e_ll)   I    = i sum_a e_aa

Every realized generator X obeys  X^dagger I_w + I_w X = 0  for the metric
matrix I_w = diag(1, w_01, w_02, ..., w_0N), and the matrix commutators
reproduce the structure constants exactly.  Entries are exact rationals,
stored as separate real and imaginary parts.

A realized generator has at most N+1 nonzero entries, so matrices are held
as a map of those entries and every product and check costs what they hold.
Dense rows exist only for output.
"""

from __future__ import annotations

from .algebra import LieAlgebra
from .generators import _basis
from .omega import _of_length
from .rationals import format_rational, ratio


class ComplexMatrix:
    """Square matrix of exact complex rationals, held as its nonzero entries.

    `entries` maps (row, col) to (re, im); an entry whose parts are both zero
    is not stored, so the zero matrix has no entries.
    """

    __slots__ = ("size", "entries")

    def __init__(self, size, entries=None):
        self.size = size
        self.entries = {}
        for (r, c), (re, im) in (entries or {}).items():
            if not (0 <= r < size and 0 <= c < size):
                raise IndexError(f"matrix entry ({r},{c}) outside size {size}")
            re, im = ratio(re), ratio(im)
            if re or im:
                self.entries[r, c] = (re, im)

    def __eq__(self, other):
        return (
            isinstance(other, ComplexMatrix)
            and self.size == other.size
            and self.entries == other.entries
        )

    def __repr__(self):
        return "ComplexMatrix([" + ", ".join(self.format_rows()) + "])"

    def _grid(self, part):
        grid = [[0] * self.size for _ in range(self.size)]
        for (r, c), value in self.entries.items():
            grid[r][c] = value[part]
        return grid

    @property
    def re(self) -> list[list]:
        """Dense rows of the real parts, for output."""
        return self._grid(0)

    @property
    def im(self) -> list[list]:
        """Dense rows of the imaginary parts, for output."""
        return self._grid(1)

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
        return not self.entries

    def __matmul__(self, other):
        if other.size != self.size:
            raise ValueError(f"matrix sizes differ: {self.size} and {other.size}")
        row_of = {}
        for (k, c), value in other.entries.items():
            row_of.setdefault(k, []).append((c, value))
        out = {}
        for (r, k), (xr, xi) in self.entries.items():
            for c, (yr, yi) in row_of.get(k, ()):
                re, im = out.get((r, c), (0, 0))
                out[r, c] = (re + xr * yr - xi * yi, im + xr * yi + xi * yr)
        return _exact(self.size, out)

    def conjugate_transpose(self) -> "ComplexMatrix":
        return _exact(
            self.size, {(c, r): (re, -im) for (r, c), (re, im) in self.entries.items()}
        )

    def trace(self):
        diagonal = [value for (r, c), value in self.entries.items() if r == c]
        return ratio(sum(v[0] for v in diagonal)), ratio(sum(v[1] for v in diagonal))


def _exact(size, entries) -> ComplexMatrix:
    """A matrix over entries that are already exact, its zero entries dropped."""
    mat = ComplexMatrix(size)
    mat.entries = {key: value for key, value in entries.items() if value[0] or value[1]}
    return mat


def _combination(size, terms) -> ComplexMatrix:
    """sum c * X over the (c, X) pairs of `terms`, each c an exact real scalar."""
    out = {}
    for factor, mat in terms:
        for key, (re, im) in mat.entries.items():
            ore, oim = out.get(key, (0, 0))
            out[key] = (ore + factor * re, oim + factor * im)
    return _exact(size, out)


def fundamental_matrices(N: int, omega, family: str) -> list[ComplexMatrix]:
    """Realized generators in canonical order, (N+1)x(N+1) each."""
    omega = _of_length(N, omega)
    pairs = list(_basis(N, family).index_pairs())
    n, w = N + 1, omega.product
    mats = [ComplexMatrix(n, {(a, b): (-w(a, b), 0), (b, a): (1, 0)}) for a, b in pairs]
    mats += [ComplexMatrix(n, {(a, b): (0, w(a, b)), (b, a): (0, 1)}) for a, b in pairs]
    mats += [ComplexMatrix(n, {(l - 1, l - 1): (0, 1), (l, l): (0, -1)}) for l in range(1, N + 1)]
    if family == "u":
        mats.append(ComplexMatrix(n, {(a, a): (0, 1) for a in range(n)}))
    return mats


def metric_matrix(N: int, omega) -> ComplexMatrix:
    """I_w = diag(1, w_01, w_02, ..., w_0N)."""
    omega = _of_length(N, omega)
    return ComplexMatrix(N + 1, {(r, r): (omega.product(0, r), 0) for r in range(N + 1)})


def isometry_defect(mat: ComplexMatrix, metric: ComplexMatrix) -> ComplexMatrix:
    """X^dagger I_w + I_w X; the zero matrix exactly when X is an isometry."""
    return _combination(mat.size, [(1, mat.conjugate_transpose() @ metric), (1, metric @ mat)])


def representation_defects(algebra: LieAlgebra, mats: list[ComplexMatrix]):
    """Pairs (i, j) where [rho(X_i), rho(X_j)] != sum_k C_ij^k rho(X_k), i < j ascending.

    Only the pairs with a bracket, or whose product X_i X_j or X_j X_i can be
    nonempty, are checked: the generators are indexed by the rows and the
    columns their entries touch, and X_i X_j meets an entry only where a
    column of X_i is a row of X_j.  Every other pair has a zero commutator
    and a zero bracket, so it is no defect.
    """
    dim = algebra.dim
    if len(mats) != dim:
        raise ValueError(f"{len(mats)} matrices for an algebra of dim {dim}")
    by_row, by_col = {}, {}
    for n in range(dim):
        for r, c in mats[n].entries:
            by_row.setdefault(r, set()).add(n)
            by_col.setdefault(c, set()).add(n)
    partners = [set() for _ in range(dim)]
    for i, j in algebra.constants:
        partners[i].add(j)
    bad = []
    for i in range(dim):
        near = partners[i]
        for r, c in mats[i].entries:
            near.update(by_row.get(c, ()))
            near.update(by_col.get(r, ()))
        for j in sorted(near):
            if j <= i:
                continue
            terms = [(1, mats[i] @ mats[j]), (-1, mats[j] @ mats[i])]
            terms += [(-c, mats[k]) for k, c in algebra.bracket(i, j)]
            if not _combination(mats[i].size, terms).is_zero():
                bad.append((i, j))
    return bad
