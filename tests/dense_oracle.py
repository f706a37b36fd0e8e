"""Independent dense elimination oracle for the cohomology engine.

This module is deliberately naive: dense rows of Fractions, plain Gaussian
elimination with no pivoting freedom (columns left to right, first row with a
nonzero entry wins), no fraction-free tricks, and its own assembly of the
two-cocycle and two-coboundary systems straight from the bracket definitions.
It shares no code with ckcoh.sparse / ckcoh.cohomology so it can arbitrate
them.

It also holds a dense complex product for the realization check: square
matrices as (re, im) pairs of full grids, multiplied cell by cell, to arbitrate
the entry-map arithmetic of ckcoh.realization.
"""

from fractions import Fraction


def row_echelon_rank(rows):
    """Rank of a dense matrix (list of lists), eliminating in fixed order."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(m)):
            if m[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pv = m[rank][col]
        for r in range(rank + 1, len(m)):
            f = m[r][col]
            if f == 0:
                continue
            ratio = f / pv
            mr, mp = m[r], m[rank]
            for c in range(col, ncols):
                if mp[c]:
                    mr[c] -= ratio * mp[c]
        rank += 1
    return rank


def dense_nullspace(rows, ncols):
    """Kernel basis of a dense matrix, one vector per free column."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []  # (row, col)
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(m)):
            if m[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pv = m[rank][col]
        for r in range(len(m)):
            if r == rank or m[r][col] == 0:
                continue
            ratio = m[r][col] / pv
            mr, mp = m[r], m[rank]
            for c in range(col, ncols):
                if mp[c]:
                    mr[c] -= ratio * mp[c]
        pivots.append((rank, col))
        rank += 1
    pivot_cols = {col for _, col in pivots}
    basis = []
    for free in range(ncols):
        if free in pivot_cols:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for r, col in pivots:
            if m[r][free]:
                vec[col] = -m[r][free] / m[r][col]
        basis.append(vec)
    return basis


def _pair_index(r):
    idx = {}
    pairs = []
    for i in range(r):
        for j in range(i + 1, r):
            idx[(i, j)] = len(pairs)
            pairs.append((i, j))
    return idx, pairs


def cocycle_rows_dense(algebra):
    """Dense rows of the two-cocycle system, one per generator triple.

    Row for (i,j,l): sum_k C_ij^k xi_kl + C_jl^k xi_ki + C_li^k xi_kj = 0,
    with xi_qp = -xi_pq folded into the pair columns.
    """
    r = algebra.dim
    idx, pairs = _pair_index(r)
    npairs = len(pairs)
    rows = []
    for i in range(r):
        for j in range(i + 1, r):
            for l in range(j + 1, r):
                row = [Fraction(0)] * npairs
                for (x, y), z in (((i, j), l), ((j, l), i), ((l, i), j)):
                    for k, c in algebra.bracket(x, y):
                        if k == z:
                            continue
                        if k < z:
                            row[idx[(k, z)]] += Fraction(c)
                        else:
                            row[idx[(z, k)]] -= Fraction(c)
                rows.append(row)
    return rows, npairs


def coboundary_rows_dense(algebra):
    """Dense matrix of mu -> delta(mu), one row per generator pair."""
    r = algebra.dim
    rows = []
    for i in range(r):
        for j in range(i + 1, r):
            row = [Fraction(0)] * r
            for k, c in algebra.bracket(i, j):
                row[k] += Fraction(c)
            rows.append(row)
    return rows


def h2_dimensions_dense(algebra):
    """(dim Z2, dim B2, dim H2) by dense pivot-free elimination."""
    cocycle, npairs = cocycle_rows_dense(algebra)
    nonzero = [row for row in cocycle if any(row)]
    dim_z2 = npairs - row_echelon_rank(nonzero)
    dim_b2 = row_echelon_rank(coboundary_rows_dense(algebra))
    return dim_z2, dim_b2, dim_z2 - dim_b2


def complex_grids(mat):
    """A realized matrix as an (re, im) pair of dense grids."""
    return mat.re, mat.im


def complex_product(a, b):
    """Dense product of two (re, im) grid pairs of the same size."""
    (are, aim), (bre, bim) = a, b
    n = len(are)
    re = [[0] * n for _ in range(n)]
    im = [[0] * n for _ in range(n)]
    for r in range(n):
        for k in range(n):
            xr, xi = are[r][k], aim[r][k]
            if not xr and not xi:
                continue
            for c in range(n):
                re[r][c] += xr * bre[k][c] - xi * bim[k][c]
                im[r][c] += xr * bim[k][c] + xi * bre[k][c]
    return re, im


def complex_combination(terms):
    """sum c * X over (c, X) pairs, each X an (re, im) grid pair, c real."""
    n = len(terms[0][1][0])
    re = [[0] * n for _ in range(n)]
    im = [[0] * n for _ in range(n)]
    for factor, (xre, xim) in terms:
        for r in range(n):
            for c in range(n):
                re[r][c] += factor * xre[r][c]
                im[r][c] += factor * xim[r][c]
    return re, im


def complex_commutator(a, b):
    return complex_combination([(1, complex_product(a, b)), (-1, complex_product(b, a))])


def _is_zero(grids):
    return all(x == 0 for grid in grids for row in grid for x in row)


def representation_defects_dense(algebra, mats):
    """Pairs (i, j) whose dense commutator differs from sum_k C_ij^k rho(X_k)."""
    grids = [complex_grids(m) for m in mats]
    bad = []
    for i in range(algebra.dim):
        for j in range(i + 1, algebra.dim):
            terms = [(1, complex_commutator(grids[i], grids[j]))]
            terms += [(-c, grids[k]) for k, c in algebra.bracket(i, j)]
            if not _is_zero(complex_combination(terms)):
                bad.append((i, j))
    return bad


def is_isometry_dense(mat, metric):
    """Whether X^dagger I_w + I_w X is zero, by dense products."""
    re, im = complex_grids(mat)
    n = len(re)
    dagger = (
        [[re[c][r] for c in range(n)] for r in range(n)],
        [[-im[c][r] for c in range(n)] for r in range(n)],
    )
    met = complex_grids(metric)
    terms = [(1, complex_product(dagger, met)), (1, complex_product(met, (re, im)))]
    return _is_zero(complex_combination(terms))
