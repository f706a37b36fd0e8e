"""The full-system solve of H2, the reference for the character-0 block solve.

`full_h2` eliminates every one of the r(r-1)/2 unknowns xi_ij: the whole
cocycle system, with no use of the sign characters.  Its body is the one
`cohomology.h2` had before that function solved block 0 only; it calls the
library's `cocycle_system`, `nullspace` and `rank`, so the tests compare the
two ways of cutting the same elimination, dims and representatives alike.

`_bracket_index` and `_characters` rebuild what `LieAlgebra._into` and
`LieAlgebra._chars` hold: the bracket index from the table, and the sign
characters from the CK formulas, trusted only when the table matches them.
`full_h2` walks its own index, so the oracle does not lean on `_into`.

`full_are_coboundaries` is the body `cohomology.are_coboundaries` had before
that function solved only the blocks its cochains touch: it eliminates the
whole C(r,2) x r coboundary matrix, built by `full_coboundary_matrix`.
"""

from ckcoh.algebra import LieAlgebra, _build_ck, jacobi_residual
from ckcoh.cochains import OneCochain, TwoCochain, pair_count, pair_index
from ckcoh.cohomology import CohomologyResult, NotACocycleError, cocycle_defect, cocycle_system
from ckcoh.sparse import Echelon, SparseMatrix, _integer_row, nullspace, rank, solve_many


def _bracket_index(algebra: LieAlgebra) -> dict:
    """Generator k -> every (p, q, C_pq^k) with p < q and C_pq^k != 0."""
    into = {}
    for (p, q), entries in algebra.constants.items():
        for k, c in entries:
            into.setdefault(k, []).append((p, q, c))
    return into


def _characters(algebra: LieAlgebra) -> list[int]:
    """Bit mask per generator: sigma_S, S a subset of {0..N}, scales it by (-1)^|S & mask|.

    The mask is e_a + e_b on J_ab and M_ab and 0 on B_l and I.  An algebra
    that is not exactly the CK algebra its metadata names gets all zeros (one
    block); telling them apart rebuilds that algebra (1.5 ms at N = 6 on a
    2-core x86-64 host).
    """
    chars = [0] * algebra.dim
    if not algebra.is_ck() or _build_ck(algebra.omega.n, algebra.omega, algebra.family) != algebra:
        return chars
    basis = algebra.ck_basis()
    for a, b in basis.index_pairs():
        chars[basis.j(a, b)] = chars[basis.m(a, b)] = (1 << a) | (1 << b)
    return chars


def full_h2(algebra, representatives: bool = True, check: bool = True) -> CohomologyResult:
    if check and jacobi_residual(algebra) != 0:
        raise ValueError("not a Lie algebra: nonzero Jacobi residual")
    system = cocycle_system(algebra)
    r = algebra.dim
    cols = pair_count(r)
    image = Echelon(cols)
    into = _bracket_index(algebra)
    for k in sorted(into):  # delta(e_k), generator by generator
        image.absorb(_integer_row({pair_index(r, p, q): c for p, q, c in into[k]}))
    dim_b2 = image.rank
    if not representatives:
        dim_z2 = cols - rank(system)
        return CohomologyResult(dim_z2, dim_b2, dim_z2 - dim_b2, [])
    kernel = nullspace(system)
    dim_z2 = len(kernel)
    reps = []
    for vec in kernel:
        if image.absorb(vec):
            reps.append(TwoCochain.from_vector(algebra.dim, vec))
    result = CohomologyResult(dim_z2, dim_b2, dim_z2 - dim_b2, reps)
    if len(reps) != result.dim_H2:
        raise AssertionError("representative extension lost independence")
    return result


def full_coboundary_matrix(algebra: LieAlgebra) -> SparseMatrix:
    """Matrix of mu -> delta(mu): rows = pairs (i, j), columns = generators."""
    r = algebra.dim
    matrix = SparseMatrix(pair_count(r), r)
    for (i, j), entries in algebra.constants.items():
        row = matrix.data[pair_index(r, i, j)]
        for k, c in entries:
            row[k] = c
    return matrix


def full_are_coboundaries(algebra: LieAlgebra, cochains, assume_cocycle: bool = False):
    """Batched is_coboundary: one elimination for many candidate cocycles."""
    if not assume_cocycle:
        for xi in cochains:
            if cocycle_defect(algebra, xi) != 0:
                raise NotACocycleError("a cochain is not a two-cocycle")
    matrix = full_coboundary_matrix(algebra)
    out = []
    for sol in solve_many(matrix, [xi.to_vector() for xi in cochains]):
        out.append(None if sol is None else OneCochain(algebra.dim, sol))
    return out
