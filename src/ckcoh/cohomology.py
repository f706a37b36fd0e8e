"""Second Lie-algebra cohomology over the rationals, for any finite algebra.

The unknowns are the antisymmetric coefficients xi_ij (one column per pair
i < j).  For every generator triple i < j < l the Jacobi identity of the
centrally extended bracket imposes

    sum_k ( C_ij^k xi_kl + C_jl^k xi_ki + C_li^k xi_kj ) = 0,

the two-cocycle condition; a change of generators X_i -> X_i + mu_i Xi shifts
xi by the two-coboundary (delta mu)(X_i, X_j) = sum_k C_ij^k mu_k.  Then

    dim Z2 = nullity(cocycle system),  dim B2 = rank(coboundary map),
    dim H2 = dim Z2 - dim B2,

and representatives of H2 are kernel basis vectors completing a basis of the
coboundary image inside the cocycle space.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import LieAlgebra, jacobi_residual, touching_triples
from .cochains import OneCochain, TwoCochain, pair_count, pair_index
from .sparse import Echelon, SparseMatrix, _integer_row, nullspace, rank, solve_many


class NotACocycleError(ValueError):
    """Raised when an operation requires a two-cocycle and got something else."""


def cocycle_system(algebra: LieAlgebra) -> SparseMatrix:
    """Sparse matrix of the two-cocycle conditions.

    One row per generator triple i < j < l in lexicographic order (rows whose
    structure constants all vanish are skipped), one column per cochain
    unknown (i, j), i < j; r(r-1)/2 columns in total.
    """
    r = algebra.dim
    cols = pair_count(r)
    rows = []
    for i in range(r):
        for j in range(i + 1, r):
            for l in range(j + 1, r):
                row = {}
                for (x, y), z in (((i, j), l), ((j, l), i), ((l, i), j)):
                    for k, c in algebra.bracket(x, y):
                        if k == z:
                            continue
                        if k < z:
                            col, val = pair_index(r, k, z), c
                        else:
                            col, val = pair_index(r, z, k), -c
                        nv = row.get(col, 0) + val
                        if nv:
                            row[col] = nv
                        else:
                            del row[col]
                if row:
                    rows.append(row)
    matrix = SparseMatrix(len(rows), cols)
    matrix.data[:] = rows
    return matrix


def coboundary_matrix(algebra: LieAlgebra) -> SparseMatrix:
    """Matrix of mu -> delta(mu): rows = pairs (i, j), columns = generators."""
    r = algebra.dim
    matrix = SparseMatrix(pair_count(r), r)
    for (i, j), entries in algebra.constants.items():
        row = matrix.data[pair_index(r, i, j)]
        for k, c in entries:
            row[k] = c
    return matrix


def delta(algebra: LieAlgebra, mu: OneCochain) -> TwoCochain:
    """The two-coboundary of mu: (delta mu)(X_i, X_j) = mu([X_i, X_j])."""
    if mu.dim != algebra.dim:
        raise ValueError("cochain dimension does not match the algebra")
    entries = {}
    for (i, j), terms in algebra.constants.items():
        s = 0
        for k, c in terms:
            v = mu.get(k)
            if v:
                s += c * v
        if s:
            entries[(i, j)] = s
    return TwoCochain(algebra.dim, entries)


def cocycle_defect(algebra: LieAlgebra, xi: TwoCochain):
    """Largest |violation| of the cocycle condition; 0 iff xi is a cocycle.

    Evaluates the condition directly on the triples that touch a nonzero
    bracket; all other triples are identically satisfied.
    """
    if xi.dim != algebra.dim:
        raise ValueError("cochain dimension does not match the algebra")
    worst = 0
    for x, y, z in touching_triples(algebra):
        s = 0
        for (p, q), w in (((x, y), z), ((y, z), x), ((z, x), y)):
            for k, c in algebra.bracket(p, q):
                v = xi.get(k, w)
                if v:
                    s += c * v
        if s and abs(s) > worst:
            worst = abs(s)
    return worst


def is_cocycle(algebra: LieAlgebra, xi: TwoCochain) -> bool:
    return cocycle_defect(algebra, xi) == 0


def central_extension(algebra: LieAlgebra, xi: TwoCochain) -> LieAlgebra:
    """Algebra on r+1 generators with [X_i,X_j] = sum C_ij^k X_k + xi_ij Xi.

    The added generator is central; the result satisfies Jacobi exactly when
    xi is a cocycle.
    """
    if xi.dim != algebra.dim:
        raise ValueError("cochain dimension does not match the algebra")
    r = algebra.dim
    table = {pair: list(entries) for pair, entries in algebra.constants.items()}
    for (i, j), v in xi.entries.items():
        table.setdefault((i, j), []).append((r, v))
    names = None
    if algebra.names:
        names = tuple(algebra.names) + ("Xi",)
    return LieAlgebra(r + 1, table, names=names)


@dataclass(frozen=True)
class CohomologyResult:
    dim_Z2: int
    dim_B2: int
    dim_H2: int
    representatives: list[TwoCochain] = field(default_factory=list)


def _coboundary_image_rows(algebra: LieAlgebra):
    """Integer row per generator k: the pair-space vector delta(e_k)."""
    r = algebra.dim
    rows = [{} for _ in range(r)]
    for (i, j), entries in algebra.constants.items():
        col = pair_index(r, i, j)
        for k, c in entries:
            rows[k][col] = c
    return [_integer_row(row) for row in rows]


def h2(algebra: LieAlgebra, representatives: bool = True, check: bool = True) -> CohomologyResult:
    """Full second cohomology: dimensions and (optionally) representatives.

    Representatives are kernel basis vectors of the cocycle system, taken in
    canonical order and kept exactly when independent of the coboundary image
    plus the representatives already chosen.
    """
    if check and jacobi_residual(algebra) != 0:
        raise ValueError("not a Lie algebra: nonzero Jacobi residual")
    system = cocycle_system(algebra)
    cols = pair_count(algebra.dim)
    image_rows = [row for row in _coboundary_image_rows(algebra) if row]
    image = Echelon(cols)
    for row in image_rows:
        image.absorb(row)
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


def h2_dimensions(algebra: LieAlgebra, check: bool = True) -> tuple[int, int, int]:
    """(dim Z2, dim B2, dim H2) without computing representatives."""
    res = h2(algebra, representatives=False, check=check)
    return res.dim_Z2, res.dim_B2, res.dim_H2


def is_coboundary(
    algebra: LieAlgebra, xi: TwoCochain, assume_cocycle: bool = False
):
    """A one-cochain mu with delta(mu) = xi, or None when xi is non-trivial.

    Raises NotACocycleError if xi fails the cocycle condition (reported
    distinctly from "cocycle but not a coboundary").  Free coordinates of mu
    are set to zero.
    """
    return are_coboundaries(algebra, [xi], assume_cocycle)[0]


def are_coboundaries(algebra: LieAlgebra, cochains, assume_cocycle: bool = False):
    """Batched is_coboundary: one elimination for many candidate cocycles."""
    if not assume_cocycle:
        for xi in cochains:
            if cocycle_defect(algebra, xi) != 0:
                raise NotACocycleError("a cochain is not a two-cocycle")
    matrix = coboundary_matrix(algebra)
    out = []
    for sol in solve_many(matrix, [xi.to_vector() for xi in cochains]):
        out.append(None if sol is None else OneCochain(algebra.dim, sol))
    return out
