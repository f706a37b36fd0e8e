"""The full-system solve of H2, the reference for the character-0 block solve.

`full_h2` eliminates every one of the r(r-1)/2 unknowns xi_ij: the whole
cocycle system, with no use of the sign characters.  Its body is the one
`cohomology.h2` had before that function solved block 0 only; it calls the
library's `cocycle_system`, `nullspace` and `rank`, so the tests compare the
two ways of cutting the same elimination, dims and representatives alike.
"""

from ckcoh.algebra import _bracket_index, jacobi_residual
from ckcoh.cochains import TwoCochain, pair_count, pair_index
from ckcoh.cohomology import CohomologyResult, cocycle_system
from ckcoh.sparse import Echelon, _integer_row, nullspace, rank


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
