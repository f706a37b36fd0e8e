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

Only the character-0 block is solved.  The sign maps sigma_S of a CK algebra
scale each generator by a character (`LieAlgebra._chars`, set when a builder
makes it) that brackets respect, so the system and the coboundary image split
into blocks of pair character chi_i + chi_j.  Each sigma_S is exp(pi ad X)
with X in span(B_l), since ad(B_l) rotates every (J_ab, M_ab) plane, and such
an automorphism acts trivially on H2 (Hochschild and Serre, Ann. Math. 57,
1953).  A class of character chi != 0 is negated by some sigma_S, so

    Z2_chi = B2_chi for every chi != 0:

all of H2 lives in block 0.  Any other algebra, a table made directly with
`LieAlgebra` (which takes no family or omega), has zero characters, is one
block, and must pass the Jacobi check; a builder's table is Lie by design.

The coboundary matrix is block-diagonal by character too: delta(e_k) lies
only on pairs of character chi_k.  So `are_coboundaries` solves only the
blocks its cochains touch: on every other block the right-hand side is zero
and mu = 0 there, which is what the whole solve gives, key order included.
It finds the brackets of those blocks in the bracket index, under the
targets of a touched character.  That rests on the character rule
`_CKSkeleton.check` enforces: the first target of [X_p, X_q] has the
character chi_p ^ chi_q, and a bracket with several targets has character 0
on all of them, so every target of a bracket carries its pair's character.
A table without characters reads as all character 0, so there every bracket
is found.

For the same reason `h2` eliminates block 0 alone.  Its pairs come from the
generators grouped by character, and its coboundary image is the delta(e_k)
with chi_k = 0 in the block's own columns, read from the bracket index;
that rank enters dim H2.  For an algebra a builder made, the pairs and rows
come from its skeleton (`block_pairs`, `algebra._ck_block_0`): omega enters
the rows only through the w_ab, so they are walked once per (N, family) and
filled at each algebra's code values when `cocycle_system` is handed the
skeleton's pairs.
Those rows are the walk's rows less each row equal to an earlier one, which
leaves the echelon as it is: `sparse._build_echelon` skips a copy of a row
it has reduced, because the copy would reduce to zero.  Each of those
delta(e_k) is a cocycle (the Jacobi identity along e_k, checked for
an algebra without characters, by design for a builder's table), so the
block's system has rank at most len(block) - rank_0, and its elimination
stops there.  Then

    dim B2 = rank(mu -> delta(mu)) = dim [g, g],

the span of the bracket vectors [X_p, X_q].  Each lies on generators of the
one character chi_p + chi_q, so every character chi != 0 adds the rank of its
bracket vectors.  Only the builders set characters, and their skeleton
check requires each such vector to have a single target, of its own
character.  So that rank is the number of generators of nonzero character
that some bracket reaches, a count that needs no elimination.

The condition is the Jacobi sum with xi in place of the bracket, so
`cocycle_system`, `cocycle_defect` and `jacobi_residual` share one walk,
`algebra._cyclic_terms`, the first through its one assembly `_cyclic_rows`
(which makes the skeleton's block 0 too), the last two through its one
accumulator `_cyclic_max`, and the image rows delta(e_k) are its index.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import (
    LieAlgebra,
    _block_0_pairs,
    _ck_block_0,
    _cyclic_max,
    _cyclic_rows,
    _fill_rows,
    jacobi_residual,
)
from .cochains import OneCochain, TwoCochain, pair_list
from .sparse import Echelon, SparseMatrix, _integer_row, nullspace, rank, solve_many


class NotACocycleError(ValueError):
    """Raised when an operation requires a two-cocycle and got something else."""


def cocycle_system(algebra: LieAlgebra, pairs=None) -> SparseMatrix:
    """Sparse matrix of the two-cocycle conditions.

    One column per unknown xi_ij of `pairs`, in that order (default: all
    r(r-1)/2 pairs i < j, lexicographic), one row per generator triple
    i < j < l in lexicographic order (empty rows are skipped), as
    `algebra._cyclic_rows` assembles them.

    For an algebra a builder filled from a skeleton, and the block-0 pairs
    of that skeleton (`_CKSkeleton.block_pairs`, which `h2` passes), the
    rows are `_ck_block_0` filled at the algebra's code values by
    `_fill_rows`: the same rows, less each row equal to an earlier one.  Any
    other pair list is walked, and the block's rows are not made for it.
    """
    skeleton = algebra._skeleton
    if skeleton is not None and pairs is skeleton.block_pairs:
        rows = _fill_rows(_ck_block_0(skeleton), algebra._slot_values)
    else:
        if pairs is None:
            pairs = pair_list(algebra.dim)
        rows = list(_cyclic_rows(algebra._into, pairs, algebra.dim))
    matrix = SparseMatrix(len(rows), len(pairs))
    matrix.data[:] = rows
    return matrix


def coboundary_matrix(algebra: LieAlgebra, pairs=None) -> SparseMatrix:
    """Matrix of mu -> delta(mu): columns = generators, one row per pair.

    One row per pair (i, j) of `pairs`, in that order (default: all r(r-1)/2
    pairs i < j, lexicographic); row (i, j) holds C_ij^k in column k.
    """
    if pairs is None:
        pairs = pair_list(algebra.dim)
    constants = algebra.constants
    matrix = SparseMatrix(len(pairs), algebra.dim)
    matrix.data[:] = [dict(constants.get(pair, ())) for pair in pairs]
    return matrix


def _coboundary(constants: dict, mu: dict) -> dict:
    """Pair -> (delta mu)(X_i, X_j) = mu([X_i, X_j]) over a bracket table (zeros kept)."""
    return {pair: sum(c * mu.get(k, 0) for k, c in terms) for pair, terms in constants.items()}


def delta(algebra: LieAlgebra, mu: OneCochain) -> TwoCochain:
    """The two-coboundary of mu: (delta mu)(X_i, X_j) = mu([X_i, X_j])."""
    if mu.dim != algebra.dim:
        raise ValueError("cochain dimension does not match the algebra")
    return TwoCochain(algebra.dim, _coboundary(algebra.constants, mu.mu))


def cocycle_defect(algebra: LieAlgebra, xi: TwoCochain):
    """Largest |violation| of the cocycle condition; 0 iff xi is a cocycle.

    Entry-driven: `_cyclic_max` over the nonzero entries of xi, the
    accumulator `jacobi_residual` uses, so the cost follows the entries of
    xi, not the number of triples.
    """
    if xi.dim != algebra.dim:
        raise ValueError("cochain dimension does not match the algebra")
    return _cyclic_max(algebra._into, ((a, b, v) for (a, b), v in xi.entries.items()))


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
        names = tuple(map(algebra.name, range(r))) + ("Xi",)
    return LieAlgebra(r + 1, table, names=names)


@dataclass(frozen=True)
class CohomologyResult:
    dim_Z2: int
    dim_B2: int
    dim_H2: int
    representatives: list[TwoCochain] = field(default_factory=list)


def _block_0(algebra: LieAlgebra):
    """The character-0 pairs, lexicographic, and the delta(e_k) with chi_k = 0 in their columns.

    The pairs are the skeleton's `block_pairs`, which `cocycle_system`
    knows, when a builder filled the table, else the generators grouped by
    character (one group without characters); the delta(e_k) come from the
    bracket index, k ascending.
    """
    chars, skeleton = algebra._chars, algebra._skeleton
    block = _block_0_pairs(algebra.dim, chars) if skeleton is None else skeleton.block_pairs
    col_of = {pair: n for n, pair in enumerate(block)}
    into = algebra._into
    # delta(e_k) lies on the pairs of character chi_k
    image = [
        {col_of[p, q]: c for p, q, c in into[k]} for k in sorted(into) if not (chars and chars[k])
    ]
    return block, image


def h2(algebra: LieAlgebra, representatives: bool = True) -> CohomologyResult:
    """Full second cohomology: dimensions and (optionally) representatives.

    Only the character-0 block is eliminated: its pairs come from the
    generators grouped by character, and its coboundaries are the delta(e_k)
    with chi_k = 0, in the block's own columns (see `_block_0`).
    dim H2 = nullity - rank of those coboundaries, dim B2 = dim [g, g] (that
    rank plus the rank of the brackets of nonzero character) and
    dim Z2 = dim B2 + dim H2.
    Representatives are the block's kernel basis vectors, taken in canonical
    order and kept exactly when independent of the coboundary image plus the
    representatives already chosen.
    """
    chars = algebra._chars
    if not any(chars or ()) and jacobi_residual(algebra) != 0:
        raise ValueError("not a Lie algebra: nonzero Jacobi residual")
    r = algebra.dim
    block, image_rows = _block_0(algebra)
    system = cocycle_system(algebra, block)
    image = Echelon(len(block))
    for row in image_rows:
        image.absorb(_integer_row(row))
    rank_0 = image.rank
    # every bracket of nonzero character has one target (`_CKSkeleton.check`)
    dim_b2 = rank_0 + (sum(1 for k in algebra._into if chars[k]) if chars else 0)
    # each of those delta(e_k) is a cocycle, so nullity >= rank_0
    ceiling = len(block) - rank_0
    if not representatives:
        dim_h2 = len(block) - rank(system, ceiling) - rank_0
        return CohomologyResult(dim_b2 + dim_h2, dim_b2, dim_h2, [])
    kernel = nullspace(system, ceiling)
    dim_h2 = len(kernel) - rank_0
    reps = []
    for vec in kernel:
        if image.absorb(vec):
            reps.append(TwoCochain(r, {block[c]: v for c, v in vec.items()}))
    if len(reps) != dim_h2:
        raise AssertionError("representative extension lost independence")
    return CohomologyResult(dim_b2 + dim_h2, dim_b2, dim_h2, reps)


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
    """Batched is_coboundary: one elimination for many candidate cocycles.

    Only the blocks the cochains touch are solved: the rows of the pairs
    whose character chi_i ^ chi_j some cochain entry carries, lexicographic.
    Of those, a pair with no bracket is kept only when a cochain has an entry
    on it (its row is then the inconsistent 0 = xi_ij).  Every other block
    has a zero right-hand side and mu = 0 on its generators, which is what
    the whole solve gives there, so the result is the same.  The brackets
    of a touched character are read from the bracket index: each is filed
    under a target of its own character (`_CKSkeleton.check`), so the cost
    follows the touched blocks, not the whole table.
    """
    if any(xi.dim != algebra.dim for xi in cochains):
        raise ValueError("cochain dimension does not match the algebra")
    if not assume_cocycle:
        for xi in cochains:
            if cocycle_defect(algebra, xi) != 0:
                raise NotACocycleError("a cochain is not a two-cocycle")
    chars = algebra._chars or (0,) * algebra.dim  # a table without characters is one block
    rows = {pair for xi in cochains for pair in xi.entries}
    touched = {chars[i] ^ chars[j] for i, j in rows}
    for k, brackets in algebra._into.items():
        # every target of [X_p, X_q] has its character chi_p ^ chi_q
        if chars[k] in touched:
            for p, q, _ in brackets:
                rows.add((p, q))
    pairs = sorted(rows)
    row_of = {pair: n for n, pair in enumerate(pairs)}
    matrix = coboundary_matrix(algebra, pairs)
    rhs_list = [{row_of[pair]: v for pair, v in xi.entries.items()} for xi in cochains]
    out = []
    for sol in solve_many(matrix, rhs_list):
        out.append(None if sol is None else OneCochain(algebra.dim, sol))
    return out
