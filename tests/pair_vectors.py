"""Column vectors of the all-pairs cocycle system, and an exact matrix product.

`cohomology.cocycle_system(g)` with no pairs given has one column per
unknown xi_ij, i < j, numbered `pair_index(dim, i, j)` in lexicographic
order.  `to_vector` and `from_vector` carry a `TwoCochain` to that column
space and back, so a kernel vector of the system reads as a cochain.
`matvec` is the product that checks kernel vectors and makes consistent
right-hand sides.
"""

from ckcoh.cochains import TwoCochain, pair_list
from ckcoh.rationals import ratio


def pair_index(dim: int, i: int, j: int) -> int:
    """Column number of the unknown xi_ij, pairs (i<j) in lexicographic order."""
    if not 0 <= i < j < dim:
        raise IndexError(f"pair ({i},{j}) out of range for dim {dim}")
    return i * (2 * dim - i - 1) // 2 + (j - i - 1)


def to_vector(xi: TwoCochain) -> dict:
    """Sparse coordinate vector over the pair columns."""
    return {pair_index(xi.dim, i, j): v for (i, j), v in xi.entries.items()}


def from_vector(dim: int, vec: dict) -> TwoCochain:
    pairs = pair_list(dim)
    return TwoCochain(dim, {pairs[col]: v for col, v in vec.items() if v})


def matvec(matrix, vec: dict) -> dict:
    out = {}
    for r, row in enumerate(matrix.data):
        s = 0
        for c, v in row.items():
            xc = vec.get(c)
            if xc:
                s += v * xc
        if s:
            out[r] = ratio(s)
    return out
