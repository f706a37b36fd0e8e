"""One- and two-cochains with implicit antisymmetry.

A TwoCochain stores xi(X_i, X_j) only for i < j; reading (j, i) negates.
"""

from __future__ import annotations

from .rationals import ratio


def pair_count(dim: int) -> int:
    return dim * (dim - 1) // 2


def pair_list(dim: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(dim) for j in range(i + 1, dim)]


class TwoCochain:
    """Antisymmetric sparse bilinear coefficient table xi_ij."""

    __slots__ = ("dim", "entries")

    def __init__(self, dim: int, entries=None):
        self.dim = dim
        table = {}
        for (i, j), v in (entries or {}).items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise IndexError(f"pair ({i},{j}) out of range for dim {dim}")
            v = ratio(v)
            if v == 0:
                continue
            if i == j:
                raise ValueError(f"diagonal entry ({i},{j}) must vanish")
            if i < j:
                table[(i, j)] = v
            else:
                table[(j, i)] = -v
        self.entries = table

    def get(self, i: int, j: int):
        """xi(X_i, X_j) with antisymmetry folded in."""
        if i == j:
            return 0
        if i < j:
            return self.entries.get((i, j), 0)
        return -self.entries.get((j, i), 0)

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other):
        return (
            isinstance(other, TwoCochain)
            and self.dim == other.dim
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"TwoCochain(dim={self.dim}, nnz={len(self.entries)})"

    def scaled(self, factor) -> "TwoCochain":
        factor = ratio(factor)
        return TwoCochain(self.dim, {k: factor * v for k, v in self.entries.items()})

    def __sub__(self, other) -> "TwoCochain":
        if self.dim != other.dim:
            raise ValueError("cochain dimensions differ")
        table = dict(self.entries)
        for k, v in other.entries.items():
            table[k] = table.get(k, 0) - v
        return TwoCochain(self.dim, table)


class OneCochain:
    """Sparse linear functional mu on the generators."""

    __slots__ = ("dim", "mu")

    def __init__(self, dim: int, mu=None):
        self.dim = dim
        table = {}
        for i, v in (mu or {}).items():
            if not 0 <= i < dim:
                raise IndexError(f"index {i} out of range for dim {dim}")
            v = ratio(v)
            if v:
                table[i] = v
        self.mu = table

    def get(self, i: int):
        return self.mu.get(i, 0)

    def is_zero(self) -> bool:
        return not self.mu

    def __eq__(self, other):
        return (
            isinstance(other, OneCochain)
            and self.dim == other.dim
            and self.mu == other.mu
        )

    def __repr__(self):
        return f"OneCochain(dim={self.dim}, nnz={len(self.mu)})"
