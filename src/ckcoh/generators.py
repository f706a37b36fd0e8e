"""Canonical generator bookkeeping for the quasi-unitary families.

The basis of su_omega(N+1) is J(a,b), M(a,b) (0 <= a < b <= N) and B(l)
(1 <= l <= N); u_omega(N+1) appends the central I.  The canonical total order
fixes all tensor indexing throughout the package:

    J(0,1), J(0,2), ..., J(N-1,N), M(0,1), ..., M(N-1,N), B(1), ..., B(N) [, I]
"""

from __future__ import annotations

import functools

FAMILIES = ("su", "u")


def check_family(family: str) -> str:
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}, expected 'su' or 'u'")
    return family


class CKBasis:
    """Index arithmetic for the canonical ordering at a given N and family.

    The index of J_ab is looked up in `_j`, made once in canonical order
    (M_ab sits `pair_count` further on), so each pair is checked once, when
    the basis is made.  Immutable: the library shares one basis per
    (N, family) through `_basis`.
    """

    __slots__ = ("N", "family", "pair_count", "dim", "_j")

    def __init__(self, N: int, family: str):
        if N < 1:
            raise ValueError("N must be >= 1")
        check_family(family)
        pair_count = N * (N + 1) // 2
        pairs = ((a, b) for a in range(N) for b in range(a + 1, N + 1))
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "pair_count", pair_count)
        object.__setattr__(self, "dim", 2 * pair_count + N + (1 if family == "u" else 0))
        object.__setattr__(self, "_j", {pair: k for k, pair in enumerate(pairs)})

    def __setattr__(self, name, value):
        raise AttributeError("CKBasis is immutable")

    def j(self, a: int, b: int) -> int:
        try:
            return self._j[a, b]
        except KeyError:
            raise IndexError(f"generator pair ({a},{b}) out of range 0..{self.N}") from None

    def m(self, a: int, b: int) -> int:
        return self.pair_count + self.j(a, b)

    def b(self, l: int) -> int:
        if not 1 <= l <= self.N:
            raise IndexError(f"B index {l} out of range 1..{self.N}")
        return 2 * self.pair_count + l - 1

    def i(self) -> int:
        if self.family != "u":
            raise ValueError("I exists only in the u family")
        return self.dim - 1

    def index_pairs(self):
        """(a, b) with 0 <= a < b <= N, in canonical (lexicographic) order."""
        return iter(self._j)

    def names(self) -> tuple[str, ...]:
        """The generator names, in canonical order."""
        names = [f"J({a},{b})" for a, b in self._j]
        names += [f"M({a},{b})" for a, b in self._j]
        names += [f"B({l})" for l in range(1, self.N + 1)]
        if self.family == "u":
            names.append("I")
        return tuple(names)


@functools.lru_cache(maxsize=64)
def _basis(N: int, family: str) -> CKBasis:
    """The basis the library shares for (N, family), made on first use."""
    return CKBasis(N, family)


def delta_selector(a: int, b: int, l: int) -> int:
    """The bracket selector delta_{a,l-1} - delta_{b,l-1} + delta_{bl} - delta_{al}.

    Expanded case by case (the b = a+1 coincidence gives the factor 2):
    -1 at l = a, +1 at l = a+1 and l = b (2 when they coincide), -1 at l = b+1.
    """
    if l == a:
        return -1
    if l == a + 1:
        return 2 if b == a + 1 else 1
    if l == b:
        return 1
    if l == b + 1:
        return -1
    return 0
