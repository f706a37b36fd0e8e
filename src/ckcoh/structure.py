"""Structural maps and self-checks on the Cayley-Klein algebras.

Covers the replacement Cartan generators G_a, the polarity isomorphism
su_{w1..wN} ~ su_{wN..w1}, the 2^N involutive automorphisms attached to index
subsets, and subalgebra-closure checks used to verify the semidirect
decompositions triggered by a vanishing omega_a.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import LieAlgebra
from .generators import _basis
from .rationals import ratio


def cartan_generator(N: int, a: int) -> list:
    """Coefficients of G_a over (B_1, ..., B_N).

    G_a = (1/a)(B_1 + 2 B_2 + ... + (a-1) B_{a-1}) + B_a
        + (1/(N+1-a))((N-a) B_{a+1} + ... + B_N);
    i.e. the coefficient of B_s is s/a for s <= a and (N+1-s)/(N+1-a) after.
    """
    if not 1 <= a <= N:
        raise IndexError(f"Cartan index {a} out of range 1..{N}")
    coeffs = []
    for s in range(1, N + 1):
        if s <= a:
            coeffs.append(ratio(Fraction(s, a)))
        else:
            coeffs.append(ratio(Fraction(N + 1 - s, N + 1 - a)))
    return coeffs


def bracket_with_combination(algebra: LieAlgebra, combo: dict, j: int) -> dict:
    """[sum_i combo_i X_i, X_j] as a sparse component map."""
    acc = {}
    for i, c in combo.items():
        if not c:
            continue
        for k, d in algebra.bracket(i, j):
            v = acc.get(k, 0) + c * d
            if v:
                acc[k] = v
            else:
                acc.pop(k, None)
    return acc


class SignedPermutation:
    """Generator map X_i -> sign_i * X_{target_i} (all signs +-1)."""

    def __init__(self, targets, signs):
        targets = tuple(targets)
        signs = tuple(signs)
        if sorted(targets) != list(range(len(targets))):
            raise ValueError("targets must be a permutation")
        if any(s not in (1, -1) for s in signs):
            raise ValueError("signs must be +-1")
        self.targets = targets
        self.signs = signs

    def __eq__(self, other):
        return (
            isinstance(other, SignedPermutation)
            and self.targets == other.targets
            and self.signs == other.signs
        )

    def __len__(self):
        return len(self.targets)

    def compose(self, other: "SignedPermutation") -> "SignedPermutation":
        """self after other: X_i -> other -> self."""
        targets = [self.targets[other.targets[i]] for i in range(len(self))]
        signs = [other.signs[i] * self.signs[other.targets[i]] for i in range(len(self))]
        return SignedPermutation(targets, signs)

    @classmethod
    def identity(cls, n: int) -> "SignedPermutation":
        return cls(range(n), [1] * n)


def transport_constants(algebra: LieAlgebra, mapping: SignedPermutation) -> LieAlgebra:
    """Structure constants of the new generators Y_i = sign_i X_{target_i}.

    [Y_i, Y_j] = s_i s_j sum_m C_{t(i) t(j)}^m X_m, rewritten in the Y basis:
    one pass over the nonzero constants, pairs in lexicographic order.  With
    unit signs this is the plain relabelling, new generator i = old target_i.
    """
    if len(mapping) != algebra.dim:
        raise ValueError("mapping size does not match the algebra dimension")
    inv = [0] * algebra.dim
    for i, t in enumerate(mapping.targets):
        inv[t] = i
    s = mapping.signs
    table = {}
    for (p, q), entries in algebra.constants.items():
        i, j = inv[p], inv[q]
        factor = s[i] * s[j]
        if i > j:
            i, j, factor = j, i, -factor
        table[(i, j)] = [(inv[m], factor * s[inv[m]] * c) for m, c in entries]
    return LieAlgebra(algebra.dim, dict(sorted(table.items())))


def polarity_map(N: int, family: str = "su") -> SignedPermutation:
    """J_ab -> -J_{N-b,N-a}, M_ab -> -M_{N-b,N-a}, B_l -> B_{N+1-l} (I fixed)."""
    basis = _basis(N, family)
    targets = [0] * basis.dim
    signs = [1] * basis.dim
    for a, b in basis.index_pairs():
        targets[basis.j(a, b)] = basis.j(N - b, N - a)
        signs[basis.j(a, b)] = -1
        targets[basis.m(a, b)] = basis.m(N - b, N - a)
        signs[basis.m(a, b)] = -1
    for l in range(1, N + 1):
        targets[basis.b(l)] = basis.b(N + 1 - l)
    if family == "u":
        targets[basis.i()] = basis.i()
    return SignedPermutation(targets, signs)


def involution_automorphism(algebra: LieAlgebra, subset) -> SignedPermutation:
    """Sign map (-1)^{chi_S(a)+chi_S(b)} on J_ab, M_ab; +1 on B_l (and I).

    The sign is (-1)^|S & chi| over the sign characters `LieAlgebra._chars`.
    Verified to preserve every bracket before being returned.
    """
    if not algebra.is_ck():
        raise ValueError("not an algebra the CK builders made")
    subset = frozenset(subset)
    if any(not 0 <= s <= algebra.omega.n for s in subset):
        raise ValueError(f"subset must lie in 0..{algebra.omega.n}")
    mask = sum(1 << s for s in subset)
    signs = [(-1) ** (chi & mask).bit_count() for chi in algebra._chars]
    mapping = SignedPermutation(range(algebra.dim), signs)
    if transport_constants(algebra, mapping) != algebra:
        raise AssertionError(f"involution for S={sorted(subset)} broke a bracket")
    return mapping


def subalgebra_closure_check(algebra: LieAlgebra, indices) -> bool:
    """True iff the span of the listed generators closes under the bracket."""
    chosen = set(indices)
    if not chosen <= set(range(algebra.dim)):
        raise ValueError("generator indices out of range")
    picked = sorted(chosen)
    for pos, i in enumerate(picked):
        for j in picked[pos + 1 :]:
            for k, c in algebra.bracket(i, j):
                if c and k not in chosen:
                    return False
    return True


def translation_block_indices(N: int, a: int, family: str = "su") -> set:
    """Indices of t = {J_ij, M_ij : i < a <= j}, the rectangle block.

    Abelian of dimension 2a(N+1-a) when omega_a = 0; not closed otherwise.
    """
    basis = _basis(N, family)
    if not 1 <= a <= N:
        raise IndexError(f"block index {a} out of range 1..{N}")
    out = set()
    for i in range(0, a):
        for j in range(a, N + 1):
            out.add(basis.j(i, j))
            out.add(basis.m(i, j))
    return out
