"""Lie algebras as exact sparse structure-constant tensors.

A LieAlgebra holds [X_i, X_j] = sum_k C_ij^k X_k with the constants stored
only for i < j (reading (j, i) negates, so antisymmetry cannot be violated by
construction).  The builders produce the quasi-unitary Cayley-Klein families:

    su_omega(N+1):  dim (N+1)^2 - 1, generators J(a,b), M(a,b), B(l)
    u_omega(N+1):   dim (N+1)^2, the same plus a central I

with brackets (a < b < c throughout, sel the four-delta selector):

    [J_ab,J_ac] =  w_ab J_bc    [J_ab,J_bc] = -J_ac     [J_ac,J_bc] = w_bc J_ab
    [M_ab,M_ac] =  w_ab J_bc    [M_ab,M_bc] =  J_ac     [M_ac,M_bc] = w_bc J_ab
    [J_ab,M_ac] =  w_ab M_bc    [J_ab,M_bc] = -M_ac     [J_ac,M_bc] = -w_bc M_ab
    [J_ac,M_ab] =  w_ab M_bc    [J_bc,M_ab] =  M_ac     [J_bc,M_ac] = -w_bc M_ab
    [J_ab,B_l]  =  sel(a,b,l) M_ab          [M_ab,B_l] = -sel(a,b,l) J_ab
    [J_ab,M_ab] = -2 w_ab (B_{a+1} + ... + B_b)         [B_k,B_l]  = 0

and every bracket with four distinct J/M indices vanishing.
"""

from __future__ import annotations

import json

from .generators import CKBasis, check_family, delta_selector, generator_names
from .omega import OmegaVector
from .rationals import Scalar, format_rational, parse_rational, ratio


class LieAlgebra:
    """Immutable sparse structure-constant tensor over exact rationals."""

    __slots__ = ("dim", "constants", "family", "omega", "names")

    def __init__(self, dim, constants, family=None, omega=None, names=None):
        if dim < 1:
            raise ValueError("dimension must be positive")
        table = {}
        for (i, j), entries in constants.items():
            if not 0 <= i < j < dim:
                raise ValueError(f"bad generator pair ({i},{j}) for dim {dim}")
            cleaned = []
            for k, c in entries:
                if not 0 <= k < dim:
                    raise ValueError(f"bad target index {k} for dim {dim}")
                c = ratio(c)
                if c != 0:
                    cleaned.append((k, c))
            if cleaned:
                cleaned.sort()
                table[(i, j)] = tuple(cleaned)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "constants", table)
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "names", tuple(names) if names else None)

    def __setattr__(self, name, value):
        raise AttributeError("LieAlgebra is immutable")

    def __repr__(self):
        meta = f", family={self.family}" if self.family else ""
        return f"LieAlgebra(dim={self.dim}, nnz_pairs={len(self.constants)}{meta})"

    def __eq__(self, other):
        """Equality of the structure tensors (metadata is not compared)."""
        return (
            isinstance(other, LieAlgebra)
            and self.dim == other.dim
            and self.constants == other.constants
        )

    def __hash__(self):
        return hash((self.dim, tuple(sorted(self.constants.items()))))

    def bracket(self, i: int, j: int):
        """[X_i, X_j] as a tuple of (k, coefficient), any index order."""
        if i == j:
            return ()
        if i < j:
            return self.constants.get((i, j), ())
        return tuple((k, -c) for k, c in self.constants.get((j, i), ()))

    def name(self, i: int) -> str:
        if self.names and 0 <= i < len(self.names):
            return self.names[i]
        return f"X_{i}"

    def is_ck(self) -> bool:
        return self.family is not None and self.omega is not None

    def ck_basis(self) -> CKBasis:
        if not self.is_ck():
            raise ValueError("not a Cayley-Klein algebra (no family metadata)")
        return CKBasis(self.omega.n, self.family)

    def permuted(self, perm) -> "LieAlgebra":
        """Relabelled copy: new generator i is old generator perm[i]."""
        if sorted(perm) != list(range(self.dim)):
            raise ValueError("not a permutation of the basis")
        inv = [0] * self.dim
        for new, old in enumerate(perm):
            inv[old] = new
        table = {}
        for (i, j), entries in self.constants.items():
            a, b = inv[i], inv[j]
            sign = 1
            if a > b:
                a, b = b, a
                sign = -1
            table[(a, b)] = [(inv[k], sign * c) for k, c in entries]
        return LieAlgebra(self.dim, table)

    # -- serialization ---------------------------------------------------

    def to_text(self) -> str:
        """Line format: header `dim N family omega...`, then `i j k num/den`."""
        if self.is_ck():
            head = [str(self.dim), str(self.omega.n), self.family]
            head += [format_rational(v) for v in self.omega]
        else:
            head = [str(self.dim), "-", "-"]
        lines = [" ".join(head)]
        for (i, j) in sorted(self.constants):
            for k, c in self.constants[(i, j)]:
                lines.append(f"{i} {j} {k} {format_rational(c)}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "LieAlgebra":
        rows = [
            line.strip()
            for line in text.splitlines()
            if line.strip() and not line.lstrip().startswith("#")
        ]
        if not rows:
            raise ValueError("empty algebra file")
        head = rows[0].split()
        dim = int(head[0])
        family = omega = None
        if len(head) >= 3 and head[2] != "-":
            family = check_family(head[2])
            n = int(head[1])
            vals = [parse_rational(t) for t in head[3:]]
            if len(vals) != n:
                raise ValueError(f"header says N={n} but {len(vals)} omega values")
            omega = OmegaVector(vals)
        table = {}
        for line in rows[1:]:
            toks = line.split()
            if len(toks) != 4:
                raise ValueError(f"bad constant line: {line!r}")
            i, j, k = int(toks[0]), int(toks[1]), int(toks[2])
            table.setdefault((i, j), []).append((k, parse_rational(toks[3])))
        names = generator_names(omega.n, family) if family else None
        return cls(dim, table, family=family, omega=omega, names=names)

    def to_json_obj(self) -> dict:
        obj = {
            "dim": self.dim,
            "family": self.family,
            "n": self.omega.n if self.is_ck() else None,
            "omega": [format_rational(v) for v in self.omega] if self.is_ck() else None,
            "constants": [
                [i, j, k, format_rational(c)]
                for (i, j) in sorted(self.constants)
                for k, c in self.constants[(i, j)]
            ],
        }
        return obj

    @classmethod
    def from_json_obj(cls, obj) -> "LieAlgebra":
        family = obj.get("family")
        omega = None
        if family:
            check_family(family)
            omega = OmegaVector([parse_rational(t) for t in obj["omega"]])
        table = {}
        for i, j, k, val in obj["constants"]:
            table.setdefault((i, j), []).append((k, parse_rational(val)))
        names = generator_names(omega.n, family) if family else None
        return cls(obj["dim"], table, family=family, omega=omega, names=names)

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2, sort_keys=True) + "\n"


def touching_triples(algebra: LieAlgebra):
    """Each generator triple x < y < z with a nonzero bracket among its pairs.

    Every other triple has [X_x, X_y] = [X_y, X_z] = [X_z, X_x] = 0, so the
    Jacobi and cocycle conditions hold on it identically; walking only these
    replaces a scan over all C(r,3) combinations.  Each triple appears once.
    """
    r = algebra.dim
    seen = set()
    for (i, j) in algebra.constants:
        for l in range(r):
            if l == i or l == j:
                continue
            if l < i:
                triple = (l, i, j)
            elif l < j:
                triple = (i, l, j)
            else:
                triple = (i, j, l)
            if triple not in seen:
                seen.add(triple)
                yield triple


def jacobi_residual(algebra: LieAlgebra) -> Scalar:
    """Largest |cyclic Jacobi sum| over all generator triples (0 iff Lie)."""
    bracket = algebra.bracket
    worst = 0
    for x, y, z in touching_triples(algebra):
        acc = {}
        for (p, q), w in (((x, y), z), ((y, z), x), ((z, x), y)):
            for k, c in bracket(p, q):
                for m, d in bracket(k, w):
                    acc[m] = acc.get(m, 0) + c * d
        for v in acc.values():
            if v and abs(v) > worst:
                worst = abs(v)
    return ratio(worst)


def _ck_structure(basis: CKBasis, omega: OmegaVector):
    """Structure-constant table for su_omega / u_omega in canonical indexing."""
    N = basis.N
    w = omega.product
    j, m, b = basis.j, basis.m, basis.b
    table = {}

    def put(i, jj, entries):
        if i >= jj:
            raise AssertionError("bracket table must be built in canonical order")
        entries = [(k, c) for k, c in entries if c != 0]
        if entries:
            table[(i, jj)] = entries

    for a in range(N - 1):
        for bb in range(a + 1, N):
            for c in range(bb + 1, N + 1):
                w_ab, w_bc = w(a, bb), w(bb, c)
                put(j(a, bb), j(a, c), [(j(bb, c), w_ab)])
                put(j(a, bb), j(bb, c), [(j(a, c), -1)])
                put(j(a, c), j(bb, c), [(j(a, bb), w_bc)])
                put(m(a, bb), m(a, c), [(j(bb, c), w_ab)])
                put(m(a, bb), m(bb, c), [(j(a, c), 1)])
                put(m(a, c), m(bb, c), [(j(a, bb), w_bc)])
                put(j(a, bb), m(a, c), [(m(bb, c), w_ab)])
                put(j(a, c), m(a, bb), [(m(bb, c), w_ab)])
                put(j(a, bb), m(bb, c), [(m(a, c), -1)])
                put(j(bb, c), m(a, bb), [(m(a, c), 1)])
                put(j(a, c), m(bb, c), [(m(a, bb), -w_bc)])
                put(j(bb, c), m(a, c), [(m(a, bb), -w_bc)])
    for a, bb in basis.index_pairs():
        w_ab = w(a, bb)
        if w_ab != 0:
            put(j(a, bb), m(a, bb), [(b(s), -2 * w_ab) for s in range(a + 1, bb + 1)])
        for l in range(1, N + 1):
            sel = delta_selector(a, bb, l)
            if sel:
                put(j(a, bb), b(l), [(m(a, bb), sel)])
                put(m(a, bb), b(l), [(j(a, bb), -sel)])
    return table


def _build_ck(N: int, omega, family: str) -> LieAlgebra:
    if not isinstance(omega, OmegaVector):
        omega = OmegaVector(omega)
    if omega.n != N:
        raise ValueError(f"omega has {omega.n} entries, expected N={N}")
    basis = CKBasis(N, family)
    return LieAlgebra(
        basis.dim,
        _ck_structure(basis, omega),
        family=family,
        omega=omega,
        names=basis.names(),
    )


def build_su_omega(N: int, omega) -> LieAlgebra:
    """The special quasi-unitary algebra su_omega(N+1), dim (N+1)^2 - 1."""
    return _build_ck(N, omega, "su")


def build_u_omega(N: int, omega) -> LieAlgebra:
    """The quasi-unitary algebra u_omega(N+1) = su_omega(N+1) plus central I."""
    return _build_ck(N, omega, "u")
