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

Every cyclic sum over generator triples (the Jacobi identity here, the
cocycle condition and its system in `cohomology`) is one walk, `_cyclic_terms`:
from the nonzero values on pairs through the brackets indexed by target.
"""

from __future__ import annotations

import json
from math import comb

from .generators import CKBasis, _basis, check_family, delta_selector
from .omega import OmegaVector
from .rationals import Scalar, _lines, _reader, format_rational, parse_rational, ratio


class LieAlgebra:
    """Immutable sparse structure-constant tensor over exact rationals.

    Set once when it is made: `_into`, the bracket index by target generator
    (k -> [(p, q, C_pq^k)] in table order), and `_chars`, the sign characters,
    all zero (one block) unless `_build_ck` wrote the table.
    """

    __slots__ = ("dim", "constants", "family", "omega", "names", "_into", "_chars")

    def __init__(self, dim, constants, family=None, omega=None, names=None):
        if dim < 1:
            raise ValueError("dimension must be positive")
        table = {}
        into = {}
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
            if len(cleaned) > 1:
                cleaned.sort()
                merged = {}  # a repeated target gets the sum of its coefficients
                for k, c in cleaned:
                    merged[k] = merged.get(k, 0) + c
                if len(merged) < len(cleaned):
                    cleaned = [(k, ratio(c)) for k, c in merged.items() if c != 0]
            if cleaned:
                table[(i, j)] = tuple(cleaned)
                for k, c in cleaned:
                    into.setdefault(k, []).append((i, j, c))
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "constants", table)
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "names", tuple(names) if names else None)
        object.__setattr__(self, "_into", into)
        object.__setattr__(self, "_chars", [0] * dim)

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
        return _basis(self.omega.n, self.family)

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
    @_reader
    def from_text(cls, text: str) -> "LieAlgebra":
        rows = _lines(text)
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
        return _from_table(cls, dim, table, family, omega)

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
    @_reader
    def from_json_obj(cls, obj) -> "LieAlgebra":
        family = obj.get("family")
        omega = None
        if family:
            omega = OmegaVector([parse_rational(t) for t in obj["omega"]])
        table = {}
        for i, j, k, val in obj["constants"]:
            table.setdefault((i, j), []).append((k, parse_rational(val)))
        return _from_table(cls, obj["dim"], table, family, omega)

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2, sort_keys=True) + "\n"


def _from_table(cls, dim: int, table: dict, family, omega) -> LieAlgebra:
    """The algebra read; under a CK header, the builder's own when the tables agree.

    The header's dim must fit the family and N.  Any other table under it gets
    zero characters, so `h2` checks Jacobi and solves it whole.  The CK table
    has the 4 unit brackets [J_ab,J_bc], [M_ab,M_bc], [J_ab,M_bc], [J_bc,M_ab]
    for every a < b < c, so a shorter table is not rebuilt: the cost of a read
    follows its input, not the N of its header.
    """
    if not family:
        return cls(dim, table)
    basis = _basis(omega.n, family)
    if dim != basis.dim:
        raise ValueError(f"header says dim {dim} but {family} N={omega.n} has dim {basis.dim}")
    read = cls(dim, table, family=family, omega=omega, names=basis.names())
    if len(read.constants) < 4 * comb(omega.n + 1, 3):
        return read
    built = _build_ck(omega.n, omega, family)
    return built if read == built else read


def _cyclic_terms(into: dict, a: int, b: int):
    """Every (sorted triple, coefficient) term that the value on (a, b) enters.

    The cyclic sum of a bilinear f over x < y < z is the sum of C_pq^k f(k, w)
    over the cyclic arrangements (p, q, w) of the triple.  So f(a, b), read
    also as -f(b, a), enters the triple {p, q, w} of each bracket with a
    component along its first index, with coefficient +-C_pq^k (the parity of
    (p, q, w) against the sorted triple).  `into` is `LieAlgebra._into`.
    """
    for k, w, sign in ((a, b, 1), (b, a, -1)):
        for p, q, c in into.get(k, ()):
            if w == p or w == q:
                continue
            if w < p:
                yield (w, p, q), sign * c
            elif w < q:
                yield (p, w, q), -sign * c
            else:
                yield (p, q, w), sign * c


def jacobi_residual(algebra: LieAlgebra) -> Scalar:
    """Largest |cyclic Jacobi sum| over all generator triples (0 iff Lie).

    The cyclic sum of f = the bracket itself, one sum per (triple, component).
    The components are summed one at a time: the brackets with a component
    along m, read from the index `_into[m]`, fill one dict keyed by triple,
    which is dropped once its maximum is taken.
    """
    into = algebra._into
    top = 0
    for entries in into.values():
        sums = {}
        for a, b, d in entries:
            for triple, coef in _cyclic_terms(into, a, b):
                sums[triple] = sums.get(triple, 0) + coef * d
        top = max(top, max(map(abs, sums.values()), default=0))
    return ratio(top)


def _ck_structure(basis: CKBasis, omega: OmegaVector):
    """Structure-constant table for su_omega / u_omega in canonical indexing.

    Indices and omega products are looked up per pair, from the basis's
    table.  A constant is zero where its omega product vanishes; `LieAlgebra`
    drops those and checks every pair and index.
    """
    N, P = basis.N, basis.pair_count
    J, b = basis._j, basis.b
    w = {pair: omega.product(*pair) for pair in J}
    table = {}
    for a in range(N - 1):
        for bb in range(a + 1, N):
            ab, w_ab = J[a, bb], w[a, bb]
            for c in range(bb + 1, N + 1):
                ac, bc, w_bc = J[a, c], J[bb, c], w[bb, c]
                table[ab, ac] = [(bc, w_ab)]
                table[ab, bc] = [(ac, -1)]
                table[ac, bc] = [(ab, w_bc)]
                table[P + ab, P + ac] = [(bc, w_ab)]
                table[P + ab, P + bc] = [(ac, 1)]
                table[P + ac, P + bc] = [(ab, w_bc)]
                table[ab, P + ac] = [(P + bc, w_ab)]
                table[ac, P + ab] = [(P + bc, w_ab)]
                table[ab, P + bc] = [(P + ac, -1)]
                table[bc, P + ab] = [(P + ac, 1)]
                table[ac, P + bc] = [(P + ab, -w_bc)]
                table[bc, P + ac] = [(P + ab, -w_bc)]
    for (a, bb), ab in J.items():
        w_ab = w[a, bb]
        if w_ab != 0:
            table[ab, P + ab] = [(b(s), -2 * w_ab) for s in range(a + 1, bb + 1)]
        for l in range(1, N + 1):
            sel = delta_selector(a, bb, l)
            if sel:
                table[ab, b(l)] = [(P + ab, sel)]
                table[P + ab, b(l)] = [(ab, -sel)]
    return table


def _build_ck(N: int, omega, family: str) -> LieAlgebra:
    omega = OmegaVector(omega)
    if omega.n != N:
        raise ValueError(f"omega has {omega.n} entries, expected N={N}")
    basis = _basis(N, family)
    algebra = LieAlgebra(
        basis.dim,
        _ck_structure(basis, omega),
        family=family,
        omega=omega,
        names=basis.names(),
    )
    # sigma_S, S a subset of {0..N}, scales a generator of mask chi by
    # (-1)^|S & chi|: e_a + e_b on J_ab and M_ab, 0 on B_l and I
    for (a, b), k in basis._j.items():
        algebra._chars[k] = algebra._chars[basis.pair_count + k] = (1 << a) | (1 << b)
    return algebra


def build_su_omega(N: int, omega) -> LieAlgebra:
    """The special quasi-unitary algebra su_omega(N+1), dim (N+1)^2 - 1."""
    return _build_ck(N, omega, "su")


def build_u_omega(N: int, omega) -> LieAlgebra:
    """The quasi-unitary algebra u_omega(N+1) = su_omega(N+1) plus central I."""
    return _build_ck(N, omega, "u")
