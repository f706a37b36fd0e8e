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

Every member of a family has that one bracket pattern: omega enters only
through the products w_ab, and every coefficient is +-x or +-2x for x = 1
or x = w_ab.  So the builders share one skeleton per (N, family),
`_ck_skeleton`, which holds the pattern with each coefficient as a signed
integer code (`_CKSkeleton`), the sign characters and the generator names.
It is checked once, when it is made, against the rules `LieAlgebra.__init__`
applies to every table and the rules `h2` relies on.  An algebra is its
skeleton filled at omega: the P = N(N+1)/2 weights by w_ac = w_a,c-1 omega_c
give the value of every code, then the table and its index by target are
written directly, in table order, with the brackets of zero coefficient left
out, as `LieAlgebra` would keep them.

Every cyclic sum over generator triples (the Jacobi identity here, the
cocycle condition and its system in `cohomology`) is one walk, `_cyclic_terms`:
from the nonzero values on pairs through the brackets indexed by target.
Its largest sum is one accumulator, `_cyclic_max`, and its sums as rows,
one per triple, are one assembly, `_cyclic_rows`.

Block 0 of the cocycle system, the part `cohomology.h2` eliminates, has one
pattern per (N, family) as well.  `_ck_block_0` makes it from a skeleton on
first use, a tuple of rows: `_cyclic_rows` over the skeleton's bracket
index, with the codes in place of the coefficients, gives every row as
columns and codes, and a row equal to an earlier one is kept once.  Leaving
it out changes no echelon: the equal row fills to an equal row at every
omega, and the elimination skips a copy of a row it has reduced, since that
copy would reduce to zero.  An algebra the builders make holds its skeleton
and code values, so `_fill_rows` fills the block at its omega with one
lookup per entry; a table made directly with `LieAlgebra` holds neither,
nor any sign characters, family or omega, and is walked as it is.  So only
the builders make a Cayley-Klein algebra (`LieAlgebra.is_ck`).
"""

from __future__ import annotations

import functools
from itertools import combinations

from .generators import CKBasis, _basis, delta_selector
from .omega import OmegaVector, _of_length
from .rationals import Scalar, format_rational, ratio


class LieAlgebra:
    """Immutable sparse structure-constant tensor over exact rationals.

    Set once when it is made: `_into`, the bracket index by target generator
    (k -> [(p, q, C_pq^k)] in table order).  When `_build_ck` filled the
    table from a skeleton, `_skeleton` is that skeleton, `_slot_values` its
    code values at omega and `_chars` its sign characters; any other table
    holds None in all three, and in `family` and `omega`, so it is one block
    of character 0.  Only the builders make a Cayley-Klein algebra: `is_ck`
    and `ck_basis` read the skeleton.  `names`, when given, names every
    generator; without it, `name` gives `X_i`.
    """

    __slots__ = (
        "dim",
        "constants",
        "family",
        "omega",
        "names",
        "_into",
        "_chars",
        "_skeleton",
        "_slot_values",
    )

    def __init__(self, dim, constants, names=None):
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
        names = tuple(names) if names else None
        if names and len(names) != dim:
            raise ValueError(f"names has {len(names)} entries, expected {dim}")
        _set_facts(self, dim, table, None, None, names, into, None, None, None)

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
        if self.names and 0 <= i < self.dim:
            return self.names[i]
        return f"X_{i}"

    def is_ck(self) -> bool:
        return self._skeleton is not None

    def ck_basis(self) -> CKBasis:
        if not self.is_ck():
            raise ValueError("not a Cayley-Klein algebra (no family metadata)")
        return self._skeleton.basis

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


def _set_facts(algebra, *values):
    """Set every slot of a new `LieAlgebra`, in `__slots__` order."""
    for name, value in zip(LieAlgebra.__slots__, values, strict=True):
        object.__setattr__(algebra, name, value)


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


def _cyclic_rows(into: dict, pairs, dim: int):
    """The cyclic sums of the values on `pairs` as rows, lexicographic by triple.

    Entry n of a row sums the `_cyclic_terms` coefficients of pairs[n]; an
    entry whose terms cancel and an empty row are left out.  `into` is an
    index by target, as `LieAlgebra._into`, and is not changed.  To bound
    memory the walk keeps one object per distinct int entry, drops from its
    own copy of `into` what no later column reads, and lets go of each row
    as it yields it.
    """
    last = {}  # generator -> the last column that reads its index entries
    for col, pair in enumerate(pairs):
        for k in pair:
            last[k] = col
    into = dict(into)
    interned, by_triple = {}, {}
    for col, (a, b) in enumerate(pairs):
        for triple, coef in _cyclic_terms(into, a, b):
            row = by_triple.get(triple)
            if row is None:
                by_triple[triple] = row = {}
            v = row.pop(col, 0) + coef
            if v:
                row[col] = interned.setdefault(v, v) if type(v) is int else v
        for k in (a, b):
            if last[k] == col:
                into.pop(k, None)
    # an integer key sorts faster than the tuples
    for triple in sorted(by_triple, key=lambda t: (t[0] * dim + t[1]) * dim + t[2]):
        row = by_triple.pop(triple)
        if row:
            yield row


def _block_0_pairs(dim: int, chars) -> tuple:
    """The pairs i < j with chi_i = chi_j, lexicographic: every pair when `chars` is None."""
    groups = {}
    for i in range(dim):
        groups.setdefault(chars[i] if chars else 0, []).append(i)
    return tuple(sorted(pair for group in groups.values() for pair in combinations(group, 2)))


def _cyclic_max(into: dict, values) -> Scalar:
    """Largest |cyclic sum| the (a, b, f(a, b)) values enter, normalised by `ratio`."""
    sums = {}
    for a, b, v in values:
        for triple, coef in _cyclic_terms(into, a, b):
            sums[triple] = sums.get(triple, 0) + coef * v
    return ratio(max(map(abs, sums.values()), default=0))


def jacobi_residual(algebra: LieAlgebra) -> Scalar:
    """Largest |cyclic Jacobi sum| over all generator triples (0 iff Lie).

    The cyclic sum of f = the bracket itself, one sum per (triple, component).
    The components are summed one at a time: the brackets with a component
    along m, read from the index `_into[m]`, go through `_cyclic_max`, whose
    sums are dropped once their maximum is taken.
    """
    into = algebra._into
    return max((_cyclic_max(into, entries) for entries in into.values()), default=0)


class _CKSkeleton:
    """The bracket table of su_omega / u_omega at one (N, family), omega left open.

    `pairs`, `targets` and `slots` hold the brackets in table order, one
    column each: [X_p, X_q] is the sum over the targets k of the slot's value
    times X_k.  A slot is a signed code: with x_0 = 1 and x_(n+1) = w_ab of
    the n-th pair a < b, +-(2m + 1) stands for +-x_m and +-(2m + 2) for
    +-2 x_m, so one table serves every omega.  Equal targets tuples and
    slots are one object each, and every filled table keys its brackets by
    the skeleton's pairs, so an algebra at N = 30 holds no second copy of
    them.  `chars` are the sign characters: sigma_S, S a subset of {0..N},
    scales a generator of mask chi by (-1)^|S & chi|, with chi = e_a + e_b
    on J_ab and M_ab, 0 on B_l and I.  `block_pairs` are the pairs i < j of
    equal character, lexicographic: the columns of block 0 (`_ck_block_0`).
    Immutable: the library shares one skeleton per basis (`_ck_skeleton`).
    """

    __slots__ = ("basis", "pairs", "targets", "slots", "chars", "block_pairs", "names")

    def __init__(self, basis: CKBasis):
        N, P = basis.N, basis.pair_count
        J, b = basis._j, basis.b
        w = {pair: 2 * n + 3 for n, pair in enumerate(J)}  # the code of w_ab
        pairs, columns, slots = [], [], []
        shared = {}  # one object per distinct targets tuple and per slot

        def put(p, q, targets, slot):
            pairs.append((p, q))
            columns.append(shared.setdefault(targets, targets))
            slots.append(shared.setdefault(slot, slot))

        for a in range(N - 1):
            for bb in range(a + 1, N):
                ab, w_ab = J[a, bb], w[a, bb]
                for c in range(bb + 1, N + 1):
                    ac, bc, w_bc = J[a, c], J[bb, c], w[bb, c]
                    put(ab, ac, (bc,), w_ab)
                    put(ab, bc, (ac,), -1)
                    put(ac, bc, (ab,), w_bc)
                    put(P + ab, P + ac, (bc,), w_ab)
                    put(P + ab, P + bc, (ac,), 1)
                    put(P + ac, P + bc, (ab,), w_bc)
                    put(ab, P + ac, (P + bc,), w_ab)
                    put(ac, P + ab, (P + bc,), w_ab)
                    put(ab, P + bc, (P + ac,), -1)
                    put(bc, P + ab, (P + ac,), 1)
                    put(ac, P + bc, (P + ab,), -w_bc)
                    put(bc, P + ac, (P + ab,), -w_bc)
        chars = [0] * basis.dim
        for (a, bb), ab in J.items():
            put(ab, P + ab, tuple(b(s) for s in range(a + 1, bb + 1)), -w[a, bb] - 1)
            for l in range(1, N + 1):
                sel = delta_selector(a, bb, l)
                if sel:
                    put(ab, b(l), (P + ab,), sel)
                    put(P + ab, b(l), (ab,), -sel)
            chars[ab] = chars[P + ab] = (1 << a) | (1 << bb)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "pairs", tuple(pairs))
        object.__setattr__(self, "targets", tuple(columns))
        object.__setattr__(self, "slots", tuple(slots))
        object.__setattr__(self, "chars", tuple(chars))
        object.__setattr__(self, "block_pairs", _block_0_pairs(basis.dim, chars))
        object.__setattr__(self, "names", basis.names())

    def __setattr__(self, name, value):
        raise AttributeError("_CKSkeleton is immutable")

    def fill(self, omega: OmegaVector):
        """`constants`, `_into` and the code values of the algebra at omega, in table order.

        Entry c of the code values is the value of code c, a negative code
        read from the end.  The weights come from w_ac = w_a,c-1 omega_c, and
        a bracket whose slot is zero is left out, as `LieAlgebra` drops a zero
        constant.  A bracket with one target, all but the [J_ab, M_ab], is
        written without a list of its targets.
        """
        N, w = self.basis.N, omega.values
        values, negated = [0, 1, 2], [-1, -2]
        for a in range(N):
            prod = 1
            for c in range(a, N):
                prod = ratio(prod * w[c])
                twice = ratio(2 * prod)
                values.append(prod)
                values.append(twice)
                negated.append(-prod)
                negated.append(-twice)
        negated.reverse()
        values += negated
        constants, into = {}, {}
        for pair, targets, slot in zip(self.pairs, self.targets, self.slots):
            c = values[slot]
            if not c:
                continue
            i, j = pair
            if len(targets) == 1:
                k = targets[0]
                constants[pair] = ((k, c),)
                entry = (i, j, c)
                brackets = into.get(k)
                if brackets is None:
                    into[k] = [entry]
                else:
                    brackets.append(entry)
            else:
                constants[pair] = tuple([(k, c) for k in targets])
                for k in targets:
                    into.setdefault(k, []).append((i, j, c))
        return constants, into, values

    def check(self):
        """Raise unless every `fill` gives a table `LieAlgebra` would keep as it is.

        That holds when each pair i < j is in range and comes once, each
        targets tuple is non-empty, strictly increasing and in range, and
        each slot is a code from +-1 to +-(2P + 2): a slot is then zero only
        where omega makes it so, and `fill` leaves that bracket out, as
        `LieAlgebra` drops a zero constant.  The columns are read as they
        are; no table is filled for the check.

        It also checks the characters: every target k of [X_p, X_q] has
        chi_k = chi_p ^ chi_q, and a bracket with several targets has
        character 0.  `h2` relies on both: its block-0 solve on the first,
        and its count of the brackets of nonzero character, each one target,
        on the second.

        Last, no [X_p, X_q] has a target p or q.  Two terms of the walk for
        the value on (a, b) meet in one entry only at a repeated target, or
        where [a, c] has a component along a and [b, c] one along b, so each
        entry of a `_ck_block_0` row is one coefficient.
        """
        dim, P, chars = self.basis.dim, self.basis.pair_count, self.chars
        if not (
            len(set(self.pairs)) == len(self.pairs) == len(self.targets) == len(self.slots)
            and all(0 <= i < j < dim for i, j in self.pairs)
            and all(
                t and t == tuple(sorted(set(t))) and 0 <= t[0] and t[-1] < dim
                for t in set(self.targets)
            )
            and all(0 < abs(s) <= 2 * P + 2 for s in set(self.slots))
            and len(chars) == len(self.names) == dim
            and all(  # the first target has the bracket's character, several have 0
                chars[t[0]] == chars[p] ^ chars[q]
                and (len(t) == 1 or not any(map(chars.__getitem__, t)))
                and p not in t
                and q not in t
                for (p, q), t in zip(self.pairs, self.targets)
            )
        ):
            raise AssertionError(
                f"the {self.basis.family} N={self.basis.N} bracket skeleton"
                " is not a table LieAlgebra keeps, breaks the sign characters"
                " or lets two terms of its cocycle system meet"
            )


@functools.lru_cache(maxsize=64)
def _ck_skeleton(basis: CKBasis) -> _CKSkeleton:
    """The skeleton the library shares for a basis, checked once, when it is made."""
    skeleton = _CKSkeleton(basis)
    skeleton.check()
    return skeleton


@functools.lru_cache(maxsize=64)
def _ck_block_0(skeleton: _CKSkeleton) -> tuple:
    """Block 0 of the cocycle system of su_omega / u_omega at one (N, family), omega left open.

    Made on first use.  Its columns are the skeleton's `block_pairs`; it is
    the tuple of its cocycle rows, in lexicographic triple order, each as
    two tuples of ints: the columns and the codes of their entries.  They
    come from `_cyclic_rows` over the skeleton's bracket index with the
    slots in place of the coefficients, the walk `cohomology.cocycle_system`
    makes over any other table; a code negates as a coefficient does.
    `_CKSkeleton.check` keeps the terms of that walk apart, so each entry is
    one coefficient +-C_pq^k, and two rows with the same columns and codes
    fill to equal rows at every omega.  The elimination skips a row equal to an earlier
    one (`sparse._build_echelon`), so each is kept once.
    """
    into = {}  # the bracket index by target, with the slot for C_pq^k
    for (p, q), targets, slot in zip(skeleton.pairs, skeleton.targets, skeleton.slots):
        for k in targets:
            into.setdefault(k, []).append((p, q, slot))
    rows = _cyclic_rows(into, skeleton.block_pairs, skeleton.basis.dim)
    del into  # so that what the walk drops from its copy is freed
    return tuple(dict.fromkeys((tuple(row), tuple(row.values())) for row in rows))


def _fill_rows(coded: tuple, values: list) -> list:
    """Block-0 rows at the code values of `_CKSkeleton.fill`, less zero entries and empty rows.

    A plain loop: a comprehension per row would cost a call frame for each
    coded row, and at a contracted omega most of them fill to empty.
    """
    out = []
    for cols, codes in coded:
        row = {}
        for c, k in zip(cols, codes):
            v = values[k]
            if v:
                row[c] = v
        if row:
            out.append(row)
    return out


def _ck_structure(basis: CKBasis, omega: OmegaVector) -> dict:
    """Structure-constant table for su_omega / u_omega in canonical indexing (zeros dropped)."""
    return _ck_skeleton(basis).fill(omega)[0]


def _build_ck(N: int, omega, family: str) -> LieAlgebra:
    omega = _of_length(N, omega)
    skeleton = _ck_skeleton(_basis(N, family))
    constants, into, values = skeleton.fill(omega)
    algebra = object.__new__(LieAlgebra)
    dim, names, chars = skeleton.basis.dim, skeleton.names, skeleton.chars
    _set_facts(algebra, dim, constants, family, omega, names, into, chars, skeleton, values)
    return algebra


def build_su_omega(N: int, omega) -> LieAlgebra:
    """The special quasi-unitary algebra su_omega(N+1), dim (N+1)^2 - 1."""
    return _build_ck(N, omega, "su")


def build_u_omega(N: int, omega) -> LieAlgebra:
    """The quasi-unitary algebra u_omega(N+1) = su_omega(N+1) plus central I."""
    return _build_ck(N, omega, "u")
