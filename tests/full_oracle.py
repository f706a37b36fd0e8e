"""The full-system solve of H2, the reference for the character-0 block solve.

`full_h2` eliminates every one of the r(r-1)/2 unknowns xi_ij: the whole
cocycle system, with no use of the sign characters.  Its body is the one
`cohomology.h2` had before that function solved block 0 only; it calls the
library's `cocycle_system`, `nullspace` and `rank`, so the tests compare the
two ways of cutting the same elimination, dims and representatives alike.

`_bracket_index` and `_characters` rebuild what `LieAlgebra._into` and
`LieAlgebra._chars` hold: the bracket index from the table, and the sign
characters from the CK formulas, trusted only when the table matches them.
`full_h2` walks its own index, so the oracle does not lean on `_into`.

`full_are_coboundaries` is the body `cohomology.are_coboundaries` had before
that function solved only the blocks its cochains touch: it eliminates the
whole C(r,2) x r coboundary matrix, built by `full_coboundary_matrix`.

`permuted`, `transport_constants`, `contract` and `_ck_structure` are the
bodies these had before each rule got one home: the relabelling as a
`LieAlgebra` method beside a transport that brackets every pair, the
contraction rule worked out by hand beside `classify`, and a bracket table
that checked its pair order and dropped zeros itself.  `permuted` takes the
algebra as `self`, as the method did.

`full_build_echelon` is `sparse._build_echelon` before it reduced each
distinct row once: it reduces every row, repeated ones too.

`_read_basic` is the reading of the basic coefficients before it became
entry-driven: it reads every slot of the cochain, N^2 of them.
`FormulaBasis` is `CKBasis` before it held an index table: it computes J/M
indices from the closed formula and checks the pair on every call.
"""

from fractions import Fraction

from ckcoh.algebra import LieAlgebra, _build_ck, jacobi_residual
from ckcoh.extensions import BasicCoefficients, ContractionReport, dim_h2_formula
from ckcoh.generators import CKBasis, check_family, delta_selector, generator_names
from ckcoh.omega import OmegaVector
from ckcoh.cochains import OneCochain, TwoCochain, pair_count
from ckcoh.cohomology import CohomologyResult, NotACocycleError, cocycle_defect, cocycle_system
from ckcoh.rationals import ratio
from ckcoh.sparse import Echelon, SparseMatrix, _integer_row, nullspace, rank, solve_many
from ckcoh.structure import SignedPermutation

from pair_vectors import from_vector, pair_index, to_vector


def _bracket_index(algebra: LieAlgebra) -> dict:
    """Generator k -> every (p, q, C_pq^k) with p < q and C_pq^k != 0."""
    into = {}
    for (p, q), entries in algebra.constants.items():
        for k, c in entries:
            into.setdefault(k, []).append((p, q, c))
    return into


def _characters(algebra: LieAlgebra) -> list[int]:
    """Bit mask per generator: sigma_S, S a subset of {0..N}, scales it by (-1)^|S & mask|.

    The mask is e_a + e_b on J_ab and M_ab and 0 on B_l and I.  An algebra
    that is not exactly the CK algebra its metadata names gets all zeros (one
    block); telling them apart rebuilds that algebra (1.5 ms at N = 6 on a
    2-core x86-64 host).
    """
    chars = [0] * algebra.dim
    if not algebra.is_ck() or _build_ck(algebra.omega.n, algebra.omega, algebra.family) != algebra:
        return chars
    basis = algebra.ck_basis()
    for a, b in basis.index_pairs():
        chars[basis.j(a, b)] = chars[basis.m(a, b)] = (1 << a) | (1 << b)
    return chars


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
            reps.append(from_vector(algebra.dim, vec))
    result = CohomologyResult(dim_z2, dim_b2, dim_z2 - dim_b2, reps)
    if len(reps) != result.dim_H2:
        raise AssertionError("representative extension lost independence")
    return result


def full_coboundary_matrix(algebra: LieAlgebra) -> SparseMatrix:
    """Matrix of mu -> delta(mu): rows = pairs (i, j), columns = generators."""
    r = algebra.dim
    matrix = SparseMatrix(pair_count(r), r)
    for (i, j), entries in algebra.constants.items():
        row = matrix.data[pair_index(r, i, j)]
        for k, c in entries:
            row[k] = c
    return matrix


def full_are_coboundaries(algebra: LieAlgebra, cochains, assume_cocycle: bool = False):
    """Batched is_coboundary: one elimination for many candidate cocycles."""
    if not assume_cocycle:
        for xi in cochains:
            if cocycle_defect(algebra, xi) != 0:
                raise NotACocycleError("a cochain is not a two-cocycle")
    matrix = full_coboundary_matrix(algebra)
    out = []
    for sol in solve_many(matrix, [to_vector(xi) for xi in cochains]):
        out.append(None if sol is None else OneCochain(algebra.dim, sol))
    return out


def full_build_echelon(matrix: SparseMatrix, rhs_list=()) -> Echelon:
    """Eliminate all rows in natural order; right-hand side t rides along as column cols + t."""
    cols = matrix.cols
    rows = matrix.data
    if rhs_list:
        rows = [dict(row) for row in rows]
        for t, rhs in enumerate(rhs_list):
            for r, v in rhs.items():
                if not 0 <= r < matrix.rows:
                    raise IndexError(f"rhs row {r} outside matrix")
                if v:
                    rows[r][cols + t] = v
    ech = Echelon(cols)
    leftovers = []
    for row in rows:
        row = _integer_row(row)
        if not row:
            continue
        reduced = ech.reduce(row)
        if not ech.insert(reduced) and reduced:
            leftovers.append(reduced)
    ech.leftovers = leftovers
    return ech


def permuted(self, perm) -> LieAlgebra:
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


def transport_constants(algebra: LieAlgebra, mapping: SignedPermutation) -> LieAlgebra:
    """Structure constants of the new generators Y_i = sign_i X_{target_i}.

    [Y_i, Y_j] = s_i s_j sum_m C_{t(i) t(j)}^m X_m, rewritten in the Y basis.
    """
    if len(mapping) != algebra.dim:
        raise ValueError("mapping size does not match the algebra dimension")
    inv = [0] * algebra.dim
    for i, t in enumerate(mapping.targets):
        inv[t] = i
    table = {}
    for i in range(algebra.dim):
        for j in range(i + 1, algebra.dim):
            entries = []
            factor = mapping.signs[i] * mapping.signs[j]
            for m, c in algebra.bracket(mapping.targets[i], mapping.targets[j]):
                back = inv[m]
                entries.append((back, factor * mapping.signs[back] * c))
            if entries:
                table[(i, j)] = entries
    return LieAlgebra(algebra.dim, table)


def contract(family: str, omega, k: int) -> ContractionReport:
    """Set omega_k to zero and report which extensions change status."""
    if not isinstance(omega, OmegaVector):
        omega = OmegaVector(omega)
    check_family(family)
    if not 1 <= k <= omega.n:
        raise IndexError(f"contraction index {k} out of range 1..{omega.n}")
    after = omega.contracted(k)
    already = omega.omega(k) == 0
    new_beta = ()
    new_gamma = None
    if not already:
        new_beta = tuple(
            (min(k, l), max(k, l)) for l in omega.zero_set
        )
        new_beta = tuple(sorted(new_beta))
        if family == "u":
            new_gamma = k
    return ContractionReport(
        family=family,
        k=k,
        omega_before=omega,
        omega_after=after,
        already_zero=already,
        alpha_now_nontrivial=None if already else k,
        new_beta=new_beta,
        new_gamma=new_gamma,
        dim_before=dim_h2_formula(family, omega),
        dim_after=dim_h2_formula(family, after),
    )


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


def _read_basic(algebra: LieAlgebra, xi: TwoCochain) -> BasicCoefficients:
    """The canonical readings of the basic coefficients off a cochain.

    eta_ac = -xi(J_{a,a+1}, J_{a+1,c}) and tau_ac = -xi(J_{a,a+1}, M_{a+1,c})
    (the adjacent c = a+1 slots come from the B-bracket column),
    alpha_k = xi(J_{k-1,k}, M_{k-1,k}), beta_kl = xi(B_k, B_l),
    gamma_k = xi(B_k, I).  Nothing is checked here.
    """
    basis = algebra.ck_basis()
    N = basis.N
    j, m, b = basis.j, basis.m, basis.b
    get = xi.get
    eta, tau = {}, {}
    for a, c in basis.index_pairs():
        if c == a + 1:
            sel = delta_selector(a, c, a + 1)
            eta[(a, c)] = ratio(Fraction(get(m(a, c), b(a + 1)), -sel))
            tau[(a, c)] = ratio(Fraction(get(j(a, c), b(a + 1)), sel))
        else:
            eta[(a, c)] = -get(j(a, a + 1), j(a + 1, c))
            tau[(a, c)] = -get(j(a, a + 1), m(a + 1, c))
    alpha = {k: get(j(k - 1, k), m(k - 1, k)) for k in range(1, N + 1)}
    beta = {
        (k, l): get(b(k), b(l))
        for k in range(1, N + 1)
        for l in range(k + 1, N + 1)
    }
    gamma = {}
    if algebra.family == "u":
        gamma = {k: get(b(k), basis.i()) for k in range(1, N + 1)}
    return BasicCoefficients(eta=eta, tau=tau, alpha=alpha, beta=beta, gamma=gamma)


class FormulaBasis:
    """`CKBasis` before its index table: closed formulas, each pair checked per call."""

    def __init__(self, N: int, family: str):
        if N < 1:
            raise ValueError("N must be >= 1")
        check_family(family)
        self.N = N
        self.family = family
        self.pair_count = N * (N + 1) // 2
        self.dim = 2 * self.pair_count + N + (1 if family == "u" else 0)

    def j(self, a: int, b: int) -> int:
        self._check_pair(a, b)
        return a * (2 * self.N + 1 - a) // 2 + (b - a - 1)

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
        for a in range(self.N):
            for b in range(a + 1, self.N + 1):
                yield a, b

    def names(self) -> tuple[str, ...]:
        return generator_names(self.N, self.family)

    def _check_pair(self, a: int, b: int):
        if not 0 <= a < b <= self.N:
            raise IndexError(f"generator pair ({a},{b}) out of range 0..{self.N}")
