"""Classification of the central extensions of su_omega(N+1) and u_omega(N+1).

Any extension is determined by the basic coefficients

  Type I   eta_ab, tau_ab  (a < b):   always trivial, removable at once;
  Type II  alpha_k (k = 1..N):        non-trivial exactly when omega_k = 0;
  Type III beta_kl (k < l):           exists only when omega_k = omega_l = 0,
           gamma_k (u family only):   exists only when omega_k = 0;
           and then always non-trivial.

Counting over a vector with n vanishing constants gives the closed formulas

  dim H2(su_omega(N+1)) = n(n+1)/2      dim H2(u_omega(N+1)) = n(n+3)/2.

The module also reads the basic coefficients off an arbitrary cocycle and
checks the reading by rebuilding: the cocycle those coefficients set
(`extension_cocycle`) must equal the input entry for entry, which is every
derived relation of the paper at once (four-index values vanish, B-column
values collapse, the alpha recursion, the omega-scaled patterns).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import LieAlgebra, build_su_omega, build_u_omega
from .cochains import OneCochain, TwoCochain
from .cohomology import (
    CohomologyResult,
    NotACocycleError,
    are_coboundaries,
    central_extension,
    cocycle_defect,
    h2,
)
from .generators import CKBasis, check_family, delta_selector
from .omega import OmegaVector
from .rationals import format_rational, parse_rational, ratio


class ConstraintViolation(ValueError):
    """A basic coefficient breaks its omega constraint (or index range)."""


class EngineInvariantError(RuntimeError):
    """A derived cocycle relation failed: an engine bug, not a user error."""


def _clean(table) -> dict:
    out = {}
    for key, v in (table or {}).items():
        v = ratio(v)
        if v:
            out[key] = v
    return out


@dataclass(frozen=True)
class BasicCoefficients:
    """Basic extension coefficients; absent entries are zero."""

    eta: dict = field(default_factory=dict)
    tau: dict = field(default_factory=dict)
    alpha: dict = field(default_factory=dict)
    beta: dict = field(default_factory=dict)
    gamma: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "eta", _clean(self.eta))
        object.__setattr__(self, "tau", _clean(self.tau))
        object.__setattr__(self, "alpha", _clean(self.alpha))
        object.__setattr__(self, "beta", _clean(self.beta))
        object.__setattr__(self, "gamma", _clean(self.gamma))

    def validate(self, family: str, omega: OmegaVector):
        """Index ranges plus the Type III constraints; raises on violation."""
        check_family(family)
        n = omega.n
        for (a, b) in itertools.chain(self.eta, self.tau):
            if not 0 <= a < b <= n:
                raise ConstraintViolation(f"eta/tau index ({a},{b}) out of range")
        for k in self.alpha:
            if not 1 <= k <= n:
                raise ConstraintViolation(f"alpha index {k} out of range")
        for (k, l), v in self.beta.items():
            if not 1 <= k < l <= n:
                raise ConstraintViolation(f"beta index ({k},{l}) out of range")
            if omega.omega(k) * v != 0 or omega.omega(l) * v != 0:
                raise ConstraintViolation(
                    f"beta_{k}{l} != 0 requires omega_{k} = omega_{l} = 0"
                )
        if self.gamma and family != "u":
            raise ConstraintViolation("gamma coefficients exist only in the u family")
        for k, v in self.gamma.items():
            if not 1 <= k <= n:
                raise ConstraintViolation(f"gamma index {k} out of range")
            if omega.omega(k) * v != 0:
                raise ConstraintViolation(f"gamma_{k} != 0 requires omega_{k} = 0")

    def is_zero(self) -> bool:
        return not (self.eta or self.tau or self.alpha or self.beta or self.gamma)

    def labels(self) -> list[str]:
        """Names of the nonzero Type II / Type III coefficients."""
        out = [f"α_{k}" for k in sorted(self.alpha)]
        out += [f"β_{k}{l}" for k, l in sorted(self.beta)]
        out += [f"γ_{k}" for k in sorted(self.gamma)]
        return out

    def describe(self) -> str:
        """All nonzero coefficients (Type I included) as `name=value` text."""
        parts = []
        for (a, b) in sorted(self.eta):
            parts.append(f"η_{a}{b}={format_rational(self.eta[(a, b)])}")
        for (a, b) in sorted(self.tau):
            parts.append(f"τ_{a}{b}={format_rational(self.tau[(a, b)])}")
        for k in sorted(self.alpha):
            parts.append(f"α_{k}={format_rational(self.alpha[k])}")
        for (k, l) in sorted(self.beta):
            parts.append(f"β_{k}{l}={format_rational(self.beta[(k, l)])}")
        for k in sorted(self.gamma):
            parts.append(f"γ_{k}={format_rational(self.gamma[k])}")
        return " ".join(parts) if parts else "0"

    def to_json_obj(self) -> dict:
        obj = {}
        if self.eta:
            obj["eta"] = {f"{a},{b}": format_rational(v) for (a, b), v in sorted(self.eta.items())}
        if self.tau:
            obj["tau"] = {f"{a},{b}": format_rational(v) for (a, b), v in sorted(self.tau.items())}
        if self.alpha:
            obj["alpha"] = {str(k): format_rational(v) for k, v in sorted(self.alpha.items())}
        if self.beta:
            obj["beta"] = {f"{k},{l}": format_rational(v) for (k, l), v in sorted(self.beta.items())}
        if self.gamma:
            obj["gamma"] = {str(k): format_rational(v) for k, v in sorted(self.gamma.items())}
        return obj

    @classmethod
    def from_json_obj(cls, obj) -> "BasicCoefficients":
        def pairs(name):
            out = {}
            for key, v in obj.get(name, {}).items():
                a, b = key.split(",")
                out[(int(a), int(b))] = parse_rational(v)
            return out

        def singles(name):
            return {int(k): parse_rational(v) for k, v in obj.get(name, {}).items()}

        return cls(
            eta=pairs("eta"),
            tau=pairs("tau"),
            alpha=singles("alpha"),
            beta=pairs("beta"),
            gamma=singles("gamma"),
        )


@dataclass(frozen=True)
class ExtensionClassification:
    family: str
    omega: OmegaVector
    n_zero: int
    type2_nontrivial: tuple
    type3_beta_allowed: tuple
    type3_gamma_allowed: tuple
    dim_h2_formula: int

    @property
    def type2_count(self) -> int:
        return len(self.type2_nontrivial)

    @property
    def type3_count(self) -> int:
        return len(self.type3_beta_allowed) + len(self.type3_gamma_allowed)

    def labels(self) -> list[str]:
        out = [f"α_{k}" for k in self.type2_nontrivial]
        out += [f"β_{k}{l}" for k, l in self.type3_beta_allowed]
        out += [f"γ_{k}" for k in self.type3_gamma_allowed]
        return out


def dim_h2_formula(family: str, omega: OmegaVector) -> int:
    """n(n+1)/2 for su, n(n+3)/2 for u, with n the number of vanishing omegas."""
    check_family(family)
    n = omega.n_zero
    return n * (n + 1) // 2 if family == "su" else n * (n + 3) // 2


def classify(family: str, N: int, omega) -> ExtensionClassification:
    """Which extension coefficients are non-trivial for this omega vector."""
    if not isinstance(omega, OmegaVector):
        omega = OmegaVector(omega)
    if omega.n != N:
        raise ValueError(f"omega has {omega.n} entries, expected N={N}")
    check_family(family)
    zeros = omega.zero_set
    beta_allowed = tuple(
        (k, l) for k, l in itertools.combinations(zeros, 2)
    )
    gamma_allowed = zeros if family == "u" else ()
    return ExtensionClassification(
        family=family,
        omega=omega,
        n_zero=len(zeros),
        type2_nontrivial=zeros,
        type3_beta_allowed=beta_allowed,
        type3_gamma_allowed=gamma_allowed,
        dim_h2_formula=dim_h2_formula(family, omega),
    )


def extension_cocycle(family: str, N: int, omega, coeffs: BasicCoefficients) -> TwoCochain:
    """The two-cocycle determined by a set of basic coefficients.

    Every derived component follows the extended bracket table: the eta/tau
    terms ride the omega prefactors of their carriers, alpha enters through
    [J_ac, M_ac] with the omega(a,s-1) omega(s,c) weights, beta/gamma sit on
    the B-B and B-I pairs.
    """
    if not isinstance(omega, OmegaVector):
        omega = OmegaVector(omega)
    if omega.n != N:
        raise ValueError(f"omega has {omega.n} entries, expected N={N}")
    coeffs.validate(family, omega)
    basis = CKBasis(N, family)
    w = omega.product
    j, m, b = basis.j, basis.m, basis.b
    eta = lambda a, bb: coeffs.eta.get((a, bb), 0)
    tau = lambda a, bb: coeffs.tau.get((a, bb), 0)
    entries = {}

    def put(i, jj, value):
        if value:
            entries[(i, jj)] = entries.get((i, jj), 0) + value

    for a in range(N - 1):
        for bb in range(a + 1, N):
            for c in range(bb + 1, N + 1):
                w_ab, w_bc = w(a, bb), w(bb, c)
                put(j(a, bb), j(a, c), w_ab * eta(bb, c))
                put(j(a, bb), j(bb, c), -eta(a, c))
                put(j(a, c), j(bb, c), w_bc * eta(a, bb))
                put(m(a, bb), m(a, c), w_ab * eta(bb, c))
                put(m(a, bb), m(bb, c), eta(a, c))
                put(m(a, c), m(bb, c), w_bc * eta(a, bb))
                put(j(a, bb), m(a, c), w_ab * tau(bb, c))
                put(j(a, c), m(a, bb), w_ab * tau(bb, c))
                put(j(a, bb), m(bb, c), -tau(a, c))
                put(j(bb, c), m(a, bb), tau(a, c))
                put(j(a, c), m(bb, c), -w_bc * tau(a, bb))
                put(j(bb, c), m(a, c), -w_bc * tau(a, bb))
    for a, bb in basis.index_pairs():
        total = 0
        for s in range(a + 1, bb + 1):
            al = coeffs.alpha.get(s, 0)
            if al:
                total += w(a, s - 1) * w(s, bb) * al
        put(j(a, bb), m(a, bb), total)
        for l in range(1, N + 1):
            sel = delta_selector(a, bb, l)
            if sel:
                put(j(a, bb), b(l), sel * tau(a, bb))
                put(m(a, bb), b(l), -sel * eta(a, bb))
    for (k, l), v in coeffs.beta.items():
        put(b(k), b(l), v)
    if family == "u":
        for k, v in coeffs.gamma.items():
            put(b(k), basis.i(), v)
    return TwoCochain(basis.dim, entries)


def build_extended(family: str, N: int, omega, coeffs: BasicCoefficients) -> LieAlgebra:
    """The centrally extended algebra on r+1 generators (constraints checked)."""
    if not isinstance(omega, OmegaVector):
        omega = OmegaVector(omega)
    coeffs.validate(family, omega)
    base = build_su_omega(N, omega) if family == "su" else build_u_omega(N, omega)
    return central_extension(base, extension_cocycle(family, N, omega, coeffs))


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


def appendix_violations(algebra: LieAlgebra, xi: TwoCochain) -> list[str]:
    """Where xi differs from the cocycle its own basic coefficients set.

    `extension_cocycle` sets every pair class (J-J, M-M, J-M, J/M-B, B-B and,
    for u, B/J/M-I), so every derived relation holds exactly when xi equals
    the cocycle rebuilt from its readings.  One `xi(X,Y): got g, expected e`
    line per differing pair, in pair order, or one line when a beta/gamma is
    read where its omega is nonzero; empty for a genuine cocycle.
    """
    if xi.dim != algebra.dim:
        raise ValueError("cochain dimension does not match the algebra")
    coeffs = _read_basic(algebra, xi)
    try:
        rebuilt = extension_cocycle(algebra.family, algebra.omega.n, algebra.omega, coeffs)
    except ConstraintViolation as exc:
        return [str(exc)]
    name = algebra.name
    return [
        f"xi({name(i)},{name(k)}): got {format_rational(xi.get(i, k))}, "
        f"expected {format_rational(rebuilt.get(i, k))}"
        for i, k in sorted((xi - rebuilt).entries)
    ]


def extract_basic(algebra: LieAlgebra, xi: TwoCochain) -> BasicCoefficients:
    """Read the basic coefficients off a cocycle and re-verify every relation.

    Raises `NotACocycleError` for a non-cocycle and `EngineInvariantError`
    for a cocycle that is not the one its readings set; both messages name
    the algebra and the first pairs at fault (see `appendix_violations`).
    """
    defect = cocycle_defect(algebra, xi)
    violations = appendix_violations(algebra, xi)
    where = f"{algebra.family} N={algebra.omega.n} ω ({algebra.omega.tokens()})"
    detail = "; ".join(violations[:5])
    if defect:
        raise NotACocycleError(
            f"not a two-cocycle of {where} (defect {format_rational(defect)}): {detail}"
        )
    if violations:
        raise EngineInvariantError(
            f"cocycle of {where} violates {len(violations)} derived relation(s): {detail}"
        )
    return _read_basic(algebra, xi)


def trivializing_cochain(family: str, omega, alpha: dict) -> OneCochain:
    """mu with mu(B_s) = -alpha_s / (2 omega_s), removing a Type II cocycle.

    Defined only when every alpha_s != 0 has omega_s != 0; otherwise the
    extension is non-trivial and no such cochain exists.
    """
    if not isinstance(omega, OmegaVector):
        omega = OmegaVector(omega)
    basis = CKBasis(omega.n, check_family(family))
    mu = {}
    for s, a_s in alpha.items():
        a_s = ratio(a_s)
        if not a_s:
            continue
        if not 1 <= s <= omega.n:
            raise ConstraintViolation(f"alpha index {s} out of range")
        w_s = omega.omega(s)
        if w_s == 0:
            raise ConstraintViolation(
                f"alpha_{s} with omega_{s} = 0 is a non-trivial extension; "
                "no trivializing cochain exists"
            )
        mu[basis.b(s)] = ratio(Fraction(-a_s, 2 * w_s))
    return OneCochain(basis.dim, mu)


@dataclass(frozen=True)
class ContractionReport:
    family: str
    k: int
    omega_before: OmegaVector
    omega_after: OmegaVector
    already_zero: bool
    alpha_now_nontrivial: int | None
    new_beta: tuple
    new_gamma: int | None
    dim_before: int
    dim_after: int

    def lines(self) -> list[str]:
        before = self.omega_before.tokens()
        after = self.omega_after.tokens()
        out = [f"contract omega_{self.k}: ({before}) -> ({after})"]
        if self.already_zero:
            out.append("omega_k already zero: no change")
        else:
            out.append(f"α_{self.k}: trivial -> non-trivial")
            for k, l in self.new_beta:
                out.append(f"β_{k}{l}: now allowed (non-trivial)")
            if self.new_gamma is not None:
                out.append(f"γ_{self.new_gamma}: now allowed (non-trivial)")
        out.append(f"dim H2: {self.dim_before} -> {self.dim_after}")
        return out


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


@dataclass(frozen=True)
class CocycleCheck:
    label: str
    expect_trivial: bool
    trivial: bool

    @property
    def ok(self) -> bool:
        return self.expect_trivial == self.trivial


@dataclass(frozen=True)
class TheoremReport:
    family: str
    omega: OmegaVector
    result: CohomologyResult
    formula: int
    cocycle_checks: tuple
    algebra: LieAlgebra

    @property
    def dims_match(self) -> bool:
        return self.result.dim_H2 == self.formula

    @property
    def ok(self) -> bool:
        return self.dims_match and all(c.ok for c in self.cocycle_checks)


def verify_theorem(
    family: str, N: int, omega, representatives: bool = False
) -> TheoremReport:
    """Solver-vs-formula check for one algebra.

    Runs the generic engine on the built algebra, compares dim H2 with the
    closed formula, and checks that every canonical Type II cocycle is a
    coboundary exactly when its omega is nonzero while every allowed Type III
    cocycle is not a coboundary.
    """
    if not isinstance(omega, OmegaVector):
        omega = OmegaVector(omega)
    cls = classify(family, N, omega)
    build = build_su_omega if family == "su" else build_u_omega
    algebra = build(N, omega)
    result = h2(algebra, representatives=representatives, check=False)
    canonical = [
        (f"α_{k}", BasicCoefficients(alpha={k: 1}), omega.omega(k) != 0)
        for k in range(1, N + 1)
    ]
    canonical += [
        (f"β_{k}{l}", BasicCoefficients(beta={(k, l): 1}), False)
        for k, l in cls.type3_beta_allowed
    ]
    canonical += [
        (f"γ_{k}", BasicCoefficients(gamma={k: 1}), False)
        for k in cls.type3_gamma_allowed
    ]
    cocycles = [extension_cocycle(family, N, omega, coeffs) for _, coeffs, _ in canonical]
    answers = are_coboundaries(algebra, cocycles, assume_cocycle=True)
    checks = tuple(
        CocycleCheck(label, want, mu is not None)
        for (label, _, want), mu in zip(canonical, answers)
    )
    return TheoremReport(
        family=family,
        omega=omega,
        result=result,
        formula=cls.dim_h2_formula,
        cocycle_checks=checks,
        algebra=algebra,
    )


@dataclass(frozen=True)
class TableRow:
    signs: tuple
    labels: tuple
    type2_count: int
    type3_count: int

    def format(self) -> str:
        signs = "(" + ",".join(self.signs) + ")"
        labels = ",".join(self.labels) if self.labels else "-"
        return f"{signs} | {labels} | {self.type2_count}+{self.type3_count}"


def table_rows(family: str, N: int) -> list[TableRow]:
    """One row per sign vector: non-trivial extension labels and dim split.

    Sorted by contraction count, then lexicographically by the sign characters
    ('+' < '-' < '0').
    """
    check_family(family)
    rows = []
    for signs in itertools.product("+-0", repeat=N):
        omega = OmegaVector.parse(",".join(signs))
        cls = classify(family, N, omega)
        rows.append(
            TableRow(
                signs=signs,
                labels=tuple(cls.labels()),
                type2_count=cls.type2_count,
                type3_count=cls.type3_count,
            )
        )
    rows.sort(key=lambda row: (sum(1 for s in row.signs if s == "0"), row.signs))
    return rows


def format_table(rows) -> str:
    return "\n".join(row.format() for row in rows) + "\n"
