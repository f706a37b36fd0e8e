"""Classification of the central extensions of su_omega(N+1) and u_omega(N+1).

Any extension is determined by the basic coefficients

  Type I   eta_ab, tau_ab  (a < b):   always trivial, removable at once;
  Type II  alpha_k (k = 1..N):        non-trivial exactly when omega_k = 0;
  Type III beta_kl (k < l):           exists only when omega_k = omega_l = 0,
           gamma_k (u family only):   exists only when omega_k = 0;
           and then always non-trivial.

Counting over a vector with n vanishing constants gives the closed formulas

  dim H2(su_omega(N+1)) = n(n+1)/2      dim H2(u_omega(N+1)) = n(n+3)/2.

Type I is trivial because it is a coboundary: eta/tau set the cocycle
delta(mu) with mu(J_ab) = eta_ab, mu(M_ab) = tau_ab.

One writer, `_write_cocycle`, sets every extension cocycle, Type I over a
given bracket table.  The module also reads the basic coefficients off an
arbitrary cocycle and checks the reading by rebuilding: the cocycle that
writer sets from them, over the algebra's own table, must equal the input
entry for entry, which is every derived relation of the paper at once
(four-index values vanish, B-column values collapse, the alpha recursion,
the omega-scaled patterns).  The reading is entry-driven: a map from pair to
(coefficient, key, scale), made once per basis, which the library shares per
(N, family), sends each entry of the cocycle to the coefficient it sets, so
a reading costs what the cocycle holds, not N^2 lookups.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

from .algebra import LieAlgebra, _ck_structure, build_su_omega, build_u_omega
from .cochains import OneCochain, TwoCochain
from .cohomology import (
    CohomologyResult,
    NotACocycleError,
    _coboundary,
    are_coboundaries,
    central_extension,
    cocycle_defect,
    h2,
)
from .generators import CKBasis, _basis, check_family, delta_selector
from .omega import OmegaVector, _of_length
from .rationals import format_rational, ratio


class ConstraintViolation(ValueError):
    """A basic coefficient breaks its omega constraint (or index range)."""


class EngineInvariantError(RuntimeError):
    """A derived cocycle relation failed: an engine bug, not a user error."""


# Field and symbol of each kind of basic coefficient, in listing order;
# alpha and gamma are keyed by k, the others by a pair.
_FIELDS = (("eta", "η"), ("tau", "τ"), ("alpha", "α"), ("beta", "β"), ("gamma", "γ"))


def _key_text(key, sep: str) -> str:
    return sep.join(map(str, key)) if isinstance(key, tuple) else str(key)


_SYMBOLS = dict(_FIELDS)


def _label(name: str, key) -> str:
    """The label of one basic coefficient, e.g. α_2 or β_13."""
    return f"{_SYMBOLS[name]}_{_key_text(key, '')}"


def _nonzero(table: dict) -> dict:
    """A new dict of the nonzero values of `table`, each normalized by `ratio`."""
    clean = {}
    for key, v in table.items():
        if v := ratio(v):
            clean[key] = v
    return clean


@dataclass(frozen=True, init=False)
class BasicCoefficients:
    """Basic extension coefficients; absent entries are zero.

    Each field is a new dict of the nonzero values given, each normalized by
    `ratio`; a field that is not given, or given as None, is a new `{}`.
    """

    eta: dict
    tau: dict
    alpha: dict
    beta: dict
    gamma: dict

    def __init__(self, eta=None, tau=None, alpha=None, beta=None, gamma=None):
        self.__dict__.update(  # frozen: set in place of `object.__setattr__`
            eta=_nonzero(eta) if eta else {},
            tau=_nonzero(tau) if tau else {},
            alpha=_nonzero(alpha) if alpha else {},
            beta=_nonzero(beta) if beta else {},
            gamma=_nonzero(gamma) if gamma else {},
        )

    def validate(self, family: str, omega: OmegaVector):
        """Index ranges plus the Type III constraints; raises on violation."""
        check_family(family)
        n, values = omega.n, omega.values
        for (a, b) in itertools.chain(self.eta, self.tau):
            if not 0 <= a < b <= n:
                raise ConstraintViolation(f"eta/tau index ({a},{b}) out of range")
        for k in self.alpha:
            if not 1 <= k <= n:
                raise ConstraintViolation(f"alpha index {k} out of range")
        for (k, l), v in self.beta.items():
            if not 1 <= k < l <= n:
                raise ConstraintViolation(f"beta index ({k},{l}) out of range")
            if values[k - 1] * v != 0 or values[l - 1] * v != 0:
                raise ConstraintViolation(
                    f"beta_{k}{l} != 0 requires omega_{k} = omega_{l} = 0"
                )
        if self.gamma and family != "u":
            raise ConstraintViolation("gamma coefficients exist only in the u family")
        for k, v in self.gamma.items():
            if not 1 <= k <= n:
                raise ConstraintViolation(f"gamma index {k} out of range")
            if values[k - 1] * v != 0:
                raise ConstraintViolation(f"gamma_{k} != 0 requires omega_{k} = 0")

    def is_zero(self) -> bool:
        return not any(getattr(self, name) for name, _ in _FIELDS)

    def describe(self) -> str:
        """All nonzero coefficients (Type I included) as `name=value` text."""
        parts = [
            f"{_label(name, key)}={format_rational(v)}"
            for name, _ in _FIELDS
            for key, v in sorted(getattr(self, name).items())
        ]
        return " ".join(parts) if parts else "0"

    def to_json_obj(self) -> dict:
        obj = {}
        for name, _ in _FIELDS:
            if table := getattr(self, name):
                obj[name] = {_key_text(k, ","): format_rational(v) for k, v in sorted(table.items())}
        return obj


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
        out = [_label("alpha", k) for k in self.type2_nontrivial]
        out += [_label("beta", key) for key in self.type3_beta_allowed]
        out += [_label("gamma", k) for k in self.type3_gamma_allowed]
        return out


def dim_h2_formula(family: str, omega) -> int:
    """n(n+1)/2 for su, n(n+3)/2 for u, with n the number of vanishing omegas."""
    check_family(family)
    n = OmegaVector(omega).n_zero
    return n * (n + 1) // 2 if family == "su" else n * (n + 3) // 2


def classify(family: str, N: int, omega) -> ExtensionClassification:
    """Which extension coefficients are non-trivial for this omega vector."""
    omega = _of_length(N, omega)
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
    """The two-cocycle a set of basic coefficients determines (`_write_cocycle`)."""
    omega = _of_length(N, omega)
    coeffs.validate(family, omega)
    basis = _basis(N, family)
    table = _ck_structure(basis, omega) if coeffs.eta or coeffs.tau else None
    return TwoCochain(basis.dim, _write_cocycle(basis, omega, coeffs, table))


def _write_cocycle(basis: CKBasis, omega: OmegaVector, coeffs: BasicCoefficients, table) -> dict:
    """Pair -> value of the cocycle set by validated coefficients (zeros kept).

    Type I = delta(mu): the eta/tau part is the coboundary of mu(J_ab) =
    eta_ab, mu(M_ab) = tau_ab over `table`, the bracket table of su/u_omega
    on `basis` (read only when eta or tau is nonzero).  Alpha enters through
    [J_ac, M_ac] with the omega(a,s-1) omega(s,c) weights, beta/gamma sit on
    the B-B and B-I pairs.  The weights of alpha_s are running products:
    omega(s,c) as c rises from s and omega(a,s-1) as a falls from s-1, each
    zero from its first zero factor on.  So only the pairs of nonzero weight
    are written, a ascending, then c, in the order of a walk over all pairs.
    """
    J, P, b = basis._j, basis.pair_count, basis.b
    mu = {J[pair]: v for pair, v in coeffs.eta.items()}
    mu.update({P + J[pair]: v for pair, v in coeffs.tau.items()})
    entries = _coboundary(table, mu) if mu else {}
    values = omega.values

    def put(i, jj, value):
        if value:
            entries[(i, jj)] = entries.get((i, jj), 0) + value

    for s, al in coeffs.alpha.items():
        # w(s, s + m) for m = 0, 1, ... and w(s - 1 - m, s - 1), up to the first zero
        right = _running_products(values[s:])
        left = _running_products(reversed(values[: s - 1]))
        for a in range(s - len(left), s):
            w_left = left[s - 1 - a]
            for m, w_right in enumerate(right):
                k = J[a, s + m]
                entries[k, P + k] = entries.get((k, P + k), 0) + w_left * w_right * al
    for (k, l), v in coeffs.beta.items():
        put(b(k), b(l), v)
    for k, v in coeffs.gamma.items():  # validated: empty outside the u family
        put(b(k), basis.i(), v)
    return entries


def _running_products(factors) -> list:
    """1, f_1, f_1 f_2, ... over `factors`, each normalised by `ratio`, up to the first zero."""
    out, prod = [1], 1
    for f in factors:
        prod = ratio(prod * f)
        if not prod:
            break
        out.append(prod)
    return out


def build_extended(family: str, N: int, omega, coeffs: BasicCoefficients) -> LieAlgebra:
    """The centrally extended algebra on r+1 generators (constraints checked)."""
    xi = extension_cocycle(family, N, omega, coeffs)
    base = build_su_omega(N, omega) if family == "su" else build_u_omega(N, omega)
    return central_extension(base, xi)


@functools.lru_cache(maxsize=64)
def _readings(basis: CKBasis) -> dict:
    """Pair -> (field, key, scale) of every canonical reading on `basis`.

    eta_ac = -xi(J_{a,a+1}, J_{a+1,c}) and tau_ac = -xi(J_{a,a+1}, M_{a+1,c})
    (the adjacent c = a+1 slots come from the B-bracket column, scaled by
    -+1/sel), alpha_k = xi(J_{k-1,k}, M_{k-1,k}), beta_kl = xi(B_k, B_l),
    gamma_k = xi(B_k, I).  The pairs are all distinct.
    """
    j, m, b = basis.j, basis.m, basis.b
    N = basis.N
    out = {}
    for a, c in basis.index_pairs():
        if c == a + 1:
            sel = delta_selector(a, c, a + 1)
            out[m(a, c), b(a + 1)] = ("eta", (a, c), Fraction(-1, sel))
            out[j(a, c), b(a + 1)] = ("tau", (a, c), Fraction(1, sel))
        else:
            out[j(a, a + 1), j(a + 1, c)] = ("eta", (a, c), -1)
            out[j(a, a + 1), m(a + 1, c)] = ("tau", (a, c), -1)
    for k in range(1, N + 1):
        out[j(k - 1, k), m(k - 1, k)] = ("alpha", k, 1)
        for l in range(k + 1, N + 1):
            out[b(k), b(l)] = ("beta", (k, l), 1)
        if basis.family == "u":
            out[b(k), basis.i()] = ("gamma", k, 1)
    return out


def _read_basic(algebra: LieAlgebra, xi: TwoCochain) -> BasicCoefficients:
    """The canonical readings of the basic coefficients off a cochain.

    Entry-driven: each entry of xi is looked up in `_readings` of the
    algebra's shared basis, so the cost follows the entries of xi, not N^2.
    Each field comes out in key order, as a walk over all keys would give.
    Nothing is checked here.
    """
    readings = _readings(algebra.ck_basis())
    fields = {}  # only the fields a reading holds are made and sorted
    for pair, v in xi.entries.items():
        if reading := readings.get(pair):
            name, key, scale = reading
            table = fields.get(name)
            if table is None:
                fields[name] = table = {}
            table[key] = v * scale
    for name, table in fields.items():
        if len(table) > 1:
            fields[name] = dict(sorted(table.items()))
    return BasicCoefficients(**fields)


def appendix_violations(algebra: LieAlgebra, xi: TwoCochain) -> list[str]:
    """Where xi differs from the cocycle its own basic coefficients set.

    `_write_cocycle` sets every pair class (J-J, M-M, J-M, J/M-B, B-B and,
    for u, B/J/M-I), so every derived relation holds exactly when xi equals
    the cocycle rebuilt from its readings.  One `xi(X,Y): got g, expected e`
    line per differing pair, in pair order, or one line when a beta/gamma is
    read where its omega is nonzero; empty for a genuine cocycle.  The Type I
    part is delta(mu) over the algebra's own `constants`, so no bracket table
    is built here.
    """
    if xi.dim != algebra.dim:
        raise ValueError("cochain dimension does not match the algebra")
    coeffs = _read_basic(algebra, xi)
    omega = algebra.omega
    try:
        coeffs.validate(algebra.family, omega)
    except ConstraintViolation as exc:
        return [str(exc)]
    rebuilt = _write_cocycle(algebra.ck_basis(), omega, coeffs, algebra.constants)
    name, got = algebra.name, xi.entries
    return [
        f"xi({name(i)},{name(k)}): got {format_rational(g)}, expected {format_rational(e)}"
        for i, k in sorted(got.keys() | rebuilt.keys())
        if (g := got.get((i, k), 0)) != (e := rebuilt.get((i, k), 0))
    ]


def extract_basic(algebra: LieAlgebra, xi: TwoCochain) -> BasicCoefficients:
    """Read the basic coefficients off a cocycle and re-verify every relation.

    Raises `NotACocycleError` for a non-cocycle and `EngineInvariantError`
    for a cocycle that is not the one its readings set; both messages name
    the algebra and the first pairs at fault (see `appendix_violations`).
    """
    defect = cocycle_defect(algebra, xi)
    violations = appendix_violations(algebra, xi)
    if not (defect or violations):
        return _read_basic(algebra, xi)
    where = f"{algebra.family} N={algebra.omega.n} ω ({algebra.omega.tokens()})"
    detail = "; ".join(violations[:5])
    if defect:
        raise NotACocycleError(
            f"not a two-cocycle of {where} (defect {format_rational(defect)}): {detail}"
        )
    raise EngineInvariantError(
        f"cocycle of {where} violates {len(violations)} derived relation(s): {detail}"
    )


def trivializing_cochain(family: str, omega, alpha: dict) -> OneCochain:
    """mu with mu(B_s) = -alpha_s / (2 omega_s), removing a Type II cocycle.

    Defined only when every alpha_s != 0 has omega_s != 0; otherwise the
    extension is non-trivial and no such cochain exists.
    """
    omega = OmegaVector(omega)
    basis = _basis(omega.n, check_family(family))
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
            out.append(f"{_label('alpha', self.k)}: trivial -> non-trivial")
            for key in self.new_beta:
                out.append(f"{_label('beta', key)}: now allowed (non-trivial)")
            if self.new_gamma is not None:
                out.append(f"{_label('gamma', self.new_gamma)}: now allowed (non-trivial)")
        out.append(f"dim H2: {self.dim_before} -> {self.dim_after}")
        return out


def contract(family: str, omega, k: int) -> ContractionReport:
    """Set omega_k to zero and report what `classify` newly allows.

    Each of the alpha, beta and gamma lists of the report is what the
    classification after the contraction holds and the one before does not.
    """
    omega = OmegaVector(omega)
    before = classify(family, omega.n, omega)
    if not 1 <= k <= omega.n:
        raise IndexError(f"contraction index {k} out of range 1..{omega.n}")
    after = classify(family, omega.n, omega.contracted(k))

    def new(name):
        old = getattr(before, name)
        return tuple(x for x in getattr(after, name) if x not in old)

    alpha, gamma = new("type2_nontrivial"), new("type3_gamma_allowed")
    return ContractionReport(
        family=family,
        k=k,
        omega_before=omega,
        omega_after=after.omega,
        already_zero=not alpha,
        alpha_now_nontrivial=alpha[0] if alpha else None,
        new_beta=new("type3_beta_allowed"),
        new_gamma=gamma[0] if gamma else None,
        dim_before=before.dim_h2_formula,
        dim_after=after.dim_h2_formula,
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
    omega = OmegaVector(omega)
    cls = classify(family, N, omega)
    build = build_su_omega if family == "su" else build_u_omega
    algebra = build(N, omega)
    result = h2(algebra, representatives=representatives)
    canonical = [
        (_label("alpha", k), BasicCoefficients(alpha={k: 1}), k not in cls.type2_nontrivial)
        for k in range(1, N + 1)
    ]
    canonical += [
        (_label("beta", key), BasicCoefficients(beta={key: 1}), False)
        for key in cls.type3_beta_allowed
    ]
    canonical += [
        (_label("gamma", k), BasicCoefficients(gamma={k: 1}), False)
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
