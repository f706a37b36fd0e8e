import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

import ckcoh.extensions
from ckcoh.algebra import build_su_omega, build_u_omega, jacobi_residual
from ckcoh.cochains import OneCochain, TwoCochain, pair_list
from ckcoh.cohomology import (
    NotACocycleError,
    central_extension,
    cocycle_defect,
    cocycle_system,
    delta,
    is_coboundary,
)
from ckcoh.extensions import (
    BasicCoefficients,
    ConstraintViolation,
    EngineInvariantError,
    appendix_violations,
    build_extended,
    classify,
    contract,
    dim_h2_formula,
    extension_cocycle,
    extract_basic,
    format_table,
    table_rows,
    trivializing_cochain,
    verify_theorem,
)
from ckcoh.generators import CKBasis
from ckcoh.omega import OmegaVector, sign_vectors
from ckcoh.sparse import nullspace

from pair_vectors import from_vector

BUILDERS = (("su", build_su_omega), ("u", build_u_omega))


def test_classify_su_n3_paper_rows():
    cls = classify("su", 3, OmegaVector([0, 0, 1]))
    assert cls.type2_nontrivial == (1, 2)
    assert cls.type3_beta_allowed == ((1, 2),)
    assert cls.type3_gamma_allowed == ()
    assert cls.dim_h2_formula == 3
    assert cls.labels() == ["α_1", "α_2", "β_12"]

    cls = classify("su", 3, OmegaVector([1, 1, 1]))
    assert cls.labels() == [] and cls.dim_h2_formula == 0


def test_classify_u_family_gamma():
    cls = classify("u", 2, OmegaVector([0, 1]))
    assert cls.type2_nontrivial == (1,)
    assert cls.type3_gamma_allowed == (1,)
    assert cls.dim_h2_formula == 2  # n(n+3)/2 with n=1


def test_dim_formula_values():
    assert dim_h2_formula("su", OmegaVector([0] * 4)) == 10  # N(N+1)/2 at full contraction
    assert dim_h2_formula("su", OmegaVector([1, -1])) == 0
    assert dim_h2_formula("u", OmegaVector([0, 0, 0])) == 9


def test_dim_formula_takes_plain_values():
    assert dim_h2_formula("su", [0, 0]) == 3
    assert dim_h2_formula("u", (0, 1)) == 2


def test_build_extended_qc_equation():
    # su_{0,w2}(3) with alpha_1: [J01,M01] = a1 Xi, [J02,M02] = w2 a1 Xi,
    # [J12,M12] = -2 w2 B2, [B1,B2] = 0
    basis = CKBasis(2, "su")
    xi_idx = basis.dim
    for w2 in (1, -1, Fraction(5, 3)):
        ext = build_extended("su", 2, [0, w2], BasicCoefficients(alpha={1: 1}))
        assert ext.dim == 9
        assert jacobi_residual(ext) == 0
        assert ext.bracket(basis.j(0, 1), basis.m(0, 1)) == ((xi_idx, 1),)
        assert ext.bracket(basis.j(0, 2), basis.m(0, 2)) == ((xi_idx, w2),)
        assert ext.bracket(basis.j(1, 2), basis.m(1, 2)) == ((basis.b(2), -2 * w2),)
        assert ext.bracket(basis.b(1), basis.b(2)) == ()


def test_build_extended_qe_flag_case():
    basis = CKBasis(2, "su")
    xi_idx = basis.dim
    ext = build_extended(
        "su", 2, [0, 0], BasicCoefficients(alpha={1: 1, 2: 1}, beta={(1, 2): 1})
    )
    assert ext.bracket(basis.j(0, 2), basis.m(0, 2)) == ()
    assert ext.bracket(basis.j(0, 1), basis.m(0, 1)) == ((xi_idx, 1),)
    assert ext.bracket(basis.j(1, 2), basis.m(1, 2)) == ((xi_idx, 1),)
    assert ext.bracket(basis.b(1), basis.b(2)) == ((xi_idx, 1),)
    assert jacobi_residual(ext) == 0


def test_build_extended_zero_coefficients_trivial():
    g = build_su_omega(2, [1, 1])
    ext = build_extended("su", 2, [1, 1], BasicCoefficients())
    assert ext.dim == 9
    assert {p: e for p, e in ext.constants.items()} == g.constants


def test_build_extended_u_family_gamma():
    basis = CKBasis(2, "u")
    ext = build_extended("u", 2, [0, 1], BasicCoefficients(gamma={1: 3}))
    assert ext.bracket(basis.b(1), basis.i()) == ((basis.dim, 3),)
    assert jacobi_residual(ext) == 0


def test_constraint_violations_reported_before_construction():
    with pytest.raises(ConstraintViolation):
        build_extended("su", 2, [1, 0], BasicCoefficients(beta={(1, 2): 1}))
    with pytest.raises(ConstraintViolation):
        build_extended("u", 2, [1, 0], BasicCoefficients(gamma={1: 1}))
    with pytest.raises(ConstraintViolation):
        build_extended("su", 2, [0, 0], BasicCoefficients(gamma={1: 1}))
    with pytest.raises(ConstraintViolation):
        build_extended("su", 2, [0, 0], BasicCoefficients(alpha={5: 1}))
    # allowed: beta on two genuinely contracted directions
    ext = build_extended("su", 2, [0, 0], BasicCoefficients(beta={(1, 2): 7}))
    assert jacobi_residual(ext) == 0


def test_extended_jacobi_with_type1_coefficients():
    # eta/tau extensions are coboundaries but still must close exactly
    coeffs = BasicCoefficients(
        eta={(0, 1): 3, (0, 2): Fraction(1, 2), (1, 3): -2},
        tau={(0, 3): 5, (2, 3): Fraction(-7, 3)},
        alpha={2: 1},
    )
    for family in ("su", "u"):
        for om in ([1, -1, 1], [0, 1, 0]):
            ext = build_extended(family, 3, om, coeffs)
            assert jacobi_residual(ext) == 0


def test_round_trip_extract_basic():
    om = OmegaVector([0, 1, 0])
    coeffs = BasicCoefficients(
        eta={(0, 2): 7, (1, 2): Fraction(1, 4)},
        tau={(1, 3): Fraction(-2, 5)},
        alpha={1: 2, 2: Fraction(1, 3), 3: -1},
        beta={(1, 3): -5},
    )
    g = build_su_omega(3, om)
    xi = extension_cocycle("su", 3, om, coeffs)
    assert extract_basic(g, xi) == coeffs

    gu = build_u_omega(3, om)
    coeffs_u = BasicCoefficients(alpha={1: 1}, gamma={3: Fraction(2, 7)})
    xi_u = extension_cocycle("u", 3, om, coeffs_u)
    assert extract_basic(gu, xi_u) == coeffs_u


def test_extract_basic_on_sigma_coboundary():
    # mu supported on J(0,2) alone: delta(mu)(J_ab, J_bc) = -sigma_ac etc.
    basis = CKBasis(2, "su")
    g = build_su_omega(2, [1, 1])
    sigma = 5
    mu = OneCochain(8, {basis.j(0, 2): sigma})
    got = extract_basic(g, delta(g, mu))
    assert got.eta == {(0, 2): sigma}
    assert got.tau == {} and got.alpha == {} and got.beta == {}


def test_extract_basic_rejects_non_cocycle():
    g = build_su_omega(2, [1, 1])
    with pytest.raises(NotACocycleError):
        extract_basic(g, TwoCochain(8, {(0, 1): 1}))


def test_appendix_violations_flag_corrupted_cocycle():
    om = OmegaVector([0, 1])
    g = build_su_omega(2, om)
    xi = extension_cocycle("su", 2, om, BasicCoefficients(alpha={1: 1}))
    assert appendix_violations(g, xi) == []
    basis = CKBasis(2, "su")
    # corrupt a four-index-style slot: (J01, B-column outside the quad) has no
    # room at N=2, so break the alpha recursion instead
    bad = TwoCochain(8, dict(xi.entries))
    bad.entries[(basis.j(0, 2), basis.m(0, 2))] = 99
    assert appendix_violations(g, bad)


def _non_sign_rational(rng):
    while True:
        v = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        if v not in (-1, 0, 1):
            return v


def test_type1_cocycle_is_the_coboundary_of_eta_tau():
    # Type I is always trivial: eta/tau alone give delta(mu) with
    # mu(J_ab) = eta_ab, mu(M_ab) = tau_ab, against the independent bracket table
    rng = random.Random(7)
    for family, build in BUILDERS:
        for n in range(1, 5):
            for _ in range(25):
                om = OmegaVector([_non_sign_rational(rng) for _ in range(n)])
                basis = CKBasis(n, family)
                eta, tau, mu = _type1_coefficients(basis, rng)
                xi = extension_cocycle(family, n, om, BasicCoefficients(eta=eta, tau=tau))
                g = build(n, om)
                assert xi == delta(g, OneCochain(g.dim, mu)), (family, om, eta, tau)


def _rational_or_zero(rng):
    return 0 if rng.random() < 0.3 else _non_sign_rational(rng)


def _type1_coefficients(basis, rng):
    """Random eta, tau and the mu with mu(J_ab) = eta_ab, mu(M_ab) = tau_ab."""
    eta, tau = {}, {}
    for pair in basis.index_pairs():
        if rng.random() < 0.6:
            eta[pair] = _non_sign_rational(rng)
        if rng.random() < 0.6:
            tau[pair] = _non_sign_rational(rng)
    mu = {basis.j(a, b): v for (a, b), v in eta.items()}
    mu.update({basis.m(a, b): v for (a, b), v in tau.items()})
    return eta, tau, mu


def test_type1_readings_of_a_coboundary():
    # the paper's readings recover eta/tau from delta(mu), mu(J_ab) = eta_ab,
    # mu(M_ab) = tau_ab, whatever omega is (zeros included)
    rng = random.Random(13)
    cases = 0
    for family, build in BUILDERS:
        for n in range(1, 5):
            for _ in range(25):
                om = OmegaVector([_rational_or_zero(rng) for _ in range(n)])
                basis = CKBasis(n, family)
                eta, tau, mu = _type1_coefficients(basis, rng)
                g = build(n, om)
                read = extract_basic(g, delta(g, OneCochain(g.dim, mu)))
                assert read == BasicCoefficients(eta=eta, tau=tau), (family, om, eta, tau)
                cases += 1
    assert cases == 200


def test_rational_omegas_against_the_formula():
    # non-sign rational omegas (negative, non-unit, some zeros): dim H2 equals
    # the closed formula and every representative is rebuilt from its readings
    rng = random.Random(17)
    cases = 0
    for family, _ in BUILDERS:
        for n in range(1, 5):
            for _ in range(12):
                om = OmegaVector([_rational_or_zero(rng) for _ in range(n)])
                report = verify_theorem(family, n, om, representatives=True)
                assert report.ok, (family, om)
                for rep in report.result.representatives:
                    coeffs = extract_basic(report.algebra, rep)
                    assert extension_cocycle(family, n, om, coeffs) == rep, (family, om)
                cases += 1
    assert cases == 96


def test_rebuild_check_flags_exactly_the_non_cocycles():
    # one random cocycle per algebra, then +1 on each pair entry in turn:
    # appendix_violations must be non-empty exactly when the result is not a cocycle
    rng = random.Random(11)
    rational = [
        OmegaVector([Fraction(1, 2), Fraction(-3, 7), 2]),
        OmegaVector([Fraction(2, 3), 0, Fraction(-5, 2)]),
    ]
    omegas = [om for n in range(1, 4) for om in sign_vectors(n)] + rational
    cases = 0
    for (family, build), om in itertools.product(BUILDERS, omegas):
        g = build(om.n, om)
        base = {}
        for vec in nullspace(cocycle_system(g)):
            c = rng.randint(-3, 3)
            for col, v in vec.items():
                base[col] = base.get(col, 0) + c * v
        cocycle = from_vector(g.dim, base)
        assert appendix_violations(g, cocycle) == [], (family, om)
        for pair in pair_list(g.dim):
            entries = dict(cocycle.entries)
            entries[pair] = entries.get(pair, 0) + 1
            xi = TwoCochain(g.dim, entries)
            flagged = bool(appendix_violations(g, xi))
            assert flagged == (cocycle_defect(g, xi) != 0), (family, om, pair)
            cases += 1
    assert cases == 7128


def test_extraction_errors_name_the_algebra_and_the_pair(monkeypatch):
    om = OmegaVector([0, 1, 0])
    g = build_su_omega(3, om)
    basis = CKBasis(3, "su")
    xi = extension_cocycle("su", 3, om, BasicCoefficients(alpha={1: 1}))
    bad = TwoCochain(g.dim, dict(xi.entries))
    bad.entries[(basis.j(0, 2), basis.m(0, 2))] = 99
    assert appendix_violations(g, bad) == ["xi(J(0,2),M(0,2)): got 99, expected 1"]
    with pytest.raises(NotACocycleError) as err:
        extract_basic(g, bad)
    assert "su N=3 ω (0,1,0)" in str(err.value) and "J(0,2)" in str(err.value)

    # an engine that rebuilds the wrong cocycle: a genuine cocycle then fails
    om = OmegaVector([0, Fraction(1, 2)])
    gu = build_u_omega(2, om)
    bu = CKBasis(2, "u")
    xi = extension_cocycle("u", 2, om, BasicCoefficients(alpha={1: 1}, gamma={1: 2}))
    write = ckcoh.extensions._write_cocycle

    def wrong_write(*args):
        out = write(*args)
        out[bu.b(1), bu.b(2)] = out.get((bu.b(1), bu.b(2)), 0) - 1
        return out

    monkeypatch.setattr(ckcoh.extensions, "_write_cocycle", wrong_write)
    with pytest.raises(EngineInvariantError) as err:
        extract_basic(gu, xi)
    assert "u N=2 ω (0,1/2)" in str(err.value)
    assert "xi(B(1),B(2)): got 0, expected -1" in str(err.value)


def test_canonical_cocycles_follow_classification():
    om = OmegaVector([0, 1, 0])
    for fam, build in (("su", build_su_omega), ("u", build_u_omega)):
        g = build(3, om)
        for k in (1, 2, 3):
            xi = extension_cocycle(fam, 3, om, BasicCoefficients(alpha={k: 1}))
            mu = is_coboundary(g, xi)
            assert (mu is None) == (om.omega(k) == 0)
        xi = extension_cocycle(fam, 3, om, BasicCoefficients(beta={(1, 3): 1}))
        assert is_coboundary(g, xi) is None
    xi = extension_cocycle("u", 3, om, BasicCoefficients(gamma={3: 1}))
    assert is_coboundary(build_u_omega(3, om), xi) is None


def test_trivializing_cochain_values():
    basis = CKBasis(1, "su")
    mu = trivializing_cochain("su", [1], {1: 1})
    assert mu == OneCochain(3, {basis.b(1): Fraction(-1, 2)})
    basis2 = CKBasis(2, "su")
    mu = trivializing_cochain("su", [2, 3], {1: 4, 2: 6})
    assert mu == OneCochain(8, {basis2.b(1): -1, basis2.b(2): -1})
    with pytest.raises(ConstraintViolation):
        trivializing_cochain("su", [0], {1: 1})


def test_trivializing_cochain_removes_the_central_terms():
    om = OmegaVector([2, 3])
    g = build_su_omega(2, om)
    xi = extension_cocycle("su", 2, om, BasicCoefficients(alpha={1: 4, 2: 6}))
    mu = trivializing_cochain("su", om, {1: 4, 2: 6})
    assert delta(g, mu) == xi
    solved = is_coboundary(g, xi)
    assert solved == mu


def test_contract_reports():
    rep = contract("su", OmegaVector([1, 1]), 1)
    assert (rep.dim_before, rep.dim_after) == (0, 1)
    assert rep.alpha_now_nontrivial == 1 and rep.new_beta == ()

    rep = contract("su", OmegaVector([0, 1]), 2)
    assert (rep.dim_before, rep.dim_after) == (1, 3)
    assert rep.new_beta == ((1, 2),)

    rep = contract("u", OmegaVector([1, 0]), 1)
    assert rep.new_gamma == 1 and rep.new_beta == ((1, 2),)
    assert (rep.dim_before, rep.dim_after) == (2, 5)

    rep = contract("su", OmegaVector([0, 1]), 1)
    assert rep.already_zero and rep.dim_before == rep.dim_after == 1

    with pytest.raises(IndexError):
        contract("su", OmegaVector([1]), 2)


def test_contract_monotone_under_any_contraction():
    for fam in ("su", "u"):
        for vals in ([1, 1, 1], [0, 1, -1], [0, 0, 1]):
            om = OmegaVector(vals)
            for k in (1, 2, 3):
                rep = contract(fam, om, k)
                assert rep.dim_after >= rep.dim_before


def test_verify_theorem_small_cases():
    for fam in ("su", "u"):
        for vals in ([1], [0], [1, -1], [0, 1], [0, 0]):
            rep = verify_theorem(fam, len(vals), vals)
            assert rep.ok, (fam, vals)
            assert rep.result.dim_H2 == rep.formula


@pytest.mark.parametrize("family", ["su", "u"])
def test_verify_theorem_labels_its_non_trivial_checks_as_classify_does(family):
    for n in range(1, 5):
        for om in sign_vectors(n):
            checks = verify_theorem(family, n, om).cocycle_checks
            labels = [check.label for check in checks if not check.expect_trivial]
            assert labels == classify(family, n, om).labels(), om


def test_table_rows_su3_paper_content():
    rows = {r.signs: r for r in table_rows("su", 3)}
    assert len(rows) == 27
    assert rows[("-", "0", "-")].labels == ("α_2",)
    assert (rows[("-", "0", "-")].type2_count, rows[("-", "0", "-")].type3_count) == (1, 0)
    assert rows[("0", "+", "0")].labels == ("α_1", "α_3", "β_13")
    assert (rows[("0", "+", "0")].type2_count, rows[("0", "+", "0")].type3_count) == (2, 1)
    flag = rows[("0", "0", "0")]
    assert len(flag.labels) == 6 and (flag.type2_count, flag.type3_count) == (3, 3)
    assert rows[("+", "+", "+")].labels == ()


def test_table_n1_and_n2_dims():
    dims = [r.type2_count + r.type3_count for r in table_rows("su", 1)]
    assert sorted(dims) == [0, 0, 1]
    dims = [r.type2_count + r.type3_count for r in table_rows("su", 2)]
    assert sorted(dims) == [0, 0, 0, 0, 1, 1, 1, 1, 3]


def test_table_u_family_includes_gamma():
    rows = {r.signs: r for r in table_rows("u", 2)}
    assert rows[("0", "+")].labels == ("α_1", "γ_1")
    assert (rows[("0", "0")].type2_count, rows[("0", "0")].type3_count) == (2, 3)


def test_format_table_shape():
    text = format_table(table_rows("su", 1))
    assert text == "(+) | - | 0+0\n(-) | - | 0+0\n(0) | α_1 | 1+0\n"


def test_basic_coefficients_json_round_trip():
    coeffs = BasicCoefficients(
        eta={(0, 2): Fraction(1, 3)},
        alpha={2: -4},
        beta={(1, 3): Fraction(5, 2)},
        gamma={1: 1},
    )
    obj = coeffs.to_json_obj()
    assert obj == {  # absent keys mean zero
        "eta": {"0,2": "1/3"},
        "alpha": {"2": "-4"},
        "beta": {"1,3": "5/2"},
        "gamma": {"1": "1"},
    }

    def key(text):
        return tuple(map(int, text.split(","))) if "," in text else int(text)

    read = {name: {key(k): Fraction(v) for k, v in table.items()} for name, table in obj.items()}
    assert BasicCoefficients(**read) == coeffs
    assert BasicCoefficients().to_json_obj() == {}


def test_basic_coefficients_hold_no_dict_they_were_given():
    given = {"eta": {}, "alpha": {1: Fraction(2, 1), 2: 0}, "beta": None}
    coeffs = BasicCoefficients(**given)
    assert coeffs.eta == {} and coeffs.eta is not given["eta"]
    assert coeffs.alpha == {1: 2} and type(coeffs.alpha[1]) is int
    assert coeffs.beta == {} and coeffs.tau == {} and coeffs.gamma == {}
    given["eta"][(0, 1)] = 1
    assert coeffs.eta == {}


def test_basic_coefficients_take_fields_by_position_keyword_or_none():
    by_position = BasicCoefficients({(0, 1): 1}, None, {2: Fraction(4, 2)}, {(1, 2): -1})
    by_keyword = BasicCoefficients(
        beta={(1, 2): -1}, alpha={2: 2}, tau=None, gamma=None, eta={(0, 1): Fraction(3, 3)}
    )
    assert by_position == by_keyword
    assert (by_position.eta, by_position.tau, by_position.alpha) == ({(0, 1): 1}, {}, {2: 2})
    assert type(by_position.alpha[2]) is int and type(by_keyword.eta[(0, 1)]) is int
    assert BasicCoefficients() == BasicCoefficients(None, None, None, None, None)
    assert BasicCoefficients(alpha={1: 0, 2: Fraction(0, 5)}) == BasicCoefficients()
    assert BasicCoefficients(alpha={1: 1}) != BasicCoefficients(gamma={1: 1})
    with pytest.raises(TypeError):
        BasicCoefficients({}, {}, {}, {}, {}, {})
    with pytest.raises(TypeError):
        BasicCoefficients(delta={1: 1})


def test_basic_coefficients_keep_the_dataclass_api():
    coeffs = BasicCoefficients(alpha={1: Fraction(1, 2), 2: 0}, beta={(1, 2): 3})
    assert repr(coeffs) == (
        "BasicCoefficients(eta={}, tau={}, alpha={1: Fraction(1, 2)}, beta={(1, 2): 3}, gamma={})"
    )
    assert [f.name for f in dataclasses.fields(BasicCoefficients)] == [
        "eta", "tau", "alpha", "beta", "gamma"
    ]
    changed = dataclasses.replace(coeffs, gamma={1: Fraction(6, 3)}, alpha={})
    assert changed == BasicCoefficients(beta={(1, 2): 3}, gamma={1: 2})
    assert type(changed.gamma[1]) is int and coeffs.gamma == {}
    for name in ("eta", "alpha", "gamma"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(coeffs, name, {})
    with pytest.raises(TypeError):
        hash(coeffs)  # frozen with dict fields, as before


def test_basic_coefficients_refuse_a_bool_and_copy_what_they_are_given():
    with pytest.raises(TypeError, match="bool is not a scalar"):
        BasicCoefficients(alpha={1: True})
    with pytest.raises(TypeError, match="bool is not a scalar"):
        BasicCoefficients(beta={(1, 2): False})
    given = {1: Fraction(1, 3)}
    coeffs = BasicCoefficients(alpha=given)
    given[1] = 5
    given[2] = 1
    assert coeffs.alpha == {1: Fraction(1, 3)}


def test_extension_cocycle_matches_central_extension_column():
    om = OmegaVector([0, 1, 0])
    coeffs = BasicCoefficients(alpha={1: 1, 3: 2}, beta={(1, 3): 1})
    xi = extension_cocycle("su", 3, om, coeffs)
    ext = build_extended("su", 3, om, coeffs)
    direct = central_extension(build_su_omega(3, om), xi)
    assert ext == direct
