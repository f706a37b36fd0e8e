from fractions import Fraction

import pytest

import ckcoh.realization
from ckcoh.algebra import build_su_omega, build_u_omega
from ckcoh.omega import OmegaVector, sign_vectors
from ckcoh.realization import (
    ComplexMatrix,
    fundamental_matrices,
    isometry_defect,
    metric_matrix,
    representation_defects,
)
from dense_oracle import (
    complex_grids,
    complex_product,
    is_isometry_dense,
    representation_defects_dense,
)


def test_rho_j01_omega_one():
    mats = fundamental_matrices(1, [1], "su")
    assert mats[0] == ComplexMatrix(2, {(0, 1): (-1, 0), (1, 0): (1, 0)})


def test_rho_j01_omega_zero():
    mats = fundamental_matrices(1, [0], "su")
    assert mats[0] == ComplexMatrix(2, {(1, 0): (1, 0)})


def test_su_generators_traceless():
    for om in ([1, 1], [0, -1]):
        for mat in fundamental_matrices(2, om, "su"):
            assert mat.trace() == (0, 0)
    # the u-family I has trace (N+1)i
    mats = fundamental_matrices(2, [1, 1], "u")
    assert mats[-1].trace() == (0, 3)


def test_metric_matrix_diagonal():
    met = metric_matrix(2, OmegaVector([Fraction(1, 2), -3]))
    assert met.re[0][0] == 1
    assert met.re[1][1] == Fraction(1, 2)
    assert met.re[2][2] == Fraction(-3, 2)
    assert all(met.im[r][c] == 0 for r in range(3) for c in range(3))


def test_commutators_reproduce_constants_small():
    for family, build in (("su", build_su_omega), ("u", build_u_omega)):
        for om in ([1, -1], [0, 1], [0, 0]):
            g = build(2, om)
            mats = fundamental_matrices(2, om, family)
            assert representation_defects(g, mats) == []


def test_isometry_condition_small():
    for family in ("su", "u"):
        for n in (1, 2):
            for om in sign_vectors(n):
                met = metric_matrix(n, om)
                for mat in fundamental_matrices(n, om, family):
                    assert isometry_defect(mat, met).is_zero()


def test_rational_omega_representation():
    om = OmegaVector([Fraction(2, 3), Fraction(-1, 5)])
    g = build_su_omega(2, om)
    mats = fundamental_matrices(2, om, "su")
    assert representation_defects(g, mats) == []
    met = metric_matrix(2, om)
    assert all(isometry_defect(m, met).is_zero() for m in mats)


def test_complex_matrix_algebra():
    a = ComplexMatrix(2, {(0, 1): (1, 0), (1, 0): (0, 1)})
    b = ComplexMatrix(2, {(0, 0): (1, 0), (1, 1): (-1, 0)})
    dag = a.conjugate_transpose()
    assert dag.re == [[0, 0], [1, 0]] and dag.im == [[0, -1], [0, 0]]
    assert complex_grids(a @ b) == complex_product(complex_grids(a), complex_grids(b))
    # zero entries are not stored, so a product whose terms cancel is the zero matrix
    assert ComplexMatrix(2, {(0, 0): (0, Fraction(0))}).entries == {}
    row = ComplexMatrix(2, {(0, 0): (1, 0), (0, 1): (1, 0)})
    col = ComplexMatrix(2, {(0, 0): (1, 0), (1, 0): (-1, 0)})
    assert (row @ col).is_zero() and row @ col == ComplexMatrix(2)
    with pytest.raises(IndexError):
        ComplexMatrix(2, {(0, 2): (1, 0)})


RATIONAL_OMEGA = OmegaVector([Fraction(2, 3), Fraction(-1, 5)])


def _assert_paths_agree(g, mats, met):
    defects = representation_defects(g, mats)
    assert defects == representation_defects_dense(g, mats)
    isometric = [isometry_defect(m, met).is_zero() for m in mats]
    assert isometric == [is_isometry_dense(m, met) for m in mats]
    return defects, isometric


def test_sparse_check_agrees_with_dense_oracle():
    cases = [("su", build_su_omega(2, RATIONAL_OMEGA), 2, RATIONAL_OMEGA)]
    for family, build in (("su", build_su_omega), ("u", build_u_omega)):
        for n in (1, 2, 3):
            cases += [(family, build(n, om), n, om) for om in sign_vectors(n)]
    for family, g, n, om in cases:
        defects, isometric = _assert_paths_agree(
            g, fundamental_matrices(n, om, family), metric_matrix(n, om)
        )
        assert defects == [] and all(isometric)


@pytest.mark.parametrize(
    "family, build, n, omega",
    [
        ("su", build_su_omega, 2, RATIONAL_OMEGA),
        ("u", build_u_omega, 3, OmegaVector([1, 0, -1])),
    ],
    ids=["su-2-rational", "u-3-p0m"],
)
@pytest.mark.parametrize("fault", ["negated", "omega-scaled", "b-entry-moved"])
def test_a_faulty_realization_is_reported_by_both_paths(family, build, n, omega, fault):
    g = build(n, omega)
    met = metric_matrix(n, omega)
    mats = fundamental_matrices(n, omega, family)
    if fault == "negated":
        mats[0] = ComplexMatrix(n + 1, {k: (-re, -im) for k, (re, im) in mats[0].entries.items()})
    elif fault == "omega-scaled":
        scaled = OmegaVector([3 * omega.values[0], *omega.values[1:]])
        mats = fundamental_matrices(n, scaled, family)
    else:
        # B_1 = i (e_00 - e_11) with its e_11 entry moved to (1, 2)
        b1 = len(mats) - n - (family == "u")
        assert mats[b1].entries == {(0, 0): (0, 1), (1, 1): (0, -1)}
        mats[b1] = ComplexMatrix(n + 1, {(0, 0): (0, 1), (1, 2): (0, -1)})
    defects, _ = _assert_paths_agree(g, mats, met)
    assert defects


def test_representation_check_cost_follows_the_entries(monkeypatch):
    # 80 generators of su 8, each with at most 2 nonzero entries: the check should
    # touch entries, not normalize every cell of dense intermediate matrices
    om = OmegaVector.parse("+,0,-,+,0,-,+,0")
    g = build_su_omega(8, om)
    mats = fundamental_matrices(8, om, "su")
    calls = 0
    real_ratio = ckcoh.realization.ratio

    def counting_ratio(value):
        nonlocal calls
        calls += 1
        return real_ratio(value)

    monkeypatch.setattr(ckcoh.realization, "ratio", counting_ratio)
    assert representation_defects(g, mats) == []
    assert calls <= 20_000


@pytest.mark.parametrize(
    "family, build, omega",
    [
        ("su", build_su_omega, RATIONAL_OMEGA),
        ("u", build_u_omega, OmegaVector([1, 0, -1])),
        ("su", build_su_omega, OmegaVector([0, 1, 0, -1])),
    ],
    ids=["su-2-rational", "u-3-p0m", "su-4-0p0m"],
)
def test_a_defect_on_a_pair_with_empty_products_is_reported(family, build, omega):
    # rho(X_0) zeroed: both products with X_0 are empty, but its brackets are not
    n = omega.n
    g = build(n, omega)
    mats = fundamental_matrices(n, omega, family)
    mats[0] = ComplexMatrix(n + 1)
    defects, _ = _assert_paths_agree(g, mats, metric_matrix(n, omega))
    empty_but_bracketed = [
        (i, j)
        for i, j in defects
        if (mats[i] @ mats[j]).is_zero() and (mats[j] @ mats[i]).is_zero() and g.bracket(i, j)
    ]
    assert empty_but_bracketed
    # X_0 is also a bracket target, which the pairs with nonempty products report
    assert any(0 not in pair for pair in defects)
