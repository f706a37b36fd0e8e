from fractions import Fraction

import pytest

from ckcoh.algebra import LieAlgebra, build_su_omega, build_u_omega, jacobi_residual
from ckcoh.generators import CKBasis, delta_selector
from ckcoh.omega import OmegaVector
from ckcoh.structure import SignedPermutation, transport_constants


def test_su2_dimension_and_brackets():
    g = build_su_omega(1, [1])
    assert g.dim == 3
    basis = CKBasis(1, "su")
    J, M, B = basis.j(0, 1), basis.m(0, 1), basis.b(1)
    assert g.bracket(J, M) == ((B, -2),)
    assert g.bracket(J, B) == ((M, 2),)
    assert g.bracket(M, B) == ((J, -2),)


def test_su3_is_a_lie_algebra():
    g = build_su_omega(2, [1, 1])
    assert g.dim == 8
    assert jacobi_residual(g) == 0


def test_u_family_central_generator():
    g = build_u_omega(1, [1])
    assert g.dim == 4
    iid = CKBasis(1, "u").i()
    for other in range(3):
        assert g.bracket(other, iid) == ()
    assert build_u_omega(2, [0, -1]).dim == 9
    assert jacobi_residual(build_u_omega(3, [0, 1, -1])) == 0


def test_u_restriction_matches_su():
    gu = build_u_omega(3, [1, -1, 1])
    gs = build_su_omega(3, [1, -1, 1])
    assert gu.dim == 16 and gs.dim == 15
    # every bracket among non-I generators agrees
    assert {p: e for p, e in gu.constants.items() if p[1] < 15} == gs.constants


def test_ck_metadata_cannot_be_put_on_a_table():
    # a table made directly cannot carry CK metadata, right or wrong
    for dim, omega in ((3, [1]), (5, OmegaVector([1]))):
        with pytest.raises(TypeError):
            LieAlgebra(dim, {}, family="su", omega=omega)
    g = build_su_omega(1, [1])
    plain = LieAlgebra(g.dim, g.constants, names=g.names)
    assert g.is_ck() and g.ck_basis() is g._skeleton.basis
    assert not plain.is_ck() and (plain.family, plain.omega, plain._chars) == (None, None, None)
    with pytest.raises(ValueError, match="not a Cayley-Klein algebra"):
        plain.ck_basis()


def test_generator_names_follow_the_canonical_order():
    su = ("J(0,1)", "J(0,2)", "J(1,2)", "M(0,1)", "M(0,2)", "M(1,2)", "B(1)", "B(2)")
    assert CKBasis(2, "su").names() == su
    assert CKBasis(2, "u").names() == su + ("I",)
    for N in range(1, 7):
        for family in ("su", "u"):
            basis = CKBasis(N, family)
            names = basis.names()
            assert len(names) == basis.dim
            for a, b in basis.index_pairs():
                assert names[basis.j(a, b)] == f"J({a},{b})"
                assert names[basis.m(a, b)] == f"M({a},{b})"
            assert [names[basis.b(l)] for l in range(1, N + 1)] == [f"B({l})" for l in range(1, N + 1)]


def test_omega_length_mismatch():
    with pytest.raises(ValueError):
        build_su_omega(2, [1, 1, 1])
    with pytest.raises(ValueError):
        build_u_omega(3, [1])


def _flag4_expected_brackets():
    """Hand-expanded bracket table of su_{0,0,0}(4), written out term by term.

    Only the chain brackets and the B-column survive at omega = 0:
    [J_ab,J_bc] = -J_ac, [M_ab,M_bc] = J_ac, [J_ab,M_bc] = -M_ac,
    [J_bc,M_ab] = M_ac, [J_ab,B_l] = sel M_ab, [M_ab,B_l] = -sel J_ab,
    with sel read off the four-delta rule per pair:
        (0,1): +2 at l=1, -1 at l=2
        (0,2): +1 at l=1, +1 at l=2, -1 at l=3
        (0,3): +1 at l=1, +1 at l=3
        (1,2): -1 at l=1, +2 at l=2, -1 at l=3
        (1,3): -1 at l=1, +1 at l=2, +1 at l=3
        (2,3): -1 at l=2, +2 at l=3
    """
    names = {}
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    for idx, (a, b) in enumerate(pairs):
        names[f"J{a}{b}"] = idx
        names[f"M{a}{b}"] = 6 + idx
    for l in (1, 2, 3):
        names[f"B{l}"] = 11 + l

    expected = {}

    def put(x, y, z, coeff):
        expected[(names[x], names[y])] = ((names[z], coeff),)

    for a, b, c in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)):
        put(f"J{a}{b}", f"J{b}{c}", f"J{a}{c}", -1)
        put(f"M{a}{b}", f"M{b}{c}", f"J{a}{c}", 1)
        put(f"J{a}{b}", f"M{b}{c}", f"M{a}{c}", -1)
        put(f"J{b}{c}", f"M{a}{b}", f"M{a}{c}", 1)
    selectors = {
        (0, 1): {1: 2, 2: -1},
        (0, 2): {1: 1, 2: 1, 3: -1},
        (0, 3): {1: 1, 3: 1},
        (1, 2): {1: -1, 2: 2, 3: -1},
        (1, 3): {1: -1, 2: 1, 3: 1},
        (2, 3): {2: -1, 3: 2},
    }
    for (a, b), sels in selectors.items():
        for l, sel in sels.items():
            put(f"J{a}{b}", f"B{l}", f"M{a}{b}", sel)
            put(f"M{a}{b}", f"B{l}", f"J{a}{b}", -sel)
    return expected


def test_flag_algebra_n3_against_hand_table():
    g = build_su_omega(3, [0, 0, 0])
    assert g.dim == 15
    assert g.constants == _flag4_expected_brackets()
    basis = CKBasis(3, "su")
    for a, b in basis.index_pairs():
        assert g.bracket(basis.j(a, b), basis.m(a, b)) == ()
    for k in range(1, 4):
        for l in range(k + 1, 4):
            assert g.bracket(basis.b(k), basis.b(l)) == ()


def test_delta_selector_matches_four_delta_formula():
    def four_delta(a, b, l):
        return (
            (a == l - 1) - (b == l - 1) + (b == l) - (a == l)
        )

    for n in range(1, 7):
        for a in range(n):
            for b in range(a + 1, n + 1):
                for l in range(1, n + 1):
                    assert delta_selector(a, b, l) == four_delta(a, b, l)


def test_jacobi_detects_corrupted_constant():
    g = build_su_omega(2, [1, 1])
    basis = CKBasis(2, "su")
    pair = (basis.j(0, 1), basis.j(0, 2))
    table = {p: list(e) for p, e in g.constants.items()}
    table[pair] = [(k, -c) for k, c in table[pair]]  # flip [J01,J02]
    corrupted = LieAlgebra(g.dim, table)
    assert jacobi_residual(corrupted) != 0


def test_rational_omega_builds():
    om = OmegaVector([Fraction(2, 3), Fraction(-5, 7)])
    g = build_su_omega(2, om)
    assert jacobi_residual(g) == 0
    basis = CKBasis(2, "su")
    assert g.bracket(basis.j(0, 1), basis.j(0, 2)) == (
        (basis.j(1, 2), Fraction(2, 3)),
    )


def _table(entries):
    """The constants of written `i j k value` entries, as `LieAlgebra` holds them."""
    table = {}
    for i, j, k, value in entries:
        table.setdefault((int(i), int(j)), []).append((int(k), Fraction(value)))
    return table


def _text_table(text):
    return _table(line.split() for line in text.splitlines()[1:])


def test_text_round_trip():
    g = build_u_omega(2, OmegaVector([Fraction(1, 2), -3]))
    text = g.to_text()
    assert text.splitlines()[0] == "9 2 u 1/2 -3"
    assert LieAlgebra(g.dim, _text_table(text)) == g


def test_text_round_trip_plain_algebra():
    h = LieAlgebra(3, {(0, 1): [(2, Fraction(1, 3))]})
    assert h.to_text() == "3 - -\n0 1 2 1/3\n"
    assert LieAlgebra(3, _text_table(h.to_text())) == h


def test_json_round_trip():
    import json

    g = build_su_omega(3, [0, 1, -1])
    obj = json.loads(json.dumps(g.to_json_obj()))
    assert {k: obj[k] for k in ("dim", "family", "n", "omega")} == {
        "dim": 15,
        "family": "su",
        "n": 3,
        "omega": ["0", "1", "-1"],
    }
    assert LieAlgebra(obj["dim"], _table(obj["constants"])) == g
    # text and json carry identical constants
    assert _table(obj["constants"]) == _text_table(g.to_text())


def test_permuted_relabelling_keeps_jacobi():
    g = build_su_omega(2, [0, 1])
    perm = [3, 0, 5, 1, 7, 2, 6, 4]
    p = transport_constants(g, SignedPermutation(perm, [1] * g.dim))
    assert jacobi_residual(p) == 0
    assert p != g  # genuinely relabelled


def test_repeated_targets_within_a_pair_are_summed():
    twice = LieAlgebra(3, {(0, 1): [(2, 1), (1, Fraction(1, 2)), (2, 1)]})
    once = LieAlgebra(3, {(0, 1): [(1, Fraction(1, 2)), (2, 2)]})
    assert twice == once
    assert twice.constants == {(0, 1): ((1, Fraction(1, 2)), (2, 2))}
    assert twice.to_text() == once.to_text() == "3 - -\n0 1 1 1/2\n0 1 2 2\n"
    assert twice._into == once._into == {1: [(0, 1, Fraction(1, 2))], 2: [(0, 1, 2)]}
    # halves that add up to an integer are held as an int, like any constant
    assert LieAlgebra(3, {(0, 1): [(2, Fraction(1, 2)), (2, Fraction(1, 2))]}).constants == {
        (0, 1): ((2, 1),)
    }
    cancelled = LieAlgebra(3, {(0, 1): [(2, 1), (2, -1)]})
    assert cancelled.constants == {} and cancelled._into == {}
    assert cancelled == LieAlgebra(3, {})
