import random
from fractions import Fraction
from itertools import combinations

import pytest

from ckcoh.algebra import (
    LieAlgebra,
    build_su_omega,
    build_u_omega,
    jacobi_residual,
    touching_triples,
)
from ckcoh.generators import CKBasis, delta_selector
from ckcoh.omega import OmegaVector, sign_vectors

from random_algebras import random_algebra


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


def test_text_round_trip():
    g = build_u_omega(2, OmegaVector([Fraction(1, 2), -3]))
    back = LieAlgebra.from_text(g.to_text())
    assert back == g
    assert back.family == "u" and back.omega == g.omega
    assert LieAlgebra.from_text(back.to_text()).to_text() == g.to_text()


def test_text_round_trip_plain_algebra():
    h = LieAlgebra(3, {(0, 1): [(2, Fraction(1, 3))]})
    back = LieAlgebra.from_text(h.to_text())
    assert back == h and back.family is None


def test_json_round_trip():
    import json

    g = build_su_omega(3, [0, 1, -1])
    back = LieAlgebra.from_json_obj(json.loads(g.to_json()))
    assert back == g and back.omega == g.omega
    # text and json carry identical constants
    assert LieAlgebra.from_text(g.to_text()) == back


def test_permuted_relabelling_keeps_jacobi():
    g = build_su_omega(2, [0, 1])
    perm = [3, 0, 5, 1, 7, 2, 6, 4]
    p = g.permuted(perm)
    assert jacobi_residual(p) == 0
    assert p != g  # genuinely relabelled


def _brute_touching(g):
    return {
        t
        for t in combinations(range(g.dim), 3)
        if any(g.bracket(p, q) for p, q in combinations(t, 2))
    }


def test_touching_triples_match_brute_force_filter():
    algebras = [
        build(n, om)
        for build in (build_su_omega, build_u_omega)
        for n in range(1, 4)
        for om in sign_vectors(n)
    ]
    rng = random.Random(7)
    algebras += [random_algebra(rng, max_dim=8) for _ in range(20)]
    for g in algebras:
        walked = list(touching_triples(g))
        assert len(walked) == len(set(walked))
        assert set(walked) == _brute_touching(g)
