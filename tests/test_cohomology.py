import random
from fractions import Fraction
from itertools import product

import pytest

import ckcoh.algebra
import ckcoh.cohomology
import ckcoh.sparse
from ckcoh.algebra import LieAlgebra, build_su_omega, build_u_omega, jacobi_residual
from ckcoh.cochains import OneCochain, TwoCochain, pair_count, pair_list
from ckcoh.cohomology import (
    NotACocycleError,
    are_coboundaries,
    central_extension,
    coboundary_matrix,
    cocycle_defect,
    cocycle_system,
    delta,
    h2,
    is_coboundary,
)
from ckcoh.extensions import verify_theorem
from ckcoh.generators import CKBasis
from ckcoh.omega import OmegaVector
from ckcoh.sparse import SparseMatrix, nullspace, rank
from ckcoh.structure import SignedPermutation, transport_constants

from dense_oracle import coboundary_rows_dense, h2_dimensions_dense, row_echelon_rank
from pair_vectors import from_vector, matvec, pair_index, to_vector
from random_algebras import graded_change_of_basis, random_algebra


def _dims(g):
    res = h2(g, representatives=False)
    return res.dim_Z2, res.dim_B2, res.dim_H2


def test_pair_indexing():
    assert pair_count(4) == 6
    pairs = pair_list(4)
    for col, (i, j) in enumerate(pairs):
        assert pair_index(4, i, j) == col
    with pytest.raises(IndexError):
        pair_index(4, 2, 2)


def test_abelian_algebra_everything_is_a_cocycle():
    g = LieAlgebra(4, {})
    system = cocycle_system(g)
    assert system.rows == 0  # zero rows are skipped during assembly
    assert rank(coboundary_matrix(g)) == 0
    assert _dims(g) == (6, 0, 6)


def test_su2_dimensions():
    # the single triple of su(2) yields a vacuous equation: Z2 = B2 = 3
    g = build_su_omega(1, [1])
    system = cocycle_system(g)
    assert system.rows == 0
    assert rank(coboundary_matrix(g)) == 3
    assert _dims(g) == (3, 3, 0)
    assert h2_dimensions_dense(g) == (3, 3, 0)


def test_heisenberg_dimensions():
    # frozen from the dense oracle: the one Jacobi triple is vacuous
    g = LieAlgebra(3, {(0, 1): [(2, 1)]})
    assert h2_dimensions_dense(g) == (3, 1, 2)
    assert _dims(g) == (3, 1, 2)


def test_paper_su3_values():
    assert _dims(build_su_omega(2, [1, 1])) == (8, 8, 0)
    assert _dims(build_su_omega(2, [0, 1]))[2] == 1
    assert _dims(build_su_omega(2, [0, 0]))[2] == 3


def test_image_of_coboundary_inside_kernel_of_cocycle_system():
    # d^2 = 0: the cocycle system annihilates every coboundary column
    for build, om in ((build_su_omega, [0, 1]), (build_u_omega, [0, 0]), (build_su_omega, [1, 1])):
        g = build(2, om)
        system = cocycle_system(g)
        cob = coboundary_matrix(g)
        for k in range(g.dim):
            column = {r: row[k] for r, row in enumerate(cob.data) if row.get(k)}
            assert matvec(system, column) == {}


def test_dim_h2_invariant_under_permutation():
    rng = random.Random(42)
    g = build_su_omega(2, [0, 1])
    base = _dims(g)
    for _ in range(5):
        perm = list(range(g.dim))
        rng.shuffle(perm)
        relabelled = transport_constants(g, SignedPermutation(perm, [1] * g.dim))
        assert _dims(relabelled) == base


def test_h2_representatives_are_noncoboundary_cocycles():
    g = build_u_omega(2, [0, 0])
    res = h2(g)
    assert (res.dim_Z2, res.dim_B2, res.dim_H2) == (11, 6, 5)
    assert len(res.representatives) == res.dim_H2
    for rep in res.representatives:
        assert cocycle_defect(g, rep) == 0
        assert is_coboundary(g, rep) is None
    # no nonzero combination of representatives is a coboundary:
    # their span meets the image only at 0 because the extension test above
    # added each one to the image echelon independently; check a random combo
    combo = TwoCochain(g.dim, {})
    for i, rep in enumerate(res.representatives, start=1):
        combo = combo - rep.scaled(i)
    assert is_coboundary(g, combo) is None


def test_is_coboundary_zero_maps_to_zero():
    g = build_su_omega(1, [1])
    mu = is_coboundary(g, TwoCochain(3, {}))
    assert mu == OneCochain(3, {})


def test_is_coboundary_alpha_cocycle_paper_example():
    basis = CKBasis(1, "su")
    xi = TwoCochain(3, {(basis.j(0, 1), basis.m(0, 1)): 1})
    mu = is_coboundary(build_su_omega(1, [1]), xi)
    assert mu == OneCochain(3, {basis.b(1): Fraction(-1, 2)})
    assert is_coboundary(build_su_omega(1, [0]), xi) is None


def test_is_coboundary_recovers_preimages_of_columns():
    g = build_u_omega(2, [0, 1])
    cob = coboundary_matrix(g)
    pairs = pair_list(g.dim)
    for k in range(g.dim):
        entries = {pairs[r]: row[k] for r, row in enumerate(cob.data) if row.get(k)}
        xi = TwoCochain(g.dim, entries)
        mu = is_coboundary(g, xi)
        assert mu is not None
        assert delta(g, mu) == xi


def test_is_coboundary_rejects_non_cocycle():
    g = build_su_omega(2, [1, 1])
    bad = TwoCochain(8, {(0, 1): 1})  # xi(J01, J02) alone breaks the relations
    assert cocycle_defect(g, bad) != 0
    with pytest.raises(NotACocycleError):
        is_coboundary(g, bad)


def test_central_extension_trivial_cocycle():
    g = build_su_omega(2, [1, 1])
    ext = central_extension(g, TwoCochain(8, {}))
    assert ext.dim == 9
    assert jacobi_residual(ext) == 0
    for i in range(9):
        assert ext.bracket(i, 8) == ()


def test_central_extension_of_genuine_cocycle():
    basis = CKBasis(1, "su")
    xi = TwoCochain(3, {(basis.j(0, 1), basis.m(0, 1)): 1})
    ext = central_extension(build_su_omega(1, [0]), xi)
    assert ext.dim == 4
    assert jacobi_residual(ext) == 0
    assert ext.bracket(basis.j(0, 1), basis.m(0, 1)) == ((3, 1),)


def test_central_extension_noncocycle_breaks_jacobi():
    # on su(2) every cochain is a cocycle (xi(J,B) = delta(mu) for mu(M)=1/2),
    # so the genuine negative case lives on su(3): xi(J01,J02) = 1 alone
    g2 = build_su_omega(1, [1])
    basis = CKBasis(1, "su")
    xi = TwoCochain(3, {(basis.j(0, 1), basis.b(1)): 1})
    assert jacobi_residual(central_extension(g2, xi)) == 0
    mu = is_coboundary(g2, xi)
    assert mu == OneCochain(3, {basis.m(0, 1): Fraction(1, 2)})

    g3 = build_su_omega(2, [1, 1])
    bad = TwoCochain(8, {(0, 1): 1})
    assert jacobi_residual(central_extension(g3, bad)) != 0


def test_extension_jacobi_iff_cocycle_randomized():
    rng = random.Random(2024)
    g = build_su_omega(2, [0, 1])
    system = cocycle_system(g)
    for _ in range(20):
        entries = {}
        for (i, j) in pair_list(8):
            if rng.random() < 0.2:
                entries[(i, j)] = rng.randint(-3, 3)
        xi = TwoCochain(8, entries)
        residual_zero = jacobi_residual(central_extension(g, xi)) == 0
        assert residual_zero == (matvec(system, to_vector(xi)) == {})
        assert residual_zero == (cocycle_defect(g, xi) == 0)


def test_nullspace_of_cocycle_system_verified_by_multiplication():
    for build, om in ((build_su_omega, [0, 0]), (build_u_omega, [0, 1])):
        g = build(2, om)
        system = cocycle_system(g)
        for vec in nullspace(system):
            assert matvec(system, vec) == {}


def test_engine_matches_oracle_on_random_algebras():
    rng = random.Random(99)
    for _ in range(10):
        g = random_algebra(rng, max_dim=8)
        assert jacobi_residual(g) == 0
        assert _dims(g) == h2_dimensions_dense(g)


def test_nonzero_characters_carry_no_cohomology():
    # Z2_chi = B2_chi: for every block chi != 0 the cocycle nullity equals the
    # rank of the coboundaries delta(e_k) with chi_k = chi
    omegas = [",".join(s) for n in range(1, 5) for s in product("+-0", repeat=n)]
    omegas += ["2/3,-1", "0,-1/2,0", "0,3/4,0,-2", "1/2,-3,2/5,7"]
    blocks_checked = 0
    for text in omegas:
        omega = OmegaVector.parse(text)
        for build in (build_su_omega, build_u_omega):
            g = build(omega.n, omega)
            r = g.dim
            chars = g._chars
            blocks = {}
            for i, j in pair_list(r):
                blocks.setdefault(chars[i] ^ chars[j], []).append((i, j))
            into = g._into
            for chi, pairs in blocks.items():
                if not chi:
                    continue
                nullity = len(pairs) - rank(cocycle_system(g, pairs))
                rows = [
                    {pair_index(r, p, q): c for p, q, c in into[k]}
                    for k in sorted(into)
                    if chars[k] == chi
                ]
                image = SparseMatrix(len(rows), pair_count(r))
                image.data[:] = rows
                assert nullity == rank(image), (text, g.family, chi)
                blocks_checked += 1
    assert blocks_checked == 2948


def _b2_algebras():
    """CK with N <= 3, rational omegas, random algebras, relabellings, graded bases."""
    rng = random.Random(17)
    omegas = [",".join(s) for n in range(1, 4) for s in product("+-0", repeat=n)]
    omegas += ["2/3,-1", "0,-1/2,0", "-2/3,1,5/2", "0,3/4,0,-2", "1/2,-3,2/5,7"]
    ck = [
        build(omega.n, omega)
        for omega in map(OmegaVector.parse, omegas)
        for build in (build_su_omega, build_u_omega)
    ]
    yield from ck
    for seed in range(12):
        yield random_algebra(random.Random(seed), max_dim=9)
    for g in rng.sample(ck, 12):
        perm = list(range(g.dim))
        rng.shuffle(perm)
        yield transport_constants(g, SignedPermutation(perm, [rng.choice((1, -1)) for _ in perm]))
    for g in rng.sample([g for g in ck if g.dim <= 16], 12):
        yield graded_change_of_basis(g, rng)


def test_dim_b2_is_the_rank_of_the_coboundary_matrix():
    # dim B2 = dim [g, g]: h2 counts the brackets of nonzero character by
    # rank alone, and eliminates only the character-0 coboundaries
    wide = 0
    for g in _b2_algebras():
        b2 = rank(coboundary_matrix(g))
        assert h2(g).dim_B2 == h2(g, representatives=False).dim_B2 == b2, g
        assert b2 == row_echelon_rank(coboundary_rows_dense(g)), g
        chars = g._chars
        wide += any(chars[v[0][0]] and len(v) > 1 for v in g.constants.values())
    assert wide >= 10  # brackets of nonzero character with several targets


# Echelon.reduce calls of one h2 that absorbed the coboundaries of every
# character into C(r, 2) columns and reduced every row of the block-0 system
FULL_IMAGE_EVERY_ROW_CALLS = {
    ("su", "+,+,+,+,+,+"): 314,
    ("u", "0,0,0,0,0,0"): 209,
    ("su", "0,1/2,0,0,-3,0"): 206,
}


def test_h2_makes_at_most_half_the_reduce_calls(monkeypatch):
    calls = []
    reduce = ckcoh.sparse.Echelon.reduce

    def counted(self, row):
        calls.append(1)
        return reduce(self, row)

    monkeypatch.setattr(ckcoh.sparse.Echelon, "reduce", counted)
    for (family, text), before in FULL_IMAGE_EVERY_ROW_CALLS.items():
        omega = OmegaVector.parse(text)
        build = build_su_omega if family == "su" else build_u_omega
        g = build(omega.n, omega)
        calls.clear()
        h2(g)
        assert 0 < len(calls) <= before // 2, (family, text, len(calls))


def test_ck_metadata_on_another_table_is_solved_as_one_block():
    # a CK header over an empty (abelian) table: the sign characters must not
    # be trusted, or only the 9 character-0 pairs would be counted
    g = LieAlgebra.from_text("15 3 su 1 1 1\n")
    assert g.is_ck() and not g.constants
    assert g._chars == [0] * 15
    assert _dims(g) == (105, 0, 105)
    assert len(h2(g).representatives) == 105


def test_ck_header_over_a_non_lie_table_is_checked():
    # the header names su_w(2) with w = 1 over the non-Lie table below: it gets
    # no sign characters, so h2 runs the Jacobi check and refuses it
    g = LieAlgebra.from_text("3 1 su 1\n0 1 2 1\n0 2 0 1\n")
    assert g.is_ck() and g._chars == [0] * 3
    with pytest.raises(ValueError):
        h2(g)


def test_the_ck_table_is_built_once_per_verify_theorem(monkeypatch):
    from ckcoh.extensions import verify_theorem

    calls = []
    build_table = ckcoh.algebra._ck_structure

    def counted(basis, omega):
        calls.append((basis.family, basis.N))
        return build_table(basis, omega)

    monkeypatch.setattr(ckcoh.algebra, "_ck_structure", counted)
    assert verify_theorem("u", 3, OmegaVector.parse("0,+,0")).ok
    assert calls == [("u", 3)]
    g = build_su_omega(3, [1, 0, -1])
    calls.clear()
    h2(g)
    assert calls == []
    # a header over a table shorter than any CK one is read without a rebuild
    plain = LieAlgebra.from_text("1681 40 u " + "1 " * 40 + "\n0 1 2 1\n")
    assert calls == [] and plain._chars == [0] * 1681
    assert LieAlgebra.from_text(g.to_text())._chars == g._chars
    assert calls == [("su", 3)]


def test_h2_rejects_non_lie_input():
    # [[X0,X1],X2] + [[X1,X2],X0] + [[X2,X0],X1] = 0 + 0 - X2 != 0
    broken = LieAlgebra(3, {(0, 1): [(2, 1)], (0, 2): [(0, 1)]})
    assert jacobi_residual(broken) != 0
    with pytest.raises(ValueError):
        h2(broken)


def test_cochain_pairs_are_range_checked_before_zeros_are_dropped():
    with pytest.raises(IndexError):
        TwoCochain(3, {(5, 7): 0})
    with pytest.raises(IndexError):
        OneCochain(3, {9: 0})
    with pytest.raises(ValueError):
        TwoCochain.from_text("dim 3\n5 7 0\n")
    with pytest.raises(ValueError):
        TwoCochain(3, {(1, 1): 2})
    assert TwoCochain(3, {(1, 1): 0, (2, 0): 0, (2, 1): 3}).entries == {(1, 2): -3}


def test_cochain_round_trips():
    import json

    xi = TwoCochain(5, {(0, 3): Fraction(2, 7), (1, 2): -4})
    assert xi.get(3, 0) == Fraction(-2, 7)
    assert TwoCochain.from_text(xi.to_text()) == xi
    assert TwoCochain.from_json_obj(json.loads(xi.to_json())) == xi
    assert from_vector(5, to_vector(xi)) == xi


def test_are_coboundaries_solves_only_the_touched_blocks(monkeypatch):
    # rows passed to the solver; the whole coboundary matrix has C(r, 2) rows
    seen = []
    solve = ckcoh.cohomology.solve_many

    def spy(matrix, rhs_list):
        seen.append(matrix.rows)
        return solve(matrix, rhs_list)

    monkeypatch.setattr(ckcoh.cohomology, "solve_many", spy)
    # the canonical cocycles lie in block 0: at N = 6 its pairs are the 21
    # (J_ab, M_ab) and the C(6, 2) pairs of B_1..B_6, or in u the C(7, 2) of B_1..B_6, I
    assert verify_theorem("su", 6, OmegaVector.parse("+,+,+,+,+,+")).ok
    assert len(seen) == 1 and 0 < seen[0] <= 36
    seen.clear()
    assert verify_theorem("u", 6, OmegaVector.parse("0,+,0,+,0,+")).ok
    assert len(seen) == 1 and 0 < seen[0] <= 42
    seen.clear()
    # delta(mu) with mu on J_01 alone lies in the block of character 0b11
    g = build_su_omega(3, [1, 0, -1])
    j01 = g.ck_basis().j(0, 1)
    mu = OneCochain(g.dim, {j01: 3})
    assert is_coboundary(g, delta(g, mu)) == mu
    chars = g._chars
    assert chars[j01] == 0b11
    assert 0 < seen[0] <= sum(chars[i] ^ chars[j] == 0b11 for i, j in pair_list(g.dim))


def test_coboundary_matrix_rows_follow_the_pairs_given():
    rng = random.Random(4)
    for g in (build_su_omega(2, [0, 1]), build_u_omega(3, [1, 0, -1]), random_algebra(rng, 7)):
        full = coboundary_matrix(g)
        assert (full.rows, full.cols) == (pair_count(g.dim), g.dim)
        pairs = rng.sample(pair_list(g.dim), 10)
        part = coboundary_matrix(g, pairs)
        assert (part.rows, part.cols) == (len(pairs), g.dim)
        want = [full.data[pair_index(g.dim, i, j)] for i, j in pairs]
        assert [list(row.items()) for row in part.data] == [list(row.items()) for row in want]
        assert coboundary_matrix(g, []).rows == 0


def test_are_coboundaries_checks_the_dimension_on_both_paths():
    g = build_su_omega(2, [1, 1])
    for xi in (TwoCochain(4, {(1, 2): 1}), TwoCochain(12, {(0, 11): 1})):
        for assume in (True, False):
            with pytest.raises(ValueError, match="cochain dimension does not match"):
                are_coboundaries(g, [xi], assume_cocycle=assume)
            with pytest.raises(ValueError, match="cochain dimension does not match"):
                is_coboundary(g, xi, assume_cocycle=assume)
