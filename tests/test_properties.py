"""Exhaustive invariant sweeps over the omega sign grids."""

from ckcoh.algebra import build_su_omega, build_u_omega, jacobi_residual
from ckcoh.cohomology import cocycle_system, h2, is_coboundary
from ckcoh.extensions import appendix_violations, dim_h2_formula
from ckcoh.omega import OmegaVector, sign_vectors
from ckcoh.sparse import nullspace

from pair_vectors import from_vector, matvec


def test_jacobi_identity_exhaustive_n_le_4():
    for family, build in (("su", build_su_omega), ("u", build_u_omega)):
        for n in range(1, 5):
            for om in sign_vectors(n):
                assert jacobi_residual(build(n, om)) == 0, (family, tuple(om))


def test_jacobi_identity_sampled_n5():
    samples = [
        (1, 1, 1, 1, 1),
        (-1, -1, -1, -1, -1),
        (0, 0, 0, 0, 0),
        (1, -1, 1, -1, 1),
        (0, 1, 0, -1, 0),
        (1, 0, 0, 1, -1),
        (0, 0, 1, 1, 1),
        (-1, 0, 1, 0, -1),
        (1, 1, 1, 1, 0),
        (0, 1, 1, 1, 1),
    ]
    for build in (build_su_omega, build_u_omega):
        for vals in samples:
            assert jacobi_residual(build(5, OmegaVector(vals))) == 0


def test_formula_agreement_n_le_3():
    for family, build in (("su", build_su_omega), ("u", build_u_omega)):
        for n in range(1, 4):
            for om in sign_vectors(n):
                res = h2(build(n, om))
                assert res.dim_H2 == dim_h2_formula(family, om), (family, tuple(om))
                assert res.dim_H2 == res.dim_Z2 - res.dim_B2 >= 0
                assert len(res.representatives) == res.dim_H2


def test_every_kernel_vector_satisfies_appendix_relations_n_le_3():
    for family, build in (("su", build_su_omega), ("u", build_u_omega)):
        for n in range(1, 4):
            for om in sign_vectors(n):
                g = build(n, om)
                system = cocycle_system(g)
                for vec in nullspace(system):
                    assert matvec(system, vec) == {}
                    xi = from_vector(g.dim, vec)
                    assert appendix_violations(g, xi) == [], (family, tuple(om))


def test_representatives_never_coboundaries_n_le_3():
    for family, build in (("su", build_su_omega), ("u", build_u_omega)):
        for n in range(1, 4):
            for om in sign_vectors(n):
                g = build(n, om)
                for rep in h2(g).representatives:
                    assert is_coboundary(g, rep, assume_cocycle=True) is None
