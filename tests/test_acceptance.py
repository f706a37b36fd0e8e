"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Everything asserts exact equality (integer dimensions,
exact rational brackets); there are no tolerances anywhere.
"""

import os
import time
from fractions import Fraction
from itertools import product

import pytest

from ckcoh.algebra import build_su_omega, build_u_omega
from ckcoh.cli import run_sweep
from ckcoh.cohomology import are_coboundaries, cocycle_system, delta, h2
from ckcoh.extensions import (
    BasicCoefficients,
    appendix_violations,
    build_extended,
    extension_cocycle,
    format_table,
    table_rows,
    trivializing_cochain,
)
from ckcoh.generators import CKBasis
from ckcoh.omega import sign_vectors
from ckcoh.realization import (
    fundamental_matrices,
    isometry_defect,
    metric_matrix,
    representation_defects,
)
from ckcoh.sparse import nullspace
from ckcoh.structure import polarity_map, transport_constants

import dense_oracle as oracle
from pair_vectors import from_vector, matvec
from random_algebras import random_algebra

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "table41_su_N3.golden")


def _report(name: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def sweep():
    """Solver results for every (family, N <= 6, sign vector): 2184 cases."""
    cases = [
        (family, n, signs)
        for family in ("su", "u")
        for n in range(1, 7)
        for signs in product("+-0", repeat=n)
    ]
    start = time.time()
    results = run_sweep(cases)
    elapsed = time.time() - start
    table = {(r["family"], r["n"], r["omega"]): r for r in results}
    table["_elapsed"] = elapsed
    return table


def _dims(g) -> tuple:
    res = h2(g, representatives=False)
    return res.dim_Z2, res.dim_B2, res.dim_H2


def _zeros(omega_csv: str) -> tuple:
    return tuple(
        k for k, tok in enumerate(omega_csv.split(","), start=1) if tok == "0"
    )


def test_criterion_01_proposition41_su(sweep):
    bad = []
    for n in range(1, 7):
        for signs in product("+-0", repeat=n):
            rec = sweep[("su", n, ",".join(signs))]
            z = len(_zeros(rec["omega"]))
            if rec["dim_h2"] != z * (z + 1) // 2 or not rec["ok"]:
                bad.append(rec)
    _report(
        "1 Proposition 4.1 (su, 1092 cases N<=6)",
        not bad,
        f"sweep of both families took {sweep['_elapsed']:.0f}s",
    )


def test_criterion_02_proposition41_u(sweep):
    bad = []
    for n in range(1, 7):
        for signs in product("+-0", repeat=n):
            rec = sweep[("u", n, ",".join(signs))]
            z = len(_zeros(rec["omega"]))
            if rec["dim_h2"] != z * (z + 3) // 2 or not rec["ok"]:
                bad.append(rec)
    _report("2 Proposition 4.1 (u, 1092 cases N<=6)", not bad)


def test_criterion_03_table41_golden():
    with open(GOLDEN, encoding="utf-8") as handle:
        golden = handle.read()
    generated = format_table(table_rows("su", 3))
    _report("3 Table 4.1 byte-exact vs golden transcription", generated == golden)


def test_criterion_04_qc_extended_brackets():
    basis = CKBasis(2, "su")
    xi_idx = basis.dim
    ok = True
    for w2 in (1, -1, Fraction(5, 3)):
        ext = build_extended("su", 2, [0, w2], BasicCoefficients(alpha={1: 1}))
        ok &= ext.bracket(basis.j(0, 2), basis.m(0, 2)) == ((xi_idx, w2),)
        ok &= ext.bracket(basis.j(0, 1), basis.m(0, 1)) == ((xi_idx, 1),)
        ok &= ext.bracket(basis.j(1, 2), basis.m(1, 2)) == ((basis.b(2), -2 * w2),)
        ok &= ext.bracket(basis.b(1), basis.b(2)) == ()
    _report("4 worked example (qc): [J02,M02] = w2 alpha1 Xi", ok)


def test_criterion_05_whitehead(sweep):
    bad = []
    for family in ("su", "u"):
        for n in range(1, 7):
            for signs in product("+-", repeat=n):
                rec = sweep[(family, n, ",".join(signs))]
                if rec["dim_h2"] != 0:
                    bad.append(rec)
    _report("5 Whitehead: dim H2 = 0 for all-nonzero omega, N<=6", not bad)


def test_criterion_06_iu_pq_single_extension(sweep):
    bad = []
    for n in range(1, 7):
        for signs in product("+-0", repeat=n):
            zeros = tuple(k for k, s in enumerate(signs, start=1) if s == "0")
            if zeros not in ((1,), (n,)):
                continue
            rec = sweep[("su", n, ",".join(signs))]
            if rec["dim_h2"] != 1:
                bad.append(rec)
    _report("6 iu(p,q): dim H2 = 1 for omega_1 = 0 or omega_N = 0", not bad)


def test_criterion_07_triviality_mechanics():
    bad = []
    for family, build in (("su", build_su_omega), ("u", build_u_omega)):
        for n in range(1, 5):
            for om in sign_vectors(n):
                g = build(n, om)
                cocycles = [
                    extension_cocycle(family, n, om, BasicCoefficients(alpha={k: 1}))
                    for k in range(1, n + 1)
                ]
                answers = are_coboundaries(g, cocycles, assume_cocycle=True)
                for k, (xi, mu) in enumerate(zip(cocycles, answers), start=1):
                    if om.omega(k) == 0:
                        if mu is not None:
                            bad.append((family, tuple(om), k, "expected None"))
                        continue
                    want = trivializing_cochain(family, om, {k: 1})
                    if mu != want:
                        bad.append((family, tuple(om), k, "mu mismatch"))
                    elif (xi - delta(g, mu)).entries:
                        bad.append((family, tuple(om), k, "central terms survive"))
    _report("7 triviality mechanics (N<=4, every k)", not bad, f"{len(bad)} bad")


def test_criterion_08_appendix_invariants():
    checked = 0
    bad = []
    for family, build in (("su", build_su_omega), ("u", build_u_omega)):
        for n in range(1, 5):
            for om in sign_vectors(n):
                g = build(n, om)
                system = cocycle_system(g)
                for vec in nullspace(system):
                    if matvec(system, vec) != {}:
                        bad.append((family, tuple(om), "kernel vector fails system"))
                        continue
                    xi = from_vector(g.dim, vec)
                    violations = appendix_violations(g, xi)
                    if violations:
                        bad.append((family, tuple(om), violations[0]))
                    checked += 1
    _report(
        "8 appendix relations on every kernel cocycle (N<=4)",
        not bad,
        f"{checked} cocycles",
    )


def test_criterion_09_representation_fidelity():
    bad = []
    for family, build in (("su", build_su_omega), ("u", build_u_omega)):
        for n in range(1, 5):
            for om in sign_vectors(n):
                g = build(n, om)
                mats = fundamental_matrices(n, om, family)
                if representation_defects(g, mats):
                    bad.append((family, tuple(om), "commutator"))
                    continue
                met = metric_matrix(n, om)
                if not all(isometry_defect(m, met).is_zero() for m in mats):
                    bad.append((family, tuple(om), "metric"))
    _report("9 fundamental representation fidelity (N<=4)", not bad)


def test_criterion_10_polarity():
    bad = []
    for family, build in (("su", build_su_omega), ("u", build_u_omega)):
        for n in range(1, 5):
            pol = polarity_map(n, family)
            for om in sign_vectors(n):
                if transport_constants(build(n, om), pol) != build(n, om.reversed()):
                    bad.append((family, tuple(om)))
    _report("10 polarity isomorphism transport (N<=4)", not bad)


def test_criterion_11_oracle_equivalence():
    import random

    bad = []
    rng = random.Random(31415)
    for i in range(50):
        g = random_algebra(rng, max_dim=10)
        if _dims(g) != oracle.h2_dimensions_dense(g):
            bad.append(("random", i))
    for family, build in (("su", build_su_omega), ("u", build_u_omega)):
        for n in range(1, 4):
            for om in sign_vectors(n):
                g = build(n, om)
                if _dims(g) != oracle.h2_dimensions_dense(g):
                    bad.append((family, tuple(om)))
    _report(
        "11 dense pivot-free oracle agreement (50 random + CK N<=3)", not bad
    )
