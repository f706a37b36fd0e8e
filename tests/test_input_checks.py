"""The exception type and message of every input check the other tests never reach.

Each case calls one public entry point with one bad argument, everything
else valid, and requires exactly that exception class and message.
"""

import pytest

from ckcoh.algebra import LieAlgebra, build_su_omega
from ckcoh.cochains import OneCochain, TwoCochain
from ckcoh.cohomology import central_extension, cocycle_defect, delta
from ckcoh.extensions import (
    BasicCoefficients,
    ConstraintViolation,
    appendix_violations,
    classify,
    extension_cocycle,
    trivializing_cochain,
)
from ckcoh.generators import CKBasis
from ckcoh.omega import OmegaVector
from ckcoh.rationals import parse_rational, ratio
from ckcoh.realization import (
    ComplexMatrix,
    fundamental_matrices,
    isometry_defect,
    metric_matrix,
    representation_defects,
)
from ckcoh.sparse import SparseMatrix, solve_many
from ckcoh.structure import (
    SignedPermutation,
    involution_automorphism,
    transport_constants,
    translation_block_indices,
)

SU2 = build_su_omega(2, [1, 1])  # dim 8
WRONG_DIM = "cochain dimension does not match the algebra"


def _cocycle(family, n, omega, **coeffs):
    return lambda: extension_cocycle(family, n, omega, BasicCoefficients(**coeffs))


def _involution_of_a_table_with_characters():
    # the sign characters of su_w(3) on a table no builder made: no omega to range S over
    plain = LieAlgebra(SU2.dim, SU2.constants)
    object.__setattr__(plain, "_chars", SU2._chars)
    return involution_automorphism(plain, {0})


CASES = {
    "ratio-bool": (lambda: ratio(True), TypeError, "bool is not a scalar"),
    "ratio-float": (lambda: ratio(1.5), TypeError, "not an exact rational: 1.5"),
    "omega-empty": (lambda: OmegaVector([]), ValueError, "omega vector must have at least one entry"),
    "omega-index": (lambda: OmegaVector([1, 0]).omega(3), IndexError, "omega index 3 out of range 1..2"),
    "omega-contract": (
        lambda: OmegaVector([1, 0]).contracted(0),
        IndexError,
        "omega index 0 out of range 1..2",
    ),
    "algebra-dim": (lambda: LieAlgebra(0, {}), ValueError, "dimension must be positive"),
    "algebra-not-ck": (
        lambda: LieAlgebra(2, {}).ck_basis(),
        ValueError,
        "not a Cayley-Klein algebra (no family metadata)",
    ),
    "algebra-names-long": (
        lambda: LieAlgebra(2, {}, names=("a", "b", "c", "d")),
        ValueError,
        "names has 4 entries, expected 2",
    ),
    "algebra-names-short": (
        lambda: LieAlgebra(3, {(0, 1): [(2, 1)]}, names=("a",)),
        ValueError,
        "names has 1 entries, expected 3",
    ),
    "rational-word": (lambda: parse_rational("True"), ValueError, "bad rational token 'True'"),
    "rational-one": (lambda: parse_rational("one"), ValueError, "bad rational token 'one'"),
    "rational-e": (lambda: parse_rational("e"), ValueError, "bad rational token 'e'"),
    "rational-no-exponent": (lambda: parse_rational("1e"), ValueError, "bad rational token '1e'"),
    "omega-word": (
        lambda: OmegaVector.parse("+,True"),
        ValueError,
        "bad rational token 'True'",
    ),
    "rational-exponent": (
        lambda: parse_rational("2.5e1"),
        ValueError,
        "bad rational token '2.5e1': exponent notation is not accepted",
    ),
    "rational-fraction-exponent": (
        lambda: parse_rational("1/2e1"),
        ValueError,
        "bad rational token '1/2e1': exponent notation is not accepted",
    ),
    "delta-dim": (lambda: delta(SU2, OneCochain(3)), ValueError, WRONG_DIM),
    "defect-dim": (lambda: cocycle_defect(SU2, TwoCochain(3)), ValueError, WRONG_DIM),
    "extension-dim": (lambda: central_extension(SU2, TwoCochain(3)), ValueError, WRONG_DIM),
    "matrix-shape": (lambda: SparseMatrix(-1, 2), ValueError, "negative matrix shape"),
    "rhs-row": (
        lambda: solve_many(SparseMatrix(2, 2), [{2: 1}]),
        IndexError,
        "rhs row 2 outside matrix",
    ),
    "eta-index": (
        _cocycle("su", 2, [1, 1], eta={(0, 3): 1}),
        ConstraintViolation,
        "eta/tau index (0,3) out of range",
    ),
    "tau-index": (
        _cocycle("su", 2, [1, 1], tau={(2, 1): 1}),
        ConstraintViolation,
        "eta/tau index (2,1) out of range",
    ),
    "beta-index": (
        _cocycle("su", 2, [0, 0], beta={(2, 1): 1}),
        ConstraintViolation,
        "beta index (2,1) out of range",
    ),
    "gamma-index": (
        _cocycle("u", 2, [0, 0], gamma={3: 1}),
        ConstraintViolation,
        "gamma index 3 out of range",
    ),
    "classify-length": (
        lambda: classify("su", 3, [1, 1]),
        ValueError,
        "omega has 2 entries, expected N=3",
    ),
    "cocycle-length": (_cocycle("su", 3, [1, 1]), ValueError, "omega has 2 entries, expected N=3"),
    "matrices-length": (
        lambda: fundamental_matrices(2, [1, 0, 5], "su"),
        ValueError,
        "omega has 3 entries, expected N=2",
    ),
    "metric-length": (
        lambda: metric_matrix(2, [1, 0, 5]),
        ValueError,
        "omega has 3 entries, expected N=2",
    ),
    "violations-dim": (lambda: appendix_violations(SU2, TwoCochain(3)), ValueError, WRONG_DIM),
    "trivializing-index": (
        lambda: trivializing_cochain("su", [1, 1], {3: 1}),
        ConstraintViolation,
        "alpha index 3 out of range",
    ),
    "cochain-sub": (lambda: TwoCochain(2) - TwoCochain(3), ValueError, "cochain dimensions differ"),
    "basis-n": (lambda: CKBasis(0, "su"), ValueError, "N must be >= 1"),
    "permutation-targets": (
        lambda: SignedPermutation([0, 0], [1, 1]),
        ValueError,
        "targets must be a permutation",
    ),
    "permutation-signs": (lambda: SignedPermutation([0, 1], [1, 2]), ValueError, "signs must be +-1"),
    "transport-size": (
        lambda: transport_constants(SU2, SignedPermutation.identity(3)),
        ValueError,
        "mapping size does not match the algebra dimension",
    ),
    "involution-subset": (
        lambda: involution_automorphism(SU2, {3}),
        ValueError,
        "subset must lie in 0..2",
    ),
    "involution-not-built": (
        _involution_of_a_table_with_characters,
        ValueError,
        "not an algebra the CK builders made",
    ),
    "matmul-size": (
        lambda: ComplexMatrix(2, {(1, 1): (1, 0)}) @ ComplexMatrix(3, {(1, 2): (1, 0)}),
        ValueError,
        "matrix sizes differ: 2 and 3",
    ),
    "isometry-size": (
        lambda: isometry_defect(ComplexMatrix(3, {(2, 2): (1, 0)}), metric_matrix(1, [1])),
        ValueError,
        "matrix sizes differ: 3 and 2",
    ),
    "rep-matrices-long": (
        lambda: representation_defects(SU2, fundamental_matrices(2, [1, 1], "u")),
        ValueError,
        "9 matrices for an algebra of dim 8",
    ),
    "rep-matrices-short": (
        lambda: representation_defects(SU2, fundamental_matrices(2, [1, 1], "su")[:-1]),
        ValueError,
        "7 matrices for an algebra of dim 8",
    ),
    "block-index": (
        lambda: translation_block_indices(2, 3),
        IndexError,
        "block index 3 out of range 1..2",
    ),
}


@pytest.mark.parametrize("call, exc, message", CASES.values(), ids=CASES.keys())
def test_input_check_raises_its_exception_and_message(call, exc, message):
    with pytest.raises(exc) as err:
        call()
    assert type(err.value) is exc
    assert str(err.value) == message
