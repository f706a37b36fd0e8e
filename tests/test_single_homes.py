"""Each rule in one home, against the copies it replaced.

`full_oracle` keeps the earlier bodies of `permuted`, `transport_constants`,
`contract` and `_ck_structure`.  The library's versions must agree with them:

- `transport_constants` (one pass over the nonzero constants) gives the
  table the pair-by-pair loop gave, key order included, on the polarity
  maps, the involution sign maps and random signed permutations of CK and
  random tables; with unit signs it is `permuted`;
- `contract`, read off two `classify` calls, gives the report worked out by
  hand, field by field and line by line;
- a build, whose table now leaves zeros and pair checks to `LieAlgebra`,
  gives the same constants, bracket index and characters, key order
  included, and `extension_cocycle` the same cochain as over the old table.

Three rules are pinned in the text of the package: the omega length message
is written once (`omega._of_length`), only `extensions._label` writes an
alpha, beta or gamma label, and only `CKBasis.names` writes a generator name.
One in its signature: `LieAlgebra` takes no family or omega, so only the
builders make a Cayley-Klein algebra.
"""

import inspect
import random
import re
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

import ckcoh
import ckcoh.extensions
from ckcoh.algebra import LieAlgebra, build_su_omega, build_u_omega
from ckcoh.extensions import BasicCoefficients, contract, extension_cocycle
from ckcoh.generators import CKBasis
from ckcoh.omega import OmegaVector
from ckcoh.structure import SignedPermutation, polarity_map, transport_constants

import full_oracle
from random_algebras import random_algebra

RATIONAL = ("2/3,-1", "0,-1/2,0", "-2/3,1,5/2", "0,3/4,0,-2", "1/2,-3,2/5,7")
BUILD = {"su": build_su_omega, "u": build_u_omega}


SOURCES = sorted(Path(ckcoh.__file__).parent.glob("*.py"))


def _omegas(max_n, rational=True):
    out = [OmegaVector(v) for n in range(1, max_n + 1) for v in product((1, 0, -1), repeat=n)]
    if rational:
        out += [OmegaVector.parse(t) for t in RATIONAL if t.count(",") < max_n]
    return out


def _facts(g):
    return g.dim, list(g.constants.items()), list(g._into.items())


def _value(rng):
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def _random_mapping(rng, dim):
    targets = list(range(dim))
    rng.shuffle(targets)
    return SignedPermutation(targets, [rng.choice((1, -1)) for _ in range(dim)])


@pytest.mark.parametrize("family", ["su", "u"])
def test_transport_matches_the_pairwise_loop_on_polarity_and_involutions(family):
    for omega in _omegas(4, rational=False):
        g = BUILD[family](omega.n, omega)
        mapping = polarity_map(omega.n, family)
        got = transport_constants(g, mapping)
        assert _facts(got) == _facts(full_oracle.transport_constants(g, mapping)), omega
        if omega.n > 3:
            continue
        for mask in range(1 << (omega.n + 1)):
            signs = [(-1) ** (chi & mask).bit_count() for chi in g._chars]
            mapping = SignedPermutation(range(g.dim), signs)
            got = transport_constants(g, mapping)
            assert _facts(got) == _facts(full_oracle.transport_constants(g, mapping)), (omega, mask)
            assert got == g, (omega, mask)  # an involution keeps every bracket


def test_transport_matches_the_pairwise_loop_on_random_signed_permutations():
    rng = random.Random(10)
    for case in range(40):
        if case % 2:
            g = random_algebra(rng)
        else:
            n = rng.randint(1, 3)
            omega = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
            g = BUILD[rng.choice(("su", "u"))](n, omega)
        mapping = _random_mapping(rng, g.dim)
        got = transport_constants(g, mapping)
        assert _facts(got) == _facts(full_oracle.transport_constants(g, mapping)), case
        unit = SignedPermutation(mapping.targets, [1] * g.dim)
        assert transport_constants(g, unit) == full_oracle.permuted(g, mapping.targets), case


@pytest.mark.parametrize("family", ["su", "u"])
def test_contract_matches_the_report_worked_out_by_hand(family):
    for omega in _omegas(4):
        for k in range(1, omega.n + 1):
            got = contract(family, omega, k)
            want = full_oracle.contract(family, omega, k)
            assert got == want, (omega, k)
            assert got.lines() == want.lines(), (omega, k)
        for k in (0, omega.n + 1):
            message = f"contraction index {k} out of range 1..{omega.n}"
            for fn in (contract, full_oracle.contract):
                with pytest.raises(IndexError, match=message):
                    fn(family, omega, k)


@pytest.mark.parametrize("family", ["su", "u"])
def test_builds_match_the_self_checking_table(family):
    omegas = _omegas(4) + [OmegaVector([0] * n) for n in (5, 6)]
    for omega in omegas:
        g = BUILD[family](omega.n, omega)
        basis = CKBasis(omega.n, family)
        old = LieAlgebra(basis.dim, full_oracle._ck_structure(basis, omega))
        assert _facts(g) == _facts(old), omega
        assert g._chars == full_oracle._characters(g), omega


def test_extension_cocycle_matches_the_one_over_the_old_table(monkeypatch):
    rng = random.Random(11)
    cases = []
    for _ in range(100):
        family = rng.choice(("su", "u"))
        n = rng.randint(1, 4)
        omega = OmegaVector(
            [rng.choice((0, 1, -1, Fraction(rng.randint(-3, 3), rng.randint(1, 3)))) for _ in range(n)]
        )
        pairs = [(a, b) for a in range(n + 1) for b in range(a + 1, n + 1)]
        zeros = omega.zero_set
        coeffs = BasicCoefficients(
            eta={p: _value(rng) for p in rng.sample(pairs, rng.randint(0, len(pairs)))},
            tau={p: _value(rng) for p in rng.sample(pairs, rng.randint(0, len(pairs)))},
            alpha={k: _value(rng) for k in range(1, n + 1) if rng.random() < 0.5},
            beta={(k, l): _value(rng) for k in zeros for l in zeros if k < l},
            gamma={k: _value(rng) for k in zeros} if family == "u" else {},
        )
        cases.append((family, n, omega, coeffs))
    got = [extension_cocycle(*case) for case in cases]
    monkeypatch.setattr(ckcoh.extensions, "_ck_structure", full_oracle._ck_structure)
    want = [extension_cocycle(*case) for case in cases]
    assert sum(bool(c[3].eta or c[3].tau) for c in cases) > 80
    for case, xi, old in zip(cases, got, want):
        assert list(xi.entries.items()) == list(old.entries.items()), case[:3]


def _matches(pattern):
    return [
        (path.name, match.group())
        for path in SOURCES
        for match in re.finditer(pattern, path.read_text(encoding="utf-8"))
    ]


def test_the_omega_length_message_is_written_once():
    # `cli._parse_omega` has its own "omega list has ..." message
    assert _matches(r"omega has \{[^}]*\} entries, expected N=") == [
        ("omega.py", "omega has {omega.n} entries, expected N=")
    ]


def test_no_f_string_but_the_label_helper_writes_a_coefficient_label():
    assert len(SOURCES) > 10
    assert _matches(r"\bf[\"'][αβγ]_") == []
    assert _matches(r"def _label\(") == [("extensions.py", "def _label(")]


def test_only_the_basis_writes_a_generator_name():
    # an f-string that starts a J(, M( or B( name; a docstring's J(a,b) is no f-string
    pattern = r"\bf[\"'][JMB]\("
    written = [match.group() for match in re.finditer(pattern, inspect.getsource(CKBasis.names))]
    assert written == ['f"J(', 'f"M(', 'f"B(']
    assert _matches(pattern) == [("generators.py", name) for name in written]


def test_only_the_builders_make_a_cayley_klein_algebra():
    assert list(inspect.signature(LieAlgebra).parameters) == ["dim", "constants", "names"]
