"""The entry-driven reading of the basic coefficients, and the shared basis.

`extensions._read_basic` looks each entry of a cochain up in `_readings`, a
map made once per shared basis; `full_oracle._read_basic` is the body it
replaced, which reads every slot.  Both must give equal `BasicCoefficients`,
field by field with key order and value type, on the `h2` representatives,
the canonical alpha/beta/gamma cocycles, `delta(mu)` of a random `mu` and
random cochains (entries off the reading pairs, and on the adjacent B-column
slots that are divided by the selector 2), for every sign vector with
N <= 4 in both families and five rational omegas.

`CKBasis` looks J/M indices up in a table made once; it must equal the
closed formula and raise what `full_oracle.FormulaBasis` raises.  The library
shares one immutable basis per (N, family).
"""

import functools
import io
import random
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import product

import pytest

import ckcoh.extensions
from ckcoh.algebra import build_su_omega, build_u_omega
from ckcoh.cli import main
from ckcoh.cochains import OneCochain, TwoCochain, pair_list
from ckcoh.cohomology import delta, h2
from ckcoh.extensions import _FIELDS, _read_basic, _readings
from ckcoh.generators import CKBasis, _basis
from ckcoh.omega import OmegaVector

import full_oracle
from test_full_oracle import RATIONAL, _canonical


def _value(rng):
    return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4)))


def _random_cochains(g, rng):
    """Entries on random pairs, most of them no reading, and on the sel = 2 slots."""
    basis = g.ck_basis()
    pairs = pair_list(g.dim)
    adjacent = [
        (k(a, a + 1), basis.b(a + 1)) for a in range(basis.N) for k in (basis.j, basis.m)
    ]
    out = []
    for _ in range(4):
        entries = {pair: _value(rng) for pair in rng.sample(pairs, min(len(pairs), 12))}
        entries.update({pair: _value(rng) for pair in adjacent if rng.random() < 0.7})
        out.append(TwoCochain(g.dim, entries))
    return out


def _fields(coeffs):
    return [[(k, v, type(v)) for k, v in getattr(coeffs, name).items()] for name, _ in _FIELDS]


@pytest.mark.parametrize("build", [build_su_omega, build_u_omega], ids=["su", "u"])
def test_entry_driven_reading_matches_the_walk_over_every_slot(build):
    rng = random.Random(11)
    texts = [",".join(s) for n in range(1, 5) for s in product("+-0", repeat=n)]
    read = 0
    for text in texts + list(RATIONAL):
        omega = OmegaVector.parse(text)
        g = build(omega.n, omega)
        mu = OneCochain(g.dim, {k: _value(rng) for k in range(g.dim)})
        cochains = h2(g).representatives + _canonical(g) + [delta(g, mu)]
        cochains += _random_cochains(g, rng)
        for xi in cochains:
            ours = _read_basic(g, xi)
            assert _fields(ours) == _fields(full_oracle._read_basic(g, xi)), (text, xi.entries)
            read += not ours.is_zero()
    assert read > 1200


def _raised(call, *args):
    try:
        call(*args)
    except Exception as exc:  # the type is what is compared
        return type(exc)
    return None


@pytest.mark.parametrize("family", ["su", "u"])
def test_indices_follow_the_closed_formula_and_raise_as_before(family):
    for N in range(1, 9):
        basis, old = CKBasis(N, family), full_oracle.FormulaBasis(N, family)
        for a in range(N):
            for b in range(a + 1, N + 1):
                j = a * (2 * N + 1 - a) // 2 + (b - a - 1)
                assert basis.j(a, b) == j and basis.m(a, b) == basis.pair_count + j
        assert list(basis.index_pairs()) == list(old.index_pairs())
        bad_pairs = [(a, a) for a in range(N + 1)] + [(1, 0), (N, N - 1), (-1, 0), (0, N + 1)]
        for name in ("j", "m"):
            for pair in bad_pairs:
                got = _raised(getattr(basis, name), *pair)
                assert got is IndexError and got is _raised(getattr(old, name), *pair), (name, pair)
        for l in (0, N + 1):
            assert _raised(basis.b, l) is IndexError is _raised(old.b, l)
        want = ValueError if family == "su" else None
        assert _raised(basis.i) is want is _raised(old.i)


def test_the_basis_is_shared_and_immutable():
    assert _basis(3, "su") is _basis(3, "su") is build_su_omega(3, [1, 0, -1]).ck_basis()
    assert _basis(3, "u") is build_u_omega(3, [0, 0, 1]).ck_basis()
    assert _basis(3, "u") is not _basis(3, "su")
    basis = _basis(2, "u")
    with pytest.raises(AttributeError):
        basis.N = 5
    with pytest.raises(AttributeError):
        basis.extra = 1
    assert (basis.N, basis.dim) == (2, 9)


def test_one_h2_call_builds_the_reading_map_once(monkeypatch):
    calls = []
    build_map = _readings.__wrapped__

    def counted(basis):
        calls.append((basis.family, basis.N))
        return build_map(basis)

    monkeypatch.setattr(ckcoh.extensions, "_readings", functools.lru_cache(maxsize=None)(counted))
    with redirect_stdout(io.StringIO()) as out:
        assert main(["h2", "su", "6", "--format", "json", "--", "0,+,0,-,0,0"]) == 0
    assert '"representatives"' in out.getvalue()
    assert calls == [("su", 6)]
