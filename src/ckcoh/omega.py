"""Contraction parameter vectors.

A vector omega = (omega_1, ..., omega_N) of exact rationals selects one member
of each Cayley-Klein unitary family.  The derived two-index products

    omega(a, b) = omega_{a+1} * omega_{a+2} * ... * omega_b      (a <= b)

with omega(a, a) = 1 carry all the structure-constant dependence; they satisfy
omega(a, c) = omega(a, b) * omega(b, c) for a <= b <= c and
omega(a-1, a) = omega_a.
"""

from __future__ import annotations

from itertools import product

from .rationals import Scalar, format_rational, parse_rational, ratio

SIGN_VALUES = {"+": 1, "-": -1, "−": -1, "0": 0}


class OmegaVector:
    """Immutable vector of N exact contraction constants, 1-indexed.

    Made from values; an OmegaVector shares its already coerced `values`.
    Text goes through `parse`.
    """

    __slots__ = ("values",)

    def __init__(self, values):
        if isinstance(values, OmegaVector):  # already coerced
            object.__setattr__(self, "values", values.values)
            return
        if isinstance(values, str):
            raise TypeError("OmegaVector takes values; parse text with OmegaVector.parse")
        vals = tuple(ratio(v) for v in values)
        if not vals:
            raise ValueError("omega vector must have at least one entry")
        object.__setattr__(self, "values", vals)

    def __setattr__(self, name, value):
        raise AttributeError("OmegaVector is immutable")

    @property
    def n(self) -> int:
        return len(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __eq__(self, other):
        return isinstance(other, OmegaVector) and self.values == other.values

    def __hash__(self):
        return hash(self.values)

    def __repr__(self):
        return f"OmegaVector({list(self.values)!r})"

    def omega(self, k: int) -> Scalar:
        """The single constant omega_k, 1 <= k <= N."""
        if not 1 <= k <= self.n:
            raise IndexError(f"omega index {k} out of range 1..{self.n}")
        return self.values[k - 1]

    def product(self, a: int, b: int) -> Scalar:
        """Two-index product omega_{ab} for 0 <= a <= b <= N."""
        if not 0 <= a <= b <= self.n:
            raise IndexError(f"omega product indices ({a},{b}) out of range")
        out = 1
        for k in range(a + 1, b + 1):
            v = self.values[k - 1]
            if v == 0:
                return 0
            out *= v
        return ratio(out)

    @property
    def zero_set(self) -> tuple[int, ...]:
        """1-based indices k with omega_k = 0."""
        return tuple(k for k, v in enumerate(self.values, start=1) if v == 0)

    @property
    def n_zero(self) -> int:
        return len(self.zero_set)

    def reversed(self) -> "OmegaVector":
        return OmegaVector(self.values[::-1])

    def contracted(self, k: int) -> "OmegaVector":
        """Copy with omega_k set to zero."""
        if not 1 <= k <= self.n:
            raise IndexError(f"omega index {k} out of range 1..{self.n}")
        vals = list(self.values)
        vals[k - 1] = 0
        return OmegaVector(vals)

    @classmethod
    def parse(cls, text: str) -> "OmegaVector":
        """Parse a comma-separated list of signs (+, -, 0) or rationals.

        Every entry must be non-empty: "0,,+" is an error naming entry 2,
        not the two-entry list (0,+).
        """
        if not text.strip():
            raise ValueError(f"empty omega list: {text!r}")
        vals = []
        for position, tok in enumerate(text.split(","), start=1):
            tok = tok.strip()
            if not tok:
                raise ValueError(f"empty omega entry at position {position} in {text!r}")
            if tok in SIGN_VALUES:
                vals.append(SIGN_VALUES[tok])
            else:
                vals.append(parse_rational(tok))
        return cls(vals)

    def tokens(self) -> str:
        """Comma-separated rendering that parse() round-trips."""
        return ",".join(format_rational(v) for v in self.values)


def _of_length(N: int, omega) -> OmegaVector:
    """omega as an OmegaVector, checked to have N entries."""
    omega = OmegaVector(omega)
    if omega.n != N:
        raise ValueError(f"omega has {omega.n} entries, expected N={N}")
    return omega


def sign_vectors(n: int):
    """All {+1, 0, -1}^n vectors as OmegaVectors, lexicographic in (1, 0, -1)."""
    if n == 0:
        return
    for vals in product((1, 0, -1), repeat=n):
        yield OmegaVector(vals)
