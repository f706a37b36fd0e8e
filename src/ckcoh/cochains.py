"""One- and two-cochains with implicit antisymmetry.

A TwoCochain stores xi(X_i, X_j) only for i < j; reading (j, i) negates.
"""

from __future__ import annotations

import json

from .rationals import _lines, _reader, format_rational, parse_rational, ratio


def pair_count(dim: int) -> int:
    return dim * (dim - 1) // 2


def pair_list(dim: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(dim) for j in range(i + 1, dim)]


class TwoCochain:
    """Antisymmetric sparse bilinear coefficient table xi_ij."""

    __slots__ = ("dim", "entries")

    def __init__(self, dim: int, entries=None):
        self.dim = dim
        table = {}
        for (i, j), v in (entries or {}).items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise IndexError(f"pair ({i},{j}) out of range for dim {dim}")
            v = ratio(v)
            if v == 0:
                continue
            if i == j:
                raise ValueError(f"diagonal entry ({i},{j}) must vanish")
            if i < j:
                table[(i, j)] = v
            else:
                table[(j, i)] = -v
        self.entries = table

    def get(self, i: int, j: int):
        """xi(X_i, X_j) with antisymmetry folded in."""
        if i == j:
            return 0
        if i < j:
            return self.entries.get((i, j), 0)
        return -self.entries.get((j, i), 0)

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other):
        return (
            isinstance(other, TwoCochain)
            and self.dim == other.dim
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"TwoCochain(dim={self.dim}, nnz={len(self.entries)})"

    def scaled(self, factor) -> "TwoCochain":
        factor = ratio(factor)
        return TwoCochain(self.dim, {k: factor * v for k, v in self.entries.items()})

    def __sub__(self, other) -> "TwoCochain":
        if self.dim != other.dim:
            raise ValueError("cochain dimensions differ")
        table = dict(self.entries)
        for k, v in other.entries.items():
            table[k] = table.get(k, 0) - v
        return TwoCochain(self.dim, table)

    def to_text(self) -> str:
        lines = [f"dim {self.dim}"]
        for (i, j) in sorted(self.entries):
            lines.append(f"{i} {j} {format_rational(self.entries[(i, j)])}")
        return "\n".join(lines) + "\n"

    @classmethod
    @_reader
    def from_text(cls, text: str) -> "TwoCochain":
        rows = _lines(text)
        if not rows or not rows[0].startswith("dim "):
            raise ValueError("cochain file must start with a `dim` line")
        dim = int(rows[0].split()[1])
        entries = {}
        for line in rows[1:]:
            i, j, v = line.split()
            entries[(int(i), int(j))] = parse_rational(v)
        return cls(dim, entries)

    def to_json_obj(self) -> dict:
        return {
            "dim": self.dim,
            "entries": [
                [i, j, format_rational(self.entries[(i, j)])]
                for (i, j) in sorted(self.entries)
            ],
        }

    @classmethod
    @_reader
    def from_json_obj(cls, obj) -> "TwoCochain":
        return cls(
            obj["dim"],
            {(i, j): parse_rational(v) for i, j, v in obj["entries"]},
        )

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True) + "\n"


class OneCochain:
    """Sparse linear functional mu on the generators."""

    __slots__ = ("dim", "mu")

    def __init__(self, dim: int, mu=None):
        self.dim = dim
        table = {}
        for i, v in (mu or {}).items():
            if not 0 <= i < dim:
                raise IndexError(f"index {i} out of range for dim {dim}")
            v = ratio(v)
            if v:
                table[i] = v
        self.mu = table

    def get(self, i: int):
        return self.mu.get(i, 0)

    def is_zero(self) -> bool:
        return not self.mu

    def __eq__(self, other):
        return (
            isinstance(other, OneCochain)
            and self.dim == other.dim
            and self.mu == other.mu
        )

    def __repr__(self):
        return f"OneCochain(dim={self.dim}, nnz={len(self.mu)})"

    def to_json_obj(self) -> dict:
        return {
            "dim": self.dim,
            "mu": {str(i): format_rational(v) for i, v in sorted(self.mu.items())},
        }

    @classmethod
    @_reader
    def from_json_obj(cls, obj) -> "OneCochain":
        return cls(obj["dim"], {int(i): parse_rational(v) for i, v in obj["mu"].items()})
