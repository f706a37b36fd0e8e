"""Exact sparse linear algebra: fraction-free elimination over the rationals.

Rows are dicts {column: int} after clearing denominators.  Forward elimination
is fraction-free: combining rows uses integer cross-multiplication followed by
a gcd strip, so entries never leave Z and never blow up through denominators
(Bareiss-style growth control on sparse data).  Pivoting is a strategy switch:

  * below DENSE_THRESHOLD columns: rows in natural order, lexicographically
    first pivot column -- the textbook echelon, cheap for small systems;
  * at or above: rows sorted sparsest-first and the pivot chosen as the
    globally rarest column of the row (Markowitz-style fill avoidance).

Both regimes share the same echelon structure, kernel back-substitution and
solver, and both are deterministic functions of the input matrix.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd, lcm

from .rationals import format_rational, parse_rational, ratio

DENSE_THRESHOLD = 200


class SparseMatrix:
    """Row-major sparse matrix of exact rationals."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix shape")
        self.rows = rows
        self.cols = cols
        self.data = [{} for _ in range(rows)]

    @classmethod
    def from_entries(cls, rows: int, cols: int, entries) -> "SparseMatrix":
        m = cls(rows, cols)
        for r, c, v in entries:
            m.set(r, c, v)
        return m

    def set(self, r: int, c: int, value):
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise IndexError(f"entry ({r},{c}) outside {self.rows}x{self.cols}")
        value = ratio(value)
        if value:
            self.data[r][c] = value
        else:
            self.data[r].pop(c, None)

    def entry(self, r: int, c: int):
        return self.data[r].get(c, 0)

    def nnz(self) -> int:
        return sum(len(row) for row in self.data)

    def __eq__(self, other):
        return (
            isinstance(other, SparseMatrix)
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self.data == other.data
        )

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={self.nnz()})"

    def to_text(self) -> str:
        lines = [f"{self.rows} {self.cols}"]
        for r, row in enumerate(self.data):
            for c in sorted(row):
                lines.append(f"{r} {c} {format_rational(row[c])}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "SparseMatrix":
        rows = [
            line.strip()
            for line in text.splitlines()
            if line.strip() and not line.lstrip().startswith("#")
        ]
        if not rows:
            raise ValueError("empty matrix file")
        nr, nc = (int(t) for t in rows[0].split())
        m = cls(nr, nc)
        for line in rows[1:]:
            r, c, v = line.split()
            m.set(int(r), int(c), parse_rational(v))
        return m

    def to_json_obj(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [
                [r, c, format_rational(row[c])]
                for r, row in enumerate(self.data)
                for c in sorted(row)
            ],
        }

    @classmethod
    def from_json_obj(cls, obj) -> "SparseMatrix":
        m = cls(obj["rows"], obj["cols"])
        for r, c, v in obj["entries"]:
            m.set(r, c, parse_rational(v))
        return m

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True) + "\n"


def _integer_row(row: dict) -> dict:
    """Clear denominators and strip the content gcd; {} stays {}."""
    if not row:
        return {}
    denom = 1
    for v in row.values():
        if isinstance(v, Fraction):
            denom = lcm(denom, v.denominator)
    out = {}
    for c, v in row.items():
        iv = int(v * denom) if denom != 1 or isinstance(v, Fraction) else v
        if iv:
            out[c] = iv
    if not out:
        return {}
    g = 0
    for v in out.values():
        g = gcd(g, v)
    if g > 1:
        for c in out:
            out[c] //= g
    return out


def _strip_gcd(row: dict):
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return
    if g > 1:
        for c in row:
            row[c] //= g


class Echelon:
    """Incremental fraction-free row echelon of integer dict rows."""

    def __init__(self, cols: int, col_weight=None):
        self.cols = cols
        self.pivots = []  # (pivot_col, row_dict) in creation order
        self.pivot_cols = set()
        self.col_weight = col_weight  # None -> lexicographic pivot choice

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, row: dict) -> dict:
        """Eliminate every pivot column from a copy of the row."""
        row = dict(row)
        for col, prow in self.pivots:
            v = row.get(col)
            if not v:
                continue
            pv = prow[col]
            g = gcd(pv, v)
            a, b = pv // g, v // g
            if a < 0:
                a, b = -a, -b
            if a != 1:
                for c in row:
                    row[c] *= a
            for c, w in prow.items():
                nv = row.get(c, 0) - b * w
                if nv:
                    row[c] = nv
                else:
                    row.pop(c, None)
            _strip_gcd(row)
        return row

    def _choose_pivot(self, row: dict) -> int:
        eligible = [c for c in row if c < self.cols]
        if self.col_weight is None:
            return min(eligible)
        weight = self.col_weight
        return min(eligible, key=lambda c: (weight[c], c))

    def insert(self, reduced: dict) -> bool:
        """Add an already-reduced row as a new pivot; False if rank-trivial."""
        if not any(c < self.cols for c in reduced):
            return False
        col = self._choose_pivot(reduced)
        if reduced[col] < 0:
            for c in reduced:
                reduced[c] = -reduced[c]
        self.pivots.append((col, reduced))
        self.pivot_cols.add(col)
        return True

    def absorb(self, row: dict) -> bool:
        return self.insert(self.reduce(row))

    def back_substitute(self, assignment: dict, aug: int | None = None) -> dict:
        """Complete an assignment of the free columns over the echelon.

        Solves row . x = row[aug] (or 0) for each pivot column, walking the
        pivots in reverse creation order; `assignment` maps free columns to
        exact values and is not modified.
        """
        x = dict(assignment)
        for col, prow in reversed(self.pivots):
            s = Fraction(prow.get(aug, 0)) if aug is not None else Fraction(0)
            for c, v in prow.items():
                if c == col or c == aug:
                    continue
                xc = x.get(c)
                if xc:
                    s -= v * xc
            if s:
                x[col] = s / prow[col]
        return x


def _build_echelon(matrix: SparseMatrix, extra_cols=()) -> Echelon:
    """Eliminate all rows (plus per-row extra columns beyond matrix.cols)."""
    cols = matrix.cols
    int_rows = []
    for r, row in enumerate(matrix.data):
        full = dict(row)
        for key, extra in extra_cols:
            v = extra[r] if r < len(extra) else 0
            if v:
                full[key] = v
        int_rows.append(_integer_row(full))
    if cols < DENSE_THRESHOLD:
        ech = Echelon(cols, col_weight=None)
        order = range(len(int_rows))
    else:
        weight = [0] * cols
        for row in int_rows:
            for c in row:
                if c < cols:
                    weight[c] += 1
        ech = Echelon(cols, col_weight=weight)
        order = sorted(
            range(len(int_rows)), key=lambda r: (len(int_rows[r]), r)
        )
    leftovers = []
    for r in order:
        row = int_rows[r]
        if not row:
            continue
        reduced = ech.reduce(row)
        if not ech.insert(reduced) and reduced:
            leftovers.append(reduced)
    ech.leftovers = leftovers
    return ech


def rank(matrix: SparseMatrix) -> int:
    return _build_echelon(matrix).rank


def nullspace(matrix: SparseMatrix) -> list[dict]:
    """Canonical kernel basis: one integer vector per free column, ascending.

    Vector for free column f has a positive entry at f and zeroes at every
    other free column; verified exactly by matvec in the test suite.
    """
    ech = _build_echelon(matrix)
    basis = []
    for free in range(matrix.cols):
        if free in ech.pivot_cols:
            continue
        basis.append(_integer_row(ech.back_substitute({free: Fraction(1)})))
    return basis


def matvec(matrix: SparseMatrix, vec: dict) -> dict:
    out = {}
    for r, row in enumerate(matrix.data):
        s = 0
        for c, v in row.items():
            xc = vec.get(c)
            if xc:
                s += v * xc
        if s:
            out[r] = ratio(s)
    return out


def solve_many(matrix: SparseMatrix, rhs_list) -> list:
    """Exact solutions of matrix . x = b for several b at once.

    Each rhs is a dict {row: value}.  Returns one dict per rhs (free columns
    set to zero) or None where the system is inconsistent.  All right-hand
    sides ride along the single elimination as extra columns.
    """
    cols = matrix.cols
    extras = []
    for t, rhs in enumerate(rhs_list):
        dense = [0] * matrix.rows
        for r, v in rhs.items():
            if not 0 <= r < matrix.rows:
                raise IndexError(f"rhs row {r} outside matrix")
            dense[r] = v
        extras.append((cols + t, dense))
    ech = _build_echelon(matrix, extra_cols=extras)
    solutions = []
    for t in range(len(rhs_list)):
        aug = cols + t
        if any(row.get(aug) for row in ech.leftovers):
            solutions.append(None)
            continue
        x = ech.back_substitute({}, aug=aug)
        solutions.append({c: ratio(v) for c, v in x.items() if v and c < cols})
    return solutions


def solve(matrix: SparseMatrix, rhs: dict):
    """One exact solution of matrix . x = rhs, or None if inconsistent."""
    return solve_many(matrix, [rhs])[0]
