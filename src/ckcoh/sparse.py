"""Exact sparse linear algebra: fraction-free elimination over the rationals.

Rows are dicts {column: int} after clearing denominators.  Forward elimination
is fraction-free: combining rows uses integer cross-multiplication followed by
a gcd strip, so entries never leave Z and never blow up through denominators
(Bareiss-style growth control on sparse data).  One pivot rule serves every
matrix: rows in natural order, each pivoting on its lexicographically first
column, a deterministic function of the input matrix.

Every pivot row is reduced against all earlier pivots before it is inserted,
so pivot row k holds no pivot column of a pivot created before k.  On that
invariant the echelon keeps two indexes instead of scanning its pivots:
`pivot_cols` (pivot column -> creation index) drives elimination, which
applies only the pivots a row reaches, in creation order; `uses` (column ->
pivot rows holding it) drives back-substitution, which visits only the
pivots whose solved value can be nonzero, in reverse creation order.  Both
perform the same operations in the same order as a walk over every pivot.
Back-substitution has one mode, completing an assignment: `solve_many`
assigns -1 to the column of right-hand side t, so row . x = rhs is solved.

Elimination reduces each distinct row once.  A row equal, entry for entry
as the matrix holds it, to one that became a pivot or reduced to zero lies
in the span of the pivots, and a nonzero vector of that span holds the pivot
column of the earliest pivot it uses, since no later pivot row holds that
column.  So the copy would reduce to {}: skipping it, before its
denominators are cleared, leaves the pivots, their order and the kernel
unchanged.  A copy of a row that left a right-hand-side leftover is not
skipped, as every such row is kept.

For the same reason a caller that knows a bound on the rank may pass it as
`max_rank`: once the echelon reaches it, every later row lies in the span
of the pivots, so stopping there leaves the echelon of the full run, with
the same pivots, pivot rows and key order.  `solve_many` never stops early,
since its leftovers decide consistency.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm

from .rationals import ratio


class SparseMatrix:
    """Row-major sparse matrix of exact rationals."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix shape")
        self.rows = rows
        self.cols = cols
        self.data = [{} for _ in range(rows)]

    def set(self, r: int, c: int, value):
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise IndexError(f"entry ({r},{c}) outside {self.rows}x{self.cols}")
        value = ratio(value)
        if value:
            self.data[r][c] = value
        else:
            self.data[r].pop(c, None)

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


def _integer_row(row: dict) -> dict:
    """Clear denominators and strip the content gcd; {} stays {}."""
    if not row:
        return {}
    denom = 1
    for v in row.values():
        # `type is int` first: isinstance against Fraction goes through ABCMeta
        if type(v) is not int and isinstance(v, Fraction):
            denom = lcm(denom, v.denominator)
    out = {}
    for c, v in row.items():
        iv = v if denom == 1 and type(v) is int else int(v * denom)
        if iv:
            out[c] = iv
    _strip_gcd(out)
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
    """Incremental fraction-free row echelon of integer dict rows.

    `pivots` holds (pivot_col, row_dict) in creation order; pivot k is the
    k-th row inserted.  Rows are inserted only after `reduce`, so pivot row k
    holds no pivot column of any pivot created before k.  Two indexes rest on
    that invariant:

      * `pivot_cols`: pivot column -> creation index.  `reduce` applies only
        the pivots whose columns the row holds, popped from a min-heap in
        creation order; a pivot row only brings in columns of later pivots.
      * `uses`: column -> creation indices (ascending) of the pivot rows that
        hold it, the row's own pivot column left out.  `back_substitute`
        visits only the pivots that hold a column with a nonzero value,
        popped from a max-heap in reverse creation order.

    Both walks apply the same pivots, in the same order and with the same
    arithmetic, as a scan over every pivot; the pivots they skip would change
    nothing.
    """

    def __init__(self, cols: int):
        self.cols = cols
        self.pivots = []  # (pivot_col, row_dict) in creation order
        self.pivot_cols = {}  # pivot_col -> creation index
        self.uses = {}  # col -> creation indices of the pivot rows holding it

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, row: dict) -> dict:
        """Eliminate every pivot column from a copy of the row."""
        row = dict(row)
        pivots = self.pivots
        pivot_cols = self.pivot_cols
        heap = [pivot_cols[c] for c in row if c in pivot_cols]
        heapify(heap)
        last = -1
        while heap:
            k = heappop(heap)
            if k == last:
                continue
            last = k
            col, prow = pivots[k]
            v = row.get(col)
            if not v:
                continue
            pv = prow[col]
            g = gcd(pv, v)
            a, b = pv // g, v // g  # a > 0: `insert` stores every pivot entry positive
            if a != 1:
                for c in row:
                    row[c] *= a
            for c, w in prow.items():
                old = row.get(c)
                if old is None:
                    nv = -b * w
                    if nv:
                        row[c] = nv
                        later = pivot_cols.get(c)
                        if later is not None:
                            heappush(heap, later)
                    continue
                nv = old - b * w
                if nv:
                    row[c] = nv
                else:
                    del row[c]
            _strip_gcd(row)
        return row

    def insert(self, reduced: dict) -> bool:
        """Add a reduced row as a new pivot on its first column; False if rank-trivial."""
        col = min((c for c in reduced if c < self.cols), default=None)
        if col is None:
            return False
        if reduced[col] < 0:
            for c in reduced:
                reduced[c] = -reduced[c]
        k = len(self.pivots)
        self.pivots.append((col, reduced))
        self.pivot_cols[col] = k
        uses = self.uses
        for c in reduced:
            if c != col:
                if c in uses:
                    uses[c].append(k)
                else:
                    uses[c] = [k]
        return True

    def absorb(self, row: dict) -> bool:
        return self.insert(self.reduce(row))

    def back_substitute(self, assignment: dict) -> dict:
        """Complete an assignment of the free columns over the echelon.

        Solves row . x = 0 for each pivot column, in reverse creation order;
        `assignment` maps free columns (right-hand-side columns among them)
        to exact values and is not modified.  Only pivots that hold a column
        already given a nonzero value are visited: for every other pivot the
        solved value would be 0, which is left unset.
        """
        x = dict(assignment)
        pivots = self.pivots
        uses = self.uses
        heap = [-k for c, v in x.items() if v for k in uses.get(c, ())]
        heapify(heap)
        last = -1
        while heap:
            k = -heappop(heap)
            if k == last:
                continue
            last = k
            col, prow = pivots[k]
            s = Fraction(0)
            for c, v in prow.items():
                if c == col:
                    continue
                xc = x.get(c)
                if xc:
                    s -= v * xc
            if s:
                x[col] = s / prow[col]
                for j in uses.get(col, ()):
                    heappush(heap, -j)
        return x


def _build_echelon(matrix: SparseMatrix, rhs_list=(), max_rank=None) -> Echelon:
    """Eliminate the rows in natural order; right-hand side t rides along as column cols + t.

    With `max_rank`, a bound the caller knows on the rank, elimination stops
    once the echelon reaches it: every later row would reduce to {}.  Pass it
    only without right-hand sides, whose leftovers decide consistency.
    """
    cols = matrix.cols
    rows = matrix.data
    if rhs_list:
        rows = [dict(row) for row in rows]
        for t, rhs in enumerate(rhs_list):
            for r, v in rhs.items():
                if not 0 <= r < matrix.rows:
                    raise IndexError(f"rhs row {r} outside matrix")
                if v:
                    rows[r][cols + t] = v
    ech = Echelon(cols)
    leftovers = []
    seen = set()  # rows that reduced to a pivot or to {}; a copy would reduce to {}
    for row in rows:
        key = frozenset(row.items())
        if key in seen:
            continue
        row = _integer_row(row)
        if not row:
            continue
        reduced = ech.reduce(row)
        if ech.insert(reduced):
            seen.add(key)
            if len(ech.pivots) == max_rank:
                break
        elif not reduced:
            seen.add(key)
        else:
            leftovers.append(reduced)
    ech.leftovers = leftovers
    return ech


def rank(matrix: SparseMatrix, max_rank=None) -> int:
    return _build_echelon(matrix, max_rank=max_rank).rank


def nullspace(matrix: SparseMatrix, max_rank=None) -> list[dict]:
    """Canonical kernel basis: one integer vector per free column, ascending.

    Vector for free column f has a positive entry at f and zeroes at every
    other free column.  `max_rank` is a bound on the rank (see `_build_echelon`).
    A free column that no pivot row holds (absent from `uses`) gets {f: 1}
    directly: back-substitution would visit no pivot and return just that.
    """
    ech = _build_echelon(matrix, max_rank=max_rank)
    pivot_cols, uses = ech.pivot_cols, ech.uses
    basis = []
    for free in range(matrix.cols):
        if free in pivot_cols:
            continue
        if free in uses:
            basis.append(_integer_row(ech.back_substitute({free: Fraction(1)})))
        else:
            basis.append({free: 1})
    return basis


def solve_many(matrix: SparseMatrix, rhs_list) -> list:
    """Exact solutions of matrix . x = b for several b at once.

    Each rhs is a dict {row: value}.  Returns one dict per rhs (free columns
    set to zero) or None where the system is inconsistent.  All right-hand
    sides ride along the single elimination as extra columns.  A leftover
    holds no column below `cols` (else it would be a pivot) and only nonzero
    entries, so the right-hand sides it holds are inconsistent: their columns
    are collected in one pass over the leftovers.
    """
    cols = matrix.cols
    ech = _build_echelon(matrix, rhs_list)
    inconsistent = set().union(*ech.leftovers)
    solutions = []
    for t in range(len(rhs_list)):
        aug = cols + t
        if aug in inconsistent:
            solutions.append(None)
            continue
        # row . x = rhs is row . (x, -1) = 0 over the right-hand side's column
        x = ech.back_substitute({aug: -1})
        solutions.append({c: ratio(v) for c, v in x.items() if v and c < cols})
    return solutions

