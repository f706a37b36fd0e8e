"""Scan-based reference loops for the indexed hot loops of ckcoh.

`ScanEchelon` is an `Echelon` whose `reduce` visits every pivot for every row
and whose `back_substitute` visits every pivot in reverse creation order.
`scan_cocycle_system`, `scan_cocycle_defect` and `scan_jacobi_residual`
evaluate the cyclic sum on every one of the C(r,3) generator triples with
three `bracket` reads each.  These are the plain full walks; the library's
pivot-, use- and entry-indexed versions must give the same results, so the
tests compare them exactly.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd

from ckcoh.cochains import pair_count
from ckcoh.rationals import ratio
from ckcoh.sparse import Echelon, SparseMatrix, _strip_gcd

from pair_vectors import pair_index


class ScanEchelon(Echelon):
    """Echelon with the index walks replaced by scans over all pivots."""

    def reduce(self, row: dict) -> dict:
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

    def back_substitute(self, assignment: dict, aug: int | None = None) -> dict:
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


def scan_cocycle_system(algebra) -> SparseMatrix:
    """The cocycle system as one row per non-empty triple of a C(r,3) loop."""
    r = algebra.dim
    cols = pair_count(r)
    rows = []
    for i in range(r):
        for j in range(i + 1, r):
            for l in range(j + 1, r):
                row = {}
                for (x, y), z in (((i, j), l), ((j, l), i), ((l, i), j)):
                    for k, c in algebra.bracket(x, y):
                        if k == z:
                            continue
                        if k < z:
                            col, val = pair_index(r, k, z), c
                        else:
                            col, val = pair_index(r, z, k), -c
                        nv = row.get(col, 0) + val
                        if nv:
                            row[col] = nv
                        else:
                            del row[col]
                if row:
                    rows.append(row)
    matrix = SparseMatrix(len(rows), cols)
    matrix.data[:] = rows
    return matrix


def scan_cocycle_defect(algebra, xi):
    """Largest |violation| of the cocycle condition over all triples."""
    worst = 0
    for x, y, z in combinations(range(algebra.dim), 3):
        s = 0
        for (p, q), w in (((x, y), z), ((y, z), x), ((z, x), y)):
            for k, c in algebra.bracket(p, q):
                v = xi.get(k, w)
                if v:
                    s += c * v
        if s and abs(s) > worst:
            worst = abs(s)
    return worst


def scan_jacobi_residual(algebra):
    """Largest |cyclic Jacobi sum| over all triples."""
    bracket = algebra.bracket
    worst = 0
    for x, y, z in combinations(range(algebra.dim), 3):
        acc = {}
        for (p, q), w in (((x, y), z), ((y, z), x), ((z, x), y)):
            for k, c in bracket(p, q):
                for m, d in bracket(k, w):
                    acc[m] = acc.get(m, 0) + c * d
        for v in acc.values():
            if v and abs(v) > worst:
                worst = abs(v)
    return ratio(worst)
