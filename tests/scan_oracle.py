"""Scan-based reference loops for the indexed hot loops of ckcoh.

`ScanEchelon` is an `Echelon` whose `reduce` visits every pivot for every row
and whose `back_substitute` visits every pivot in reverse creation order.
`scan_cocycle_defect` evaluates the cocycle condition on every triple that
touches a nonzero bracket.  These are the plain full walks; the library's
pivot-, use- and entry-indexed versions must give the same results, with the
same arithmetic in the same order, so the tests compare them exactly.
"""

from fractions import Fraction
from math import gcd

from ckcoh.algebra import touching_triples
from ckcoh.sparse import Echelon, _strip_gcd


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


def scan_cocycle_defect(algebra, xi):
    """Largest |violation| of the cocycle condition over the touching triples."""
    worst = 0
    for x, y, z in touching_triples(algebra):
        s = 0
        for (p, q), w in (((x, y), z), ((y, z), x), ((z, x), y)):
            for k, c in algebra.bracket(p, q):
                v = xi.get(k, w)
                if v:
                    s += c * v
        if s and abs(s) > worst:
            worst = abs(s)
    return worst
