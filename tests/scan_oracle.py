"""Scan-based reference loops for the indexed hot loops of ckcoh.

`ScanEchelon` is an `Echelon` whose `reduce` visits every pivot for every row
and whose `back_substitute` visits every pivot in reverse creation order.
`scan_cocycle_system`, `scan_cocycle_defect` and `scan_jacobi_residual`
evaluate the cyclic sum on every one of the C(r,3) generator triples with
three `bracket` reads each.  These are the plain full walks; the library's
pivot-, use- and entry-indexed versions must give the same results, so the
tests compare them exactly.

The loops that the lookups between the block-0 kernel and the payload
replaced are kept here as they were: `scan_nullspace` back-substitutes
every free column, `scan_solve_many` scans every leftover for each
right-hand side, `scan_coboundary_pairs` tests every bracket of
`constants` for a touched character, `scan_write_cocycle` takes each alpha
weight from `OmegaVector.product`, `scan_read_basic` makes and sorts all
five fields, and `scan_fill_rows` fills each row by a comprehension.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd

from ckcoh.cochains import pair_count
from ckcoh.cohomology import _coboundary
from ckcoh.extensions import _FIELDS, _readings
from ckcoh.rationals import ratio
from ckcoh.sparse import Echelon, SparseMatrix, _build_echelon, _integer_row, _strip_gcd

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

    def back_substitute(self, assignment: dict) -> dict:
        x = dict(assignment)
        for col, prow in reversed(self.pivots):
            s = Fraction(0)
            for c, v in prow.items():
                if c == col:
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


def scan_nullspace(matrix, max_rank=None):
    """The kernel basis with every free column back-substituted."""
    ech = _build_echelon(matrix, max_rank=max_rank)
    return [
        _integer_row(ech.back_substitute({free: Fraction(1)}))
        for free in range(matrix.cols)
        if free not in ech.pivot_cols
    ]


def scan_solve_many(matrix, rhs_list):
    """`solve_many` with every leftover scanned for each right-hand side."""
    cols = matrix.cols
    ech = _build_echelon(matrix, rhs_list)
    solutions = []
    for t in range(len(rhs_list)):
        aug = cols + t
        if any(row.get(aug) for row in ech.leftovers):
            solutions.append(None)
            continue
        x = ech.back_substitute({aug: -1})
        solutions.append({c: ratio(v) for c, v in x.items() if v and c < cols})
    return solutions


def scan_coboundary_pairs(algebra, cochains):
    """The rows `are_coboundaries` solves, by a test of every bracket of `constants`."""
    chars = algebra._chars or (0,) * algebra.dim
    rows = {pair for xi in cochains for pair in xi.entries}
    touched = {chars[i] ^ chars[j] for i, j in rows}
    rows.update(p for p in algebra.constants if chars[p[0]] ^ chars[p[1]] in touched)
    return sorted(rows)


def scan_write_cocycle(basis, omega, coeffs, table):
    """`_write_cocycle` with every alpha weight a fresh `omega.product`."""
    J, P, b = basis._j, basis.pair_count, basis.b
    mu = {J[pair]: v for pair, v in coeffs.eta.items()}
    mu.update({P + J[pair]: v for pair, v in coeffs.tau.items()})
    entries = _coboundary(table, mu) if mu else {}
    w = omega.product

    def put(i, jj, value):
        if value:
            entries[(i, jj)] = entries.get((i, jj), 0) + value

    for s, al in coeffs.alpha.items():
        right = [(bb, w(s, bb)) for bb in range(s, basis.N + 1)]
        for a in range(s):
            w_left = w(a, s - 1)
            for bb, w_right in right:
                k = J[a, bb]
                put(k, P + k, w_left * w_right * al)
    for (k, l), v in coeffs.beta.items():
        put(b(k), b(l), v)
    for k, v in coeffs.gamma.items():
        put(b(k), basis.i(), v)
    return entries


def scan_read_basic(algebra, xi):
    """The readings of a cochain, all five fields made and sorted."""
    readings = _readings(algebra.ck_basis())
    fields = {name: {} for name, _ in _FIELDS}
    for pair, v in xi.entries.items():
        if reading := readings.get(pair):
            name, key, scale = reading
            fields[name][key] = ratio(v * scale)
    return {name: dict(sorted(table.items())) for name, table in fields.items()}


def scan_fill_rows(coded, values):
    """Block-0 rows filled at code values by a comprehension per row."""
    out = []
    for cols, codes in coded:
        row = {c: v for c, k in zip(cols, codes) if (v := values[k])}
        if row:
            out.append(row)
    return out
