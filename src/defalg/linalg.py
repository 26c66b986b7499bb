"""Exact linear algebra over Q on sparse int rows: rank, kernels,
coordinates in a span and the nilpotency index of an algebra.

A row is a dict {column: coefficient} in the sparse kernel's form, with int
columns and int or Fraction coefficients.  `Echelon.insert` clears a row's
denominators, so every row it keeps is an int row with no stored zeros,
primitive (its entries have gcd 1, its pivot entry is positive) and pivoted
at its smallest column, and no two kept rows share a pivot (sign ledger L1).
Rows are combined with ints only; a rational appears only where a caller
reads coordinates, as Fraction(num, den) of the reduced form (ledger L2).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .core import add_into, lin_into


def _clear(row, col, kept):
    """a * row - b * kept for the coprime a > 0, b that clear `col`, where
    kept[col] > 0 and row[col] != 0."""
    a, b = kept[col], row[col]
    g = gcd(a, b)
    return add_into(add_into({}, row, a // g), kept, -b // g)


def _primitive(row, pivot):
    """`row` divided by the gcd of its entries, signed so the pivot entry
    is positive."""
    g = gcd(*row.values())
    if row[pivot] < 0:
        g = -g
    return row if g == 1 else {k: c // g for k, c in row.items()}


class Echelon:
    """An incremental row echelon form: `rows` maps each pivot column to the
    one kept row whose smallest column it is (ledger L1)."""

    def __init__(self, rows=()):
        self.rows = {}
        for row in rows:
            self.insert(row)

    def insert(self, row) -> bool:
        """Reduce `row` against the kept rows and keep it when it is
        independent of them; returns whether it was."""
        den = lcm(*[c.denominator for c in row.values()])
        r = {k: c.numerator * (den // c.denominator) for k, c in row.items() if c}
        kept = self.rows
        while r:
            pivot = min(r)
            other = kept.get(pivot)
            if other is None:
                kept[pivot] = _primitive(r, pivot)
                return True
            r = _clear(r, pivot, other)
        return False

    def reduced(self):
        """The reduced row echelon form, {pivot: int row}: each kept row with
        its entries at the other pivot columns cleared, from the largest
        pivot down.  Divided by its pivot entry, the row of a pivot is the
        unique reduced row of the row space with that pivot (ledger L2)."""
        out = {}
        for pivot in sorted(self.rows, reverse=True):
            row = self.rows[pivot]
            for col in [k for k in row if k in out]:
                row = _clear(row, col, out[col])
            out[pivot] = _primitive(row, pivot)
        return out


def rank(rows) -> int:
    """The dimension of the span of `rows`."""
    return len(Echelon(rows).rows)


def kernel_basis(rows, columns):
    """Basis of {x : sum_k row[k] x_k = 0 for every row}, x over the
    increasing int `columns`: for each free column f of the reduced form R,
    in order, x_f = 1, x_p = -R_p[f] / R_p[p] at each pivot p, and 0
    elsewhere.  Each vector is a dict {column: Fraction} in column order."""
    reduced = Echelon(rows).reduced()
    pivot_rows = sorted(reduced.items())
    basis = []
    for f in columns:
        if f in reduced:
            continue
        vec = {p: Fraction(-r[f], r[p]) for p, r in pivot_rows if f in r}
        vec[f] = Fraction(1)
        basis.append(vec)
    return basis


def express_in_span(vectors, target):
    """Coordinates c, a list of Fractions, with sum_j c_j vectors_j = target,
    or None when target is not in the span; vectors and target are dicts
    {key: coefficient}.  Of all solutions, the one that is zero at every
    free column of the reduced form of the system [vectors | target]."""
    n = len(vectors)
    equations = {}
    for j, vec in enumerate(vectors):
        for key, c in vec.items():
            equations.setdefault(key, {})[j] = c
    for key, c in target.items():
        equations.setdefault(key, {})[n] = c
    reduced = Echelon(equations.values()).reduced()
    if n in reduced:
        return None
    coords = [Fraction(0)] * n
    for p, r in reduced.items():
        coords[p] = Fraction(r.get(n, 0), r[p])
    return coords


def nilpotency_index(rows):
    """Smallest s with A^s = 0 for the series A^1 = A, A^{s+1} = A * A^s of
    the algebra whose product has the `rows` of a `core.BilinearTable`;
    None when the series does not reach 0.  Any basis of A^s serves, so
    each power is kept as the rows of an echelon, never reduced."""
    n = len(rows)
    span = [{i: 1} for i in range(n)]
    s = 1
    while span:
        if s > n:  # a nilpotent algebra of dimension n has A^{n+1} = 0
            return None
        power = Echelon()
        for row in filter(None, rows):
            for vec in span:
                prod = lin_into({}, row, vec)
                if prod:
                    power.insert(prod)
        span = list(power.rows.values())
        s += 1
    return s
