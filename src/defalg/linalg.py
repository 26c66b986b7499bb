"""Exact rational linear algebra: row echelon, kernel, image, solving.

Matrices are lists of lists of rationals, each an int or a Fraction (dense;
every space in scope is tiny).  Division happens only at the pivot of
`rref`, through a Fraction, so an int matrix never yields a float.  No
pivoting heuristics are needed over Q.
"""

from __future__ import annotations

from fractions import Fraction


def rref(matrix):
    """Reduced row echelon form; returns (rref_rows, pivot_columns)."""
    rows = [list(r) for r in matrix]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = Fraction(rows[r][c])
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank(matrix) -> int:
    return len(rref(matrix)[1])


def kernel_basis(matrix):
    """Basis of the right kernel {x : M x = 0}; each vector a list."""
    if not matrix:
        return []
    ncols = len(matrix[0])
    rows, pivots = rref(matrix)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][fc]
        basis.append(vec)
    return basis


def solve(matrix, rhs):
    """One solution x of M x = b, or None when inconsistent."""
    if not matrix:
        return None if any(rhs) else []
    ncols = len(matrix[0])
    aug = [list(row) + [b] for row, b in zip(matrix, rhs)]
    rows, pivots = rref(aug)
    for r in rows:
        if all(x == 0 for x in r[:ncols]) and r[ncols] != 0:
            return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        if pc == ncols:
            return None
        x[pc] = rows[r][ncols]
    return x


def in_span(vectors, target) -> bool:
    """Is `target` a linear combination of `vectors`?"""
    if not vectors:
        return all(x == 0 for x in target)
    matrix = [[vec[i] for vec in vectors] for i in range(len(target))]
    return solve(matrix, list(target)) is not None


def express_in_span(vectors, target):
    """Coefficients c with sum c_j vectors_j = target, or None."""
    if not vectors:
        return [] if all(x == 0 for x in target) else None
    matrix = [[vec[i] for vec in vectors] for i in range(len(target))]
    return solve(matrix, list(target))
