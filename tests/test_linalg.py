"""The sparse integer echelon of `defalg.linalg` against the dense Fraction
routes it replaced (`tests/sign_oracles.py`), value for value: rank,
kernel bases, solutions, coordinates in a span and nilpotency indices."""

import random
from fractions import Fraction
from math import gcd

import pytest

from sign_oracles import dense_nilpotency_index
from sign_oracles import express_in_span as dense_express_in_span
from sign_oracles import in_span as dense_in_span
from sign_oracles import kernel_basis as dense_kernel_basis
from sign_oracles import rank as dense_rank
from sign_oracles import rref as dense_rref
from sign_oracles import solve as dense_solve

from defalg import linalg
from defalg.core import Element
from defalg.dgla import ArtinDg
from defalg.generators import random_classical_artin

INTS = (0, 0, 0, 1, -1, 2, -3, 6)
RATIONALS = (0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4))


def _matrices():
    """Empty and zero matrices, then seeded int and Fraction matrices up to
    5 x 5, every third with a last row that is a combination of the first
    two (rank-deficient)."""
    rng = random.Random(26)
    out = [[], [[]], [[], []], [[0, 0, 0]], [[0, 0], [0, 0]], [[2, 1], [4, 2]]]
    for t in range(300):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        pool = INTS if t % 2 else RATIONALS
        matrix = [[rng.choice(pool) for _ in range(n)] for _ in range(m)]
        if t % 3 == 0 and m > 2:
            a, b = rng.choice(pool) or 1, rng.choice(pool)
            matrix[-1] = [a * x + b * y for x, y in zip(matrix[0], matrix[1])]
        out.append(matrix)
    return out


def _dense(vec, n):
    return [vec.get(k, Fraction(0)) for k in range(n)]


def _all_fractions(values):
    return all(type(c) is Fraction for c in values)


def test_rank_and_kernel_match_the_dense_oracle():
    for matrix in _matrices():
        n = len(matrix[0]) if matrix else 0
        rows = [dict(enumerate(r)) for r in matrix]  # stored zeros included
        assert linalg.rank(rows) == dense_rank(matrix)
        kernel = linalg.kernel_basis(rows, range(n))
        assert [_dense(v, n) for v in kernel] == dense_kernel_basis(matrix)
        assert all(_all_fractions(v.values()) and list(v) == sorted(v) for v in kernel)


def test_solutions_and_coordinates_match_the_dense_oracle():
    """Consistent, inconsistent and zero right-hand sides; free variables
    are zero in both routes."""
    rng = random.Random(27)
    outcomes = set()
    for matrix in _matrices():
        m, n = len(matrix), len(matrix[0]) if matrix else 0
        columns = [{i: matrix[i][j] for i in range(m)} for j in range(n)]
        x = [rng.choice(RATIONALS) for _ in range(n)]
        consistent = [sum(a * b for a, b in zip(row, x)) for row in matrix]
        for rhs in (consistent, [rng.choice(INTS) for _ in range(m)], [0] * m):
            target = dict(enumerate(rhs))
            got = linalg.express_in_span(columns, target)
            assert got == dense_solve(matrix, rhs)
            dense_columns = [[row[j] for row in matrix] for j in range(n)]
            assert got == dense_express_in_span(dense_columns, rhs)
            assert got is None or _all_fractions(got)
            outcomes.add(got is None)
    assert outcomes == {True, False}


def test_echelon_rows_keep_their_invariants():
    """Kept and reduced rows are int, primitive, zero-free and pivoted at
    their smallest column with a positive entry (sign ledger L1); each
    insert reports whether the row lies outside the span of the rows before
    it, as the dense `in_span` did for cohomology; the reduced rows divided
    by their pivot entries are the rows of the dense rref (ledger L2)."""
    for matrix in _matrices():
        n = len(matrix[0]) if matrix else 0
        echelon = linalg.Echelon()
        for i, row in enumerate(matrix):
            grew = echelon.insert(dict(enumerate(row)))
            assert grew == (not dense_in_span(matrix[:i], row))
        reduced = echelon.reduced()
        for rows in (echelon.rows, reduced):
            for pivot, row in rows.items():
                assert pivot == min(row) and row[pivot] > 0
                assert all(type(c) is int and c for c in row.values())
                assert gcd(*row.values()) == 1
        rref_rows, pivots = dense_rref(matrix)
        assert sorted(reduced) == pivots
        for r, p in enumerate(pivots):
            row = reduced[p]
            assert [Fraction(row.get(k, 0), row[p]) for k in range(n)] == rref_rows[r]


def test_nilpotency_index_matches_the_dense_oracle():
    """Seeded `random_classical_artin` algebras, each with a twin whose
    table has one entry edited (sometimes by a Fraction) and a twin with
    e_i e_i = e_i, which is not nilpotent (index None)."""
    rng = random.Random(28)
    indices = []
    for _ in range(150):
        A = random_classical_artin(rng)
        n = len(A.basis)
        table = dict(A.table)
        key = (rng.randrange(n), rng.randrange(n))
        edit = Element.basis_vector(rng.randrange(n), rng.choice((-1, 2, Fraction(1, 2))))
        table[key] = table.get(key, Element()) + edit
        i = rng.randrange(n)
        idempotent = {**A.table, (i, i): Element.basis_vector(i)}
        for B in (A, ArtinDg(A.basis, table, {}), ArtinDg(A.basis, idempotent, {})):
            index = linalg.nilpotency_index(B.rows)
            assert index == dense_nilpotency_index(B)
            indices.append(index)
    assert indices.count(None) >= 150
    assert {2, 3, 4} <= set(indices)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_nilpotency_index_at_its_bound(n):
    """x Q[x] / (x^{n+1}), with basis x, ..., x^n, has dimension n and
    index n + 1, the largest a nilpotent algebra of dimension n can have;
    an idempotent e e = e is not nilpotent."""
    rows = [{j: {i + j + 1: 1} for j in range(n - i - 1)} for i in range(n)]
    assert linalg.nilpotency_index(rows) == n + 1
    assert linalg.nilpotency_index([{0: {0: 1}}]) is None
