"""Sign calculus: Koszul signs, unshuffles, canonical words, symmetrization."""

import ast
import copy
import inspect
import itertools
import pathlib
import pickle
import random
from collections import Counter
from fractions import Fraction
from functools import partial
from math import comb

import pytest
import sign_oracles
from sign_oracles import (
    PolyForm,
    gerstenhaber_bullet,
    is_unshuffle,
    oracle_rows,
    parity,
    swap_rule_holds,
    symmetrize,
)

from defalg import core, linalg, scalars
from defalg.coalg import SymElement, TensorProductElement, iterated_coproduct
from defalg.core import (
    Element,
    GradedBasis,
    admitted,
    koszul_sign,
    odd,
    representatives,
    split_plan,
    sym_canonical,
    unshuffles,
)
from defalg.dgla import DGLA, ArtinDg, DtPolynomial
from defalg.errors import InputError
from defalg.freelie import NilpotentLie, TensorSeries
from defalg.gbv import GradedCommAlgebra, Polyvector
from defalg.generators import random_classical_artin, random_dgla
from defalg.lefschetz import CovectorElement, all_keys
from defalg.report import CheckReport, Violation


def oracle_koszul(degrees, images):
    """Independent oracle: sort the permuted word back by adjacent swaps,
    each swap of items of degrees (d, e) contributing (-1)^{d e}."""
    word = list(images)
    sign = 1
    changed = True
    while changed:
        changed = False
        for i in range(len(word) - 1):
            if word[i] > word[i + 1]:
                if degrees[word[i]] * degrees[word[i + 1]] % 2:
                    sign = -sign
                word[i], word[i + 1] = word[i + 1], word[i]
                changed = True
    return Fraction(sign)


def test_koszul_identity_and_swap():
    assert koszul_sign([1, 1], (0, 1)) == 1
    assert koszul_sign([1, 1], (1, 0)) == -1
    assert koszul_sign([2, 1], (1, 0)) == 1
    assert koszul_sign([3, 5], (1, 0)) == -1


def test_koszul_against_adjacent_swap_oracle():
    # worked instance: degrees [1,2,1], sigma = (3,1,2)
    assert koszul_sign([1, 2, 1], (2, 0, 1)) == oracle_koszul([1, 2, 1], (2, 0, 1))
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 6)
        degrees = [rng.randint(-2, 3) for _ in range(n)]
        images = list(range(n))
        rng.shuffle(images)
        assert koszul_sign(degrees, tuple(images)) == oracle_koszul(degrees, images)


def test_koszul_is_sign():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(1, 5)
        degrees = [rng.randint(-3, 3) for _ in range(n)]
        images = list(range(n))
        rng.shuffle(images)
        s = koszul_sign(degrees, tuple(images))
        assert s in (1, -1) and s * s == 1


def test_koszul_cocycle_property():
    # eps(sigma tau; d) = eps(sigma; d) * eps(tau; d o sigma-placement)
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randint(2, 6)
        degrees = [rng.randint(0, 3) for _ in range(n)]
        sigma = list(range(n))
        tau = list(range(n))
        rng.shuffle(sigma)
        rng.shuffle(tau)
        st = tuple(sigma[t] for t in tau)  # (sigma tau)(i) = sigma(tau(i))
        perm_degrees = [degrees[sigma[i]] for i in range(n)]
        lhs = koszul_sign(degrees, st)
        rhs = koszul_sign(degrees, tuple(sigma)) * koszul_sign(perm_degrees, tuple(tau))
        assert lhs == rhs


def test_koszul_length_mismatch():
    with pytest.raises(InputError):
        koszul_sign([1, 1, 1], (0, 1))


def test_unshuffle_counts_and_membership():
    assert unshuffles(1, 1) == [(0, 1), (1, 0)]
    assert len(unshuffles(2, 2)) == 6
    three = unshuffles(1, 2)
    assert len(three) == 3
    for u in three:
        assert is_unshuffle(u, 1)
    for p in range(0, 5):
        for q in range(0, 9 - p):
            us = unshuffles(p, q)
            assert len(us) == comb(p + q, p)
            assert len(set(us)) == len(us)
            assert all(is_unshuffle(u, p) for u in us)


def test_unshuffles_are_the_monotone_permutations():
    for p, q in [(1, 2), (2, 2), (2, 3)]:
        expected = {
            s for s in itertools.permutations(range(p + q)) if is_unshuffle(s, p)
        }
        assert set(unshuffles(p, q)) == expected


def test_unique_unshuffle_block_factorization():
    # every sigma factors uniquely as (unshuffle) o (block permutation)
    for p, q in [(1, 1), (1, 2), (2, 2), (3, 2), (2, 4)]:
        n = p + q
        blocks = []
        for rho_head in itertools.permutations(range(p)):
            for rho_tail in itertools.permutations(range(p, n)):
                blocks.append(tuple(rho_head) + tuple(rho_tail))
        seen = {}
        for tau in unshuffles(p, q):
            for rho in blocks:
                sigma = tuple(tau[r] for r in rho)
                assert sigma not in seen
                seen[sigma] = (tau, rho)
        assert len(seen) == len(list(itertools.permutations(range(n))))


def test_sym_canonical_examples():
    basis = GradedBasis.of(("x", 2), ("y", 2), ("e", 1), ("z", 0))
    deg = basis.degree
    # [y, x] both even -> ([x, y], +1)
    assert sym_canonical([1, 0], deg) == ((0, 1), 1)
    # odd repeat -> zero
    assert sym_canonical([2, 2], deg) is None
    # degrees (z:1, x:1, y:2) with fresh basis
    b2 = GradedBasis.of(("x", 1), ("y", 2), ("z", 1))
    word, sign = sym_canonical([2, 0, 1], b2.degree)
    assert word == (0, 1, 2)
    # oracle: adjacent swaps (z,x,y)->(x,z,y) [-1, odd*odd] ->(x,y,z) [+1, odd*even]
    assert sign == -1


def test_sym_canonical_idempotent_and_reorder_consistent():
    rng = random.Random(3)
    basis = GradedBasis.of(("a", 1), ("b", 2), ("c", 3), ("d", 0))
    for _ in range(100):
        n = rng.randint(1, 5)
        word = [rng.randrange(4) for _ in range(n)]
        canon = sym_canonical(word, basis.degree)
        if canon is None:
            continue
        cw, cs = canon
        again = sym_canonical(cw, basis.degree)
        assert again == (cw, 1)
        # canonicalizing any reordering agrees up to the reordering's sign
        perm = list(range(n))
        rng.shuffle(perm)
        reordered = [word[p] for p in perm]
        re_canon = sym_canonical(reordered, basis.degree)
        assert re_canon is not None
        rw, rs = re_canon
        assert rw == cw
        degs = [basis.degree(i) for i in word]
        assert rs == cs * koszul_sign(degs, tuple(perm))


def test_ext_canonical_even_repeat_is_zero():
    """Wedge words sort with twist 1 (sign ledger K2)."""
    basis = GradedBasis.of(("x", 2), ("e", 1))
    assert sym_canonical([0, 0], basis.degree, 1) is None
    assert sym_canonical([1, 1], basis.degree, 1) == ((1, 1), 1)
    word, sign = sym_canonical([1, 0], basis.degree, 1)
    assert (word, sign) == ((0, 1), -1)  # swap odd past even: parity only


def test_one_signed_sort_matches_the_sorts_it_replaced():
    """Every word of length <= 5 over a mixed-degree basis, against the old
    symmetric and wedge sorts and the raw-letter sort, and every pair of
    frames over 5 variables, against the old frame merge."""
    degrees = (0, 1, 2, 3, -1)
    deg = degrees.__getitem__
    words = 0
    for length in range(6):
        for word in itertools.product(range(len(degrees)), repeat=length):
            words += 1
            assert sym_canonical(word, deg) == sign_oracles.sym_canonical(word, deg)
            assert sym_canonical(word, deg, 1) == sign_oracles.ext_canonical(word, deg)
            assert sym_canonical(word, odd) == sign_oracles._raw_sort(word)
    assert words == sum(5**k for k in range(6))
    frames = [f for k in range(6) for f in itertools.combinations(range(5), k)]
    pairs = 0
    for f1, f2 in itertools.product(frames, repeat=2):
        canon = sym_canonical(f1 + f2, odd)
        if set(f1) & set(f2):
            assert canon is None
        else:
            pairs += 1
            assert canon == sign_oracles._merge_frames(f1, f2)
    assert pairs == 3**5


def test_exterior_sign_is_koszul_times_parity():
    """The wedge sort's sign for a permuted word of distinct letters is the
    Koszul sign times the permutation parity (sign ledger K2)."""
    degrees = [1, 2, 1, 0]
    for images in itertools.permutations(range(4)):
        word, sign = sym_canonical(images, degrees.__getitem__, 1)
        assert word == (0, 1, 2, 3)
        assert sign == koszul_sign(degrees, images) * parity(images)


def test_sign_sources_return_int():
    """Signs are int +-1, so a sign times an int coefficient stays an int."""
    basis = GradedBasis.of(("a", 1), ("b", 2), ("c", 1))
    for word in itertools.product(range(3), repeat=3):
        for degree, twist in ((basis.degree, 0), (basis.degree, 1), (odd, 0)):
            canon = sym_canonical(word, degree, twist)
            assert canon is None or type(canon[1]) is int
    degrees = [1, 2, 1, 3]
    for images in itertools.permutations(range(4)):
        assert type(koszul_sign(degrees, images)) is int
    for n in range(5):
        for k in range(n + 1):
            for parities in itertools.product((0, 1), repeat=n):
                for _, _, sign in split_plan(n, k, parities):
                    assert type(sign) is int and sign in (1, -1)


def test_int_first_stores_integral_fractions_as_int():
    terms = {0: Fraction(2), 1: Fraction(1, 2), 2: 3}
    poly = Polyvector(1, None, {((1,), ()): Fraction(-3)})
    table = {"a": Element(terms), "b": Element(), "c": poly}
    got = core.int_first(table)
    assert got == {"a": Element(terms), "c": poly}
    assert got["a"].terms is not terms and got["c"].cap == 1
    types = [type(v) for v in got["a"].terms.values()]
    assert types == [int, Fraction, int]
    assert type(got["c"].terms[((1,), ())]) is int
    # a polyvector stores its integral coefficients as ints from the start
    given = {((0,), ()): Fraction(4, 2), ((1,), ()): Fraction(1, 2)}
    halves = Polyvector(1, None, given)
    assert list(halves.terms.values()) == [2, Fraction(1, 2)]
    assert [type(c) for c in halves.terms.values()] == [int, Fraction]


def test_rref_of_an_int_matrix_is_exact():
    """Int rows reduce by int combinations, and a coordinate is a Fraction
    of two ints, never a float."""
    reduced = linalg.Echelon([{0: 2, 1: 1}]).reduced()
    assert reduced == {0: {0: 2, 1: 1}}
    assert all(type(x) is int for x in reduced[0].values())
    assert linalg.express_in_span([{0: 2, 1: 1}], {0: 1, 1: Fraction(1, 2)}) == [
        Fraction(1, 2)
    ]
    kernel = linalg.kernel_basis([{0: 2, 1: 1}, {0: 4, 1: 2}], range(2))
    assert kernel == [{0: Fraction(-1, 2), 1: 1}]
    assert all(type(x) is Fraction for x in kernel[0].values())


@pytest.mark.parametrize(
    "re, im, text",
    [
        (3, 0, "3"),
        (Fraction(-2, 3), 0, "-2/3"),
        (0, 1, "1*i"),
        (0, Fraction(-5, 2), "-5/2*i"),
        (2, 1, "2+1*i"),
        (-1, -3, "-1-3*i"),
        (Fraction(1, 2), Fraction(-1, 2), "1/2-1/2*i"),
        (0, 0, "0"),
    ],
)
def test_format_gaussian_prints_every_branch(re, im, text):
    assert scalars.format_gaussian(re, im) == text
    assert scalars.format_gaussian(Fraction(re), Fraction(im)) == text


def test_symmetrize_arity_one_and_even_product():
    basis = GradedBasis.of(("x", 0), ("y", 0), ("xy", 0))

    def f(args):
        return Element.basis_vector(args[0])

    assert symmetrize(f, (1,), [0]) == Element.basis_vector(1)

    # f(x (x) y) = xy on a commutative even algebra: f~(x (.) y) = 2xy
    def mul(args):
        a, b = args
        if {a, b} == {0, 1}:
            return Element.basis_vector(2)
        return Element()

    assert symmetrize(mul, (0, 1), [0, 0]) == Element.basis_vector(2, Fraction(2))


def test_symmetrization_lemma_instance():
    # f~ composed with g via (l, m-1)-unshuffles equals the full
    # symmetrization of the composition product f*g, on a 3-letter example
    # with m = 2, l = 2.
    basis = GradedBasis.of(("a", 1), ("b", 2), ("c", 1), ("p", 3), ("q", 2))
    deg = basis.degree
    g_degree = 0

    def g_raw(args):
        # g: tensor^2 V -> V, nonzero on a few slots
        table = {
            (0, 1): Element.basis_vector(3),
            (1, 0): Element.basis_vector(3, Fraction(2)),
            (0, 2): Element.basis_vector(4),
            (2, 0): Element.basis_vector(4, Fraction(-1)),
            (1, 2): Element.basis_vector(0),
        }
        return table.get(args, Element()).copy()

    def f_raw(args):
        # f: tensor^2 V -> V multilinear over Elements in either slot
        def pairs(x):
            return x.terms.items() if isinstance(x, Element) else [(x, Fraction(1))]

        out = Element()
        table = {(3, 2): 0, (0, 3): 1, (4, 0): 2, (0, 4): 3, (2, 3): 4, (0, 0): 2}
        for i, ci in pairs(args[0]):
            for j, cj in pairs(args[1]):
                if (i, j) in table:
                    out.add_term(table[(i, j)], ci * cj)
        return out

    letters = (0, 1, 2)
    degrees = [deg(i) for i in letters]

    # left side: full symmetrization of the composition product
    def fg(args):
        return gerstenhaber_bullet(
            f_raw, 2, g_raw, 2, g_degree, args, [deg(i) if isinstance(i, int) else 0 for i in args]
        )

    lhs = symmetrize(fg, letters, degrees)

    # right side: sum over (l, m-1) = (2, 1) unshuffles of f~(g~(..) (.) ..)
    def f_tilde(args):
        degs = []
        for a in args:
            if isinstance(a, Element):
                degs.append(a.degree(basis) + g_degree - g_degree)
            else:
                degs.append(deg(a))
        return symmetrize(f_raw, args, degs)

    def g_tilde(args):
        return symmetrize(g_raw, args, [deg(i) for i in args])

    rhs = Element()
    for u in unshuffles(2, 1):
        sign = koszul_sign(degrees, u)
        inner = g_tilde(tuple(letters[i] for i in u[:2]))
        part = f_tilde((inner, letters[u[2]]))
        for k, v in part.terms.items():
            rhs.add_term(k, v * sign)
    assert lhs == rhs


def test_block_split_signs():
    degrees = [1, 1, 2]
    signs = {front: sign for front, _, sign in split_plan(3, 1, (1, 1, 0))}
    assert signs[(0,)] == 1
    assert signs[(1,)] == -1  # move v2 past odd v1
    assert signs[(2,)] == 1  # even moves freely
    # the block arrangement [(1,), (0, 2)] is a term of the 2-slot coproduct
    basis = GradedBasis.of(("v1", 1), ("v2", 1), ("v3", 2))
    pair = iterated_coproduct(basis, (0, 1, 2), 2).terms
    assert pair[((1,), (0, 2))] == koszul_sign(degrees, (1, 0, 2)) == -1


def test_admitted_tuples_are_the_filtered_product_in_order():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(0, 6)
        weights = [rng.randint(0, 3) for _ in range(n)]
        cap = rng.randint(0, 4)
        for arity in (1, 2, 3):
            expected = [
                t
                for t in itertools.product(range(n), repeat=arity)
                if sum(weights[i] for i in t) <= cap
            ]
            assert list(admitted(n, arity, weights, cap)) == expected
        assert list(admitted(n, 2)) == list(itertools.product(range(n), repeat=2))
    with pytest.raises(InputError):
        admitted(2, 2, [0, -1], 1)


def test_representatives_are_the_admitted_tuples_ascending_at_their_slots():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(0, 6)
        weights = [rng.randint(0, 3) for _ in range(n)]
        cap = rng.randint(0, 4)
        for slots in ((0, 1, 2), (0, 2), (1, 2), ()):
            for w, c in ((weights, cap), (None, 0)):
                expected = [
                    t
                    for t in admitted(n, 3, w, c)
                    if all(t[a] <= t[b] for a, b in zip(slots, slots[1:]))
                ]
                assert list(representatives(n, 3, slots, w, c)) == expected
    with pytest.raises(InputError):
        representatives(2, 3, (0, 1, 2), [0, -1], 1)


def test_violations_run_the_whole_family_once_a_representative_fails():
    """A step whose representatives all pass adds nothing and visits no
    more; one failing representative runs the whole family in order."""
    seen = []

    def res(i):
        seen.append(i)
        return {0: 1} if i in (1, 3) else {}

    def step(reps):
        return [(i,) for i in range(5)], [("r{}", "fails", res)], reps

    assert list(core.violations(str, [step([(0,), (2,)])])) == []
    assert seen == [0, 2]
    seen.clear()
    found = core.violations(str, [step([(2,), (3,), (4,)])])
    assert [location for location, _, _ in found] == ["r1", "r3"]
    assert seen == [2, 3, 0, 1, 2, 3, 4]
    seen.clear()
    assert [location for location, _, _ in core.violations(str, [step(None)])] == [
        "r1",
        "r3",
    ]
    assert seen == [0, 1, 2, 3, 4]


def test_swap_rule_holds_on_every_pair_and_degree():
    """The oracle of the precondition of the orbit reductions: false when a
    pair breaks the swap rule, (i, i) included, or an entry is off degree."""
    deg = (0, 1, 1).__getitem__
    assert swap_rule_holds([{1: {1: 1}}, {0: {1: 1}}, {}], deg, 1)
    assert not swap_rule_holds([{1: {1: 1}}, {0: {1: 2}}, {}], deg, 1)
    assert not swap_rule_holds([{1: {1: 1}}, {}, {}], deg, 1)
    assert not swap_rule_holds([{0: {0: 1}}, {}, {}], deg, -1)  # (i, i)
    odd_square = [{}, {1: {0: 1}}, {}]
    assert not swap_rule_holds(odd_square, deg, -1)  # off degree
    assert not swap_rule_holds(odd_square, deg, 1)  # and off the swap rule
    assert swap_rule_holds([{}, {}, {}], deg, -1)


def perturbed_table(rng, degree, n, sign):
    """A seeded table over n basis indices: entries on random pairs (a
    quarter of them (i, i)), about one in six a degree off, and some stored
    in both orders, with the swap-rule sign or against it."""
    table = {}
    for _ in range(rng.randint(1, 2 * n)):
        i = rng.randrange(n)
        j = i if rng.random() < 0.25 else rng.randrange(n)
        want = degree(i) + degree(j) + (rng.random() < 0.15)
        targets = [t for t in range(n) if degree(t) == want] or [rng.randrange(n)]
        c = rng.choice((1, -2, Fraction(1, 2)))
        v = Element.basis_vector(rng.choice(targets), c)
        table[i, j] = v
        if i != j and rng.random() < 0.4:
            s = sign * (-1 if degree(i) * degree(j) % 2 else 1)
            table[j, i] = v.scale(s if rng.random() < 0.7 else -s)
    return table


def in_order(rows):
    """Rows of terms dicts as lists, so == also compares insertion order."""
    return [[(j, list(t.items())) for j, t in row.items()] for row in rows]


def assert_resolved_as_before(T, table, sign, unit=None):
    rows, cols = oracle_rows(T.basis, table, sign, unit)
    assert in_order(T.rows + T.cols) == in_order(rows + cols)


def test_rows_match_the_old_resolution_on_seeded_tables():
    """rows and cols, dict for dict and in insertion order, equal the old
    resolution through `_entries` and `_op_basis` (tests/sign_oracles.py)
    on DGLAs, Artin algebras, unital algebras whose stored unit row and
    column the unit overrides, and nilpotent Lie algebras."""
    rng = random.Random(24)
    for _ in range(40):
        L = random_dgla(rng)
        assert_resolved_as_before(L, L.table, -1)
        A = random_classical_artin(rng)
        assert_resolved_as_before(A, A.table, 1)
    # the free nilpotent Lie algebra of class 3 on x, y, with [y, x] stored
    flat = GradedBasis.of(("x", 0), ("y", 0), ("z", 0), ("u", 0), ("w", 0))
    overridden = 0
    for _ in range(20):
        a, b, c = (rng.choice((1, -3, Fraction(2, 5))) for _ in range(3))
        table = {
            (0, 1): Element.basis_vector(2, a),
            (1, 0): Element.basis_vector(2, -a),
            (0, 2): Element.basis_vector(3, b),
            (1, 2): Element.basis_vector(4, c),
        }
        assert_resolved_as_before(NilpotentLie(flat, table), table, -1)
        basis = GradedBasis.of(("1", 0), ("x", 0), ("y", 1), ("z", 1))
        table = perturbed_table(rng, basis.degree, 4, 1)
        table[0, 1] = Element.basis_vector(2)  # 1 * x = y, overridden
        R = GradedCommAlgebra(basis, table, "1")
        assert_resolved_as_before(R, table, 1, "1")
        overridden += R.rows[0][1] == {1: 1}
    assert overridden == 20


def test_swap_rule_flag_matches_the_oracle_on_perturbed_tables():
    """`BilinearTable.swap_rule`, derived from the stored entries, equals
    the oracle that recomputes every swap residual from the rows: with and
    without a unit (whose row and column override stored entries), on
    (i, i), on pairs stored in both orders, on off-degree entries, and on a
    weighted DGLA whose rule fails only on a pair past its cap."""
    rng = random.Random(25)
    seen = Counter()
    for _ in range(400):
        n = rng.randint(1, 4)
        degrees = tuple(rng.randint(0, 2) for _ in range(n))
        basis = GradedBasis(tuple(f"e{i}" for i in range(n)), degrees)
        sign = rng.choice((1, -1))
        unit = "e0" if degrees[0] == 0 and rng.random() < 0.3 else None
        table = perturbed_table(rng, basis.degree, n, sign)
        T = core.BilinearTable(basis, table, sign, unit)
        assert_resolved_as_before(T, table, sign, unit)
        flag = swap_rule_holds(T.rows, basis.degree, sign)
        assert T.swap_rule is flag, (table, sign, unit)
        kinds = {"unit"} if unit else {"no unit"}
        kinds |= {"(i, i)" for i, j in T.table if i == j}
        kinds |= {"both orders" for i, j in T.table if i != j and (j, i) in T.table}
        deg = basis.degree
        off = lambda i, j: any(deg(t) != deg(i) + deg(j) for t in T.table[i, j].terms)
        kinds |= {"off degree" for i, j in T.table if off(i, j)}
        seen.update((kind, flag) for kind in kinds)
    for kind in ("unit", "no unit", "(i, i)", "both orders"):
        assert seen[kind, True] >= 5 and seen[kind, False] >= 5, seen
    assert seen["off degree", False] >= 5, seen
    # with weights 0, 0, 5 and cap 0, [z, x] = x stored on both orders
    # breaks antisymmetry only past the cap
    basis, e = GradedBasis.of(("x", 0), ("y", 0), ("z", 0)), Element.basis_vector
    L = DGLA(basis, {(0, 1): e(2), (2, 0): e(0), (0, 2): e(0)}, {})
    assert not L.swap_rule and not swap_rule_holds(L.rows, basis.degree, -1)
    within = DGLA(basis, {(0, 1): e(2)}, {})
    assert within.swap_rule and swap_rule_holds(within.rows, basis.degree, -1)


def test_violations_run_steps_in_order_and_lazily():
    visited = []

    def family(tuples):
        for t in tuples:
            visited.append(t)
            yield t

    def odd_sum(*idx):
        return {0: Fraction(1)} if sum(idx) % 2 else {}

    steps = [
        (family([(0,), (1,), (2,)]), [("one({})", "a", odd_sum), ("also({})", "b", odd_sum)]),
        (family([(0, 1), (1, 1)]), [("two({},{})", "c", odd_sum)]),
    ]
    found = core.violations(("x", "y", "z").__getitem__, steps)
    assert next(found) == ("one(y)", "a", {0: 1})
    assert visited == [(0,), (1,)]  # nothing past the first violation yet
    assert [loc for loc, _, _ in found] == ["also(y)", "two(x,y)"]
    assert visited == [(0,), (1,), (2,), (0, 1), (1, 1)]


def test_report_violations_names_whole_words_and_shows_residuals():
    names = ("x", "y")
    word_name = lambda w: tuple(names[i] for i in w)
    residual = lambda w: {w[-1]: len(w)} if len(w) % 2 else {}
    steps = [([((0,),), ((0, 1),), ((1, 0, 1),)], [("word {}", "odd", residual)])]
    rep = core.report_violations(
        CheckReport("c"), word_name, partial(core.format_terms, names), steps
    )
    assert [(v.location, v.residual, v.message) for v in rep.violations] == [
        ("word ('x',)", "1*x", "odd"),
        ("word ('y', 'x', 'y')", "3*y", "odd"),
    ]
    assert core.format_terms(names, {1: Fraction(-1, 2), 0: 3}) == "3*x + -1/2*y"
    assert core.format_terms(names, {}) == "0"


def test_residual_builders_on_a_small_table():
    # e_0 e_1 = e_2 with e_1 e_0 stored as -e_2 (degrees 0, 1, 1)
    deg = (0, 1, 1).__getitem__
    rows, cols = core.basis_rows(
        lambda i, j: {(0, 1): {2: 1}, (1, 0): {2: -1}}.get((i, j), {}), 3
    )
    assert core.swap_residual(rows, deg, 1)(0, 1) == {2: 2}  # not commutative
    assert core.swap_residual(rows, deg, -1)(0, 1) == {}  # antisymmetric
    assert core.assoc_residual(rows, cols)(0, 0, 1) == {}
    X = {0: {1: 1}}  # degree +1 map e_0 -> e_1
    derivation = core.derivation_residual(rows, cols, deg)
    # X(e_0 e_0) - X(e_0) e_0 - e_0 X(e_0) = 0 - (-e_2) - e_2
    assert derivation(X, 1, 0, 0) == {}
    assert core.square_residual({0: {1: 1}, 1: {2: 1}})(0) == {2: 1}
    off = core.off_degree({0: {1: 1}, 1: {0: 1}}.get, deg, 1)
    assert off(0) == {} and off(1) == {0: 1}


# -- the sparse accumulate kernel ------------------------------------------------


def reference_add(d, key, c):
    """The hand-written "add, or pop on zero" step the kernel replaced."""
    val = d.get(key, 0) + c
    if val:
        d[key] = val
    else:
        d.pop(key, None)


SCALARS = {
    "Fraction": lambda rng: Fraction(rng.randint(-2, 2), rng.randint(1, 2)),
    "int": lambda rng: rng.randint(-2, 2),
}
ZEROS = {"Fraction": Fraction(0), "int": 0}


def nonzero(draw, rng):
    while True:
        c = draw(rng)
        if c:
            return c


def test_kernel_drops_cancelled_keys_and_ignores_zero():
    rng = random.Random(3)
    for kind, draw in SCALARS.items():
        c, other = nonzero(draw, rng), nonzero(draw, rng)
        d = {(0, 1): c, (1,): other}
        core.add_term(d, (0, 1), -c)
        assert d == {(1,): other}
        core.add_into(d, {(1,): other, (2, 2): c}, -1)
        assert d == {(2, 2): -c}
        core.add_into(d, {(2, 2): c})
        assert d == {}
        # adding zero, at a present or a missing key, changes nothing
        d = {(0,): c, (1,): other}
        before = list(d.items())
        for key in ((0,), (5,)):
            core.add_term(d, key, ZEROS[kind])
        core.add_into(d, {(1,): c, (6,): other}, 0)
        core.add_into(d, {(1,): ZEROS[kind], (7,): ZEROS[kind]})
        assert list(d.items()) == before, kind


def test_kernel_stores_the_callers_object_at_a_new_key():
    rng = random.Random(4)
    for draw in SCALARS.values():
        c, other = nonzero(draw, rng), nonzero(draw, rng)
        d = {(0,): other}
        core.add_term(d, (9, 9), c)
        core.add_into(d, {(8, 8): other})
        assert d[(9, 9)] is c and d[(8, 8)] is other
        assert list(d) == [(0,), (9, 9), (8, 8)]


def test_kernel_matches_reference_step_in_value_and_order():
    for kind, draw in SCALARS.items():
        for seed in range(3):
            rng = random.Random(seed)
            keys = [(i, j) for i in range(3) for j in range(2)]
            got, want, cancelled = {}, {}, 0
            for _ in range(300):
                key = rng.choice(keys)
                # a quarter of the steps cancel a present key exactly
                c = -want[key] if key in want and rng.random() < 0.25 else draw(rng)
                cancelled += key in want and not want[key] + c
                core.add_term(got, key, c)
                reference_add(want, key, c)
                assert list(got.items()) == list(want.items())
            for _ in range(60):
                terms = {rng.choice(keys): draw(rng) for _ in range(rng.randint(0, 4))}
                scale = rng.choice((1, -1, 2)) if kind == "int" else rng.choice(
                    (1, -1, Fraction(1, 2))
                )
                core.add_into(got, terms, scale)
                for k, v in terms.items():
                    cancelled += k in want and not want[k] + scale * v
                    reference_add(want, k, scale * v)
                assert list(got.items()) == list(want.items())
            assert cancelled >= 10, (kind, seed)
            assert all(got.values())


# -- tooling guard: one accumulate kernel ------------------------------------------

ACCUMULATE_ALLOWED = set()
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _functions(tree, prefix):
    """(qualified name, node) of every function in the tree, nested ones too."""
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, FUNCTIONS + (ast.ClassDef,)):
            name = f"{prefix}.{child.name}"
            if isinstance(child, FUNCTIONS):
                yield name, child
            yield from _functions(child, name)
        else:
            yield from _functions(child, prefix)


def _own_nodes(func):
    """The nodes of a function body, not descending into nested functions."""
    return _scope_nodes(func.body)


def _scope_nodes(nodes):
    """The given nodes and their descendants, skipping every function or
    lambda among them: each is a scope of its own."""
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if not isinstance(node, FUNCTIONS + (ast.Lambda,)):
            yield node
            stack.extend(ast.iter_child_nodes(node))


def _accumulates(func):
    """Whether the function reads d.get(k, ...), stores d[k] and removes d[k]
    (d.pop(k, ...) or del d[k]) for one dict expression d and key k."""
    nodes = list(_own_nodes(func))
    text = ast.unparse
    # `get = d.get` makes get(k) a read of d[k]
    getters = {
        n.targets[0].id: text(n.value.value)
        for n in nodes
        if isinstance(n, ast.Assign)
        and isinstance(n.targets[0], ast.Name)
        and isinstance(n.value, ast.Attribute)
        and n.value.attr == "get"
    }
    reads, stores, drops = set(), set(), set()
    for n in nodes:
        f = getattr(n, "func", None)
        if isinstance(f, ast.Attribute) and f.attr in ("get", "pop") and n.args:
            (reads if f.attr == "get" else drops).add((text(f.value), text(n.args[0])))
        elif isinstance(f, ast.Name) and f.id in getters and n.args:
            reads.add((getters[f.id], text(n.args[0])))
        elif isinstance(n, (ast.Assign, ast.Delete)):
            kept = stores if isinstance(n, ast.Assign) else drops
            for t in n.targets:
                if isinstance(t, ast.Subscript):
                    kept.add((text(t.value), text(t.slice)))
    return bool(reads & stores & drops)


def accumulate_steps(source, module):
    """Functions (module.qualname) that write the accumulate step by hand."""
    tree = ast.parse(source)
    return {name for name, func in _functions(tree, module) if _accumulates(func)}


def test_only_core_writes_the_accumulate_step():
    src = pathlib.Path(core.__file__).parent
    found = set()
    for path in sorted(src.glob("*.py")):
        if path.name != "core.py":
            found |= accumulate_steps(path.read_text(encoding="utf-8"), path.stem)
    assert found == ACCUMULATE_ALLOWED, sorted(found - ACCUMULATE_ALLOWED)
    # the guard sees the kernel itself and the shape of the loops it replaced
    assert accumulate_steps(pathlib.Path(core.__file__).read_text(), "core") == {
        "core.add_term",
        "core.add_into",
    }
    assert accumulate_steps(inspect.getsource(reference_add), "test") == {
        "test.reference_add"
    }
    # a nested def is its own function, not a part of the one around it
    nested = "def f(w):\n    def g(d, k, c):\n        old = d.get(k)\n"
    nested += "        d[k] = c\n        del d[k]\n    return g\n"
    assert accumulate_steps(nested, "m") == {"m.f.g"}


# -- tooling guard: one signed sort --------------------------------------------


def _negates(node):
    """Whether the statement negates a name in place: s = -s, s *= -1,
    s = s * -1 or s = -1 * s."""
    if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
        return isinstance(node.op, ast.Mult) and ast.unparse(node.value) == "-1"
    if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
        s = node.targets[0].id
        return ast.unparse(node.value) in (f"-{s}", f"{s} * -1", f"-1 * {s}")
    return False


def sign_flips_in_loops(source, module):
    """Functions (module.qualname) that negate a sign inside a loop."""
    found = set()
    for name, func in _functions(ast.parse(source), module):
        for node in _own_nodes(func):
            if isinstance(node, (ast.For, ast.While)) and any(
                _negates(n) for n in ast.walk(node)
            ):
                found.add(name)
    return found


def test_only_sym_canonical_sorts_with_a_sign():
    """No function outside core flips a sign in a loop; in core only the
    inversion count of `koszul_sign` and the one signed sort do."""
    src = pathlib.Path(core.__file__).parent
    found = set()
    for path in sorted(src.glob("*.py")):
        found |= sign_flips_in_loops(path.read_text(encoding="utf-8"), path.stem)
    assert found == {"core.koszul_sign", "core.sym_canonical"}
    # the guard sees the sorts that sym_canonical replaced ...
    assert sign_flips_in_loops(inspect.getsource(sign_oracles), "old") == {
        "old.sym_canonical",
        "old.ext_canonical",
        "old._merge_frames",
        "old._raw_sort",
    }
    # ... and the other spellings of a flip, but not a sign set in a loop
    for flip in ("s = -s", "s *= -1", "s = s * -1", "s = -1 * s"):
        body = f"def f(w):\n    s = 1\n    for x in w:\n        {flip}\n"
        assert sign_flips_in_loops(body, "m") == {"m.f"}, flip
    for other in ("s = -1", "s = -t", "s *= 2", "s = s * t"):
        body = f"def f(w):\n    s = -s\n    for x in w:\n        {other}\n"
        assert sign_flips_in_loops(body, "m") == set(), other
    nested = "def f(w):\n    def g(s):\n        for x in w:\n            s = -s\n"
    assert sign_flips_in_loops(nested, "m") == {"m.f.g"}


# -- tooling guard: one identity engine -------------------------------------------

# The functions that may add to a CheckReport inside a loop of their own, or
# call the engine there, with the reason: every per-instance check of src/
# declares its steps and reports through `core.report_violations` once.
REPORT_LOOPS_ALLOWED = {
    "core.report_violations": "the report adapter of the identity engine",
    "suite.run_suite": "reports failed suite steps, not identity instances",
}
LOOPS = (
    ast.For,
    ast.AsyncFor,
    ast.While,
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
    ast.GeneratorExp,
)
ENGINE = ("violations", "report_violations")


def _per_iteration(loop):
    """The nodes a loop evaluates on each iteration: all of its own but the
    iterable of a for loop or of a comprehension's first generator, which
    is evaluated once."""
    gens = getattr(loop, "generators", None)
    once = gens[0].iter if gens else getattr(loop, "iter", None)
    skip = {id(n) for n in _scope_nodes([once])} if once else set()
    return [n for n in _scope_nodes([loop]) if id(n) not in skip]


def report_adds_in_loops(source, module):
    """Functions (module.qualname) that call `<report>.add`, `violations` or
    `report_violations` on each iteration of a loop of their own, a
    comprehension included; a report is `rep`, `report`, a name the module
    assigns a CheckReport(...) to, or a parameter annotated CheckReport."""
    tree = ast.parse(source)
    reports = {"rep", "report"}
    for n in ast.walk(tree):
        if isinstance(n, ast.Assign) and ast.unparse(n.value).startswith("CheckReport("):
            reports |= {t.id for t in n.targets if isinstance(t, ast.Name)}
        elif isinstance(n, ast.arg) and n.annotation:
            if ast.unparse(n.annotation) == "CheckReport":
                reports.add(n.arg)

    def adds(node):
        f = getattr(node, "func", None)
        if isinstance(f, ast.Name):
            return f.id in ENGINE
        return isinstance(f, ast.Attribute) and (
            f.attr in ENGINE
            or f.attr == "add"
            and isinstance(f.value, ast.Name)
            and f.value.id in reports
        )

    return {
        name
        for name, func in _functions(tree, module)
        if any(
            isinstance(node, LOOPS) and any(map(adds, _per_iteration(node)))
            for node in _own_nodes(func)
        )
    }


def test_only_the_engine_adds_to_a_report_in_a_loop():
    """Every per-instance check reports through `core.report_violations`,
    and no check runs the engine once per iteration of a loop of its own."""
    src = pathlib.Path(core.__file__).parent
    found = set()
    for path in sorted(src.glob("*.py")):
        found |= report_adds_in_loops(path.read_text(encoding="utf-8"), path.stem)
    assert set(REPORT_LOOPS_ALLOWED) == {"core.report_violations", "suite.run_suite"}
    assert found == set(REPORT_LOOPS_ALLOWED), sorted(found ^ set(REPORT_LOOPS_ALLOWED))
    # the guard sees the hand-written loops the engine replaced ...
    old = "def check(xs):\n    rep = CheckReport('c')\n    for x in xs:\n"
    old += "        if x:\n            rep.add(f'{x}', str(x), 'fails')\n    return rep\n"
    assert report_adds_in_loops(old, "m") == {"m.check"}
    for body in (
        "    while xs:\n        out.add(xs.pop())\n",
        "    [out.add(x) for x in xs]\n",
        "    return (out.add(x) for x in xs)\n",
    ):
        head = "def f(out: CheckReport, xs):\n"
        assert report_adds_in_loops(head + body, "m") == {"m.f"}, body
    # ... and the engine run once per iteration, in a body or a comprehension
    for body in (
        "    for keys in xs:\n        report_violations(out, str, str, keys)\n",
        "    for keys in xs:\n        if any(core.violations(str, keys)):\n"
        "            break\n",
        "    while xs:\n        out = violations(str, xs.pop())\n",
        "    return [list(violations(str, s)) for s in xs]\n",
        "    return [x for s in xs for x in violations(str, s)]\n",
    ):
        assert report_adds_in_loops("def f(out, xs):\n" + body, "m") == {"m.f"}, body
    # ... but not an add outside a loop, to another value, or in a lambda,
    # nor the engine as the iterable a loop runs over
    for other in (
        "def f(xs):\n    rep = CheckReport('c')\n    rep.add('x')\n",
        "def f(xs):\n    out = set()\n    for x in xs:\n        out.add(x)\n",
        "def f(rep, xs):\n    for x in xs:\n        g = lambda: rep.add(x)\n",
        "def f(xs):\n    for loc, m, _ in violations(str, xs):\n        raise E(m)\n",
        "def f(xs):\n    return [loc for loc, _, _ in core.violations(str, xs)]\n",
        "def f(xs):\n    report_violations(CheckReport('c'), str, str, xs)\n",
    ):
        assert report_adds_in_loops(other, "m") == set(), other


# -- tooling guard: src/ keeps only routed code --------------------------------------

# A route is a CLI subcommand, a suite step, a benchmark job or an acceptance
# criterion.  The scan below checks that every function and method of
# src/defalg/ is referenced by name from src/defalg/ outside its own body,
# from the acceptance tests or from the benchmark's workloads; dunder methods
# are exempt.  The functions kept without such a reference, with the reason:
UNROUTED_ALLOWED = {
    "linfty.h_bracket_check": "the induced bracket on cohomology; its route, a "
    "subcommand with golden entries, is a later feature",
}
# routed methods whose name another class shares, reached on an object whose
# class the calling module never names (a parser returns it), so the guard
# cannot qualify the read: each with its route
OUT_OF_SIGHT = {
    "dgla.ExpDerivation.verify": "cli exp-der calls it on "
    "schemas.parse_exp_derivation(...)",
    "dgla.Homotopy.verify": "cli homotopy-eval calls it on the homotopy of "
    "schemas.parse_homotopy(...)",
    "dgla.Homotopy.eval_at": "cli homotopy-eval calls it on the homotopy of "
    "schemas.parse_homotopy(...)",
}
TESTS = pathlib.Path(__file__).parent
ROUTES = (TESTS / "test_acceptance.py", TESTS.parent / "perfbench" / "workloads.py")


def loaded_names(node, kinds=(ast.Name, ast.Attribute)):
    """Counter of the names the tree of `node` reads: names and attributes,
    or only the `kinds` given."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, kinds) and isinstance(n.ctx, ast.Load)
    )


def class_families(trees):
    """{class name: the class, its bases and its subclasses, transitively}
    over the class definitions of `trees`; a base is named by its last
    name."""
    bases = {
        node.name: {b.id if isinstance(b, ast.Name) else b.attr for b in node.bases}
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }

    def above(name):
        out, stack = set(), [name]
        while stack:
            for base in bases.get(stack.pop(), ()):
                if base not in out:
                    out.add(base)
                    stack.append(base)
        return out

    ups = {name: above(name) for name in bases}
    return {
        name: {name} | ups[name] | {sub for sub in bases if name in ups[sub]}
        for name in bases
    }


def unreferenced(sources, routes):
    """module.qualname of each function or method, dunders aside, defined in
    `sources` (module -> source) whose name neither `sources` outside the
    function's own body nor the `routes` sources read.  A method whose name
    is defined more than once is qualified by its class: only an attribute
    read in a tree that reads or defines a class of its family
    (`class_families`) reads it, so neither a namesake in another class nor
    a local variable of that name routes it."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    readers = [*trees.values(), *map(ast.parse, routes)]
    reads = [loaded_names(tree) for tree in readers]
    attributes = [loaded_names(tree, ast.Attribute) for tree in readers]
    seen = [
        set(read) | {n.name for n in ast.walk(tree) if isinstance(n, ast.ClassDef)}
        for tree, read in zip(readers, reads)
    ]
    families = class_families(trees.values())
    owner = {
        func: node.name
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for func in node.body
        if isinstance(func, FUNCTIONS)
    }
    funcs = [f for module, tree in trees.items() for f in _functions(tree, module)]
    defined = Counter(func.name for _, func in funcs)
    found = set()
    for name, func in funcs:
        if func.name.startswith("__") and func.name.endswith("__"):
            continue
        if defined[func.name] > 1 and func in owner:
            family = families[owner[func]]
            in_sight = [a for a, names in zip(attributes, seen) if family & names]
            total = sum(a[func.name] for a in in_sight)
            own = loaded_names(func, ast.Attribute)[func.name]
        else:
            total = sum(read[func.name] for read in reads)
            own = loaded_names(func)[func.name]
        if total == own:
            found.add(name)
    return found


def test_src_keeps_only_routed_code():
    """No function of src/ is reached by unit tests alone, except the
    allowlisted ones."""
    src = pathlib.Path(core.__file__).parent
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(src.glob("*.py"))}
    routes = [path.read_text(encoding="utf-8") for path in ROUTES]
    found = unreferenced(sources, routes)
    allowed = set(UNROUTED_ALLOWED) | set(OUT_OF_SIGHT)
    assert found == allowed, sorted(found ^ allowed)
    # the guard sees a function nothing reads, and a call of it from itself,
    # an annotation or a string is not a read ...
    lone = "def f(n):\n    return f(n - 1)\n\ndef g(x: 'f') -> int:\n    return 'f'\n"
    assert unreferenced({"m": lone}, []) == {"m.f", "m.g"}
    # ... but a call from another module or a route is, and so is a method
    # read as an attribute, a nested function read by the one around it or
    # a function passed by name; dunder methods are exempt
    two = {"a": "def f():\n    pass\n", "b": "from .a import f\nf()\n"}
    assert unreferenced(two, []) == set()
    assert unreferenced({"a": two["a"]}, ["from defalg.a import f\nf()\n"]) == set()
    body = "class C:\n    def __len__(self):\n        return 0\n\n"
    body += "    def size(self):\n        return 0\n\n"
    body += "def g(c):\n    def h():\n        return c.size()\n    return map(h, [c])\n"
    assert unreferenced({"m": body}, []) == {"m.g"}
    # a method named like another class's is read only where its own class,
    # a base or a subclass of it is in sight: here A.show is not, B.show is
    # (r names B), and so are Base.size and its override Sub.size (twice
    # reads self.size in lib, which defines both)
    lib = "class A:\n    def show(self):\n        pass\n\n"
    lib += "class B:\n    def show(self):\n        pass\n\n"
    lib += "class Base:\n    def size(self):\n        return 0\n\n"
    lib += "    def twice(self):\n        return 2 * self.size()\n\n"
    lib += "class Sub(Base):\n    def size(self):\n        return 1\n"
    user = "from .lib import B, Base\nB().show()\nBase().twice()\n"
    assert unreferenced({"lib": lib, "r": user}, []) == {"lib.A.show"}
    # the case of BilinearTable.show, which only test oracles called while
    # cli called TensorDgla.show
    table = "class BilinearTable:\n    def show(self):\n        pass\n\n"
    table += "class TensorDgla:\n    def show(self):\n        pass\n"
    cli = "from .dgla import TensorDgla\nM = TensorDgla()\nM.show()\n"
    assert unreferenced({"dgla": table, "cli": cli}, []) == {"dgla.BilinearTable.show"}


SIGN_PRIMITIVES = {"koszul_sign", "unshuffles"}


def sign_primitive_uses(source):
    """The names in SIGN_PRIMITIVES that the source imports, calls or reads;
    names only, so a docstring that says "unshuffles" is not a use."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found |= {a.name.rpartition(".")[2] for a in node.names}
        elif isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found & SIGN_PRIMITIVES


def test_only_core_computes_koszul_signs_and_unshuffles():
    """Every other module reads its splits and signs from `split_plan` or
    the canonical-word functions."""
    src = pathlib.Path(core.__file__).parent
    found = {}
    for path in sorted(src.glob("*.py")):
        uses = sign_primitive_uses(path.read_text(encoding="utf-8"))
        if uses and path.name != "core.py":
            found[path.stem] = sorted(uses)
    assert found == {}
    assert sign_primitive_uses(pathlib.Path(core.__file__).read_text()) == SIGN_PRIMITIVES
    assert sign_primitive_uses('"""sums over unshuffles"""\n') == set()
    assert sign_primitive_uses("from .core import koszul_sign as k\n") == {"koszul_sign"}
    assert sign_primitive_uses("from . import core\ncore.unshuffles(1, 2)\n") == {
        "unshuffles"
    }


# -- tooling guard: no float division --------------------------------------------

# `/` on two ints is a float: src/ divides only through a Fraction or by //
DIVISION_ALLOWED = set()


def divisions(source, module):
    """The scopes (module.qualname) that hold a true division `/` or `/=`;
    a lambda belongs to the function around it, top-level code to the
    module."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.BinOp, ast.AugAssign)) and isinstance(
                child.op, ast.Div
            ):
                found.add(scope)
            named = isinstance(child, FUNCTIONS + (ast.ClassDef,))
            visit(child, f"{scope}.{child.name}" if named else scope)

    visit(ast.parse(source), module)
    return found


def test_only_fraction_routed_functions_divide():
    src = pathlib.Path(core.__file__).parent
    found = set()
    for path in sorted(src.glob("*.py")):
        found |= divisions(path.read_text(encoding="utf-8"), path.stem)
    assert found == DIVISION_ALLOWED, sorted(found ^ DIVISION_ALLOWED)
    # the guard sees every spelling and place of a division, but not //
    body = "x = 1 / 2\nclass C:\n    def f(self, a):\n        a /= 2\n"
    body += "        def g(b):\n            return lambda: b / 2\n"
    body += "        return a // 2\n"
    assert divisions(body, "m") == {"m", "m.C.f", "m.C.f.g"}
    assert divisions("def f(a):\n    return a // 2\n", "m") == set()


# -- the one sparse vector class -------------------------------------------------

B2 = GradedBasis.of(("a", 0), ("b", 1))
B3 = GradedBasis.of(("a", 0), ("b", 1), ("c", 2))
T2 = GradedBasis.of(("t", 0), ("t2", 0))
ART = ArtinDg(T2, {(0, 0): Element.basis_vector(1)}, {})
ART1 = ArtinDg(GradedBasis.of(("s", 0),), {}, {})
FRAMES = [(), (0,), (1,), (0, 1)]


def _word(rng, longest):
    return tuple(rng.randint(0, 1) for _ in range(rng.randint(0, longest)))


def _poly_key(rng):
    mono = (rng.randint(0, 1), rng.randint(0, 2))
    return mono, rng.choice(FRAMES)


# class: (build(terms) in the base context, draw a key, draw a coefficient,
# another value for each context field, the fields == compares)
SPARSE = {
    Element: (Element, lambda rng: rng.randint(0, 5), None, {}, ()),
    SymElement: (
        lambda t: SymElement(B2, t),
        lambda rng: tuple(sorted(_word(rng, 3))),
        None,
        {"basis": B3},
        (),
    ),
    TensorProductElement: (
        lambda t: TensorProductElement(B2, 2, t),
        lambda rng: (_word(rng, 1), _word(rng, 2)),
        None,
        {"basis": B3, "slots": 3},
        ("slots",),
    ),
    TensorSeries: (
        lambda t: TensorSeries(("x", "y"), 4, t),
        lambda rng: _word(rng, 4),
        None,
        {"gens": ("x", "z"), "order": 5},
        ("gens", "order"),
    ),
    Polyvector: (lambda t: Polyvector(2, 3, t), _poly_key, None, {"nvars": 3, "cap": 7},
                 ("nvars",)),
    PolyForm: (lambda t: PolyForm(2, t), _poly_key, None, {"nvars": 3}, ()),
    CovectorElement: (
        lambda t: CovectorElement(2, t),
        lambda rng: (rng.choice(all_keys(2)[:6]), rng.randint(0, 1)),
        None,
        {"n": 3},
        ("n",),
    ),
    DtPolynomial: (
        lambda t: DtPolynomial(ART, t),
        lambda rng: (rng.randint(0, 1), rng.randint(0, 2), rng.random() < 0.5),
        None,
        {"B": ART1},
        (),
    ),
}


def sparse_values(cls, rng, count):
    """`count` seeded values of the class in its base context; every other
    one repeats a term of the one before, so that differences cancel."""
    build, key, coeff, _, _ = SPARSE[cls]
    coeff = coeff or (lambda rng: Fraction(rng.randint(-2, 2), rng.randint(1, 2)))
    out = []
    for i in range(count):
        terms = {key(rng): coeff(rng) for _ in range(rng.randint(0, 6))}
        if i % 2 and out and out[-1].terms:
            k = rng.choice(list(out[-1].terms))
            terms[k] = out[-1].terms[k]
        out.append(build(terms))
    return out


def with_field(x, field, value):
    y = x.copy()
    setattr(y, field, value)
    return y


def old_sum(x, y, c):
    """x + c y, for c = 1 or -1, as every class computed it before `Element`
    held the arithmetic: copy the left terms, add the right ones by the
    reference step and keep the left context; Polyvector took the larger
    cap, and the old `Polyvector.__sub__` added `other.scale(-1)`."""
    cls = type(x)
    terms = dict(x.terms)
    for k, v in y.terms.items():
        reference_add(terms, k, v * c if cls is Polyvector else c * v)
    if cls is Polyvector:
        return terms, {"nvars": x.nvars, "cap": max(x.cap, y.cap)}
    return terms, {f: getattr(x, f) for f in SPARSE[cls][3]}


def old_scale(x, c):
    """x.scale(c) as every class computed it."""
    return {k: v * c for k, v in x.terms.items() if v * c}


def test_sparse_classes_compare_exactly_their_fields():
    rng = random.Random(11)
    for cls, (_, _, _, others, compared) in SPARSE.items():
        x = sparse_values(cls, rng, 1)[0]
        assert x == x.copy() and type(x.copy()) is cls
        for field, value in others.items():
            y = with_field(x, field, value)
            assert (x == y) is (field not in compared), (cls, field)
            for op in (lambda a, b: a + b, lambda a, b: a - b):
                if field in compared:
                    with pytest.raises(InputError):
                        op(x, y)
                    continue
                z = op(x, y)
                # the left operand's context, except the larger Polyvector cap
                want = max(x.cap, y.cap) if field == "cap" else getattr(x, field)
                assert type(z) is cls and getattr(z, field) == want, (cls, field)
                assert getattr(op(y, x), field) == getattr(y, field) or field == "cap"
    # examples: forms on other variable counts and polyvectors under other
    # caps are equal; an Element is not a SymElement with the same terms
    zx = {((1, 0), (0,)): 1}
    assert PolyForm(2, zx) == PolyForm(3, zx)
    assert Polyvector(2, 3, zx) == Polyvector(2, 5, zx)
    assert Polyvector(2) != Polyvector(3)
    assert (Polyvector(2, 1) + Polyvector(2, 4)).cap == 4
    assert (Polyvector(2, 4) - Polyvector(2, 1)).cap == 4
    t = {(0,): Fraction(1)}
    assert Element(t) != SymElement(B2, t) and SymElement(B2, t) != Element(t)
    assert SymElement(B2, t) == SymElement(B3, t)
    assert TensorSeries(("x",), 2, t) != TensorSeries(("x",), 3, t)


def test_sparse_arithmetic_matches_the_old_per_class_code():
    for cls in SPARSE:
        rng = random.Random(f"sparse:{cls.__name__}")
        values = sparse_values(cls, rng, 40)
        cancelled = 0
        for x, y in zip(values, values[1:]):
            for got, c in ((x + y, 1), (x - y, -1)):
                terms, context = old_sum(x, y, c)
                assert type(got) is cls
                assert list(got.terms.items()) == list(terms.items()), cls
                assert {f: getattr(got, f) for f in context} == context
                cancelled += len(terms) < len(set(x.terms) | set(y.terms))
            for c in (2, Fraction(-1, 3), -1):
                got = x.scale(c)
                assert type(got) is cls
                assert list(got.terms.items()) == list(old_scale(x, c).items())
            zero = x.scale(0)
            assert type(zero) is cls and zero.terms == {} and zero.is_zero()
            assert list((-x).terms.items()) == [(k, -v) for k, v in x.terms.items()]
            copied = x.copy()
            assert copied == x and copied.terms is not x.terms
            for field in SPARSE[cls][3]:
                for z in (zero, -x, copied):
                    assert getattr(z, field) is getattr(x, field)
        assert cancelled >= 10, cls


# -- tooling guard: one sparse vector class ------------------------------------------

SHARED_ARITHMETIC = {
    "__add__", "__sub__", "__neg__", "__eq__", "__hash__", "is_zero", "copy"
}


def shared_arithmetic(source, module):
    """module.Class.name of each method in SHARED_ARITHMETIC a class of the
    source defines or assigns in its body."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, FUNCTIONS):
                    names = {item.name}
                elif isinstance(item, ast.Assign):
                    names = {t.id for t in item.targets if isinstance(t, ast.Name)}
                else:
                    continue
                for name in names & SHARED_ARITHMETIC:
                    found.add(f"{module}.{node.name}.{name}")
    return found


def test_only_element_defines_the_shared_arithmetic():
    src = pathlib.Path(core.__file__).parent
    found = set()
    for path in sorted(src.glob("*.py")):
        if path.name != "core.py":
            found |= shared_arithmetic(path.read_text(encoding="utf-8"), path.stem)
    # besides Element, only the record classes compare (and GradedBasis
    # hashes) by their fields; any other copy fails the exact sets
    assert found == {"report.Violation.__eq__", "report.CheckReport.__eq__"}, sorted(found)
    # the guard sees Element's methods and a copied method or alias
    assert shared_arithmetic(pathlib.Path(core.__file__).read_text(), "core") == {
        f"core.Element.{name}" for name in SHARED_ARITHMETIC
    } | {"core.GradedBasis.__eq__", "core.GradedBasis.__hash__"}
    copied = "class V:\n    def is_zero(self):\n        return not self.terms\n"
    assert shared_arithmetic(copied, "m") == {"m.V.is_zero"}
    assert shared_arithmetic("class V:\n    __hash__ = None\n", "m") == {"m.V.__hash__"}


def test_record_classes_keep_their_value_semantics():
    """GradedBasis, Violation and CheckReport compare by their fields, as
    the dataclasses they replace did; the reprs are those dataclasses'."""
    basis = GradedBasis(("x", "y"), (0, 1))
    same = GradedBasis.of(("x", 0), ("y", 1))
    assert basis is not same and basis == same and hash(basis) == hash(same)
    assert basis != GradedBasis(("x", "y"), (0, 2)) and basis != ("x", "y")
    for field in ("names", "degrees"):
        with pytest.raises(AttributeError):
            setattr(basis, field, ())
        with pytest.raises(AttributeError):
            delattr(basis, field)
    assert basis.index("y") == 1
    assert copy.deepcopy(basis) == basis == pickle.loads(pickle.dumps(basis))
    assert repr(basis) == "GradedBasis(names=('x', 'y'), degrees=(0, 1))"

    first, second = CheckReport("x"), CheckReport("x")
    assert first == second and first.violations is not second.violations
    first.add("jacobi", Fraction(1, 2), "fails")
    assert second.violations == [] and first != second
    second.add("jacobi", "1/2", "fails")
    assert first == second and first != CheckReport("y", list(first.violations))
    assert Violation("a", "b", "c") == Violation("a", "b", "c") != Violation("a", "b", "d")
    for value in (first, first.violations[0]):
        with pytest.raises(TypeError):
            hash(value)
    assert repr(CheckReport("x")) == (
        "CheckReport(command='x', violations=[], witness=None, info=None, timing_ms=None)"
    )
    first.witness, first.info, first.timing_ms = {"a": [1]}, {"n": 2}, 1.5
    assert repr(first) == (
        "CheckReport(command='x', violations=[Violation(location='jacobi', "
        "residual='1/2', message='fails')], witness={'a': [1]}, info={'n': 2}, "
        "timing_ms=1.5)"
    )


# -- tooling guard: the CLI reads no input document itself -------------------


def input_reads(source):
    """The private `schemas` names the source uses and the `.get(` calls it
    makes: the marks of a handler that reads an input document by hand."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "schemas":
            found |= {f"schemas.{a.name}" for a in node.names if a.name.startswith("_")}
        elif isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            if isinstance(node.value, ast.Name) and node.value.id == "schemas":
                found.add(f"schemas.{node.attr}")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr == "get":
                found.add(f"{ast.unparse(node.func.value)}.get")
    return found


def test_cli_reads_every_input_document_through_schemas():
    from defalg import cli

    assert input_reads(pathlib.Path(cli.__file__).read_text(encoding="utf-8")) == set()
    # the guard sees the shapes of the reads that moved into schemas
    old = (
        "from .schemas import _field\n"
        "def cmd(args, data):\n"
        "    degree = schemas._int_field(data, 'degree', 'problem')\n"
        "    for entry in data.get('element', []):\n"
        "        pass\n"
    )
    assert input_reads(old) == {"schemas._field", "schemas._int_field", "data.get"}
