"""Reduced symmetric coalgebra: coproduct laws, the symmetric-tensor
embedding, coderivation and morphism lifting."""

import itertools
import random
from collections import Counter
from fractions import Fraction
from math import factorial

import pytest
from sign_oracles import recursive_all_words

from defalg import coalg
from defalg.coalg import (
    CoalgMorphism,
    Coderivation,
    ComponentMap,
    SymElement,
    TensorProductElement,
    all_words,
    coder_lift,
    compose_morphisms,
    coproduct,
    iterated_coproduct,
    n_map,
    tensor_coproduct_reduced,
    word_counts,
    word_degree,
)
from defalg.core import Element, GradedBasis, koszul_sign, split_plan, sym_canonical
from defalg.errors import DomainError, InputError
from defalg.gbv import gbv_linfty_structures, polyvector_gbv, product_components
from defalg.models import exterior_gbv
from defalg import linalg

F = Fraction

MIXED = GradedBasis.of(("a", 1), ("b", 2), ("c", 1), ("d", 0))
EVEN = GradedBasis.of(("x", 0), ("y", 2))
ODD = GradedBasis.of(("e1", 1), ("e2", 1))


def e(i, c=1):
    return Element.basis_vector(i, F(c))


def test_coproduct_single_letter_vanishes():
    assert coproduct(MIXED, (0,)).is_zero()
    assert coproduct(MIXED, (2,)).is_zero()


def test_coproduct_two_even_letters():
    out = coproduct(EVEN, (0, 1))
    assert out.terms == {((0,), (1,)): 1, ((1,), (0,)): 1}


def test_coproduct_two_odd_letters():
    out = coproduct(ODD, (0, 1))
    assert out.terms == {((0,), (1,)): 1, ((1,), (0,)): -1}


def test_coassociativity_and_cocommutativity():
    for word in all_words(MIXED, 4):
        # (l (x) id) l == (id (x) l) l == iterated 3-slot coproduct
        base = coproduct(MIXED, word)
        left = TensorProductElement(MIXED, 3)
        right = TensorProductElement(MIXED, 3)
        for (lw, rw), c in base.terms.items():
            for (a, b), c2 in coproduct(MIXED, lw).terms.items():
                left.add_term((a, b, rw), c * c2)
            for (a, b), c2 in coproduct(MIXED, rw).terms.items():
                right.add_term((lw, a, b), c * c2)
        assert left == right
        triple = iterated_coproduct(MIXED, word, 3)
        assert left == triple
        # T l = l
        twisted = TensorProductElement(MIXED, 2)
        for (lw, rw), c in base.terms.items():
            sign = (
                -1
                if (word_degree(MIXED, lw) * word_degree(MIXED, rw)) % 2
                else 1
            )
            twisted.add_term((rw, lw), c * sign)
        assert twisted == base


def test_kernel_of_coproduct_is_v():
    # on the span of words of length 2..4 the coproduct has zero kernel
    words = [w for w in all_words(MIXED, 4) if len(w) >= 2]
    col_keys = {}
    matrix = []
    cols = []
    for w in words:
        img = coproduct(MIXED, w)
        col = {}
        for key, c in img.terms.items():
            col_keys.setdefault(key, len(col_keys))
            col[col_keys[key]] = c
        cols.append(col)
    nrows = len(col_keys)
    matrix = [[cols[j].get(r, F(0)) for j in range(len(words))] for r in range(nrows)]
    rows = [dict(enumerate(r)) for r in matrix]
    assert linalg.kernel_basis(rows, range(len(words))) == []


def test_n_map_basics():
    assert n_map(MIXED, (1,)) == {(1,): 1}
    assert n_map(EVEN, (0, 0)) == {(0, 0): 2}


def test_n_map_intertwines_coproducts():
    for word in all_words(MIXED, 4):
        lhs = tensor_coproduct_reduced(n_map(MIXED, word))
        rhs = {}
        for (lw, rw), c in coproduct(MIXED, word).terms.items():
            for t1, c1 in n_map(MIXED, lw).items():
                for t2, c2 in n_map(MIXED, rw).items():
                    key = (t1, t2)
                    val = rhs.get(key, 0) + c * c1 * c2
                    if val:
                        rhs[key] = val
                    else:
                        rhs.pop(key, None)
        assert lhs == rhs


def test_n_map_left_inverse():
    # pi/n! inverts N on canonical words
    for word in all_words(MIXED, 3):
        total = SymElement(MIXED)
        for t, c in n_map(MIXED, word).items():
            total.add_word(t, c)
        n = len(word)
        fact = 1
        for k in range(2, n + 1):
            fact *= k
        expect = SymElement(MIXED)
        expect.add_word(word, F(fact))
        assert total == expect


def test_coder_lift_single_component():
    # only q1: Q(v1 (.) v2) = q1(v1) (.) v2 + (-1)^{d1 d2} q1(v2) (.) v1
    q1 = {(0,): e(1), (2,): e(1, 2)}  # a -> b, c -> 2b
    Q = coder_lift(MIXED, 1, {1: q1})
    out = Q.apply_word((0, 2))
    manual = SymElement(MIXED)
    manual.add_word((1, 2), F(1))  # q1(a) (.) c
    manual.add_word((1, 0), F(-2))  # (-1)^{1*1} q1(c) (.) a
    assert out == manual


def test_coder_lift_q2_on_length_three():
    # only q2 on a length-3 word: the 3 unshuffle terms with signs
    q2 = {(0, 1): e(3)}  # (a (.) b) -> d
    Q = coder_lift(MIXED, -3, {2: q2})
    out = Q.apply_word((0, 1, 1))
    # subsets {a,b} picked in two ways (positions 1,2 and 1,3)
    manual = SymElement(MIXED)
    manual.add_word((3, 1), F(1))
    manual.add_word((3, 1), F(1))
    assert out == manual


def test_coleibnitz_holds_for_lifted_coderivations():
    rng = random.Random(17)
    for trial in range(5):
        tables = {}
        for k in (1, 2):
            table = {}
            for word in all_words(MIXED, k, min_len=k):
                val = Element()
                for i in range(len(MIXED)):
                    if MIXED.degree(i) == word_degree(MIXED, word) + 1:
                        c = rng.randint(-2, 2)
                        if c:
                            val.add_term(i, F(c))
                if not val.is_zero():
                    table[word] = val
            if table:
                tables[k] = table
        Q = coder_lift(MIXED, 1, tables)
        assert Q.coleibnitz_report(all_words(MIXED, 4)).ok()


def test_coderivation_determined_by_components():
    q1 = {(0,): e(1)}
    Q1 = coder_lift(MIXED, 1, {1: q1})
    Q2 = coder_lift(MIXED, 1, {1: {(0,): e(1)}})
    for word in all_words(MIXED, 4):
        assert Q1.apply_word(word) == Q2.apply_word(word)


def test_coderivation_bracket_is_coderivation():
    # [Q, R] = QR - (-1)^{qr} RQ acts as the coderivation lifted from its
    # own corestriction components
    q = coder_lift(MIXED, 1, {1: {(0,): e(1)}, 2: {(0, 3): e(1, -1)}})
    r = coder_lift(MIXED, 0, {1: {(3,): e(3, 2)}, 2: {(0, 2): e(1)}})
    sign = -1 if (q.degree * r.degree) % 2 else 1

    def bracket_action(word):
        first = SymElement(MIXED)
        for w, c in r.apply_word(word).terms.items():
            first = first + q.apply_word(w).scale(c)
        second = SymElement(MIXED)
        for w, c in q.apply_word(word).terms.items():
            second = second + r.apply_word(w).scale(c)
        return second.scale(F(1)) - first.scale(F(sign)) if False else (
            _compose_qr(q, r, word) - _compose_qr(r, q, word).scale(F(sign))
        )

    def _compose_qr(outer, inner, word):
        acc = SymElement(MIXED)
        for w, c in inner.apply_word(word).terms.items():
            acc = acc + outer.apply_word(w).scale(c)
        return acc

    # extract components of the bracket and re-lift
    tables = {}
    for k in (1, 2, 3):
        table = {}
        for word in all_words(MIXED, k, min_len=k):
            val = Element()
            img = bracket_action(word)
            for w, c in img.terms.items():
                if len(w) == 1:
                    val.add_term(w[0], c)
            if not val.is_zero():
                table[word] = val
        if table:
            tables[k] = table
    lifted = coder_lift(MIXED, q.degree + r.degree, tables)
    for word in all_words(MIXED, 4):
        assert lifted.apply_word(word) == bracket_action(word)
    assert lifted.coleibnitz_report(all_words(MIXED, 4)).ok()


def test_morphism_lift_single_component_is_functorial():
    target = GradedBasis.of(("p", 1), ("q", 2), ("r", 1), ("s", 0))
    f1 = {(0,): Element.basis_vector(0), (1,): Element.basis_vector(1)}
    Fm = CoalgMorphism(MIXED, target, {1: f1})
    out = Fm.apply_word((0, 1))
    manual = SymElement(target)
    manual.add_word((0, 1), F(1))
    assert out == manual
    # letters without f1-image die
    assert Fm.apply_word((0, 2)).is_zero()


def test_morphism_lift_two_components():
    target = GradedBasis.of(("p", 1), ("q", 2), ("r", 3))
    f1 = {(0,): Element.basis_vector(0), (1,): Element.basis_vector(1)}
    f2 = {(0, 1): Element.basis_vector(2)}
    Fm = CoalgMorphism(MIXED, target, {1: f1, 2: f2})
    out = Fm.apply_word((0, 1))
    assert out.component(1) == {(2,): 1}
    assert out.component(2) == {(0, 1): 1}


def test_morphism_comorphism_law():
    target = GradedBasis.of(("p", 1), ("q", 2), ("r", 3), ("s", 2))
    f1 = {(0,): Element.basis_vector(0), (1,): Element.basis_vector(1, F(2))}
    f2 = {(0, 1): Element.basis_vector(2), (0, 2): Element.basis_vector(3)}
    Fm = CoalgMorphism(MIXED, target, {1: f1, 2: f2})
    assert Fm.comorphism_report(all_words(MIXED, 4)).ok()


def violation_triples(rep):
    return [(v.location, v.residual, v.message) for v in rep.violations]


class _OneLetterDrift(Coderivation):
    """A lift that also sends each one-letter word to itself: never a
    coderivation, so coleibnitz_report fails."""

    def apply_word(self, word):
        out = super().apply_word(word)
        if len(word) == 1:
            out.add_word(word, F(1))
        return out


class _OneLetterSquare(CoalgMorphism):
    """A lift that also sends each one-letter word w to w (.) w: never a
    coalgebra morphism, so comorphism_report fails."""

    def apply_word(self, word):
        out = super().apply_word(word)
        if len(word) == 1:
            out.add_word(word * 2, F(1))
        return out


def test_coleibnitz_failing_output_is_pinned():
    Q = _OneLetterDrift(ComponentMap(MIXED, 1, {1: {(0,): e(1)}}))
    got = violation_triples(Q.coleibnitz_report(all_words(MIXED, 2)))
    m = "coLeibnitz fails"
    assert got == [
        ("word (0, 1)", "{((1,), (0,)): Fraction(-2, 1)}", m),
        ("word (0, 3)", "{((3,), (0,)): Fraction(-2, 1)}", m),
        ("word (1, 1)", "{((1,), (1,)): Fraction(-4, 1)}", m),
        ("word (1, 2)", "{((1,), (2,)): Fraction(-2, 1)}", m),
        (
            "word (1, 3)",
            "{((1,), (3,)): Fraction(-2, 1), ((3,), (1,)): Fraction(-2, 1)}",
            m,
        ),
        ("word (2, 3)", "{((3,), (2,)): Fraction(-2, 1)}", m),
        ("word (3, 3)", "{((3,), (3,)): Fraction(-4, 1)}", m),
    ]


def test_comorphism_failing_output_is_pinned():
    Fm = _OneLetterSquare(MIXED, MIXED, {1: {(i,): e(i) for i in range(4)}})
    got = violation_triples(Fm.comorphism_report(all_words(MIXED, 2)))
    m = "l F != (F x F) l"
    assert got == [
        ("word (1,)", "{((1,), (1,)): Fraction(2, 1)}", m),
        ("word (3,)", "{((3,), (3,)): Fraction(2, 1)}", m),
        (
            "word (0, 1)",
            "{((0,), (1, 1)): Fraction(-1, 1), ((1, 1), (0,)): Fraction(-1, 1)}",
            m,
        ),
        (
            "word (0, 3)",
            "{((0,), (3, 3)): Fraction(-1, 1), ((3, 3), (0,)): Fraction(-1, 1)}",
            m,
        ),
        (
            "word (1, 1)",
            "{((1,), (1, 1)): Fraction(-2, 1), ((1, 1), (1,)): Fraction(-2, 1), "
            "((1, 1), (1, 1)): Fraction(-2, 1)}",
            m,
        ),
        (
            "word (1, 2)",
            "{((1, 1), (2,)): Fraction(-1, 1), ((2,), (1, 1)): Fraction(-1, 1)}",
            m,
        ),
        (
            "word (1, 3)",
            "{((1,), (3, 3)): Fraction(-1, 1), ((1, 1), (3,)): Fraction(-1, 1), "
            "((1, 1), (3, 3)): Fraction(-1, 1), ((3,), (1, 1)): Fraction(-1, 1), "
            "((3, 3), (1,)): Fraction(-1, 1), ((3, 3), (1, 1)): Fraction(-1, 1)}",
            m,
        ),
        (
            "word (2, 3)",
            "{((2,), (3, 3)): Fraction(-1, 1), ((3, 3), (2,)): Fraction(-1, 1)}",
            m,
        ),
        (
            "word (3, 3)",
            "{((3,), (3, 3)): Fraction(-2, 1), ((3, 3), (3,)): Fraction(-2, 1), "
            "((3, 3), (3, 3)): Fraction(-2, 1)}",
            m,
        ),
    ]


def test_morphism_rejects_wrong_degree_component():
    target = GradedBasis.of(("p", 1), ("q", 2))
    with pytest.raises(DomainError):
        CoalgMorphism(MIXED, target, {2: {(0, 1): Element.basis_vector(0)}})


def test_morphism_composition_identity():
    # F with f1 = id plus nilpotent f2; G built as compositional inverse on
    # low words via components; here just check G = id o F has F's components
    target = MIXED
    f1 = {(i,): Element.basis_vector(i) for i in range(len(MIXED))}
    f2 = {(0, 2): Element.basis_vector(1)}  # (a (.) c) -> b, degree 0
    Fm = CoalgMorphism(MIXED, target, {1: f1, 2: f2})
    idm = CoalgMorphism(MIXED, target, {1: f1})
    comps = compose_morphisms(idm, Fm, all_words(MIXED, 2))
    for word in all_words(MIXED, 2):
        expect = Fm.components.apply_word(word)
        assert comps[tuple(word)] == expect


def test_subwords_of_canonical_words_are_canonical():
    # the fronts the generalized-Jacobi sum reads by direct lookup
    for word in all_words(MIXED, 5):
        for mask in range(1, 1 << len(word)):
            sub = tuple(w for p, w in enumerate(word) if mask >> p & 1)
            assert sym_canonical(sub, MIXED.degree) == (sub, 1)


def test_component_tables_refuse_words_of_another_length():
    for tables in ({3: {(3,): e(3)}}, {1: {(3, 3): e(3)}}, {0: {(): e(3)}}):
        with pytest.raises(InputError, match="not its arity"):
            coder_lift(MIXED, 0, tables)
        with pytest.raises(InputError, match="not its arity"):
            CoalgMorphism(MIXED, MIXED, tables)


@pytest.mark.parametrize(
    "tables, error, message",
    [
        ({2: {(0, 0): e(3)}}, InputError, "zero word"),
        ({2: {(2, 0): e(1)}}, InputError, "not canonical"),
        ({2: {(3,): e(3)}}, InputError, "not its arity"),
        ({1: {(0,): e(1)}}, DomainError, r"q_1\(0,\) has degree 2, expected 1"),
    ],
    ids=("zero-word", "not-canonical", "wrong-arity", "wrong-degree"),
)
def test_coderivations_and_morphisms_refuse_malformed_tables(tables, error, message):
    """One validation for both: a degree-0 coderivation of MIXED and a
    morphism MIXED -> MIXED refuse the same tables the same way."""
    with pytest.raises(error, match=message):
        coder_lift(MIXED, 0, tables)
    with pytest.raises(error, match=message):
        CoalgMorphism(MIXED, MIXED, tables)


def test_all_words_within_a_weight_cap():
    weights = (0, 1, 2, 1)
    full = all_words(MIXED, 4)
    for cap in range(7):
        want = [w for w in full if sum(weights[i] for i in w) <= cap]
        assert all_words(MIXED, 4, 1, weights, cap) == want
    assert all_words(MIXED, 4, 2, None, 5) == all_words(MIXED, 4, 2)
    for weights, cap in (((0, 1, 2), 3), ((0, 1, 2, -1), 3), ((0, 1, 2, 1), -1)):
        with pytest.raises(InputError, match="weights"):
            all_words(MIXED, 3, 1, weights, cap)


def test_all_words_match_the_recursion_on_random_bases():
    """The level-by-level word list against the recursion it replaced
    (sign_oracles), on random graded bases, with and without weights."""
    rng = random.Random(25)
    for _ in range(300):
        n = rng.randint(0, 5)
        degrees = tuple(rng.randint(-2, 3) for _ in range(n))
        basis = GradedBasis(tuple(f"v{i}" for i in range(n)), degrees)
        hi = rng.randint(0, 6)
        lo = rng.randint(1, hi + 1)
        assert all_words(basis, hi, lo) == recursive_all_words(basis, hi, lo)
        weights = tuple(rng.randint(0, 3) for _ in range(n))
        cap = rng.randint(0, 8)
        got = all_words(basis, hi, lo, weights, cap)
        assert got == recursive_all_words(basis, hi, lo, weights, cap)


def test_word_counts_match_the_listed_words():
    rng = random.Random(21)
    for _ in range(150):
        n = rng.randint(1, 5)
        degrees = tuple(rng.randint(-2, 3) for _ in range(n))
        basis = GradedBasis(tuple(f"v{i}" for i in range(n)), degrees)
        m = rng.randint(1, 6)
        by_length = Counter(map(len, all_words(basis, m)))
        assert dict(word_counts(basis, m)) == by_length
    # odd letters only: no word is longer than the basis, so the counts stop
    odd = GradedBasis.of(("e", 1), ("f", 1))
    assert list(word_counts(odd, 10**9)) == [(1, 2), (2, 1)]
    # one even letter: one word of every length, read lazily
    even = word_counts(GradedBasis.of(("x", 0)), 10**9)
    assert list(itertools.islice(even, 5)) == [(k, 1) for k in range(1, 6)]
    assert list(word_counts(MIXED, 0)) == []


# -- SymElement against the "add, or pop on zero" loops it had -------------------


def oracle_add(words, key, c):
    val = words.get(key, 0) + c
    if val:
        words[key] = val
    else:
        words.pop(key, None)


def oracle_add_word(basis, words, word, coeff):
    canon = sym_canonical(word, basis.degree)
    if canon is None or not coeff:
        return
    oracle_add(words, canon[0], coeff * canon[1])


def test_sym_element_matches_add_or_pop_oracle():
    rng = random.Random(12)
    cancelled = 0
    for _ in range(150):
        x, y, xw, yw = SymElement(MIXED), SymElement(MIXED), {}, {}
        for el, words in ((x, xw), (y, yw)) * 6:
            word = tuple(rng.randrange(4) for _ in range(rng.randint(1, 3)))
            c = F(rng.choice((-2, -1, 0, 1, 2)), rng.choice((1, 2)))
            before = len(words)
            el.add_word(word, c)
            oracle_add_word(MIXED, words, word, c)
            cancelled += len(words) < before
            assert list(el.terms.items()) == list(words.items())
        plus, minus = dict(xw), dict(xw)
        for w, c in yw.items():
            oracle_add(plus, w, c)
            oracle_add(minus, w, c * F(-1))
        assert list((x + y).terms.items()) == list(plus.items())
        assert list((x - y).terms.items()) == list(minus.items())
        assert (x - x).is_zero() and (x + y - y).terms == xw
    assert cancelled >= 10


# -- The coproducts and the morphism lift against the loops they had --------
#
# The oracles sum over subset masks and ordered set partitions of the word's
# positions, with the K1 sign of the concatenated blocks from the validating
# `koszul_sign`, and the morphism lift divides by s!.  The code under test
# reads `split_plan` on the canonical word and lifts by the first block.

# two odd letters, one even and one negative (odd) letter
NEGATIVE = GradedBasis.of(("u", 1), ("v", 3), ("w", 2), ("z", -1))


def oracle_coproduct(basis, word):
    n = len(word)
    degrees = [basis.degree(i) for i in word]
    out = {}
    for mask in range(1, (1 << n) - 1):
        left = tuple(i for i in range(n) if mask >> i & 1)
        right = tuple(i for i in range(n) if not mask >> i & 1)
        lw = sym_canonical(tuple(word[i] for i in left), basis.degree)
        rw = sym_canonical(tuple(word[i] for i in right), basis.degree)
        if lw is None or rw is None:
            continue
        sign = koszul_sign(degrees, left + right) * lw[1] * rw[1]
        oracle_add(out, (lw[0], rw[0]), sign)
    return out


def ordered_partitions(positions, slots):
    if slots == 1:
        if positions:
            yield (positions,)
        return
    for mask in range(1, (1 << len(positions)) - 1):
        block = tuple(p for b, p in enumerate(positions) if mask >> b & 1)
        rest = tuple(p for b, p in enumerate(positions) if not mask >> b & 1)
        for tail in ordered_partitions(rest, slots - 1):
            yield (block,) + tail


def oracle_iterated_coproduct(basis, word, slots):
    degrees = [basis.degree(i) for i in word]
    out = {}
    for blocks in ordered_partitions(tuple(range(len(word))), slots):
        sign = koszul_sign(degrees, tuple(itertools.chain.from_iterable(blocks)))
        words = []
        for b in blocks:
            canon = sym_canonical(tuple(word[i] for i in b), basis.degree)
            if canon is None:
                break
            words.append(canon[0])
            sign *= canon[1]
        else:
            oracle_add(out, tuple(words), sign)
    return out


def oracle_morphism_apply_word(Fm, word, parts=None):
    """F(w) = sum_s (1/s!) sum over ordered partitions into s blocks of the
    product of f on the blocks; `parts[s]` may hold the s-slot coproduct."""
    out = {}
    for s in range(1, len(word) + 1):
        blocks = parts[s] if parts else oracle_iterated_coproduct(Fm.source, word, s)
        for block_words, sign in blocks.items():
            factors = [Fm.components.apply_word(bw).terms for bw in block_words]
            for letters in itertools.product(*factors):
                c = sign * Fraction(1, factorial(s))
                for f, idx in zip(factors, letters):
                    c *= f[idx]
                oracle_add_word(Fm.target, out, letters, c)
    return out


def corpus_words(basis, max_len):
    """Every canonical word up to max_len and its reversed twin."""
    for word in all_words(basis, max_len):
        yield word
        if word[::-1] != word:
            yield word[::-1]


def random_morphism(rng, source, target):
    tables = {}
    for k in rng.sample((1, 2, 3), rng.randint(1, 3)):
        table = {}
        for word in all_words(source, k, k):
            terms = {
                i: Fraction(rng.choice((-2, -1, 1, 3)), rng.choice((1, 2)))
                for i in range(len(target))
                if target.degree(i) == word_degree(source, word) and rng.random() < 0.6
            }
            if terms:
                table[word] = Element(terms)
        tables[k] = table
    return CoalgMorphism(source, target, tables)


def test_coproducts_match_oracles():
    for basis in (MIXED, NEGATIVE):
        for word in corpus_words(basis, 5):
            assert coproduct(basis, word).terms == oracle_coproduct(basis, word)
            for slots in range(1, len(word) + 2):
                got = iterated_coproduct(basis, word, slots).terms
                assert got == oracle_iterated_coproduct(basis, word, slots)
    # a non-canonical odd pair, and zero words with a repeated odd letter
    assert coproduct(ODD, (1, 0)).terms == {((0,), (1,)): -1, ((1,), (0,)): 1}
    for word in ((0, 1, 0), (0, 2, 0, 2)):
        assert oracle_coproduct(MIXED, word) == {}
        assert coproduct(MIXED, word).is_zero()
        assert oracle_iterated_coproduct(MIXED, word, 3) == {}
        assert iterated_coproduct(MIXED, word, 3).is_zero()


def test_morphism_lift_matches_ordered_partition_oracle():
    rng = random.Random(23)
    targets = {
        MIXED: GradedBasis.of(("p", 1), ("q", 2), ("r", 3), ("s", 0), ("t", 1), ("y", 4)),
        NEGATIVE: GradedBasis.of(("p", -1), ("q", 0), ("r", 1), ("s", 2), ("t", 3), ("y", 4)),
    }
    compared = 0
    for basis, target in targets.items():
        morphisms = [random_morphism(rng, basis, target) for _ in range(3)]
        for word in corpus_words(basis, 5):
            parts = {
                s: oracle_iterated_coproduct(basis, word, s)
                for s in range(1, len(word) + 1)
            }
            for Fm in morphisms:
                want = oracle_morphism_apply_word(Fm, word, parts)
                assert Fm.apply_word(word).terms == want, (word, Fm.components.tables)
                compared += bool(want)
    assert compared >= 200


def test_gbv_product_morphisms_match_ordered_partition_oracle():
    for S in (exterior_gbv(), polyvector_gbv(1, 2)):
        full, abelian = gbv_linfty_structures(S)
        Fm = CoalgMorphism(full.shifted, abelian.shifted, product_components(S, 4))
        for word in corpus_words(full.shifted, 4):
            assert Fm.apply_word(word).terms == oracle_morphism_apply_word(Fm, word)


def test_morphism_lift_evaluates_each_subword_once(monkeypatch):
    """With f_1 tabled, every evaluation of a subword of length n asks for
    its (1, n-1) plan once, so per (length, parities) key the count of those
    requests is at most the number of distinct subwords with that key."""
    calls = {}

    def counting_plan(n, k, parities):
        if k == 1:
            calls[n, parities] = calls.get((n, parities), 0) + 1
        return split_plan(n, k, parities)

    monkeypatch.setattr(coalg, "split_plan", counting_plan)
    rng = random.Random(5)
    for basis, target in ((MIXED, MIXED), (EVEN, EVEN)):
        tables = random_morphism(rng, basis, target).components.tables
        tables[1] = {(i,): e(i) for i in range(len(basis))}
        Fm = CoalgMorphism(basis, target, tables)
        for word in all_words(basis, 5):
            calls.clear()
            assert Fm.apply_word(word).terms == oracle_morphism_apply_word(Fm, word)
            subwords = {
                sub
                for r in range(1, len(word) + 1)
                for sub in itertools.combinations(word, r)
            }
            for (n, parities), count in calls.items():
                same_key = [
                    sub
                    for sub in subwords
                    if len(sub) == n and tuple(basis.degree(i) % 2 for i in sub) == parities
                ]
                assert count <= len(same_key), (word, n, parities, count)
    # five copies of one even letter: one evaluation per length
    calls.clear()
    Fm = CoalgMorphism(EVEN, EVEN, {1: {(0,): e(0)}, 2: {(0, 0): e(0)}})
    Fm.apply_word((0,) * 5)
    assert calls == {(n, (0,) * n): 1 for n in range(1, 6)}
