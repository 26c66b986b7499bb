"""Free Lie algebra: exp/log, DSW projection, Friedrichs, BCH in all modes."""

import itertools
import random
from fractions import Fraction
from math import factorial, gcd, lcm

import pytest
from sign_oracles import (
    add_scaled,
    fraction_bch_term_sum,
    oracle_bch_explicit,
    oracle_bch_free,
    oracle_dsw_project,
    oracle_tensor_exp,
    oracle_tensor_log,
    right_nested_bracket,
    rref,
)

from defalg import dgla, freelie
from defalg.core import Element, GradedBasis, add_term
from defalg.errors import DomainError, InputError, StructureError
from defalg.freelie import (
    NilpotentLie,
    TensorSeries,
    _bch_term_compositions,
    bch_explicit,
    bch_free,
    bch_term_sum,
    dsw_parts,
    dsw_project,
    is_lie,
    right_nested_terms,
    tensor_exp,
    tensor_log,
)
from defalg.generators import random_classical_artin, random_dgla, random_mc_pair

GENS2 = ("x", "y")
GENS3 = ("x", "y", "z")


def gen(name, gens=GENS2, order=5):
    return TensorSeries.generator(gens, order, name)


def one(order):
    return TensorSeries(GENS2, order, {(): 1})


def series_exp(x):
    """`tensor_exp` on a TensorSeries, through its word-length parts."""
    return TensorSeries.from_parts(x.gens, x.order, tensor_exp(x.parts(), x.order))


def series_log(y):
    """`tensor_log` on a TensorSeries, through its word-length parts."""
    return TensorSeries.from_parts(y.gens, y.order, tensor_log(y.parts(), y.order))


def test_exp_of_zero_is_one():
    assert series_exp(TensorSeries.zero(GENS2, 4)) == one(4)


def test_exp_truncation_at_two():
    x = gen("x", order=2)
    e = series_exp(x)
    assert e.terms == {(): 1, (0,): 1, (0, 0): Fraction(1, 2)}


def test_exp_times_exp_of_minus_is_one():
    # oracle: the truncated Cauchy product of the two series
    x = gen("x", order=5) + gen("y", order=5).scale(Fraction(2, 3))
    assert series_exp(x) * series_exp(-x) == one(5)


def test_log_of_one_is_zero():
    assert series_log(one(4)).is_zero()


def test_log_exp_roundtrip():
    x = gen("x", order=4).scale(Fraction(3)) + gen("y", order=4).scale(Fraction(-1, 2))
    assert series_log(series_exp(x)) == x


def test_log_of_product_degree_two_part():
    x, y = gen("x"), gen("y")
    z = series_log(series_exp(x) * series_exp(y))
    deg2 = z.component(2)
    assert deg2 == {(0, 1): Fraction(1, 2), (1, 0): Fraction(-1, 2)}


def test_exp_domain_errors():
    with pytest.raises(DomainError):
        series_exp(one(3))
    with pytest.raises(DomainError):
        series_log(TensorSeries.zero(GENS2, 3))


def test_dsw_on_length_two_word():
    x, y = gen("x"), gen("y")
    sigma_xy = dsw_project(x * y)
    assert sigma_xy == (x * y - y * x).scale(Fraction(1, 2))


def test_dsw_fixes_lie_elements():
    x, y = gen("x"), gen("y")
    lie = x.bracket(y)
    assert dsw_project(lie) == lie
    nested = TensorSeries(GENS2, 5, right_nested_terms((0, 1, 1, 0)))
    assert dsw_project(nested) == nested


def closed_form_terms(word):
    """Sign ledger F1: the sum over S in {1..n-1} of (-1)^|S| times the
    letters not in S in order, v_n, and the letters of S reversed."""
    *front, last = word
    out = {}
    for behind in itertools.product((False, True), repeat=len(front)):
        kept = tuple(v for v, b in zip(front, behind) if not b)
        moved = tuple(v for v, b in zip(front, behind) if b)
        add_term(out, kept + (last,) + moved[::-1], (-1) ** len(moved))
    return out


def test_right_nested_terms_match_the_bracket_oracle():
    """The int expansion equals the bracket built ad by ad through
    TensorSeries.bracket and the closed form of sign ledger F1, on every
    word of length 1-6 over three letters."""
    for length in range(1, 7):
        for word in itertools.product(range(3), repeat=length):
            terms = right_nested_terms(word)
            assert all(type(c) is int and c for c in terms.values()), word
            assert terms == right_nested_bracket(GENS3, 6, word).terms, word
            assert terms == closed_form_terms(word), word
    with pytest.raises(InputError):
        right_nested_terms(())


def test_dsw_coefficients_are_int_first():
    # an integral coefficient is stored as an int, any other as a Fraction
    # (core's int-first contract); 1/n is 1 on x and cancels on 2*x*y
    x, y = gen("x"), gen("y")
    for series in (x, (x * y).scale(2), x * y + y, (x * y * x).scale(Fraction(3, 7))):
        out = dsw_project(series)
        assert out.terms and all(
            type(c) is (int if c.denominator == 1 else Fraction) for c in out.terms.values()
        )
    assert {type(c) for c in dsw_project(x * y + y).terms.values()} == {int, Fraction}
    assert dsw_project(x).terms == {(0,): 1}
    assert dsw_project((x * y).scale(2)).terms == {(0, 1): 1, (1, 0): -1}


def test_dsw_idempotent_on_random_inputs():
    rng = random.Random(19)
    for _ in range(100):
        x = TensorSeries.zero(GENS3, 4)
        for _ in range(rng.randint(1, 6)):
            word = tuple(rng.randrange(3) for _ in range(rng.randint(1, 4)))
            x.add_term(word, Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        once = dsw_project(x)
        assert dsw_project(once) == once


def test_is_lie_classification():
    x, y = gen("x"), gen("y")
    assert is_lie(x.bracket(y))
    assert not is_lie(x * y)
    rng = random.Random(23)
    for _ in range(50):
        acc = TensorSeries.zero(GENS3, 5)
        for _ in range(rng.randint(1, 4)):
            letters = tuple(rng.randrange(3) for _ in range(rng.randint(1, 4)))
            coeff = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
            acc = acc + TensorSeries(GENS3, 5, right_nested_terms(letters)).scale(coeff)
        assert is_lie(acc)
    for _ in range(50):
        w1 = tuple(rng.randrange(3) for _ in range(rng.randint(2, 4)))
        bad = TensorSeries(GENS3, 5, {w1: Fraction(1)})
        # a single word of length >= 2 is never a Lie element
        assert not is_lie(bad)


def test_bch_order2_coefficient():
    x, y = gen("x", order=3), gen("y", order=3)
    z = bch_explicit(x, y)
    half_bracket = x.bracket(y).scale(Fraction(1, 2)).component(2)
    assert z.component(2) == half_bracket


def test_bch_degree3_sign_resolution():
    # degree-3 part is (1/12)[x,[x,y]] + (1/12)[y,[y,x]]; the displayed
    # "-1/12 [b,[b,a]]" one sees quoted elsewhere is a misprint, and both
    # computation routes here agree on +1/12.
    x, y = gen("x", order=3), gen("y", order=3)
    expected = (
        x.bracket(x.bracket(y)) + y.bracket(y.bracket(x))
    ).scale(Fraction(1, 12)).component(3)
    assert bch_free(x, y).component(3) == expected
    assert bch_explicit(x, y).component(3) == expected


def test_bch_free_equals_explicit_to_order5():
    x, y = gen("x", order=5), gen("y", order=5)
    assert bch_free(x, y) == bch_explicit(x, y)


def test_bch_commuting_is_sum():
    # [a, b] = 0 forces a * b = a + b: take b = a
    x = gen("x", order=5)
    a = x.scale(Fraction(2))
    assert bch_explicit(x, a) == x + a


def test_bch_inverse_and_unit():
    x, y = gen("x", order=4), gen("y", order=4)
    a = x + y.scale(Fraction(1, 3))
    zero = TensorSeries.zero(GENS2, 4)
    assert bch_explicit(a, -a).is_zero()
    assert bch_free(a, -a).is_zero()
    assert bch_explicit(a, zero) == a
    assert bch_explicit(zero, a) == a


def test_bch_associativity_order4():
    order = 4
    x = TensorSeries.generator(GENS3, order, "x")
    y = TensorSeries.generator(GENS3, order, "y")
    z = TensorSeries.generator(GENS3, order, "z")
    left = bch_free(bch_free(x, y), z)
    right = bch_free(x, bch_free(y, z))
    assert left == right


# -- explicit BCH against the per-term loop ----------------------------------


def oracle_bch_term_sum(a, b, bracket, max_len, add, zero):
    """The explicit BCH sum evaluated term by term: every composition
    rebuilds its nested bracket from the innermost letter out."""
    total = zero
    for coeff, ops, last in _bch_term_compositions(max_len):
        value = a if last == "a" else b
        for op in reversed(ops):
            value = bracket(a if op == "a" else b, value)
        total = add(total, value, coeff)
    return total


def random_series(rng, order):
    """A seeded two-word TensorSeries on GENS2: a letter plus a word of
    length max(2, order - 2), or plus the other letter at order 1.  Long
    words keep the per-term loop at order 7 under about two seconds."""
    letter = rng.randrange(2)
    if order == 1:
        second = (1 - letter,)
    else:
        second = tuple(rng.randrange(2) for _ in range(max(2, order - 2)))
    coeff = lambda: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
    return TensorSeries(GENS2, order, {(letter,): coeff(), second: coeff()})


def test_bch_explicit_matches_per_term_oracle():
    rng = random.Random(53)
    for order in range(1, 8):
        for _ in range(3 if order < 6 else 1):
            a, b = random_series(rng, order), random_series(rng, order)
            assert len(a.terms) == len(b.terms) == 2
            expected = oracle_bch_term_sum(
                a, b, TensorSeries.bracket, order, add_scaled,
                TensorSeries.zero(GENS2, order),
            )
            assert bch_explicit(a, b) == expected


def test_nilpotent_bch_matches_per_term_oracle():
    rng = random.Random(59)
    for lie in (heisenberg(), strictly_upper_3(), strictly_upper_4()):
        max_len = lie.nilpotency_index - 1
        for _ in range(20):
            x, y = (
                Element({
                    i: Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                    for i in range(len(lie.basis))
                })
                for _ in range(2)
            )
            expected = oracle_bch_term_sum(x, y, lie.bracket, max_len, add_scaled, Element())
            result = lie.bch(x, y)
            assert result == expected
            trie = fraction_bch_term_sum(x, y, lie.bracket, max_len, add_scaled, Element())
            assert list(result.terms.items()) == list(trie.terms.items())


def test_bch_degree0_matches_per_term_oracle():
    rng = random.Random(61)
    nontrivial = 0
    for _ in range(15):
        M, a, b, _w = random_mc_pair(rng, random_dgla(rng), random_classical_artin(rng))
        max_len = max((M.A.nilpotency_index or 2) - 1, 1)
        expected = oracle_bch_term_sum(a, b, M.bracket, max_len, add_scaled, Element())
        result = M.bch_degree0(a, b)
        assert result == expected
        trie = fraction_bch_term_sum(a, b, M.bracket, max_len, add_scaled, Element())
        assert list(result.terms.items()) == list(trie.terms.items())
        nontrivial += expected != a + b
    assert nontrivial


def counting(bracket, calls):
    """`bracket`, appending one entry to `calls` per call."""

    def counted(u, v):
        calls.append(None)
        return bracket(u, v)

    return counted


def test_bch_term_sum_evaluates_each_word_once():
    # one bracket per edge of the word trie: at most 2^(n+1) - 4 calls,
    # where the per-term loop makes 18,233 at n = 7
    for order in range(1, 8):
        x, y = gen("x", order=order), gen("y", order=order)
        calls = []
        total = bch_term_sum(x, y, counting(TensorSeries.bracket, calls), order)
        assert total == bch_free(x, y)
        assert len(calls) <= 2 ** (order + 1) - 4
    # and over a table bracket, on Fraction inputs
    lie = strictly_upper_4()
    max_len = lie.nilpotency_index - 1
    x = Element({0: Fraction(1, 2), 3: Fraction(-2, 3), 5: 1})
    y = Element({1: Fraction(3, 4), 2: -1, 4: Fraction(1, 3)})
    calls = []
    bch_term_sum(x, y, counting(lie.bracket, calls), max_len)
    assert 0 < len(calls) <= 2 ** (max_len + 1) - 4


def int_checked(bracket, calls):
    """`counting(bracket, calls)`, asserting first that every coefficient it
    receives is an int."""
    counted = counting(bracket, calls)

    def checked(u, v):
        for c in (*u.terms.values(), *v.terms.values()):
            assert type(c) is int, c
        return counted(u, v)

    return checked


def test_bch_walk_brackets_only_int_numerators(monkeypatch):
    # every bracket the driver makes for its three callers, on Fraction
    # inputs and integral structure constants, sees int coefficients only:
    # no Fraction arithmetic inside the walk (NilpotentLie.bch's nilpotency
    # probe runs outside it)
    calls = []
    driver = freelie.bch_term_sum
    checked = lambda a, b, bracket, n: driver(a, b, int_checked(bracket, calls), n)
    third = Fraction(1, 3)
    a = TensorSeries(GENS2, 5, {(0,): Fraction(1, 2), (1, 0): third, (0, 1): -third})
    b = TensorSeries(GENS2, 5, {(1,): Fraction(-3, 4)})
    lie = strictly_upper_4()
    x = Element({0: Fraction(1, 2), 3: third, 5: 1})
    y = Element({1: Fraction(3, 4), 2: -1, 4: third})
    rng = random.Random(67)
    pairs = []
    for _ in range(10):
        M, u, v, _w = random_mc_pair(rng, random_dgla(rng), random_classical_artin(rng))
        pairs.append((M, u.scale(third), v.scale(Fraction(1, 2))))
    expected = (bch_explicit(a, b), lie.bch(x, y), [M.bch_degree0(u, v) for M, u, v in pairs])
    assert expected[0] == bch_free(a, b)
    assert any(z != u + v for z, (_, u, v) in zip(expected[2], pairs))

    monkeypatch.setattr(freelie, "bch_term_sum", checked)
    monkeypatch.setattr(dgla, "bch_term_sum", checked)
    assert bch_explicit(a, b) == expected[0]
    assert calls
    del calls[:]
    assert lie.bch(x, y) == expected[1]
    assert calls
    del calls[:]
    assert [M.bch_degree0(u, v) for M, u, v in pairs] == expected[2]
    assert calls


def test_bch_explicit_checks_the_contexts_once(monkeypatch):
    """bch_explicit checks its operands' contexts once, and its walk
    brackets without checking again; TensorSeries.bracket still checks."""
    a = TensorSeries(GENS2, 6, {(0,): Fraction(1, 2), (1,): 1})
    b = TensorSeries(GENS2, 6, {(1,): Fraction(-3, 4), (0, 1): 2, (1, 0): -2})
    for other in (TensorSeries(GENS2, 5, b.terms), TensorSeries(GENS3, 6, b.terms)):
        with pytest.raises(InputError):
            a.bracket(other)
        with pytest.raises(InputError):
            bch_explicit(a, other)
    expected = bch_explicit(a, b)
    checks = []
    check = TensorSeries._check
    monkeypatch.setattr(
        TensorSeries, "_check", lambda x, y: checks.append(1) or check(x, y)
    )
    assert bch_explicit(a, b) == expected == bch_free(a, b)
    assert len(checks) == 2  # bch_explicit's own, and bch_free's


# -- nilpotent mode ---------------------------------------------------------


def heisenberg():
    basis = GradedBasis.of(("p", 0), ("q", 0), ("c", 0))
    table = {
        (0, 1): Element.basis_vector(2),
        (1, 0): Element.basis_vector(2, Fraction(-1)),
    }
    return NilpotentLie(basis, table)


def strictly_upper_3():
    # e12, e23, e13 in 3x3 strictly upper triangular matrices
    basis = GradedBasis.of(("e12", 0), ("e23", 0), ("e13", 0))
    table = {
        (0, 1): Element.basis_vector(2),
        (1, 0): Element.basis_vector(2, Fraction(-1)),
    }
    return NilpotentLie(basis, table)


def strictly_upper_4():
    # e12, e23, e34, e13, e24, e14 in 4x4 strictly upper triangular matrices
    basis = GradedBasis.of(*((name, 0) for name in ("e12", "e23", "e34", "e13", "e24", "e14")))
    e = Element.basis_vector
    return NilpotentLie(basis, {(0, 1): e(3), (1, 2): e(4), (0, 4): e(5), (3, 2): e(5)})


def test_nilpotent_structure_checks():
    heis = heisenberg()
    assert heis.nilpotency_index == 3
    with pytest.raises(StructureError):
        NilpotentLie(
            GradedBasis.of(("a", 0), ("b", 0)),
            {(0, 1): Element.basis_vector(0)},  # [a,b]=a but [b,a] missing
        )


def test_nilpotent_bch_group_law():
    heis = heisenberg()
    p = Element.basis_vector(0)
    q = Element.basis_vector(1)
    pq = heis.bch(p, q)
    # p * q = p + q + 1/2 [p,q]
    expected = Element({0: Fraction(1), 1: Fraction(1), 2: Fraction(1, 2)})
    assert pq == expected


def test_nilpotent_bch_group_axioms():
    rng = random.Random(31)
    heis = strictly_upper_3()
    for _ in range(25):
        def rand():
            return Element(
                {i: Fraction(rng.randint(-2, 2)) for i in range(3)}
            )
        a, b, c = rand(), rand(), rand()
        ab_c = heis.bch(heis.bch(a, b), c)
        a_bc = heis.bch(a, heis.bch(b, c))
        assert ab_c == a_bc
        assert heis.bch(a, Element()) == a
        assert heis.bch(Element(), a) == a
        assert heis.bch(a, -a).is_zero()


def test_nilpotent_matches_free_truncation():
    # Heisenberg kills triple brackets, so BCH agrees with the free formula
    # truncated at length 2 plus the (1/2)[a,b] term only.
    heis = heisenberg()
    a = Element({0: Fraction(2), 1: Fraction(1)})
    b = Element({1: Fraction(3), 2: Fraction(-1)})
    z = heis.bch(a, b)
    manual = a + b + heis.bracket(a, b).scale(Fraction(1, 2))
    assert z == manual


# -- Element-loop oracle for the NilpotentLie constructor --------------------------


def oracle_nilpotent_lie(basis, table):
    """(first StructureError message or None, nilpotency index) of the
    constructor's checks, run as Element loops on the stored table."""
    table = {k: v for k, v in table.items() if not v.is_zero()}
    names, n = basis.names, len(basis)

    def basis_bracket(i, j):
        if (i, j) in table:
            return table[(i, j)]
        if (j, i) in table:
            return table[(j, i)].scale(Fraction(-1))
        return Element()

    def bracket(x, y):
        out = Element()
        for i, ci in x.terms.items():
            for j, cj in y.terms.items():
                for k, ck in basis_bracket(i, j).terms.items():
                    out.add_term(k, ci * cj * ck)
        return out

    for i in range(n):
        for j in range(n):
            if (i, j) in table and (j, i) in table:
                if not (table[(i, j)] + table[(j, i)]).is_zero():
                    return f"antisymmetry fails on ({names[i]}, {names[j]})", None
        if not basis_bracket(i, i).is_zero():
            return f"[{names[i]}, {names[i]}] != 0", None
    e = Element.basis_vector
    for i, j, k in itertools.product(range(n), repeat=3):
        jac = (
            bracket(basis_bracket(i, j), e(k))
            + bracket(basis_bracket(j, k), e(i))
            + bracket(basis_bracket(k, i), e(j))
        )
        if not jac.is_zero():
            return f"Jacobi fails on ({names[i]}, {names[j]}, {names[k]})", None
    span = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    s = 1
    while span:
        if s > n + 1:
            return "algebra is not nilpotent", None
        nxt = []
        for i in range(n):
            for vec in span:
                br = bracket(e(i), Element({k: c for k, c in enumerate(vec) if c}))
                if not br.is_zero():
                    nxt.append([br.terms.get(k, Fraction(0)) for k in range(n)])
        rows, pivots = rref(nxt) if nxt else ([], [])
        span = [rows[r] for r in range(len(pivots))]
        s += 1
    return None, s


def test_nilpotent_constructor_matches_element_oracle():
    rng = random.Random(37)
    seen = set()
    for t in range(120):
        lie = heisenberg() if t % 2 else strictly_upper_3()
        n = len(lie.basis)
        table = dict(lie.table)
        for _ in range(rng.randint(1, 2)):
            key = (rng.randrange(n), rng.randrange(n))
            c = Fraction(rng.choice((-1, 1, 2)))
            edit = Element.basis_vector(rng.randrange(n), c)
            table[key] = table.get(key, Element()) + edit
            if rng.random() < 0.5:  # keep the pair antisymmetric
                table[key[::-1]] = -table[key]
        message, index = oracle_nilpotent_lie(lie.basis, table)
        if message is None:
            assert NilpotentLie(lie.basis, table).nilpotency_index == index
        else:
            with pytest.raises(StructureError) as exc:
                NilpotentLie(lie.basis, table)
            assert str(exc.value) == message
        seen.add(message.split(" ")[0] if message else None)
    assert seen == {None, "antisymmetry", "Jacobi", "algebra"}


def test_nilpotent_lie_rejects_graded_basis():
    with pytest.raises(InputError):
        NilpotentLie(GradedBasis.of(("a", 0), ("b", 1)), {})


# -- word-length parts against the Fraction routes ------------------------------


def random_lie(rng, gens, order):
    """A seeded Lie element of mixed word length: a letter plus one to three
    right-nested brackets of words of length 1..order, with rational
    coefficients."""
    out = TensorSeries(gens, order)
    for length in (1, *(rng.randint(1, max(order, 1)) for _ in range(rng.randint(1, 3)))):
        word = tuple(rng.randrange(len(gens)) for _ in range(length))
        coeff = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))
        out = out + TensorSeries(gens, order, right_nested_terms(word)).scale(coeff)
    return out


def assert_reduced(parts):
    """The invariants of word-length parts: int numerators of words of their
    length over a positive denominator, reduced, no zeros, no empty length."""
    for n, (nums, den) in parts.items():
        assert nums and type(den) is int and den > 0
        assert all(type(c) is int and c and len(w) == n for w, c in nums.items())
        assert gcd(den, *nums.values()) == 1


def assert_int_first(series):
    assert all(
        type(c) is (int if c.denominator == 1 else Fraction) for c in series.terms.values()
    )


def test_word_length_parts_match_the_fraction_oracles():
    rng = random.Random(67)
    integral = 0
    for order in range(7):
        for gens in (GENS3[:1], GENS2, GENS3):
            for _ in range(2):
                a, b = random_lie(rng, gens, order), random_lie(rng, gens, order)
                pa, pb = a.parts(), b.parts()
                assert_reduced(pa)
                assert TensorSeries.from_parts(gens, order, pa).terms == a.terms
                ea, eb = tensor_exp(pa, order), tensor_exp(pb, order)
                assert_reduced(ea)
                series = TensorSeries.from_parts(gens, order, ea)
                assert series.terms == oracle_tensor_exp(a).terms
                assert_int_first(series)
                product = oracle_tensor_exp(a) * oracle_tensor_exp(b)
                log = tensor_log(product.parts(), order)
                assert_reduced(log)
                series = TensorSeries.from_parts(gens, order, log)
                assert series.terms == oracle_tensor_log(product).terms
                assert_int_first(series)
                for x in (series, a * b + a):
                    if x.constant_term() == 0:
                        assert_reduced(dsw_parts(x.parts()))
                        assert dsw_project(x).terms == oracle_dsw_project(x).terms
                        assert_int_first(dsw_project(x))
                free, explicit = bch_free(a, b), bch_explicit(a, b)
                assert free.terms == oracle_bch_free(a, b).terms
                assert explicit.terms == oracle_bch_explicit(a, b).terms
                assert_int_first(free)
                assert_int_first(explicit)
                # sign ledger F1: D^n n! lcm(1..n) clears the length-n part
                # of log(e^a e^b), D the common denominator of a and b
                D = lcm(*(den for _, den in (*pa.values(), *pb.values())))
                for n, (_, den) in free.parts().items():
                    assert D**n * factorial(n) * lcm(*range(1, n + 1)) % den == 0
                integral += all(type(c) is int for c in free.terms.values())
    assert integral
    # the zero series, an inverse pair and an all-integral result
    zero = TensorSeries(GENS2, 4)
    assert tensor_exp({}, 4) == {0: ({(): 1}, 1)}
    assert tensor_log(tensor_exp({}, 4), 4) == dsw_parts({}) == {}
    for bch in (bch_free, bch_explicit):
        assert bch(zero, zero).terms == {}
        a = random_lie(rng, GENS2, 4)
        assert bch(a, -a).terms == {}
        x = TensorSeries.generator(GENS2, 4, "x")
        three = bch(x, x.scale(Fraction(2)))
        assert three.terms == {(0,): 3} and type(three.terms[(0,)]) is int


# -- TensorSeries against the "add, or pop on zero" loops it had -----------------


def oracle_add_term(words, order, word, coeff):
    if len(word) > order:
        return
    new = words.get(word, 0) + coeff
    if new:
        words[word] = new
    else:
        words.pop(word, None)


def oracle_series_ops(x, y):
    """(x + y, x - y, x * y) as words dicts, by the loops TensorSeries had."""
    plus, minus, times = dict(x.terms), dict(x.terms), {}
    for w, c in y.terms.items():
        oracle_add_term(plus, x.order, w, c)
        oracle_add_term(minus, x.order, w, -c)
    for w1, c1 in x.terms.items():
        for w2, c2 in y.terms.items():
            if len(w1) + len(w2) <= x.order:
                oracle_add_term(times, x.order, w1 + w2, c1 * c2)
    return plus, minus, times


def test_tensor_series_arithmetic_matches_add_or_pop_oracle():
    rng = random.Random(23)
    words = [w for n in range(4) for w in itertools.product(range(2), repeat=n)]
    cancelled = 0
    for _ in range(200):
        order = rng.randint(1, 4)
        x, y = TensorSeries.zero(GENS2, order), TensorSeries.zero(GENS2, order)
        want = {}
        for _ in range(rng.randint(0, 8)):
            w = rng.choice(words)
            c = Fraction(rng.choice((-2, -1, 1, 2)), rng.choice((1, 2)))
            x.add_term(w, c)
            oracle_add_term(want, order, w, c)
            assert list(x.terms.items()) == list(want.items())
            y.add_term(rng.choice(words), -c)  # cancels a matching word of x
        plus, minus, times = oracle_series_ops(x, y)
        assert list((x + y).terms.items()) == list(plus.items())
        assert list((x - y).terms.items()) == list(minus.items())
        assert list((x * y).terms.items()) == list(times.items())
        cancelled += len(plus) < len(set(x.terms) | set(y.terms))
    assert cancelled >= 10
