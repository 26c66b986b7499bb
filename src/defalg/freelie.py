"""Truncated tensor algebras, exponential/logarithm, the Dynkin-Specht-Wever
projection, Friedrichs' Lie-membership test, and Baker-Campbell-Hausdorff
products computed two independent ways (series oracle vs explicit term sum).

Generators here are ungraded (degree 0); graded brackets live in `dgla`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm

from .core import (
    BilinearTable,
    Element,
    GradedBasis,
    add_into,
    add_term,
    admitted,
    derivation_residual,
    representatives,
    swap_residual,
    violations,
)
from .errors import DomainError, InputError, InternalError, StructureError
from .linalg import nilpotency_index

# ---------------------------------------------------------------------------
# Truncated tensor series
# ---------------------------------------------------------------------------


def word_product(x: dict, y: dict, order, out: dict, c=1) -> dict:
    """out += c * x y on word-keyed terms dicts, in place, dropping words
    longer than `order`: the one word-product loop, over any coefficients."""
    for w1, c1 in x.items():
        room = order - len(w1)
        if room < 0:
            continue
        if c != 1:
            c1 = c * c1
        for w2, c2 in y.items():
            if len(w2) <= room:
                add_term(out, w1 + w2, c1 * c2)
    return out


class TensorSeries(Element):
    """Element of the tensor algebra on named degree-0 generators, truncated
    at word length `order`.  Words are tuples of generator indices; the empty
    word is the constant term."""

    __slots__ = ("gens", "order")
    _compared = ("gens", "order")

    def __init__(self, gens, order, terms=None):
        self.gens = tuple(gens)
        self.order = order
        self.terms = (
            {w: c for w, c in terms.items() if c and len(w) <= order} if terms else {}
        )

    @staticmethod
    def zero(gens, order):
        return TensorSeries(gens, order)

    @staticmethod
    def generator(gens, order, name):
        gens = tuple(gens)
        if name not in gens:
            raise InputError(f"unknown generator {name!r}")
        return TensorSeries(gens, order, {(gens.index(name),): Fraction(1)})

    def add_term(self, word, coeff):
        if len(word) <= self.order:
            add_term(self.terms, word, coeff)

    def __mul__(self, other):
        self._check(other)
        return self._like(word_product(self.terms, other.terms, self.order, {}))

    def bracket(self, other):
        """xy - yx, by two in-place word products."""
        self._check(other)
        return self._bracket(other)

    def _bracket(self, other):
        """`bracket` without the context check, for arguments built in one
        context."""
        x, y, order = self.terms, other.terms, self.order
        return self._like(word_product(y, x, order, word_product(x, y, order, {}), -1))

    def constant_term(self):
        return self.terms.get((), Fraction(0))

    def component(self, length):
        return {w: c for w, c in self.terms.items() if len(w) == length}

    def parts(self) -> dict:
        """The series by word length, {n: (numerators, den)}: the length-n
        part is numerators / den, over the lcm of its coefficients'
        denominators (sign ledger F1)."""
        by_length = {}
        for w, c in self.terms.items():
            by_length.setdefault(len(w), {})[w] = c
        out = {}
        for n, terms in by_length.items():
            den = lcm(*(c.denominator for c in terms.values()))
            out[n] = ({w: c.numerator * (den // c.denominator) for w, c in terms.items()}, den)
        return out

    @staticmethod
    def from_parts(gens, order, parts) -> "TensorSeries":
        """The series whose word-length parts, of lengths at most `order`,
        are `parts` (as `parts` returns them); an integral coefficient is
        stored as an int, any other as a Fraction."""
        terms = {}
        for nums, den in parts.values():
            if den == 1:
                terms.update(nums)
                continue
            for w, c in nums.items():
                terms[w] = Fraction(c, den) if c % den else c // den
        out = TensorSeries(gens, order)
        out.terms = terms
        return out

    def __repr__(self):
        names = lambda w: "*".join(self.gens[i] for i in w) or "1"
        parts = [f"{c}·{names(w)}" for w, c in sorted(self.terms.items())]
        return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# Word-length parts: exponential, logarithm, DSW projection, Friedrichs test
# ---------------------------------------------------------------------------
# exp, log, the DSW map and both BCH routes compute on the word-length parts
# of `TensorSeries.parts`: length n maps to (numerators, den), int
# numerators over one positive int den.  Every function here returns parts
# reduced by the gcd of den and the numerators, with no zero numerator and
# no empty length; a Fraction is built only by `TensorSeries.from_parts`.


def _reduced(parts) -> dict:
    """`parts` without empty lengths, each divided by the gcd of its
    denominator and numerators."""
    out = {}
    for n, (nums, den) in parts.items():
        if nums:
            g = gcd(den, *nums.values())
            out[n] = ({w: c // g for w, c in nums.items()}, den // g) if g > 1 else (nums, den)
    return out


def _times(x, y, order) -> dict:
    """The parts of x y, truncated at `order`: the pairs of lengths that sum
    to n go over the lcm of their denominators' products."""
    dens = {}
    for n1, (_, d1) in x.items():
        for n2, (_, d2) in y.items():
            if n1 + n2 <= order:
                dens[n1 + n2] = lcm(dens.get(n1 + n2, 1), d1 * d2)
    out = {n: ({}, den) for n, den in dens.items()}
    for n1, (t1, d1) in x.items():
        for n2, (t2, d2) in y.items():
            if n1 + n2 <= order:
                nums, den = out[n1 + n2]
                word_product(t1, t2, order, nums, den // (d1 * d2))
    return _reduced(out)


def _add_to_parts(acc, x, num, den) -> None:
    """acc += (num / den) x in place on parts (not reduced); a length's
    numerators are rescaled only when its denominator grows."""
    for n, (terms, d) in x.items():
        d *= den
        old = acc.get(n)
        if old is None:
            acc[n] = (add_into({}, terms, num), d)
            continue
        nums, common = old
        grown = lcm(common, d)
        if grown != common:
            nums = {w: c * (grown // common) for w, c in nums.items()}
        acc[n] = (add_into(nums, terms, num * (grown // d)), grown)


def _powers(x, order):
    """(k, x^k) for k = 1, 2, ... while x^k has a word of length <= order."""
    power = {n: p for n, p in x.items() if n <= order}
    k = 1
    while power:
        yield k, power
        power, k = _times(power, x, order), k + 1


def tensor_exp(x: dict, order) -> dict:
    """e^x = sum x^k / k! on word-length parts, truncated at `order`;
    requires zero constant term."""
    if 0 in x:
        raise DomainError("tensor_exp needs a zero constant term")
    out = {0: ({(): 1}, 1)}
    for k, power in _powers(x, order):
        _add_to_parts(out, power, 1, factorial(k))
    return _reduced(out)


def tensor_log(y: dict, order) -> dict:
    """log(1+x) = sum (-1)^{k-1} x^k / k on word-length parts, truncated at
    `order`; requires constant term 1."""
    if y.get(0) != ({(): 1}, 1):
        raise DomainError("tensor_log needs constant term 1")
    out = {}
    for k, power in _powers({n: p for n, p in y.items() if n}, order):
        _add_to_parts(out, power, (-1) ** (k - 1), k)
    return _reduced(out)


def right_nested_terms(word) -> dict:
    """[v1,[v2,[...,[v_{n-1},v_n]].]] expanded on words, with int
    coefficients (sign ledger F1)."""
    return right_nested({tuple(word): 1})


def right_nested(terms: dict) -> dict:
    """The linear extension of `right_nested_terms` to a terms dict, by
    r(v w) = v r(w) - r(w) v with the words grouped by first letter, so
    that the sum over a common first letter is expanded once."""
    by_head = {}
    for w, c in terms.items():
        if not w:
            raise InputError("empty bracket word")
        by_head.setdefault(w[0], {})[w[1:]] = c
    out = {}
    for v, rest in by_head.items():
        head = (v,)
        add_term(out, head, rest.pop((), 0))
        if rest:
            for w, c in right_nested(rest).items():
                add_term(out, head + w, c)
                add_term(out, w + head, -c)
    return out


def dsw_parts(x: dict) -> dict:
    """The Dynkin-Specht-Wever map on word-length parts without a constant
    term: length n goes to the int expansion of its right-nested brackets,
    over n times its denominator (sign ledger F1)."""
    return _reduced({n: (right_nested(terms), den * n) for n, (terms, den) in x.items()})


def dsw_project(x: TensorSeries) -> TensorSeries:
    """Dynkin-Specht-Wever map: each word w of length n goes to its
    right-nested bracketing divided by n.  A projection onto the free Lie
    algebra (sign ledger F1)."""
    if x.constant_term() != 0:
        raise DomainError("dsw_project needs a zero constant term")
    return TensorSeries.from_parts(x.gens, x.order, dsw_parts(x.parts()))


def is_lie(x: TensorSeries) -> bool:
    """Friedrichs' criterion: x is a Lie element iff the DSW map fixes it
    (sign ledger F4)."""
    return dsw_project(x) == x


# ---------------------------------------------------------------------------
# Baker-Campbell-Hausdorff
# ---------------------------------------------------------------------------


def _bch_term_compositions(max_len):
    """Yield (coeff, ops, last) over the explicit BCH term sum: for each n and
    each composition (p_1,q_1)..(p_n,q_n) with p_i+q_i > 0 and total <= max_len,
    the word ad(a)^{p_1}ad(b)^{q_1}...ad(a)^{p_n}ad(b)^{q_n-1}(last) with
    coefficient (-1)^{n-1}/(n * m * prod p_i! q_i!), m = total length.

    Terms whose trailing block forces [x,x] = 0 are skipped.
    """
    def compositions(budget, parts):
        if parts == 0:
            yield ()
            return
        for p in range(budget + 1):
            for q in range(budget - p + 1):
                if p + q == 0 or p + q > budget - (parts - 1):
                    continue
                for rest in compositions(budget - p - q, parts - 1):
                    yield ((p, q),) + rest

    for n in range(1, max_len + 1):
        for combo in compositions(max_len, n):
            m = sum(p + q for p, q in combo)
            p_n, q_n = combo[-1]
            if q_n >= 2 or (q_n == 0 and p_n >= 2):
                continue  # inner ad(x)x = [x,x] = 0
            ops = []
            for p, q in combo[:-1]:
                ops += ["a"] * p + ["b"] * q
            if q_n == 0:
                ops += ["a"] * (p_n - 1)
                last = "a"
            else:
                ops += ["a"] * p_n + ["b"] * (q_n - 1)
                last = "b"
            denom = n * m
            for p, q in combo:
                denom *= factorial(p) * factorial(q)
            yield Fraction((-1) ** (n - 1), denom), ops, last


@lru_cache(maxsize=None)
def _bch_word_trie(max_len):
    """The terms of `_bch_term_compositions(max_len)` as a trie of bracket
    words read innermost letter first.  A node is (coeff, ((letter, child),
    ...)): the first letter of a path is `last`, each later one applies
    ad(letter), and coeff is the summed coefficient of the word ending at
    the node.  Subtrees whose coefficients all sum to zero are dropped.
    Returns the roots, ((last, node), ...)."""
    root = [Fraction(0), {}]
    for coeff, ops, last in _bch_term_compositions(max_len):
        node = root
        for letter in (last, *reversed(ops)):
            node = node[1].setdefault(letter, [Fraction(0), {}])
        node[0] += coeff

    def freeze(node):
        coeff, children = node
        kept = []
        for letter, child in children.items():
            child = freeze(child)
            if child != (0, ()):
                kept.append((letter, child))
        return coeff, tuple(kept)

    return freeze(root)[1]


@lru_cache(maxsize=None)
def _bch_trie_denominator(max_len):
    """The lcm of the coefficient denominators of `_bch_word_trie(max_len)`."""

    def dens(nodes):
        for _, (coeff, children) in nodes:
            yield coeff.denominator
            yield from dens(children)

    return lcm(*dens(_bch_word_trie(max_len)))


def bch_term_sum(a, b, bracket, max_len):
    """The explicit BCH sum of two Elements over any bracket of Elements, on
    int numerators (sign ledger F2).  With a = A / D and b = B / D over the
    lcm D of their denominators, a bracket word of k letters is its value on
    A and B over D^k (int values when the bracket's structure constants are
    integral; otherwise the walk stays exact on Fractions), and every term
    goes into one dict over Q D^max_len, Q the lcm of the trie coefficients'
    denominators.  Each distinct bracket word is evaluated once, by a
    depth-first walk of the word trie that keeps only the current
    innermost-first chain of values.
    The result is in a's context, an integral coefficient stored as an int."""
    D = lcm(*(c.denominator for x in (a, b) for c in x.terms.values()))
    letters = {
        name: a._like({t: c.numerator * (D // c.denominator) for t, c in x.terms.items()})
        for name, x in (("a", a), ("b", b))
    }
    Q = _bch_trie_denominator(max_len)
    total = {}

    def walk(value, node, k):
        coeff, children = node
        if coeff:
            scale = coeff.numerator * (Q // coeff.denominator) * D ** (max_len - k)
            add_into(total, value.terms, scale)
        for letter, child in children:
            walk(bracket(letters[letter], value), child, k + 1)

    for last, node in _bch_word_trie(max_len):
        walk(letters[last], node, 1)
    den = Q * D**max_len
    return a._like({t: Fraction(c, den) if c % den else c // den for t, c in total.items()})


def bch_free(a: TensorSeries, b: TensorSeries) -> TensorSeries:
    """Series oracle: sigma(log(e^a e^b)) inside the truncated tensor algebra,
    on word-length parts from the inputs to the result."""
    a._check(b)
    order = a.order
    product = _times(tensor_exp(a.parts(), order), tensor_exp(b.parts(), order), order)
    return TensorSeries.from_parts(a.gens, order, dsw_parts(tensor_log(product, order)))


def bch_explicit(a: TensorSeries, b: TensorSeries) -> TensorSeries:
    """Explicit termwise BCH sum, expanded in the tensor algebra by
    `bch_term_sum` on int numerators (sign ledger F2).  The contexts are
    checked once: every bracket of the walk is of series in a's context."""
    a._check(b)
    return bch_term_sum(a, b, TensorSeries._bracket, a.order)


# ---------------------------------------------------------------------------
# Nilpotent Lie algebras
# ---------------------------------------------------------------------------


class NilpotentLie(BilinearTable):
    """Finite-dimensional nilpotent Lie algebra given by structure constants.

    `table[(i, j)]` is the Element [e_i, e_j]; a missing pair is the negative
    of its swap, or zero.  The basis is ungraded (all degrees 0).
    Antisymmetry, Jacobi, and nilpotency are verified at construction.
    """

    bracket = BilinearTable.apply

    def __init__(self, basis: GradedBasis, table):
        if any(d != 0 for d in basis.degrees):
            raise InputError("nilpotent_lie basis degrees must all be 0")
        super().__init__(basis, table, -1)
        n = len(basis)
        deg = basis.degree
        B, Bc = self.rows, self.cols
        # [a,[b,c]] - [[a,b],c] - [b,[a,c]]; once antisymmetry holds this is
        # minus the cyclic sum [[a,b],c] + [[b,c],a] + [[c,a],b]
        ad = derivation_residual(B, Bc, deg)
        antisym = swap_residual(B, deg, -1)
        jacobi = lambda i, j, k: ad(B[i], 0, j, k)
        # the first violation raises, so the Jacobi step runs only once
        # antisymmetry holds on every pair; with every degree 0 that is the
        # precondition under which its residual is antisymmetric in all
        # three slots (sign ledger K5)
        orbits = representatives(n, 3, (0, 1, 2))
        steps = [
            (admitted(n, 2), [("({}, {})", "antisymmetry fails", antisym)]),
            (admitted(n, 3), [("({}, {}, {})", "Jacobi fails", jacobi)], orbits),
        ]
        for location, message, _ in violations(basis.names.__getitem__, steps):
            raise StructureError(f"{message} on {location}")
        self.nilpotency_index = nilpotency_index(self.rows)
        if self.nilpotency_index is None:
            raise StructureError("algebra is not nilpotent")

    def bch(self, x: Element, y: Element) -> Element:
        """The group law x * y; terminates because bracket words of length
        >= nilpotency_index vanish."""
        result = bch_term_sum(x, y, self.bracket, max(self.nilpotency_index - 1, 1))
        # safety: every longer bracket must vanish
        probe = x
        for _ in range(self.nilpotency_index):
            probe = self.bracket(y, probe)
        if not probe.is_zero():
            raise InternalError("nilpotency bound exceeded in BCH sum")
        return result
