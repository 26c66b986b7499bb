"""Truncated tensor algebras, exponential/logarithm, the Dynkin-Specht-Wever
projection, Friedrichs' Lie-membership test, and Baker-Campbell-Hausdorff
products computed two independent ways (series oracle vs explicit term sum).

Generators here are ungraded (degree 0); graded brackets live in `dgla`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

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

# ---------------------------------------------------------------------------
# Truncated tensor series
# ---------------------------------------------------------------------------


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
    def one(gens, order):
        return TensorSeries(gens, order, {(): Fraction(1)})

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
        out = TensorSeries.zero(self.gens, self.order)
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                if len(w1) + len(w2) <= self.order:
                    add_term(out.terms, w1 + w2, c1 * c2)
        return out

    def bracket(self, other):
        return self * other - other * self

    def constant_term(self):
        return self.terms.get((), Fraction(0))

    def component(self, length):
        return {w: c for w, c in self.terms.items() if len(w) == length}

    def __repr__(self):
        names = lambda w: "*".join(self.gens[i] for i in w) or "1"
        parts = [f"{c}·{names(w)}" for w, c in sorted(self.terms.items())]
        return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# Exponential, logarithm, DSW projection, Friedrichs test
# ---------------------------------------------------------------------------


def tensor_exp(x: TensorSeries, order=None) -> TensorSeries:
    """e^x = sum x^n / n!, truncated; requires zero constant term."""
    if x.constant_term() != 0:
        raise DomainError("tensor_exp needs a zero constant term")
    order = x.order if order is None else order
    out = TensorSeries.one(x.gens, order)
    power = TensorSeries.one(x.gens, order)
    xo = TensorSeries(x.gens, order, x.terms)
    for n in range(1, order + 1):
        power = power * xo
        if power.is_zero():
            break
        add_into(out.terms, power.terms, Fraction(1, factorial(n)))
    return out


def tensor_log(y: TensorSeries, order=None) -> TensorSeries:
    """log(1+x) = sum (-1)^{n-1} x^n / n; requires constant term 1."""
    if y.constant_term() != 1:
        raise DomainError("tensor_log needs constant term 1")
    order = y.order if order is None else order
    x = TensorSeries(y.gens, order, y.terms)
    x.add_term((), Fraction(-1))
    out = TensorSeries.zero(y.gens, order)
    power = TensorSeries.one(y.gens, order)
    for n in range(1, order + 1):
        power = power * x
        if power.is_zero():
            break
        add_into(out.terms, power.terms, Fraction((-1) ** (n - 1), n))
    return out


def right_nested_terms(word) -> dict:
    """[v1,[v2,[...,[v_{n-1},v_n]].]] expanded on words, with int
    coefficients, by r(v w) = v r(w) - r(w) v (sign ledger F1)."""
    if not word:
        raise InputError("empty bracket word")
    out = {word[-1:]: 1}
    for idx in reversed(word[:-1]):
        head = (idx,)
        nested = {}
        for w, c in out.items():
            add_term(nested, head + w, c)
            add_term(nested, w + head, -c)
        out = nested
    return out


def dsw_project(x: TensorSeries) -> TensorSeries:
    """Dynkin-Specht-Wever map: each word w of length n goes to its
    right-nested bracketing divided by n.  A projection onto the free Lie
    algebra (sign ledger F1)."""
    if x.constant_term() != 0:
        raise DomainError("dsw_project needs a zero constant term")
    out = TensorSeries.zero(x.gens, x.order)
    for w, c in x.terms.items():
        c = c * Fraction(1, len(w))
        for nested, k in right_nested_terms(w).items():
            add_term(out.terms, nested, k * c)
    return out


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


def bch_term_sum(a, b, bracket, max_len, add, zero):
    """Generic explicit BCH driver over any bracket (sign ledger F2).  Each
    distinct bracket word is evaluated once, by a depth-first walk of the
    word trie that keeps only the current innermost-first chain of values."""
    letters = {"a": a, "b": b}
    total = zero

    def walk(value, node):
        nonlocal total
        coeff, children = node
        if coeff:
            total = add(total, value, coeff)
        for letter, child in children:
            walk(bracket(letters[letter], value), child)

    for last, node in _bch_word_trie(max_len):
        walk(letters[last], node)
    return total


def bch_free(a: TensorSeries, b: TensorSeries, order=None) -> TensorSeries:
    """Series oracle: sigma(log(e^a e^b)) inside the truncated tensor algebra."""
    a._check(b)
    order = a.order if order is None else order
    product = tensor_exp(a, order) * tensor_exp(b, order)
    return dsw_project(tensor_log(product, order))


def bch_explicit(a: TensorSeries, b: TensorSeries, order=None) -> TensorSeries:
    """Explicit termwise BCH sum, expanded in the tensor algebra."""
    a._check(b)
    order = a.order if order is None else order
    ao = TensorSeries(a.gens, order, a.terms)
    bo = TensorSeries(b.gens, order, b.terms)
    return bch_term_sum(
        ao,
        bo,
        lambda x, y: x.bracket(y),
        order,
        lambda acc, v, c: acc + v.scale(c),
        TensorSeries.zero(a.gens, order),
    )


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
        B, Bc = self.rows()
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
        self.nilpotency_index = self._nilpotency_index()
        if self.nilpotency_index is None:
            raise StructureError("algebra is not nilpotent")

    def bch(self, x: Element, y: Element) -> Element:
        """The group law x * y; terminates because bracket words of length
        >= nilpotency_index vanish."""
        result = bch_term_sum(
            x,
            y,
            self.bracket,
            self.nilpotency_index - 1 if self.nilpotency_index > 1 else 1,
            lambda acc, v, c: acc + v.scale(c),
            Element(),
        )
        # safety: every longer bracket must vanish
        probe = x
        for _ in range(self.nilpotency_index):
            probe = self.bracket(y, probe)
        if not probe.is_zero():
            raise InternalError("nilpotency bound exceeded in BCH sum")
        return result
