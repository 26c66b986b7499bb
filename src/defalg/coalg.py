"""Truncated reduced symmetric coalgebras: the subset coproduct, iterated
coproducts, the embedding into symmetric tensors, and the lifting formulas
turning corestriction components into coderivations and coalgebra morphisms.

Elements of S(V) (reduced: word length >= 1) are sparse maps from canonical
words (tuples of basis indices) to rationals (int or Fraction).  All
computations are truncated at an explicit word length; conclusions about
words of length <= N are exact.
"""

from __future__ import annotations

from math import comb

from .core import (
    Element,
    GradedBasis,
    add_into,
    add_term,
    check_weights,
    multiset_plan,
    report_violations,
    signed_permutations,
    split_plan,
    sym_canonical,
    word_runs,
)
from .errors import DomainError, InputError
from .report import CheckReport
from .scalars import Q1

# ---------------------------------------------------------------------------
# Words and sparse coalgebra elements
# ---------------------------------------------------------------------------


def word_degree(basis: GradedBasis, word) -> int:
    return sum(basis.degree(i) for i in word)


def canonical_word(basis: GradedBasis, word):
    """(canonical word, sign) or None for the zero word."""
    return sym_canonical(word, basis.degree)


class SymElement(Element):
    """Sparse element of the reduced symmetric algebra on a graded basis:
    canonical words to coefficients."""

    __slots__ = ("basis",)

    def __init__(self, basis: GradedBasis, terms=None):
        self.basis = basis
        Element.__init__(self, terms)

    def add_word(self, word, coeff):
        canon = canonical_word(self.basis, word)
        if canon is not None:
            add_term(self.terms, canon[0], coeff * canon[1])

    def __repr__(self):
        def show(w):
            return "(.)".join(self.basis.names[i] for i in w)

        return " + ".join(f"{c}*{show(w)}" for w, c in sorted(self.terms.items())) or "0"


class TensorProductElement(Element):
    """Sparse element of S(V)^{(x) k}: maps k-tuples of canonical words to
    coefficients.  Used for iterated coproducts."""

    __slots__ = ("basis", "slots")
    _compared = ("slots",)

    def __init__(self, basis, slots, terms=None):
        self.basis = basis
        self.slots = slots
        Element.__init__(self, terms)


# ---------------------------------------------------------------------------
# Coproduct and the symmetric-tensor embedding
# ---------------------------------------------------------------------------


def coproduct(basis: GradedBasis, word) -> TensorProductElement:
    """Reduced coproduct: sum over nonempty proper position subsets I of
    eps(I, I^c) w_I (x) w_{I^c}, the splits of the canonical word read from
    `split_plan` (sign ledger C1)."""
    out = TensorProductElement(basis, 2)
    canon = canonical_word(basis, word)
    if canon is None:
        return out
    cw, sign = canon
    n = len(cw)
    parities = tuple(basis.degree(i) % 2 for i in cw)
    for k in range(1, n):
        for front, rest, s in split_plan(n, k, parities):
            key = (tuple(cw[i] for i in front), tuple(cw[i] for i in rest))
            out.add_term(key, sign * s)
    return out


def coproduct_element(el: SymElement) -> TensorProductElement:
    out = TensorProductElement(el.basis, 2)
    for w, c in el.terms.items():
        part = coproduct(el.basis, w)
        for k, v in part.terms.items():
            out.add_term(k, v * c)
    return out


def iterated_coproduct(basis: GradedBasis, word, slots: int) -> TensorProductElement:
    """l^{(slots-1)} = (Id (x) l^{(slots-2)}) l: S(V) -> S(V)^{(x) slots},
    with l^{(0)} the canonical word itself.  Coassociativity makes any
    composition order agree with this one."""
    out = TensorProductElement(basis, slots)
    if slots == 1:
        canon = canonical_word(basis, word)
        if word and canon is not None:
            out.add_term((canon[0],), canon[1])
        return out
    for (lw, rw), c in coproduct(basis, word).terms.items():
        for tail, c2 in iterated_coproduct(basis, rw, slots - 1).terms.items():
            out.add_term((lw,) + tail, c * c2)
    return out


def n_map(basis: GradedBasis, word) -> dict:
    """N(v_1 (.) ... (.) v_n) = sum over all permutations with Koszul signs,
    valued in the tensor algebra (tuples of indices, order significant)."""
    degrees = [basis.degree(i) for i in word]
    out = {}
    for sign, images in signed_permutations(degrees):
        add_term(out, tuple(word[i] for i in images), sign)
    return out


def tensor_coproduct_reduced(tensor: dict) -> dict:
    """Reduced deconcatenation on the tensor algebra: the oracle side of
    the N-map intertwining law.  Keys are (left_tuple, right_tuple)."""
    out = {}
    for word, c in tensor.items():
        for cut in range(1, len(word)):
            add_term(out, (word[:cut], word[cut:]), c)
    return out


# ---------------------------------------------------------------------------
# Coderivations
# ---------------------------------------------------------------------------


def _check_arity(k, word):
    """A table keyed by arity k >= 1 holds words of length k only."""
    if len(word) != k or k < 1:
        raise InputError(
            f"component word {tuple(word)} has length {len(word)}, not its arity {k}"
        )


class ComponentMap:
    """Corestriction components: the k-th symmetric power of `basis` ->
    the span of `target` (by default `basis` itself), all of one degree;
    the table maps canonical words of length k to Elements of the target.
    Coderivations hold the q_k, coalgebra morphisms the degree-0 f_k."""

    def __init__(self, basis: GradedBasis, degree: int, tables, target=None):
        self.basis = basis
        self.degree = degree
        self.target = basis if target is None else target
        self.tables = {}
        for k, table in tables.items():
            clean = {}
            for word, value in table.items():
                _check_arity(k, word)
                canon = canonical_word(basis, word)
                if canon is None:
                    raise InputError(f"component on a zero word {word}")
                cw, sign = canon
                if cw != tuple(word):
                    raise InputError(f"component word {word} is not canonical")
                if not value.is_zero():
                    clean[cw] = value.copy()
                    got = value.degree(self.target)
                    want = word_degree(basis, cw) + degree
                    if got is not None and got != want:
                        raise DomainError(
                            f"component q_{k}{word} has degree {got}, expected {want}"
                        )
            if clean:
                self.tables[k] = clean

    def arities(self):
        return sorted(self.tables)

    def apply_word(self, word) -> Element:
        """q_{len(word)} on a not-necessarily-canonical word."""
        table = self.tables.get(len(word))
        if not table:
            return Element()
        canon = canonical_word(self.basis, word)
        if canon is None:
            return Element()
        cw, sign = canon
        base = table.get(cw)
        if base is None:
            return Element()
        return base.scale(sign)

    def apply(self, el: SymElement) -> Element:
        out = Element()
        for w, c in el.terms.items():
            add_into(out.terms, self.apply_word(w).terms, c)
        return out


class Coderivation:
    """Coderivation of S(V) presented by its corestriction components.

    The lift is Q(w) = sum_k sum_{(k, n-k) unshuffles} eps * q_k(front) (.)
    rest (sign ledger C2), summed over the distinct sub-multisets of the
    canonical word; it preserves word length filtration and is the unique
    coderivation with the given components.
    """

    def __init__(self, components: ComponentMap):
        self.components = components
        self.basis = components.basis
        self.degree = components.degree
        self.parity = [d % 2 for d in self.basis.degrees].__getitem__

    def apply_word(self, word) -> SymElement:
        """Q on a not-necessarily-canonical word: the sub-multiset sum of its
        canonical word times the K4 sign, 0 on a zero word; each front is
        canonical with sign +1, so q_k(front) is read from the table (sign
        ledger C2(b))."""
        out = SymElement(self.basis)
        canon = canonical_word(self.basis, word)
        if canon is None:
            return out
        cw, sign = canon
        n, letter = len(cw), cw.__getitem__
        runs = word_runs(cw, self.parity)
        for k, table in sorted(self.components.tables.items()):
            if k > n:
                break
            for front, rest, s in multiset_plan(runs, k):
                value = table.get(tuple(map(letter, front)))
                if value is None:
                    continue
                tail = tuple(map(letter, rest))
                for idx, c in value.terms.items():
                    out.add_word((idx,) + tail, c * s * sign)
        return out

    def coleibnitz_report(self, words) -> CheckReport:
        """Delta Q = (Q (x) Id + Id (x) Q) Delta on the given words."""

        def coleibnitz(word):
            lhs = coproduct_element(self.apply_word(word))
            rhs = TensorProductElement(self.basis, 2)
            for (lw, rw), c in coproduct(self.basis, word).terms.items():
                for w2, c2 in self.apply_word(lw).terms.items():
                    rhs.add_term((w2, rw), c * c2)
                sign = -1 if (self.degree * word_degree(self.basis, lw)) % 2 else 1
                for w2, c2 in self.apply_word(rw).terms.items():
                    rhs.add_term((lw, w2), c * c2 * sign)
            return (lhs - rhs).terms

        steps = [([(w,) for w in words], [("word {}", "coLeibnitz fails", coleibnitz)])]
        return report_violations(CheckReport("coder-coleibnitz"), str, str, steps)


def coder_lift(basis, degree, tables) -> Coderivation:
    """Assemble a coderivation from raw component tables
    {arity: {word: Element}}."""
    return Coderivation(ComponentMap(basis, degree, tables))


# ---------------------------------------------------------------------------
# Coalgebra morphisms
# ---------------------------------------------------------------------------


class CoalgMorphism:
    """Morphism S(V) -> S(W) presented by degree-0 components f_k: k-th
    symmetric power of V -> W; the lift is F = sum_s ((.)^s f)/s! of the
    iterated coproduct, summed as a first-block recursion (sign ledger C3)."""

    def __init__(self, source: GradedBasis, target: GradedBasis, tables):
        self.source = source
        self.target = target
        self.components = ComponentMap(source, 0, tables, target)

    def apply_word(self, word) -> SymElement:
        """F(w) = sum over blocks B holding the first letter of
        eps(B, B^c) f(w_B) (.) F(w_{B^c}), with F(()) = 1 (sign ledger C3);
        each subword's lift is computed once per call."""
        canon = canonical_word(self.source, word)
        if not word or canon is None:
            return SymElement(self.target)
        degree = self.source.degree
        memo = {(): {(): Q1}}

        def lift(sub):
            got = memo.get(sub)
            if got is not None:
                return got
            n = len(sub)
            parities = tuple(degree(i) % 2 for i in sub)
            out = SymElement(self.target)
            for k, table in self.components.tables.items():
                if k > n:
                    continue
                for front, rest, sign in split_plan(n, k, parities):
                    if front[0]:
                        break
                    value = table.get(tuple(sub[i] for i in front))
                    if value is None:
                        continue
                    tail = lift(tuple(sub[i] for i in rest))
                    for idx, c in value.terms.items():
                        for w, c2 in tail.items():
                            out.add_word((idx,) + w, c * c2 * sign)
            memo[sub] = out.terms
            return out.terms

        cw, sign = canon
        return SymElement(self.target, {w: c * sign for w, c in lift(cw).items()})

    def comorphism_report(self, words) -> CheckReport:
        """l F = (F (x) F) l on the given source words."""

        def comorphism(word):
            lhs = coproduct_element(self.apply_word(word))
            rhs = TensorProductElement(self.target, 2)
            for (lw, rw), c in coproduct(self.source, word).terms.items():
                for w1, c1 in self.apply_word(lw).terms.items():
                    for w2, c2 in self.apply_word(rw).terms.items():
                        rhs.add_term((w1, w2), c * c1 * c2)
            return (lhs - rhs).terms

        steps = [([(w,) for w in words], [("word {}", "l F != (F x F) l", comorphism)])]
        return report_violations(CheckReport("comorphism"), str, str, steps)


def compose_morphisms(G: CoalgMorphism, F: CoalgMorphism, words) -> dict:
    """Components of G o F on the given canonical source words:
    {word: Element} with (G o F)^1 = G^1 o F."""
    out = {}
    for word in words:
        img = F.apply_word(word)
        val = G.components.apply(img)
        out[tuple(word)] = val
    return out


def word_counts(basis: GradedBasis, max_len: int):
    """(k, the number of words of length k that `all_words(basis, max_len)`
    lists) for k = 1, 2, ..., found without listing them (even letters
    repeat, odd letters appear at most once); stops before the first length
    with no word, after which every length has none."""
    odd = sum(d % 2 for d in basis.degrees)
    even = len(basis) - odd
    for k in range(1, max_len + 1):
        if not even and k > odd:
            return
        # j distinct odd letters and a multiset of k - j even letters
        yield k, sum(
            comb(odd, j) * (comb(even + k - j - 1, k - j) if even else int(j == k))
            for j in range(min(k, odd) + 1)
        )


def all_words(basis: GradedBasis, max_len: int, min_len: int = 1, weights=None, cap=0):
    """All canonical words of length min_len..max_len (min_len >= 1; odd
    symbols without repetition), by length and then lexicographically; with
    `weights` (one nonnegative int per basis index) only those whose weights
    sum to at most `cap`, as in `core.admitted`.  Each length extends the
    words of the one before by a letter >= their last, > it when that letter
    is odd."""
    n = len(basis)
    if weights is None:
        weights, cap = (0,) * n, 0
    check_weights(n, weights, cap)
    odd = [d % 2 for d in basis.degrees]
    out = []
    level = [((), cap)]  # the words of one length with their unspent budget
    for length in range(1, max_len + 1):
        level = [
            (word + (i,), budget - weights[i])
            for word, budget in level
            for i in range(word[-1] + odd[word[-1]] if word else 0, n)
            if weights[i] <= budget
        ]
        if not level:
            break
        if length >= min_len:
            out += [word for word, _ in level]
    return out
