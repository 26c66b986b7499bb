"""Gerstenhaber and odd-Laplacian algebra: graded-commutative algebras with
a square-zero degree +1 operator, the derived symmetric product and bracket,
polynomial polyvector fields, the Schouten bracket and the volume-form
delta (both read one contraction kernel, df -| d/dz_I) with their
compatibility identity, and the isomorphism onto the abelian homotopy
structure induced by iterated products.

Polyvector grading: a polyvector with k frame factors sits in degree -k;
the shift to bracket conventions (degree -k+1) is applied explicitly
(sign ledger G1).
"""

from __future__ import annotations

import itertools
from functools import partial
from math import factorial

from .coalg import CoalgMorphism, all_words, canonical_word, compose_morphisms
from .core import (
    BilinearTable,
    Element,
    GradedBasis,
    add_into,
    add_term,
    admitted,
    basis_rows,
    derivation_residual,
    format_terms,
    int_first,
    lin_into,
    odd,
    report_violations,
    representatives,
    split_plan,
    sym_canonical,
)
from .dgla import DGLA, check_dgla, differential_identities, product_identities
from .errors import DomainError, InputError
from .linfty import LInftyMorphism, LInftyStructure, morphism_check
from .report import CheckReport
from .scalars import int_first_value

# ---------------------------------------------------------------------------
# Graded commutative algebras and GBV structures
# ---------------------------------------------------------------------------


class GradedCommAlgebra(BilinearTable):
    """Finite-dimensional graded-commutative algebra from a multiplication
    table; `unit` optionally names a two-sided identity."""

    def __init__(self, basis: GradedBasis, table, unit=None):
        super().__init__(basis, table, 1, unit)

    product = BilinearTable.apply


class GBVStructure:
    """Algebra plus degree +1 operator delta; the derived symmetric product
    q(a,b) = delta(ab) - delta(a) b - (-1)^deg(a) a delta(b) must make every
    q(a,-) a derivation (odd Poisson).

    `weights` and `cap` mark a truncated structure: an identity instance is
    checked only when its arguments' weights sum to at most `cap`."""

    def __init__(self, algebra: GradedCommAlgebra, delta, weights=None, cap=0):
        self.algebra = algebra
        self.delta_table = int_first(delta)
        self.delta_images = {i: v.terms for i, v in self.delta_table.items()}
        self.weights = None if weights is None else tuple(weights)
        self.cap = cap
        self.triple_filter = None
        self._built = None

    def delta(self, x: Element) -> Element:
        return Element(lin_into({}, self.delta_images, x.terms))

    def _degree(self, x: Element):
        return x.degree(self.algebra.basis)

    def derived_q(self, a: Element, b: Element) -> Element:
        da = self._degree(a)
        if da is None:
            return Element()
        mul = self.algebra.product
        return (
            self.delta(mul(a, b))
            - mul(self.delta(a), b)
            - mul(a, self.delta(b)).scale((-1) ** (da % 2))
        )

    def _tables(self):
        """The derived-product rows and columns Q, Qc with
        Q[i][j] = q(e_i, e_j), built once on first use and only read after."""
        if self._built is None:
            alg = self.algebra
            ad = derivation_residual(alg.rows, alg.cols, alg.basis.degree)
            self._built = basis_rows(partial(ad, self.delta_images, 1), len(alg.basis))
        return self._built

    def gbv_check(self) -> CheckReport:
        """Degree-additivity, graded commutativity and associativity of the
        product, delta degree +1, delta^2 = 0, delta(1) = 0 when unital, and
        the odd Poisson identity for the derived product on basis triples."""
        alg = self.algebra
        P, Pc, D, Q = alg.rows, alg.cols, self.delta_images, self._tables()[0]
        n = len(alg.basis)
        deg = alg.basis.degree
        degree, comm, assoc = product_identities(alg, P, Pc)
        delta_degree, delta_square = differential_identities(D, deg, "delta", "delta")
        # q(a, bc) - q(a,b) c - (-1)^{(a+1) b} b q(a,c): q(a,-) is a derivation
        ad = derivation_residual(P, Pc, deg)
        poisson = lambda i, j, k: ad(Q[i], deg(i) + 1, j, k)
        units = [] if alg.unit is None else [(alg.unit,)]
        # with graded commutativity the associator is graded antisymmetric
        # under a <-> c and, with delta of degree +1, the odd Poisson
        # residual graded symmetric under b <-> c (sign ledger K5)
        weights, cap = self.weights, self.cap
        assoc_orbits = poisson_orbits = None
        if alg.swap_rule:
            assoc_orbits = representatives(n, 3, (0, 2), weights, cap)
            if all(deg(t) == deg(i) + 1 for i, img in D.items() for t in img):
                poisson_orbits = representatives(n, 3, (1, 2), weights, cap)
        steps = [
            (alg.table, [degree]),
            (admitted(n, 2), [comm]),
            (admitted(n, 3, weights, cap), [assoc], assoc_orbits),
            ([(i,) for i in D], [delta_degree]),
            (admitted(n, 1), [delta_square]),
            (units, [("delta(1)", "delta(1) != 0", D.get)]),
            (
                admitted(n, 3, weights, cap),
                [("oddpoisson({},{},{})", "odd Poisson identity fails", poisson)],
                poisson_orbits,
            ),
        ]
        names, rep = alg.basis.names, CheckReport("gbv-check")
        show = partial(format_terms, names)
        return report_violations(rep, names.__getitem__, show, steps)

    def _shifted(self, Q) -> DGLA:
        # [e_i, e_j] = (-1)^{deg i + 1} q(e_i, e_j) (sign ledger G2)
        basis = self.algebra.basis
        shifted = GradedBasis(basis.names, tuple(d + 1 for d in basis.degrees))
        table = {}
        for i, row in enumerate(Q):
            sign = 1 if basis.degree(i) % 2 else -1
            for j, q in row.items():
                table[(i, j)] = Element(q).scale(sign)
        return DGLA(shifted, table, dict(self.delta_table))

    def dgla_verify(self) -> CheckReport:
        """Instance verification that the shifted bracket with delta is a
        DGLA, plus the derived-product compatibility
        delta q(a,b) + q(delta a, b) + (-1)^{deg a} q(a, delta b) = 0,
        with q applied bilinearly."""
        D = self.delta_images
        Q, Qc = self._tables()
        rep = check_dgla(self._shifted(Q), self.weights, self.cap)
        rep.command = "gbv-dgla"
        basis = self.algebra.basis
        # q has degree +1: delta q(a,b) = -q(delta a, b) - (-1)^a q(a, delta b)
        delta_q = partial(derivation_residual(Q, Qc, basis.degree, 1), D, 1)
        show = partial(format_terms, basis.names)
        message = "delta is not a derivation of the derived product"
        pairs = admitted(len(basis), 2, self.weights, self.cap)
        steps = [(pairs, [("delta-q({},{})", message, delta_q)])]
        return report_violations(rep, basis.names.__getitem__, show, steps)


# ---------------------------------------------------------------------------
# Polynomial polyvector fields
# ---------------------------------------------------------------------------


class Polyvector(Element):
    """Sum of terms f(z) d/dz_I: keys are (monomial exponent tuple, strictly
    increasing frame tuple), values exact rationals, each stored as an int
    where it is integral (`scalars.int_first_value`), so the kernels below
    run on int products wherever their inputs allow.  Degree of a term is
    -len(frame); `cap` is a bound every monomial satisfies, carried but not
    compared; a sum or difference takes the larger cap, a wedge the sum."""

    __slots__ = ("nvars", "cap")
    _compared = ("nvars",)

    def __init__(self, nvars, cap=None, terms=None):
        self.nvars = nvars
        self.terms = {}
        maxdeg = 0
        if terms:
            for (mono, frame), c in terms.items():
                if not c:
                    continue
                mono = tuple(mono)
                frame = tuple(frame)
                if len(mono) != nvars:
                    raise InputError("monomial length must equal the variable count")
                if list(frame) != sorted(set(frame)) or any(
                    not 0 <= i < nvars for i in frame
                ):
                    raise InputError(f"bad frame {frame}")
                maxdeg = max(maxdeg, sum(mono))
                add_term(self.terms, (mono, frame), int_first_value(c))
        self.cap = cap if cap is not None else maxdeg
        if any(sum(m) > self.cap for (m, _) in self.terms):
            raise InputError("monomial degree exceeds the declared cap")

    def _sum(self, other, terms):
        out = Element._sum(self, other, terms)
        out.cap = max(self.cap, other.cap)
        return out

    def degree(self):
        degs = {-len(frame) for (_, frame) in self.terms}
        if len(degs) > 1:
            raise DomainError("inhomogeneous polyvector")
        return degs.pop() if degs else None

    def wedge(self, other) -> "Polyvector":
        self._check(other)
        out = self._like(_wedge_terms(self, other))
        out.cap = self.cap + other.cap
        return out

    def __repr__(self):
        def showterm(mono, frame, c):
            poly = "*".join(
                f"z{i+1}^{e}" if e > 1 else f"z{i+1}"
                for i, e in enumerate(mono)
                if e
            )
            dz = "^".join(f"d{i+1}" for i in frame)
            return f"{c}*{poly or '1'}*{dz or '1'}"

        return (
            " + ".join(showterm(m, f, c) for (m, f), c in sorted(self.terms.items()))
            or "0"
        )


def _wedge_terms(a, b):
    """The terms of a ^ b for polyvectors or forms: monomials multiply and
    frames merge by the signed sort with every letter odd (sign ledger G3)."""
    out = {}
    for (m1, f1), c1 in a.terms.items():
        for (m2, f2), c2 in b.terms.items():
            canon = sym_canonical(f1 + f2, odd)
            if canon is None:
                continue
            frame, sign = canon
            mono = tuple(x + y for x, y in zip(m1, m2))
            c = c1 * c2
            add_term(out, (mono, frame), c if sign > 0 else -c)
    return out


def _contractions(mono, frame):
    """The terms of df -| d/dz_frame for the monomial f = z^mono: for each j
    of the frame with z_j in f, in increasing order, (exponent of z_j, mono
    with z_j lowered, (-1)^k for j at index k of the frame, the frame
    without j) (sign ledger G3)."""
    for k, j in enumerate(frame):
        e = mono[j]
        if e:
            lowered = mono[:j] + (e - 1,) + mono[j + 1 :]
            yield e, lowered, -1 if k % 2 else 1, frame[:k] + frame[k + 1 :]


def schouten(a: Polyvector, b: Polyvector) -> Polyvector:
    """[f d/dz_I, g d/dz_H] = (-1)^{|I|-1} f (dg -| d/dz_I) ^ d/dz_H
    - g d/dz_I ^ (df -| d/dz_H), extended bilinearly (sign ledger G3)."""
    if a.nvars != b.nvars:
        raise InputError("polyvectors on different variable counts")
    terms = {}
    # a term is c1 c2 times one int: the exponent times the contraction,
    # sort and lead signs, multiplied together first
    for (m1, f1), c1 in a.terms.items():
        lead_sign = -1 if len(f1) % 2 == 0 else 1
        for (m2, f2), c2 in b.terms.items():
            c = c1 * c2
            # (-1)^{|I|-1} f (dg -| d/dz_I) ^ d/dz_H
            for e, lowered, csign, reduced in _contractions(m2, f1):
                canon = sym_canonical(reduced + f2, odd)
                if canon is None:
                    continue
                mono = tuple(x + y for x, y in zip(m1, lowered))
                k = e * csign * canon[1] * lead_sign
                add_term(terms, (mono, canon[0]), c * k)
            # - g d/dz_I ^ (df -| d/dz_H)
            for e, lowered, csign, reduced in _contractions(m1, f2):
                canon = sym_canonical(f1 + reduced, odd)
                if canon is None:
                    continue
                mono = tuple(x + y for x, y in zip(lowered, m2))
                k = -e * csign * canon[1]
                add_term(terms, (mono, canon[0]), c * k)
    out = a._like(terms)
    out.cap = max(a.cap + b.cap - 1, 0)
    return out


def delta_volume(a: Polyvector) -> Polyvector:
    """The operator defined by (delta a) -| Omega = del(a -| Omega) for
    Omega = dz_n ^ ... ^ dz_1, computed as delta(f d/dz_I) = df -| d/dz_I
    (sign ledger G4; the Omega route is the test oracle)."""
    terms = {}
    for (mono, frame), c in a.terms.items():
        for e, lowered, sign, reduced in _contractions(mono, frame):
            add_term(terms, (lowered, reduced), c * (e * sign))
    out = a._like(terms)
    out.cap = max(a.cap - 1, 0)
    return out


def tian_todorov_check(a: Polyvector, b: Polyvector) -> CheckReport:
    """(-1)^s [a,b] = delta(a^b) - delta(a)^b - (-1)^{s-1} a^delta(b) with s
    the shifted degree of a and [,] the Schouten bracket (sign ledger G4)."""
    rep = CheckReport("tian-todorov")
    s = a.degree()
    if s is None:
        rep.add("input", "", "left argument is zero or inhomogeneous")
        return rep
    s += 1  # shifted degree
    sign = (-1) ** (s % 2)
    # one residual: (-1)^s [a,b] - delta(a^b) + delta(a)^b + (-1)^{s-1} a^delta(b)
    diff = add_into({}, schouten(a, b).terms, sign)
    add_into(diff, delta_volume(a.wedge(b)).terms, -1)
    add_into(diff, _wedge_terms(delta_volume(a), b))
    add_into(diff, _wedge_terms(a, delta_volume(b)), -sign)
    if diff:
        rep.add("identity", repr(a._like(diff)), "Tian-Todorov identity fails")
    return rep


# ---------------------------------------------------------------------------
# The polyvector GBV structure (degree-capped quotient)
# ---------------------------------------------------------------------------


def polyvector_basis(nvars, cap):
    """Deterministic list of (monomial, frame) pairs with poly degree <= cap."""
    monos = sorted(
        (m for m in itertools.product(range(cap + 1), repeat=nvars) if sum(m) <= cap),
        key=lambda m: (sum(m), m),
    )
    frames = []
    for r in range(nvars + 1):
        frames.extend(itertools.combinations(range(nvars), r))
    return [(m, f) for m in monos for f in frames]


def polyvector_gbv(nvars, cap) -> GBVStructure:
    """GBV structure on polyvectors with monomials of degree <= cap; products
    beyond the cap are truncated, so identities are exact (and verified) on
    triples whose total polynomial degree stays within the cap."""
    keys = polyvector_basis(nvars, cap)
    index = {k: i for i, k in enumerate(keys)}
    names = tuple(
        "m" + "".join(map(str, m)) + "f" + "".join(str(i + 1) for i in f)
        for m, f in keys
    )
    degrees = tuple(-len(f) for _, f in keys)
    basis = GradedBasis(names, degrees)

    def to_element(pv: Polyvector) -> Element:
        out = Element()
        for (m, f), c in pv.terms.items():
            if sum(m) <= cap:
                out.add_term(index[(m, f)], c)
        return out

    polydeg = [sum(m) for m, _ in keys]
    units = [Element({k: 1}) for k in keys]
    table = {}
    for i, a in enumerate(units):
        for j, b in enumerate(units):
            if polydeg[i] + polydeg[j] > cap:
                continue  # truncated to zero
            # two single terms wedge to at most one term, within the cap
            for k, c in _wedge_terms(a, b).items():
                table[(i, j)] = Element({index[k]: c})
    algebra = GradedCommAlgebra(basis, table)

    # delta(z^m d/dz_f) = dz^m -| d/dz_f lowers the degree, so stays within
    # the cap; its terms have distinct frames
    delta_table = {}
    for i, (m, f) in enumerate(keys):
        img = {
            index[lowered, reduced]: e * sign
            for e, lowered, sign, reduced in _contractions(m, f)
        }
        if img:
            delta_table[i] = Element(img)

    S = GBVStructure(algebra, delta_table, polydeg, cap)
    S.keys = keys
    S.to_element = to_element
    return S


# ---------------------------------------------------------------------------
# The product morphism onto the abelian structure
# ---------------------------------------------------------------------------


def gbv_linfty_structures(S: GBVStructure):
    """The pair of homotopy structures on the shifted algebra: the full one
    (components delta and the derived product) and the abelian one (delta
    alone)."""
    basis = S.algebra.basis
    space = GradedBasis(basis.names, tuple(d + 1 for d in basis.degrees))
    shifted = basis  # suspension of `space` has the original degrees
    t1 = {(i,): v for i, v in S.delta_table.items()}
    t2 = {}
    Q = S._tables()[0]
    n = len(basis)
    for i in range(n):
        for j in range(i, n):
            canon = canonical_word(shifted, (i, j))
            if canon is not None and j in Q[i]:
                t2[canon[0]] = Element(Q[i][j])
    return LInftyStructure(space, {1: t1, 2: t2}), LInftyStructure(space, {1: t1})


def times_letters(alg: GradedCommAlgebra, acc: Element, letters) -> Element:
    """acc e_{l_1} e_{l_2} ... for the letters l_1, l_2, ..., multiplied
    from the left."""
    for idx in letters:
        acc = Element(lin_into({}, alg.cols[idx], acc.terms))
    return acc


def product_components(S: GBVStructure, m_max, coefficient=None):
    """Components a_1 (.) ... (.) a_m -> c(m) * a_1 a_2 ... a_m on canonical
    words of the algebra basis; c defaults to 1."""
    basis = S.algebra.basis
    tables = {}
    for m in range(1, m_max + 1):
        c = coefficient(m) if coefficient else 1
        if not c:
            continue
        table = tables[m] = {}
        for word in all_words(basis, m, min_len=m):
            first = Element.basis_vector(word[0])
            table[word] = times_letters(S.algebra, first, word[1:]).scale(c)
    return tables


def inverse_components(S: GBVStructure, m_max):
    """Inverse morphism components on the symmetric coalgebra: the
    sign-flipped products carry the series-inversion factor,
    c(m) = (-1)^{m-1} (m-1)!  (for m <= 2 this is exactly the flipped
    sign; the factorial is what ordered-set-partition counting needs in
    place of the consecutive-block counting of the tensor coalgebra)."""
    return product_components(
        S, m_max, lambda m: (-1) ** ((m - 1) % 2) * factorial(m - 1)
    )


def tensor_inverse_check(S: GBVStructure) -> CheckReport:
    """The tensor-coalgebra statement verbatim: the comorphism induced by
    the product has corestricted inverse with components (-1)^{m-1} times
    the product; on an ordered word the composite reduces to
    sum_s (-1)^{s-1} binom(n-1, s-1) (full product) = 0 for n >= 2.
    Verified by explicit enumeration of consecutive-block compositions on
    the words of length at most 3."""
    alg = S.algebra
    n = len(alg.basis)

    def compositions(length):
        if length == 0:
            yield ()
            return
        for first in range(1, length + 1):
            for rest in compositions(length - first):
                yield (first,) + rest

    def residual(word):
        acc = {word[0]: -1} if len(word) == 1 else {}
        for comp in compositions(len(word)):
            value, pos = None, 0
            for size in comp:
                block = word[pos : pos + size]
                pos += size
                prod = times_letters(alg, Element.basis_vector(block[0]), block[1:])
                # blocks are consecutive: the product of the block values
                value = prod if value is None else alg.product(value, prod)
            add_into(acc, value.terms, (-1) ** ((len(comp) - 1) % 2))
        return acc

    words = (
        (word,)
        for total in range(1, 4)
        for word in itertools.product(range(n), repeat=total)
    )
    message = "tensor-side inverse composition fails"
    steps = [(words, [("tensor word {}", message, residual)])]
    show = partial(format_terms, alg.basis.names)
    return report_violations(CheckReport("tensor-inverse"), str, show, steps)


def gbv_to_abelian(S: GBVStructure, m_max=4):
    """The iterated-product morphism from the full structure to the abelian
    one, its sign-flipped inverse, and the verification report (morphism
    equation, composition to the identity on words of length <= 3, and the
    coproduct expansion of delta on products for m = 2, 3).  On a truncated
    structure the morphism equation and the expansion run on the words whose
    weights sum to at most `S.cap`, where the truncated products are exact."""
    rep = CheckReport("gbv-to-abelian")
    full, abelian = gbv_linfty_structures(S)
    f_tables = product_components(S, m_max)
    g_tables = inverse_components(S, 3)
    F = LInftyMorphism(full, abelian, f_tables)
    mrep = morphism_check(F, m_max, S.weights, S.cap)
    rep.merge(mrep, prefix="morphism: ")

    # F* o F = F o F* = identity on words of length <= 3
    alg = S.algebra
    basis = alg.basis
    e = Element.basis_vector
    Fstar = CoalgMorphism(basis, basis, g_tables)

    def inverse_step(outer, inner, tag):
        """(outer o inner)^1(w) = w^1 on the words of length <= 3."""
        comps = compose_morphisms(outer, inner, words)
        minus_w = lambda w: {w[0]: -1} if len(w) == 1 else {}
        residual = lambda w: add_into(dict(comps[w].terms), minus_w(w))
        identity = (f"inverse {tag} on {{}}", f"{tag} is not the identity", residual)
        return [(w,) for w in words], [identity]

    words = all_words(basis, 3)
    show = partial(format_terms, basis.names)
    steps = [inverse_step(Fstar, F.coalg, "F* F"), inverse_step(F.coalg, Fstar, "F F*")]
    report_violations(rep, str, show, steps)

    rep.merge(tensor_inverse_check(S), prefix="tensor side: ")

    # expansion identity: delta(a_1...a_m) equals the two unshuffle sums
    def expansion(word):
        m = len(word)
        parities = tuple(basis.degree(i) % 2 for i in word)
        out = S.delta(times_letters(alg, e(word[0]), word[1:])).terms
        for front, rest, sign in split_plan(m, 1, parities):
            acc = S.delta(e(word[front[0]]))
            rest = [word[t] for t in rest]
            add_into(out, times_letters(alg, acc, rest).terms, -sign)
        for front, rest, sign in split_plan(m, 2, parities):
            acc = S.derived_q(e(word[front[0]]), e(word[front[1]]))
            rest = [word[t] for t in rest]
            add_into(out, times_letters(alg, acc, rest).terms, -sign)
        return out

    message = "coproduct expansion of delta fails"
    steps = [
        (
            [(word,) for word in all_words(basis, m, m, S.weights, S.cap)],
            [(f"expansion m={m} on {{}}", message, expansion)],
        )
        for m in (2, 3)
    ]
    report_violations(rep, str, show, steps)
    return F, Fstar, rep
