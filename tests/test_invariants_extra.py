"""Remaining cross-module invariants: the abelian gauge-class dimension
count, operator-level coderivation bracket axioms, odd-Poisson generator
economy, and quasi-isomorphism bookkeeping for verified morphisms."""

import itertools
import random
from fractions import Fraction

from defalg import linalg
from defalg.coalg import SymElement, all_words, coder_lift
from defalg.core import Element, GradedBasis
from defalg.dgla import DGLA, ArtinDg, TensorDgla, cohomology
from defalg.gbv import GBVStructure
from defalg.linfty import LInftyMorphism, from_dgla, morphism_check
from defalg.models import exterior_gbv

F = Fraction


def e(i, c=1):
    return Element.basis_vector(i, F(c))


def test_abelian_gauge_classes_have_h1_times_m_dimension():
    # abelian L: gauge classes = Z^1 (x) m_A / d(L^0 (x) m_A); its dimension
    # is dim H^1(L) * dim m_A
    basis = GradedBasis.of(("a", 0), ("b", 0), ("x", 1), ("y", 1), ("z", 2))
    L = DGLA(basis, {}, {0: e(2), 3: e(4)})  # d a = x, d y = z
    A = ArtinDg(
        GradedBasis.of(("t", 0), ("t2", 0)), {(0, 0): e(1)}, {}
    )
    M = TensorDgla(L, A)

    _, _, dims = cohomology(L, 1)
    h1 = dims[2]
    m_dim = len(A.basis)

    # Z^1 (x) m_A: cycles of total degree 1 in the tensor algebra
    degree1 = [p for p in range(len(M.basis)) if M.basis.degree(p) == 1]
    z_cols = []
    for p in degree1:
        img = M.d(Element.basis_vector(p))
        z_cols.append(img)
    all_next = sorted({k for img in z_cols for k in img.terms})
    matrix = [
        [z_cols[c].terms.get(k, F(0)) for c in range(len(degree1))] for k in all_next
    ]
    rows = [dict(enumerate(r)) for r in matrix]
    z_basis = linalg.kernel_basis(rows, range(len(degree1)))
    # d(L^0 (x) m_A) inside degree-1 coordinates
    degree0 = [p for p in range(len(M.basis)) if M.basis.degree(p) == 0]
    b_vectors = []
    for p in degree0:
        img = M.d(Element.basis_vector(p))
        vec = [img.terms.get(q, F(0)) for q in degree1]
        if any(vec):
            b_vectors.append(vec)
    b_rank = linalg.rank(dict(enumerate(v)) for v in b_vectors)
    quotient_dim = len(z_basis) - b_rank
    assert quotient_dim == h1 * m_dim


def test_coderivation_bracket_operator_dgla_axioms():
    # coderivations with the commutator bracket and differential [d, -]
    # satisfy the graded Lie axioms at the level of word actions
    basis = GradedBasis.of(("a", 1), ("b", 2), ("c", 1), ("d", 0))
    rng = random.Random(71)
    words = all_words(basis, 3)

    def random_coder(degree):
        tables = {}
        for k in (1, 2):
            table = {}
            for word in all_words(basis, k, min_len=k):
                val = Element()
                want = sum(basis.degree(i) for i in word) + degree
                for i in range(len(basis)):
                    if basis.degree(i) == want:
                        cc = rng.randint(-1, 1)
                        if cc:
                            val.add_term(i, F(cc))
                if not val.is_zero():
                    table[word] = val
            if table:
                tables[k] = table
        return coder_lift(basis, degree, tables)

    def act(Q, word):
        return Q.apply_word(word)

    def compose(P, Q, word):
        acc = SymElement(basis)
        for w, c in Q.apply_word(word).terms.items():
            acc = acc + P.apply_word(w).scale(c)
        return acc

    def bracket(P, Q, word):
        sign = F((-1) ** ((P.degree * Q.degree) % 2))
        return compose(P, Q, word) - compose(Q, P, word).scale(sign)

    for _ in range(5):
        P = random_coder(rng.choice((0, 1)))
        Q = random_coder(rng.choice((0, 1)))
        R = random_coder(rng.choice((0, 1)))
        for word in words:
            # graded antisymmetry
            anti = bracket(P, Q, word) + bracket(Q, P, word).scale(
                F((-1) ** ((P.degree * Q.degree) % 2))
            )
            assert anti.is_zero()
            # graded Jacobi: [P,[Q,R]] = [[P,Q],R] + (-1)^{pq}[Q,[P,R]]
            # evaluated as word actions
            def act_fn(X):
                return lambda word: X.apply_word(word)

            def bracket_fn(Xf, xdeg, Yf, ydeg):
                sign = F((-1) ** ((xdeg * ydeg) % 2))

                def out(word):
                    acc = SymElement(basis)
                    for w, c in Yf(word).terms.items():
                        acc = acc + Xf(w).scale(c)
                    swap = SymElement(basis)
                    for w, c in Xf(word).terms.items():
                        swap = swap + Yf(w).scale(c)
                    return acc - swap.scale(sign)

                return out

            pq = bracket_fn(act_fn(P), P.degree, act_fn(Q), Q.degree)
            qr = bracket_fn(act_fn(Q), Q.degree, act_fn(R), R.degree)
            pr = bracket_fn(act_fn(P), P.degree, act_fn(R), R.degree)
            lhs = bracket_fn(act_fn(P), P.degree, qr, Q.degree + R.degree)(word)
            rhs1 = bracket_fn(pq, P.degree + Q.degree, act_fn(R), R.degree)(word)
            rhs2 = bracket_fn(act_fn(Q), Q.degree, pr, P.degree + R.degree)(
                word
            ).scale(F((-1) ** ((P.degree * Q.degree) % 2)))
            assert (lhs - rhs1 - rhs2).is_zero()


def test_odd_poisson_generator_economy():
    # the derived-product derivation property checked on algebra generators
    # alone gives the same verdict as the exhaustive basis sweep
    S = exterior_gbv()
    basis = S.algebra.basis
    generators = [1, 2]  # th1, th2 generate the algebra

    def check_on(triples):
        for (i, j, k) in triples:
            a, b, c = (Element.basis_vector(t) for t in (i, j, k))
            lhs = S.derived_q(a, S.algebra.product(b, c))
            rhs = S.algebra.product(S.derived_q(a, b), c) + S.algebra.product(
                b, S.derived_q(a, c)
            ).scale((-1) ** (((basis.degree(i) + 1) * basis.degree(j)) % 2))
            if not (lhs - rhs).is_zero():
                return False
        return True

    gen_triples = list(itertools.product(range(len(basis)), generators, generators))
    full_triples = list(itertools.product(range(len(basis)), repeat=3))
    assert check_on(gen_triples) == check_on(full_triples) == True

    # a broken delta gives the same (failing) verdict both ways
    bad = GBVStructure(S.algebra, {1: e(0), 3: e(2, 2), 2: e(3)})
    S_bad = bad

    def check_bad(triples):
        for (i, j, k) in triples:
            a, b, c = (Element.basis_vector(t) for t in (i, j, k))
            lhs = S_bad.derived_q(a, S_bad.algebra.product(b, c))
            rhs = S_bad.algebra.product(
                S_bad.derived_q(a, b), c
            ) + S_bad.algebra.product(b, S_bad.derived_q(a, c)).scale(
                (-1) ** (((basis.degree(i) + 1) * basis.degree(j)) % 2)
            )
            if not (lhs - rhs).is_zero():
                return False
        return True

    assert check_bad(gen_triples) == check_bad(full_triples)


def test_morphism_linear_part_is_chain_map():
    # any verified morphism has F^1_1 Q^1_1 = R^1_1 F^1_1 (the n = 1 case of
    # the morphism equation), hence induces a map on cohomology
    basis_l = GradedBasis.of(("x", 1), ("y", 2))
    L = DGLA(basis_l, {}, {0: e(1)})
    basis_n = GradedBasis.of(("u", 1), ("v", 2))
    N = DGLA(basis_n, {}, {0: e(1)})
    S, T = from_dgla(L), from_dgla(N)
    f1 = {(0,): e(0, 3), (1,): e(1, 3)}
    Fm = LInftyMorphism(S, T, {1: f1})
    assert morphism_check(Fm, 3).ok()
    q1 = S.components
    r1 = T.components
    for i in range(len(S.shifted)):
        lhs = Element()
        for k, c in q1.apply_word((i,)).terms.items():
            for k2, c2 in Fm.coalg.components.apply_word((k,)).terms.items():
                lhs.add_term(k2, c * c2)
        rhs = Element()
        for k, c in Fm.coalg.components.apply_word((i,)).terms.items():
            for k2, c2 in r1.apply_word((k,)).terms.items():
                rhs.add_term(k2, c * c2)
        assert (lhs - rhs).is_zero()
