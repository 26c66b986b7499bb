"""Homotopy Lie structures: decalage, generalized Jacobi, the DGLA functor,
morphisms, homotopy Maurer-Cartan, cohomology bracket, Hodge models."""

import itertools
import pathlib
import random
from collections import Counter
from fractions import Fraction
from math import comb

import pytest
from sign_oracles import (
    oracle_h_bracket_check,
    oracle_mc_linfty,
    unshuffle_apply_word,
    unshuffle_check_linfty,
)

from defalg.coalg import SymElement, all_words
from defalg.core import (
    Element,
    GradedBasis,
    koszul_sign,
    multiset_plan,
    split_plan,
    sym_canonical,
    unshuffles,
)
from defalg.dgla import DGLA, ArtinDg, TensorDgla, check_dgla
from defalg.errors import DomainError
from defalg.generators import (
    inject_dgla_violation,
    inject_linfty_violation,
    random_dgla,
    random_linfty,
)
from defalg.linfty import (
    HodgeModel,
    LInftyMorphism,
    LInftyStructure,
    check_linfty,
    decalage,
    from_dgla,
    h_bracket_check,
    hodge_F,
    hodge_model_check,
    mc_linfty,
    morphism_check,
    op_compose,
    suspend_basis,
    word_names,
)
from defalg.report import CheckReport

F = Fraction


def e(i, c=1):
    return Element.basis_vector(i, F(c))


# -- decalage -----------------------------------------------------------------


def test_decalage_signs():
    V = GradedBasis.of(("u", 1), ("v", 2), ("w", 0))
    # arity 1: sign (-1)^{1+0} = -1 uniformly (the suspension of the word)
    t = decalage(V, {1: {(0,): e(1)}})
    assert t[1][(0,)] == e(1, -1)
    # arity 2 on (v1, v2): exponent 2 + deg v1: sign (-1)^{deg v1}
    t = decalage(V, {2: {(0, 1): e(2, 1)}})
    assert t[1 + 1][(0, 1)] == e(2, -1)  # deg u = 1 -> sign -1
    t = decalage(V, {2: {(1, 2): e(0)}})
    assert t[2][(1, 2)] == e(0)  # deg v = 2 -> sign +1


def test_decalage_roundtrip():
    V = GradedBasis.of(("u", 1), ("v", 2), ("w", 0))
    rng = random.Random(3)
    tables = {3: {}}
    for word in all_words(suspend_basis(V), 3, min_len=3):
        val = Element({i: F(rng.randint(-3, 3)) for i in range(3)})
        if not val.is_zero():
            tables[3][word] = val
    there = decalage(V, tables)
    back = decalage(V, there)
    for w, v in tables[3].items():
        assert back[3][w] == v


# -- structure checking ---------------------------------------------------------


def abelian_l():
    return LInftyStructure(GradedBasis.of(("x", 1), ("y", 2)), {})


def odd_square_dgla():
    basis = GradedBasis.of(("x", 1), ("y", 2))
    return DGLA(basis, {(0, 0): e(1)}, {})


def test_check_linfty_zero_brackets():
    assert check_linfty(abelian_l(), 4).ok()


def test_from_dgla_passes_check():
    S = from_dgla(odd_square_dgla())
    assert check_linfty(S, 5).ok()


def test_from_dgla_sign_of_q1():
    basis = GradedBasis.of(("x", 1), ("y", 2))
    L = DGLA(basis, {}, {0: e(1)})  # d x = y
    S = from_dgla(L)
    assert S.components.tables[1][(0,)] == e(1, -1)  # q1(x[1]) = -dx


def test_from_dgla_abelian_is_minimal_zero():
    L = DGLA(GradedBasis.of(("x", 1), ("y", 2)), {}, {})
    S = from_dgla(L)
    assert not S.components.tables


def test_jacobi_violation_fails_exactly_at_arity_three():
    # an l2 violating Jacobi with l3 = 0: bracket on a degree-0 pair
    basis = GradedBasis.of(("a", 0), ("b", 0), ("c", 0))
    # [a,b] = c, [a,c] = a: Jacobi fails
    L = DGLA(basis, {(0, 1): e(2), (0, 2): e(0)}, {})
    assert not check_dgla(L).ok()
    S = from_dgla(L)
    rep = check_linfty(S, 4)
    assert not rep.ok()
    arities = {v.message[-1] for v in rep.violations}
    assert arities == {"3"}


def test_check_linfty_default_depth_is_2m_minus_1():
    # q_4(x x x x) = y and q_4(x x x y) = z on shifted degrees 0, 1, 2
    # (inputs/failing_linfty_arity4.json): generalized Jacobi fails only at
    # the word x^7, of length 2 * 4 - 1, which depth m + 2 = 6 misses
    space = GradedBasis.of(("x", 1), ("y", 2), ("z", 3))
    S = LInftyStructure(space, {4: {(0, 0, 0, 0): e(1), (0, 0, 0, 1): e(2)}})
    assert check_linfty(S, 6).ok()
    rep = check_linfty(S)
    assert [(v.location, v.residual, v.message) for v in rep.violations] == [
        (f"word {('x',) * 7}", "35*z", "generalized Jacobi fails at arity 7")
    ]
    # no word past 2m - 1 has a term in the sum
    assert check_linfty(S, 9).to_json() == rep.to_json()
    assert check_linfty(abelian_l()).ok()


def test_checker_equivalence_with_coderivation_square():
    # check_linfty passes iff the lifted coderivation squares to zero
    rng = random.Random(5)
    basis = GradedBasis.of(("a", 0), ("b", 0), ("c", 0))
    good = from_dgla(DGLA(basis, {(0, 1): e(2)}, {}))  # Heisenberg
    bad = from_dgla(DGLA(basis, {(0, 1): e(2), (0, 2): e(0)}, {}))
    for S, expect in ((good, True), (bad, False)):
        Q = S.coderivation()
        square_zero = True
        for word in all_words(S.shifted, 4):
            inner = Q.apply_word(word)
            acc = None
            for w, c in inner.terms.items():
                part = Q.apply_word(w).scale(c)
                acc = part if acc is None else acc + part
            if acc is not None and not acc.is_zero():
                square_zero = False
                break
        assert square_zero == expect
        assert check_linfty(S, 4).ok() == expect


# -- the generalized-Jacobi sum against its term-by-term oracle ------------------


def oracle_check_linfty(S, n_max=None):
    """The generalized-Jacobi loop before live arities and split plans:
    every k in 1..n, every unshuffle through the validating koszul_sign,
    every front re-canonicalized."""
    rep = CheckReport("check-linfty")
    n_max = n_max or 2 * S.max_arity - 1
    comp = S.components
    basis = S.shifted
    for word in all_words(basis, n_max):
        n = len(word)
        degrees = [basis.degree(i) for i in word]
        total = Element()
        for k in range(1, n + 1):
            for sigma in unshuffles(k, n - k):
                sign = koszul_sign(degrees, sigma)
                front = tuple(word[i] for i in sigma[:k])
                rest = tuple(word[i] for i in sigma[k:])
                inner = comp.apply_word(front)
                for idx, c in inner.terms.items():
                    outer = comp.apply_word((idx,) + rest)
                    for j, v in outer.terms.items():
                        total.add_term(j, c * v * sign)
        if not total.is_zero():
            names = tuple(basis.names[i] for i in word)
            rep.add(
                f"word {names}",
                " + ".join(f"{c}*{basis.names[i]}" for i, c in total),
                f"generalized Jacobi fails at arity {n}",
            )
    return rep


def oracle_coder_apply_word(Q, word):
    """Coderivation.apply_word before split plans."""
    n = len(word)
    degrees = [Q.basis.degree(i) for i in word]
    out = SymElement(Q.basis)
    for k in Q.components.arities():
        if k > n:
            continue
        for u in unshuffles(k, n - k):
            sign = koszul_sign(degrees, u)
            front = tuple(word[i] for i in u[:k])
            rest = tuple(word[i] for i in u[k:])
            value = Q.components.apply_word(front)
            for idx, c in value.terms.items():
                out.add_word((idx,) + rest, c * sign)
    return out


def oracle_corpus():
    """Seeded random_linfty structures and their injected twins, from_dgla
    of random DGLAs and of their perturbed twins, and the hand-made
    structures of this file."""
    out = []
    for seed in range(16):
        rng = random.Random(seed)
        S = random_linfty(rng)
        out += [S, inject_linfty_violation(rng, S)]
    for seed in range(8):
        rng = random.Random(100 + seed)
        L = random_dgla(rng)
        bad = inject_dgla_violation(rng, L)
        out.append(from_dgla(L))
        if bad is not None:
            out.append(from_dgla(bad))
    basis = GradedBasis.of(("a", 0), ("b", 0), ("c", 0))
    out += [
        abelian_l(),
        from_dgla(odd_square_dgla()),
        from_dgla(DGLA(basis, {(0, 1): e(2)}, {})),
        from_dgla(DGLA(basis, {(0, 1): e(2), (0, 2): e(0)}, {})),
        LInftyStructure(
            GradedBasis.of(("p", 1), ("q", 2), ("z", 0)), {3: {(0, 0, 2): e(0)}}
        ),
    ]
    return [S for S in out if S is not None]


def test_check_linfty_matches_oracle_byte_for_byte():
    """Against the term-by-term oracle and the split_plan route
    (sign_oracles), at the default depth and at depths 3-5; the failing
    words include words that repeat an even letter."""
    failing = repeated = 0
    for S in oracle_corpus():
        for n_max in (None, 3, 4, 5):
            got = check_linfty(S, n_max)
            for oracle in (oracle_check_linfty, unshuffle_check_linfty):
                want = oracle(S, n_max)
                assert got.to_json() == want.to_json()
                assert got.text() == want.text()
            failing += not got.ok()
        at = {v.location for v in got.violations}
        names = word_names(S.shifted)
        repeated += sum(
            f"word {names(w)}" in at
            for w in all_words(S.shifted, 5)
            if len(set(w)) < len(w)
        )
    assert failing >= 20  # the twins make the comparison see residuals
    assert repeated >= 20


def test_coderivation_apply_word_matches_oracle():
    """Against the term-by-term oracle and the split_plan route on the word
    as given (sign_oracles): canonical words term for term in order, and by
    value random words, mostly not canonical or zero."""
    rng = random.Random(25)
    seen = Counter()
    for S in oracle_corpus():
        Q, basis = S.coderivation(), S.shifted
        for word in all_words(basis, 5):
            got = list(Q.apply_word(word).terms.items())
            assert got == list(oracle_coder_apply_word(Q, word).terms.items())
            assert got == list(unshuffle_apply_word(Q, word).terms.items())
        for _ in range(60):
            word = tuple(rng.randrange(len(basis)) for _ in range(rng.randint(1, 5)))
            got = Q.apply_word(word)
            assert got == oracle_coder_apply_word(Q, word)
            assert got == unshuffle_apply_word(Q, word)
            canon = sym_canonical(word, basis.degree)
            if canon is None:
                kind = "zero"
            else:
                kind = "canonical" if canon[0] == word else "other"
            seen[kind, bool(got.terms)] += 1
            if kind == "zero":
                assert not got.terms
    assert seen["other", True] >= 100 and seen["zero", False] >= 100


def test_split_plan_signs_are_koszul_signs():
    for n in range(1, 7):
        for parities in itertools.product((0, 1), repeat=n):
            # K1 reads parities only: any degrees with these parities agree
            degrees = tuple(p - 2 * (i % 3) for i, p in enumerate(parities))
            for k in range(0, n + 1):
                plan = split_plan(n, k, parities)
                assert [front + rest for front, rest, _ in plan] == unshuffles(
                    k, n - k
                )
                for front, rest, sign in plan:
                    assert type(sign) is int
                    assert sign == koszul_sign(degrees, front + rest)


def runs_keys(max_len):
    """The runs key of every canonical word of 1..max_len letters: runs of
    one odd letter or of any number of copies of an even one."""
    by_len = {0: [()]}
    for n in range(1, max_len + 1):
        by_len[n] = [
            key + ((m, p),)
            for m in range(1, n + 1)
            for p in ((0, 1) if m == 1 else (0,))
            for key in by_len[n - m]
        ]
    return [key for n in range(1, max_len + 1) for key in by_len[n]]


def test_multiset_plan_classes_partition_the_split_plan():
    """Each unshuffle of `split_plan` lies in exactly one class of
    `multiset_plan` (its front's letters) and carries the class sign; the
    class weights count the classes and sum to C(n, k); a class is planned
    at its first unshuffle, which fixes its front and rest positions."""
    keys = runs_keys(8)
    assert len(keys) == 2583
    for runs in keys:
        # one letter per run, so a class is named by its front's letters
        word = tuple(r for r, (m, _) in enumerate(runs) for _ in range(m))
        letter = word.__getitem__
        parities = tuple(p for m, p in runs for _ in range(m))
        n = len(parities)
        for k in range(n + 1):
            plan = multiset_plan(runs, k)
            classes = {tuple(map(letter, f)): s for f, _, s in plan}
            assert len(classes) == len(plan)
            assert all(type(s) is int for s in classes.values())
            assert sum(map(abs, classes.values())) == comb(n, k)
            size, first = Counter(), {}
            for front, rest, sign in split_plan(n, k, parities):
                key = tuple(map(letter, front))
                assert classes[key] == sign * abs(classes[key])
                size[key] += 1
                first.setdefault(key, (front, rest))
            assert size == {key: abs(s) for key, s in classes.items()}
            assert list(first.values()) == [(f, r) for f, r, _ in plan]


def pinned_twin(seed):
    """The entries inject_linfty_violation changed, by arity and word names."""
    rng = random.Random(seed)
    S = random_linfty(rng)
    bad = inject_linfty_violation(rng, S)
    if bad is None:
        return None
    names = S.shifted.names
    diff = {}
    for k in set(S.components.tables) | set(bad.components.tables):
        old, new = S.components.tables.get(k, {}), bad.components.tables.get(k, {})
        for w in set(old) | set(new):
            d = new.get(w, Element()) - old.get(w, Element())
            if not d.is_zero():
                diff[(k, tuple(names[i] for i in w))] = {
                    names[i]: str(c) for i, c in d
                }
    return diff


def test_inject_linfty_violation_twins_are_pinned():
    assert pinned_twin(0) == {(2, ("u1", "z")): {"s": "1"}}
    assert pinned_twin(1) is None
    assert pinned_twin(3) == {(2, ("x", "b")): {"y": "1"}}
    assert pinned_twin(4) == {(2, ("v1", "v3")): {"v4": "1"}}
    assert pinned_twin(7) == {(2, ("E00", "E10")): {"E00": "1"}}
    assert pinned_twin(11) == {(1, ("b",)): {"y": "1"}}


# -- morphisms -------------------------------------------------------------------


def test_identity_morphism_passes():
    S = from_dgla(odd_square_dgla())
    identity = {(i,): e(i) for i in range(len(S.shifted))}
    assert morphism_check(LInftyMorphism(S, S, {1: identity}), 4).ok()


def test_strong_morphism_from_dgla_map():
    # f: L -> N a DGLA morphism induces a strong homotopy morphism
    basis_l = GradedBasis.of(("x", 1), ("y", 2))
    L = DGLA(basis_l, {(0, 0): e(1)}, {})
    basis_n = GradedBasis.of(("u", 1), ("v", 2), ("w", 3))
    N = DGLA(basis_n, {(0, 0): e(1)}, {})
    S, T = from_dgla(L), from_dgla(N)
    f1 = {(0,): e(0), (1,): e(1)}  # x -> u, y -> v: respects d and brackets
    Fm = LInftyMorphism(S, T, {1: f1})
    assert morphism_check(Fm, 4).ok()


def test_non_morphism_detected():
    basis_l = GradedBasis.of(("x", 1), ("y", 2))
    L = DGLA(basis_l, {(0, 0): e(1)}, {})
    S = from_dgla(L)
    f1 = {(0,): e(0, 2), (1,): e(1)}  # x -> 2x breaks the bracket relation
    Fm = LInftyMorphism(S, S, {1: f1})
    rep = morphism_check(Fm, 3)
    assert not rep.ok()


def test_morphism_check_default_depth_is_exact():
    """The default depth max(a + m - 1, m' a) (sign ledger C3) reaches the
    word x^6 of the arity-3 probe, a = 3, m = 1, m' = 2, which the old
    default max(m, m') + 2 = 4 missed; a default report equals the report
    at a deeper explicit depth on every linfty-morphism sample."""
    from defalg import schemas

    inputs = pathlib.Path(__file__).parent.parent / "inputs"
    probe = schemas.parse_linfty_morphism(
        schemas.load_json(inputs / "failing_linfty_morphism_arity3.json")
    )
    rep = morphism_check(probe)
    assert [(v.location, v.residual) for v in rep.violations] == [
        ("word ('x', 'x', 'x', 'x', 'x', 'x')", "-10*v")
    ]
    assert morphism_check(probe, 5).ok()
    for path in sorted(inputs.glob("*linfty_morphism*.json")):
        F = schemas.parse_linfty_morphism(schemas.load_json(path))
        assert morphism_check(F).to_dict() == morphism_check(F, 8).to_dict(), path


def test_morphism_check_clamps_a_deeper_request(monkeypatch):
    """Both sides vanish past `F.depth` (sign ledger C3), so a deeper
    request is clamped there: on every linfty-morphism sample the report at
    `F.depth + 3` has the default report's bytes, and the source
    codifferential sees no word longer than `F.depth`."""
    from defalg import coalg, schemas

    inputs = pathlib.Path(__file__).parent.parent / "inputs"
    real = coalg.Coderivation.apply_word
    lengths = []
    monkeypatch.setattr(
        coalg.Coderivation, "apply_word", lambda Q, w: lengths.append(len(w)) or real(Q, w)
    )
    for path in sorted(inputs.glob("*linfty_morphism*.json")):
        F = schemas.parse_linfty_morphism(schemas.load_json(path))
        default = morphism_check(F)
        del lengths[:]
        deeper = morphism_check(F, F.depth + 3)
        assert (deeper.to_json(), deeper.text()) == (default.to_json(), default.text()), path
        assert lengths and max(lengths) <= F.depth, path


def test_morphism_taylor_components():
    S = abelian_l()
    T = abelian_l()
    f1 = {(0,): e(0)}
    f2 = {(0, 1): e(1)}  # degree check: word (x[1], y[1]) deg 0+1 -> y[1] deg 1
    Fm = LInftyMorphism(S, T, {1: f1, 2: f2})
    # f1 kills y, so the square component dies
    assert Fm.coalg.apply_word((0, 1)).terms == {(1,): 1}
    assert Fm.coalg.apply_word((0,)).terms == {(0,): 1}
    assert Fm.coalg.comorphism_report(all_words(S.shifted, 4)).ok()


def test_taylor_single_component_is_symmetric_power():
    V = GradedBasis.of(("x", 1), ("z", 1))
    S = LInftyStructure(V, {})
    f1 = {(0,): e(0), (1,): e(1, 2)}
    Fm = LInftyMorphism(S, S, {1: f1})
    assert Fm.coalg.apply_word((0, 0, 1)).terms == {(0, 0, 1): 2}


# -- homotopy Maurer-Cartan --------------------------------------------------------


def tmax3():
    return ArtinDg(GradedBasis.of(("t", 0), ("t2", 0)), {(0, 0): e(1)}, {})


def test_mc_zero_element():
    S = from_dgla(odd_square_dgla())
    assert mc_linfty(S, tmax3(), {}).is_zero()


def test_mc_arity_one_reduces_to_classical_complex():
    basis = GradedBasis.of(("x", 1), ("y", 2))
    L = DGLA(basis, {}, {0: e(1)})
    S = from_dgla(L)
    A = tmax3()
    m = {(0, 0): F(3)}  # 3 x (x) t
    res = mc_linfty(S, A, m)
    M = TensorDgla(L, A)
    x = M.vector("x", "t", F(3))
    assert res == M.mc_residual(x)


def test_mc_matches_classical_for_dgla_structures():
    # d(a) = b, d(x) = y, [x,x] = y: both the differential and the
    # quadratic term contribute to the residual
    rng = random.Random(11)
    basis = GradedBasis.of(("a", 0), ("x", 1), ("b", 1), ("y", 2))
    L = DGLA(basis, {(1, 1): e(3)}, {0: e(2), 1: e(3)})
    assert check_dgla(L).ok()
    S = from_dgla(L)
    A = tmax3()
    M = TensorDgla(L, A)
    saw_nonlinear = False
    for _ in range(50):
        m = {}
        x = Element()
        for i in range(len(basis)):
            for j in range(len(A.basis)):
                if basis.degree(i) + A.basis.degree(j) == 1:
                    c = rng.randint(-2, 2)
                    if c:
                        m[(i, j)] = F(c)
                        x.add_term(M.pair_index[(i, j)], F(c))
        res_l = mc_linfty(S, A, m)
        res_c = M.mc_residual(x)
        assert res_l == res_c
        assert oracle_mc_linfty(S, A, m, [0]) == res_c.terms
        saw_nonlinear = saw_nonlinear or (
            not res_c.is_zero() and not (res_c - M.d(x)).is_zero()
        )
    assert saw_nonlinear


def test_mc_suspended_equals_unsuspended_with_higher_brackets():
    # a genuine arity-3 structure: q3(p (.) p (.) z) = p on the shifted
    # space (degrees p,q,z -> 0,1,-1 after the shift; the word has degree
    # -1, the target degree 0: a degree +1 component)
    V = GradedBasis.of(("p", 1), ("q", 2), ("z", 0))
    tables = {3: {(0, 0, 2): e(0)}}
    S = LInftyStructure(V, tables)
    assert check_linfty(S, 5).ok()

    # base with a degree-1 generator and products deep enough that the
    # cubic bracket sees a nonzero triple product t*t*s
    basis_a = GradedBasis.of(("t", 0), ("t2", 0), ("s", 1), ("st", 1), ("t2s", 1))
    table_a = {
        (0, 0): e(1),  # t*t = t2
        (0, 2): e(3),  # t*s = st
        (0, 3): e(4),  # t*st = t2s
        (1, 2): e(4),  # t2*s = t2s
    }
    A = ArtinDg(basis_a, table_a, {})
    from defalg.dgla import check_na

    assert check_na(A).ok()

    rng = random.Random(7)
    slots = [
        (i, j)
        for i in range(len(V))
        for j in range(len(basis_a))
        if V.degree(i) + basis_a.degree(j) == 1
    ]
    saw_cubic = False
    for _ in range(20):
        m = {}
        for key in slots:
            c = rng.randint(-2, 2)
            if c:
                m[key] = F(c)
        res = mc_linfty(S, A, m)
        assert res.terms == oracle_mc_linfty(S, A, m, [0])
        saw_cubic = saw_cubic or not res.is_zero()
    assert saw_cubic


# -- cohomology bracket -------------------------------------------------------------


def test_h_bracket_minimal_structure():
    basis = GradedBasis.of(("a", 0), ("b", 0), ("c", 0))
    L = DGLA(basis, {(0, 1): e(2)}, {})
    S = from_dgla(L)
    rep = h_bracket_check(S)
    assert rep.ok()
    assert rep.info["h_dims"] == {"0": 3}


def test_h_bracket_abelian():
    rep = h_bracket_check(abelian_l())
    assert rep.ok()


def test_h_bracket_matches_dgla_bracket_on_h():
    # Heisenberg in degree 0 plus an exact pair z -> x orthogonal to the
    # brackets: H^0 carries the Heisenberg bracket, H^1 = 0
    basis = GradedBasis.of(("a", 0), ("b", 0), ("c", 0), ("z", 0), ("x", 1))
    L = DGLA(basis, {(0, 1): e(2)}, {3: e(4)})
    assert check_dgla(L).ok()
    S = from_dgla(L)
    rep = h_bracket_check(S)
    assert rep.ok()
    assert rep.info["h_dims"] == {"0": 3, "1": 0}


def test_h_bracket_jacobi_failing_output_is_pinned():
    # [a, b] = b and [b, c] = a in degree 0 with zero differential: H = V,
    # and the bracket is not a Lie bracket
    basis = GradedBasis.of(("a", 0), ("b", 0), ("c", 0))
    L = DGLA(basis, {(0, 1): e(1), (1, 2): e(0)}, {})
    rep = h_bracket_check(from_dgla(L))
    # H^0_1, H^0_2, H^0_3 are the classes of a, b, c
    triples = [(1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)]
    want = [
        ("jacobi(H^0_{},H^0_{},H^0_{})".format(*t), f"{c}*H^0_1", "graded Jacobi fails")
        for t, c in zip(triples, (-1, 1, 1, -1, -1, 1))
    ]
    assert [(v.location, v.residual, v.message) for v in rep.violations] == want
    assert rep.info == {"h_dims": {"0": 3}}


def test_h_bracket_closure_reports_every_bracket_that_is_not_a_cycle():
    """Over seeded structures and their injected twins (from
    `inject_linfty_violation`, and `from_dgla` of `inject_dgla_violation`)
    h_bracket_check never raises.  Where a bracket of classes, or of a class
    and a boundary, is not a cycle, the check before its closure step
    raised DomainError and the report now has a closure violation; on every
    other structure the report equals that check's byte for byte."""
    raised, kept, failing = Counter(), 0, 0
    for seed in range(120):
        rng = random.Random(seed)
        S = random_linfty(rng)
        structures = [S, inject_linfty_violation(rng, S)]
        bad = inject_dgla_violation(rng, random_dgla(rng))
        structures.append(bad and from_dgla(bad))
        for T in filter(None, structures):
            rep = h_bracket_check(T)
            closure = "bracket is not a cycle"
            unclosed = [v.location for v in rep.violations if v.message == closure]
            try:
                before = oracle_h_bracket_check(T)
            except DomainError:
                # a bracket with a boundary, or only brackets of classes
                raised[any(", d" in loc for loc in unclosed)] += 1
                assert unclosed
                continue
            assert not unclosed and rep.to_json() == before.to_json()
            kept += 1
            failing += not rep.ok()
    assert raised[True] >= 1 and raised[False] >= 10 and kept >= 300 and failing >= 50


# -- Hodge models --------------------------------------------------------------------


from defalg import models
from defalg.models import (
    derived_hodge_model as derived_model,
    rank_one_hodge_model as rank_one_model,
    trivial_hodge_model as trivial_model,
)


def test_trivial_model_checks_and_F():
    M = trivial_model()
    assert hodge_model_check(M).ok()
    comps, rep = hodge_F(M, 4)
    assert rep.ok()
    # only F_1 survives (tau = 0 kills every higher product)
    assert set(comps) == {1}


def test_rank_one_model_passes():
    M = rank_one_model()
    assert hodge_model_check(M).ok()
    comps, rep = hodge_F(M, 4)
    assert rep.ok()


def test_tau_h_violation_detected():
    space = GradedBasis.of(("c", 0), ("x", 1), ("hp", 1), ("hq", 2), ("hx", 1))
    bideg = [(0, 0), (0, 1), (1, 0), (1, 1), (0, 1)]
    h_space = GradedBasis.of(("Hp", 1), ("Hq", 2), ("Hx", 1))
    incl = {0: e(2), 1: e(3), 2: e(4)}
    proj = {2: e(0), 3: e(1), 4: e(2)}
    delbar = {0: e(1)}
    tau = {4: e(2)}  # tau(hx) = hp: hits and leaves the harmonic subspace
    source = GradedBasis.of(("r", 0),)
    hat = {0: {2: e(2)}}
    M = HodgeModel(
        space, bideg, h_space, incl, proj, {}, delbar, tau, source, {}, {}, hat
    )
    rep = hodge_model_check(M)
    assert not rep.ok()
    locations = {v.location for v in rep.violations}
    assert "tau h" in locations


def test_derived_model_passes_and_F_vanishes():
    M = derived_model()
    rep = hodge_model_check(M)
    assert rep.ok(), rep.text()
    comps, frep = hodge_F(M, 4)
    assert frep.ok(), frep.text()
    # arity-2 and arity-3 components are genuinely nonzero
    assert 2 in comps and 3 in comps


def test_derived_model_has_content_at_arity_two():
    # F_1 applied to the product component alone is nonzero: the identity
    # balances it against the differential part
    M = derived_model()
    A_, G_, B_ = 0, 1, 2
    q_val = M.q_word((A_, B_))
    op = M.hat_of(q_val)
    composed = op_compose(M.projection, op_compose(op, M.inclusion))
    assert composed


def test_broken_q_hat_detected_at_arity_two():
    M = derived_model()
    M.q_table[(0, 2)] = e(6)  # flip the sign of Q(a, b)
    rep = hodge_model_check(M)
    assert not rep.ok()
    comps, frep = hodge_F(M, 2)
    assert [(v.location, v.residual, v.message) for v in frep.violations] == [
        ("word ('a', 'b')", "{0: {1: Fraction(2, 1)}}", "F o delta != 0")
    ]


# The derived model's constructor arguments by position, and the reports on
# it after each corruption: (changes, hodge_model_check's (location, message)
# pairs, whose residuals are all empty, and hodge_F's violations at arity 3,
# which checks no model, or the name of the error it raises).  A change
# (operator, column, e) adds e to that column, a word for q; ("hat", a) is
# hat(a).
ARG = {"incl": 3, "proj": 4, "del": 5, "delbar": 6, "tau": 7, "d": 9, "q": 10}
NOT_ZERO = "{} != 0".format
HAT_D = "hat(d a) != [delbar, hat a]"
HAT_Q = "hat(q(a (.) b)) != -[[del, hat a], hat b]"
HAT_DEG = "hat operator degree differs from source degree"
HODGE_PINS = {
    "tau bidegree": (
        [("tau", 7, e(6, -1))],
        [("tau", "tau is not bidegree (1,-1)"), ("del tau", NOT_ZERO("del tau")),
         ("[delbar, tau]", "[delbar, tau] != del")],
        [],
    ),
    "delbar bidegree": (
        [("delbar", 5, e(9))],
        [("delbar", "delbar is not bidegree (0,1)"), ("delbar^2", NOT_ZERO("delbar^2")),
         ("del delbar + delbar del", NOT_ZERO("del delbar + delbar del"))],
        [],
    ),
    "del bidegree": (
        [("del", 9, e(3, 2))],
        [("del", "del is not bidegree (1,0)"), ("del^2", NOT_ZERO("del^2")),
         ("del delbar + delbar del", NOT_ZERO("del delbar + delbar del")),
         ("tau del", NOT_ZERO("tau del")), ("[delbar, tau]", "[delbar, tau] != del")],
        [],
    ),
    "inclusion": (
        [("incl", 0, e(2))],
        [("del h", NOT_ZERO("del h")), ("delbar i", NOT_ZERO("delbar i"))],
        [],
    ),
    "projection": (
        [("proj", 9, e(0, -1))],
        [("h del", NOT_ZERO("h del")), ("h delbar", NOT_ZERO("h delbar"))],
        [],
    ),
    "h i": ([("incl", 0, e(1, 2))], [("h i", "h o i is not the identity on H")], []),
    "h tau": (
        [("proj", 8, e(0, 2))],
        [("h del", NOT_ZERO("h del")), ("h tau", NOT_ZERO("h tau"))],
        [],
    ),
    "tau h": (
        [("tau", 1, e(5, -1))],
        [("tau", "tau is not bidegree (1,-1)"), ("tau h", NOT_ZERO("tau h"))],
        [],
    ),
    "hat degree": (
        [(("hat", 6), 0, e(0, -1))],
        [("hat(ee)", HAT_DEG)]
        + [(f"hat(q({a},{b}))", HAT_Q) for a, b in
           (("a", "b"), ("a", "ee"), ("b", "a"), ("c", "ee"), ("c2", "ee"))],
        [("word ('a', 'b')", "{0: {0: Fraction(1, 1)}}", "F o delta != 0")],
    ),
    "hat d": (
        [(("hat", 6), 0, e(6, -1))],
        [("hat(ee)", HAT_DEG), ("hat(d ee)", HAT_D)]
        + [(f"hat(q({a},{b}))", HAT_Q) for a, b in
           (("a", "b"), ("b", "a"), ("b2", "ee"), ("ee", "b2"))],
        [],
    ),
    "hat columns": (
        [(("hat", 3), 0, e(3)), (("hat", 3), 1, e(3, 2))],
        [("hat(d a)", HAT_D), ("hat(c)", HAT_DEG)]
        + [(f"hat(q({a},{b}))", HAT_Q) for a, b in
           (("b", "c"), ("c", "b"), ("c", "b2"), ("c", "ee"), ("b2", "c"))],
        [
            ("word ('a', 'b')", "{0: {1: Fraction(1, 1)}, 1: {1: Fraction(2, 1)}}",
             "F o delta != 0"),
            ("word ('a', 'g', 'b2')",
             "{0: {1: Fraction(-1, 1)}, 1: {1: Fraction(-2, 1)}}", "F o delta != 0"),
        ],
    ),
    "source d": (
        [("d", 6, e(0))],
        [("d(ee)", "source d is not degree +1"), ("d^2(ee)", "source d^2 != 0"),
         ("hat(d ee)", HAT_D)],
        "DomainError",
    ),
}


def corrupted_derived_model(changes):
    """The derived model with each change added, built from its arguments
    (read with `models.HodgeModel` patched to return them)."""
    real = models.HodgeModel
    models.HodgeModel = lambda *args: list(args)
    try:
        args = derived_model()
    finally:
        models.HodgeModel = real
    for op, column, add in changes:
        table = args[11].setdefault(op[1], {}) if op[0] == "hat" else args[ARG[op]]
        table[column] = table.get(column, Element()) + add
    return HodgeModel(*args)


def test_hodge_reports_pinned_on_corrupted_models():
    rows = lambda rep: [(v.location, v.residual, v.message) for v in rep.violations]
    for name, (changes, checks, transfer) in HODGE_PINS.items():
        M = corrupted_derived_model(changes)
        want = [(loc, "", message) for loc, message in checks]
        assert rows(hodge_model_check(M)) == want, name
        try:
            got = rows(hodge_F(M, 3)[1])
        except Exception as exc:
            got = type(exc).__name__
        assert got == transfer, name
    # a q value changed after construction breaks the hat compatibility
    M = derived_model()
    M.q_table[(0, 1)] = e(0)
    assert rows(hodge_model_check(M)) == [
        ("hat(q(a,g))", "", HAT_Q),
        ("hat(q(g,a))", "", HAT_Q),
    ]


def test_wrong_degree_values_are_reported_once():
    # d(ee) = a + g: two terms off degree in one value, one violation
    M = corrupted_derived_model([("d", 6, e(0) + e(1))])
    rep = hodge_model_check(M)
    locations = [v.location for v in rep.violations]
    assert locations.count("d(ee)") == 1


def test_hodge_model_refuses_a_q_off_degree_one():
    # q(a, g) = a has degree 0, not deg a + deg g + 1 = 1
    with pytest.raises(DomainError):
        corrupted_derived_model([("q", (0, 1), e(0))])


# -- mc_linfty against the l_n route of sign ledger D2 ----------------------------


def test_mc_linfty_matches_add_or_pop_oracle():
    bases = [
        tmax3(),
        ArtinDg(
            GradedBasis.of(("t", 0), ("t2", 0), ("s", 1), ("st", 1), ("t2s", 1)),
            {(0, 0): e(1), (0, 2): e(3), (0, 3): e(4), (1, 2): e(4)},
            {},
        ),
    ]
    higher = LInftyStructure(
        GradedBasis.of(("p", 1), ("q", 2), ("z", 0)), {3: {(0, 0, 2): e(0)}}
    )
    rng = random.Random(5)
    cancelled, nonzero = [0], 0
    for S in oracle_corpus()[:24] + [higher]:
        for A in bases:
            slots = [
                (i, j)
                for i in range(len(S.space))
                for j in range(len(A.basis))
                if S.space.degree(i) + A.basis.degree(j) == 1
            ]
            for _ in range(6):
                m = {key: F(c) for key in slots if (c := rng.randint(-2, 2))}
                got = mc_linfty(S, A, m)
                want = oracle_mc_linfty(S, A, m, cancelled)
                assert list(got.terms.items()) == list(want.items())
                nonzero += not got.is_zero()
    assert nonzero >= 20 and cancelled[0] >= 5
