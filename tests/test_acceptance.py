"""Acceptance battery: one test per criterion, each printing a PASS line.

Every equality is exact (rational or Gaussian-rational); tolerance is zero
throughout.  Runtime bounds are asserted with the stated budgets.
"""

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

from sign_oracles import oracle_mc_linfty

from defalg import models
from defalg.coalg import (
    CoalgMorphism,
    TensorProductElement,
    all_words,
    coder_lift,
    coproduct,
    iterated_coproduct,
    n_map,
    tensor_coproduct_reduced,
    word_degree,
)
from defalg.core import Element, GradedBasis
from defalg.dgla import (
    DGLA,
    ArtinDg,
    SmallExtension,
    TensorDgla,
    check_dgla,
    cohomology,
    obstruction_class,
)
from defalg.freelie import (
    TensorSeries,
    bch_explicit,
    bch_free,
    dsw_project,
    is_lie,
    right_nested_terms,
)
from defalg.gbv import (
    Polyvector,
    delta_volume,
    gbv_to_abelian,
    polyvector_gbv,
    tian_todorov_check,
)
from defalg.generators import (
    inject_dgla_violation,
    inject_linfty_violation,
    random_classical_artin,
    random_dgla,
    random_linfty,
    random_mc_pair,
)
from defalg.lefschetz import (
    CovectorElement,
    all_keys,
    identities_report,
    is_primitive,
    lefschetz_decompose,
    op_Lambda,
    op_L,
    op_power,
    primitive_star_report,
    reconstruct,
    total_degree,
)
from defalg.linfty import (
    check_linfty,
    from_dgla,
    hodge_F,
    hodge_model_check,
    mc_linfty,
)
from defalg.scalars import GaussianScalar

F = Fraction


def timed(budget_s):
    """Context helper: assert the body stayed inside the stated budget."""

    class _Timer:
        def __enter__(self):
            self.start = time.monotonic()
            return self

        def __exit__(self, *exc):
            self.elapsed = time.monotonic() - self.start
            if exc[0] is None:
                assert self.elapsed < budget_s, (
                    f"runtime {self.elapsed:.1f}s exceeds budget {budget_s}s"
                )
            return False

    return _Timer()


def report_pass(name):
    print(f"ACCEPTANCE {name}: PASS")


def test_criterion_01_bch_coefficients():
    with timed(5):
        gens = ("a", "b")
        a5 = TensorSeries.generator(gens, 5, "a")
        b5 = TensorSeries.generator(gens, 5, "b")
        explicit = bch_explicit(a5, b5)
        oracle = bch_free(a5, b5)
        # degree 2 coefficient is (1/2)[a,b]
        assert explicit.component(2) == {(0, 1): F(1, 2), (1, 0): F(-1, 2)}
        # full agreement with the series oracle through degree 5
        assert explicit == oracle
        # documented degree-3 sign: +1/12 [a,[a,b]] + 1/12 [b,[b,a]]
        expected3 = (
            a5.bracket(a5.bracket(b5)) + b5.bracket(b5.bracket(a5))
        ).scale(F(1, 12)).component(3)
        assert explicit.component(3) == expected3
    report_pass("1 (BCH coefficients)")


def test_criterion_02_bch_group_law():
    with timed(30):
        gens = ("a", "b", "c")
        x = TensorSeries.generator(gens, 4, "a")
        y = TensorSeries.generator(gens, 4, "b")
        z = TensorSeries.generator(gens, 4, "c")
        assert bch_free(bch_free(x, y), z) == bch_free(x, bch_free(y, z))
        w = x + y.scale(F(2, 3))
        assert bch_explicit(w, -w).is_zero()
        assert bch_free(w, -w).is_zero()
    report_pass("2 (BCH group law)")


def test_criterion_03_dsw_friedrichs():
    with timed(5):
        rng = random.Random(103)
        gens = ("x", "y", "z")
        for _ in range(100):
            s = TensorSeries.zero(gens, 4)
            for _ in range(rng.randint(1, 6)):
                word = tuple(rng.randrange(3) for _ in range(rng.randint(1, 4)))
                s.add_term(word, F(rng.randint(-3, 3), rng.randint(1, 3)))
            once = dsw_project(s)
            assert dsw_project(once) == once
        lie_hits = non_hits = 0
        for _ in range(50):
            acc = TensorSeries.zero(gens, 4)
            for _ in range(rng.randint(1, 3)):
                letters = tuple(rng.randrange(3) for _ in range(rng.randint(1, 4)))
                coeff = F(rng.randint(-3, 3) or 1)
                acc = acc + TensorSeries(gens, 4, right_nested_terms(letters)).scale(coeff)
            assert is_lie(acc)
            lie_hits += 1
        for _ in range(50):
            word = tuple(rng.randrange(3) for _ in range(rng.randint(2, 4)))
            assert not is_lie(TensorSeries(gens, 4, {word: F(1)}))
            non_hits += 1
        assert lie_hits == non_hits == 50
    report_pass("3 (DSW / Friedrichs)")


def test_criterion_04_gauge_calculus():
    with timed(60):
        rng = random.Random(104)
        count = 0
        stabilizer_hits = 0
        while count < 100:
            L = random_dgla(rng)
            A = random_classical_artin(rng)
            assert len(L.basis) <= 5 and (A.nilpotency_index or 99) <= 4
            M, a, b, w = random_mc_pair(rng, L, A)
            # gauge preserves MC
            gw = M.gauge_apply(b, w)
            assert M.is_mc(gw)
            # group-action law through the nilpotent BCH
            assert M.gauge_apply(a, gw) == M.gauge_apply(M.bch_degree0(a, b), w)
            # irrelevant stabilizer for a degree -1 element
            u = Element()
            for p in range(len(M.basis)):
                if M.basis.degree(p) == -1:
                    c = rng.randint(-2, 2)
                    if c:
                        u.add_term(p, F(c))
            stab = M.bracket(w, u) + M.d(u)
            assert M.gauge_apply(stab, w) == w
            if not stab.is_zero():
                stabilizer_hits += 1
            count += 1
        assert stabilizer_hits > 0
    report_pass("4 (gauge calculus)")


def _obstruction_extension():
    basis = GradedBasis.of(("t", 0), ("t2", 0))
    total = ArtinDg(basis, {(0, 0): Element.basis_vector(1)}, {})
    return SmallExtension(total, ["t2"])


def test_criterion_05_obstruction_theory():
    with timed(10):
        rng = random.Random(105)
        ext = _obstruction_extension()
        # worked example: class (1/2) y (x) t^2
        basis = GradedBasis.of(("x", 1), ("y", 2))
        L = DGLA(basis, {(0, 0): Element.basis_vector(1)}, {})
        MB = TensorDgla(L, ext.quotient)
        res = obstruction_class(L, ext, MB.vector("x", "t"))
        assert not res["vanishes"]
        assert res["classes"]["t2"] == [F(1, 2)]
        # lift-independence on 50 random instances
        done = 0
        while done < 50:
            Lr = random_dgla(rng)
            Ar = random_classical_artin(rng)
            socle = [
                i
                for i in range(len(Ar.basis))
                if all(
                    Ar.product(
                        Element.basis_vector(i), Element.basis_vector(j)
                    ).is_zero()
                    for j in range(len(Ar.basis))
                )
            ]
            if not socle:
                continue
            ext_r = SmallExtension(Ar, [Ar.basis.names[socle[0]]])
            MBr = TensorDgla(Lr, ext_r.quotient)
            ar = Element()
            for p in range(len(MBr.basis)):
                if MBr.basis.degree(p) == 0:
                    c = rng.randint(-2, 2)
                    if c:
                        ar.add_term(p, F(c))
            x = MBr.gauge_apply(ar, Element())
            base = obstruction_class(Lr, ext_r, x)
            # second, perturbed lift: redo with a kernel shift by hand
            MAr = TensorDgla(Lr, ext_r.total)
            lift = Element()
            for p, c in x.terms.items():
                i, jb = MBr.pairs[p]
                lift.add_term(
                    MAr.pair_index[(i, ext_r.quotient_indices[jb])], c
                )
            shift = Element()
            for i in Lr.basis.indices_of_degree(1):
                c = rng.randint(-2, 2)
                if c:
                    shift.add_term(MAr.pair_index[(i, socle[0])], F(c))
            lift2 = lift + shift
            h2 = MAr.mc_residual(lift2)
            reps, project, dims = cohomology(Lr, 2)
            comp = Element()
            for p, c in h2.terms.items():
                i, j = MAr.pairs[p]
                assert j == socle[0]
                comp.add_term(i, c)
            assert project(comp) == base["classes"][Ar.basis.names[socle[0]]]
            # when the class vanishes a certified lift must exist
            if base["vanishes"]:
                assert base["lift"] is not None
                assert MAr.is_mc(base["lift"])
            done += 1
        # an H^2 = 0 instance always lifts
        basis0 = GradedBasis.of(("x", 1), ("z", 1), ("y", 2))
        L0 = DGLA(
            basis0,
            {(0, 0): Element.basis_vector(2)},
            {1: Element.basis_vector(2)},
        )
        MB0 = TensorDgla(L0, ext.quotient)
        res0 = obstruction_class(L0, ext, MB0.vector("x", "t"))
        assert res0["vanishes"] and res0["lift"] is not None
    report_pass("5 (obstruction theory)")


def test_criterion_06_coalgebra_laws():
    with timed(30):
        basis = GradedBasis.of(("a", 1), ("b", 2), ("c", 1), ("d", 0))
        words = all_words(basis, 4)
        from defalg import linalg

        # coassociativity and cocommutativity
        for word in words:
            base = coproduct(basis, word)
            left = TensorProductElement(basis, 3)
            right = TensorProductElement(basis, 3)
            for (lw, rw), c in base.terms.items():
                for (p, q), c2 in coproduct(basis, lw).terms.items():
                    left.add_term((p, q, rw), c * c2)
                for (p, q), c2 in coproduct(basis, rw).terms.items():
                    right.add_term((lw, p, q), c * c2)
            assert left == right == iterated_coproduct(basis, word, 3)
            twisted = TensorProductElement(basis, 2)
            for (lw, rw), c in base.terms.items():
                sign = (
                    -1 if (word_degree(basis, lw) * word_degree(basis, rw)) % 2 else 1
                )
                twisted.add_term((rw, lw), c * sign)
            assert twisted == base
        # ker coproduct = V
        long_words = [w for w in words if len(w) >= 2]
        col_keys = {}
        cols = []
        for w in long_words:
            img = coproduct(basis, w)
            col = {}
            for key, c in img.terms.items():
                col_keys.setdefault(key, len(col_keys))
                col[col_keys[key]] = c
            cols.append(col)
        matrix = [
            [cols[j].get(r, F(0)) for j in range(len(long_words))]
            for r in range(len(col_keys))
        ]
        rows = [dict(enumerate(r)) for r in matrix]
        assert linalg.kernel_basis(rows, range(len(long_words))) == []
        # N intertwines the coproducts
        for word in words:
            lhs = tensor_coproduct_reduced(n_map(basis, word))
            rhs = {}
            for (lw, rw), c in coproduct(basis, word).terms.items():
                for t1, c1 in n_map(basis, lw).items():
                    for t2, c2 in n_map(basis, rw).items():
                        key = (t1, t2)
                        val = rhs.get(key, 0) + c * c1 * c2
                        if val:
                            rhs[key] = val
                        else:
                            rhs.pop(key, None)
            assert lhs == rhs
        # lifted coderivations satisfy coLeibnitz; lifted morphisms the
        # comorphism law
        rng = random.Random(106)
        for _ in range(3):
            tables = {}
            for k in (1, 2):
                table = {}
                for word in all_words(basis, k, min_len=k):
                    val = Element()
                    for i in range(len(basis)):
                        if basis.degree(i) == word_degree(basis, word) + 1:
                            c = rng.randint(-2, 2)
                            if c:
                                val.add_term(i, F(c))
                    if not val.is_zero():
                        table[word] = val
                if table:
                    tables[k] = table
            Q = coder_lift(basis, 1, tables)
            assert Q.coleibnitz_report(words).ok()
        target = GradedBasis.of(("p", 1), ("q", 2), ("r", 3), ("s", 2))
        f1 = {(0,): Element.basis_vector(0), (1,): Element.basis_vector(1, F(2))}
        f2 = {(0, 1): Element.basis_vector(2), (0, 2): Element.basis_vector(3)}
        Fm = CoalgMorphism(basis, target, {1: f1, 2: f2})
        assert Fm.comorphism_report(words).ok()
    report_pass("6 (coalgebra laws)")


def test_criterion_07_linfty_equivalence():
    with timed(60):
        rng = random.Random(107)
        checked = 0
        injected = 0
        while checked < 30:
            S = random_linfty(rng)
            Q = S.coderivation()

            def square_is_zero(S, Q):
                for word in all_words(S.shifted, 5):
                    inner = Q.apply_word(word)
                    acc = None
                    for w, c in inner.terms.items():
                        part = Q.apply_word(w).scale(c)
                        acc = part if acc is None else acc + part
                    if acc is not None and not acc.is_zero():
                        return False
                return True

            ok = check_linfty(S, 5).ok()
            assert ok == square_is_zero(S, Q)
            assert ok
            bad = inject_linfty_violation(rng, S)
            if bad is not None:
                injected += 1
                bq = bad.coderivation()
                bad_ok = check_linfty(bad, 5).ok()
                assert bad_ok == square_is_zero(bad, bq)
                assert not bad_ok
            checked += 1
        assert injected >= 15
        # from_dgla passes iff the source passes, both directions
        flips = 0
        for _ in range(10):
            L = random_dgla(rng)
            assert check_dgla(L).ok()
            assert check_linfty(from_dgla(L), 4).ok()
            bad = inject_dgla_violation(rng, L)
            if bad is not None:
                flips += 1
                assert not check_dgla(bad).ok()
                assert not check_linfty(from_dgla(bad), 4).ok()
        assert flips >= 5
    report_pass("7 (homotopy-structure checker equivalence)")


def test_criterion_08_mc_correspondence():
    with timed(30):
        rng = random.Random(108)
        nonlinear_seen = 0
        for _ in range(50):
            L = random_dgla(rng)
            A = random_classical_artin(rng)
            S = from_dgla(L)
            M = TensorDgla(L, A)
            m = {}
            el = Element()
            for i in range(len(L.basis)):
                for j in range(len(A.basis)):
                    if L.basis.degree(i) + A.basis.degree(j) == 1:
                        c = rng.randint(-2, 2)
                        if c:
                            m[(i, j)] = F(c)
                            el.add_term(M.pair_index[(i, j)], F(c))
            classical = M.mc_residual(el)
            homotopy = mc_linfty(S, A, m)
            assert homotopy == classical
            assert oracle_mc_linfty(S, A, m, [0]) == classical.terms
            if not classical.is_zero() and not (classical - M.d(el)).is_zero():
                nonlinear_seen += 1
        assert nonlinear_seen > 0
    report_pass("8 (Maurer-Cartan correspondence)")


def test_criterion_09_gbv_suite():
    with timed(60):
        for S in (models.exterior_gbv(scale) for scale in (2, 1, 3)):
            assert S.gbv_check().ok()
            assert S.dgla_verify().ok()
        Spoly = polyvector_gbv(3, 3)
        assert Spoly.gbv_check().ok()
        assert Spoly.dgla_verify().ok()
        rng = random.Random(109)
        for _ in range(100):
            n = rng.choice((2, 3))
            fa = tuple(sorted(rng.sample(range(n), rng.randint(0, n))))
            fb = tuple(sorted(rng.sample(range(n), rng.randint(0, n))))
            a = Polyvector(
                n,
                None,
                {(tuple(rng.randint(0, 2) for _ in range(n)), fa): F(rng.randint(-2, 2) or 1)},
            )
            b = Polyvector(
                n,
                None,
                {(tuple(rng.randint(0, 2) for _ in range(n)), fb): F(rng.randint(-2, 2) or 1)},
            )
            assert tian_todorov_check(a, b).ok()
            assert delta_volume(delta_volume(a)).is_zero()
    report_pass("9 (GBV suite)")


def test_criterion_10_gbv_to_abelian():
    with timed(30):
        for S in (models.exterior_gbv(scale) for scale in (2, 1, 3)):
            Fm, Fstar, rep = gbv_to_abelian(S, m_max=4)
            assert rep.ok(), rep.text()
    report_pass("10 (product morphism onto the abelian structure)")


def test_criterion_11_lefschetz():
    with timed(120):
        for n in (1, 2, 3):
            rep = identities_report(n)
            assert rep.ok(), rep.text()
        rng = random.Random(111)
        for n in (1, 2, 3):
            keys = all_keys(n)
            for p in range(0, 2 * n + 1):
                pool = [k for k in keys if total_degree(k) == p]
                done = 0
                while done < 200:
                    v = CovectorElement(n)
                    for k in rng.sample(pool, min(len(pool), rng.randint(1, 4))):
                        v.add_term(
                            k,
                            GaussianScalar.of(
                                rng.randint(-3, 3), rng.randint(-1, 1)
                            ),
                        )
                    done += 1
                    if v.is_zero():
                        continue
                    parts = lefschetz_decompose(v)
                    assert reconstruct(n, parts) == v
                    for r, vr in parts:
                        assert is_primitive(vr)
        # primitive star identities swept over decomposition outputs
        n = 3
        for p in range(0, n + 1):
            pool = [k for k in all_keys(n) if total_degree(k) == p]
            for _ in range(5):
                v = CovectorElement(n)
                for k in rng.sample(pool, min(len(pool), 4)):
                    v.add_term(k, GaussianScalar.of(rng.randint(-2, 2)))
                if v.is_zero():
                    continue
                for r, vr in lefschetz_decompose(v):
                    assert primitive_star_report(vr).ok()
        # Lambda^alpha L^alpha = alpha!^2 on the scalar primitive
        v = CovectorElement.basis(
            2, ((), (), (), (1, 2))
        )
        assert op_power(op_Lambda, 2, op_power(op_L, 2, v)) == v.scale(F(4))
        # the optional n = 4 sweep, under its own budget
        with timed(10):
            assert identities_report(4).ok()
    report_pass("11 (Lefschetz identities and decomposition)")


def test_criterion_12_hodge_transfer():
    with timed(30):
        for name in ("trivial", "derived"):
            M = models.HODGE_BUILTINS[name]()
            assert hodge_model_check(M).ok()
            comps, rep = hodge_F(M, 4)
            assert rep.ok(), rep.text()
        # violation injection: breaking the product compatibility flips the
        # transfer identity at arity 2
        M = models.derived_hodge_model()
        M.q_table[(0, 2)] = Element.basis_vector(6)  # wrong sign on q(a, b)
        assert not hodge_model_check(M).ok()
        comps, rep = hodge_F(M, 2)
        assert not rep.ok()
        assert any("('a', 'b')" in v.location for v in rep.violations)
    report_pass("12 (Hodge-model transfer identity)")


def test_criterion_13_cli_determinism():
    with timed(60):
        cmd = [sys.executable, "-m", "defalg.cli", "suite", "--seed", "7",
               "--format", "json"]
        env = dict(os.environ)
        env.setdefault("PYTHONHASHSEED", "0")
        first = subprocess.run(cmd, capture_output=True, text=True, env=env)
        second = subprocess.run(cmd, capture_output=True, text=True, env=env)
        assert first.returncode == 0, first.stderr
        assert second.returncode == 0
        assert first.stdout == second.stdout
        payload = json.loads(first.stdout)
        assert payload["status"] == "pass"
    report_pass("13 (CLI determinism)")
