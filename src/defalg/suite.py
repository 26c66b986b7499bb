"""Deterministic cross-module property battery for `defalg suite`.

Every step is seeded; for a fixed seed the emitted JSON is byte-identical
across runs (no timing, sorted keys, deterministic iteration).
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import models
from .coalg import TensorProductElement, all_words, coproduct, iterated_coproduct
from .core import Element, GradedBasis
from .dgla import DGLA, ArtinDg, SmallExtension, TensorDgla, obstruction_class
from .freelie import TensorSeries, bch_explicit, bch_free, dsw_project, is_lie
from .gbv import Polyvector, gbv_to_abelian, tian_todorov_check
from .generators import (
    inject_linfty_violation,
    random_classical_artin,
    random_dgla,
    random_linfty,
    random_mc_pair,
)
from .lefschetz import (
    CovectorElement,
    all_keys,
    identities_report,
    is_primitive,
    lefschetz_decompose,
    reconstruct,
    total_degree,
)
from .linfty import check_linfty, from_dgla, hodge_F, hodge_model_check, mc_linfty
from .report import CheckReport


def _step(results, name, passed, detail=""):
    results.append({"name": name, "status": "pass" if passed else "fail",
                    "detail": detail})
    return passed


def run_suite(seed: int) -> CheckReport:
    rng = random.Random(seed)
    results = []

    # BCH: explicit == series oracle through degree 4; group axioms
    gens = ("x", "y")
    x = TensorSeries.generator(gens, 4, "x")
    y = TensorSeries.generator(gens, 4, "y")
    _step(results, "bch-modes-agree", bch_free(x, y) == bch_explicit(x, y))
    a = x + y.scale(Fraction(1, 2))
    _step(results, "bch-inverse", bch_explicit(a, -a).is_zero())

    # DSW idempotence and Friedrichs classification on random inputs
    ok = True
    for _ in range(20):
        s = TensorSeries.zero(("x", "y", "z"), 4)
        for _ in range(rng.randint(1, 5)):
            word = tuple(rng.randrange(3) for _ in range(rng.randint(1, 4)))
            s.add_term(word, Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
        once = dsw_project(s)
        ok = ok and dsw_project(once) == once and is_lie(once)
    _step(results, "dsw-idempotent", ok)

    # gauge calculus on random instances
    ok = True
    for _ in range(10):
        L = random_dgla(rng)
        A = random_classical_artin(rng)
        M, g1, g2, w = random_mc_pair(rng, L, A)
        gw = M.gauge_apply(g2, w)
        ok = ok and M.is_mc(gw)
        lhs = M.gauge_apply(g1, gw)
        rhs = M.gauge_apply(M.bch_degree0(g1, g2), w)
        ok = ok and lhs == rhs
    _step(results, "gauge-group-action", ok)

    # obstruction classes: the worked x/y instance and a vanishing one
    basis = GradedBasis.of(("x", 1), ("y", 2))
    Lxy = DGLA(basis, {(0, 0): Element.basis_vector(1)}, {})
    tmax3 = ArtinDg(
        GradedBasis.of(("t", 0), ("t2", 0)),
        {(0, 0): Element.basis_vector(1)},
        {},
    )
    ext = SmallExtension(tmax3, ["t2"])
    MB = TensorDgla(Lxy, ext.quotient)
    res = obstruction_class(Lxy, ext, MB.vector("x", "t"))
    _step(
        results,
        "obstruction-class",
        (not res["vanishes"]) and res["classes"]["t2"] == [Fraction(1, 2)],
    )

    # coalgebra laws on a mixed-degree basis
    mixed = GradedBasis.of(("a", 1), ("b", 2), ("c", 0))
    ok = True
    for word in all_words(mixed, 3):
        base = coproduct(mixed, word)
        left = TensorProductElement(mixed, 3)
        for (lw, rw), c in base.terms.items():
            for (p, q), c2 in coproduct(mixed, lw).terms.items():
                left.add_term((p, q, rw), c * c2)
        ok = ok and left == iterated_coproduct(mixed, word, 3)
    _step(results, "coalgebra-coassociativity", ok)

    # homotopy-structure checker equivalence and violation injection
    ok = True
    injected = 0
    for _ in range(8):
        S = random_linfty(rng)
        ok = ok and check_linfty(S).ok()
        bad = inject_linfty_violation(rng, S)
        if bad is not None:
            injected += 1
            ok = ok and not check_linfty(bad).ok()
    _step(results, "linfty-checker", ok and injected >= 4, f"injected={injected}")

    # homotopy MC matches the classical residual on structures from DGLAs
    ok = True
    for _ in range(8):
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
                        m[(i, j)] = Fraction(c)
                        el.add_term(M.pair_index[(i, j)], Fraction(c))
        ok = ok and mc_linfty(S, A, m) == M.mc_residual(el)
    _step(results, "mc-correspondence", ok)

    # GBV: checks, Tian-Todorov, product morphism
    S = models.exterior_gbv()
    _step(results, "gbv-exterior", S.gbv_check().ok() and S.dgla_verify().ok())
    _, _, rep = gbv_to_abelian(S, m_max=4)
    _step(results, "gbv-to-abelian", rep.ok())
    ok = True
    for _ in range(20):
        n = 2
        fa = tuple(sorted(rng.sample(range(n), rng.randint(0, n))))
        fb = tuple(sorted(rng.sample(range(n), rng.randint(0, n))))
        a = Polyvector(n, None, {(tuple(rng.randint(0, 2) for _ in range(n)), fa):
                                 Fraction(rng.randint(-2, 2) or 1)})
        b = Polyvector(n, None, {(tuple(rng.randint(0, 2) for _ in range(n)), fb):
                                 Fraction(rng.randint(-2, 2) or 1)})
        ok = ok and tian_todorov_check(a, b).ok()
    _step(results, "tian-todorov", ok)

    # Lefschetz identities and decomposition round trip
    _step(results, "lefschetz-identities", identities_report(2).ok())
    ok = True
    for _ in range(15):
        n = 2
        p = rng.randint(0, 2 * n)
        pool = [k for k in all_keys(n) if total_degree(k) == p]
        v = CovectorElement(n)
        for k in rng.sample(pool, min(len(pool), 3)):
            v.add_term(k, rng.randint(-3, 3))
        if v.is_zero():
            continue
        parts = lefschetz_decompose(v)
        ok = ok and reconstruct(n, parts) == v
        ok = ok and all(is_primitive(vr) for _, vr in parts)
    _step(results, "lefschetz-roundtrip", ok)

    # Hodge models: relations and the transfer identity
    for name in ("trivial", "rank-one", "derived"):
        M = models.HODGE_BUILTINS[name]()
        mrep = hodge_model_check(M)
        _, frep = hodge_F(M, 3)
        _step(results, f"hodge-{name}", mrep.ok() and frep.ok())

    report = CheckReport("suite")
    report.info = {"seed": seed, "steps": results}
    for entry in results:
        if entry["status"] != "pass":
            report.add(entry["name"], "", "suite step failed")
    return report
