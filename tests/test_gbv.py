"""GBV algebras, polyvector fields, Schouten bracket, volume delta,
Tian-Todorov, and the product morphism onto the abelian structure."""

import ast
import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from sign_oracles import (
    PolyForm,
    _merge_frames,
    _partial,
    contract,
    form_del,
    frame_pairing,
    gbv_bracket,
    one_form_contract,
    oracle_delta_volume,
    oracle_tensor_inverse_check,
    show,
    volume_form,
)
from test_core import in_order
from test_dgla import oracle_check_na
from test_freelie import oracle_nilpotent_lie

from defalg import core, gbv
from defalg.coalg import all_words
from defalg.core import (
    Element,
    GradedBasis,
    derivation_residual,
    koszul_sign,
    representatives,
    unshuffles,
)
from defalg.dgla import DGLA, ArtinDg, check_dgla, check_na
from defalg.errors import InputError, StructureError
from defalg.freelie import NilpotentLie
from defalg.gbv import (
    GBVStructure,
    GradedCommAlgebra,
    Polyvector,
    delta_volume,
    gbv_linfty_structures,
    gbv_to_abelian,
    polyvector_basis,
    polyvector_gbv,
    schouten,
    tian_todorov_check,
)

F = Fraction


def e(i, c=1):
    return Element.basis_vector(i, F(c))


def pv(nvars, mono, frame, c=1):
    return Polyvector(nvars, None, {(tuple(mono), tuple(frame)): F(c)})


def swap_sign(basis, i, j):
    """(-1)^{deg i deg j}: the sign of swapping e_i and e_j."""
    return -1 if (basis.degree(i) * basis.degree(j)) % 2 else 1


def key_element(S, value: Polyvector) -> Element:
    """The Element over the basis of `polyvector_gbv` S of a polyvector's
    terms within S's cap."""
    index = {key: i for i, key in enumerate(S.keys)}
    terms = value.terms.items()
    return Element({index[m, f]: c for (m, f), c in terms if sum(m) <= S.cap})


# -- exterior-algebra GBV example ------------------------------------------------


from defalg.models import exterior_gbv
from defalg.report import CheckReport


def test_abelian_gbv_has_zero_q():
    S = exterior_gbv(1)
    assert S.gbv_check().ok()
    basis = S.algebra.basis
    for i in range(len(basis)):
        for j in range(len(basis)):
            assert S.derived_q(e(i), e(j)).is_zero()
    rep = S.dgla_verify()
    assert rep.ok()
    for i in range(len(basis)):
        for j in range(len(basis)):
            assert gbv_bracket(S, e(i), e(j)).is_zero()


def test_exterior_gbv_checks():
    S = exterior_gbv()
    assert S.gbv_check().ok()
    assert not S.derived_q(e(1), e(2)).is_zero()  # genuinely non-abelian
    assert S.dgla_verify().ok()


def test_unital_delta_of_one_vanishes():
    S = exterior_gbv()
    assert S.delta(e(0)).is_zero()
    bad = GBVStructure(S.algebra, {0: e(2), 1: e(0), 3: e(2, 2)})
    rep = bad.gbv_check()
    assert any(v.location == "delta(1)" for v in rep.violations)


def test_delta_squared_violation_detected():
    S = exterior_gbv()
    bad = GBVStructure(S.algebra, {1: e(0), 2: e(3), 3: e(2, 2)})
    rep = bad.dgla_verify()
    assert not rep.ok()
    assert any("d^2" in v.location for v in rep.violations)


def test_inhomogeneous_delta_image_is_reported_not_raised():
    # delta(th12) = 2 th2 + one mixes degrees 1 and 0; q is bilinear on
    # basis pairs, so the checker reports instead of raising DomainError
    bad = GBVStructure(exterior_gbv().algebra, {3: e(2, 2) + e(0)})
    rep = bad.dgla_verify()
    assert not rep.ok()
    assert any(v.location.startswith("delta-q(") for v in rep.violations)
    assert rep.to_dict() == oracle_dgla_verify(bad).to_dict()


def test_bracket_is_signed_derived_product_on_basis_pairs():
    # [a,b] = (-1)^{deg a + 1} q(a,b) (sign ledger G2); _shifted relies on it
    models = tuple(map(exterior_gbv, (2, 1, 3)))
    for S in (polyvector_gbv(2, 2),) + models:
        basis = S.algebra.basis
        for i in range(len(basis)):
            sign = (-1) ** ((basis.degree(i) + 1) % 2)
            for j in range(len(basis)):
                assert gbv_bracket(S, e(i), e(j)) == S.derived_q(e(i), e(j)).scale(sign)


# -- the Element-based checking loops, kept as the oracle of the tabled ones -----


def _admit(S):
    """An instance is checked when its arguments' weights fit the cap."""
    if S.weights is None:
        return lambda *idx: True
    return lambda *idx: sum(S.weights[t] for t in idx) <= S.cap


def oracle_gbv_check(S):
    alg = S.algebra
    basis = alg.basis
    names, deg, n = basis.names, basis.degree, len(basis)
    admit = _admit(S)
    mul = alg.product
    rep = CheckReport("gbv-check")
    for (i, j), el in alg.table.items():
        degs = {deg(k) for k in el.terms}
        if degs and degs != {deg(i) + deg(j)}:
            msg = "product is not degree-additive"
            rep.add(f"{names[i]}*{names[j]}", show(alg, el), msg)
    for i in range(n):
        for j in range(n):
            comm = mul(e(i), e(j)) - mul(e(j), e(i)).scale(swap_sign(basis, i, j))
            if not comm.is_zero():
                msg = "graded commutativity fails"
                rep.add(f"comm({names[i]},{names[j]})", show(alg, comm), msg)
    for i, j, k in itertools.product(range(n), repeat=3):
        if admit(i, j, k):
            ass = mul(mul(e(i), e(j)), e(k)) - mul(e(i), mul(e(j), e(k)))
            if not ass.is_zero():
                rep.add(
                    f"assoc({names[i]},{names[j]},{names[k]})",
                    show(alg, ass),
                    "associativity fails",
                )
    for i, el in S.delta_table.items():
        degs = {deg(k) for k in el.terms}
        if degs and degs != {deg(i) + 1}:
            rep.add(f"delta({names[i]})", show(alg, el), "delta is not degree +1")
    for i in range(n):
        dd = S.delta(S.delta(e(i)))
        if not dd.is_zero():
            rep.add(f"delta^2({names[i]})", show(alg, dd), "delta^2 != 0")
    if alg.unit is not None:
        du = S.delta(e(alg.unit))
        if not du.is_zero():
            rep.add("delta(1)", show(alg, du), "delta(1) != 0")
    for i, j, k in itertools.product(range(n), repeat=3):
        if admit(i, j, k):
            a, b, c = e(i), e(j), e(k)
            lhs = S.derived_q(a, mul(b, c))
            rhs = mul(S.derived_q(a, b), c) + mul(b, S.derived_q(a, c)).scale(
                (-1) ** (((deg(i) + 1) * deg(j)) % 2)
            )
            if not (lhs - rhs).is_zero():
                rep.add(
                    f"oddpoisson({names[i]},{names[j]},{names[k]})",
                    show(alg, lhs - rhs),
                    "odd Poisson identity fails",
                )
    return rep


def oracle_check_dgla(L, admit=lambda *idx: True):
    rep = CheckReport("check-dgla")
    basis = L.basis
    names, deg, n = basis.names, basis.degree, len(basis)
    br = L.bracket
    for i, el in L.diff.items():
        degs = {deg(k) for k in el.terms}
        if degs and degs != {deg(i) + 1}:
            rep.add(f"d({names[i]})", show(L, el), "differential is not degree +1")
    for (i, j), el in L.table.items():
        degs = {deg(k) for k in el.terms}
        if degs and degs != {deg(i) + deg(j)}:
            msg = "bracket is not degree-additive"
            rep.add(f"[{names[i]},{names[j]}]", show(L, el), msg)
    for i in range(n):
        res = L.d(L.d(e(i)))
        if admit(i) and not res.is_zero():
            rep.add(f"d^2({names[i]})", show(L, res), "d^2 != 0")
    for i, j in itertools.product(range(n), repeat=2):
        if not admit(i, j):
            continue
        a, b = e(i), e(j)
        anti = br(a, b) + br(b, a).scale(swap_sign(basis, i, j))
        if not anti.is_zero():
            msg = "graded antisymmetry fails"
            rep.add(f"antisym({names[i]},{names[j]})", show(L, anti), msg)
        leib = L.d(br(a, b)) - br(L.d(a), b) - br(a, L.d(b)).scale((-1) ** (deg(i) % 2))
        if not leib.is_zero():
            msg = "graded Leibnitz fails"
            rep.add(f"leibnitz({names[i]},{names[j]})", show(L, leib), msg)
    for i in range(n):
        if admit(i, i) and deg(i) % 2 == 0:
            sq = br(e(i), e(i))
            if not sq.is_zero():
                msg = "even element with nonzero self-bracket"
                rep.add(f"[{names[i]},{names[i]}]", show(L, sq), msg)
    for i, j, k in itertools.product(range(n), repeat=3):
        if not admit(i, j, k):
            continue
        a, b, c = e(i), e(j), e(k)
        jac = (
            br(a, br(b, c))
            - br(br(a, b), c)
            - br(b, br(a, c)).scale((-1) ** ((deg(i) * deg(j)) % 2))
        )
        if not jac.is_zero():
            rep.add(
                f"jacobi({names[i]},{names[j]},{names[k]})",
                show(L, jac),
                "graded Jacobi fails",
            )
    return rep


def element_shifted(S, Q):
    """The shifted DGLA of `GBVStructure._shifted` on the derived-product
    rows Q, built from a table of Elements."""
    basis = S.algebra.basis
    shifted = GradedBasis(basis.names, tuple(d + 1 for d in basis.degrees))
    table = {}
    for i, row in enumerate(Q):
        sign = 1 if basis.degree(i) % 2 else -1
        for j, q in row.items():
            table[i, j] = Element(q).scale(sign)
    return DGLA(shifted, table, dict(S.delta_table))


def oracle_to_dgla(S):
    basis = S.algebra.basis
    n = len(basis)
    table = {}
    for i, j in itertools.product(range(n), repeat=2):
        val = gbv_bracket(S, e(i), e(j))
        if not val.is_zero():
            table[(i, j)] = val
    shifted = GradedBasis(basis.names, tuple(d + 1 for d in basis.degrees))
    return DGLA(shifted, table, dict(S.delta_table))


def oracle_dgla_verify(S):
    """check_dgla on the n^2 bracket() table plus the delta-q loop, with q
    taken bilinearly in its first argument (delta(a) may be inhomogeneous)."""
    basis = S.algebra.basis
    admit = _admit(S)
    rep = oracle_check_dgla(oracle_to_dgla(S), admit)
    rep.command = "gbv-dgla"

    def q(x, b):
        out = Element()
        for t, c in x.terms.items():
            out = out + S.derived_q(e(t), b).scale(c)
        return out

    for i, j in itertools.product(range(len(basis)), repeat=2):
        if not admit(i, j):
            continue
        a, b = e(i), e(j)
        res = (
            S.delta(S.derived_q(a, b))
            + q(S.delta(a), b)
            + S.derived_q(a, S.delta(b)).scale((-1) ** (basis.degree(i) % 2))
        )
        if not res.is_zero():
            rep.add(
                f"delta-q({basis.names[i]},{basis.names[j]})",
                show(S.algebra, res),
                "delta is not a derivation of the derived product",
            )
    return rep


def _perturbed(S, rng):
    """S with one to three random edits of its product and delta tables."""
    n = len(S.algebra.basis)
    table = {k: v.copy() for k, v in S.algebra.table.items()}
    delta = {k: v.copy() for k, v in S.delta_table.items()}
    for _ in range(rng.randint(1, 3)):
        c = F(rng.choice((-2, -1, 1, 3)), rng.choice((1, 2)))
        if rng.random() < 0.5:
            key = (rng.randrange(n), rng.randrange(n))
            if rng.random() < 0.5:
                key = rng.choice(sorted(table))
            table[key] = table.get(key, Element()) + e(rng.randrange(n), c)
        else:
            i = rng.randrange(n)
            delta[i] = delta.get(i, Element()) + e(rng.randrange(n), c)
    unit = None if S.algebra.unit is None else S.algebra.basis.names[S.algebra.unit]
    algebra = GradedCommAlgebra(S.algebra.basis, table, unit)
    return GBVStructure(algebra, delta, S.weights, S.cap)


def _gbv_corpus():
    """Seeded GBV models, each followed by its perturbed twins."""
    rng = random.Random(41)
    for S, count in (
        (polyvector_gbv(2, 2), 3),
        (polyvector_gbv(1, 4), 8),
        (exterior_gbv(), 10),
        (exterior_gbv(1), 10),
        (exterior_gbv(3), 10),
    ):
        yield from [S] + [_perturbed(S, rng) for _ in range(count)]


def test_shifted_dgla_shares_the_delta_images():
    """The shifted DGLA of `dgla_verify` takes the int-first delta images as
    its differential images, the same dicts, and `check_dgla` reads them
    without building the Element view `diff`, which equals the delta table
    when it is read."""
    for S in (polyvector_gbv(1, 4), exterior_gbv()):
        L = S._shifted(S._tables()[0])
        assert list(L.d_images) == list(S.delta_images)
        assert all(L.d_images[i] is v for i, v in S.delta_images.items())
        assert check_dgla(L, S.weights, S.cap).ok()
        assert "diff" not in vars(L)
        assert L.diff == S.delta_table


def _random_dgla_corpus():
    """60 seeded `random_dgla` structures, every second one with an edited
    bracket entry."""
    from defalg.generators import random_dgla

    rng = random.Random(43)
    for t in range(60):
        L = random_dgla(rng)
        if t % 2:
            n = len(L.basis)
            table = dict(L.table)
            key = (rng.randrange(n), rng.randrange(n))
            edit = e(rng.randrange(n), rng.choice((-1, 2)))
            table[key] = table.get(key, Element()) + edit
            L = DGLA(L.basis, table, L.diff)
        yield L


def test_tabled_checks_match_element_oracle_on_perturbations():
    """gbv_check, the shifted table, dgla_verify and check_na (of the
    product with delta as its differential) equal their Element oracles.
    Associativity fails both on commutative tables, where a failing orbit
    representative sends check_na to the full family (sign ledger K5), and
    on tables that are not, which never take the reduction.  check_na runs
    on the algebras of at most 10 basis elements: the oracle's nilpotency
    sweep takes about a second on each 24-element polyvector algebra."""
    failing, assoc_paths, swap_rules = 0, set(), set()
    for T in _gbv_corpus():
        gbv = T.gbv_check()
        assert gbv.to_dict() == oracle_gbv_check(T).to_dict()
        # the terms route resolves the shifted DGLA as the Element route does
        Q = T._tables()[0]
        shifted, built = T._shifted(Q), element_shifted(T, Q)
        assert in_order(shifted.rows + shifted.cols) == in_order(built.rows + built.cols)
        assert shifted.swap_rule is built.swap_rule
        swap_rules.add(shifted.swap_rule)
        assert shifted.table == oracle_to_dgla(T).table
        assert T.dgla_verify().to_dict() == oracle_dgla_verify(T).to_dict()
        failing += not gbv.ok()
        if len(T.algebra.basis) > 10:
            continue
        A = ArtinDg(T.algebra.basis, T.algebra.table, T.delta_table)
        na = check_na(A)
        assert na.to_json() == oracle_check_na(A).to_json()
        if any(v.message == "associativity fails" for v in na.violations):
            assoc_paths.add(A.swap_rule)
    assert failing >= 10  # the perturbations do break identities
    assert assoc_paths == {True, False}
    assert swap_rules == {True, False}


def test_check_dgla_matches_element_oracle_on_random_dglas():
    """check_dgla equals its Element oracle, and the NilpotentLie
    constructor on the same table over an all-degree-0 basis raises at the
    first failing instance of the full ordered families, as the oracle
    finds it, Jacobi failures on antisymmetric tables included."""
    failing, raised = 0, Counter()
    for L in _random_dgla_corpus():
        rep = check_dgla(L)
        assert rep.to_dict() == oracle_check_dgla(L).to_dict()
        failing += not rep.ok()
        flat = GradedBasis(L.basis.names, (0,) * len(L.basis))
        message, index = oracle_nilpotent_lie(flat, L.table)
        if message is None:
            assert NilpotentLie(flat, L.table).nilpotency_index == index
        else:
            with pytest.raises(StructureError) as exc:
                NilpotentLie(flat, L.table)
            assert str(exc.value) == message
        raised[message and message.split(" ")[0]] += 1
    assert failing >= 5
    assert raised["Jacobi"] >= 3 and raised["antisymmetry"] >= 3 and raised[None] >= 3


def test_weighted_dgla_past_the_cap_takes_the_full_family():
    """Weights 0, 0, 5 and cap 0 admit only triples of x and y, but
    [z, x] = x is stored on both orders, so antisymmetry fails on (x, z)
    past the cap.  Every ascending triple of x and y passes Jacobi while
    jacobi(x,y,x) and jacobi(y,x,x) fail, so a reduction to ascending
    representatives would miss them; the precondition sees the pair past the cap and the
    report equals the full-family oracle byte for byte."""
    basis = GradedBasis.of(("x", 0), ("y", 0), ("z", 0))
    table = {(0, 1): e(2), (2, 0): e(0), (0, 2): e(0)}
    L = DGLA(basis, table, {})
    weights, cap = (0, 0, 5), 0
    B, Bc = L.rows, L.cols
    assert not L.swap_rule
    jacobi = derivation_residual(B, Bc, basis.degree)
    ascending = list(representatives(3, 3, (0, 1, 2), weights, cap))
    assert ascending == [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)]
    assert not any(jacobi(B[i], 0, j, k) for i, j, k in ascending)
    rep = check_dgla(L, weights, cap)
    admit = lambda *idx: sum(weights[t] for t in idx) <= cap
    assert rep.to_json() == oracle_check_dgla(L, admit).to_json()
    assert rep.text() == oracle_check_dgla(L, admit).text()
    assert [v.location for v in rep.violations] == ["jacobi(x,y,x)", "jacobi(y,x,x)"]


def test_terms_tables_breaking_the_swap_rule_take_the_full_family(monkeypatch):
    """The K5 precondition on the terms route: a terms table whose stored
    (j, i) disagrees with the swap of (i, j), and `_shifted` on a corrupted
    derived product, each give swap_rule False; check_dgla then runs Jacobi
    on the full ordered family and reports what the Element route does."""
    calls = count_residual_calls(monkeypatch)
    # [z, x] = x stored on both orders, as in the weighted test above
    basis = GradedBasis.of(("x", 0), ("y", 0), ("z", 0))
    terms = {(0, 1): {2: 1}, (2, 0): {0: 1}, (0, 2): {0: 1}}
    L = DGLA.from_terms(basis, terms, {})
    built = DGLA(basis, {k: Element(v) for k, v in terms.items()}, {})
    weights, cap = (0, 0, 5), 0
    assert not L.swap_rule and not built.swap_rule
    rep = check_dgla(L, weights, cap)
    assert calls["jacobi({},{},{})"] == len(list(core.admitted(3, 3, weights, cap)))
    assert rep.to_json() == check_dgla(built, weights, cap).to_json()
    assert [v.location for v in rep.violations] == ["jacobi(x,y,x)", "jacobi(y,x,x)"]
    # q(e_i, e_j) doubled on the first pair i < j it is nonzero on
    S = polyvector_gbv(2, 2)
    Q = S._tables()[0]
    i, j = next((i, j) for i, row in enumerate(Q) for j in row if i < j)
    corrupted = [dict(row) for row in Q]
    corrupted[i][j] = {t: 2 * c for t, c in Q[i][j].items()}
    L, built = S._shifted(corrupted), element_shifted(S, corrupted)
    assert not L.swap_rule and not built.swap_rule
    assert in_order(L.rows + L.cols) == in_order(built.rows + built.cols)
    calls.clear()
    rep = check_dgla(L, S.weights, S.cap)
    triples = core.admitted(len(S.algebra.basis), 3, S.weights, S.cap)
    assert calls["jacobi({},{},{})"] == len(list(triples))
    assert "graded Jacobi fails" in {v.message for v in rep.violations}
    assert rep.to_json() == check_dgla(built, S.weights, S.cap).to_json()
    assert rep.to_json() == oracle_check_dgla(built, _admit(S)).to_json()


def test_off_degree_delta_takes_the_full_odd_poisson_family():
    """On the commutative algebra of polyvector_gbv(1, 1), delta(m1f) =
    -m0f1 - m0f and delta(m1f1) = m0f1 are off degree +1.  Odd Poisson then
    holds on every triple with j <= k and fails on others, so the
    precondition must refuse the reduction; the report equals the oracle."""
    alg = polyvector_gbv(1, 1).algebra
    S = GBVStructure(alg, {2: e(1, -1) + e(0, -1), 3: e(1)})
    Q = S._tables()[0]
    deg = alg.basis.degree
    assert alg.swap_rule
    ad = derivation_residual(alg.rows, alg.cols, deg)
    triples = list(itertools.product(range(len(alg.basis)), repeat=3))
    assert not any(ad(Q[i], deg(i) + 1, j, k) for i, j, k in triples if j <= k)
    rep = S.gbv_check()
    assert rep.to_json() == oracle_gbv_check(S).to_json()
    assert any(v.message == "odd Poisson identity fails" for v in rep.violations)


def count_residual_calls(monkeypatch):
    """A Counter, by location template, of the residual calls the identity
    engine makes from now on."""
    calls = Counter()
    engine = core.violations

    def counted(template, residual):
        def res(*idx):
            calls[template] += 1
            return residual(*idx)

        return res

    def counting(name, steps):
        steps = [
            (family, [(t, m, counted(t, r)) for t, m, r in identities], *reps)
            for family, identities, *reps in steps
        ]
        return engine(name, steps)

    monkeypatch.setattr(core, "violations", counting)
    return calls


def test_passing_polyvector_checks_run_one_residual_per_orbit(monkeypatch):
    """A passing polyvector_gbv(2, 2) calls each triple residual once per
    orbit representative (sign ledger K5), never on the full family: the
    associator on i <= k, odd Poisson on j <= k and Jacobi on i <= j <= k,
    counted against a filter of the admitted triples; so does check_na's
    associator on the product of polyvector_gbv(1, 3)."""
    calls = count_residual_calls(monkeypatch)
    S = polyvector_gbv(2, 2)
    assert S.gbv_check().ok() and S.dgla_verify().ok()
    triples = list(core.admitted(len(S.algebra.basis), 3, S.weights, S.cap))
    assert calls["assoc({},{},{})"] == sum(i <= k for i, _, k in triples)
    assert calls["oddpoisson({},{},{})"] == sum(j <= k for _, j, k in triples)
    assert calls["jacobi({},{},{})"] == sum(i <= j <= k for i, j, k in triples)
    assert 4 * calls["jacobi({},{},{})"] < len(triples)
    calls.clear()
    algebra = polyvector_gbv(1, 3).algebra
    check_na(ArtinDg(algebra.basis, algebra.table, {}))
    triples = list(core.admitted(len(algebra.basis), 3))
    assert calls["assoc({},{},{})"] == sum(i <= k for i, _, k in triples)


def test_truncated_checks_keep_their_instance_families():
    # graded commutativity runs on every pair, even past the cap
    basis = GradedBasis.of(("a", 0), ("b", 0))
    algebra = GradedCommAlgebra(basis, {(0, 1): e(0), (1, 0): e(1)})
    rep = GBVStructure(algebra, {}, (1, 1), 1).gbv_check()
    assert [v.location for v in rep.violations] == ["comm(a,b)", "comm(b,a)"]
    # the self-bracket of x is the pair (x, x): checked once 2 w_x <= cap
    L = DGLA(GradedBasis.of(("x", 0)), {(0, 0): e(0)}, {})
    assert check_dgla(L, [1], 1).ok()
    assert [v.message for v in check_dgla(L, [1], 2).violations] == [
        "graded antisymmetry fails",
        "even element with nonzero self-bracket",
    ]


CHECK_DGLA_MESSAGES = {
    "differential is not degree +1",
    "bracket is not degree-additive",
    "d^2 != 0",
    "graded antisymmetry fails",
    "graded Leibnitz fails",
    "even element with nonzero self-bracket",
    "graded Jacobi fails",
}


def test_every_identity_fires_on_the_oracle_corpora():
    """Each message gbv_check, dgla_verify and check_dgla can emit occurs on
    the corpora of the oracle tests above, so no single identity is compared
    only on passing instances.  The random DGLAs perturb brackets only, so
    a hand-made differential (d z = x has degree -2, d^2 x = z) adds the
    two differential identities to check_dgla's corpus."""

    def messages(rep):
        return {v.message for v in rep.violations}

    gbv, verify, dgla = set(), set(), set()
    for T in _gbv_corpus():
        gbv |= messages(T.gbv_check())
        verify |= messages(T.dgla_verify())
    basis = GradedBasis.of(("x", 0), ("y", 1), ("z", 2))
    bad_d = DGLA(basis, {}, {0: e(1), 1: e(2), 2: e(0)})
    for L in list(_random_dgla_corpus()) + [bad_d]:
        dgla |= messages(check_dgla(L))
    assert gbv == {
        "product is not degree-additive",
        "graded commutativity fails",
        "associativity fails",
        "delta is not degree +1",
        "delta^2 != 0",
        "delta(1) != 0",
        "odd Poisson identity fails",
    }
    assert verify == CHECK_DGLA_MESSAGES | {
        "delta is not a derivation of the derived product"
    }
    assert dgla == CHECK_DGLA_MESSAGES
    assert messages(check_dgla(bad_d)) == {"differential is not degree +1", "d^2 != 0"}


# -- contraction ------------------------------------------------------------------


def test_dual_pairing():
    w = PolyForm(2, {((0, 0), (0,)): F(1)})  # dz_1
    out = contract(pv(2, (0, 0), (0,)), w)
    assert out.terms == {((0, 0), ()): 1}


def test_contraction_derivation_property():
    # v -| (w1 ^ w2) = (v -| w1) ^ w2 + (-1)^{deg w1} w1 ^ (v -| w2)
    rng = random.Random(5)
    n = 3
    for _ in range(30):
        j = rng.randrange(n)
        k1 = tuple(sorted(rng.sample(range(n), rng.randint(1, 2))))
        k2 = tuple(sorted(rng.sample(range(n), rng.randint(1, 2))))
        w1 = PolyForm(n, {((0,) * n, k1): F(rng.randint(1, 3))})
        w2 = PolyForm(n, {((0,) * n, k2): F(rng.randint(1, 3))})
        v = pv(n, (0,) * n, (j,))
        lhs = contract(v, w1.wedge(w2))
        rhs_a = contract(v, w1).wedge(w2)
        rhs_b = w1.wedge(contract(v, w2))
        sign = (-1) ** (len(k1) % 2)
        rhs = PolyForm(n)
        for key, c in rhs_a.terms.items():
            rhs.terms[key] = rhs.terms.get(key, 0) + c
        for key, c in rhs_b.terms.items():
            val = rhs.terms.get(key, 0) + c * sign
            if val:
                rhs.terms[key] = val
            else:
                rhs.terms.pop(key, None)
        assert lhs == rhs


def test_wedge_contraction_composition():
    # (v ^ w) -| Omega = v -| (w -| Omega)
    rng = random.Random(9)
    n = 3
    omega = volume_form(n)
    for _ in range(40):
        fv = tuple(sorted(rng.sample(range(n), rng.randint(0, 2))))
        fw = tuple(sorted(rng.sample(range(n), rng.randint(0, 2))))
        mv = tuple(rng.randint(0, 1) for _ in range(n))
        mw = tuple(rng.randint(0, 1) for _ in range(n))
        v = pv(n, mv, fv, rng.randint(1, 2))
        w = pv(n, mw, fw, rng.randint(1, 2))
        lhs = contract(v.wedge(w), omega)
        rhs = contract(v, contract(w, omega))
        assert lhs == rhs


# -- Schouten bracket ---------------------------------------------------------------


def test_schouten_constant_frames_commute():
    assert schouten(pv(3, (0, 0, 0), (0,)), pv(3, (0, 0, 0), (1,))).is_zero()


def test_schouten_vector_field_commutator():
    # [d/dz1, z1 d/dz2] = d/dz2
    out = schouten(pv(2, (0, 0), (0,)), pv(2, (1, 0), (1,)))
    assert out == pv(2, (0, 0), (1,))


def test_schouten_matches_commutator_on_vector_fields():
    rng = random.Random(13)
    n = 2

    def vector_field():
        terms = {}
        for i in range(n):
            mono = tuple(rng.randint(0, 2) for _ in range(n))
            c = rng.randint(-2, 2)
            if c:
                terms[(mono, (i,))] = F(c)
        return Polyvector(n, None, terms)

    def apply_to_poly(v, mono):
        # v(f) for f a monomial: sum over terms f_i d/dz_i
        out = {}
        for (mv, frame), c in v.terms.items():
            (i,) = frame
            if mono[i] == 0:
                continue
            new = list(mono)
            new[i] -= 1
            key = tuple(x + y for x, y in zip(mv, new))
            out[key] = out.get(key, 0) + c * mono[i]
        return out

    for _ in range(20):
        a, b = vector_field(), vector_field()
        br = schouten(a, b)
        # oracle: commutator a(b(f)) - b(a(f)) acting on the coordinates
        for target in range(n):
            probe = tuple(1 if i == target else 0 for i in range(n))
            # direct second-order expansion is messy; instead apply both
            # sides to the coordinate functions: [a,b](z_t) = a(b(z_t)) - b(a(z_t))
            first = apply_to_poly(b, probe)
            second = apply_to_poly(a, probe)
            lhs = {}
            for mono, c in first.items():
                for (mv, frame), cv in a.terms.items():
                    (i,) = frame
                    if mono[i] == 0:
                        continue
                    new = list(mono)
                    new[i] -= 1
                    key = tuple(x + y for x, y in zip(mv, new))
                    lhs[key] = lhs.get(key, 0) + c * cv * mono[i]
            for mono, c in second.items():
                for (mv, frame), cv in b.terms.items():
                    (i,) = frame
                    if mono[i] == 0:
                        continue
                    new = list(mono)
                    new[i] -= 1
                    key = tuple(x + y for x, y in zip(mv, new))
                    lhs[key] = lhs.get(key, 0) - c * cv * mono[i]
            lhs = {k: v for k, v in lhs.items() if v}
            rhs = apply_to_poly(br, probe)
            rhs = {k: v for k, v in rhs.items() if v}
            assert lhs == rhs


def test_schouten_odd_poisson_identity():
    # [a, b ^ c] = [a,b] ^ c + (-1)^{(deg a + 1) deg b} b ^ [a, c]
    # (degrees on the unshifted polyvector grading: deg = -|frame|)
    rng = random.Random(21)
    n = 2
    for _ in range(40):
        def rand_pv(max_frame):
            frame = tuple(sorted(rng.sample(range(n), rng.randint(0, max_frame))))
            mono = tuple(rng.randint(0, 2) for _ in range(n))
            return pv(n, mono, frame, rng.randint(-2, 2) or 1)

        a, b, c = rand_pv(2), rand_pv(1), rand_pv(1)
        lhs = schouten(a, b.wedge(c))
        s = ((a.degree() or 0) + 1) * (b.degree() or 0)
        rhs = schouten(a, b).wedge(c) + b.wedge(schouten(a, c)).scale(
            F((-1) ** (s % 2))
        )
        assert lhs == rhs


def test_schouten_graded_jacobi():
    rng = random.Random(27)
    n = 2
    for _ in range(25):
        def rand_pv():
            frame = tuple(sorted(rng.sample(range(n), rng.randint(0, 2))))
            mono = tuple(rng.randint(0, 1) for _ in range(n))
            return pv(n, mono, frame, rng.randint(-2, 2) or 1)

        a, b, c = rand_pv(), rand_pv(), rand_pv()
        sa = (a.degree() or 0) + 1
        sb = (b.degree() or 0) + 1
        jac = (
            schouten(a, schouten(b, c))
            - schouten(schouten(a, b), c)
            - schouten(b, schouten(a, c)).scale(F((-1) ** ((sa * sb) % 2)))
        )
        assert jac.is_zero()


# -- volume delta --------------------------------------------------------------------


def test_delta_constant_frame_vanishes():
    assert delta_volume(pv(3, (0, 0, 0), (0,))).is_zero()


def test_delta_euler_field():
    # delta(z1 d/dz1) = 1
    out = delta_volume(pv(1, (1,), (0,)))
    assert out == pv(1, (0,), ())


def test_delta_equals_direct_formula():
    """The kernel's delta against the volume-form route, value, coefficient
    type, dict order and cap: every basis polyvector for n <= 4 and cap <= 3
    with an int and a Fraction coefficient, then seeded sums of terms."""

    def items(x):
        return [(k, type(c), c) for k, c in x.terms.items()], x.cap

    checked = 0
    for n in range(5):
        for cap in range(4):
            for key in polyvector_basis(n, cap):
                for c in (-2, F(3, 2)):
                    a = Polyvector(n, cap, {key: c})
                    assert items(delta_volume(a)) == items(oracle_delta_volume(a))
                    checked += 1
    assert checked == 2560
    rng = random.Random(3)
    n = 3
    for _ in range(60):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            mono = tuple(rng.randint(0, 2) for _ in range(n))
            frame = tuple(sorted(rng.sample(range(n), rng.randint(0, n))))
            terms[(mono, frame)] = F(rng.randint(-3, 3) or 1)
        a = Polyvector(n, None, terms)
        assert items(delta_volume(a)) == items(oracle_delta_volume(a))


def test_frame_pairing_matches_the_contraction_probe():
    """c_I from the closed form against (d/dz_I) -| Omega, every frame of
    n <= 4 variables."""
    for n in range(5):
        for r in range(n + 1):
            for frame in itertools.combinations(range(n), r):
                comp = tuple(i for i in range(n) if i not in frame)
                probe = contract(pv(n, (0,) * n, frame), volume_form(n))
                assert probe.terms == {((0,) * n, comp): frame_pairing(n, frame)}


def test_delta_squared_zero():
    rng = random.Random(7)
    n = 3
    for _ in range(40):
        mono = tuple(rng.randint(0, 3) for _ in range(n))
        frame = tuple(sorted(rng.sample(range(n), rng.randint(0, n))))
        a = pv(n, mono, frame, rng.randint(-2, 2) or 1)
        assert delta_volume(delta_volume(a)).is_zero()


def test_delta_defining_property():
    # (delta a) -| Omega = del(a -| Omega)
    rng = random.Random(11)
    n = 3
    omega = volume_form(n)
    for _ in range(40):
        mono = tuple(rng.randint(0, 2) for _ in range(n))
        frame = tuple(sorted(rng.sample(range(n), rng.randint(0, n))))
        a = pv(n, mono, frame, rng.randint(-2, 2) or 1)
        assert contract(delta_volume(a), omega) == form_del(contract(a, omega))


def test_tian_todorov_worked_example():
    # a = d/dz, b = z d/dz in one variable: both sides equal d/dz
    a = pv(1, (0,), (0,))
    b = pv(1, (1,), (0,))
    rep = tian_todorov_check(a, b)
    assert rep.ok()
    s = a.degree() + 1  # = 0
    lhs = schouten(a, b).scale(F((-1) ** (s % 2)))
    assert lhs == pv(1, (0,), (0,))


def test_tian_todorov_random_pairs():
    rng = random.Random(31)
    n = 2
    for _ in range(100):
        fa = tuple(sorted(rng.sample(range(n), rng.randint(0, n))))
        fb = tuple(sorted(rng.sample(range(n), rng.randint(0, n))))
        ma = tuple(rng.randint(0, 2) for _ in range(n))
        mb = tuple(rng.randint(0, 2) for _ in range(n))
        a = pv(n, ma, fa, rng.randint(-2, 2) or 1)
        b = pv(n, mb, fb, rng.randint(-2, 2) or 1)
        assert tian_todorov_check(a, b).ok()
    # the benchmark's shape: two terms a side in three variables, a left
    # frame size of 0 to 3 and the right one size more mod 4, p/q with q <= 3
    n = 3
    coeff = lambda: F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2, 3)))
    for k in range(200):
        a, b = (
            Polyvector(n, None, {
                (tuple(rng.randint(0, 2) for _ in range(n)),
                 tuple(sorted(rng.sample(range(n), size)))): coeff()
                for _ in range(2)
            })
            for size in (k % 4, (k + 1) % 4)
        )
        assert tian_todorov_check(a, b).ok()


def test_tian_todorov_failing_output_is_pinned(monkeypatch):
    """With the bracket doubled the identity fails by (-1)^s [a,b]: the
    report's location, residual text and message, at shifted degrees s = 0
    and s = -1."""
    real = gbv.schouten
    monkeypatch.setattr(gbv, "schouten", lambda a, b: real(a, b).scale(2))
    pairs = (
        (
            {((0, 1), (0,)): F(1), ((2, 0), (1,)): F(-1, 2)},
            {((1, 1), (0, 1)): F(3), ((0, 2), (1,)): F(2, 3)},
            "-2/3*z2^2*d1 + 3*z2^2*d1^d2 + -2/3*z1^2*z2*d2 + -3/2*z1^3*d1^d2",
        ),
        (
            {((0, 1, 1), (0, 2)): F(1), ((1, 0, 1), (1, 2)): F(-1, 3)},
            {((1, 1, 0), (1, 2)): 2, ((0, 0, 1), (1,)): 1, ((1, 0, 0), (0, 1)): F(1, 2)},
            "1*z3^2*d1^d3 + -1*z2*z3*d1^d2 + 1/2*z2*z3*d1^d2^d3 + 2*z1*z2^2*d1^d2^d3",
        ),
    )
    for left, right, residual in pairs:
        n = len(next(iter(left))[0])
        rep = tian_todorov_check(Polyvector(n, None, left), Polyvector(n, None, right))
        found = [(v.location, v.residual, v.message) for v in rep.violations]
        assert found == [("identity", residual, "Tian-Todorov identity fails")]


def test_gbv_bracket_equals_schouten_on_polyvectors():
    S = polyvector_gbv(2, 2)
    keys = S.keys
    rng = random.Random(17)
    for _ in range(40):
        i = rng.randrange(len(keys))
        j = rng.randrange(len(keys))
        (m1, f1), (m2, f2) = keys[i], keys[j]
        if sum(m1) + sum(m2) > 2:
            continue  # stay inside the exactness cap
        br = gbv_bracket(S, e(i), e(j))
        sch = schouten(
            pv(2, m1, f1), pv(2, m2, f2)
        )
        assert br == key_element(S, sch)


# -- the polyvector GBV structure ------------------------------------------------------


def test_polyvector_gbv_small_checks():
    S = polyvector_gbv(2, 2)
    assert S.gbv_check().ok()
    assert S.dgla_verify().ok()
    # at every benchmark size the stored terms table is the Polyvector wedge
    # of each pair within the cap, in the order of the pairs, and the
    # Element view of it equals the Element table of the same wedges
    for nvars, cap in ((1, 4), (2, 1), (2, 2), (3, 1), (2, 3)):
        S = polyvector_gbv(nvars, cap)
        table = {}
        for i, a in enumerate(S.keys):
            for j, b in enumerate(S.keys):
                if sum(a[0]) + sum(b[0]) <= cap:
                    wedge = key_element(S, pv(nvars, *a).wedge(pv(nvars, *b)))
                    if wedge.terms:
                        table[i, j] = wedge
        stored = S.algebra.stored
        assert list(stored.items()) == [(k, v.terms) for k, v in table.items()]
        assert S.algebra.table == table
        # and delta is delta_volume on each key, which stays within the cap
        deltas = {}
        for i, key in enumerate(S.keys):
            image = delta_volume(pv(nvars, *key))
            if image.terms:
                deltas[i] = key_element(S, image)
                assert len(deltas[i].terms) == len(image.terms)
        assert S.delta_table == deltas


def test_gbv_tables_are_built_once_per_structure(monkeypatch):
    # gbv_check, dgla_verify and the homotopy structures share one build of
    # the product rows and the derived-product table
    builds = []
    real = gbv.basis_rows
    monkeypatch.setattr(gbv, "basis_rows", lambda *args: builds.append(args) or real(*args))
    S = polyvector_gbv(2, 2)
    assert S.gbv_check().ok() and S.dgla_verify().ok()
    assert len(builds) == 1
    gbv_linfty_structures(S)
    assert len(builds) == 1


def test_polyvector_gbv_tables_hold_int_coefficients():
    """Every structure constant of the polyvector example is an integer and
    is stored as an int: product rows, delta images and the derived
    product's rows."""
    S = polyvector_gbv(2, 2)
    Q, Qc = S._tables()
    rows = S.algebra.rows + S.algebra.cols + Q + Qc + [S.delta_images]
    coeffs = [c for row in rows for terms in row.values() for c in terms.values()]
    assert len(coeffs) > 100 and {type(c) for c in coeffs} == {int}
    stored = S.algebra.table.values()
    assert {type(c) for v in stored for c in v.terms.values()} == {int}


# -- products onto the abelian structure ------------------------------------------------


def test_gbv_to_abelian_exterior():
    S = exterior_gbv()
    Fm, Fstar, rep = gbv_to_abelian(S, m_max=4)
    assert rep.ok(), rep.text()


def test_gbv_to_abelian_abelian_case():
    S = exterior_gbv(1)
    Fm, Fstar, rep = gbv_to_abelian(S, m_max=4)
    assert rep.ok(), rep.text()


def _within_cap(S, word):
    return S.weights is None or sum(S.weights[i] for i in word) <= S.cap


def _delta_twin(S, src, dst):
    """S with delta(src) += dst (basis names): a perturbed GBV model."""
    names = S.algebra.basis.names
    delta = {k: v.copy() for k, v in S.delta_table.items()}
    delta.setdefault(names.index(src), Element()).add_term(names.index(dst), F(1))
    return GBVStructure(S.algebra, delta, S.weights, S.cap)


def test_gbv_to_abelian_checks_truncated_models_within_the_cap():
    # words whose polynomial weights pass the cap are truncated to zero on
    # one side only: they used to fail these models, which pass gbv_check
    for nvars, cap in ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2)):
        S = polyvector_gbv(nvars, cap)
        assert S.gbv_check().ok()
        _, _, rep = gbv_to_abelian(S, m_max=3)
        assert rep.ok(), ((nvars, cap), rep.text())
    # a perturbed delta still fails, at words within the cap
    T = _delta_twin(polyvector_gbv(1, 2), "m1f1", "m1f")
    _, _, rep = gbv_to_abelian(T, m_max=3)
    names = T.algebra.basis.names
    morphism = [v for v in rep.violations if v.location.startswith("morphism: word")]
    assert len(morphism) == 2 and len(rep.violations) == 4
    for v in morphism:
        word = [names.index(x) for x in ast.literal_eval(v.location.split("word ")[1])]
        assert _within_cap(T, word), v.location


def non_associative_gbv():
    """x^2 = y and xy = x in degree 0: commutative, not associative, so
    the inverse compositions of the product morphism fail."""
    basis = GradedBasis.of(("x", 0), ("y", 0))
    return GBVStructure(GradedCommAlgebra(basis, {(0, 0): e(1), (0, 1): e(0)}), {})


TENSOR_SIDE_FAILURES = [
    ("tensor word (0, 0, 1)", "-1*y"),
    ("tensor word (0, 1, 1)", "1*x"),
    ("tensor word (1, 0, 0)", "1*y"),
    ("tensor word (1, 1, 0)", "-1*x"),
]


def test_gbv_to_abelian_inverse_failing_output_is_pinned():
    """Both sides of the inverse (sign ledger C4) fail on a commutative,
    non-associative product, the tensor side at the associator."""
    _, _, rep = gbv_to_abelian(non_associative_gbv(), 3)
    got = [
        (v.location, v.residual, v.message)
        for v in rep.violations
        if v.location.startswith(("inverse", "tensor side"))
    ]
    assert got == [
        ("inverse F* F on (0, 0, 1)", "-2*y", "F* F is not the identity"),
        ("inverse F* F on (0, 1, 1)", "1*x", "F* F is not the identity"),
        ("inverse F F* on (0, 0, 1)", "-2*y", "F F* is not the identity"),
        ("inverse F F* on (0, 1, 1)", "1*x", "F F* is not the identity"),
    ] + [
        ("tensor side: " + loc, res, "tensor-side inverse composition fails")
        for loc, res in TENSOR_SIDE_FAILURES
    ]


def _random_comm_algebra(rng):
    """A degree-additive graded-commutative table on 1-4 basis elements of
    mixed degrees with coefficients in {-2..2} and halves, associative or
    not as the draw falls; a degree-0 element is the unit on about a third
    of the draws that have one."""
    n = rng.randint(1, 4)
    degrees = [rng.choice((0, 0, 1, 2, -1)) for _ in range(n)]
    basis = GradedBasis(tuple(f"v{i}" for i in range(n)), tuple(degrees))
    table = {}
    for i in range(n):
        for j in range(i, n):
            targets = [t for t in range(n) if degrees[t] == degrees[i] + degrees[j]]
            if not targets or rng.random() < 0.5:
                continue
            v = Element()
            for t in rng.sample(targets, rng.randint(1, len(targets))):
                v.add_term(t, F(rng.randint(-2, 2), rng.choice((1, 1, 2))))
            if v.terms:
                table[(i, j)] = v
    zeros = [basis.names[i] for i in range(n) if degrees[i] == 0]
    unit = rng.choice(zeros) if zeros and rng.random() < 0.3 else None
    return GradedCommAlgebra(basis, table, unit)


def test_tensor_side_matches_the_block_composition_oracle():
    """The tensor side of gbv_to_abelian, the associator on the words of
    length 3 (sign ledger C4), reports what summing the consecutive-block
    compositions of every word of length <= 3 reports."""
    rng = random.Random(4)
    failing = 0
    for _ in range(200):
        S = GBVStructure(_random_comm_algebra(rng), {})
        _, _, rep = gbv_to_abelian(S, 3)
        got = [
            (v.location, v.residual, v.message)
            for v in rep.violations
            if v.location.startswith("tensor side")
        ]
        want = [
            ("tensor side: " + v.location, v.residual, v.message)
            for v in oracle_tensor_inverse_check(S).violations
        ]
        assert got == want
        failing += bool(got)
    assert failing > 0


def oracle_expansion_violations(S):
    """The coproduct-expansion loop of gbv_to_abelian before split plans:
    every unshuffle through the validating koszul_sign, on the words within
    a truncated model's cap."""
    basis = S.algebra.basis
    out = []
    for m in (2, 3):
        for word in all_words(basis, m, min_len=m):
            if not _within_cap(S, word):
                continue
            degrees = [basis.degree(i) for i in word]
            prod = Element.basis_vector(word[0])
            for idx in word[1:]:
                prod = S.algebra.product(prod, Element.basis_vector(idx))
            rhs = Element()
            for sigma in unshuffles(1, m - 1):
                acc = S.delta(Element.basis_vector(word[sigma[0]]))
                for t in sigma[1:]:
                    acc = S.algebra.product(acc, Element.basis_vector(word[t]))
                rhs = rhs + acc.scale(koszul_sign(degrees, sigma))
            for sigma in unshuffles(2, m - 2):
                acc = S.derived_q(
                    Element.basis_vector(word[sigma[0]]),
                    Element.basis_vector(word[sigma[1]]),
                )
                for t in sigma[2:]:
                    acc = S.algebra.product(acc, Element.basis_vector(word[t]))
                rhs = rhs + acc.scale(koszul_sign(degrees, sigma))
            diff = S.delta(prod) - rhs
            if not diff.is_zero():
                out.append(
                    (
                        f"expansion m={m} on {word}",
                        show(S.algebra, diff),
                        "coproduct expansion of delta fails",
                    )
                )
    return out


def test_coproduct_expansion_matches_oracle():
    # the perturbed-delta twins leave expansion residuals at words within
    # the cap; they exercise the odd-letter signs of the sum
    seen = 0
    models = (exterior_gbv(), polyvector_gbv(1, 1), polyvector_gbv(1, 2))
    twins = (
        _delta_twin(polyvector_gbv(1, 2), "m1f1", "m1f"),
        _delta_twin(polyvector_gbv(2, 1), "m00f12", "m00f1"),
    )
    for S in models + twins:
        _, _, rep = gbv_to_abelian(S, m_max=3)
        got = [
            (v.location, v.residual, v.message)
            for v in rep.violations
            if v.location.startswith("expansion")
        ]
        assert got == oracle_expansion_violations(S)
        seen += len(got)
    assert seen >= 6


# -- polyvector and form operations against the "add, or pop on zero" loops -----
# they had (the sign helpers are shared; the accumulation is not)


def oracle_add(terms, key, c, cancelled):
    val = terms.get(key, 0) + c
    if val:
        terms[key] = val
    else:
        cancelled[0] += key in terms
        terms.pop(key, None)


def oracle_wedge(x, y, cancelled):
    out = {}
    for (m1, f1), c1 in x.terms.items():
        for (m2, f2), c2 in y.terms.items():
            if set(f1) & set(f2):
                continue
            merged, sign = _merge_frames(f1, f2)
            mono = tuple(a + b for a, b in zip(m1, m2))
            oracle_add(out, (mono, merged), c1 * c2 * sign, cancelled)
    return out


def oracle_schouten(a, b, cancelled):
    out = {}
    for (m1, f1), c1 in a.terms.items():
        for (m2, f2), c2 in b.terms.items():
            lead_sign = (-1) ** ((len(f1) - 1) % 2)
            for j in range(a.nvars):
                dg, hit = _partial(m2, j), one_form_contract(j, f1)
                if dg is None or hit is None or set(hit[1]) & set(f2):
                    continue
                merged, msign = _merge_frames(hit[1], f2)
                mono = tuple(x + y for x, y in zip(m1, dg[1]))
                coeff = c1 * c2 * dg[0] * hit[0] * msign * lead_sign
                if coeff:
                    oracle_add(out, (mono, merged), coeff, cancelled)
            for j in range(a.nvars):
                df, hit = _partial(m1, j), one_form_contract(j, f2)
                if df is None or hit is None or set(f1) & set(hit[1]):
                    continue
                merged, msign = _merge_frames(f1, hit[1])
                mono = tuple(x + y for x, y in zip(df[1], m2))
                coeff = -c1 * c2 * df[0] * hit[0] * msign
                if coeff:
                    oracle_add(out, (mono, merged), coeff, cancelled)
    return out


def oracle_vector_contract_form(j, form, cancelled):
    out = {}
    for (mono, K), c in form.terms.items():
        hit = one_form_contract(j, K)
        if hit is not None:
            oracle_add(out, (mono, hit[1]), c * hit[0], cancelled)
    return out


def oracle_contract(v, w, cancelled):
    out = {}
    for (mono_v, frame), cv in v.terms.items():
        for (mono_w, K), cw in w.terms.items():
            if len(frame) > len(K):
                continue
            acc = {K: F(1)}
            for j in reversed(frame):
                nxt = {}
                for kk, s in acc.items():
                    hit = one_form_contract(j, kk)
                    if hit is None:
                        continue
                    val = nxt.get(hit[1], 0) + s * hit[0]
                    if val:
                        nxt[hit[1]] = val
                acc = nxt
                if not acc:
                    break
            mono = tuple(a + b for a, b in zip(mono_v, mono_w))
            for kk, s in acc.items():
                oracle_add(out, (mono, kk), cv * cw * s, cancelled)
    return out


def oracle_form_del(form, cancelled):
    out = {}
    for (mono, K), c in form.terms.items():
        for j in range(form.nvars):
            d = _partial(mono, j)
            if d is None or j in K:
                continue
            sign = (-1) ** (sum(1 for k in K if k < j) % 2)
            merged = tuple(sorted(K + (j,)))
            oracle_add(out, (d[1], merged), c * d[0] * sign, cancelled)
    return out


def _random_terms(rng, nvars, size):
    monos = [m for m in itertools.product(range(3), repeat=nvars) if sum(m) <= 2]
    frames = [
        f for r in range(nvars + 1) for f in itertools.combinations(range(nvars), r)
    ]
    coeff = lambda: F(rng.choice((-2, -1, 1, 2)), rng.choice((1, 2)))
    return {(rng.choice(monos), rng.choice(frames)): coeff() for _ in range(size)}


def test_polyvector_operations_match_add_or_pop_oracle():
    rng = random.Random(31)
    cancelled = [0]
    for _ in range(120):
        nvars = rng.choice((2, 3))
        a = Polyvector(nvars, None, _random_terms(rng, nvars, rng.randint(1, 5)))
        b = Polyvector(nvars, None, _random_terms(rng, nvars, rng.randint(1, 5)))
        w = PolyForm(nvars, _random_terms(rng, nvars, rng.randint(1, 5)))
        u = PolyForm(nvars, _random_terms(rng, nvars, rng.randint(1, 3)))
        j = rng.randrange(nvars)
        v = pv(nvars, (0,) * nvars, (j,))
        # integral coefficients are stored as ints and stay ints: the
        # inputs' numerators, given as Fractions
        ia, ib = (
            Polyvector(nvars, None, {k: F(c.numerator) for k, c in x.terms.items()})
            for x in (a, b)
        )
        for x in (ia, ib, ia.wedge(ib), schouten(ia, ib), delta_volume(ia)):
            assert all(type(c) is int for c in x.terms.values())
        # a wedge is built in place, with the summed cap
        wedge = a.wedge(b)
        assert wedge.cap == a.cap + b.cap
        assert wedge == Polyvector(nvars, wedge.cap, wedge.terms)
        for got, want in (
            (a.wedge(b), oracle_wedge(a, b, cancelled)),
            (w.wedge(u), oracle_wedge(w, u, cancelled)),
            (schouten(a, b), oracle_schouten(a, b, cancelled)),
            (contract(a, w), oracle_contract(a, w, cancelled)),
            (form_del(w), oracle_form_del(w, cancelled)),
            (contract(v, w), oracle_vector_contract_form(j, w, cancelled)),
        ):
            assert list(got.terms.items()) == list(want.items())
    assert cancelled[0] >= 20
    # operands on different variable counts are refused, not zipped short
    with pytest.raises(InputError, match="differ in nvars"):
        pv(2, (1, 0), (0,)).wedge(pv(3, (0, 0, 1), (1,)))
