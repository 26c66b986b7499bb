"""Hermitian exterior algebra: operator tables, commutation identities,
the wedge characterization of *, primitivity and the Lefschetz decomposition."""

import random
from fractions import Fraction
from math import comb, factorial

import pytest
import sign_oracles
from sign_oracles import (
    Gaussian,
    as_parts,
    gaussian_terms,
    i_power,
    primitive_coefficient_report,
    solve,
)

from defalg import lefschetz
from defalg.errors import DomainError, InputError
from defalg.lefschetz import (
    CovectorElement,
    _power_row,
    all_keys,
    bidegree,
    identities_report,
    is_primitive,
    lefschetz_decompose,
    make_key,
    op_C,
    op_c_inv_star,
    op_L,
    op_Lambda,
    op_power,
    op_star,
    orbit_keys,
    primitive_star_report,
    raw_expand,
    raw_volume,
    raw_wedge,
    reconstruct,
    total_degree,
    weight,
    wedge_identity_report,
)
from defalg.scalars import GaussianScalar

F = Fraction


def scalar(n):
    return CovectorElement.basis(n, make_key(n, (), (), (), range(1, n + 1)))


def u_element(n, M):
    M = tuple(sorted(M))
    N = tuple(x for x in range(1, n + 1) if x not in M)
    return CovectorElement.basis(n, make_key(n, (), (), M, N))


def test_L_on_scalar_and_Lambda_on_u1():
    n = 2
    out = op_L(scalar(n))
    assert out == u_element(n, (1,)) + u_element(n, (2,))
    assert op_Lambda(u_element(n, (1,))) == scalar(n)


def test_C_is_identity_on_1_1():
    n = 2
    v = u_element(n, (1,))  # bidegree (1,1)
    assert op_C(v) == v


def test_c_inv_star_swaps_u1_to_u2():
    n = 2
    assert op_c_inv_star(u_element(n, (1,))) == u_element(n, (2,))


def test_weight_operator_n1():
    """[Lambda, L] is the weight n - p on p-covectors (sign ledger X2)."""
    n = 1
    lam_l = lambda v: op_Lambda(op_L(v)) - op_L(op_Lambda(v))
    assert lam_l(scalar(n)) == scalar(n)  # weight +1 on scalars
    assert lam_l(u_element(n, (1,))) == u_element(n, (1,)).scale(F(-1))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_identities_sweep(n):
    """Every commutation relation, [Lambda, L^r] among them (sign ledger
    X2), on the orbit keys (X3), and the wedge identity of * (X1)."""
    rep = identities_report(n)
    assert rep.ok(), rep.text()


def corrupt_star(v):
    out = op_star(v)
    flipped = CovectorElement(v.n)
    for (key, part), c in out.terms.items():
        if key[2]:  # flip the sign whenever M is nonempty
            flipped.terms[key, part] = -c
        else:
            flipped.terms[key, part] = c
    return flipped


def test_corrupted_star_caught_by_wedge_identity(monkeypatch):
    monkeypatch.setattr(lefschetz, "op_star", corrupt_star)
    rep = wedge_identity_report(2)
    assert not rep.ok()


def test_star_bidegree_mapping():
    n = 3
    for key in all_keys(n):
        a, b = (len(key[0]) + len(key[2]), len(key[1]) + len(key[2]))
        img = op_star(CovectorElement.basis(n, key))
        [((k2, _), _)] = img.terms.items()
        a2, b2 = (len(k2[0]) + len(k2[2]), len(k2[1]) + len(k2[2]))
        assert (a2, b2) == (n - b, n - a)


def test_primitive_decomposes_as_itself():
    n = 2
    v = u_element(n, (1,)) - u_element(n, (2,))
    assert is_primitive(v)
    parts = lefschetz_decompose(v)
    assert parts == [(0, v)]


def test_decompose_u1_worked_example():
    n = 2
    parts = lefschetz_decompose(u_element(n, (1,)))
    assert len(parts) == 2
    d = dict(parts)
    assert d[0] == (u_element(n, (1,)) - u_element(n, (2,))).scale(F(1, 2))
    assert d[1] == scalar(n).scale(F(1, 2))
    assert op_Lambda(d[0]).is_zero()


def brute_force_decompose(v):
    """Independent oracle: solve v = sum_r L^r w_r subject to the
    primitivity constraints Lambda w_r = 0, as one exact linear system."""
    n = v.n
    p = v.homogeneous_degree()
    alpha = n - p
    columns = []
    lambda_images = []
    col_meta = []
    for r in range(max(-alpha, 0), max(p // 2, 0) + 1):
        pr = p - 2 * r
        if pr < 0:
            continue
        for key in all_keys(n):
            if total_degree(key) != pr:
                continue
            base = CovectorElement.basis(n, key)
            col_meta.append((r, key))
            columns.append(op_power(op_L, r, base))
            lambda_images.append((r, op_Lambda(base)))
    match_keys = sorted({k for col in columns for k in col.terms} | set(v.terms))
    r_values = sorted({r for r, _ in col_meta})
    constraint_rows = []
    for r in r_values:
        keys_r = sorted(
            {k for rr, img in lambda_images if rr == r for k in img.terms}
        )
        for k in keys_r:
            constraint_rows.append((r, k))
    matrix = []
    rhs = []
    for k in match_keys:
        matrix.append([col.terms.get(k, 0) for col in columns])
        rhs.append(v.terms.get(k, 0))
    for r, k in constraint_rows:
        row = []
        for (rr, _), img in zip(col_meta, lambda_images):
            row.append(img[1].terms.get(k, 0) if img[0] == r else F(0))
        matrix.append(row)
        rhs.append(F(0))
    sol = solve(matrix, rhs)
    assert sol is not None
    parts = {}
    for c, (r, key) in zip(sol, col_meta):
        if c:
            parts.setdefault(r, CovectorElement(n)).add_term(key, c)
    return sorted(parts.items())


def test_decompose_roundtrip_random():
    rng = random.Random(41)
    for n in (1, 2, 3):
        keys = all_keys(n)
        for _ in range(40):
            p = rng.randint(0, 2 * n)
            pool = [k for k in keys if total_degree(k) == p]
            v = CovectorElement(n)
            for k in rng.sample(pool, min(len(pool), rng.randint(1, 4))):
                v.add_term(k, GaussianScalar.of(rng.randint(-3, 3), rng.randint(-1, 1)))
            if v.is_zero():
                continue
            parts = lefschetz_decompose(v)
            assert reconstruct(n, parts) == v
            for r, vr in parts:
                assert is_primitive(vr)
                assert weight(next(iter(vr.terms))[0]) == (n - p) + 2 * r


def test_decompose_matches_brute_force_solver():
    rng = random.Random(43)
    n = 2
    keys = [k for k in all_keys(n) if total_degree(k) == 2]
    for _ in range(10):
        v = CovectorElement(n)
        for k in keys:
            c = rng.randint(-2, 2)
            if c:
                v.add_term(k, GaussianScalar.of(c))
        if v.is_zero():
            continue
        parts = lefschetz_decompose(v)
        brute = brute_force_decompose(v)
        assert reconstruct(n, brute) == v
        # uniqueness: the two decompositions agree componentwise
        assert dict(parts).keys() == dict(brute).keys()
        for r, vr in parts:
            assert vr == dict(brute)[r]


def test_decomposition_unique_under_perturbation():
    # re-decomposing a reconstruction reproduces the same components
    n = 3
    rng = random.Random(47)
    keys = [k for k in all_keys(n) if total_degree(k) == 3]
    v = CovectorElement(n)
    for k in rng.sample(keys, 5):
        v.add_term(k, GaussianScalar.of(rng.randint(1, 3)))
    parts = lefschetz_decompose(v)
    again = lefschetz_decompose(reconstruct(n, parts))
    assert parts == again


def test_power_row_matches_the_step_powers():
    """`_power_row(M, N, a, b)` is Lambda^a L^b / (a! b!) on every key for
    n <= 5 and all a, b <= n, computed by a + b steps of the operators, A
    and B passing through (sign ledger X4)."""
    for n in range(6):
        for key in all_keys(n):
            A, B, M, N = key
            lifted = CovectorElement.basis(n, key)
            for b in range(n + 1):
                step = lifted
                for a in range(n + 1):
                    row = {((A, B, M2, N2), 0): c for M2, N2, c in _power_row(M, N, a, b)}
                    assert len(row) == len(_power_row(M, N, a, b))  # one entry per image
                    want = step.scale(F(1, factorial(a) * factorial(b)))
                    assert CovectorElement(n, row) == want, (key, a, b)
                    step = op_Lambda(step)
                lifted = op_L(lifted)


def test_decompose_matches_the_step_oracle():
    """The closed-form decomposition equals the step-power one of
    `tests/sign_oracles.py` term for term, and so does the reconstruction,
    on seeded covectors with Fraction and imaginary parts, n <= 5 (sign
    ledger X4)."""
    rng = random.Random(37)
    components = 0
    for n in range(6):
        keys = all_keys(n)
        for _ in range(40):
            p = rng.randint(0, 2 * n)
            pool = [k for k in keys if total_degree(k) == p]
            v = random_covector(rng, n, pool, rng.randint(1, 6))
            parts = lefschetz_decompose(v)
            want = sign_oracles.lefschetz_decompose(v)
            terms = lambda ps: [(r, sorted(vr.terms.items())) for r, vr in ps]
            assert terms(parts) == terms(want), v
            assert reconstruct(n, parts) == sign_oracles.reconstruct(n, want) == v
            components += sum(r > 0 for r, _ in parts)
    assert components >= 50


def test_reconstruct_refuses_a_part_of_another_dimension():
    part = scalar(2)
    with pytest.raises(InputError, match="differ in n"):
        reconstruct(3, [(0, part)])
    with pytest.raises(InputError, match="differ in n"):
        reconstruct(2, [(1, part), (0, scalar(3))])


def test_decompose_refuses_an_inhomogeneous_covector():
    with pytest.raises(DomainError, match="inhomogeneous"):
        lefschetz_decompose(scalar(2) + u_element(2, (1,)))


def test_empty_covector_decomposes_to_nothing():
    assert lefschetz_decompose(CovectorElement(3)) == []
    assert reconstruct(3, []) == CovectorElement(3)


def test_power_row_cache_stays_within_its_maxsize():
    maxsize = _power_row.cache_info().maxsize
    assert maxsize == 4096
    _power_row.cache_clear()
    try:
        for a in range(maxsize + 100):
            assert _power_row((), (1,), a + 1, 0) == ()  # Lambda kills M = ()
        assert _power_row.cache_info().currsize == maxsize
    finally:
        _power_row.cache_clear()


def test_primitivity_iff_L_power_kills():
    # weight alpha >= 0: Lambda v = 0 iff L^{alpha+1} v = 0
    rng = random.Random(53)
    for n in (1, 2, 3):
        for p in range(0, n + 1):  # alpha = n - p >= 0
            alpha = n - p
            pool = [k for k in all_keys(n) if total_degree(k) == p]
            for _ in range(20):
                v = CovectorElement(n)
                for k in rng.sample(pool, min(len(pool), 3)):
                    c = rng.randint(-2, 2)
                    if c:
                        v.add_term(k, GaussianScalar.of(c))
                lhs = op_Lambda(v).is_zero()
                rhs = op_power(op_L, alpha + 1, v).is_zero()
                assert lhs == rhs


def test_primitive_star_scalar_example():
    n = 2
    v = scalar(n)  # primitive, p = 0
    rep = primitive_star_report(v)
    assert rep.ok(), rep.text()
    # r = 1 instance: C^{-1} * L v = L v
    lv = op_L(v)
    assert op_c_inv_star(lv) == lv


def test_lambda_l_squared_on_scalar():
    n = 2
    v = scalar(n)
    out = op_power(op_Lambda, 2, op_power(op_L, 2, v))
    assert out == v.scale(F(4))


def test_primitive_star_random_primitives():
    rng = random.Random(59)
    n = 3
    for p in range(0, n + 1):
        pool = [k for k in all_keys(n) if total_degree(k) == p]
        for _ in range(10):
            v = CovectorElement(n)
            for k in rng.sample(pool, min(len(pool), 4)):
                v.add_term(k, GaussianScalar.of(rng.randint(-2, 2)))
            if v.is_zero():
                continue
            parts = lefschetz_decompose(v)
            for r, vr in parts:
                pv = v.n - weight(next(iter(vr.terms))[0])
                rep = primitive_star_report(vr)
                assert rep.ok(), rep.text()
                crep = primitive_coefficient_report(vr)
                assert crep.ok(), crep.text()


def test_primitive_star_failing_report_in_order(monkeypatch):
    """With Lambda broken to zero every covector passes as primitive.  On
    u_1 (n = 2, p = 2) the star identity fails at r = 0 and r = 1, and
    L v != 0 past n - p, reported r by r; on the scalar Lambda^2 L^2 is
    zero, not 2!^2 times it."""
    monkeypatch.setattr(lefschetz, "_row_Lambda", lambda key: [])
    star = "primitive star identity fails"
    rep = primitive_star_report(u_element(2, (1,)))
    assert [(v.location, v.message, v.residual) for v in rep.violations] == [
        ("r=0", star, "(1)*z[A=(),B=(),M=(1,),N=(2,)] + (1)*z[A=(),B=(),M=(2,),N=(1,)]"),
        ("L^1", "L^r v != 0 beyond n-p on a primitive", ""),
        ("r=1", star, "(1)*z[A=(),B=(),M=(),N=(1, 2)]"),
    ]
    rep = primitive_star_report(scalar(2))
    assert [(v.location, v.message, v.residual) for v in rep.violations] == [
        (
            "Lambda^a L^a",
            "Lambda^alpha L^alpha != alpha!^2 on a primitive",
            "(-4)*z[A=(),B=(),M=(),N=(1, 2)]",
        ),
    ]


def test_raw_volume_and_expand_consistency():
    # the scalar symbol times the top u-block reproduces the volume
    n = 2
    key_top = make_key(n, (), (), (1, 2), ())
    top = raw_expand(n, key_top)
    assert raw_wedge(raw_expand(n, make_key(n, (), (), (), (1, 2))), top) == raw_volume(n)


def test_raw_coefficients_are_gaussian_integers():
    """i per u_j: each raw expansion is the normalized one times 2^|M|, the
    raw volume is u_1 ^ ... ^ u_n times 2^n, and no part is a Fraction
    (sign ledger X1)."""
    for n in range(4):
        vol = raw_volume(n)
        old = as_parts(sign_oracles.raw_volume(n))
        assert vol == {w: c * 2**n for w, c in old.items()}
        coeffs = list(vol.values())
        for key in all_keys(n):
            raw = raw_expand(n, key)
            old = as_parts(sign_oracles.raw_expand(n, key))
            assert raw == {w: c * 2 ** len(key[2]) for w, c in old.items()}
            coeffs += raw.values()
        assert all(type(c) is int for c in coeffs), n


def scaled_star(c):
    return lambda v: op_star(v).scale(c)


def i_star(v):
    """i times *: one quarter turn of every term of the image."""
    return lefschetz._apply(lambda key: ((key, 1),), op_star(v))


# stars whose images keep the key of *, or change its M (L, Lambda, the
# identity), or carry a coefficient that is not a unit
WEDGE_STARS = {
    "star": None,
    "corrupt": corrupt_star,
    "identity": lambda v: v,
    "C": op_C,
    "L": op_L,
    "Lambda": op_Lambda,
    "2 star": scaled_star(2),
    "star/2": scaled_star(F(1, 2)),
    "i star": i_star,
}


@pytest.mark.parametrize("name", list(WEDGE_STARS))
def test_wedge_oracle_matches_the_normalized_oracle(name, monkeypatch):
    """Compared in Z[i] times 2^n, the wedge identity gives the verdict and
    the report bytes of the Q(i) oracle with its 2^-s per symbol (sign
    ledger X1)."""
    star_fn = WEDGE_STARS[name]
    if star_fn is not None:
        monkeypatch.setattr(lefschetz, "op_star", star_fn)
    for n in range(4):
        rep = wedge_identity_report(n)
        old = sign_oracles.wedge_identity_report(n, star_fn=star_fn)
        assert rep.text() == old.text(), (name, n)
    # only * passes, and each other star fails on some symbol at n = 3
    assert rep.ok() is (name == "star")


def test_star_normalization_sign_closed_form():
    """The explicit * against its implicit normalization (sign ledger X1)."""
    # the implicit sign in * z = sgn(A,B) i^{|A|+|B|} z_{A,B,N,M} has the
    # closed form (-1)^{s(s+1)/2 + |B|} for s = |A| + |B|
    for n in (1, 2, 3):
        for key in all_keys(n):
            A, B, M, N = key
            s = len(A) + len(B)
            img = op_star(CovectorElement.basis(n, key))
            [(k2, c)] = gaussian_terms(img).items()
            assert k2 == (A, B, N, M)
            sgn = (-1) ** (((s * (s + 1)) // 2 + len(B)) % 2)
            expect = i_power(s) * sgn
            assert c == expect


# ---------------------------------------------------------------------------
# Oracles: the per-operator loops that the row engine replaced, on plain
# dicts from a key to a `sign_oracles.Gaussian` with their own "add, or pop
# on zero" step, so that they share no arithmetic or representation with
# CovectorElement or the rows.
# ---------------------------------------------------------------------------


def oracle_add(terms, key, coeff):
    val = terms.get(key, Gaussian(0, 0)) + coeff
    if val:
        terms[key] = val
    else:
        terms.pop(key, None)


def oracle_plus(x, y):
    terms = dict(x)
    for k, c in y.items():
        oracle_add(terms, k, c)
    return terms


def oracle_L_i(i, v):
    out = {}
    for (A, B, M, N), c in v.items():
        if i in N:
            oracle_add(
                out, (A, B, tuple(sorted(M + (i,))), tuple(x for x in N if x != i)), c
            )
    return out


def oracle_Lambda_i(i, v):
    out = {}
    for (A, B, M, N), c in v.items():
        if i in M:
            oracle_add(
                out, (A, B, tuple(x for x in M if x != i), tuple(sorted(N + (i,)))), c
            )
    return out


def oracle_L(n, v):
    out = {}
    for i in range(1, n + 1):
        out = oracle_plus(out, oracle_L_i(i, v))
    return out


def oracle_Lambda(n, v):
    out = {}
    for i in range(1, n + 1):
        out = oracle_plus(out, oracle_Lambda_i(i, v))
    return out


def oracle_C(n, v):
    out = {}
    for key, c in v.items():
        a, b = bidegree(key)
        oracle_add(out, key, c * i_power(a - b))
    return out


def oracle_c_inv_star(n, v):
    out = {}
    for (A, B, M, N), c in v.items():
        pq = total_degree((A, B, M, N))
        exp = (pq * (pq + 1)) // 2 + len(M)
        sign = (-1) ** (exp % 2)
        oracle_add(out, (A, B, N, M), c * sign)
    return out


def oracle_star(n, v):
    return oracle_C(n, oracle_c_inv_star(n, v))


OPERATOR_PAIRS = (
    ("L", op_L, oracle_L),
    ("Lambda", op_Lambda, oracle_Lambda),
    ("C", op_C, oracle_C),
    ("c_inv_star", op_c_inv_star, oracle_c_inv_star),
    ("star", op_star, oracle_star),
)


def assert_no_zero_terms(v):
    assert all(c for c in v.terms.values()), v.terms


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_operators_match_oracles_on_every_basis_key(n):
    """Each row, turned part by part by the turn table, against its loop
    over Q(i) on every basis key (sign ledger X1)."""
    # a coefficient with unequal nonzero parts shows every quarter turn
    coeff = GaussianScalar.of(F(2, 3), -5)
    for key in all_keys(n):
        v = CovectorElement(n)
        v.add_term(key, coeff)
        for name, op, oracle in OPERATOR_PAIRS:
            got = op(v)
            assert gaussian_terms(got) == oracle(n, gaussian_terms(v)), (name, key)
            assert_no_zero_terms(got)


def random_covector(rng, n, keys, size):
    coeffs = (
        GaussianScalar.of(1),
        GaussianScalar.of(-1),
        GaussianScalar.of(0, 1),
        GaussianScalar.of(0, -1),
        GaussianScalar.of(F(1, 2), F(-3, 4)),
        GaussianScalar.of(F(-5, 7), 2),
    )
    v = CovectorElement(n)
    for k in rng.sample(keys, min(len(keys), size)):
        v.add_term(k, rng.choice(coeffs))
    return v


def test_operators_match_oracles_on_sparse_covectors():
    """Each operator against its loop over Q(i) on seeded sums, with
    cancellations (sign ledger X1)."""
    rng = random.Random(8)
    cancelled = 0
    for n in (1, 2, 3, 4):
        keys = all_keys(n)
        for _ in range(60):
            p = rng.randint(0, 2 * n)
            pool = [k for k in keys if total_degree(k) == p]
            v = random_covector(rng, n, pool, rng.randint(1, 6))
            gv = gaussian_terms(v)
            for name, op, oracle in OPERATOR_PAIRS:
                want = oracle(n, gv)
                got = op(v)
                assert gaussian_terms(got) == want, (name, v)
                assert_no_zero_terms(got)
                rows = sum(len(oracle(n, {k: Gaussian(1, 0)})) for k in gv)
                cancelled += len(want) < rows
    # worked cancellations: Lambda kills the primitive u_1 - u_2, and L maps
    # z[M=(1,),N=(2,)] and z[M=(2,),N=(1,)] to the same u_12
    prim = u_element(2, (1,)) - u_element(2, (2,))
    assert op_Lambda(prim).is_zero() and not oracle_Lambda(2, gaussian_terms(prim))
    assert op_L(prim).is_zero() and not oracle_L(2, gaussian_terms(prim))
    assert cancelled >= 20


def test_covector_arithmetic_matches_oracle_add():
    """Sums of covectors kept as (key, part) terms against sums over Q(i)
    (sign ledger X1)."""
    rng = random.Random(9)
    for n in (2, 3):
        keys = all_keys(n)
        for _ in range(50):
            x = random_covector(rng, n, keys, rng.randint(0, 8))
            y = random_covector(rng, n, keys, rng.randint(0, 8))
            gx, gy = gaussian_terms(x), gaussian_terms(y)
            neg_y = CovectorElement(n, {k: -c for k, c in y.terms.items()})
            assert gaussian_terms(x + y) == oracle_plus(gx, gy)
            assert gaussian_terms(x - y) == oracle_plus(gx, gaussian_terms(neg_y))
            for got in (x + y, x - y):
                assert_no_zero_terms(got)
            assert (x - x).is_zero() and (x + neg_y + y) == x
            z = CovectorElement(n, dict(x.terms))
            terms = dict(gx)
            for k, c in gy.items():
                z.add_term(k, GaussianScalar(c.re, c.im))
                oracle_add(terms, k, c)
            assert gaussian_terms(z) == terms
    # add_term takes plain rationals as well and never stores a zero
    v = CovectorElement(1)
    key = ((), (), (), (1,))
    v.add_term(key, 0)
    assert v.is_zero()
    v.add_term(key, F(1, 2))
    v.add_term(key, GaussianScalar.of(F(-1, 2)))
    assert v.is_zero()


# Outputs pinned byte for byte from the per-operator loops.
IDENTITIES_JSON = """{
  "command": "lefschetz-identities",
  "info": {
    "basis_size": %d,
    "dimension": %d
  },
  "status": "pass",
  "violations": []
}"""
IDENTITIES_TEXT = "[PASS] lefschetz-identities\n  basis_size: %d\n  dimension: %d"
CORRUPT_STAR_KEYS = (
    ((1,), (), (), (2,)),
    ((), (1,), (), (2,)),
    ((), (), (1,), (2,)),
    ((2,), (), (), (1,)),
    ((), (2,), (), (1,)),
    ((), (), (2,), (1,)),
    ((), (), (), (1, 2)),
)
CORRUPT_STAR_RESIDUAL = "{(0, 1, 2, 3): -1/4}"


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_identities_report_bytes_pinned(n):
    rep = identities_report(n)
    assert rep.to_json() == IDENTITIES_JSON % (4**n, n)
    assert rep.text() == IDENTITIES_TEXT % (4**n, n)


def test_corrupted_star_report_bytes_pinned(monkeypatch):
    lines = ["[FAIL] wedge-oracle"]
    for key in CORRUPT_STAR_KEYS:
        for tag in ("z ^ *(conj z)", "z ^ conj(*z)"):
            lines.append(f"  at {tag} at {key}: wedge identity fails")
            lines.append(f"    residual: {CORRUPT_STAR_RESIDUAL}")
    monkeypatch.setattr(lefschetz, "op_star", corrupt_star)
    rep = wedge_identity_report(2)
    assert rep.text() == "\n".join(lines)


CORRUPT_L_JSON = """{
  "command": "lefschetz-identities",
  "info": {
    "basis_size": 64,
    "dimension": 3
  },
  "status": "fail",
  "violations": [
    {
      "location": "[Lambda,L^1] at ((1,), (), (2,), (3,))",
      "message": "[Lambda,L^1] fails",
      "residual": "(2)*z[A=(1,),B=(),M=(3,),N=(2,)]"
    },
    {
      "location": "[Lambda,L^2] at ((1,), (), (2,), (3,))",
      "message": "[Lambda,L^2] fails",
      "residual": "(2)*z[A=(1,),B=(),M=(2, 3),N=()]"
    },
    {
      "location": "[Lambda,L^1] at ((1,), (), (3,), (2,))",
      "message": "[Lambda,L^1] fails",
      "residual": "(2)*z[A=(1,),B=(),M=(3,),N=(2,)]"
    },
    {
      "location": "[Lambda,L^2] at ((1,), (), (3,), (2,))",
      "message": "[Lambda,L^2] fails",
      "residual": "(2)*z[A=(1,),B=(),M=(2, 3),N=()]"
    },
    {
      "location": "[Lambda,L^1] at ((1,), (), (), (2, 3))",
      "message": "[Lambda,L^1] fails",
      "residual": "(-2)*z[A=(1,),B=(),M=(),N=(2, 3)]"
    },
    {
      "location": "[Lambda,L^2] at ((1,), (), (), (2, 3))",
      "message": "[Lambda,L^2] fails",
      "residual": "(-2)*z[A=(1,),B=(),M=(2,),N=(3,)] + (2)*z[A=(1,),B=(),M=(3,),N=(2,)]"
    },
    {
      "location": "[Lambda,L^1] at ((), (1,), (2,), (3,))",
      "message": "[Lambda,L^1] fails",
      "residual": "(2)*z[A=(),B=(1,),M=(3,),N=(2,)]"
    },
    {
      "location": "[Lambda,L^2] at ((), (1,), (2,), (3,))",
      "message": "[Lambda,L^2] fails",
      "residual": "(2)*z[A=(),B=(1,),M=(2, 3),N=()]"
    },
    {
      "location": "[Lambda,L^1] at ((), (1,), (3,), (2,))",
      "message": "[Lambda,L^1] fails",
      "residual": "(2)*z[A=(),B=(1,),M=(3,),N=(2,)]"
    },
    {
      "location": "[Lambda,L^2] at ((), (1,), (3,), (2,))",
      "message": "[Lambda,L^2] fails",
      "residual": "(2)*z[A=(),B=(1,),M=(2, 3),N=()]"
    },
    {
      "location": "[Lambda,L^1] at ((), (1,), (), (2, 3))",
      "message": "[Lambda,L^1] fails",
      "residual": "(-2)*z[A=(),B=(1,),M=(),N=(2, 3)]"
    },
    {
      "location": "[Lambda,L^2] at ((), (1,), (), (2, 3))",
      "message": "[Lambda,L^2] fails",
      "residual": "(-2)*z[A=(),B=(1,),M=(2,),N=(3,)] + (2)*z[A=(),B=(1,),M=(3,),N=(2,)]"
    },
    {
      "location": "[Lambda,L^1] at ((2,), (), (1,), (3,))",
      "message": "[Lambda,L^1] fails",
      "residual": "(2)*z[A=(2,),B=(),M=(3,),N=(1,)]"
    },
    {
      "location": "[Lambda,L^2] at ((2,), (), (1,), (3,))",
      "message": "[Lambda,L^2] fails",
      "residual": "(2)*z[A=(2,),B=(),M=(1, 3),N=()]"
    },
    {
      "location": "[Lambda,L^1] at ((), (2,), (1,), (3,))",
      "message": "[Lambda,L^1] fails",
      "residual": "(2)*z[A=(),B=(2,),M=(3,),N=(1,)]"
    },
    {
      "location": "[Lambda,L^2] at ((), (2,), (1,), (3,))",
      "message": "[Lambda,L^2] fails",
      "residual": "(2)*z[A=(),B=(2,),M=(1, 3),N=()]"
    },
    {
      "location": "[Lambda,L^1] at ((), (), (1, 2), (3,))",
      "message": "[Lambda,L^1] fails",
      "residual": "(2)*z[A=(),B=(),M=(1, 3),N=(2,)] + (2)*z[A=(),B=(),M=(2, 3),N=(1,)]"
    },
    {
      "location": "[Lambda,L^2] at ((), (), (1, 2), (3,))",
      "message": "[Lambda,L^2] fails",
      "residual": "(4)*z[A=(),B=(),M=(1, 2, 3),N=()]"
    },
    {
      "location": "[Lambda,L^1] at ((3,), (), (1,), (2,))",
      "message": "[Lambda,L^1] fails",
      "residual": "(2)*z[A=(3,),B=(),M=(2,),N=(1,)]"
    },
    {
      "location": "[Lambda,L^2] at ((3,), (), (1,), (2,))",
      "message": "[Lambda,L^2] fails",
      "residual": "(2)*z[A=(3,),B=(),M=(1, 2),N=()]"
    },
    {
      "location": "[Lambda,L^1] at ((), (3,), (1,), (2,))",
      "message": "[Lambda,L^1] fails",
      "residual": "(2)*z[A=(),B=(3,),M=(2,),N=(1,)]"
    },
    {
      "location": "[Lambda,L^2] at ((), (3,), (1,), (2,))",
      "message": "[Lambda,L^2] fails",
      "residual": "(2)*z[A=(),B=(3,),M=(1, 2),N=()]"
    },
    {
      "location": "[Lambda,L^1] at ((), (), (1, 3), (2,))",
      "message": "[Lambda,L^1] fails",
      "residual": "(2)*z[A=(),B=(),M=(1, 3),N=(2,)] + (2)*z[A=(),B=(),M=(2, 3),N=(1,)]"
    },
    {
      "location": "[Lambda,L^2] at ((), (), (1, 3), (2,))",
      "message": "[Lambda,L^2] fails",
      "residual": "(4)*z[A=(),B=(),M=(1, 2, 3),N=()]"
    },
    {
      "location": "[Lambda,L^1] at ((), (), (1,), (2, 3))",
      "message": "[Lambda,L^1] fails",
      "residual": "(-2)*z[A=(),B=(),M=(1,),N=(2, 3)]"
    },
    {
      "location": "[Lambda,L^2] at ((), (), (1,), (2, 3))",
      "message": "[Lambda,L^2] fails",
      "residual": "(-2)*z[A=(),B=(),M=(1, 2),N=(3,)] + (2)*z[A=(),B=(),M=(1, 3),N=(2,)]"
    },
    {
      "location": "[Lambda,L^1] at ((2,), (), (3,), (1,))",
      "message": "[Lambda,L^1] fails",
      "residual": "(2)*z[A=(2,),B=(),M=(3,),N=(1,)]"
    },
    {
      "location": "[Lambda,L^2] at ((2,), (), (3,), (1,))",
      "message": "[Lambda,L^2] fails",
      "residual": "(2)*z[A=(2,),B=(),M=(1, 3),N=()]"
    },
    {
      "location": "[Lambda,L^1] at ((2,), (), (), (1, 3))",
      "message": "[Lambda,L^1] fails",
      "residual": "(-2)*z[A=(2,),B=(),M=(),N=(1, 3)]"
    },
    {
      "location": "[Lambda,L^2] at ((2,), (), (), (1, 3))",
      "message": "[Lambda,L^2] fails",
      "residual": "(-2)*z[A=(2,),B=(),M=(1,),N=(3,)] + (2)*z[A=(2,),B=(),M=(3,),N=(1,)]"
    },
    {
      "location": "[Lambda,L^1] at ((), (2,), (3,), (1,))",
      "message": "[Lambda,L^1] fails",
      "residual": "(2)*z[A=(),B=(2,),M=(3,),N=(1,)]"
    },
    {
      "location": "[Lambda,L^2] at ((), (2,), (3,), (1,))",
      "message": "[Lambda,L^2] fails",
      "residual": "(2)*z[A=(),B=(2,),M=(1, 3),N=()]"
    },
    {
      "location": "[Lambda,L^1] at ((), (2,), (), (1, 3))",
      "message": "[Lambda,L^1] fails",
      "residual": "(-2)*z[A=(),B=(2,),M=(),N=(1, 3)]"
    },
    {
      "location": "[Lambda,L^2] at ((), (2,), (), (1, 3))",
      "message": "[Lambda,L^2] fails",
      "residual": "(-2)*z[A=(),B=(2,),M=(1,),N=(3,)] + (2)*z[A=(),B=(2,),M=(3,),N=(1,)]"
    },
    {
      "location": "[Lambda,L^1] at ((3,), (), (2,), (1,))",
      "message": "[Lambda,L^1] fails",
      "residual": "(2)*z[A=(3,),B=(),M=(2,),N=(1,)]"
    },
    {
      "location": "[Lambda,L^2] at ((3,), (), (2,), (1,))",
      "message": "[Lambda,L^2] fails",
      "residual": "(2)*z[A=(3,),B=(),M=(1, 2),N=()]"
    },
    {
      "location": "[Lambda,L^1] at ((), (3,), (2,), (1,))",
      "message": "[Lambda,L^1] fails",
      "residual": "(2)*z[A=(),B=(3,),M=(2,),N=(1,)]"
    },
    {
      "location": "[Lambda,L^2] at ((), (3,), (2,), (1,))",
      "message": "[Lambda,L^2] fails",
      "residual": "(2)*z[A=(),B=(3,),M=(1, 2),N=()]"
    },
    {
      "location": "[Lambda,L^1] at ((), (), (2, 3), (1,))",
      "message": "[Lambda,L^1] fails",
      "residual": "(4)*z[A=(),B=(),M=(2, 3),N=(1,)]"
    },
    {
      "location": "[Lambda,L^2] at ((), (), (2, 3), (1,))",
      "message": "[Lambda,L^2] fails",
      "residual": "(4)*z[A=(),B=(),M=(1, 2, 3),N=()]"
    },
    {
      "location": "[Lambda,L^1] at ((), (), (2,), (1, 3))",
      "message": "[Lambda,L^1] fails",
      "residual": "(-2)*z[A=(),B=(),M=(2,),N=(1, 3)]"
    },
    {
      "location": "[Lambda,L^2] at ((), (), (2,), (1, 3))",
      "message": "[Lambda,L^2] fails",
      "residual": "(-2)*z[A=(),B=(),M=(1, 2),N=(3,)] + (2)*z[A=(),B=(),M=(1, 3),N=(2,)]"
    },
    {
      "location": "[Lambda,L^1] at ((3,), (), (), (1, 2))",
      "message": "[Lambda,L^1] fails",
      "residual": "(-2)*z[A=(3,),B=(),M=(),N=(1, 2)]"
    },
    {
      "location": "[Lambda,L^2] at ((3,), (), (), (1, 2))",
      "message": "[Lambda,L^2] fails",
      "residual": "(-2)*z[A=(3,),B=(),M=(1,),N=(2,)] + (2)*z[A=(3,),B=(),M=(2,),N=(1,)]"
    },
    {
      "location": "[Lambda,L^1] at ((), (3,), (), (1, 2))",
      "message": "[Lambda,L^1] fails",
      "residual": "(-2)*z[A=(),B=(3,),M=(),N=(1, 2)]"
    },
    {
      "location": "[Lambda,L^2] at ((), (3,), (), (1, 2))",
      "message": "[Lambda,L^2] fails",
      "residual": "(-2)*z[A=(),B=(3,),M=(1,),N=(2,)] + (2)*z[A=(),B=(3,),M=(2,),N=(1,)]"
    },
    {
      "location": "[Lambda,L^1] at ((), (), (3,), (1, 2))",
      "message": "[Lambda,L^1] fails",
      "residual": "(-2)*z[A=(),B=(),M=(2,),N=(1, 3)]"
    },
    {
      "location": "[Lambda,L^2] at ((), (), (3,), (1, 2))",
      "message": "[Lambda,L^2] fails",
      "residual": "(-2)*z[A=(),B=(),M=(1, 2),N=(3,)] + (2)*z[A=(),B=(),M=(1, 3),N=(2,)]"
    },
    {
      "location": "[Lambda,L^1] at ((), (), (), (1, 2, 3))",
      "message": "[Lambda,L^1] fails",
      "residual": "(-2)*z[A=(),B=(),M=(),N=(1, 2, 3)]"
    },
    {
      "location": "[Lambda,L^2] at ((), (), (), (1, 2, 3))",
      "message": "[Lambda,L^2] fails",
      "residual": "(-4)*z[A=(),B=(),M=(1,),N=(2, 3)] + (-2)*z[A=(),B=(),M=(2,),N=(1, 3)] + (2)*z[A=(),B=(),M=(3,),N=(1, 2)]"
    },
    {
      "location": "[Lambda,L^3] at ((), (), (), (1, 2, 3))",
      "message": "[Lambda,L^3] fails",
      "residual": "(-6)*z[A=(),B=(),M=(1, 2),N=(3,)] + (6)*z[A=(),B=(),M=(1, 3),N=(2,)]"
    }
  ]
}"""


def first_locations(rep):
    """The location of the first violation of each message, in report order."""
    first = {}
    for v in rep.violations:
        first.setdefault(v.message, v.location)
    return list(first.values())


def test_corrupted_L_report_bytes_pinned(monkeypatch):
    """An L that turns its last N index by a half turn whenever |N| > 1
    breaks every [Lambda,L^r], r = 1 being [Lambda,L]: the report names
    every failing key in `all_keys` order, and the first violation of each
    identity is the one a check stopping at its first failing key names
    (sign ledger X2, X3)."""
    row_L = lefschetz._row_L

    def corrupt_row_L(key):
        rows = row_L(key)
        if len(key[3]) > 1:
            rows[-1] = (rows[-1][0], 2)
        return rows

    monkeypatch.setattr(lefschetz, "_row_L", corrupt_row_L)
    rep = identities_report(3)
    assert rep.to_json() == CORRUPT_L_JSON
    assert len(rep.violations) == 51
    assert first_locations(rep) == [
        "[Lambda,L^1] at ((1,), (), (2,), (3,))",
        "[Lambda,L^2] at ((1,), (), (2,), (3,))",
        "[Lambda,L^3] at ((), (), (), (1, 2, 3))",
    ]


# -- one key per relabeling orbit (sign ledger X3) -----------------------------

ROWS = ("_row_L", "_row_Lambda", "_row_C", "_row_c_inv_star", "_row_star", "_row_parity")


def swap_labels(key, i):
    """The key with the labels i and i + 1 exchanged."""
    swap = {i: i + 1, i + 1: i}
    return tuple(tuple(sorted(swap.get(x, x) for x in s)) for s in key)


def relabeling_mismatches(row, n):
    """The (key, i) at which relabeling by the transposition (i, i + 1) and
    applying the row do not commute: the row's entries at the swapped key
    differ, as a multiset, from its swapped entries at the key."""
    return [
        (key, i)
        for key in all_keys(n)
        for i in range(1, n)
        if sorted(row(swap_labels(key, i)))
        != sorted((swap_labels(k2, i), t) for k2, t in row(key))
    ]


ROW_L, ROW_C = lefschetz._row_L, lefschetz._row_C


def half_turn_last_L(key):
    """The corrupted L of `test_corrupted_L_report_bytes_pinned`."""
    rows = ROW_L(key)
    if len(key[3]) > 1:
        rows[-1] = (rows[-1][0], 2)
    return rows


def quarter_turn_C(key):
    """C with an extra quarter turn when |B| > 1, which commutes with
    relabeling, or when some index of B precedes one of A, which does not."""
    A, B = key[0], key[1]
    ((k2, t),) = ROW_C(key)
    if len(B) > 1 or (A and B and max(A) > min(B)):
        t = (t + 1) % 4
    return ((k2, t),)


def test_rows_commute_with_relabeling():
    """The precondition of the orbit reduction of `identities_report`: every
    operator row commutes with each adjacent transposition of 1..n, which
    generate all relabelings, on every key for n <= 5 (sign ledger X3)."""
    for name in ROWS:
        for n in range(6):
            assert relabeling_mismatches(getattr(lefschetz, name), n) == [], name
    # the check rejects rows that read labels, not only slot sizes
    assert relabeling_mismatches(half_turn_last_L, 3)
    swapped = [((1,), (2,), (), ()), ((2,), (1,), (), ())]
    assert relabeling_mismatches(quarter_turn_C, 2) == [(key, 1) for key in swapped]


@pytest.mark.parametrize("n", range(6))
def test_orbit_keys_are_one_key_per_slot_sizes(n):
    """One representative per (|A|, |B|, |M|, |N|) (sign ledger X3)."""
    reps = orbit_keys(n)
    assert len(reps) == comb(n + 3, 3)
    # consecutive runs from 1, in the order of all_keys
    assert all(sum(key, ()) == tuple(range(1, n + 1)) for key in reps)
    chosen = set(reps)
    assert [key for key in all_keys(n) if key in chosen] == reps
    sizes = {tuple(map(len, key)) for key in reps}
    assert len(sizes) == len(reps)
    assert all(sum(s) == n for s in sizes)


CORRUPT_C_JSON = """{
  "command": "lefschetz-identities",
  "info": {
    "basis_size": 64,
    "dimension": 3
  },
  "status": "fail",
  "violations": [
    {
      "location": "C^2 at ((1, 3), (2,), (), ())",
      "message": "C^2 fails",
      "residual": "(2)*z[A=(1, 3),B=(2,),M=(),N=()]"
    },
    {
      "location": "C^2 at ((1,), (2, 3), (), ())",
      "message": "C^2 fails",
      "residual": "(2)*z[A=(1,),B=(2, 3),M=(),N=()]"
    },
    {
      "location": "C^2 at ((2, 3), (1,), (), ())",
      "message": "C^2 fails",
      "residual": "(2)*z[A=(2, 3),B=(1,),M=(),N=()]"
    },
    {
      "location": "C^2 at ((2,), (1, 3), (), ())",
      "message": "C^2 fails",
      "residual": "(2)*z[A=(2,),B=(1, 3),M=(),N=()]"
    },
    {
      "location": "C^2 at ((2,), (1,), (3,), ())",
      "message": "C^2 fails",
      "residual": "(-2)*z[A=(2,),B=(1,),M=(3,),N=()]"
    },
    {
      "location": "C^2 at ((2,), (1,), (), (3,))",
      "message": "C^2 fails",
      "residual": "(-2)*z[A=(2,),B=(1,),M=(),N=(3,)]"
    },
    {
      "location": "C^2 at ((3,), (1, 2), (), ())",
      "message": "C^2 fails",
      "residual": "(2)*z[A=(3,),B=(1, 2),M=(),N=()]"
    },
    {
      "location": "C^2 at ((), (1, 2, 3), (), ())",
      "message": "C^2 fails",
      "residual": "(2)*z[A=(),B=(1, 2, 3),M=(),N=()]"
    },
    {
      "location": "C^2 at ((), (1, 2), (3,), ())",
      "message": "C^2 fails",
      "residual": "(-2)*z[A=(),B=(1, 2),M=(3,),N=()]"
    },
    {
      "location": "C^2 at ((), (1, 2), (), (3,))",
      "message": "C^2 fails",
      "residual": "(-2)*z[A=(),B=(1, 2),M=(),N=(3,)]"
    },
    {
      "location": "C^2 at ((3,), (1,), (2,), ())",
      "message": "C^2 fails",
      "residual": "(-2)*z[A=(3,),B=(1,),M=(2,),N=()]"
    },
    {
      "location": "C^2 at ((), (1, 3), (2,), ())",
      "message": "C^2 fails",
      "residual": "(-2)*z[A=(),B=(1, 3),M=(2,),N=()]"
    },
    {
      "location": "C^2 at ((3,), (1,), (), (2,))",
      "message": "C^2 fails",
      "residual": "(-2)*z[A=(3,),B=(1,),M=(),N=(2,)]"
    },
    {
      "location": "C^2 at ((), (1, 3), (), (2,))",
      "message": "C^2 fails",
      "residual": "(-2)*z[A=(),B=(1, 3),M=(),N=(2,)]"
    },
    {
      "location": "C^2 at ((3,), (2,), (1,), ())",
      "message": "C^2 fails",
      "residual": "(-2)*z[A=(3,),B=(2,),M=(1,),N=()]"
    },
    {
      "location": "C^2 at ((), (2, 3), (1,), ())",
      "message": "C^2 fails",
      "residual": "(-2)*z[A=(),B=(2, 3),M=(1,),N=()]"
    },
    {
      "location": "C^2 at ((3,), (2,), (), (1,))",
      "message": "C^2 fails",
      "residual": "(-2)*z[A=(3,),B=(2,),M=(),N=(1,)]"
    },
    {
      "location": "C^2 at ((), (2, 3), (), (1,))",
      "message": "C^2 fails",
      "residual": "(-2)*z[A=(),B=(2, 3),M=(),N=(1,)]"
    }
  ]
}"""


def test_corrupted_C_report_names_the_first_failing_key(monkeypatch):
    """A failing representative sends the whole step to all 4^n keys, so
    the report names every failing key in `all_keys` order, the first of
    them off the representatives, as checking every key at once does
    (sign ledger X3)."""
    monkeypatch.setattr(lefschetz, "_row_C", quarter_turn_C)
    first = ((1, 3), (2,), (), ())
    assert first not in orbit_keys(3)
    assert ((), (1, 2), (), (3,)) in orbit_keys(3)  # |B| = 2: C^2 fails here
    rep = identities_report(3)
    assert rep.to_json() == CORRUPT_C_JSON
    assert first_locations(rep) == [f"C^2 at {first}"]
    assert len(rep.violations) == 18
    # without the rerun the report would name a representative
    monkeypatch.setattr(lefschetz, "all_keys", orbit_keys)
    assert str(first) not in identities_report(3).to_json()
