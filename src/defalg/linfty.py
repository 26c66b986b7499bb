"""Homotopy Lie structures on a graded space: the displacing isomorphism
between symmetric and skewsymmetric bracket conventions, generalized Jacobi
verification, the functor from DGLAs, morphism Taylor components and
verification, the homotopy Maurer-Cartan residual, the induced bracket on
cohomology, and finite abstract Hodge models with their transfer morphism.

Internal canonical convention: brackets are the degree +1 corestriction
components q_k on the reduced symmetric coalgebra of the shifted space
(sign ledger D1/S1); the unshifted skew components l_k are an I/O layer.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import groupby, product
from math import factorial
from operator import itemgetter

from .coalg import (
    CoalgMorphism,
    Coderivation,
    ComponentMap,
    all_words,
    canonical_word,
    coder_lift,
)
from .core import (
    Element,
    GradedBasis,
    add_into,
    add_term,
    format_terms,
    lin_into,
    multiset_plan,
    off_degree,
    report_violations,
    signed_permutations,
    square_residual,
    word_runs,
)
from .dgla import DGLA, ArtinDg, check_dgla, cohomology
from .errors import DomainError, InputError
from .report import CheckReport

# ---------------------------------------------------------------------------
# Displacing (decalage)
# ---------------------------------------------------------------------------


def suspend_basis(basis: GradedBasis) -> GradedBasis:
    """V -> V[1]: same names, degrees lowered by one."""
    return GradedBasis(basis.names, tuple(d - 1 for d in basis.degrees))


def _decalage_sign(degrees_v) -> int:
    """(-1)^n (-1)^{sum (n-i) deg v_i} relating q_n on the shifted space to
    l_n on the original one (sign ledger D1)."""
    n = len(degrees_v)
    exp = n + sum((n - i) * degrees_v[i - 1] for i in range(1, n + 1))
    return -1 if exp % 2 else 1


def decalage(basis_v: GradedBasis, tables):
    """Convert bracket tables between the unshifted skew convention (l_k
    given on wedge-canonical words of V) and the shifted symmetric convention
    (q_k given on canonical words of V[1]), in either direction: the D1 sign
    is its own inverse, so the map is an involution."""
    out = {}
    for k, table in tables.items():
        new = {}
        for word, value in table.items():
            degrees = [basis_v.degree(i) for i in word]
            sign = _decalage_sign(degrees)
            new[tuple(word)] = value.scale(Fraction(sign))
        out[k] = new
    return out


# ---------------------------------------------------------------------------
# Structures
# ---------------------------------------------------------------------------


class LInftyStructure:
    """Brackets stored as degree +1 components q_k on canonical words of the
    shifted basis.  `space` is the unshifted basis; `shifted` its suspension.
    """

    def __init__(self, space: GradedBasis, suspended_tables):
        self.space = space
        self.shifted = suspend_basis(space)
        self.components = ComponentMap(self.shifted, 1, suspended_tables)
        self.max_arity = max(self.components.arities(), default=1)
        self.depth = 2 * self.max_arity - 1  # of `check_linfty` (sign ledger C2)

    @staticmethod
    def from_unsuspended(space: GradedBasis, l_tables) -> "LInftyStructure":
        return LInftyStructure(space, decalage(space, l_tables))

    def unsuspended_tables(self):
        return decalage(self.space, self.components.tables)

    def coderivation(self) -> Coderivation:
        return Coderivation(self.components)


def word_names(basis: GradedBasis):
    """The report name of a word: the tuple of its letters' names."""
    return lambda word: tuple(basis.names[i] for i in word)


def check_linfty(S: LInftyStructure, n_max=None) -> CheckReport:
    """Generalized Jacobi: for every n <= n_max and every canonical word,
    sum over k+l = n+1 and (k, n-k)-unshuffles of
    eps(sigma) q_l(q_k(front) (.) rest) vanishes.  Only arities k with both
    q_k and q_l tabled contribute, so no word past `S.depth` = 2m - 1, for
    m the largest arity, has a term: that is the default depth, and the
    words past it are not built.  The sum runs over the word's distinct
    sub-multisets (`multiset_plan`), each front canonical with sign +1, and
    q_l on each (i,) (.) rest is computed once per check (sign ledger C2)."""
    comp = S.components
    tables = comp.tables
    basis = S.shifted
    parity = [d % 2 for d in basis.degrees].__getitem__
    apply_word = comp.apply_word
    depth = min(n_max or S.depth, S.depth)
    live = {  # (k, q_k) with q_{n-k+1} tabled, by word length n
        n: [(k, tables[k]) for k in sorted(tables) if n - k + 1 in tables]
        for n in range(1, depth + 1)
    }
    outer = {}  # q_l((i,) (.) rest) by its word, for this check only

    def jacobi(word):
        letter = word.__getitem__
        runs = word_runs(word, parity)
        total = {}
        for k, inner_table in live[len(word)]:
            for front, rest, sign in multiset_plan(runs, k):
                inner = inner_table.get(tuple(map(letter, front)))
                if inner is None:
                    continue
                tail = tuple(map(letter, rest))
                for idx, c in inner.terms.items():
                    key = (idx,) + tail
                    value = outer.get(key)
                    if value is None:
                        value = outer[key] = apply_word(key).terms
                    if value:
                        add_into(total, value, c * sign)
        return total

    steps = [
        (
            [(word,) for word in words],
            [("word {}", f"generalized Jacobi fails at arity {n}", jacobi)],
        )
        for n, words in groupby(all_words(basis, depth), len)
        if live[n]
    ]
    show = partial(format_terms, basis.names)
    rep = CheckReport("check-linfty")
    return report_violations(rep, word_names(basis), show, steps)


def from_dgla(L: DGLA) -> LInftyStructure:
    """q_1(v) = -dv, q_2(v (.) w) = (-1)^{deg v} [v, w] on the shifted space,
    no higher components (sign ledger S1).  The input is not checked: a
    valid DGLA is a precondition, verified by `check_dgla` first."""
    shifted = suspend_basis(L.basis)
    t1 = {(i,): img.scale(Fraction(-1)) for i, img in L.diff.items()}
    t2 = {}
    n = len(L.basis)
    for i in range(n):
        for j in range(i, n):
            canon = canonical_word(shifted, (i, j))
            if canon is None:
                continue
            sign = Fraction((-1) ** (L.basis.degree(i) % 2))
            t2[canon[0]] = Element(L.rows[i].get(j, {})).scale(sign)
    return LInftyStructure(L.basis, {1: t1, 2: t2})


# ---------------------------------------------------------------------------
# Morphisms
# ---------------------------------------------------------------------------


class LInftyMorphism:
    """Morphism presented by degree-0 Taylor components f_k from canonical
    words of the shifted source to the shifted target.  `depth` is the
    default depth of `morphism_check`, max(a + m - 1, m' a) for Taylor arity
    a and arities m, m' of the source and target (sign ledger C3)."""

    def __init__(self, source: LInftyStructure, target: LInftyStructure, tables):
        self.source = source
        self.target = target
        self.coalg = CoalgMorphism(source.shifted, target.shifted, tables)
        a = max(self.coalg.components.arities(), default=1)
        self.depth = max(a + source.max_arity - 1, target.max_arity * a)


def morphism_check(F: LInftyMorphism, n_max=None, weights=None, cap=0) -> CheckReport:
    """F is a homotopy morphism iff (corestriction of target codifferential)
    o F = F^1 o (source codifferential) on all words; with `weights` only on
    the words of a truncated structure whose weights sum to at most `cap`
    (see `coalg.all_words`), where it is exact.  The default depth
    `F.depth` covers every word where a side can be nonzero, so a deeper
    `n_max` is clamped to it and the words past it are not built (sign
    ledger C3)."""
    n_max = min(n_max or F.depth, F.depth)
    Q = F.source.coderivation()
    r_comp = F.target.components

    def morphism(word):
        lhs = F.coalg.components.apply(Q.apply_word(word))  # F^1 (Q w)
        rhs = r_comp.apply(F.coalg.apply_word(word))  # R^1 (F w)
        return (lhs - rhs).terms

    words = all_words(F.source.shifted, n_max, 1, weights, cap)
    message = "morphism equation fails"
    steps = [([(w,) for w in words], [("word {}", message, morphism)])]
    name = word_names(F.source.shifted)
    show = partial(format_terms, F.target.shifted.names)
    return report_violations(CheckReport("linfty-morphism"), name, show, steps)


# ---------------------------------------------------------------------------
# Maurer-Cartan for homotopy structures
# ---------------------------------------------------------------------------


def mc_linfty(S: LInftyStructure, A: ArtinDg, m_terms) -> Element:
    """Residual of the homotopy Maurer-Cartan equation for m in (V (x) A)^1
    given as {(v_index, a_index): coeff}, computed in the corestricted
    coalgebra form on S(V[1]) (x) A,
    (Id (x) d_A) m - sum_n (1/n!) (q_n (x) Id) m^{(.) n},
    with m and the residual carried through x[1] (x) a <-> (-1)^{deg a} x (x) a
    (sign ledger D2; its l_n form is the test oracle).

    Returns an Element over the pair basis of the tensor DGLA index space
    (same indexing as TensorDgla(L, A) pairs: v_index * len(A) + a_index).
    """
    shifted, a_degree = S.shifted, A.basis.degree
    for (i, j) in m_terms:
        if S.space.degree(i) + a_degree(j) != 1:
            raise DomainError("homotopy MC argument must have total degree 1")
    carry = lambda j: -1 if a_degree(j) % 2 else 1  # its own inverse
    m = {(i, j): c * carry(j) for (i, j), c in m_terms.items()}

    # (Id (x) d_A) m with the Koszul sign of d_A past x[1]
    residual = {}
    for (i, j), c in m.items():
        sign = -1 if shifted.degree(i) % 2 else 1
        for k, v in A.d_images.get(j, {}).items():
            add_term(residual, (i, k), c * v * sign)

    # symmetric powers m^{(.) n} in S(V[1]) (x) A
    tables = S.components.tables
    power = {((i,), j): c for (i, j), c in m.items()}
    for n in range(1, max(tables, default=0) + 1):
        if n > 1:
            nxt = {}
            for (w1, a1), c1 in power.items():
                for (i, j), c2 in m.items():
                    prod = A.rows[a1].get(j)
                    canon = canonical_word(shifted, w1 + (i,)) if prod else None
                    if canon is None:
                        continue
                    swap = a_degree(a1) * shifted.degree(i) % 2  # a1 past x[1]
                    sign = -canon[1] if swap else canon[1]
                    for ak, av in prod.items():
                        add_term(nxt, (canon[0], ak), c1 * c2 * av * sign)
            power = nxt
            if not power:
                break
        table = tables.get(n)
        if table:
            scale = Fraction(-1, factorial(n))
            for (word, a), c in power.items():
                value = table.get(word)
                if value is not None:
                    for k, v in value.terms.items():
                        add_term(residual, (k, a), c * v * scale)

    n_a = len(A.basis)
    return Element({i * n_a + j: c * carry(j) for (i, j), c in residual.items()})


# ---------------------------------------------------------------------------
# The induced bracket on cohomology
# ---------------------------------------------------------------------------


def h_bracket_check(S: LInftyStructure) -> CheckReport:
    """Compute H(V, l_1), push l_2 to it, and verify it is a graded Lie
    bracket there: closed ([class, class] and [class, d y] are cycles, which
    holds when l_1 is a derivation of l_2), well-defined ([class, d y] is a
    boundary), and, tabled on the basis of H from the brackets that are
    cycles as a DGLA with zero differential, antisymmetric and Jacobi by
    `check_dgla`."""
    l_tables = S.unsuspended_tables()
    l1 = {w[0]: v for w, v in l_tables.get(1, {}).items()}
    L = DGLA(S.space, l_tables.get(2, {}), l1)  # the complex (V, l_1) with l_2
    basis = S.space
    # a class is (name, degree, representative), H^d_k the k-th of degree d;
    # first[d] is the index of H^d_1
    hdata, classes, first = {}, [], {}
    for dgr in sorted(set(basis.degrees)):
        reps, _, _ = hdata[dgr] = cohomology(L, dgr)
        first[dgr] = len(classes)
        classes += [(f"H^{dgr}_{k}", dgr, r) for k, r in enumerate(reps, 1)]
    # a boundary is (name of y, degree of y, d y) for each y with d y != 0
    boundaries = [
        (basis.names[y], basis.degree(y), Element(dy))
        for y, dy in sorted(L.d_images.items())
    ]

    def closure(x, y):
        """d [x, y] for a class x and a class or boundary y (both carry the
        element last)."""
        return lin_into({}, L.d_images, L.bracket(x[2], y[2]).terms)

    def h_terms(el, dgr):
        """The class of the degree-dgr element el as terms over the basis of
        H; {} when el is not a cycle, which the closure step reports.  The
        brackets respect degrees, so a nonzero el has a basis term, and an
        H, in degree dgr."""
        if not el.terms or lin_into({}, L.d_images, el.terms):
            return {}
        return {first[dgr] + k: c for k, c in enumerate(hdata[dgr][1](el)) if c}

    table = {}
    for (i, (_, d1, r1)), (j, (_, d2, r2)) in product(enumerate(classes), repeat=2):
        terms = h_terms(L.bracket(r1, r2), d1 + d2)
        if terms:
            table[i, j] = Element(terms)
    h_basis = GradedBasis(tuple(c[0] for c in classes), tuple(c[1] for c in classes))

    def well_defined(c, b):
        (_, dgr, r), (_, ydeg, dy) = c, b
        return h_terms(L.bracket(r, dy), dgr + ydeg + 1)

    closed = "bracket is not a cycle"
    steps = [
        (product(classes, repeat=2), [("closure({}, {})", closed, closure)]),
        (product(classes, boundaries), [("closure({}, d{})", closed, closure)]),
    ]
    rep = CheckReport("h-bracket")
    report_violations(rep, itemgetter(0), partial(format_terms, basis.names), steps)
    wd = ("bracket({}, d{})", "induced bracket is not well-defined", well_defined)
    show = partial(format_terms, h_basis.names)
    report_violations(rep, itemgetter(0), show, [(product(classes, boundaries), [wd])])
    rep.merge(check_dgla(DGLA(h_basis, table, {})))
    rep.info = {"h_dims": {str(d): dims[2] for d, (_, _, dims) in hdata.items()}}
    return rep


# ---------------------------------------------------------------------------
# Abstract Hodge models and the transfer morphism
# ---------------------------------------------------------------------------
#
# An operator on a based space is stored as its images {index: terms dict},
# missing meaning zero, the format `core.lin_into` reads; an operator of
# degree k sends degree-d basis vectors into degree d + k.  The helpers
# below keep no zero column, so an operator is zero exactly when it is empty.


def op_compose(p, q):
    """(p o q)(e_i) = p(q(e_i))."""
    out = {}
    for i, img in q.items():
        col = lin_into({}, p, img)
        if col:
            out[i] = col
    return out


def op_sum(signed):
    """The sum of c * op over the pairs (c, op) of `signed`, column by column."""
    out = {}
    for c, op in signed:
        for i, img in op.items():
            if not add_into(out.setdefault(i, {}), img, c):
                del out[i]
    return out


def op_bracket(p, p_deg, q, q_deg):
    """[p, q] = p q - (-1)^{p_deg q_deg} q p."""
    sign = -1 if p_deg * q_deg % 2 else 1
    return op_sum(((1, op_compose(p, q)), (-sign, op_compose(q, p))))


def _images(op):
    """An operator given as columns {index: Element} as images."""
    return {i: dict(v.terms) for i, v in op.items() if v.terms}


class HodgeModel:
    """Finite bigraded space with operators del (1,0), delbar (0,1),
    tau (1,-1), a distinguished subspace H (inclusion/projection), and a
    source space L carrying d, a symmetric degree +1 product q, and an
    operator realization hat: L -> End(A).  The operators and d are given
    as columns {index: Element} and stored as images."""

    def __init__(
        self,
        space: GradedBasis,
        bidegrees,
        h_space: GradedBasis,
        inclusion,
        projection,
        del_op,
        delbar_op,
        tau_op,
        source: GradedBasis,
        d_table,
        q_table,
        hat,
    ):
        self.space = space
        self.bidegrees = tuple(tuple(b) for b in bidegrees)
        if len(self.bidegrees) != len(space):
            raise InputError("bidegree list does not match the space")
        for i, (p, q) in enumerate(self.bidegrees):
            if p + q != space.degree(i):
                raise InputError(f"bidegree of {space.names[i]} does not sum to degree")
        self.h_space = h_space
        self.inclusion = _images(inclusion)
        self.projection = _images(projection)
        self.del_op = _images(del_op)
        self.delbar_op = _images(delbar_op)
        self.tau_op = _images(tau_op)
        self.source = source
        self.d_images = _images(d_table)
        self.q_table = ComponentMap(source, 1, {2: q_table}).tables.get(2, {})
        self.hat = {a: _images(op) for a, op in hat.items()}

    def q_word(self, word):
        """q on a word of two source indices, as a terms dict."""
        canon = canonical_word(self.source, word)
        val = None if canon is None else self.q_table.get(canon[0])
        return {} if val is None else val.scale(canon[1]).terms

    def hat_of(self, terms):
        """hat of the source element with these terms, as images."""
        return op_sum((c, self.hat.get(i, {})) for i, c in terms.items())


def hodge_model_check(M: HodgeModel) -> CheckReport:
    """Exact operator identities: the bidegrees, h i = id on H, the zero
    relations, [delbar, tau] = del, the source d of degree +1 with d^2 = 0,
    and the hat compatibilities hat(d a) = [delbar, hat a],
    hat(q(a (.) b)) = -[[del, hat a], hat b]; the constructor already
    refuses a q not of degree +1.  A relation between whole operators runs
    over the one-instance family [()]; every residual shows as ""."""
    dl, db, tau = M.del_op, M.delbar_op, M.tau_op
    incl, proj, d = M.inclusion, M.projection, M.d_images
    src, deg = M.source, M.source.degree
    hat = lambda a: M.hat.get(a, {})

    def off(op, grade, step):
        """Whether a term of some column i of op is not in grade(i) + step."""
        return any(grade(k) != grade(i) + step for i, img in op.items() for k in img)

    def bidegree(name, op, dp, dq):
        p_of, q_of = (lambda i: M.bidegrees[i][0]), (lambda i: M.bidegrees[i][1])
        message = f"{name} is not bidegree ({dp},{dq})"
        return name, message, lambda: off(op, p_of, dp) or off(op, q_of, dq)

    ident = {j: {j: 1} for j in range(len(M.h_space))}
    zero = {
        "del^2": lambda: op_compose(dl, dl),
        "delbar^2": lambda: op_compose(db, db),
        "del delbar + delbar del": lambda: op_bracket(dl, 1, db, 1),
        "h del": lambda: op_compose(proj, dl),
        "del h": lambda: op_compose(dl, op_compose(incl, proj)),
        "tau h": lambda: op_compose(tau, op_compose(incl, proj)),
        "h tau": lambda: op_compose(proj, tau),
        "del tau": lambda: op_compose(dl, tau),
        "tau del": lambda: op_compose(tau, dl),
        "h delbar": lambda: op_compose(proj, db),
        "delbar i": lambda: op_compose(db, incl),
    }
    whole = [
        bidegree("del", dl, 1, 0),
        bidegree("delbar", db, 0, 1),
        bidegree("tau", tau, 1, -1),
        (
            "h i",
            "h o i is not the identity on H",
            lambda: op_sum(((1, op_compose(proj, incl)), (-1, ident))),
        ),
        *((name, f"{name} != 0", res) for name, res in zero.items()),
        (
            "[delbar, tau]",
            "[delbar, tau] != del",
            lambda: op_sum(((1, op_bracket(db, 1, tau, 0)), (-1, dl))),
        ),
    ]
    source_d = [
        ("d({})", "source d is not degree +1", off_degree(d.get, deg, 1)),
        ("d^2({})", "source d^2 != 0", square_residual(d)),
    ]

    def hat_d(a):  # hat(d a) - [delbar, hat a]
        bracket = op_bracket(db, 1, hat(a), deg(a))
        return op_sum(((1, M.hat_of(d.get(a, {}))), (-1, bracket)))

    def hat_q(a, b):  # hat(q(a (.) b)) + [[del, hat a], hat b]
        inner = op_bracket(dl, 1, hat(a), deg(a))
        outer = op_bracket(inner, 1 + deg(a), hat(b), deg(b))
        return op_sum(((1, M.hat_of(M.q_word((a, b)))), (1, outer)))

    hat_degree = (
        "hat({})",
        "hat operator degree differs from source degree",
        lambda a: off(hat(a), M.space.degree, deg(a)),
    )
    pairs = product(range(len(src)), repeat=2)
    steps = [
        ([()], whole),
        ([(i,) for i in d], source_d),
        (
            [(a,) for a in range(len(src))],
            [hat_degree, ("hat(d {})", "hat(d a) != [delbar, hat a]", hat_d)],
        ),
        (
            [w for w in pairs if canonical_word(src, w) is not None],
            [("hat(q({},{}))", "hat(q(a (.) b)) != -[[del, hat a], hat b]", hat_q)],
        ),
    ]
    rep, show = CheckReport("hodge-model"), lambda _: ""
    return report_violations(rep, src.names.__getitem__, show, steps)


def hodge_codifferential(M: HodgeModel) -> Coderivation:
    """The degree +1 coderivation on the symmetric coalgebra of the source
    assembled from d and q."""
    t1 = {(i,): Element(v) for i, v in M.d_images.items()}
    return coder_lift(M.source, 1, {1: t1, 2: M.q_table})


def hodge_F(M: HodgeModel, m_max: int):
    """Transfer components F_m (symmetrizations of h hat(a_1) tau hat(a_2)
    ... tau hat(a_m) i, as images H -> H) and the verification that F
    composed with the assembled codifferential vanishes on every word of
    length <= m_max.  The model is not checked here: its relations are a
    precondition, verified by `hodge_model_check` first."""
    rep = CheckReport("hodge-f")
    delta = hodge_codifferential(M)
    basis = M.source

    def f_value(letters):
        """h hat(a_1) tau hat(a_2) ... tau hat(a_m) i."""
        op = op_compose(M.hat.get(letters[-1], {}), M.inclusion)
        for idx in reversed(letters[:-1]):
            op = op_compose(M.hat.get(idx, {}), op_compose(M.tau_op, op))
        return op_compose(M.projection, op)

    def F_value(word):
        degrees = [basis.degree(i) for i in word]
        return op_sum(
            (sign, f_value(tuple(word[i] for i in images)))
            for sign, images in signed_permutations(degrees)
        )

    components = {}
    for m in range(1, m_max + 1):
        for word in all_words(basis, m, min_len=m):
            val = F_value(word)
            if val:
                components.setdefault(m, {})[word] = val

    def transfer(word):
        """F o delta on the word, empty exactly when it vanishes there; delta
        keeps or lowers word length, so `components` holds each F value."""
        image = delta.apply_word(word).terms.items()
        return op_sum((c, components.get(len(w), {}).get(w, {})) for w, c in image)

    words = [(w,) for w in all_words(basis, m_max)]
    steps = [(words, [("word {}", "F o delta != 0", transfer)])]
    return components, report_violations(rep, word_names(basis), str, steps)
