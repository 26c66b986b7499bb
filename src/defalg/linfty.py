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
from itertools import product
from math import factorial

from .coalg import (
    CoalgMorphism,
    Coderivation,
    ComponentMap,
    all_words,
    canonical_word,
    coder_lift,
    word_degree,
)
from .core import (
    Element,
    GradedBasis,
    add_into,
    add_term,
    format_terms,
    report_violations,
    signed_permutations,
    split_plan,
    sym_canonical,
)
from .dgla import DGLA, ArtinDg, check_dgla
from .errors import DomainError, InputError, StructureError
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


def decalage(basis_v: GradedBasis, tables, direction: str):
    """Convert bracket tables between the unshifted skew convention
    ('to_suspended': l_k given on wedge-canonical words of V) and the shifted
    symmetric convention ('to_unsuspended': q_k given on canonical words of
    V[1]).  Round trip is the identity."""
    if direction not in ("to_suspended", "to_unsuspended"):
        raise InputError(f"unknown decalage direction {direction!r}")
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

    def __init__(self, space: GradedBasis, suspended_tables, max_arity=None):
        self.space = space
        self.shifted = suspend_basis(space)
        self.components = ComponentMap(self.shifted, 1, suspended_tables)
        self.max_arity = max_arity or max(self.components.arities(), default=1)

    @staticmethod
    def from_unsuspended(space: GradedBasis, l_tables) -> "LInftyStructure":
        return LInftyStructure(space, decalage(space, l_tables, "to_suspended"))

    def unsuspended_tables(self):
        return decalage(self.space, self.components.tables, "to_unsuspended")

    def coderivation(self) -> Coderivation:
        return Coderivation(self.components)

    def is_minimal(self) -> bool:
        return 1 not in self.components.tables


def word_names(basis: GradedBasis):
    """The report name of a word: the tuple of its letters' names."""
    return lambda word: tuple(basis.names[i] for i in word)


def check_linfty(S: LInftyStructure, n_max=None) -> CheckReport:
    """Generalized Jacobi: for every n <= n_max and every canonical word,
    sum over k+l = n+1 and (k, n-k)-unshuffles of
    eps(sigma) q_l(q_k(front) (.) rest) vanishes.  Only arities k with both
    q_k and q_l tabled contribute; a front taken at increasing positions of
    a canonical word is itself canonical with sign +1 (sign ledger C2).
    The default depth 2m - 1, for m the largest arity, is the longest word
    with a term in the sum (k, l <= m)."""
    n_max = n_max or 2 * S.max_arity - 1
    comp = S.components
    tables = comp.tables
    basis = S.shifted
    parity = [d % 2 for d in basis.degrees].__getitem__
    apply_word = comp.apply_word

    def jacobi(word):
        n = len(word)
        letter = word.__getitem__
        parities = tuple(map(parity, word))
        total = {}
        for k in range(1, n + 1):
            inner_table = tables.get(k)
            if not inner_table or n - k + 1 not in tables:
                continue
            for front, rest, sign in split_plan(n, k, parities):
                inner = inner_table.get(tuple(map(letter, front)))
                if inner is None:
                    continue
                tail = tuple(map(letter, rest))
                for idx, c in inner.terms.items():
                    for j, v in apply_word((idx,) + tail).terms.items():
                        add_term(total, j, c * v * sign)
        return total

    steps = [
        (
            [(word,) for word in all_words(basis, n, n)],
            [("word {}", f"generalized Jacobi fails at arity {n}", jacobi)],
        )
        for n in range(1, n_max + 1)
    ]
    show = partial(format_terms, basis.names)
    rep = CheckReport("check-linfty")
    return report_violations(rep, word_names(basis), show, steps)


def from_dgla(L: DGLA, checked=True) -> LInftyStructure:
    """q_1(v) = -dv, q_2(v (.) w) = (-1)^{deg v} [v, w] on the shifted space,
    no higher components (sign ledger S1)."""
    if checked:
        rep = check_dgla(L)
        if not rep.ok():
            raise StructureError("from_dgla needs a valid DGLA:\n" + rep.text())
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
            t2[canon[0]] = L._op_basis(i, j).scale(sign)
    return LInftyStructure(L.basis, {1: t1, 2: t2})


# ---------------------------------------------------------------------------
# Morphisms
# ---------------------------------------------------------------------------


class LInftyMorphism:
    """Morphism presented by degree-0 Taylor components f_k from canonical
    words of the shifted source to the shifted target."""

    def __init__(self, source: LInftyStructure, target: LInftyStructure, tables):
        self.source = source
        self.target = target
        self.coalg = CoalgMorphism(source.shifted, target.shifted, tables)

    @staticmethod
    def strong(source, target, f1_table) -> "LInftyMorphism":
        return LInftyMorphism(source, target, {1: f1_table})

    def taylor(self, word):
        """Components F^i_n of the lifted coalgebra morphism on one word:
        {i: {target word of length i: coeff}}."""
        img = self.coalg.apply_word(word)
        out = {}
        for w, c in img.terms.items():
            out.setdefault(len(w), {})[w] = c
        return out


def morphism_check(F: LInftyMorphism, n_max=None, weights=None, cap=0) -> CheckReport:
    """F is a homotopy morphism iff (corestriction of target codifferential)
    o F = F^1 o (source codifferential) on all words; with `weights` only on
    the words of a truncated structure whose weights sum to at most `cap`
    (see `coalg.all_words`), where it is exact."""
    n_max = n_max or max(F.source.max_arity, F.target.max_arity) + 2
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


def identity_morphism(S: LInftyStructure) -> LInftyMorphism:
    table = {(i,): Element.basis_vector(i) for i in range(len(S.shifted))}
    return LInftyMorphism(S, S, {1: table})


# ---------------------------------------------------------------------------
# Maurer-Cartan for homotopy structures
# ---------------------------------------------------------------------------


class _ExtTensor(Element):
    """Sparse elements of (wedge V) (x) A: {(wedge word, a_index): coeff}."""

    __slots__ = ("basis", "A")

    def __init__(self, basis_v: GradedBasis, A: ArtinDg, terms=None):
        self.basis = basis_v
        self.A = A
        Element.__init__(self, terms)

    def add(self, word, a_idx, coeff):
        canon = sym_canonical(word, self.basis.degree, 1)
        if canon is not None:
            add_term(self.terms, (canon[0], a_idx), coeff * canon[1])

    def wedge(self, other) -> "_ExtTensor":
        out = _ExtTensor(self.basis, self.A)
        for (w1, a1), c1 in self.terms.items():
            for (w2, a2), c2 in other.terms.items():
                prod = self.A._op_basis(a1, a2)
                if prod.is_zero():
                    continue
                sign = (
                    -1
                    if (self.A.basis.degree(a1) * word_degree(self.basis, w2)) % 2
                    else 1
                )
                for ak, av in prod.terms.items():
                    out.add(w1 + w2, ak, c1 * c2 * av * sign)
        return out


def mc_linfty(S: LInftyStructure, A: ArtinDg, m_terms) -> Element:
    """Residual of the homotopy Maurer-Cartan equation,
    (Id (x) d_A) m - sum_n (1/n!) (-1)^{n(n+1)/2} (l_n (x) Id) m^{wedge n},
    for m in (V (x) A)^1 given as {(v_index, a_index): coeff} (ledger D2).

    Returns an Element over the pair basis of the tensor DGLA index space
    (same indexing as TensorDgla(L, A) pairs: v_index * len(A) + a_index).
    """
    basis = S.space
    nA = len(A.basis)

    def pair(i, j):
        return i * nA + j

    for (i, j) in m_terms:
        if basis.degree(i) + A.basis.degree(j) != 1:
            raise DomainError("homotopy MC argument must have total degree 1")

    l_tables = S.unsuspended_tables()
    residual = Element()

    # (Id (x) d_A) m with the Koszul sign of d_A past v
    for (i, j), c in m_terms.items():
        sign = -1 if basis.degree(i) % 2 else 1
        for k, v in A.diff.get(j, Element()).terms.items():
            residual.add_term(pair(i, k), c * v * sign)

    # wedge powers of m
    m_ext = _ExtTensor(basis, A)
    for (i, j), c in m_terms.items():
        m_ext.add((i,), j, c)
    power = m_ext
    n = 1
    max_arity = max(l_tables, default=0)
    while n <= max_arity:
        if n > 1:
            power = power.wedge(m_ext)
            if power.is_zero():
                break
        table = l_tables.get(n)
        if table:
            outer_sign = -1 if (n * (n + 1) // 2) % 2 else 1
            scale = Fraction(outer_sign, factorial(n))
            for (word, a_idx), c in power.terms.items():
                if len(word) != n:
                    continue
                value = table.get(word)
                if value is None:
                    continue
                for k, v in value.terms.items():
                    residual.add_term(pair(k, a_idx), -c * v * scale)
        n += 1
    return residual


def mc_suspended_residual(S: LInftyStructure, A: ArtinDg, m_terms) -> Element:
    """Independent route: the corestricted coalgebra form of the equation,
    (Id (x) d_A) m - sum (1/n!) (q_n (x) Id) m^{(.) n} computed on the
    shifted space, carried back through x[1] (x) a -> (-1)^{deg a} x (x) a
    (sign ledger D2).  Must agree exactly with mc_linfty."""
    shifted = S.shifted
    nA = len(A.basis)

    def pair(i, j):
        return i * nA + j

    twisted = {
        key: c * ((-1) ** (A.basis.degree(key[1]) % 2)) for key, c in m_terms.items()
    }

    residual_susp = {}
    for (i, j), c in twisted.items():
        sign = -1 if shifted.degree(i) % 2 else 1
        for k, v in A.diff.get(j, Element()).terms.items():
            add_term(residual_susp, (i, k), c * v * sign)

    # symmetric powers in S(V[1]) (x) A
    power = {((i,), j): c for (i, j), c in twisted.items()}
    n = 1
    max_arity = max(S.components.tables, default=0)
    while n <= max_arity:
        if n > 1:
            nxt = {}
            for (w1, a1), c1 in power.items():
                for (i, j), c2 in twisted.items():
                    prod = A._op_basis(a1, j)
                    if prod.is_zero():
                        continue
                    sign = (
                        -1
                        if (A.basis.degree(a1) * shifted.degree(i)) % 2
                        else 1
                    )
                    canon = canonical_word(shifted, w1 + (i,))
                    if canon is None:
                        continue
                    for ak, av in prod.terms.items():
                        coeff = c1 * c2 * av * sign * canon[1]
                        add_term(nxt, (canon[0], ak), coeff)
            power = nxt
            if not power:
                break
        table = S.components.tables.get(n)
        if table:
            scale = Fraction(1, factorial(n))
            for (word, a_idx), c in power.items():
                value = table.get(word)
                if value is None:
                    continue
                for k, v in value.terms.items():
                    add_term(residual_susp, (k, a_idx), -c * v * scale)
        n += 1

    # carry back: x[1] (x) a -> (-1)^{deg a} x (x) a
    out = Element()
    for (i, j), c in residual_susp.items():
        out.add_term(pair(i, j), c * ((-1) ** (A.basis.degree(j) % 2)))
    return out


# ---------------------------------------------------------------------------
# The induced bracket on cohomology
# ---------------------------------------------------------------------------


def h_bracket_check(S: LInftyStructure) -> CheckReport:
    """Compute H(V, l_1), push l_2 to it, and verify it is a graded Lie
    bracket there (well-defined, antisymmetric, Jacobi)."""
    from .dgla import cohomology

    rep = CheckReport("h-bracket")
    l_tables = S.unsuspended_tables()
    l1 = {w[0]: v for w, v in l_tables.get(1, {}).items()}
    l2 = l_tables.get(2, {})
    cx = DGLA(S.space, {}, l1)  # the complex (V, l_1)
    basis = S.space

    def bracket(x: Element, y: Element) -> Element:
        out = Element()
        for i, ci in x.terms.items():
            for j, cj in y.terms.items():
                canon = sym_canonical((i, j), basis.degree, 1)
                if canon is None:
                    continue
                val = l2.get(canon[0])
                if val is None:
                    continue
                for k, v in val.terms.items():
                    out.add_term(k, ci * cj * v * canon[1])
        return out

    degrees = sorted(set(basis.degrees))
    hdata = {}
    for dgr in degrees:
        hdata[dgr] = cohomology(cx, dgr)

    # antisymmetry and Jacobi on representatives, projected to H, and
    # well-definedness: [rep, d y] is a boundary
    all_reps = [
        (dgr, r) for dgr, (reps, _, _) in sorted(hdata.items()) for r in reps
    ]
    boundaries = []  # (name, degree, d y) for each y with d y != 0
    for y in range(len(basis)):
        dy = cx.d(Element.basis_vector(y))
        if not dy.is_zero():
            boundaries.append((basis.names[y], basis.degree(y), dy))

    def project_class(el: Element, dgr):
        """The coordinates of the class of el in H^dgr, all of them by
        position, when one is nonzero; else {}.  The brackets respect
        degrees, so a nonzero el has a basis term, and an H, in degree dgr."""
        coords = hdata[dgr][1](el) if el.terms else ()
        return dict(enumerate(coords)) if any(coords) else {}

    def well_defined(c, b):
        (dgr, r), (_, ydeg, dy) = c, b
        return project_class(bracket(r, dy), dgr + ydeg + 1)

    def antisym(c1, c2):
        (d1, r1), (d2, r2) = c1, c2
        sign = Fraction((-1) ** ((d1 * d2) % 2))
        return project_class(bracket(r1, r2) + bracket(r2, r1).scale(sign), d1 + d2)

    def jacobi(c1, c2, c3):
        (d1, r1), (d2, r2), (d3, r3) = c1, c2, c3
        jac = (
            bracket(r1, bracket(r2, r3))
            - bracket(bracket(r1, r2), r3)
            - bracket(r2, bracket(r1, r3)).scale(Fraction((-1) ** ((d1 * d2) % 2)))
        )
        return project_class(jac, d1 + d2 + d3)

    wd = ("bracket(H^{}, d{})", "induced bracket is not well-defined", well_defined)
    anti = ("antisym(H^{}, H^{})", "bracket not antisymmetric", antisym)
    message = "induced bracket fails Jacobi on cohomology"
    jac = ("jacobi(H^{}, H^{}, H^{})", message, jacobi)
    pairs, triples = product(all_reps, repeat=2), product(all_reps, repeat=3)
    steps = [
        (product(all_reps, boundaries), [wd]),
        (pairs, [anti]),
        (triples, [jac]),
    ]
    # a class is named by its degree, a boundary d y by the name of y, and a
    # residual is shown as the class's coordinate list
    report_violations(rep, lambda c: c[0], lambda res: str(list(res.values())), steps)
    rep.info = {
        "h_dims": {str(d): hdata[d][2][2] for d in sorted(hdata)},
    }
    return rep


# ---------------------------------------------------------------------------
# Abstract Hodge models and the transfer morphism
# ---------------------------------------------------------------------------
#
# Operators on a based space are sparse column maps {index: Element}; an
# operator of degree k sends degree-d basis vectors into degree d+k.


def op_apply(op, x: Element) -> Element:
    out = Element()
    for i, c in x.terms.items():
        img = op.get(i)
        if img is not None:
            add_into(out.terms, img.terms, c)
    return out


def op_compose(p, q):
    """(p o q)(e_i) = p(q(e_i))."""
    out = {}
    for i, img in q.items():
        val = op_apply(p, img)
        if not val.is_zero():
            out[i] = val
    return out


def op_add(p, q, scale=Fraction(1)):
    out = {i: img.copy() for i, img in p.items()}
    for i, img in q.items():
        col = out.setdefault(i, Element())
        add_into(col.terms, img.terms, scale)
        if col.is_zero():
            del out[i]
    return out


def op_scale(p, c):
    if not c:
        return {}
    return {i: img.scale(c) for i, img in p.items()}


def op_bracket(p, p_deg, q, q_deg):
    sign = Fraction((-1) ** ((p_deg * q_deg) % 2))
    return op_add(op_compose(p, q), op_compose(q, p), -sign)


def op_is_zero(p) -> bool:
    return all(img.is_zero() for img in p.values())


def op_eq(p, q) -> bool:
    return op_is_zero(op_add(p, q, Fraction(-1)))


def op_degree_check(basis: GradedBasis, op, deg: int) -> bool:
    for i, img in op.items():
        for k in img.terms:
            if basis.degree(k) != basis.degree(i) + deg:
                return False
    return True


class HodgeModel:
    """Finite bigraded space with operators del (1,0), delbar (0,1),
    tau (1,-1), a distinguished subspace H (inclusion/projection), and a
    source space L carrying d, a symmetric degree +1 product q, and an
    operator realization hat: L -> End(A)."""

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
        self.inclusion = inclusion
        self.projection = projection
        self.del_op = del_op
        self.delbar_op = delbar_op
        self.tau_op = tau_op
        self.source = source
        self.d_table = {i: v.copy() for i, v in d_table.items() if not v.is_zero()}
        self.q_table = ComponentMap(source, 1, {2: q_table}).tables.get(2, {})
        self.hat = hat

    # -- building blocks ----------------------------------------------------

    def project(self, x: Element) -> Element:
        return op_apply(self.projection, x)

    def q_word(self, word) -> Element:
        canon = canonical_word(self.source, word)
        if canon is None:
            return Element()
        val = self.q_table.get(canon[0])
        return val.scale(canon[1]) if val is not None else Element()

    def d_of(self, i) -> Element:
        return self.d_table.get(i, Element()).copy()

    def hat_of(self, el: Element):
        out = {}
        for i, c in el.terms.items():
            out = op_add(out, self.hat.get(i, {}), c)
        return out


def _bidegree_ok(model: HodgeModel, op, dp, dq) -> bool:
    for i, img in op.items():
        pi, qi = model.bidegrees[i]
        for k in img.terms:
            pk, qk = model.bidegrees[k]
            if (pk, qk) != (pi + dp, qi + dq):
                return False
    return True


def hodge_model_check(M: HodgeModel) -> CheckReport:
    """Exact operator identities: the six zero relations, [delbar, tau] =
    del, the closure/projector relations, and the hat compatibilities
    hat(d a) = [delbar, hat a], hat(q(a (.) b)) = -[[del, hat a], hat b]."""
    rep = CheckReport("hodge-model")

    for name, op, (dp, dq) in (
        ("del", M.del_op, (1, 0)),
        ("delbar", M.delbar_op, (0, 1)),
        ("tau", M.tau_op, (1, -1)),
    ):
        if not _bidegree_ok(M, op, dp, dq):
            rep.add(name, "", f"{name} is not bidegree ({dp},{dq})")

    h_then_i = op_compose(M.projection, M.inclusion)  # h o i on H
    ident = {j: Element.basis_vector(j) for j in range(len(M.h_space))}
    if not op_eq(h_then_i, ident):
        rep.add("h i", "", "h o i is not the identity on H")

    pairs = [
        ("del^2", op_compose(M.del_op, M.del_op)),
        ("delbar^2", op_compose(M.delbar_op, M.delbar_op)),
        (
            "del delbar + delbar del",
            op_add(
                op_compose(M.del_op, M.delbar_op),
                op_compose(M.delbar_op, M.del_op),
            ),
        ),
        ("h del", op_compose(M.projection, M.del_op)),
        ("del h", op_compose(M.del_op, op_compose(M.inclusion, M.projection))),
        ("tau h", op_compose(M.tau_op, op_compose(M.inclusion, M.projection))),
        ("h tau", op_compose(M.projection, M.tau_op)),
        ("del tau", op_compose(M.del_op, M.tau_op)),
        ("tau del", op_compose(M.tau_op, M.del_op)),
        ("h delbar", op_compose(M.projection, M.delbar_op)),
        ("delbar i", op_compose(M.delbar_op, M.inclusion)),
    ]
    for name, op in pairs:
        if not op_is_zero(op):
            rep.add(name, "", f"{name} != 0")

    commutator = op_add(
        op_compose(M.delbar_op, M.tau_op),
        op_compose(M.tau_op, M.delbar_op),
        Fraction(-1),
    )
    if not op_eq(commutator, M.del_op):
        rep.add("[delbar, tau]", "", "[delbar, tau] != del")

    # source sanity: d degree +1, d^2 = 0, q degree +1 on canonical pairs
    for i, img in M.d_table.items():
        for k in img.terms:
            if M.source.degree(k) != M.source.degree(i) + 1:
                rep.add(f"d({M.source.names[i]})", "", "source d is not degree +1")
        dd = Element()
        for k, c in img.terms.items():
            for k2, c2 in M.d_table.get(k, Element()).terms.items():
                dd.add_term(k2, c * c2)
        if not dd.is_zero():
            rep.add(f"d^2({M.source.names[i]})", "", "source d^2 != 0")
    for word, img in M.q_table.items():
        want = word_degree(M.source, word) + 1
        for k in img.terms:
            if M.source.degree(k) != want:
                rep.add(f"q{word}", "", "q is not degree +1")

    # hat compatibilities
    for i in range(len(M.source)):
        a_op = M.hat.get(i, {})
        if not op_degree_check(M.space, a_op, M.source.degree(i)):
            rep.add(
                f"hat({M.source.names[i]})",
                "",
                "hat operator degree differs from source degree",
            )
        lhs = M.hat_of(M.d_of(i))
        rhs = op_bracket(M.delbar_op, 1, a_op, M.source.degree(i))
        if not op_eq(lhs, rhs):
            rep.add(
                f"hat(d {M.source.names[i]})",
                "",
                "hat(d a) != [delbar, hat a]",
            )
    for i in range(len(M.source)):
        for j in range(len(M.source)):
            canon = canonical_word(M.source, (i, j))
            if canon is None:
                continue
            a_op = M.hat.get(i, {})
            b_op = M.hat.get(j, {})
            lhs = M.hat_of(M.q_word((i, j)))
            inner = op_bracket(M.del_op, 1, a_op, M.source.degree(i))
            rhs = op_scale(
                op_bracket(inner, 1 + M.source.degree(i), b_op, M.source.degree(j)),
                Fraction(-1),
            )
            if not op_eq(lhs, rhs):
                rep.add(
                    f"hat(q({M.source.names[i]},{M.source.names[j]}))",
                    "",
                    "hat(q(a (.) b)) != -[[del, hat a], hat b]",
                )
    return rep


def hodge_codifferential(M: HodgeModel) -> Coderivation:
    """The degree +1 coderivation on the symmetric coalgebra of the source
    assembled from d and q."""
    t1 = {(i,): v for i, v in M.d_table.items()}
    return coder_lift(M.source, 1, {1: t1, 2: M.q_table})


def hodge_F(M: HodgeModel, m_max: int, check_model=True):
    """Transfer components F_m (symmetrizations of h hat(a_1) tau hat(a_2)
    ... tau hat(a_m) i) and the verification that F composed with the
    assembled codifferential vanishes on every word of length <= m_max."""
    rep = CheckReport("hodge-f")
    if check_model:
        base = hodge_model_check(M)
        if not base.ok():
            return None, base
    delta = hodge_codifferential(M)
    basis = M.source

    def f_value(letters):
        """h hat(a_1) tau hat(a_2) ... tau hat(a_m) i as a map H -> H."""
        op = M.inclusion
        first = True
        for idx in reversed(letters):
            if not first:
                op = op_compose(M.tau_op, op)
            op = op_compose(M.hat.get(idx, {}), op)
            first = False
        return op_compose(M.projection, op)

    def F_value(word):
        degrees = [basis.degree(i) for i in word]
        total = {}
        for sign, images in signed_permutations(degrees):
            letters = tuple(word[i] for i in images)
            total = op_add(total, f_value(letters), sign)
        return total

    components = {}
    for m in range(1, m_max + 1):
        for word in all_words(basis, m, min_len=m):
            val = F_value(word)
            if not op_is_zero(val):
                components.setdefault(m, {})[word] = val

    def transfer(word):
        """F o delta on the word as {column: terms}; op_add drops zero
        columns, so it is empty exactly when F o delta vanishes there."""
        acc = {}
        for w, c in delta.apply_word(word).terms.items():
            acc = op_add(acc, F_value(w), c)
        return {i: v.terms for i, v in acc.items()}

    words = [(w,) for w in all_words(basis, m_max)]
    steps = [(words, [("word {}", "F o delta != 0", transfer)])]
    return components, report_violations(rep, word_names(basis), str, steps)
