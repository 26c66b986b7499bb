"""Differential graded Lie algebras over nilpotent dg-commutative base
algebras: axiom checkers, Maurer-Cartan residuals, the gauge action,
cohomology, obstruction classes, mapping cones of small extensions,
exponentials of derivations, and polynomial-path homotopy evaluation.

Base algebras carry no unit: a classical local Artinian ring is represented
by its maximal ideal (nilpotency is structural, not an extra hypothesis).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, partial
from math import factorial
from operator import itemgetter

from . import linalg
from .core import (
    BilinearTable,
    Element,
    GradedBasis,
    add_into,
    add_term,
    admitted,
    assoc_residual,
    derivation_residual,
    format_terms,
    int_first,
    lin_into,
    off_degree,
    report_violations,
    representatives,
    square_residual,
    swap_residual,
)
from .errors import DomainError, InputError, InternalError, StructureError
from .freelie import bch_term_sum
from .report import CheckReport

# ---------------------------------------------------------------------------
# Table-driven graded structures
# ---------------------------------------------------------------------------


class _Tabled(BilinearTable):
    """Shared plumbing for structures given by a basis, a differential table
    and a binary-operation table (bracket or product) whose missing (i, j)
    entries follow from (j, i) by the class's `SIGN` rule."""

    def __init__(self, basis: GradedBasis, table, diff):
        super().__init__(basis, table, self.SIGN)
        self.diff = int_first(diff)
        for i in self.diff:
            if not 0 <= i < len(basis):
                raise InputError("differential entry outside basis")
        self.d_images = {i: v.terms for i, v in self.diff.items()}

    def d(self, x: Element) -> Element:
        return Element(lin_into({}, self.d_images, x.terms))


class DGLA(_Tabled):
    """Finite-dimensional DGLA: differential table d(e_i) and bracket table
    [e_i, e_j].  Missing (i, j) entries derive from (j, i) by graded
    antisymmetry, [a,b] = -(-1)^{deg a deg b} [b,a]; missing both means zero."""

    SIGN = -1
    bracket = BilinearTable.apply


class ArtinDg(_Tabled):
    """Object of the category of nilpotent finite-dimensional graded-
    commutative dg-algebras: multiplication table, differential, and the
    nilpotency index (smallest s with A^s = 0; None, reported by check_na,
    when the algebra is not nilpotent), computed on first read."""

    SIGN = 1
    product = BilinearTable.apply

    @cached_property
    def nilpotency_index(self):
        return linalg.nilpotency_index(self.rows)

    def is_classical(self) -> bool:
        return all(d == 0 for d in self.basis.degrees) and not self.diff


# ---------------------------------------------------------------------------
# Axiom checkers
# ---------------------------------------------------------------------------


def product_identities(A: BilinearTable, rows, cols):
    """Degree-additivity of the stored table, graded commutativity and
    associativity of a graded-commutative product with these rows and
    columns, for check_na and gbv_check."""
    deg = A.basis.degree
    entry = lambda i, j: A.table[i, j].terms
    return (
        ("{}*{}", "product is not degree-additive", off_degree(entry, deg)),
        ("comm({},{})", "graded commutativity fails", swap_residual(rows, deg, 1)),
        ("assoc({},{},{})", "associativity fails", assoc_residual(rows, cols)),
    )


def differential_identities(images, degree, symbol, noun):
    """Degree +1 of the images of a differential and its square zero."""
    degree_one = off_degree(images.get, degree, 1)
    return (
        (symbol + "({})", noun + " is not degree +1", degree_one),
        (symbol + "^2({})", symbol + "^2 != 0", square_residual(images)),
    )


def check_dgla(L: DGLA, weights=None, cap=0) -> CheckReport:
    """Verify every DGLA axiom instance on basis tuples; violations are
    report content, never exceptions.

    With `weights` (one nonnegative int per basis element) an identity
    instance is checked only when its arguments' weights sum to at most
    `cap`, as a truncated structure is exact there; the degree checks on
    table entries always run."""
    n = len(L.basis)
    deg = L.basis.degree
    B, Bc = L.rows, L.cols
    d_degree, d_square = differential_identities(L.d_images, deg, "d", "differential")
    entry = lambda i, j: L.table[i, j].terms
    additive = ("[{},{}]", "bracket is not degree-additive", off_degree(entry, deg))
    antisym = ("antisym({},{})", "graded antisymmetry fails", swap_residual(B, deg, -1))
    # d[a,b] - [da,b] - (-1)^a [a,db]; [a,[b,c]] - [[a,b],c] - (-1)^{ab} [b,[a,c]]
    ad = derivation_residual(B, Bc, deg)
    leibnitz = ("leibnitz({},{})", "graded Leibnitz fails", partial(ad, L.d_images, 1))
    jac = lambda i, j, k: ad(B[i], deg(i), j, k)
    even_square = lambda i: {} if deg(i) % 2 else B[i].get(i, {})
    # with antisymmetry the Jacobiator is graded antisymmetric (ledger K5)
    jacobi_orbits = None
    if L.swap_rule:
        jacobi_orbits = representatives(n, 3, (0, 1, 2), weights, cap)
    jacobi = ("jacobi({},{},{})", "graded Jacobi fails", jac)
    steps = [
        ([(i,) for i in L.diff], [d_degree]),
        (L.table, [additive]),
        (admitted(n, 1, weights, cap), [d_square]),
        (admitted(n, 2, weights, cap), [antisym, leibnitz]),
        (  # the pairs (i, i)
            admitted(n, 1, weights, cap // 2),
            [("[{0},{0}]", "even element with nonzero self-bracket", even_square)],
        ),
        (admitted(n, 3, weights, cap), [jacobi], jacobi_orbits),
    ]
    names, rep = L.basis.names, CheckReport("check-dgla")
    show = partial(format_terms, names)
    return report_violations(rep, names.__getitem__, show, steps)


def check_na(A: ArtinDg) -> CheckReport:
    """Verify associativity, graded commutativity, Leibnitz, d^2 = 0 and
    nilpotency; the report carries the computed nilpotency index."""
    n = len(A.basis)
    deg = A.basis.degree
    P, Pc = A.rows, A.cols
    degree, comm, assoc = product_identities(A, P, Pc)
    d_degree, d_square = differential_identities(A.d_images, deg, "d", "differential")
    # d(ab) - (da)b - (-1)^a a(db)
    leibnitz = partial(derivation_residual(P, Pc, deg), A.d_images, 1)
    odd_square = lambda i: P[i].get(i, {}) if deg(i) % 2 else {}
    # with commutativity A(c,b,a) = -(-1)^{ab+bc+ca} A(a,b,c) (ledger K5)
    assoc_orbits = None
    if A.swap_rule:
        assoc_orbits = representatives(n, 3, (0, 2))
    steps = [
        ([(i,) for i in A.diff], [d_degree]),
        (A.table, [degree]),
        (admitted(n, 1), [d_square]),
        (admitted(n, 2), [comm, ("leibnitz({},{})", "Leibnitz fails", leibnitz)]),
        (admitted(n, 1), [("{}^2", "odd element with nonzero square", odd_square)]),
        (admitted(n, 3), [assoc], assoc_orbits),
    ]
    names, rep = A.basis.names, CheckReport("check-na")
    report_violations(rep, names.__getitem__, partial(format_terms, names), steps)
    if A.nilpotency_index is None:
        rep.add("nilpotency", "", "algebra is not nilpotent")
    else:
        rep.info = {"nilpotency_index": A.nilpotency_index}
    return rep


# ---------------------------------------------------------------------------
# The tensor DGLA L (x) A
# ---------------------------------------------------------------------------


class TensorDgla:
    """The DGLA L (x) A on pair basis (x_i, a_j), total degree summed, with
    d(x(x)a) = dx(x)a + (-1)^x x(x)da  and
    [x(x)a, y(x)b] = (-1)^{deg a deg y} [x,y](x)ab  (sign ledger T1)."""

    def __init__(self, L: DGLA, A: ArtinDg):
        self.L = L
        self.A = A
        names = []
        degrees = []
        self.pairs = []
        self.pair_index = {}
        for i in range(len(L.basis)):
            for j in range(len(A.basis)):
                self.pair_index[(i, j)] = len(self.pairs)
                self.pairs.append((i, j))
                names.append(f"{L.basis.names[i]}(x){A.basis.names[j]}")
                degrees.append(L.basis.degree(i) + A.basis.degree(j))
        self.basis = GradedBasis(tuple(names), tuple(degrees))

    def vector(self, l_name, a_name, coeff=Fraction(1)) -> Element:
        key = (self.L.basis.index(l_name), self.A.basis.index(a_name))
        return Element.basis_vector(self.pair_index[key], coeff)

    def d(self, x: Element) -> Element:
        out = Element()
        index, Ld, Ad = self.pair_index, self.L.d_images, self.A.d_images
        for p, c in x.terms.items():
            i, j = self.pairs[p]
            for k, v in Ld.get(i, {}).items():
                add_term(out.terms, index[(k, j)], c * v)
            sign = (-1) ** (self.L.basis.degree(i) % 2)
            for k, v in Ad.get(j, {}).items():
                add_term(out.terms, index[(i, k)], c * v * sign)
        return out

    def bracket(self, x: Element, y: Element) -> Element:
        """Reads [x_i, x_j] and a_a a_b from the factors' rows, building no
        Element per pair of basis terms."""
        out = Element()
        index, pairs = self.pair_index, self.pairs
        a_degree, l_degree = self.A.basis.degree, self.L.basis.degree
        for p, cp in x.terms.items():
            i, a = pairs[p]
            l_row, a_row = self.L.rows[i], self.A.rows[a]
            for q, cq in y.terms.items():
                j, b = pairs[q]
                lb = l_row.get(j)
                ab = a_row.get(b)
                if lb is None or ab is None:
                    continue
                c = cp * cq * (-1 if a_degree(a) * l_degree(j) % 2 else 1)
                for k, vk in lb.items():
                    for m, vm in ab.items():
                        add_term(out.terms, index[(k, m)], c * vk * vm)
        return out

    def show(self, el: Element) -> str:
        return format_terms(self.basis.names, el.terms)

    # -- Maurer-Cartan and gauge ------------------------------------------

    def mc_residual(self, x: Element) -> Element:
        """dx + (1/2)[x,x]; input must be homogeneous of total degree 1."""
        if not x.is_zero() and x.degree(self.basis) != 1:
            raise DomainError("Maurer-Cartan argument must have total degree 1")
        return self.d(x) + self.bracket(x, x).scale(Fraction(1, 2))

    def is_mc(self, x: Element) -> bool:
        return self.mc_residual(x).is_zero()

    def gauge_apply(self, a: Element, w: Element) -> Element:
        """exp(a) acting on w:  w + sum_{n>=0} ad(a)^n/(n+1)! ([a,w] - da).

        Terminates by nilpotency of A (guarded)."""
        if not a.is_zero() and a.degree(self.basis) != 0:
            raise DomainError("gauge parameter must have total degree 0")
        if not w.is_zero() and w.degree(self.basis) != 1:
            raise DomainError("gauge target must have total degree 1")
        out = w.copy()
        term = self.bracket(a, w) - self.d(a)
        bound = (self.A.nilpotency_index or len(self.A.basis) + 2) + 2
        n = 0
        while not term.is_zero():
            if n > bound:
                raise InternalError("gauge series failed to terminate")
            add_into(out.terms, term.terms, Fraction(1, factorial(n + 1)))
            term = self.bracket(a, term)
            n += 1
        return out

    def bch_degree0(self, a: Element, b: Element) -> Element:
        """Baker-Campbell-Hausdorff product on the nilpotent Lie algebra
        (L (x) A)^0; terminates by nilpotency of A."""
        return bch_term_sum(a, b, self.bracket, max((self.A.nilpotency_index or 2) - 1, 1))


# ---------------------------------------------------------------------------
# Cohomology
# ---------------------------------------------------------------------------


def d_in_degree(structure, src, degree):
    """The terms dicts d(e_s), s in `src`, restricted to the basis indices
    of degree `degree`."""
    deg = structure.basis.degree
    return [
        {t: c for t, c in structure.d(Element.basis_vector(s)).terms.items()
         if deg(t) == degree}
        for s in src
    ]


def cohomology(structure, i: int):
    """Exact H^i of a _Tabled structure (DGLA or ArtinDg) or TensorDgla.

    Returns (representatives, project, dims) where `representatives` is a
    list of Elements spanning H^i, `project` maps a degree-i cycle to its
    coordinate list in that basis (raising DomainError on non-cycles), and
    dims = (dim Z^i, dim B^i, dim H^i).  Z^i is the kernel basis of d in
    degree i (linalg.kernel_basis), and a cycle is a representative when it
    is independent of the boundaries and the representatives before it.
    """
    idx_i = structure.basis.indices_of_degree(i)
    idx_prev = structure.basis.indices_of_degree(i - 1)
    # the equations of Z^i: row t of d from degree i to degree i + 1
    equations = {}
    for s, img in zip(idx_i, d_in_degree(structure, idx_i, i + 1)):
        for t, c in img.items():
            equations.setdefault(t, {})[s] = c
    z_vectors = linalg.kernel_basis(equations.values(), idx_i)
    b_vectors = [img for img in d_in_degree(structure, idx_prev, i) if img]

    kept = linalg.Echelon(b_vectors)
    b_rank = len(kept.rows)
    reps = [z for z in z_vectors if kept.insert(z)]
    rep_elements = [Element(dict(z)) for z in reps]

    def project(el: Element):
        for t in el.terms:
            if t not in idx_i:
                raise DomainError("element not concentrated in the requested degree")
        img = structure.d(el)
        if not img.is_zero():
            raise DomainError("cannot project a non-cycle to cohomology")
        coords = linalg.express_in_span(reps + b_vectors, el.terms)
        if coords is None:
            raise InternalError("cycle not in Z (projection inconsistency)")
        return coords[: len(reps)]

    dims = (len(z_vectors), b_rank, len(reps))
    return rep_elements, project, dims


# ---------------------------------------------------------------------------
# Small extensions, obstruction classes, mapping cones
# ---------------------------------------------------------------------------


class SmallExtension:
    """0 -> I -> A -> B -> 0 with A*I = 0; B is the induced structure on the
    complementary basis."""

    def __init__(self, total: ArtinDg, kernel_names):
        self.total = total
        self.kernel = tuple(sorted(total.basis.index(n) for n in kernel_names))
        kernel_set = set(self.kernel)
        if not kernel_set:
            raise InputError("small extension needs a nonempty kernel")
        # A*I = 0
        for i in range(len(total.basis)):
            for k in self.kernel:
                if k in total.rows[i]:
                    raise StructureError(
                        f"A*I != 0: {total.basis.names[i]} * {total.basis.names[k]}"
                    )
        # d(I) inside I
        for k in self.kernel:
            if any(t not in kernel_set for t in total.d_images.get(k, {})):
                raise StructureError("kernel is not a differential ideal")
        self.quotient_indices = tuple(
            i for i in range(len(total.basis)) if i not in kernel_set
        )
        qnames = tuple(total.basis.names[i] for i in self.quotient_indices)
        qdegs = tuple(total.basis.degrees[i] for i in self.quotient_indices)
        self._q_pos = {i: p for p, i in enumerate(self.quotient_indices)}
        qtable = {}
        qdiff = {}
        for (i, j), val in total.table.items():
            if i in kernel_set or j in kernel_set:
                continue
            qtable[(self._q_pos[i], self._q_pos[j])] = self._project(val)
        for i, val in total.diff.items():
            if i in kernel_set:
                continue
            pr = self._project(val)
            if not pr.is_zero():
                qdiff[self._q_pos[i]] = pr
        self.quotient = ArtinDg(GradedBasis(qnames, qdegs), qtable, qdiff)

    def _project(self, el: Element) -> Element:
        return Element(
            {self._q_pos[t]: c for t, c in el.terms.items() if t in self._q_pos}
        )

    def kernel_complex_acyclic(self) -> bool:
        return _subcomplex_acyclic(self.total, list(self.kernel))


def obstruction_class(L: DGLA, ext: SmallExtension, x_over_b: Element):
    """Obstruction of a Maurer-Cartan element over B to lifting over A.

    x_over_b lives in the tensor DGLA L (x) B.  Returns a dict with the
    kernel-indexed cycle h, its cohomology class coordinates, the H^2 data,
    and (when the class vanishes) a certified Maurer-Cartan lift.
    """
    if ext.total.nilpotency_index is None:
        raise StructureError("extension total algebra is not nilpotent")
    MB = TensorDgla(L, ext.quotient)
    if not MB.is_mc(x_over_b):
        raise DomainError("element is not Maurer-Cartan over the quotient")
    MA = TensorDgla(L, ext.total)

    # lift through the basis-wise section
    lift = Element()
    for p, c in x_over_b.terms.items():
        i, jb = MB.pairs[p]
        ja = ext.quotient_indices[jb]
        lift.add_term(MA.pair_index[(i, ja)], c)

    h = MA.mc_residual(lift)
    kernel_set = set(ext.kernel)
    by_kernel = {}
    for p, c in h.terms.items():
        i, j = MA.pairs[p]
        if j not in kernel_set:
            raise InternalError("obstruction residual escapes L (x) I")
        by_kernel.setdefault(j, Element()).add_term(i, c)

    reps, project, dims = cohomology(L, 2)
    classes = {}
    for j in sorted(kernel_set):
        comp = by_kernel.get(j, Element())
        if not L.d(comp).is_zero():
            raise InternalError("obstruction component is not a cycle")
        classes[ext.total.basis.names[j]] = project(comp)

    vanishes = all(all(c == 0 for c in v) for v in classes.values())
    result = {
        "h": by_kernel,
        "classes": classes,
        "h2_dim": dims[2],
        "vanishes": vanishes,
        "lift": None,
    }
    if vanishes:
        # solve d z_j = h_j in L^1 for each kernel coordinate
        correction = Element()
        idx1 = L.basis.indices_of_degree(1)
        images = d_in_degree(L, idx1, 2)
        deg = L.basis.degree
        for j, comp in by_kernel.items():
            rhs = {t: c for t, c in comp.terms.items() if deg(t) == 2}
            sol = linalg.express_in_span(images, rhs)
            if sol is None:
                raise InternalError("vanishing class but unsolvable d z = h")
            for s_pos, c in enumerate(sol):
                if c:
                    correction.add_term(MA.pair_index[(idx1[s_pos], j)], c)
        candidate = lift - correction
        if not MA.is_mc(candidate):
            raise InternalError("constructed lift fails Maurer-Cartan")
        result["lift"] = candidate
    return result


def cones(ext: SmallExtension):
    """Mapping cone C = A (+) I[1] and, when B is a complex (A^2 in I),
    the inverse cone D = A (+) B[-1]; returns (C, D_or_None, report)."""
    rep = CheckReport("cones")
    A = ext.total
    kernel_set = set(ext.kernel)
    n = len(A.basis)

    # --- C = A (+) I[1]
    names = list(A.basis.names) + [A.basis.names[k] + "'" for k in ext.kernel]
    degs = list(A.basis.degrees) + [A.basis.degrees[k] - 1 for k in ext.kernel]
    shift_pos = {k: n + t for t, k in enumerate(ext.kernel)}
    table = {(i, j): v.copy() for (i, j), v in A.table.items()}
    diff = {i: v.copy() for i, v in A.diff.items()}
    for k in ext.kernel:
        dk = Element.basis_vector(k)  # iota(m)
        for t, c in A.d_images.get(k, {}).items():
            dk.add_term(shift_pos[t], -c)  # -(d_I m) shifted
        diff[shift_pos[k]] = dk
    C = ArtinDg(GradedBasis(tuple(names), tuple(degs)), table, diff)

    c_check = check_na(C)
    rep.merge(c_check, prefix="cone C: ")

    # kernel of C -> B is I (+) I[1]; verify it is acyclic
    sub_idx = sorted(list(kernel_set) + [shift_pos[k] for k in ext.kernel])
    acyclic = _subcomplex_acyclic(C, sub_idx)
    if not acyclic:
        rep.add("cone C kernel", "", "kernel complex I (+) I[1] is not acyclic")

    # --- D = A (+) B[-1], only when B is a complex (A^2 in I)
    b_is_complex = True
    for (i, j) in A.table:
        prod = A.table[(i, j)]
        if any(t not in kernel_set for t in prod.terms):
            b_is_complex = False
            break
    D = None
    if b_is_complex:
        q_idx = ext.quotient_indices
        dnames = list(A.basis.names) + [A.basis.names[q] + "''" for q in q_idx]
        ddegs = list(A.basis.degrees) + [A.basis.degrees[q] + 1 for q in q_idx]
        opp_pos = {q: n + t for t, q in enumerate(q_idx)}
        dtable = {(i, j): v.copy() for (i, j), v in A.table.items()}
        ddiff = {}
        for i in range(n):
            di = Element(A.d_images.get(i, {}))
            if i in opp_pos:
                di.add_term(opp_pos[i], Fraction(1))  # alpha(x) in B[-1]
            if not di.is_zero():
                ddiff[i] = di
        for q in q_idx:
            img = Element()
            for t, c in A.d_images.get(q, {}).items():
                if t in opp_pos:
                    img.add_term(opp_pos[t], -c)  # -(d_B b) shifted
            if not img.is_zero():
                ddiff[opp_pos[q]] = img
        D = ArtinDg(GradedBasis(tuple(dnames), tuple(ddegs)), dtable, ddiff)
        rep.merge(check_na(D), prefix="cone D: ")
    else:
        rep.info = {"inverse_cone": "skipped: B is not a complex (A^2 not in I)"}
    return C, D, rep


def _subcomplex_acyclic(structure, indices) -> bool:
    """Whether d maps the span of `indices` into itself and that
    subcomplex has zero cohomology in every degree."""
    idx_set = set(indices)
    by_degree = {}
    for s in indices:
        if not idx_set.issuperset(structure.d_images.get(s, {})):
            return False
        by_degree.setdefault(structure.basis.degree(s), []).append(s)
    # d maps the span into itself, so the degree-(dgr + 1) part of d(e_s)
    # lies in the span's degree dgr + 1
    for dgr, here in by_degree.items():
        below = by_degree.get(dgr - 1, ())
        out_rank = linalg.rank(d_in_degree(structure, here, dgr + 1))
        b_dim = linalg.rank(d_in_degree(structure, below, dgr))
        if len(here) - out_rank != b_dim:
            return False
    return True


# ---------------------------------------------------------------------------
# Exponential of nilpotent derivations
# ---------------------------------------------------------------------------


class ExpDerivation:
    """e^d for a degree-0 derivation d of R valued in R (x) m_A, acting as an
    automorphism of R (x) (K + m_A).

    Elements of R (x) (K + m_A) are sparse maps {(r_index, a_index): coeff}
    with a_index = -1 denoting the unit of the base.
    """

    UNIT = -1

    def __init__(self, R: GradedCommAlgebra, A: ArtinDg, values):
        if not A.is_classical():
            raise InputError("derivation exponentials need a degree-0 base")
        self.R = R
        self.A = A
        self.values = {r: dict(v) for r, v in values.items()}  # r -> {(ri,ai): c}
        leib = self.leibnitz_report()
        if not leib.ok():
            raise DomainError("input is not a derivation:\n" + leib.text())

    # elements -------------------------------------------------------------

    def embed(self, r_index, a_index=UNIT):
        return {(r_index, a_index): Fraction(1)}

    def _mul(self, x, y):
        out = {}
        for (r1, a1), c1 in x.items():
            for (r2, a2), c2 in y.items():
                rr = self.R.rows[r1].get(r2, {})
                if a1 == self.UNIT and a2 == self.UNIT:
                    aa = {self.UNIT: Fraction(1)}
                elif a1 == self.UNIT:
                    aa = {a2: Fraction(1)}
                elif a2 == self.UNIT:
                    aa = {a1: Fraction(1)}
                else:
                    aa = self.A.rows[a1].get(a2, {})
                prod = {
                    (rk, ak): rv * av for rk, rv in rr.items() for ak, av in aa.items()
                }
                add_into(out, prod, c1 * c2)
        return out

    def _apply_d(self, x):
        out = {}
        for (r, a), c in x.items():
            for (rk, ak), v in self.values.get(r, {}).items():
                if ak == self.UNIT:
                    raise InputError("derivation values must lie in R (x) m_A")
                if a == self.UNIT:
                    keys = {ak: Fraction(1)}
                else:
                    keys = self.A.rows[ak].get(a, {})
                add_into(out, {(rk, am): cm for am, cm in keys.items()}, c * v)
        return out

    def leibnitz_report(self) -> CheckReport:
        names = self.R.basis.names

        def leibnitz(i, j):
            lhs = lin_into({}, self.values, self.R.rows[i].get(j, {}))
            rhs = self._mul(self.values.get(i, {}), self.embed(j))
            add_into(rhs, self._mul(self.embed(i), self.values.get(j, {})))
            return add_into(lhs, rhs, -1)

        pairs = admitted(len(names), 2)
        steps = [(pairs, [("leibnitz({},{})", "derivation rule fails", leibnitz)])]
        rep = CheckReport("exp-der-leibnitz")
        return report_violations(rep, names.__getitem__, str, steps)

    def apply(self, x):
        """e^d(x) = sum d^n(x)/n!; terminates by nilpotency of m_A."""
        out = dict(x)
        term = dict(x)
        bound = (self.A.nilpotency_index or len(self.A.basis) + 2) + 2
        n = 1
        while term:
            term = self._apply_d(term)
            if not term:
                break
            if n > bound:
                raise InternalError("derivation exponential failed to terminate")
            add_into(out, term, Fraction(1, factorial(n)))
            n += 1
        return out

    def verify(self) -> CheckReport:
        """Multiplicativity on basis pairs, identity mod m_A, and
        e^d e^{-d} = id.  Each residual is the text of a raw dict in a
        tuple: the last two can print {} on failure."""
        names = self.R.basis.names
        images = [self.apply(self.embed(i)) for i in range(len(names))]
        negated = {r: {k: -c for k, c in v.items()} for r, v in self.values.items()}
        back = [ExpDerivation(self.R, self.A, negated).apply(x) for x in images]
        reduced = [{k: c for k, c in x.items() if k[1] == self.UNIT} for x in images]

        def mult(i, j):
            lhs = self.apply(self._mul(self.embed(i), self.embed(j)))
            res = add_into(lhs, self._mul(images[i], images[j]), -1)
            return res and (str(res),)

        def fixes(values):  # res(i) of values[i] = e_i
            return lambda i: None if values[i] == self.embed(i) else (str(values[i]),)

        fixed = [
            ("inverse({})", "e^d e^{-d} != id", fixes(back)),
            ("reduction({})", "e^d is not the identity mod m_A", fixes(reduced)),
        ]
        steps = [
            (admitted(len(names), 2), [("mult({},{})", "e^d is not multiplicative", mult)]),
            ([(i,) for i in range(len(names))], fixed),
        ]
        rep = CheckReport("exp-der")
        return report_violations(rep, names.__getitem__, itemgetter(0), steps)


# ---------------------------------------------------------------------------
# Homotopies valued in B[t, dt]
# ---------------------------------------------------------------------------


class DtPolynomial(Element):
    """Element of B[t,dt]: sparse map {(b_index, t_power, has_dt): coeff}."""

    __slots__ = ("B",)

    def __init__(self, B: ArtinDg, terms=None):
        self.B = B
        Element.__init__(self, terms)

    def mul(self, other) -> "DtPolynomial":
        out = DtPolynomial(self.B)
        for (b1, k1, dt1), c1 in self.terms.items():
            for (b2, k2, dt2), c2 in other.terms.items():
                if dt1 and dt2:
                    continue
                # move the dt (degree 1) in the first factor past b2
                sign = 1
                if dt1 and self.B.basis.degree(b2) % 2:
                    sign = -1
                for bk, bv in self.B.rows[b1].get(b2, {}).items():
                    out.add_term((bk, k1 + k2, dt1 or dt2), c1 * c2 * bv * sign)
        return out

    def d(self) -> "DtPolynomial":
        """Total differential: d_B (x) 1 + sign (x) d_{K[t,dt]}."""
        out = DtPolynomial(self.B)
        for (b, k, dt), c in self.terms.items():
            for bk, bv in self.B.d_images.get(b, {}).items():
                out.add_term((bk, k, dt), c * bv)
            if not dt and k > 0:
                sign = -1 if self.B.basis.degree(b) % 2 else 1
                out.add_term((b, k - 1, True), c * k * sign)
        return out

    def eval_at(self, s: Fraction) -> Element:
        """Substitute t = s, dt = 0."""
        out = Element()
        for (b, k, dt), c in self.terms.items():
            if dt:
                continue
            out.add_term(b, c * (s ** k))
        return out


class Homotopy:
    """A candidate dg-algebra morphism H: A -> B[t,dt], one DtPolynomial per
    basis element of A."""

    def __init__(self, source: ArtinDg, target: ArtinDg, entries):
        self.A = source
        self.B = target
        self.entries = {}
        for i, poly in entries.items():
            self.entries[i] = (
                poly if isinstance(poly, DtPolynomial) else DtPolynomial(target, poly)
            )

    def apply(self, x: Element) -> DtPolynomial:
        out = DtPolynomial(self.B)
        for i, c in x.terms.items():
            if i in self.entries:
                add_into(out.terms, self.entries[i].terms, c)
        return out

    def verify(self) -> CheckReport:
        """Multiplicativity and commutation with the differentials."""
        A, H = self.A, lambda terms: self.apply(Element(terms))
        chain = lambda i: (H(A.d_images.get(i, {})) - H({i: 1}).d()).terms
        mult = lambda i, j: (H(A.rows[i].get(j, {})) - H({i: 1}).mul(H({j: 1}))).terms
        n = len(A.basis)
        message = "H does not commute with the differentials"
        steps = [
            (admitted(n, 1), [("chain({})", message, chain)]),
            (admitted(n, 2), [("mult({},{})", "H is not multiplicative", mult)]),
        ]
        rep = CheckReport("homotopy-eval")
        return report_violations(rep, A.basis.names.__getitem__, str, steps)

    def eval_at(self, s) -> dict:
        """The algebra map e_s o H: A -> B as a basis-indexed table."""
        return {i: self.entries[i].eval_at(Fraction(s)) for i in self.entries}
