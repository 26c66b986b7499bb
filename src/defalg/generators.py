"""Seeded random-instance generators for the property suites.

Structure constants are drawn from {-2..2}; instances come from families
that satisfy the axioms by construction and are then re-verified with the
checkers (draw-and-reject at the family level).
"""

from __future__ import annotations

from fractions import Fraction

from .coalg import all_words
from .core import Element, GradedBasis
from .dgla import DGLA, ArtinDg, TensorDgla, check_dgla
from .errors import InternalError
from .linfty import LInftyStructure, check_linfty, from_dgla, suspend_basis


def _coeff(rng):
    return Fraction(rng.randint(-2, 2))


def random_complex(rng, max_dim=4, degree_span=(-1, 2)):
    """Graded basis with a two-block differential (sources map to targets of
    the next degree, targets are closed): d^2 = 0 by construction."""
    dim = rng.randint(2, max_dim)
    names = tuple(f"v{i}" for i in range(dim))
    degrees = tuple(
        rng.randint(degree_span[0], degree_span[1]) for _ in range(dim)
    )
    basis = GradedBasis(names, degrees)
    roles = [rng.choice("st") for _ in range(dim)]
    diff = {}
    for i in range(dim):
        if roles[i] != "s":
            continue
        img = Element()
        for j in range(dim):
            if roles[j] == "t" and degrees[j] == degrees[i] + 1:
                c = _coeff(rng)
                if c:
                    img.add_term(j, c)
        if not img.is_zero():
            diff[i] = img
    return basis, diff


def random_abelian_dgla(rng) -> DGLA:
    basis, diff = random_complex(rng, 5)
    return DGLA(basis, {}, diff)


def endo_dgla(rng, v_dim=2, degree_span=(0, 1)) -> DGLA:
    """End(V) for a random two-term complex V: commutator bracket,
    differential [d, -]; a DGLA by construction, verified anyway."""
    basis_v, diff_v = random_complex(rng, v_dim, degree_span=degree_span)
    dim = len(basis_v)
    names = []
    degrees = []
    pairs = []
    for i in range(dim):
        for j in range(dim):
            pairs.append((i, j))
            names.append(f"E{i}{j}")
            degrees.append(basis_v.degree(i) - basis_v.degree(j))
    basis = GradedBasis(tuple(names), tuple(degrees))
    index = {p: k for k, p in enumerate(pairs)}

    def compose(p, q):
        # E_{ij} o E_{kl} = delta_{jk} E_{il}
        (i, j), (k, l) = p, q
        return index[(i, l)] if j == k else None

    table = {}
    for a, p in enumerate(pairs):
        for b, q in enumerate(pairs):
            out = Element()
            c1 = compose(p, q)
            if c1 is not None:
                out.add_term(c1, Fraction(1))
            c2 = compose(q, p)
            if c2 is not None:
                sign = (-1) ** ((basis.degree(a) * basis.degree(b)) % 2)
                out.add_term(c2, Fraction(-sign))
            if not out.is_zero():
                table[(a, b)] = out

    # d(E_{ij}) = d_V o E_{ij} - (-1)^{deg} E_{ij} o d_V
    diff = {}
    for a, (i, j) in enumerate(pairs):
        img = Element()
        for k, c in diff_v.get(i, Element()).terms.items():
            img.add_term(index[(k, j)], c)
        sign = (-1) ** (basis.degree(a) % 2)
        for src in range(dim):
            for k, c in diff_v.get(src, Element()).terms.items():
                if k == j:
                    img.add_term(index[(i, src)], -sign * c)
        if not img.is_zero():
            diff[a] = img
    return DGLA(basis, table, diff)


def random_dgla(rng) -> DGLA:
    """A verified random DGLA from the mixed family pool."""
    for _ in range(40):
        kind = rng.choice(("abelian", "endo", "endo2", "heis", "oddsq"))
        if kind == "abelian":
            L = random_abelian_dgla(rng)
        elif kind == "endo":
            L = endo_dgla(rng, v_dim=2)
        elif kind == "endo2":
            L = endo_dgla(rng, v_dim=2, degree_span=(0, 2))
        elif kind == "oddsq":
            # d(a) = b, d(x) = c y, [x, x] = c' y: live quadratic term
            basis = GradedBasis.of(("a", 0), ("x", 1), ("b", 1), ("y", 2))
            c1 = _coeff(rng)
            c2 = _coeff(rng) or Fraction(1)
            table = {(1, 1): Element.basis_vector(3, c2)}
            diff = {0: Element.basis_vector(2)}
            if c1:
                diff[1] = Element.basis_vector(3, c1)
            L = DGLA(basis, table, diff)
        else:
            # Heisenberg in degree 0 acting on a degree-1 module
            basis = GradedBasis.of(("a", 0), ("b", 0), ("c", 0), ("x", 1), ("y", 1))
            table = {(0, 1): Element.basis_vector(2)}
            if rng.random() < 0.7:
                table[(0, 3)] = Element.basis_vector(4, _coeff(rng) or Fraction(1))
            L = DGLA(basis, table, {})
        if check_dgla(L).ok():
            return L
    raise InternalError("random DGLA pool failed to produce a valid instance")


def random_classical_artin(rng) -> ArtinDg:
    """Maximal ideal of a monomial quotient K[t]/(t^s) or K[t,u]/(cap)."""
    if rng.random() < 0.5:
        s = rng.randint(2, 4)
        names = tuple(f"t{k}" if k > 1 else "t" for k in range(1, s))
        basis = GradedBasis(names, (0,) * (s - 1))
        table = {}
        for i in range(1, s):
            for j in range(1, s):
                if i + j < s:
                    table[(i - 1, j - 1)] = Element.basis_vector(i + j - 1)
        return ArtinDg(basis, table, {})
    cap = rng.randint(2, 3)
    monos = [
        (a, b)
        for a in range(cap + 1)
        for b in range(cap + 1)
        if 1 <= a + b <= cap
    ]
    names = tuple(f"t{a}u{b}" for a, b in monos)
    basis = GradedBasis(names, (0,) * len(monos))
    index = {m: i for i, m in enumerate(monos)}
    table = {}
    for i, (a1, b1) in enumerate(monos):
        for j, (a2, b2) in enumerate(monos):
            tgt = (a1 + a2, b1 + b2)
            if tgt in index:
                table[(i, j)] = Element.basis_vector(index[tgt])
    return ArtinDg(basis, table, {})


def random_mc_pair(rng, L: DGLA, A: ArtinDg):
    """(M, a, w): the tensor algebra, a random degree-0 gauge parameter, and
    a Maurer-Cartan element produced as a gauge translate of zero (plus a
    random cycle when the bracket vanishes on it)."""
    M = TensorDgla(L, A)
    a = Element()
    w_seed = Element()
    for p in range(len(M.basis)):
        if M.basis.degree(p) == 0:
            c = _coeff(rng)
            if c:
                a.add_term(p, c)
    w = M.gauge_apply(a, Element())
    if not M.is_mc(w):
        raise InternalError("gauge orbit of zero is not Maurer-Cartan")
    b = Element()
    for p in range(len(M.basis)):
        if M.basis.degree(p) == 0 and rng.random() < 0.5:
            c = _coeff(rng)
            if c:
                b.add_term(p, c)
    return M, a, b, w


def random_linfty(rng) -> LInftyStructure:
    """Family pool: structures from DGLAs, and minimal structures whose only
    component is a central-valued cubic bracket (generalized Jacobi holds
    structurally)."""
    if rng.random() < 0.5:
        return from_dgla(random_dgla(rng))
    k = rng.randint(2, 3)
    # shifted degrees: u_i 0, z 1, spare s 2 (s is inert in the valid
    # structure; it gives violation injection a live target)
    names = tuple(f"u{i}" for i in range(k)) + ("z", "s")
    space = GradedBasis(names, tuple([1] * k + [2, 3]))
    shifted = suspend_basis(space)
    table3 = {}
    for word in all_words(shifted, 3, min_len=3):
        if any(i >= k for i in word):
            continue
        c = _coeff(rng)
        if c:
            table3[word] = Element.basis_vector(k, c)
    table2 = {}
    if rng.random() < 0.5:
        for word in all_words(shifted, 2, min_len=2):
            if any(i >= k for i in word):
                continue
            c = _coeff(rng)
            if c:
                table2[word] = Element.basis_vector(k, c)
    return LInftyStructure(space, {2: table2, 3: table3})


def inject_linfty_violation(rng, S: LInftyStructure) -> LInftyStructure:
    """Perturb one component so the generalized Jacobi identity fails."""
    shifted = S.shifted

    attempts = []
    for arity in (2, 1):
        for word in all_words(shifted, arity, min_len=arity):
            attempts.append((arity, word))
    rng.shuffle(attempts)
    for arity, word in attempts:
        want = sum(shifted.degree(i) for i in word) + 1
        targets = [i for i in range(len(shifted)) if shifted.degree(i) == want]
        if not targets:
            continue
        tgt = rng.choice(targets)
        tables = {k: dict(t) for k, t in S.components.tables.items()}
        table = tables.setdefault(arity, {})
        table[word] = table.get(word, Element()) + Element.basis_vector(tgt)
        if table[word].is_zero():
            continue
        candidate = LInftyStructure(S.space, tables)
        if not check_linfty(candidate, 5).ok():
            return candidate
    return None  # some tiny spaces admit no invalid single perturbation


def inject_dgla_violation(rng, L: DGLA) -> DGLA:
    """Perturb the bracket so Jacobi or Leibnitz fails.  Only off-diagonal
    pairs are perturbed (the perturbation stays degree-compatible and
    antisymmetric, so the failure is genuinely structural and survives the
    suspension encoding)."""
    basis = L.basis
    n = len(basis)
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    rng.shuffle(pairs)
    for (i, j) in pairs:
        want = basis.degree(i) + basis.degree(j)
        targets = [t for t in range(n) if basis.degree(t) == want]
        if not targets:
            continue
        tgt = rng.choice(targets)
        table = {k: v.copy() for k, v in L.table.items()}
        prev = table.get((i, j), Element())
        new = prev + Element.basis_vector(tgt)
        table[(i, j)] = new
        # keep antisymmetry so the failure lands in Jacobi/Leibnitz
        sign = (-1) ** ((basis.degree(i) * basis.degree(j)) % 2)
        table[(j, i)] = new.scale(Fraction(-sign))
        candidate = DGLA(basis, table, {k: v.copy() for k, v in L.diff.items()})
        if not check_dgla(candidate).ok():
            return candidate
    return None  # e.g. abelian one-degree spaces admit no bracket violation
