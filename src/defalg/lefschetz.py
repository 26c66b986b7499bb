"""The exterior algebra of a Hermitian space in its standard basis: the
operators L, Lambda, C, *, the projections, exact verification of the
commutation relations, primitivity testing and the Lefschetz decomposition.

Basis symbols are indexed by four disjoint sets (A, B, M, N) partitioning
{1..n}; bidegree (|A|+|M|, |B|+|M|); weight = |N| - |M| = n - total degree.
The * operator is DEFINED through its explicit swap form composed with C
(sign ledger X1); the wedge characterization is a verified invariant, not a
definition.
"""

from __future__ import annotations

import itertools
from bisect import bisect
from fractions import Fraction
from functools import lru_cache, partial
from math import factorial
from operator import itemgetter

from .core import Element, add_term, odd, report_violations, sym_canonical
from .errors import DomainError, InputError
from .report import CheckReport
from .scalars import GaussianScalar, format_gaussian

# keys are (A, B, M, N): four sorted tuples of 1-based indices; a covector
# term is keyed by (key, part), part 0 holding the real and part 1 the
# imaginary part of the coefficient of the symbol key (sign ledger X1)


def make_key(n, A, B, M, N):
    A, B, M, N = (tuple(sorted(s)) for s in (A, B, M, N))
    union = list(A) + list(B) + list(M) + list(N)
    if sorted(union) != list(range(1, n + 1)):
        raise InputError(f"(A,B,M,N) must partition 1..{n}: got {(A,B,M,N)}")
    return (A, B, M, N)


def _keys(assignments):
    """The key of each assignment (slot of 1, slot of 2, ...), slots 0..3
    being A, B, M, N."""
    out = []
    for assignment in assignments:
        A, B, M, N = [], [], [], []
        for idx, slot in enumerate(assignment, 1):
            (A, B, M, N)[slot].append(idx)
        out.append((tuple(A), tuple(B), tuple(M), tuple(N)))
    return out


def all_keys(n):
    return _keys(itertools.product(range(4), repeat=n))


def orbit_keys(n):
    """One key per orbit of relabeling 1..n: A, B, M, N are consecutive runs
    from 1, one key per (|A|, |B|, |M|, |N|), C(n + 3, 3) of the 4^n, in
    the order of `all_keys` (sign ledger X3)."""
    return _keys(itertools.combinations_with_replacement(range(4), n))


def bidegree(key):
    A, B, M, N = key
    return (len(A) + len(M), len(B) + len(M))


def total_degree(key):
    a, b = bidegree(key)
    return a + b


def weight(key):
    _, _, M, N = key
    return len(N) - len(M)


# _TURN[part][t] = (part', sign) with i^part * i^t = sign * i^part': t
# quarter turns of a part, and for t in (0, 1) the product of two parts
_TURN = (
    ((0, 1), (1, 1), (0, -1), (1, -1)),
    ((1, 1), (0, -1), (1, -1), (0, 1)),
)


def coefficients(terms) -> dict:
    """key -> [re, im] of a terms dict keyed by (key, part), in the order
    each key first occurs."""
    out = {}
    for (key, part), c in terms.items():
        out.setdefault(key, [0, 0])[part] = c
    return out


class CovectorElement(Element):
    """Sparse exact combination of standard basis symbols over Q(i), stored
    over Q: the term (key, 0) is the real part of the coefficient of the
    symbol key and (key, 1) its imaginary part, each an int or a Fraction."""

    __slots__ = ("n",)
    _compared = ("n",)

    def __init__(self, n, terms=None):
        self.n = n
        Element.__init__(self, terms)

    @staticmethod
    def basis(n, key, coeff=1):
        return CovectorElement(n, {(key, 0): coeff})

    def add_term(self, key, coeff):
        """Add coeff, a rational or a GaussianScalar, to the coefficient of
        the symbol key."""
        if type(coeff) is GaussianScalar:
            add_term(self.terms, (key, 0), coeff.re)
            add_term(self.terms, (key, 1), coeff.im)
        else:
            add_term(self.terms, (key, 0), coeff)

    def homogeneous_degree(self):
        degs = {total_degree(k) for k, _ in self.terms}
        if len(degs) > 1:
            raise DomainError("inhomogeneous covector")
        return degs.pop() if degs else None

    def conjugate(self) -> "CovectorElement":
        """z_{A,B,M,N} -> (-1)^{|A||B|} z_{B,A,M,N}, conjugating each
        coefficient: part 1 is negated."""
        return self._like(
            {
                ((B, A, M, N), part): -c if (part + len(A) * len(B)) % 2 else c
                for ((A, B, M, N), part), c in self.terms.items()
            }
        )

    def __repr__(self):
        def show(key):
            A, B, M, N = key
            return f"z[A={A},B={B},M={M},N={N}]"

        return (
            " + ".join(
                f"({format_gaussian(re, im)})*{show(k)}"
                for k, (re, im) in sorted(coefficients(self.terms).items())
            )
            or "0"
        )


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------
#
# Every operator sends one basis key to at most n keys, each with a
# coefficient i^t (sign ledger X1).  So an operator is a row function
# key -> ((key', t), ...), and `_apply` sums the image of a covector into one
# dict, turning each part by t quarter turns (`_TURN`) instead of multiplying.


def _apply(row, v: CovectorElement) -> CovectorElement:
    out = {}
    images = {}  # the row of each key, shared by its two parts
    for (key, part), c in v.terms.items():
        image = images.get(key)
        if image is None:
            image = images[key] = row(key)
        turns = _TURN[part]
        for k2, t in image:
            part2, sign = turns[t]
            add_term(out, (k2, part2), c if sign > 0 else -c)
    return v._like(out)


def _insert(s, i):
    j = bisect(s, i)
    return s[:j] + (i,) + s[j:]


def _raise(key, i):
    """L_i on a key whose N holds i: move i from N to M."""
    A, B, M, N = key
    return (A, B, _insert(M, i), tuple(x for x in N if x != i))


def _lower(key, i):
    """Lambda_i on a key whose M holds i: move i from M to N."""
    A, B, M, N = key
    return (A, B, tuple(x for x in M if x != i), _insert(N, i))


def _row_L(key):
    return [(_raise(key, i), 0) for i in key[3]]


def _row_Lambda(key):
    return [(_lower(key, i), 0) for i in key[2]]


def _row_C(key):
    # bidegree (a, b) has a - b = |A| - |B|
    return ((key, (len(key[0]) - len(key[1])) % 4),)


def _row_c_inv_star(key):
    """(-1)^{(p+q)(p+q+1)/2 + |M|} z_{A,B,N,M}, the sign as 0 or 2 turns."""
    A, B, M, N = key
    pq = len(A) + len(B) + 2 * len(M)
    return (((A, B, N, M), 2 * ((pq * (pq + 1) // 2 + len(M)) % 2)),)


def _row_star(key):
    """C composed with the swap row: the image (A, B, N, M) has
    a - b = |A| - |B|, so * adds that many quarter turns."""
    ((k2, t),) = _row_c_inv_star(key)
    return ((k2, (t + len(key[0]) - len(key[1])) % 4),)


def _row_parity(key):
    """(-1)^{p+q} on a basis symbol of total degree p + q."""
    return ((key, 2 * ((len(key[0]) + len(key[1])) % 2)),)


def op_L(v: CovectorElement) -> CovectorElement:
    return _apply(_row_L, v)


def op_Lambda(v: CovectorElement) -> CovectorElement:
    return _apply(_row_Lambda, v)


def op_C(v: CovectorElement) -> CovectorElement:
    return _apply(_row_C, v)


def op_c_inv_star(v: CovectorElement) -> CovectorElement:
    """C^{-1}*: the fully explicit swap form
    (-1)^{(p+q)(p+q+1)/2 + |M|} z_{A,B,N,M}."""
    return _apply(_row_c_inv_star, v)


def op_star(v: CovectorElement) -> CovectorElement:
    """* = C applied to the explicit swap image, as one composed row."""
    return _apply(_row_star, v)


def op_power(op, k, v):
    for _ in range(k):
        v = op(v)
    return v


def _l_powers(v, k):
    """[v, L v, ..., L^k v]."""
    return list(itertools.accumulate(range(k), lambda w, _: op_L(w), initial=v))


# ---------------------------------------------------------------------------
# The wedge-expansion oracle
# ---------------------------------------------------------------------------
#
# Raw exterior algebra over Z[i] on 2n odd letters z_1..z_n, zbar_1..zbar_n
# (letter j in 0..n-1 is z_{j+1}, letter n+j is zbar_{j+1}).  Basis symbols
# expand as z_A ^ zbar_B ^ u_M with u_j = (i/2) z_j ^ zbar_j.  The oracle
# writes no power of two: an expansion has i for each u_j, and the 2^{-s/2}
# normalizations, which pair to 2^{-s}, and the halves are restored by
# comparing both sides of the wedge identity times 2^n.  So every
# coefficient is a Gaussian integer, kept as int parts under (word, part)
# keys as a covector keeps its terms.  Raw words sort by the one signed sort
# with every letter odd (sign ledger X1).


def raw_expand(n, key) -> dict:
    """Un-normalized expansion of a standard basis symbol: map from (sorted
    letter tuple, part) to an int; the true symbol is
    2^{-(|A|+|B|)/2 - |M|} times this (i per u_j)."""
    A, B, M, N = key
    letters = [a - 1 for a in A] + [n + b - 1 for b in B]
    for j in M:
        letters += [j - 1, n + j - 1]
    canon = sym_canonical(letters, odd)
    if canon is None:
        return {}
    word, sign = canon
    part, turn = _TURN[0][len(M) % 4]
    return {(word, part): turn * sign}


def raw_wedge(x: dict, y: dict) -> dict:
    """x ^ y; the parts multiply as i^p1 * i^p2 (`_TURN`)."""
    out = {}
    for (w1, p1), c1 in x.items():
        for (w2, p2), c2 in y.items():
            canon = sym_canonical(w1 + w2, odd)
            if canon is not None:
                part, sign = _TURN[p1][p2]
                add_term(out, (canon[0], part), sign * canon[1] * c1 * c2)
    return out


def raw_volume(n) -> dict:
    """(i z_1 ^ zbar_1) ^ ... ^ (i z_n ^ zbar_n): 2^n u_1 ^ ... ^ u_n."""
    out = {((), 0): 1}
    for j in range(1, n + 1):
        out = raw_wedge(out, {((j - 1, n + j - 1), 1): 1})
    return out


def _residual(lhs, rhs):
    """None when lhs = rhs, else the text of lhs - rhs in a tuple, as every
    residual of this module: a text "" or "{}" still marks a failure."""
    return None if lhs == rhs else (repr(lhs - rhs),)


def wedge_identity_report(n) -> CheckReport:
    """Defining wedge characterization, checked for every basis symbol:
    z ^ *(conj z) = z ^ conj(*z) = u_1 ^ ... ^ u_n.

    Both sides are compared times 2^n, in Z[i].  The term of an image key w
    carries 2^{-(s + |M_z| + |M_w|)} with s = |A|+|B| of z, so it is scaled
    by 2^{n - s - |M_z| - |M_w|}: an integer, because the raw wedge is zero
    unless M_w avoids A, B and M_z.  For * itself M_w = N_z and the factor
    is 1.  A failure prints the sum times 2^{-n}, the true wedge product."""
    vol = raw_volume(n)
    unit = Fraction(1, 2**n)

    @lru_cache(maxsize=1)  # both sides of * share their one image key
    def wedge(key, okey):
        return raw_wedge(raw_expand(n, key), raw_expand(n, okey))

    def side(image, key):
        spare = n - len(key[0]) - len(key[1]) - len(key[2])
        total = {}
        for (okey, opart), ocoeff in image(CovectorElement.basis(n, key)).terms.items():
            w = wedge(key, okey)
            if w:
                c = ocoeff * (1 << (spare - len(okey[2])))
                for (word, part), wc in w.items():
                    part2, sign = _TURN[part][opart]
                    add_term(total, (word, part2), sign * c * wc)
        if total != vol:
            shown = ", ".join(
                f"{w}: {format_gaussian(re * unit, im * unit)}"
                for w, (re, im) in coefficients(total).items()
            )
            return (f"{{{shown}}}",)

    star_conj = partial(side, lambda z: op_star(z.conjugate()))
    conj_star = partial(side, lambda z: op_star(z).conjugate())
    identities = [
        ("z ^ *(conj z) at {}", "wedge identity fails", star_conj),
        ("z ^ conj(*z) at {}", "wedge identity fails", conj_star),
    ]
    steps = [([(key,) for key in all_keys(n)], identities)]
    return report_violations(CheckReport("wedge-oracle"), str, itemgetter(0), steps)


# ---------------------------------------------------------------------------
# Identities sweep
# ---------------------------------------------------------------------------


def identities_report(n) -> CheckReport:
    """All commutation relations as exact operator identities, one engine
    step over the 4^n keys, plus the wedge characterization on all of them
    (`wedge_identity_report`).  Every operator row commutes with relabeling
    1..n, so the relations take the keys of `orbit_keys` as representatives:
    all 4^n keys are checked only if one of them fails, and a failing report
    names every failing key (sign ledger X3)."""

    @lru_cache(maxsize=1)
    def chain(key):
        """L^r v and L^r Lambda v for r = 0..n, v the basis covector of key."""
        v = CovectorElement.basis(n, key)
        return _l_powers(v, n), _l_powers(op_Lambda(v), n)

    def holds(lhs, rhs, key):  # lhs(v) = rhs(v) at the basis covector v of key
        v = chain(key)[0][0]
        return _residual(lhs(v), rhs(v))

    def lambda_l(r, key):
        """[Lambda, L^r] = r (weight - r + 1) L^{r-1} (ledger X2), the weight
        read from v's key: L^{r-1} lowers that of every image key by 2(r-1)."""
        powers, lowered = chain(key)
        lhs = op_Lambda(powers[r]) - lowered[r]
        return _residual(lhs, powers[r - 1].scale(r * (weight(key) - r + 1)))

    # * permutes basis symbols up to fourth roots of unity
    def not_permutation(key):
        img = op_star(chain(key)[0][0])
        return None if len(img.terms) == 1 else (repr(img),)

    def not_unit(key):
        img = op_star(chain(key)[0][0])
        if len(img.terms) == 1:
            [((_, part), c)] = img.terms.items()
            if c not in (1, -1):
                return (format_gaussian(0, c) if part else format_gaussian(c, 0),)

    commutator = lambda a, b: partial(holds, lambda v: a(b(v)), lambda v: b(a(v)))
    square = lambda op, rhs: partial(holds, lambda v: op(op(v)), rhs)
    signed_projection = partial(_apply, _row_parity)
    relations = [
        ("[L,C]", commutator(op_L, op_C)),
        ("[Lambda,C]", commutator(op_Lambda, op_C)),
        ("[*,C]", commutator(op_star, op_C)),
        *((f"[Lambda,L^{r}]", partial(lambda_l, r)) for r in range(1, n + 1)),
        ("(C^-1 *)^2", square(op_c_inv_star, lambda v: v)),
        ("*^2", square(op_star, signed_projection)),
        ("C^2", square(op_C, signed_projection)),
    ]
    identities = [(f"{name} at {{}}", f"{name} fails", res) for name, res in relations]
    identities += [
        ("* at {}", "* is not a signed permutation", not_permutation),
        ("* at {}", "* coefficient is not a 4th root of 1", not_unit),
    ]
    keys, reps = [(key,) for key in all_keys(n)], [(key,) for key in orbit_keys(n)]
    rep = CheckReport("lefschetz-identities", info={"dimension": n, "basis_size": 4**n})
    report_violations(rep, str, itemgetter(0), [(keys, identities, reps)])
    rep.merge(wedge_identity_report(n))
    return rep


# ---------------------------------------------------------------------------
# Primitivity and the Lefschetz decomposition
# ---------------------------------------------------------------------------


def is_primitive(v: CovectorElement) -> bool:
    v.homogeneous_degree()
    return op_Lambda(v).is_zero()


def lefschetz_decompose(v: CovectorElement):
    """Write homogeneous v as sum_{r >= max(-alpha, 0)} L^r v_r with each
    v_r primitive of weight alpha + 2r, via
    v_q = Lambda^{alpha+2q} L^{alpha+q} v / (alpha+2q)!^2 from the top."""
    n = v.n
    p = v.homogeneous_degree()
    if p is None:
        return []
    alpha = n - p
    out = []
    rest = v
    q_top = max((p // 2), 0)
    for q in range(q_top, max(-alpha, 0) - 1, -1):
        if rest.is_zero():
            break
        exp_l = alpha + q
        exp_ll = alpha + 2 * q
        if exp_l < 0 or exp_ll < 0:
            continue
        vq = op_power(op_Lambda, exp_ll, op_power(op_L, exp_l, rest)).scale(
            Fraction(1, factorial(exp_ll) ** 2)
        )
        if vq.is_zero():
            continue
        if not op_Lambda(vq).is_zero():
            raise DomainError("decomposition produced a non-primitive component")
        out.append((q, vq))
        rest = rest - op_power(op_L, q, vq)
    if not rest.is_zero():
        raise DomainError("Lefschetz decomposition failed to terminate")
    return sorted(out)


def reconstruct(n, parts) -> CovectorElement:
    out = CovectorElement(n)
    for r, vr in parts:
        out = out + op_power(op_L, r, vr)
    return out


def primitive_star_report(v: CovectorElement) -> CheckReport:
    """C^{-1} * L^r v = (-1)^{p(p+1)/2} r!/(n-p-r)! L^{n-p-r} v for a
    primitive p-covector and r <= n-p, zero beyond, where L^r v itself must
    vanish; plus the Lambda^alpha L^alpha = alpha!^2 sub-check."""
    rep = CheckReport("primitive-star")
    n = v.n
    p = v.homogeneous_degree()
    if p is None:
        return rep
    if not is_primitive(v):
        raise DomainError("primitive_star_report needs a primitive covector")
    alpha = n - p
    sign = (-1) ** (((p * (p + 1)) // 2) % 2)
    powers = _l_powers(v, n)

    def beyond(r):
        return ("",) if r > n - p and not powers[r].is_zero() else None

    def star(r):
        if r > n - p:
            return _residual(op_c_inv_star(powers[r]), CovectorElement(n))
        coeff = Fraction(sign * factorial(r), factorial(n - p - r))
        return _residual(op_c_inv_star(powers[r]), powers[n - p - r].scale(coeff))

    def lambda_l():
        lhs = op_power(op_Lambda, alpha, powers[alpha])
        return _residual(lhs, v.scale(Fraction(factorial(alpha) ** 2)))

    per_r = [
        ("L^{}", "L^r v != 0 beyond n-p on a primitive", beyond),
        ("r={}", "primitive star identity fails", star),
    ]
    top = ("Lambda^a L^a", "Lambda^alpha L^alpha != alpha!^2 on a primitive", lambda_l)
    steps = [([(r,) for r in range(n + 1)], per_r), ([()] if alpha >= 0 else [], [top])]
    return report_violations(rep, str, itemgetter(0), steps)
