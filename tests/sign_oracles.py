"""Reference implementations kept verbatim as oracles, from before the
code they check was rewritten.

The signed sorts as they were before `core.sym_canonical` became the one
signed sort: `sym_canonical` sorted symmetric words (twist 0),
`ext_canonical` wedge words, `_merge_frames` polyvector and form frames
(callers skipped overlapping frames first) and `_raw_sort` the raw letters
of the Lefschetz wedge oracle.

The Lefschetz wedge oracle as it was before it left Q(i) for Z[i]:
`raw_expand` and `raw_volume` with i/2 per u_j and `wedge_identity_report`
scaling each sum by 2^{-s}; and `i_power`, the powers of i with Fraction
parts, which was `GaussianScalar.i_power`.  They compute in `Gaussian`, the
Q(i) arithmetic that was `scalars.GaussianScalar` before a covector kept
its coefficients as rational parts under (key, part) keys, on dicts from a
key or a raw word to a `Gaussian`, with a raw wedge `raw_wedge` of their
own; `gaussian_terms` and `as_parts` translate from and to the parts.

`right_nested_bracket`, the right-nested bracket built ad by ad through
`TensorSeries.bracket`, as it was before `freelie.right_nested_terms`
expanded it on a plain dict with int coefficients.

The `Fraction` routes of `freelie` as they were before exp, log, the DSW
map and both BCH routes computed on word-length parts with int numerators:
`oracle_tensor_exp`, `oracle_tensor_log` and `oracle_dsw_project` on whole
`TensorSeries`, `oracle_bch_free` chaining them, and `oracle_bch_explicit`,
the trie sum accumulated by `acc + v.scale(c)`.

`fraction_bch_term_sum`, the BCH trie driver as it was before it scaled
its inputs to int numerators: it walks the trie on the values as given and
adds each term through its `add` / `zero` parameters; `add_scaled` is the
in-place adder on Elements that `NilpotentLie.bch` and
`TensorDgla.bch_degree0` passed it.

`oracle_mc_linfty`, the homotopy Maurer-Cartan residual by the l_n route
that `linfty.mc_linfty` took before it computed in the corestricted
coalgebra form on the shifted space, with the "add, or pop on zero" step
of its older terms dicts.

Reference implementations that left `src/` because only tests called
them: from `core` the permutation `parity`, `is_unshuffle`, `symmetrize`
and the composition product `gerstenhaber_bullet`; `as_dgla`, the
tensor DGLA L (x) A tabled pair by pair, which was `dgla.TensorDgla.as_dgla`;
the primitive block relation `primitive_coefficient_report` from
`lefschetz`; `gbv_bracket`, the shifted bracket of a GBV structure on
elements, which was `gbv.GBVStructure.bracket`; `show`, a tabled
operation's residual text, which was `core.BilinearTable.show`; and
`oracle_tensor_inverse_check`, the tensor side of the product morphism's
inverse summed over the consecutive-block compositions of each word of
length at most 3, which was `gbv.tensor_inverse_check` before
`gbv.gbv_to_abelian` read it as the associator (sign ledger C4).

The resolution of a tabled operation as it was before `BilinearTable`
resolved its table into `rows` / `cols` at construction: `oracle_rows`
builds its `_entries` (stored entries, swap-rule completions, a unit's row
and column) and reads them through `_op_basis` and `basis_rows`; and
`swap_rule_holds`, the precondition of the orbit reductions recomputed
from the rows, which was `core.swap_rule_holds` before `BilinearTable`
derived its `swap_rule` flag from the stored entries.

`oracle_h_bracket_check`, the induced bracket on cohomology as
`linfty.h_bracket_check` computed it before its closure step: it raises
DomainError when a bracket of two classes, or of a class and a boundary,
is not a cycle.

The homotopy Lie sums as they were before they ran over distinct
sub-multisets (`core.multiset_plan`): `unshuffle_check_linfty`, which was
`linfty.check_linfty` with its `jacobi` closure summing every unshuffle of
`core.split_plan`; `unshuffle_apply_word`, which was
`coalg.Coderivation.apply_word` on the word as given; and
`recursive_all_words`, which was `coalg.all_words`, one recursion per
length.

The dense `Fraction` linear algebra that was `defalg.linalg` before it
became one sparse integer echelon: `rref`, a Fraction division across each
pivot row of a list-of-lists matrix, and on it `rank`, `kernel_basis`,
`solve` (free variables zero), `in_span` and `express_in_span`; and
`dense_nilpotency_index`, which was `core.BilinearTable._nilpotency_index`,
one `rref` per power of the algebra.

The volume-form route to the polyvector delta as `gbv.delta_volume` took
it before it read the contraction kernel `gbv._contractions`: the forms
`PolyForm` (with `wedge`), the contraction `contract` built on the
one-form step `one_form_contract` and the monomial derivative `_partial`,
the volume form `volume_form`, the form differential `form_del`, the
frame pairing `frame_pairing` and, chaining them, `oracle_delta_volume`,
which was `delta_volume`; with them the tests check the defining property
(delta a) -| Omega = del(a -| Omega) (sign ledger G4).

The step-power Lefschetz decomposition as `lefschetz.lefschetz_decompose`
and `lefschetz.reconstruct` computed it before they read the closed-form
rows of Lambda^a L^b: `lefschetz_decompose`, each component
Lambda^{alpha+2q} L^{alpha+q} rest / (alpha+2q)!^2 as alpha+q steps of L
and alpha+2q of Lambda scaled by a `Fraction`, and `reconstruct`, the sum
of L^r v_r by r steps each (sign ledger X4)."""

import itertools
from fractions import Fraction
from functools import partial
from itertools import product
from math import factorial
from operator import itemgetter

from defalg.coalg import SymElement, word_degree
from defalg.core import (
    BilinearTable,
    Element,
    GradedBasis,
    add_into,
    add_term,
    basis_rows,
    format_terms,
    int_first,
    lin_into,
    odd,
    report_violations,
    check_weights,
    signed_permutations,
    split_plan,
    swap_residual,
    sym_canonical as one_signed_sort,
)
from defalg.dgla import DGLA, TensorDgla, check_dgla, cohomology
from defalg.errors import DomainError, InputError
from defalg.freelie import TensorSeries, _bch_word_trie, right_nested_terms
from defalg.gbv import GBVStructure, Polyvector, _wedge_terms, times_letters
from defalg.lefschetz import (
    CovectorElement,
    all_keys,
    is_primitive,
    op_L,
    op_Lambda,
    op_power,
    op_star,
)
from defalg.linfty import word_names
from defalg.report import CheckReport
from defalg.scalars import Q0, Q1, format_rational


def sym_canonical(indices, degree_of):
    """Canonical form of a symmetric word of basis indices.

    Returns (sorted_tuple, koszul_sign) or None when the word is zero
    (an odd-degree symbol repeated; char 0 kills 2(e.e)).
    `degree_of` maps a basis index to its degree.
    """
    word = list(indices)
    degrees = [degree_of(i) for i in word]
    sign = 1
    # insertion sort, accumulating (-1)^{d_a d_b} per adjacent swap
    for i in range(1, len(word)):
        j = i
        while j > 0 and word[j - 1] > word[j]:
            if degrees[j - 1] * degrees[j] % 2:
                sign = -sign
            word[j - 1], word[j] = word[j], word[j - 1]
            degrees[j - 1], degrees[j] = degrees[j], degrees[j - 1]
            j -= 1
    for a, b in zip(word, word[1:]):
        if a == b and degree_of(a) % 2:
            return None
    return tuple(word), Fraction(sign)


def ext_canonical(indices, degree_of):
    """Canonical form of a wedge word: sorted with the exterior sign
    (Koszul times parity); zero when an even-degree symbol repeats."""
    word = list(indices)
    degrees = [degree_of(i) for i in word]
    sign = 1
    for i in range(1, len(word)):
        j = i
        while j > 0 and word[j - 1] > word[j]:
            if degrees[j - 1] * degrees[j] % 2 == 0:
                sign = -sign
            word[j - 1], word[j] = word[j], word[j - 1]
            degrees[j - 1], degrees[j] = degrees[j], degrees[j - 1]
            j -= 1
    for a, b in zip(word, word[1:]):
        if a == b and degree_of(a) % 2 == 0:
            return None
    return tuple(word), Fraction(sign)


def _merge_frames(f1, f2):
    """Sorted union and the sign of the sorting permutation (frames are odd)."""
    merged = list(f1) + list(f2)
    sign = 1
    for i in range(1, len(merged)):
        j = i
        while j > 0 and merged[j - 1] > merged[j]:
            merged[j - 1], merged[j] = merged[j], merged[j - 1]
            sign = -sign
            j -= 1
    return tuple(merged), sign


def _raw_sort(letters):
    letters = list(letters)
    sign = 1
    for i in range(1, len(letters)):
        j = i
        while j > 0 and letters[j - 1] > letters[j]:
            letters[j - 1], letters[j] = letters[j], letters[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(letters, letters[1:]):
        if a == b:
            return None
    return tuple(letters), sign


class Gaussian:
    """Exact element of Q(i): re + im*i with i^2 = -1, each part an int or
    a Fraction; equal by value, also to a plain rational."""

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        self.re = re
        self.im = im

    def __eq__(self, other):
        other = _coerce(other)
        return self.re == other.re and self.im == other.im

    def __add__(self, other):
        other = _coerce(other)
        return Gaussian(self.re + other.re, self.im + other.im)

    def __neg__(self):
        return Gaussian(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __mul__(self, other):
        other = _coerce(other)
        return Gaussian(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __str__(self):
        if self.im == 0:
            return format_rational(self.re)
        if self.re == 0:
            return f"{format_rational(self.im)}*i"
        sign = "+" if self.im > 0 else "-"
        return f"{format_rational(self.re)}{sign}{format_rational(abs(self.im))}*i"


def _coerce(value) -> Gaussian:
    if isinstance(value, Gaussian):
        return value
    if isinstance(value, (int, Fraction)):
        return Gaussian(value, 0)
    raise TypeError(f"cannot coerce {value!r} to Gaussian")


def gaussian_terms(v: CovectorElement) -> dict:
    """key -> Gaussian coefficient of a covector, read from its parts."""
    out = {}
    for (key, part), c in v.terms.items():
        g = out.get(key, Gaussian(0, 0))
        out[key] = Gaussian(g.re, c) if part else Gaussian(c, g.im)
    return out


def as_parts(terms: dict) -> dict:
    """A dict of Gaussian values keyed by k as rational parts keyed by
    (k, part), zero parts dropped."""
    return {
        (k, part): c
        for k, g in terms.items()
        for part, c in enumerate((g.re, g.im))
        if c
    }


def raw_wedge(x: dict, y: dict) -> dict:
    out = {}
    for w1, c1 in x.items():
        for w2, c2 in y.items():
            canon = _raw_sort(w1 + w2)
            if canon is not None:
                add_term(out, canon[0], c1 * c2 * canon[1])
    return out


def raw_expand(n, key) -> dict:
    """Un-normalized expansion of a standard basis symbol: map from sorted
    letter tuples to Gaussian; the true symbol is 2^{-(|A|+|B|)/2}
    times this."""
    A, B, M, N = key
    letters = [a - 1 for a in A] + [n + b - 1 for b in B]
    for j in M:
        letters += [j - 1, n + j - 1]
    canon = one_signed_sort(letters, odd)
    if canon is None:
        return {}
    word, sign = canon
    half_i = Gaussian(0, Fraction(1, 2))  # i/2 per u_j factor
    coeff = Gaussian(sign, 0)
    for _ in M:
        coeff = coeff * half_i
    return {word: coeff}


def raw_volume(n) -> dict:
    """u_1 ^ ... ^ u_n expanded."""
    out = {(): Gaussian(1, 0)}
    for j in range(1, n + 1):
        out = raw_wedge(out, {(j - 1, n + j - 1): Gaussian(0, Fraction(1, 2))})
    return out


def wedge_identity_report(n, star_fn=None) -> CheckReport:
    """Defining wedge characterization, checked for every basis symbol:
    z ^ *(conj z) = z ^ conj(*z) = u_1 ^ ... ^ u_n.  A corrupted * (passed
    as star_fn) is caught here."""
    rep = CheckReport("wedge-oracle")
    star = star_fn or op_star
    vol = raw_volume(n)
    for key in all_keys(n):
        z = CovectorElement.basis(n, key)
        s = len(key[0]) + len(key[1])
        norm = Gaussian(Fraction(1, 2 ** s), 0)
        raw_z = raw_expand(n, key)
        for tag, other in (
            ("z ^ *(conj z)", star(z.conjugate())),
            ("z ^ conj(*z)", star(z).conjugate()),
        ):
            total = {}
            for okey, ocoeff in gaussian_terms(other).items():
                add_into(total, raw_wedge(raw_z, raw_expand(n, okey)), ocoeff)
            total = {w: c * norm for w, c in total.items()}
            if total != vol:
                shown = ", ".join(f"{w}: {c}" for w, c in total.items())
                rep.add(f"{tag} at {key}", f"{{{shown}}}", "wedge identity fails")
    return rep


def i_power(k: int) -> Gaussian:
    k %= 4
    if k == 0:
        return Gaussian(Q1, Q0)
    if k == 1:
        return Gaussian(Q0, Q1)
    if k == 2:
        return Gaussian(-Q1, Q0)
    return Gaussian(Q0, -Q1)


def right_nested_bracket(gens, order, word) -> TensorSeries:
    """[v1,[v2,[...,[v_{n-1},v_n]].]] expanded inside the tensor algebra."""
    if not word:
        raise InputError("empty bracket word")
    out = TensorSeries(gens, order, {(word[-1],): Fraction(1)})
    for idx in reversed(word[:-1]):
        v = TensorSeries(gens, order, {(idx,): Fraction(1)})
        out = v.bracket(out)
    return out


def oracle_tensor_exp(x: TensorSeries, order=None) -> TensorSeries:
    """e^x = sum x^n / n!, truncated; requires zero constant term."""
    if x.constant_term() != 0:
        raise DomainError("tensor_exp needs a zero constant term")
    order = x.order if order is None else order
    out = TensorSeries(x.gens, order, {(): Fraction(1)})
    power = TensorSeries(x.gens, order, {(): Fraction(1)})
    xo = TensorSeries(x.gens, order, x.terms)
    for n in range(1, order + 1):
        power = power * xo
        if power.is_zero():
            break
        add_into(out.terms, power.terms, Fraction(1, factorial(n)))
    return out


def oracle_tensor_log(y: TensorSeries, order=None) -> TensorSeries:
    """log(1+x) = sum (-1)^{n-1} x^n / n; requires constant term 1."""
    if y.constant_term() != 1:
        raise DomainError("tensor_log needs constant term 1")
    order = y.order if order is None else order
    x = TensorSeries(y.gens, order, y.terms)
    x.add_term((), Fraction(-1))
    out = TensorSeries(y.gens, order)
    power = TensorSeries(y.gens, order, {(): Fraction(1)})
    for n in range(1, order + 1):
        power = power * x
        if power.is_zero():
            break
        add_into(out.terms, power.terms, Fraction((-1) ** (n - 1), n))
    return out


def oracle_dsw_project(x: TensorSeries) -> TensorSeries:
    """Each word w of length n goes to its right-nested bracketing times
    the Fraction c / n."""
    if x.constant_term() != 0:
        raise DomainError("dsw_project needs a zero constant term")
    out = TensorSeries(x.gens, x.order)
    for w, c in x.terms.items():
        c = c * Fraction(1, len(w))
        for nested, k in right_nested_terms(w).items():
            add_term(out.terms, nested, k * c)
    return out


def oracle_bch_free(a: TensorSeries, b: TensorSeries, order=None) -> TensorSeries:
    """sigma(log(e^a e^b)) on whole series with Fraction coefficients."""
    a._check(b)
    order = a.order if order is None else order
    product = oracle_tensor_exp(a, order) * oracle_tensor_exp(b, order)
    return oracle_dsw_project(oracle_tensor_log(product, order))


def fraction_bch_term_sum(a, b, bracket, max_len, add, zero):
    """Generic explicit BCH driver over any bracket (sign ledger F2).  Each
    distinct bracket word is evaluated once, by a depth-first walk of the
    word trie that keeps only the current innermost-first chain of values."""
    letters = {"a": a, "b": b}
    total = zero

    def walk(value, node):
        nonlocal total
        coeff, children = node
        if coeff:
            total = add(total, value, coeff)
        for letter, child in children:
            walk(bracket(letters[letter], value), child)

    for last, node in _bch_word_trie(max_len):
        walk(letters[last], node)
    return total


def add_scaled(total: Element, value: Element, coeff) -> Element:
    """The adder of `fraction_bch_term_sum` on Elements: total += coeff *
    value in place (`add_into`), so no accumulator is copied."""
    add_into(total.terms, value.terms, coeff)
    return total


def oracle_bch_explicit(a: TensorSeries, b: TensorSeries, order=None) -> TensorSeries:
    """The explicit trie sum on whole series, copying the accumulator at
    every term."""
    a._check(b)
    order = a.order if order is None else order
    return fraction_bch_term_sum(
        TensorSeries(a.gens, order, a.terms),
        TensorSeries(b.gens, order, b.terms),
        lambda x, y: x.bracket(y),
        order,
        lambda acc, v, c: acc + v.scale(c),
        TensorSeries(a.gens, order),
    )


def oracle_mc_linfty(S, A, m_terms, cancelled):
    """The homotopy Maurer-Cartan residual in the l_n form of sign ledger
    D2, (Id (x) d_A) m - sum_n (1/n!) (-1)^{n(n+1)/2} (l_n (x) Id) m^{wedge n},
    with wedge powers in (wedge V) (x) A, as a terms dict over the pair
    indices v_index * len(A) + a_index; the terms dicts are accumulated by
    the "add, or pop on zero" step, and `cancelled[0]` counts the keys it
    popped."""
    basis = S.space
    nA = len(A.basis)

    def add(terms, key, c):
        val = terms.get(key, 0) + c
        if val:
            terms[key] = val
        else:
            cancelled[0] += key in terms
            terms.pop(key, None)

    def ext_add(terms, word, a_idx, coeff):
        canon = ext_canonical(word, basis.degree)
        if canon is None or not coeff:
            return
        add(terms, (canon[0], a_idx), coeff * canon[1])

    def wedge(x, y):
        out = {}
        for (w1, a1), c1 in x.items():
            for (w2, a2), c2 in y.items():
                prod = A.product(Element.basis_vector(a1), Element.basis_vector(a2))
                sign = -1 if (A.basis.degree(a1) * word_degree(basis, w2)) % 2 else 1
                for ak, av in prod.terms.items():
                    ext_add(out, w1 + w2, ak, c1 * c2 * av * sign)
        return out

    l_tables = S.unsuspended_tables()
    residual = {}
    for (i, j), c in m_terms.items():
        sign = -1 if basis.degree(i) % 2 else 1
        for k, v in A.diff.get(j, Element()).terms.items():
            add(residual, i * nA + k, c * v * sign)
    m_ext = {}
    for (i, j), c in m_terms.items():
        ext_add(m_ext, (i,), j, c)
    power, n = m_ext, 1
    while n <= max(l_tables, default=0):
        if n > 1:
            power = wedge(power, m_ext)
            if not power:
                break
        table = l_tables.get(n)
        if table:
            scale = Fraction(-1 if (n * (n + 1) // 2) % 2 else 1, factorial(n))
            for (word, a_idx), c in power.items():
                value = table.get(word) if len(word) == n else None
                for k, v in (value.terms.items() if value is not None else ()):
                    add(residual, k * nA + a_idx, -c * v * scale)
        n += 1
    return residual


def parity(images) -> int:
    inv = 0
    n = len(images)
    for i in range(n):
        for j in range(i + 1, n):
            if images[i] > images[j]:
                inv += 1
    return -1 if inv % 2 else 1


def is_unshuffle(images, p: int) -> bool:
    head = images[:p]
    tail = images[p:]
    return all(head[i] < head[i + 1] for i in range(len(head) - 1)) and all(
        tail[i] < tail[i + 1] for i in range(len(tail) - 1)
    )


def symmetrize(f, args, degrees) -> Element:
    """f~(a_1 (.) ... (.) a_m) = sum over all permutations with Koszul signs.

    `f` is a multilinear map taking a tuple of args and returning Element.
    """
    if len(args) != len(degrees):
        raise InputError("symmetrize: args/degrees arity mismatch")
    out = Element()
    for sign, images in signed_permutations(degrees):
        add_into(out.terms, f(tuple(args[i] for i in images)).terms, sign)
    return out


def gerstenhaber_bullet(f, m, g, l, g_degree, args, degrees) -> Element:
    """Composition product (f o g) on m+l-1 tensor arguments:
    sum_i (-1)^{g_degree*(d_1+..+d_i)} f(a_1,..,a_i, g(a_{i+1}..a_{i+l}), .., a_{m+l-1}).

    `g` returns an Element over the same basis the remaining args live in;
    `f` must accept Element arguments in the substituted slot (the caller
    provides a multilinear f).
    """
    if len(args) != m + l - 1:
        raise InputError("gerstenhaber_bullet: arity mismatch")
    out = Element()
    for i in range(m):
        sign = 1
        if g_degree % 2 and sum(degrees[:i]) % 2:
            sign = -1
        inner = g(tuple(args[i : i + l]))
        part = f(tuple(args[:i]) + (inner,) + tuple(args[i + l :]))
        add_into(out.terms, part.terms, sign)
    return out


def _partial(mono, j):
    """d/dz_j of a monomial: (coefficient, new monomial) or None."""
    if mono[j] == 0:
        return None
    new = list(mono)
    new[j] -= 1
    return mono[j], tuple(new)


def one_form_contract(j, frame):
    """dz_j contracted into d/dz_frame: (sign, reduced frame) or None."""
    if j not in frame:
        return None
    k = frame.index(j)
    sign = (-1) ** k
    return sign, frame[:k] + frame[k + 1 :]


class PolyForm(Element):
    """Sum of f(z) dz_K with strictly increasing K (polynomial coefficients);
    `nvars` is carried but not compared."""

    __slots__ = ("nvars",)

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {}
        if terms:
            for (mono, K), c in terms.items():
                if not c:
                    continue
                K = tuple(K)
                if list(K) != sorted(set(K)):
                    raise InputError(f"bad form frame {K}")
                add_term(self.terms, (tuple(mono), K), c)

    def wedge(self, other) -> "PolyForm":
        return self._like(_wedge_terms(self, other))


def contract(v: Polyvector, w: PolyForm) -> PolyForm:
    """(u_1 ^ ... ^ u_a) -| w = u_1 -| (u_2 ^ ... ^ u_a -| w), bilinear;
    polynomial coefficients multiply."""
    if v.nvars != w.nvars:
        raise InputError("variable count mismatch")
    out = PolyForm(v.nvars)
    for (mono_v, frame), cv in v.terms.items():
        for (mono_w, K), cw in w.terms.items():
            if len(frame) > len(K):
                continue
            acc = {K: 1}
            for j in reversed(frame):
                nxt = {}
                for kk, s in acc.items():
                    hit = one_form_contract(j, kk)
                    if hit is not None:
                        add_term(nxt, hit[1], s * hit[0])
                acc = nxt
                if not acc:
                    break
            mono = tuple(a + b for a, b in zip(mono_v, mono_w))
            for kk, s in acc.items():
                add_term(out.terms, (mono, kk), cv * cw * s)
    return out


def volume_form(nvars) -> PolyForm:
    """Omega = dz_n ^ ... ^ dz_1 (reversal of the increasing frame)."""
    sign = (-1) ** ((nvars * (nvars - 1) // 2) % 2)
    return PolyForm(nvars, {((0,) * nvars, tuple(range(nvars))): sign})


def form_del(form: PolyForm) -> PolyForm:
    """del(f dz_K) = sum_j (df/dz_j) dz_j ^ dz_K."""
    out = PolyForm(form.nvars)
    for (mono, K), c in form.terms.items():
        for j in range(form.nvars):
            d = _partial(mono, j)
            if d is None or j in K:
                continue
            merged, sign = one_signed_sort((j,) + K, odd)
            add_term(out.terms, (d[1], merged), c * d[0] * sign)
    return out


def frame_pairing(nvars, frame) -> int:
    """c_I in (d/dz_I) -| Omega = c_I dz_{I complement}, for an increasing
    frame I: `contract` removes the letters of I last first, each at its own
    index i, and Omega carries (-1)^{n(n-1)/2}, so
    c_I = (-1)^{sum I + n(n-1)/2} (sign ledger G4)."""
    return -1 if (sum(frame) + nvars * (nvars - 1) // 2) % 2 else 1


def oracle_delta_volume(a: Polyvector) -> Polyvector:
    """The operator defined by (delta a) -| Omega = del(a -| Omega),
    computed contract - del - uncontract (Omega the reversed frame)."""
    n = a.nvars
    psi = form_del(contract(a, volume_form(n)))
    # invert the frame pairing; c_I = +-1 is its own inverse
    out = Polyvector(n, max(a.cap - 1, 0))
    for (mono, K), c in psi.terms.items():
        comp = tuple(i for i in range(n) if i not in K)
        add_term(out.terms, (mono, comp), c * frame_pairing(n, comp))
    return out


def gbv_bracket(self: GBVStructure, a: Element, b: Element) -> Element:
    """[a,b] = a delta(b) + (-1)^{deg(a)+1} (delta(ab) - delta(a) b)
    = (-1)^{deg(a)+1} q(a,b) on the shifted grading (sign ledger G2)."""
    da = self._degree(a)
    if da is None:
        return Element()
    return self.derived_q(a, b).scale(1 if da % 2 else -1)


def oracle_tensor_inverse_check(S: GBVStructure) -> CheckReport:
    """The tensor-coalgebra statement verbatim: the comorphism induced by
    the product has corestricted inverse with components (-1)^{m-1} times
    the product; on an ordered word the composite reduces to
    sum_s (-1)^{s-1} binom(n-1, s-1) (full product) = 0 for n >= 2.
    Verified by explicit enumeration of consecutive-block compositions on
    the words of length at most 3."""
    alg = S.algebra
    n = len(alg.basis)

    def compositions(length):
        if length == 0:
            yield ()
            return
        for first in range(1, length + 1):
            for rest in compositions(length - first):
                yield (first,) + rest

    def residual(word):
        acc = {word[0]: -1} if len(word) == 1 else {}
        for comp in compositions(len(word)):
            value, pos = None, 0
            for size in comp:
                block = word[pos : pos + size]
                pos += size
                prod = times_letters(alg, Element.basis_vector(block[0]), block[1:])
                # blocks are consecutive: the product of the block values
                value = prod if value is None else alg.product(value, prod)
            add_into(acc, value.terms, (-1) ** ((len(comp) - 1) % 2))
        return acc

    words = (
        (word,)
        for total in range(1, 4)
        for word in itertools.product(range(n), repeat=total)
    )
    message = "tensor-side inverse composition fails"
    steps = [(words, [("tensor word {}", message, residual)])]
    show = partial(format_terms, alg.basis.names)
    return report_violations(CheckReport("tensor-inverse"), str, show, steps)


ZERO = Element()


def oracle_rows(basis, table, sign, unit=None):
    """(rows, cols) of the operation `BilinearTable(basis, table, sign,
    unit)`, resolved through its old `_entries` and `_op_basis`."""
    n = len(basis)
    table = int_first(table)
    unit = basis.index(unit) if unit is not None else None

    def _sign_swap(i, j):
        return -1 if (basis.degree(i) * basis.degree(j)) % 2 else 1

    entries = dict(table)
    for (i, j), v in table.items():
        if (j, i) not in table:
            entries[(j, i)] = v.scale(sign * _sign_swap(i, j))
    if unit is not None:
        for i in range(n):
            entries[(unit, i)] = entries[(i, unit)] = Element({i: 1})

    def _op_basis(i, j) -> Element:
        return entries.get((i, j), ZERO)

    return basis_rows(lambda i, j: _op_basis(i, j).terms, n)


def swap_rule_holds(rows, degree, sign) -> bool:
    """Whether the operation with these rows is degree-additive and obeys
    its swap rule (`swap_residual`) on every pair of basis indices, (i, i)
    and pairs past any weight cap included: the precondition of the orbit
    reductions of its triple families (sign ledger K5)."""
    res = swap_residual(rows, degree, sign)  # {} on a pair of missing entries
    return all(
        not res(i, j) and all(degree(t) == degree(i) + degree(j) for t in terms)
        for i, row in enumerate(rows)
        for j, terms in row.items()
    )


def show(self: BilinearTable, el: Element) -> str:
    return format_terms(self.basis.names, el.terms)


def as_dgla(self: TensorDgla) -> DGLA:
    table = {}
    diff = {}
    n = len(self.basis)
    for p in range(n):
        dv = self.d(Element.basis_vector(p))
        if not dv.is_zero():
            diff[p] = dv
    for p in range(n):
        for q in range(n):
            br = self.bracket(Element.basis_vector(p), Element.basis_vector(q))
            if not br.is_zero():
                table[(p, q)] = br
    return DGLA(self.basis, table, diff)


def primitive_coefficient_report(v: CovectorElement) -> CheckReport:
    """Block coefficient relation for a primitive element: within each
    (A, B) block with m = |M|, a_M = (-1)^m sum_{Nsub in complement,
    |Nsub| = m} a_{Nsub}."""
    rep = CheckReport("primitive-coefficients")
    if not is_primitive(v):
        raise DomainError("coefficient relation needs a primitive covector")
    blocks = {}
    for (A, B, M, N), c in gaussian_terms(v).items():
        blocks.setdefault((A, B), {})[tuple(M)] = c
    for (A, B), coeffs in blocks.items():
        free = tuple(sorted(set(range(1, v.n + 1)) - set(A) - set(B)))
        sizes = {len(m) for m in coeffs}
        for M in coeffs:
            m = len(M)
            total = Gaussian(0, 0)
            complement = [x for x in free if x not in M]
            for sub in itertools.combinations(complement, m):
                total = total + coeffs.get(tuple(sub), Gaussian(0, 0))
            expect = total * (-1) ** (m % 2)
            if coeffs[M] != expect:
                rep.add(
                    f"block (A={A},B={B}) M={M}",
                    str(coeffs[M] - expect),
                    "coefficient relation fails",
                )
    return rep


def oracle_h_bracket_check(S) -> CheckReport:
    """Compute H(V, l_1), push l_2 to it, and verify it is a graded Lie
    bracket there: well-defined ([class, d y] is a boundary), and, tabled on
    the basis of H as a DGLA with zero differential, antisymmetric and
    Jacobi by `check_dgla`."""
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

    def h_terms(el, dgr):
        """The class of the degree-dgr cycle el as terms over the basis of H.
        The brackets respect degrees, so a nonzero el has a basis term, and
        an H, in degree dgr."""
        coords = hdata[dgr][1](el) if el.terms else ()
        return {first[dgr] + k: c for k, c in enumerate(coords) if c}

    table = {}
    for (i, (_, d1, r1)), (j, (_, d2, r2)) in product(enumerate(classes), repeat=2):
        terms = h_terms(L.bracket(r1, r2), d1 + d2)
        if terms:
            table[i, j] = Element(terms)
    h_basis = GradedBasis(tuple(c[0] for c in classes), tuple(c[1] for c in classes))

    def well_defined(c, b):
        (_, dgr, r), (_, ydeg, dy) = c, b
        return h_terms(L.bracket(r, dy), dgr + ydeg + 1)

    wd = ("bracket({}, d{})", "induced bracket is not well-defined", well_defined)
    rep, show = CheckReport("h-bracket"), partial(format_terms, h_basis.names)
    report_violations(rep, itemgetter(0), show, [(product(classes, boundaries), [wd])])
    rep.merge(check_dgla(DGLA(h_basis, table, {})))
    rep.info = {"h_dims": {str(d): dims[2] for d, (_, _, dims) in hdata.items()}}
    return rep


def unshuffle_check_linfty(S, n_max=None) -> CheckReport:
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
            [(word,) for word in recursive_all_words(basis, n, n)],
            [("word {}", f"generalized Jacobi fails at arity {n}", jacobi)],
        )
        for n in range(1, n_max + 1)
    ]
    show = partial(format_terms, basis.names)
    rep = CheckReport("check-linfty")
    return report_violations(rep, word_names(basis), show, steps)


def unshuffle_apply_word(self, word) -> SymElement:
    n = len(word)
    parities = tuple(self.basis.degree(i) % 2 for i in word)
    out = SymElement(self.basis)
    for k in self.components.arities():
        if k > n:
            continue
        for front, rest, sign in split_plan(n, k, parities):
            value = self.components.apply_word(tuple(word[i] for i in front))
            tail = tuple(word[i] for i in rest)
            for idx, c in value.terms.items():
                out.add_word((idx,) + tail, c * sign)
    return out


def recursive_all_words(basis, max_len: int, min_len: int = 1, weights=None, cap=0):
    """All canonical words of length min_len..max_len (odd symbols without
    repetition), in deterministic order; with `weights` (one nonnegative int
    per basis index) only those whose weights sum to at most `cap`, as in
    `core.admitted`."""
    idx = list(range(len(basis)))
    if weights is None:
        weights, cap = (0,) * len(idx), 0
    check_weights(len(idx), weights, cap)
    out = []

    def rec(start, word, length, budget):
        if length == 0:
            out.append(tuple(word))
            return
        for i in idx[start:]:
            if word and word[-1] == i and basis.degree(i) % 2:
                continue
            if basis.degree(i) % 2 and i in word:
                continue
            if weights[i] <= budget:
                rec(i, word + [i], length - 1, budget - weights[i])

    for n in range(min_len, max_len + 1):
        rec(0, [], n, cap)
    return out


def rref(matrix):
    """Reduced row echelon form; returns (rref_rows, pivot_columns)."""
    rows = [list(r) for r in matrix]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = Fraction(rows[r][c])
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank(matrix) -> int:
    return len(rref(matrix)[1])


def kernel_basis(matrix):
    """Basis of the right kernel {x : M x = 0}; each vector a list."""
    if not matrix:
        return []
    ncols = len(matrix[0])
    rows, pivots = rref(matrix)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][fc]
        basis.append(vec)
    return basis


def solve(matrix, rhs):
    """One solution x of M x = b, or None when inconsistent."""
    if not matrix:
        return None if any(rhs) else []
    ncols = len(matrix[0])
    aug = [list(row) + [b] for row, b in zip(matrix, rhs)]
    rows, pivots = rref(aug)
    for r in rows:
        if all(x == 0 for x in r[:ncols]) and r[ncols] != 0:
            return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        if pc == ncols:
            return None
        x[pc] = rows[r][ncols]
    return x


def in_span(vectors, target) -> bool:
    """Is `target` a linear combination of `vectors`?"""
    if not vectors:
        return all(x == 0 for x in target)
    matrix = [[vec[i] for vec in vectors] for i in range(len(target))]
    return solve(matrix, list(target)) is not None


def express_in_span(vectors, target):
    """Coefficients c with sum c_j vectors_j = target, or None."""
    if not vectors:
        return [] if all(x == 0 for x in target) else None
    matrix = [[vec[i] for vec in vectors] for i in range(len(target))]
    return solve(matrix, list(target))


def dense_nilpotency_index(self):
    """Smallest s with A^s = 0 for the series A^1 = A,
    A^{s+1} = A * A^s; None when the series does not reach 0."""
    n = len(self.basis)
    B = self.rows
    span = [[int(i == j) for j in range(n)] for i in range(n)]
    s = 1
    while span:
        if s > n + 1:
            return None
        nxt = []
        for i in range(n):
            for vec in span:
                prod = lin_into({}, B[i], {k: c for k, c in enumerate(vec) if c})
                if prod:
                    nxt.append([prod.get(k, 0) for k in range(n)])
        reduced, pivots = rref(nxt) if nxt else ([], [])
        span = reduced[: len(pivots)]
        s += 1
    return s


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
