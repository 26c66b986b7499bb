"""Sign-correct substrate: graded bases, sparse elements, Koszul signs,
unshuffles, the one signed sort of graded words and signed permutations.

Sign conventions are fixed once, in docs/sign_ledger.md; every other
module routes its signs through the functions here (ledger entries K1-K4).
"""

from __future__ import annotations

import functools
import itertools
from bisect import bisect_left
from math import comb, prod
from operator import attrgetter

from .errors import DomainError, InputError
from .scalars import int_first_value

# ---------------------------------------------------------------------------
# The sparse accumulate kernel: every sparse value in the package is an
# instance of the one sparse vector class `Element` below (or of a subclass:
# symmetric words, tensor series, polyvectors, forms, covectors over Q(i),
# B[t,dt] homotopies), whose `terms` is a dict from hashable keys to nonzero
# coefficients: an int when the coefficient is integral, else a Fraction.
# Tables (`int_first`, `BilinearTable`) and polyvectors (`gbv.Polyvector`)
# store what they are given by the one rule `scalars.int_first_value`.
# `add_term` and `add_into` are the only code that adds into such a dict.
# Their contract: no stored zeros (a key whose sum is zero is deleted), and
# no zero scalar built (a missing key stores the added coefficient object
# itself, never 0 + c), so a new key is appended and a present key keeps its
# place in insertion order.
# ---------------------------------------------------------------------------


def add_term(out: dict, key, c) -> None:
    """out[key] += c in place, deleting the key when the sum is zero."""
    old = out.get(key)
    if old is None:
        if c:
            out[key] = c
    else:
        c = old + c
        if c:
            out[key] = c
        else:
            del out[key]


def add_into(out: dict, terms: dict, c=1) -> dict:
    """out += c * terms in place, by the `add_term` step (inlined); each
    term is scaled as it is added, so `terms` is never copied."""
    scaled = c != 1
    get = out.get
    for k, v in terms.items():
        if scaled:
            v = c * v
        old = get(k)
        if old is None:
            if v:
                out[k] = v
        else:
            v = old + v
            if v:
                out[k] = v
            else:
                del out[k]
    return out


def int_first(table: dict) -> dict:
    """A copy of a table of Elements without its zero entries, each
    integral Fraction coefficient stored as an int.

    Integer-first coefficients (`scalars.int_first_value`): a Fraction is
    built only where a division happens.  The copy keeps each int as it is
    and passes only the other coefficients through the rule."""
    out = {}
    for k, v in table.items():
        if v.terms:
            terms = dict(v.terms)
            for t, c in v.terms.items():
                if type(c) is not int:
                    terms[t] = int_first_value(c)
            out[k] = v._like(terms)
    return out


def int_first_terms(terms: dict) -> dict:
    """`terms` itself when every coefficient is an int, else a copy with
    each passed through `scalars.int_first_value`; never mutates it."""
    for c in terms.values():
        if type(c) is not int:
            return {t: int_first_value(c) for t, c in terms.items()}
    return terms


def lin_into(out: dict, images, x: dict, c=1) -> dict:
    """out += c * sum_t x[t] * images[t], in place; `images` maps an index
    to a terms dict (missing means zero)."""
    for t, a in x.items():
        img = images.get(t)
        if img:
            add_into(out, img, a if c == 1 else c * a)
    return out


# ---------------------------------------------------------------------------
# Graded bases and sparse elements
# ---------------------------------------------------------------------------


class GradedBasis:
    """Ordered list of named homogeneous basis symbols.

    Declaration order is canonical: it fixes word ordering and makes every
    output deterministic.  A value: immutable, equal and hashing alike when
    the names and degrees are.
    """

    __slots__ = ("names", "degrees", "_index")

    def __init__(self, names: tuple, degrees: tuple):
        if len(names) != len(degrees):
            raise InputError("basis names/degrees length mismatch")
        if len(set(names)) != len(names):
            raise InputError("basis names must be unique")
        setter = object.__setattr__
        setter(self, "names", names)
        setter(self, "degrees", degrees)
        setter(self, "_index", {n: i for i, n in enumerate(names)})

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.names, self.degrees) == (other.names, other.degrees)

    def __hash__(self):
        return hash((self.names, self.degrees))

    def __repr__(self):
        return f"GradedBasis(names={self.names!r}, degrees={self.degrees!r})"

    def __reduce__(self):
        # copy and pickle rebuild through __init__: the slots are frozen
        return GradedBasis, (self.names, self.degrees)

    @staticmethod
    def of(*pairs) -> "GradedBasis":
        return GradedBasis(tuple(n for n, _ in pairs), tuple(d for _, d in pairs))

    def __len__(self):
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except (KeyError, TypeError):  # TypeError: an unhashable name
            raise InputError(f"unknown basis symbol {name!r}") from None

    def degree(self, i: int) -> int:
        return self.degrees[i]

    def indices_of_degree(self, d: int):
        return [i for i, deg in enumerate(self.degrees) if deg == d]


_new = object.__new__


def _context_copier(names):
    """copy(src, dst): store each context field in `names` of src into dst,
    as straight-line slot stores in a generated function (the way
    `dataclasses` generates __init__), which is cheaper than a getattr /
    setattr loop over the names.  The names are `__slots__` entries, so
    identifiers."""
    stores = "".join(f"\n    dst.{name} = src.{name}" for name in names)
    scope = {}
    exec(f"def copy(src, dst):{stores or ' pass'}", scope)
    return scope["copy"]


class Element:
    """The one sparse vector class: an exact linear combination stored in
    `terms`, a dict from hashable keys to nonzero coefficients.

    Every sparse value of the package is an Element or a subclass of it.  A
    subclass adds its context (a basis, generators and truncation order, a
    variable count, ...) as `__slots__` and lists in `_compared` the fields
    that `==` compares besides the exact class and the terms; the others are
    carried, not compared.  `+`, `-`, unary `-`, `scale` and `copy` build
    their result with `_like`, in the left operand's context, and `+` / `-`
    raise InputError when a compared field differs.  Results are not
    filtered for zeros again: `add_into` stores none and a nonzero scalar
    makes none."""

    __slots__ = ("terms",)
    _context = ()  # the slot names subclasses add, set by __init_subclass__
    _copy = staticmethod(_context_copier(()))  # copies _context; set likewise
    _compared = ()  # the context fields == and +/- compare
    _key = None  # attrgetter of _compared, None when it is empty

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._context = cls._context + tuple(cls.__dict__.get("__slots__", ()))
        cls._copy = staticmethod(_context_copier(cls._context))
        cls._key = attrgetter(*cls._compared) if cls._compared else None

    def __init__(self, terms=None):
        self.terms = {k: v for k, v in terms.items() if v} if terms else {}

    def _like(self, terms) -> "Element":
        """A value of this class and context holding `terms` (no zeros)."""
        out = _new(type(self))
        out.terms = terms
        self._copy(self, out)
        return out

    def _check(self, other):
        """InputError unless `other` agrees with self on the compared fields."""
        key = self._key
        if key is not None and key(self) != key(other):
            fields = "/".join(self._compared)
            raise InputError(f"{type(self).__name__} operands differ in {fields}")

    def _sum(self, other, terms) -> "Element":
        """self +/- other, whose terms are `terms`."""
        self._check(other)
        return self._like(terms)

    @staticmethod
    def basis_vector(i: int, coeff=1) -> "Element":
        return Element({i: coeff})

    def copy(self) -> "Element":
        return self._like(dict(self.terms))

    def add_term(self, key, coeff):
        add_term(self.terms, key, coeff)

    def __add__(self, other):
        return self._sum(other, add_into(dict(self.terms), other.terms))

    def __sub__(self, other):
        return self._sum(other, add_into(dict(self.terms), other.terms, -1))

    def __neg__(self):
        return self._like({k: -v for k, v in self.terms.items()})

    def scale(self, c) -> "Element":
        if not c:
            return self._like({})
        return self._like({k: v * c for k, v in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        key = self._key
        return (
            type(other) is type(self)
            and self.terms == other.terms
            and (key is None or key(self) == key(other))
        )

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __iter__(self):
        return iter(sorted(self.terms.items()))

    def degree(self, basis: GradedBasis):
        """The common degree of all terms; DomainError if inhomogeneous."""
        degs = {basis.degree(i) for i in self.terms}
        if len(degs) > 1:
            raise DomainError(f"inhomogeneous element (degrees {sorted(degs)})")
        return degs.pop() if degs else None

    def __repr__(self):
        return f"{type(self).__name__}({self.terms!r})"


# ---------------------------------------------------------------------------
# Basis-pair tables and the identity engine: a checker compiles each bilinear
# operation once into rows[i][j] / cols[j][i] and each linear map into
# images[i] (terms dicts, nonzero entries only, never mutated), declares its
# axioms as steps for `violations` (families of index tuples, usually from
# `admitted`, each with its identities: location template, message and a
# residual from the builders below), and `report_violations` adds one
# violation per failing instance.  Its contract: `name` maps one index of a
# tuple (a basis index, a whole word, ...) to the text put into the
# template, and `show` maps a residual to the report's residual text, e.g.
# `format_terms` over the basis names.  A residual is falsy exactly when its
# identity holds: a terms dict, a bool, or a one-element tuple of a text that
# can be "" or {}; an Element defines no __bool__, so it is never one.
# `BilinearTable` has the one resolver of a bilinear operation's rows: it
# reads a table of terms dicts, and the Element-valued `table` is a view of
# it built on first read.
# ---------------------------------------------------------------------------


def basis_rows(entry, n):
    """(rows, cols) of a bilinear operation; entry(i, j) is the terms dict
    of its value on (e_i, e_j)."""
    rows = [{} for _ in range(n)]
    cols = [{} for _ in range(n)]
    for i in range(n):
        for j in range(n):
            terms = entry(i, j)
            if terms:
                rows[i][j] = cols[j][i] = terms
    return rows, cols


class BilinearTable:
    """A bilinear operation on a graded basis given by structure constants.

    `table[(i, j)]` is the Element e_i * e_j; a missing (j, i) follows from a
    stored (i, j) by e_j * e_i = sign (-1)^{deg i deg j} e_i * e_j, with
    `sign` +1 for graded-commutative and -1 for graded-antisymmetric
    operations; missing both means zero.  `unit` optionally names a
    degree-0 two-sided identity, which overrides its table row and column.

    One resolver, `_resolve`, reads the table as terms dicts: `__init__`
    hands it the terms of a table of Elements, and a subclass's `from_terms`
    a table of terms dicts built without an Element per entry.  It stores
    each nonzero entry in `stored[(i, j)]`, in the table's order, int-first
    (`scalars.int_first_value`): the dict given when every coefficient is an
    int, else a converted copy; it never mutates one.  `rows[i][j]` and
    `cols[j][i]` hold the terms dict of e_i * e_j (nonzero entries only,
    shared, never mutated), and `swap_rule` says whether the operation is
    degree-additive and obeys its swap rule on every pair (sign ledger K5).
    `table`, the stored entries as Elements, is built on first read."""

    def __init__(self, basis: GradedBasis, table, sign, unit=None):
        self._resolve(basis, {k: v.terms for k, v in table.items()}, sign, unit)

    def _resolve(self, basis: GradedBasis, table, sign, unit=None):
        n = len(basis)
        self.basis = basis
        self.stored = stored = {}
        for (i, j), v in table.items():
            if not v:
                continue
            if not (0 <= i < n and 0 <= j < n):
                raise InputError("table entry outside basis")
            stored[i, j] = int_first_terms(v)
        self.unit = u = basis.index(unit) if unit is not None else None
        if u is not None and basis.degree(u) != 0:
            raise InputError("unit must have degree 0")
        deg = basis.degrees
        entries = {}
        # a completed swap obeys the rule, so only pairs stored in both
        # orders are compared; a unit's row obeys it exactly when sign is +1
        swap_rule = u is None or sign == 1
        for (i, j), v in stored.items():
            entries[i, j] = v
            factor = -sign if deg[i] * deg[j] % 2 else sign
            swapped = v if factor == 1 else {t: -c for t, c in v.items()}
            other = stored.get((j, i))  # v itself when i == j
            if other is None:
                entries[j, i] = swapped
            if swap_rule and u != i and u != j:
                want = deg[i] + deg[j]
                swap_rule = (other is None or other == swapped) and all(
                    deg[t] == want for t in v
                )
        if u is not None:
            for i in range(n):
                entries[u, i] = entries[i, u] = {i: 1}
        self.swap_rule = swap_rule
        # sorted (i, j) fill rows[i] by increasing j and cols[j] by increasing i
        self.rows = rows = [{} for _ in range(n)]
        self.cols = cols = [{} for _ in range(n)]
        for (i, j), v in sorted(entries.items()):
            rows[i][j] = cols[j][i] = v

    @functools.cached_property
    def table(self):
        return {k: Element(v) for k, v in self.stored.items()}

    def apply(self, x: Element, y: Element) -> Element:
        out = {}
        rows = self.rows
        for i, ci in x.terms.items():
            row = rows[i]
            for j, cj in y.terms.items():
                terms = row.get(j)
                if terms is not None:
                    add_into(out, terms, ci * cj)
        return Element(out)


def check_weights(n, weights, cap):
    """InputError unless `weights` holds one nonnegative int per index of
    range(n) and `cap` >= 0."""
    if len(weights) != n or cap < 0 or min(weights, default=0) < 0:
        raise InputError("weights need one nonnegative int per index and cap >= 0")


def admitted(n, arity, weights=None, cap=0):
    """Index tuples of length `arity` >= 1 over range(n) in lexicographic order,
    restricted with `weights` (one nonnegative int per index) to those whose
    weights sum to at most `cap`.  The ascending indices within each
    remaining budget are listed once, so only admitted tuples are visited."""
    if weights is None:
        return itertools.product(range(n), repeat=arity)
    return representatives(n, arity, (), weights, cap)


def representatives(n, arity, slots, weights=None, cap=0):
    """The tuples of `admitted(n, arity, weights, cap)`, in its order, whose
    entries at the positions `slots` (increasing) do not decrease: one per
    orbit of the permutations of those positions.  A weight sum does not
    change under a permutation, so each orbit lies in the admitted family
    (sign ledger K5)."""
    if weights is None:
        weights = (0,) * n
    check_weights(n, weights, cap)
    fit = [[i for i, w in enumerate(weights) if w <= r] for r in range(cap + 1)]
    floor = dict(zip(slots[1:], slots))  # position -> the slot it may not undercut

    def extend(prefix, budget):
        pos = len(prefix)
        row = fit[budget]
        if pos in floor:
            row = row[bisect_left(row, prefix[floor[pos]]) :]
        if pos == arity - 1:
            for i in row:
                yield prefix + (i,)
            return
        for i in row:
            yield from extend(prefix + (i,), budget - weights[i])

    return extend((), cap)


def violations(name, steps):
    """Yield (location, message, residual) lazily for each nonempty residual:
    `steps` is a list of (family of index tuples, identities), each tuple
    runs through its identities (template, message, residual) in order, and
    the location is the template formatted with `name` of each index.

    A step may carry a third member, a family of orbit representatives from
    `representatives` (or None): when every identity holds on each of them
    the step yields nothing, and otherwise it runs on its whole family as
    usual.  A checker passes representatives only where its residuals vanish
    on a whole orbit together (sign ledger K5), so the violations and their
    order never depend on them."""
    for family, identities, *reps in steps:
        if reps and reps[0] is not None:
            residuals = [residual for _, _, residual in identities]
            if not any(res(*idx) for idx in reps[0] for res in residuals):
                continue
        for idx in family:
            for template, message, residual in identities:
                res = residual(*idx)
                if res:
                    yield template.format(*map(name, idx)), message, res


def report_violations(rep, name, show, steps):
    """Add to the CheckReport `rep` every violation `violations(name, steps)`
    yields, its residual shown as `show(residual)`; returns `rep`."""
    for location, message, res in violations(name, steps):
        rep.add(location, show(res), message)
    return rep


def format_terms(names, terms) -> str:
    """A basis-indexed terms dict as "c*name + ...", sorted by index; "0"
    when it is empty."""
    if not terms:
        return "0"
    return " + ".join(f"{c}*{names[i]}" for i, c in sorted(terms.items()))


def swap_residual(rows, degree, sign):
    """res(i, j) = e_i e_j - sign (-1)^{deg i deg j} e_j e_i: graded
    antisymmetry for sign -1, graded commutativity for sign +1."""

    def res(i, j):
        s = sign if degree(i) * degree(j) % 2 else -sign
        return add_into(dict(rows[i].get(j, {})), rows[j].get(i, {}), s)

    return res


def derivation_residual(rows, cols, degree, pdeg=0):
    """res(X, xdeg, a, b) = X(e_a e_b) - (-1)^{xdeg pdeg} (X(e_a) e_b
    + (-1)^{xdeg deg a} e_a X(e_b)) for the degree-`pdeg` product with these
    rows and columns and the degree-`xdeg` map with images X."""
    flip = -1 if pdeg % 2 else 1

    def res(X, xdeg, a, b):
        out = {}
        if b in rows[a]:
            lin_into(out, X, rows[a][b])
        if a in X:
            lin_into(out, cols[b], X[a], -flip)
        if b in X:
            lin_into(out, rows[a], X[b], flip if xdeg * degree(a) % 2 else -flip)
        return out

    return res


def assoc_residual(rows, cols):
    """res(i, j, k) = (e_i e_j) e_k - e_i (e_j e_k)."""

    def res(i, j, k):
        out = lin_into({}, cols[k], rows[i][j]) if j in rows[i] else {}
        return lin_into(out, rows[i], rows[j][k], -1) if k in rows[j] else out

    return res


def square_residual(images):
    """res(i) = X(X(e_i)) for the linear map X with these images."""
    return lambda i: lin_into({}, images, images.get(i, {}))


def off_degree(entry, degree, shift=0):
    """res(*idx) = the terms dict entry(*idx) when a term of it is not in
    degree shift + the sum of the degrees of idx, else {}."""

    def res(*idx):
        want = sum(map(degree, idx)) + shift
        terms = entry(*idx)
        return terms if any(degree(k) != want for k in terms) else {}

    return res


# ---------------------------------------------------------------------------
# Permutations and Koszul signs
# ---------------------------------------------------------------------------
#
# A permutation sigma of {1..n} is stored as a tuple `images` of 0-based
# values: images[i] = sigma(i+1)-1.  The Koszul sign eps(sigma; v_1..v_n) is
# defined by  v_1 (.) ... (.) v_n = eps * v_{s(1)} (.) ... (.) v_{s(n)}
# (ledger K1): one factor (-1)^{deg v_a * deg v_b} per pair {a,b} whose
# relative order sigma inverts.


def is_permutation(images) -> bool:
    return sorted(images) == list(range(len(images)))


def koszul_sign(degrees, images) -> int:
    """eps(sigma; degrees): product over inverted pairs of (-1)^{d_a d_b}."""
    if len(degrees) != len(images):
        raise InputError("koszul_sign: degree list and permutation size differ")
    if not is_permutation(images):
        raise InputError(f"not a permutation: {images}")
    sign = 1
    n = len(images)
    for i in range(n):
        for j in range(i + 1, n):
            if images[i] > images[j] and degrees[images[i]] * degrees[images[j]] % 2:
                sign = -sign
    return sign


def unshuffles(p: int, q: int):
    """All (p,q)-unshuffles, ordered lexicographically on the image of the
    first block; count is binomial(p+q, p)."""
    if p < 0 or q < 0:
        raise InputError("unshuffle block sizes must be nonnegative")
    n = p + q
    out = []
    universe = range(n)
    for head in itertools.combinations(universe, p):
        head_set = set(head)
        tail = tuple(i for i in universe if i not in head_set)
        out.append(head + tail)
    assert len(out) == comb(n, p)
    return out


@functools.lru_cache(maxsize=4096)
def split_plan(n: int, k: int, parities: tuple):
    """The (k, n-k)-unshuffles of a word whose letters have the given degree
    parities, in `unshuffles` order, as (front positions, rest positions,
    int K1 sign) triples (sign ledger C2).  Plans are immutable and cached:
    4096 keys hold every key of words up to length 8."""
    return tuple(
        (u[:k], u[k:], koszul_sign(parities, u)) for u in unshuffles(k, n - k)
    )


def word_runs(word, parity):
    """The runs key of a canonical word: (multiplicity, parity) of each of
    its blocks of equal letters, in order; `parity` maps a letter to its
    degree mod 2."""
    counts = dict.fromkeys(word, 0)
    for x in word:
        counts[x] += 1
    return tuple(zip(counts.values(), map(parity, counts)))


@functools.lru_cache(maxsize=4096)
def multiset_plan(runs: tuple, k: int):
    """The distinct size-k sub-multisets of a canonical word with these
    runs, as the `split_plan` triples whose front takes a prefix of every
    run, each sign times the class weight prod C(m_i, k_i) (sign ledger C2).
    Only even letters repeat in a canonical word, so an unshuffle that
    differs from such a triple by swapping equal letters has its front, rest
    and sign; the `split_plan` sign is kept.  Plans are immutable and
    cached."""
    parities = tuple(p for m, p in runs for _ in range(m))
    place = [(r, j) for r, (m, _) in enumerate(runs) for j in range(m)]
    plan = []
    for front, rest, sign in split_plan(len(parities), k, parities):
        taken = [0] * len(runs)
        for pos in front:
            r, j = place[pos]
            if j != taken[r]:
                break
            taken[r] += 1
        else:
            weight = prod(comb(m, t) for (m, _), t in zip(runs, taken))
            plan.append((front, rest, sign * weight))
    return tuple(plan)


# ---------------------------------------------------------------------------
# Canonical words: the one signed sort
# ---------------------------------------------------------------------------


def sym_canonical(indices, degree_of, twist=0):
    """Canonical form of a graded word of basis indices: the one signed sort
    (sign ledger K4).

    Returns (sorted_tuple, int sign +-1) or None when the word is zero.  Each
    adjacent swap of letters a, b multiplies the sign by
    (-1)^{deg a deg b + twist}, and a repeated letter whose swap with itself
    is odd kills the word (char 0 kills 2(e.e)).  `degree_of` maps a basis
    index to its degree.  twist 0 sorts symmetric words, twist 1 wedge
    words (K2); the constant-odd `odd` sorts frames and raw exterior letters.
    """
    word = list(indices)
    degrees = list(map(degree_of, word))
    sign = 1
    # insertion sort; a letter that comes to rest beside a copy of itself
    # decides whether the word is zero
    for i in range(1, len(word)):
        j = i
        while j:
            a, b = word[j - 1], word[j]
            if a < b:
                break
            if a == b:
                if (degrees[j] + twist) % 2:
                    return None
                break
            if (degrees[j - 1] * degrees[j] + twist) % 2:
                sign = -sign
            word[j - 1], word[j] = b, a
            degrees[j - 1], degrees[j] = degrees[j], degrees[j - 1]
            j -= 1
    return tuple(word), sign


def odd(_letter):
    """The degree of every letter of a frame or a raw exterior word."""
    return 1


# ---------------------------------------------------------------------------
# Signed permutations
# ---------------------------------------------------------------------------


def signed_permutations(degrees):
    """Yield (eps(sigma), images) over the full symmetric group."""
    for images in itertools.permutations(range(len(degrees))):
        yield koszul_sign(degrees, images), images
