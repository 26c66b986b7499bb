"""JSON input schemas: one top-level object per structure type with a
"kind" discriminator (optional when the subcommand fixes the type).
Validation precedes any mathematics; errors carry the offending path.
Each parser imports its domain module itself, so that a CLI launch loads
only the modules its subcommand runs.
"""

from __future__ import annotations

import json
import os

from .core import Element, GradedBasis, add_term
from .errors import InputError
from .scalars import GaussianScalar, parse_rational

MAX_BASIS_ENV = "DEFALG_MAX_BASIS"
DEFAULT_MAX_BASIS = 4096


def max_basis():
    raw = os.environ.get(MAX_BASIS_ENV)
    if raw is None:
        return DEFAULT_MAX_BASIS
    try:
        return int(raw)
    except ValueError:
        raise InputError(f"{MAX_BASIS_ENV} must be an integer, got {raw!r}")


def refuse_past_cap(what, totals):
    """Refuse the work before it starts when one of its running `totals`
    passes the `DEFALG_MAX_BASIS` cap.  The totals are read lazily and only
    until one passes, so a huge flag value never builds a huge total."""
    cap = max_basis()
    if any(total > cap for total in totals):
        raise InputError(f"{what} exceed the {MAX_BASIS_ENV} cap of {cap}")


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError(f"input file not found: {path}")
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON ({exc})")


def expect_kind(data, kind):
    if not isinstance(data, dict):
        found = type(data).__name__
        raise InputError(f"expected a JSON object of kind {kind!r}, found {found}")
    found = data.get("kind")
    if found is not None and found != kind:
        raise InputError(f"kind: expected {kind!r}, found {found!r}")


def _field(data, name, path):
    if not isinstance(data, dict):
        raise InputError(f"{path}: must be an object")
    if name not in data:
        raise InputError(f"{path}.{name}: missing field")
    return data[name]


def _list_field(data, name, path, default=None):
    """data[name], which must be a list; required unless `default` is given.
    An empty `path` names the field alone."""
    value = _field(data, name, path) if default is None else data.get(name, default)
    if not isinstance(value, list):
        where = f"{path}.{name}" if path else name
        raise InputError(f"{where}: must be a list")
    return value


def _int_field(data, name, path, nonnegative=False):
    """data[name], which must be an integer (a bool is not one)."""
    value = _field(data, name, path)
    if isinstance(value, bool) or not isinstance(value, int) or (
        nonnegative and value < 0
    ):
        kind = "a nonnegative integer" if nonnegative else "an integer"
        raise InputError(f"{path}.{name}: must be {kind}")
    return value


def parse_basis(data, path="basis") -> GradedBasis:
    if not isinstance(data, list) or not data:
        raise InputError(f"{path}: must be a nonempty list")
    refuse_past_cap(f"{path}: the {len(data)} basis elements", (len(data),))
    names = []
    degrees = []
    for i, entry in enumerate(data):
        names.append(str(_field(entry, "name", f"{path}[{i}]")))
        degrees.append(_int_field(entry, "degree", f"{path}[{i}]"))
    try:
        return GradedBasis(tuple(names), tuple(degrees))
    except InputError as exc:
        raise InputError(f"{path}: {exc}")


def parse_value(data, basis: GradedBasis, path) -> Element:
    out = Element()
    if not isinstance(data, list):
        raise InputError(f"{path}: must be a list of {{basis, coeff}}")
    for i, entry in enumerate(data):
        name = _field(entry, "basis", f"{path}[{i}]")
        try:
            coeff = parse_rational(_field(entry, "coeff", f"{path}[{i}]"))
        except InputError as exc:
            raise InputError(f"{path}[{i}].coeff: {exc}")
        try:
            out.add_term(basis.index(name), coeff)
        except InputError as exc:
            raise InputError(f"{path}[{i}].basis: {exc}")
    return out


def _parse_pair_table(data, name, basis, prefix=""):
    """The optional list data[name] of {left, right, value} entries, named
    `{prefix}{name}` in messages."""
    path = f"{prefix}{name}"
    table = {}
    for i, entry in enumerate(_list_field(data, name, prefix.rstrip("."), [])):
        left = basis.index(_field(entry, "left", f"{path}[{i}]"))
        right = basis.index(_field(entry, "right", f"{path}[{i}]"))
        value = parse_value(
            _field(entry, "value", f"{path}[{i}]"), basis, f"{path}[{i}].value"
        )
        table[(left, right)] = value
    return table


def _parse_diff_table(data, name, basis, prefix=""):
    """The optional list data[name] of {from, value} entries, named
    `{prefix}{name}` in messages."""
    path = f"{prefix}{name}"
    diff = {}
    for i, entry in enumerate(_list_field(data, name, prefix.rstrip("."), [])):
        src = basis.index(_field(entry, "from", f"{path}[{i}]"))
        diff[src] = parse_value(
            _field(entry, "value", f"{path}[{i}]"), basis, f"{path}[{i}].value"
        )
    return diff


def parse_dgla(data, path="") -> DGLA:
    from .dgla import DGLA

    expect_kind(data, "dgla")
    basis = parse_basis(_field(data, "basis", path or "dgla"), f"{path}basis")
    bracket = _parse_pair_table(data, "bracket", basis, path)
    diff = _parse_diff_table(data, "differential", basis, path)
    return DGLA(basis, bracket, diff)


def parse_artin(data, path="") -> ArtinDg:
    from .dgla import ArtinDg

    expect_kind(data, "artin_dg")
    basis = parse_basis(_field(data, "basis", path or "artin_dg"), f"{path}basis")
    table = _parse_pair_table(data, "product", basis, path)
    diff = _parse_diff_table(data, "differential", basis, path)
    return ArtinDg(basis, table, diff)


def parse_nilpotent_lie(data) -> NilpotentLie:
    from .freelie import NilpotentLie

    expect_kind(data, "nilpotent_lie")
    basis = parse_basis(_field(data, "basis", "nilpotent_lie"))
    table = _parse_pair_table(data, "bracket", basis)
    return NilpotentLie(basis, table)


def parse_nilpotent_bch(data) -> tuple:
    """(lie, left, right): the two elements of the nilpotent Lie algebra
    whose BCH product is asked for."""
    lie = parse_nilpotent_lie(data)
    left = parse_value(data.get("left"), lie.basis, "left")
    return lie, left, parse_value(data.get("right"), lie.basis, "right")


def _generators(data, path) -> tuple:
    """data["generators"], a list of distinct strings."""
    gens = _list_field(data, "generators", path)
    for i, name in enumerate(gens):
        if not isinstance(name, str):
            raise InputError(f"{path}.generators[{i}]: must be a string")
        if name in gens[:i]:
            raise InputError(f"{path}.generators[{i}]: {name!r} is repeated")
    return tuple(gens)


def parse_free_bch(data, order) -> tuple:
    """The two generators of a free_bch document as series truncated at
    `order`."""
    from .freelie import TensorSeries

    expect_kind(data, "free_bch")
    gens = _generators(data, "free_bch")
    if len(gens) != 2:
        raise InputError("free_bch needs exactly two generators")
    return tuple(TensorSeries.generator(gens, order, name) for name in gens)


def parse_tensor_poly(data) -> TensorSeries:
    from .freelie import TensorSeries

    expect_kind(data, "tensor_poly")
    gens = _generators(data, "tensor_poly")
    order = data.get("truncation", 4)
    if isinstance(order, bool) or not isinstance(order, int) or order < 0:
        raise InputError("tensor_poly.truncation: must be a nonnegative integer")
    out = TensorSeries.zero(gens, order)
    for i, entry in enumerate(_list_field(data, "terms", "tensor_poly", [])):
        word = _list_field(entry, "word", f"terms[{i}]")
        idx = []
        for w in word:
            if w not in gens:
                raise InputError(f"terms[{i}].word: unknown generator {w!r}")
            idx.append(gens.index(w))
        coeff = parse_rational(_field(entry, "coeff", f"terms[{i}]"))
        out.add_term(tuple(idx), coeff)
    return out


def _pair_terms(data, name, left, right, left_key="l", prefix=""):
    """{(left index, right index): coeff} from the optional list data[name]
    of {left_key: left basis name, "a": right basis name, "coeff"} entries,
    named `{prefix}{name}` in messages.  A repeated pair adds its
    coefficients, as every other term list does."""
    path = f"{prefix}{name}"
    terms = {}
    for i, entry in enumerate(_list_field(data, name, prefix.rstrip("."), [])):
        where = f"{path}[{i}]"
        key = (
            left.index(_field(entry, left_key, where)),
            right.index(_field(entry, "a", where)),
        )
        add_term(terms, key, parse_rational(_field(entry, "coeff", where)))
    return terms


def parse_pair_element(data, name, M):
    """Element of a tensor DGLA given in the optional list data[name] as
    [{"l": L basis name, "a": A basis name, "coeff"}]."""
    out = Element()
    for pair, coeff in _pair_terms(data, name, M.L.basis, M.A.basis).items():
        out.add_term(M.pair_index[pair], coeff)
    return out


def _tensor_dgla(data, kind) -> TensorDgla:
    """L (x) m_A from the "dgla" and "base" fields of a `kind` document."""
    from .dgla import TensorDgla

    expect_kind(data, kind)
    L = parse_dgla(_field(data, "dgla", "problem"), "dgla.")
    return TensorDgla(L, parse_artin(_field(data, "base", "problem"), "base."))


def parse_mc_problem(data) -> tuple:
    """(M, x): the element x of M = L (x) m_A to test."""
    M = _tensor_dgla(data, "mc_problem")
    return M, parse_pair_element(data, "element", M)


def parse_gauge_problem(data) -> tuple:
    """(M, a, w): the gauge a acting on the element w of M = L (x) m_A."""
    M = _tensor_dgla(data, "gauge_problem")
    a = parse_pair_element(data, "gauge_by", M)
    return M, a, parse_pair_element(data, "element", M)


def parse_obstruction_problem(data) -> tuple:
    """(L, ext, x): x in L (x) m_B lifts along the small extension ext of B."""
    from .dgla import TensorDgla

    expect_kind(data, "obstruction_problem")
    L = parse_dgla(_field(data, "dgla", "problem"), "dgla.")
    ext = _small_extension(data, "problem")
    return L, ext, parse_pair_element(data, "element", TensorDgla(L, ext.quotient))


def parse_cohomology_problem(data) -> tuple:
    """(structure, degree): a DGLA or (with kind "artin_dg") a base algebra."""
    expect_kind(data, "cohomology_problem")
    inner = _field(data, "structure", "problem")
    artin = isinstance(inner, dict) and inner.get("kind", "dgla") != "dgla"
    structure = (parse_artin if artin else parse_dgla)(inner, "structure.")
    return structure, _int_field(data, "degree", "problem")


def parse_components(data, basis, target_basis):
    """The optional list data["components"] of {"arity": k, "entries":
    [{"word": [...], "value": [...]}]} -> {arity: {word tuple: Element}}."""
    path = "components"
    tables = {}
    for i, comp in enumerate(_list_field(data, path, "", [])):
        arity = _int_field(comp, "arity", f"{path}[{i}]")
        if arity < 1:
            raise InputError(f"{path}[{i}].arity: must be an integer >= 1")
        if arity in tables:
            raise InputError(f"{path}[{i}].arity: arity {arity} is given twice")
        entries = _list_field(comp, "entries", f"{path}[{i}]", [])
        tables[arity] = _word_table(entries, f"{path}[{i}]", basis, target_basis, arity)
    return tables


def _word_table(entries, path, basis, target_basis, arity=None) -> dict:
    """{word tuple: Element} from [{"word": [...], "value": [...]}] entries,
    named `{path}[j]` in messages; every word has `arity` letters if given."""
    table = {}
    for j, entry in enumerate(entries):
        where = f"{path}[{j}]"
        word = tuple(basis.index(w) for w in _list_field(entry, "word", where))
        if arity is not None and len(word) != arity:
            raise InputError(f"{where}.word: length != arity")
        value = _field(entry, "value", where)
        table[word] = parse_value(value, target_basis, f"{where}.value")
    return table


def parse_coderivation(data) -> Coderivation:
    from .coalg import coder_lift

    expect_kind(data, "coderivation")
    basis = parse_basis(_field(data, "basis", "coderivation"))
    degree = _int_field(data, "degree", "coderivation")
    return coder_lift(basis, degree, parse_components(data, basis, basis))


def parse_comorphism(data) -> CoalgMorphism:
    from .coalg import CoalgMorphism

    expect_kind(data, "comorphism")
    source = parse_basis(_field(data, "source_basis", "comorphism"))
    target = parse_basis(_field(data, "target_basis", "comorphism"))
    return CoalgMorphism(source, target, parse_components(data, source, target))


def parse_linfty(data, path="") -> LInftyStructure:
    from .linfty import LInftyStructure

    expect_kind(data, "linfty")
    basis = parse_basis(_field(data, "basis", "linfty"), f"{path}basis")
    convention = data.get("convention", "unsuspended")
    brackets = data.get("brackets", {})
    if not isinstance(brackets, dict):
        raise InputError(f"{path}brackets: must be an object keyed by arity")
    tables = {}
    for arity_str in brackets:
        try:
            arity = int(arity_str)
        except ValueError:
            arity = 0
        if arity < 1:
            raise InputError(f"brackets.{arity_str}: arity must be an integer >= 1")
        entries = _list_field(brackets, arity_str, "brackets")
        if arity in tables:
            raise InputError(f"brackets.{arity_str}: arity {arity} is given twice")
        tables[arity] = _word_table(entries, f"brackets.{arity_str}", basis, basis)
    if convention == "suspended":
        return LInftyStructure(basis, tables)
    if convention == "unsuspended":
        return LInftyStructure.from_unsuspended(basis, tables)
    raise InputError(f"convention: unknown value {convention!r}")


def parse_linfty_morphism(data) -> LInftyMorphism:
    from .linfty import LInftyMorphism

    expect_kind(data, "linfty_morphism")
    source = parse_linfty(_field(data, "source", "morphism"))
    target = parse_linfty(_field(data, "target", "morphism"))
    tables = parse_components(data, source.shifted, target.shifted)
    return LInftyMorphism(source, target, tables)


def parse_mc_linfty_problem(data) -> tuple:
    """(S, A, m): m = {(S index, A index): coeff} in S (x) m_A."""
    expect_kind(data, "mc_linfty_problem")
    S = parse_linfty(_field(data, "structure", "problem"))
    A = parse_artin(_field(data, "base", "problem"), "base.")
    return S, A, _pair_terms(data, "element", S.space, A.basis)


def parse_gbv(data) -> GBVStructure:
    from .gbv import GBVStructure, GradedCommAlgebra

    expect_kind(data, "gbv")
    alg = _field(data, "algebra", "gbv")
    basis = parse_basis(_field(alg, "basis", "gbv.algebra"), "gbv.algebra.basis")
    table = _parse_pair_table(alg, "product", basis, "gbv.algebra.")
    algebra = GradedCommAlgebra(basis, table, alg.get("unit"))
    delta = _parse_diff_table(data, "delta", basis, "gbv.")
    return GBVStructure(algebra, delta)


def parse_polyvector(data) -> Polyvector:
    expect_kind(data, "polyvector")
    return _polyvector(data, _list_field(data, "terms", "polyvector", []))


def parse_polyvector_pair(data) -> tuple:
    """(left, right): two polyvectors on the document's vars and cap."""
    expect_kind(data, "polyvector_pair")
    return tuple(
        _polyvector(data, _list_field(data, side, "polyvector_pair"), f"{side}.")
        for side in ("left", "right")
    )


def _polyvector(data, entries, path="") -> Polyvector:
    """The polyvector with the given term entries on data's vars and cap."""
    from .gbv import Polyvector

    nvars = _int_field(data, "vars", f"{path}polyvector", nonnegative=True)
    cap = None
    if data.get("cap") is not None:
        cap = _int_field(data, "cap", f"{path}polyvector", nonnegative=True)
    terms = {}
    for i, entry in enumerate(entries):
        coeff = parse_rational(_field(entry, "coeff", f"{path}terms[{i}]"))
        mono = tuple(_list_field(entry, "monomial", f"{path}terms[{i}]"))
        if any(isinstance(e, bool) or not isinstance(e, int) or e < 0 for e in mono):
            raise InputError(
                f"{path}terms[{i}].monomial: entries must be nonnegative integers"
            )
        frame_raw = _list_field(entry, "frame", f"{path}terms[{i}]")
        if any(
            isinstance(z, bool) or not isinstance(z, int) or not 1 <= z <= nvars
            for z in frame_raw
        ):
            raise InputError(f"{path}terms[{i}].frame: entries must lie in 1..vars")
        frame = tuple(z - 1 for z in frame_raw)
        add_term(terms, (mono, frame), coeff)
    try:
        return Polyvector(nvars, cap, terms)
    except InputError as exc:
        raise InputError(f"{path}polyvector: {exc}")


def parse_covector(data) -> CovectorElement:
    from .lefschetz import CovectorElement, make_key

    expect_kind(data, "covector")
    n = _int_field(data, "dim", "covector", nonnegative=True)
    out = CovectorElement(n)
    for i, entry in enumerate(_list_field(data, "terms", "covector", [])):
        coeff_raw = _field(entry, "coeff", f"terms[{i}]")
        re = parse_rational(_field(coeff_raw, "re", f"terms[{i}].coeff"))
        im = parse_rational(coeff_raw.get("im", "0"))
        slots = []
        for name in "ABMN":
            slot = _list_field(entry, name, f"terms[{i}]")
            if any(isinstance(x, bool) or not isinstance(x, int) for x in slot):
                raise InputError(f"terms[{i}].{name}: must be a list of integers")
            slots.append(slot)
        try:
            key = make_key(n, *slots)
        except InputError as exc:
            raise InputError(f"terms[{i}]: {exc}")
        out.add_term(key, GaussianScalar.of(re, im))
    return out


def parse_small_extension(data) -> SmallExtension:
    expect_kind(data, "small_extension")
    return _small_extension(data, "small_extension")


def _small_extension(data, path) -> SmallExtension:
    """The extension of data["total"] by the basis names in data["kernel"]."""
    from .dgla import SmallExtension

    total = parse_artin(_field(data, "total", path), "total.")
    return SmallExtension(total, _list_field(data, "kernel", path))


def parse_unital_algebra(data, path="algebra") -> GradedCommAlgebra:
    from .gbv import GradedCommAlgebra

    basis = parse_basis(_field(data, "basis", path), f"{path}.basis")
    table = _parse_pair_table(data, "product", basis, f"{path}.")
    unit = _field(data, "unit", path)
    if unit is None:
        raise InputError(f"{path}.unit: must name a basis element")
    return GradedCommAlgebra(basis, table, unit)


def parse_exp_derivation(data) -> ExpDerivation:
    """e^d for the derivation d given as [{"from": r, "value": [{"r", "a",
    "coeff"}]}] from the algebra to itself (x) m_A of the base."""
    from .dgla import ExpDerivation

    expect_kind(data, "exp_derivation")
    R = parse_unital_algebra(_field(data, "algebra", "exp_derivation"))
    A = parse_artin(_field(data, "base", "exp_derivation"), "base.")
    values = {}
    for i, entry in enumerate(_list_field(data, "derivation", "", [])):
        src = R.basis.index(_field(entry, "from", f"derivation[{i}]"))
        prefix = f"derivation[{i}]."
        values[src] = _pair_terms(entry, "value", R.basis, A.basis, "r", prefix)
    return ExpDerivation(R, A, values)


def parse_homotopy(data) -> tuple:
    from .dgla import DtPolynomial, Homotopy

    expect_kind(data, "homotopy")
    source = parse_artin(_field(data, "source", "homotopy"), "source.")
    target = parse_artin(_field(data, "target", "homotopy"), "target.")
    entries = {}
    for i, entry in enumerate(_list_field(data, "entries", "homotopy", [])):
        src = source.basis.index(_field(entry, "from", f"entries[{i}]"))
        poly = DtPolynomial(target)
        for j, term in enumerate(_list_field(entry, "value", f"entries[{i}]", [])):
            path = f"entries[{i}].value[{j}]"
            b = target.basis.index(_field(term, "basis", path))
            k = 0
            if "t_power" in term:
                k = _int_field(term, "t_power", path, nonnegative=True)
            dt = term.get("dt", False)
            if not isinstance(dt, bool):
                raise InputError(f"{path}.dt: must be true or false")
            coeff = parse_rational(_field(term, "coeff", path))
            poly.add_term((b, k, dt), coeff)
        entries[src] = poly
    eval_at = parse_rational(data.get("eval_at", "1"))
    return Homotopy(source, target, entries), eval_at
