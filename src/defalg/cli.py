"""Uniform command-line entry point.

Exit codes: 0 pass, 1 check failed, 2 input error.  `--format json` emits
the CheckReport schema; reports are byte-identical across runs for fixed
inputs and seeds (timing is text-only).
"""

from __future__ import annotations

import argparse
import sys
import time
from . import models, schemas
from .coalg import all_words, coder_lift, split_count
from .core import Element
from .dgla import (
    TensorDgla,
    check_dgla,
    check_na,
    cohomology,
    cones,
    obstruction_class,
    ExpDerivation,
)
from .errors import DefalgError, InputError
from .freelie import bch_explicit, bch_free, dsw_project, is_lie
from .gbv import delta_volume, gbv_to_abelian, schouten, tian_todorov_check
from .lefschetz import identities_report, lefschetz_decompose, is_primitive
from .linfty import (
    LInftyMorphism,
    check_linfty,
    from_dgla,
    hodge_F,
    hodge_model_check,
    mc_linfty,
    morphism_check,
)
from .report import CheckReport
from .scalars import format_rational, parse_rational
from .suite import run_suite


def element_json(show_fn, el) -> list:
    """Serialize an Element deterministically through a naming function."""
    return [
        {"basis": show_fn(i), "coeff": format_rational(c)} for i, c in sorted(el.terms.items())
    ]


# ---------------------------------------------------------------------------
# Handlers: each returns a CheckReport
# ---------------------------------------------------------------------------


def _load(args):
    if not args.input:
        raise InputError("this subcommand requires --input FILE")
    return schemas.load_json(args.input)


def cmd_check_dgla(args) -> CheckReport:
    return check_dgla(schemas.parse_dgla(_load(args)))


def cmd_check_na(args) -> CheckReport:
    return check_na(schemas.parse_artin(_load(args)))


def _tensor_problem(data):
    L = schemas.parse_dgla(schemas._field(data, "dgla", "problem"), "dgla.")
    A = schemas.parse_artin(schemas._field(data, "base", "problem"), "base.")
    M = TensorDgla(L, A)
    return M


def cmd_mc(args) -> CheckReport:
    data = _load(args)
    schemas.expect_kind(data, "mc_problem")
    M = _tensor_problem(data)
    x = schemas.parse_pair_element(data, "element", M)
    residual = M.mc_residual(x)
    rep = CheckReport("mc")
    if not residual.is_zero():
        rep.add("residual", M.show(residual), "Maurer-Cartan equation fails")
    rep.witness = {"residual": element_json(lambda i: M.basis.names[i], residual)}
    return rep


def cmd_gauge(args) -> CheckReport:
    data = _load(args)
    schemas.expect_kind(data, "gauge_problem")
    M = _tensor_problem(data)
    a = schemas.parse_pair_element(data, "gauge_by", M)
    w = schemas.parse_pair_element(data, "element", M)
    out = M.gauge_apply(a, w)
    rep = CheckReport("gauge")
    rep.witness = {"result": element_json(lambda i: M.basis.names[i], out)}
    if M.is_mc(w) and not M.is_mc(out):
        rep.add("gauge", M.show(M.mc_residual(out)), "gauge left the MC set")
    return rep


def cmd_obstruction(args) -> CheckReport:
    data = _load(args)
    schemas.expect_kind(data, "obstruction_problem")
    L = schemas.parse_dgla(schemas._field(data, "dgla", "problem"), "dgla.")
    ext = schemas.parse_small_extension(
        {
            "kind": "small_extension",
            "total": schemas._field(data, "total", "problem"),
            "kernel": schemas._field(data, "kernel", "problem"),
        }
    )
    MB = TensorDgla(L, ext.quotient)
    x = schemas.parse_pair_element(data, "element", MB)
    result = obstruction_class(L, ext, x)
    rep = CheckReport("obstruction")
    rep.witness = {
        "classes": {
            k: [format_rational(c) for c in v] for k, v in result["classes"].items()
        },
        "h2_dim": result["h2_dim"],
        "vanishes": result["vanishes"],
    }
    if result["lift"] is not None:
        MA = TensorDgla(L, ext.total)
        rep.witness["lift"] = element_json(
            lambda i: MA.basis.names[i], result["lift"]
        )
    if not result["vanishes"]:
        rep.add("class", str(rep.witness["classes"]), "obstruction class is nonzero")
    return rep


def cmd_cohomology(args) -> CheckReport:
    data = _load(args)
    schemas.expect_kind(data, "cohomology_problem")
    inner = schemas._field(data, "structure", "problem")
    kind = inner.get("kind", "dgla")
    structure = (
        schemas.parse_dgla(inner, "structure.")
        if kind == "dgla"
        else schemas.parse_artin(inner, "structure.")
    )
    degree = schemas._int_field(data, "degree", "problem")
    reps, project, dims = cohomology(structure, degree)
    rep = CheckReport("cohomology")
    rep.witness = {
        "dims": {"cycles": dims[0], "boundaries": dims[1], "h": dims[2]},
        "representatives": [
            element_json(lambda i: structure.basis.names[i], r) for r in reps
        ],
    }
    return rep


def cmd_cones(args) -> CheckReport:
    ext = schemas.parse_small_extension(_load(args))
    C, D, rep = cones(ext)
    rep.witness = {
        "cone_basis": [
            {"name": C.basis.names[i], "degree": C.basis.degrees[i]}
            for i in range(len(C.basis))
        ],
        "inverse_cone_basis": None
        if D is None
        else [
            {"name": D.basis.names[i], "degree": D.basis.degrees[i]}
            for i in range(len(D.basis))
        ],
        "kernel_acyclic": ext.kernel_complex_acyclic(),
    }
    return rep


def cmd_exp_der(args) -> CheckReport:
    data = _load(args)
    schemas.expect_kind(data, "exp_derivation")
    R = schemas.parse_unital_algebra(schemas._field(data, "algebra", "exp_derivation"))
    A = schemas.parse_artin(schemas._field(data, "base", "exp_derivation"), "base.")
    values = {}
    for i, entry in enumerate(data.get("derivation", [])):
        src = R.basis.index(schemas._field(entry, "from", f"derivation[{i}]"))
        table = {}
        for j, term in enumerate(entry.get("value", [])):
            r_i = R.basis.index(schemas._field(term, "r", f"derivation[{i}][{j}]"))
            a_i = A.basis.index(schemas._field(term, "a", f"derivation[{i}][{j}]"))
            coeff = parse_rational(
                schemas._field(term, "coeff", f"derivation[{i}][{j}]")
            )
            table[(r_i, a_i)] = coeff
        values[src] = table
    ed = ExpDerivation(R, A, values)
    return ed.verify()


def cmd_homotopy_eval(args) -> CheckReport:
    H, eval_at = schemas.parse_homotopy(_load(args))
    rep = H.verify()
    table = H.eval_at(eval_at)
    rep.witness = {
        "evaluated_at": format_rational(eval_at),
        "map": {
            H.A.basis.names[i]: element_json(lambda t: H.B.basis.names[t], v)
            for i, v in sorted(table.items())
        },
    }
    return rep


def cmd_bch(args) -> CheckReport:
    data = _load(args)
    rep = CheckReport("bch")
    order = args.truncate
    if order < 0:
        raise InputError("--truncate must be a nonnegative integer")
    if args.mode in ("free", "explicit"):
        schemas.expect_kind(data, "free_bch")
        gens = tuple(schemas._list_field(data, "generators", "free_bch"))
        if len(gens) != 2:
            raise InputError("free_bch needs exactly two generators")
        from .freelie import TensorSeries

        a = TensorSeries.generator(gens, order, gens[0])
        b = TensorSeries.generator(gens, order, gens[1])
        result = bch_free(a, b) if args.mode == "free" else bch_explicit(a, b)
        check = bch_explicit(a, b) if args.mode == "free" else bch_free(a, b)
        if result != check:
            rep.add("bch", "", "free and explicit modes disagree")
        rep.witness = {
            "terms": [
                {
                    "word": [gens[i] for i in w],
                    "coeff": format_rational(c),
                }
                for w, c in sorted(result.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))
            ]
        }
        return rep
    if args.mode == "nilpotent":
        lie = schemas.parse_nilpotent_lie(data)
        left = schemas.parse_value(data.get("left"), lie.basis, "left")
        right = schemas.parse_value(data.get("right"), lie.basis, "right")
        result = lie.bch(left, right)
        rep.witness = {
            "result": element_json(lambda i: lie.basis.names[i], result),
            "nilpotency_index": lie.nilpotency_index,
        }
        return rep
    raise InputError(f"unknown bch mode {args.mode!r}")


def cmd_dsw(args) -> CheckReport:
    series = schemas.parse_tensor_poly(_load(args))
    out = dsw_project(series)
    rep = CheckReport("dsw")
    rep.witness = {
        "projection": [
            {"word": [series.gens[i] for i in w], "coeff": format_rational(c)}
            for w, c in sorted(out.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))
        ]
    }
    return rep


def cmd_friedrichs(args) -> CheckReport:
    series = schemas.parse_tensor_poly(_load(args))
    rep = CheckReport("friedrichs")
    if not is_lie(series):
        diff = dsw_project(series) - series
        rep.add(
            "membership",
            str(sorted(diff.terms.items())),
            "element is not fixed by the projection",
        )
    return rep


def cmd_coder(args) -> CheckReport:
    data = _load(args)
    schemas.expect_kind(data, "coderivation")
    basis = schemas.parse_basis(schemas._field(data, "basis", "coderivation"))
    degree = schemas._int_field(data, "degree", "coderivation")
    tables = schemas.parse_components(data, basis, basis)
    Q = coder_lift(basis, degree, tables)
    return Q.coleibnitz_report(_checked_words(basis, args.max_arity or 4))


def cmd_comorph(args) -> CheckReport:
    data = _load(args)
    schemas.expect_kind(data, "comorphism")
    source = schemas.parse_basis(schemas._field(data, "source_basis", "comorphism"))
    target = schemas.parse_basis(schemas._field(data, "target_basis", "comorphism"))
    tables = schemas.parse_components(data, source, target)
    from .coalg import morphism_lift

    F = morphism_lift(source, target, tables)
    return F.comorphism_report(_checked_words(source, args.max_arity or 4))


def _checked_words(basis, max_arity):
    """`all_words(basis, max_arity)`, refused before any word is built when
    their splits (2^length per word) exceed the cap."""
    cap = schemas.max_basis()
    if split_count(basis, max_arity, cap) > cap:
        raise InputError(
            f"--max-arity {max_arity}: the splits of the words up to length "
            f"{max_arity} exceed the {schemas.MAX_BASIS_ENV} cap of {cap}"
        )
    return all_words(basis, max_arity)


def cmd_check_linfty(args) -> CheckReport:
    S = schemas.parse_linfty(_load(args))
    return check_linfty(S, args.max_arity)


def cmd_from_dgla(args) -> CheckReport:
    L = schemas.parse_dgla(_load(args))
    S = from_dgla(L)
    rep = check_linfty(S, args.max_arity)
    rep.command = "from-dgla"
    rep.witness = {
        "suspended_components": {
            str(k): [
                {
                    "word": [S.shifted.names[i] for i in w],
                    "value": element_json(lambda i: S.shifted.names[i], v),
                }
                for w, v in sorted(t.items())
            ]
            for k, t in S.components.tables.items()
        }
    }
    return rep


def cmd_linfty_morphism(args) -> CheckReport:
    data = _load(args)
    schemas.expect_kind(data, "linfty_morphism")
    source = schemas.parse_linfty(schemas._field(data, "source", "morphism"))
    target = schemas.parse_linfty(schemas._field(data, "target", "morphism"))
    tables = schemas.parse_components(data, source.shifted, target.shifted)
    F = LInftyMorphism(source, target, tables)
    return morphism_check(F, args.max_arity)


def cmd_mc_linfty(args) -> CheckReport:
    data = _load(args)
    schemas.expect_kind(data, "mc_linfty_problem")
    S = schemas.parse_linfty(schemas._field(data, "structure", "problem"))
    A = schemas.parse_artin(schemas._field(data, "base", "problem"), "base.")
    m = {}
    for i, entry in enumerate(data.get("element", [])):
        li = S.space.index(schemas._field(entry, "l", f"element[{i}]"))
        ai = A.basis.index(schemas._field(entry, "a", f"element[{i}]"))
        m[(li, ai)] = parse_rational(schemas._field(entry, "coeff", f"element[{i}]"))
    residual = mc_linfty(S, A, m)
    rep = CheckReport("mc-linfty")
    nA = len(A.basis)
    if not residual.is_zero():
        rep.add("residual", str(sorted(residual.terms.items())), "homotopy MC fails")
    rep.witness = {
        "residual": [
            {
                "l": S.space.names[p // nA],
                "a": A.basis.names[p % nA],
                "coeff": format_rational(c),
            }
            for p, c in sorted(residual.terms.items())
        ]
    }
    return rep


def cmd_hodge_f(args) -> CheckReport:
    if args.builtin:
        if args.builtin not in models.HODGE_BUILTINS:
            raise InputError(
                f"unknown builtin model {args.builtin!r}: "
                f"choose from {sorted(models.HODGE_BUILTINS)}"
            )
        M = models.HODGE_BUILTINS[args.builtin]()
    else:
        raise InputError("hodge-f requires --builtin {trivial,rank-one,derived}")
    rep = hodge_model_check(M)
    if not rep.ok():
        rep.command = "hodge-f"
        return rep
    comps, frep = hodge_F(M, args.max_arity or 4, check_model=False)
    frep.info = {"nonzero_component_arities": sorted(comps)}
    return frep


def cmd_gbv_check(args) -> CheckReport:
    S = schemas.parse_gbv(_load(args))
    rep = S.gbv_check()
    if rep.ok():
        rep.merge(S.dgla_verify(), prefix="shifted bracket: ")
    return rep


def cmd_schouten(args) -> CheckReport:
    data = _load(args)
    schemas.expect_kind(data, "polyvector_pair")
    nvars = schemas._field(data, "vars", "polyvector_pair")
    cap = data.get("cap")
    left = schemas.parse_polyvector(
        {"vars": nvars, "cap": cap, "terms": schemas._field(data, "left", "pair")},
        "left.",
    )
    right = schemas.parse_polyvector(
        {"vars": nvars, "cap": cap, "terms": schemas._field(data, "right", "pair")},
        "right.",
    )
    out = schouten(left, right)
    rep = CheckReport("schouten")
    rep.witness = {"bracket": _polyvector_json(out)}
    return rep


def _polyvector_json(pv):
    return [
        {
            "monomial": list(mono),
            "frame": [i + 1 for i in frame],
            "coeff": format_rational(c),
        }
        for (mono, frame), c in sorted(pv.terms.items())
    ]


def cmd_delta(args) -> CheckReport:
    pv = schemas.parse_polyvector(_load(args))
    out = delta_volume(pv)
    rep = CheckReport("delta")
    rep.witness = {"delta": _polyvector_json(out)}
    return rep


def cmd_tian_todorov(args) -> CheckReport:
    data = _load(args)
    schemas.expect_kind(data, "polyvector_pair")
    nvars = schemas._field(data, "vars", "polyvector_pair")
    cap = data.get("cap")
    left = schemas.parse_polyvector(
        {"vars": nvars, "cap": cap, "terms": schemas._field(data, "left", "pair")},
        "left.",
    )
    right = schemas.parse_polyvector(
        {"vars": nvars, "cap": cap, "terms": schemas._field(data, "right", "pair")},
        "right.",
    )
    return tian_todorov_check(left, right)


def cmd_gbv_to_abelian(args) -> CheckReport:
    S = schemas.parse_gbv(_load(args))
    base = S.gbv_check()
    if not base.ok():
        base.command = "gbv-to-abelian"
        return base
    _, _, rep = gbv_to_abelian(S, m_max=args.max_arity or 4, compose_max=3)
    return rep


def cmd_lefschetz(args) -> CheckReport:
    if args.dim < 0:
        raise InputError("--dim must be a nonnegative integer")
    if args.action == "identities":
        # the sweep visits all 4^dim keys; compare 2*dim with log2(cap) so a
        # huge --dim never builds 4^dim
        cap = schemas.max_basis()
        if cap < 1 or 2 * args.dim > cap.bit_length() - 1:
            raise InputError(
                f"--dim {args.dim}: the 4^{args.dim} basis keys exceed the "
                f"{schemas.MAX_BASIS_ENV} cap of {cap}"
            )
        return identities_report(args.dim)
    if args.action == "decompose":
        v = schemas.parse_covector(_load(args))
        if v.n != args.dim:
            raise InputError("covector dimension differs from --dim")
        # L^k of one term has up to C(dim, k) terms, 2^dim over all k: refuse
        # when terms * 2^dim exceeds the cap, comparing dim with the bit
        # length of cap // terms so a huge --dim never builds 2^dim
        cap = schemas.max_basis()
        if v.terms and args.dim >= (max(cap, 0) // len(v.terms)).bit_length():
            raise InputError(
                f"--dim {args.dim}: {len(v.terms)} term(s) times 2^{args.dim} "
                f"exceed the {schemas.MAX_BASIS_ENV} cap of {cap}"
            )
        parts = lefschetz_decompose(v)
        rep = CheckReport("lefschetz-decompose")
        rep.witness = {
            "components": [
                {
                    "power": r,
                    "primitive": is_primitive(vr),
                    "terms": [
                        {
                            "A": list(k[0]),
                            "B": list(k[1]),
                            "M": list(k[2]),
                            "N": list(k[3]),
                            "coeff": {"re": format_rational(c.re), "im": format_rational(c.im)},
                        }
                        for k, c in sorted(vr.terms.items())
                    ],
                }
                for r, vr in parts
            ]
        }
        return rep
    raise InputError(f"unknown lefschetz action {args.action!r}")


def cmd_suite(args) -> CheckReport:
    return run_suite(args.seed)


SUBCOMMANDS = {
    "check-dgla": cmd_check_dgla,
    "check-na": cmd_check_na,
    "mc": cmd_mc,
    "gauge": cmd_gauge,
    "obstruction": cmd_obstruction,
    "cohomology": cmd_cohomology,
    "cones": cmd_cones,
    "exp-der": cmd_exp_der,
    "homotopy-eval": cmd_homotopy_eval,
    "bch": cmd_bch,
    "dsw": cmd_dsw,
    "friedrichs": cmd_friedrichs,
    "coder": cmd_coder,
    "comorph": cmd_comorph,
    "check-linfty": cmd_check_linfty,
    "from-dgla": cmd_from_dgla,
    "linfty-morphism": cmd_linfty_morphism,
    "mc-linfty": cmd_mc_linfty,
    "hodge-f": cmd_hodge_f,
    "gbv-check": cmd_gbv_check,
    "schouten": cmd_schouten,
    "delta": cmd_delta,
    "tian-todorov": cmd_tian_todorov,
    "gbv-to-abelian": cmd_gbv_to_abelian,
    "lefschetz": cmd_lefschetz,
    "suite": cmd_suite,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="defalg",
        description="exact-arithmetic workbench for the algebra of deformation theory",
    )
    sub = parser.add_subparsers(dest="subcommand")
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--input", help="JSON input file")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--truncate", type=int, default=4)
        # None lets structure checkers default to (largest arity) + 2
        p.add_argument("--max-arity", dest="max_arity", type=int, default=None)
        p.add_argument("--seed", type=int, default=7)
        if name == "bch":
            p.add_argument(
                "--mode", choices=("free", "explicit", "nilpotent"), default="explicit"
            )
        if name == "hodge-f":
            p.add_argument("--builtin", default=None)
        if name == "lefschetz":
            p.add_argument("action", choices=("identities", "decompose"))
            p.add_argument("--dim", type=int, default=2)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.subcommand:
        parser.print_help()
        return 2
    handler = SUBCOMMANDS[args.subcommand]
    started = time.monotonic()
    try:
        if args.max_arity is not None and args.max_arity < 1:
            raise InputError("--max-arity must be a positive integer")
        report = handler(args)
    except InputError as exc:
        report = CheckReport(args.subcommand)
        report.add("input", "", str(exc))
        if args.format == "json":
            out = report.to_dict()
            out["status"] = "input-error"
            import json

            print(json.dumps(out, sort_keys=True, indent=2))
        else:
            print(f"[INPUT-ERROR] {args.subcommand}: {exc}")
        return 2
    except DefalgError as exc:
        print(f"[ERROR] {args.subcommand}: {exc}")
        return 2
    report.timing_ms = (time.monotonic() - started) * 1000.0
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.text())
    return 0 if report.ok() else 1


if __name__ == "__main__":
    sys.exit(main())
