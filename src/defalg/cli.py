"""Uniform command-line entry point.

Exit codes: 0 pass, 1 check failed, 2 input error (status "input-error")
or a refused computation (status "error").  `--format json` emits the
CheckReport schema in every case; reports are byte-identical across runs
for fixed inputs and seeds (timing is text-only).

Every command is a fresh process, so start-up is paid on each one: the
module imports no domain module at the top (each handler imports its own)
and builds the parser of the one subcommand being run.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from itertools import accumulate
from math import factorial
from . import schemas
from .core import format_terms
from .errors import DefalgError, InputError, StructureError
from .report import CheckReport
from .scalars import format_rational


def element_json(names, el) -> list:
    """Serialize an Element deterministically, naming index i by names[i]."""
    return [
        {"basis": names[i], "coeff": format_rational(c)} for i, c in sorted(el.terms.items())
    ]


def word_terms_json(series) -> list:
    """Serialize a TensorSeries by words of its generator names, shortest first."""
    return [
        {"word": [series.gens[i] for i in w], "coeff": format_rational(c)}
        for w, c in sorted(series.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))
    ]


# ---------------------------------------------------------------------------
# Handlers: each parses its input, computes and returns a CheckReport
# ---------------------------------------------------------------------------


def _load(args):
    if not args.input:
        raise InputError("this subcommand requires --input FILE")
    return schemas.load_json(args.input)


def cmd_check_dgla(args) -> CheckReport:
    from .dgla import check_dgla

    return check_dgla(schemas.parse_dgla(_load(args)))


def cmd_check_na(args) -> CheckReport:
    from .dgla import check_na

    return check_na(schemas.parse_artin(_load(args)))


def cmd_mc(args) -> CheckReport:
    M, x = schemas.parse_mc_problem(_load(args))
    residual = M.mc_residual(x)
    rep = CheckReport("mc", witness={"residual": element_json(M.basis.names, residual)})
    if not residual.is_zero():
        rep.add("residual", M.show(residual), "Maurer-Cartan equation fails")
    return rep


def cmd_gauge(args) -> CheckReport:
    M, a, w = schemas.parse_gauge_problem(_load(args))
    out = M.gauge_apply(a, w)
    rep = CheckReport("gauge", witness={"result": element_json(M.basis.names, out)})
    if M.is_mc(w) and not M.is_mc(out):
        rep.add("gauge", M.show(M.mc_residual(out)), "gauge left the MC set")
    return rep


def cmd_obstruction(args) -> CheckReport:
    from .dgla import TensorDgla, obstruction_class

    L, ext, x = schemas.parse_obstruction_problem(_load(args))
    result = obstruction_class(L, ext, x)
    classes = {k: [format_rational(c) for c in v] for k, v in result["classes"].items()}
    witness = {
        "classes": classes,
        "h2_dim": result["h2_dim"],
        "vanishes": result["vanishes"],
    }
    if result["lift"] is not None:
        names = TensorDgla(L, ext.total).basis.names
        witness["lift"] = element_json(names, result["lift"])
    rep = CheckReport("obstruction", witness=witness)
    if not result["vanishes"]:
        rep.add("class", str(classes), "obstruction class is nonzero")
    return rep


def cmd_cohomology(args) -> CheckReport:
    from .dgla import cohomology

    structure, degree = schemas.parse_cohomology_problem(_load(args))
    reps, project, dims = cohomology(structure, degree)
    return CheckReport("cohomology", witness={
        "dims": {"cycles": dims[0], "boundaries": dims[1], "h": dims[2]},
        "representatives": [element_json(structure.basis.names, r) for r in reps],
    })


def _basis_json(basis) -> list:
    return [{"name": n, "degree": d} for n, d in zip(basis.names, basis.degrees)]


def cmd_cones(args) -> CheckReport:
    from .dgla import cones

    ext = schemas.parse_small_extension(_load(args))
    C, D, rep = cones(ext)
    rep.witness = {
        "cone_basis": _basis_json(C.basis),
        "inverse_cone_basis": None if D is None else _basis_json(D.basis),
        "kernel_acyclic": ext.kernel_complex_acyclic(),
    }
    return rep


def cmd_exp_der(args) -> CheckReport:
    return schemas.parse_exp_derivation(_load(args)).verify()


def cmd_homotopy_eval(args) -> CheckReport:
    H, eval_at = schemas.parse_homotopy(_load(args))
    rep = H.verify()
    table = H.eval_at(eval_at)
    rep.witness = {
        "evaluated_at": format_rational(eval_at),
        "map": {
            H.A.basis.names[i]: element_json(H.B.basis.names, v)
            for i, v in sorted(table.items())
        },
    }
    return rep


def cmd_bch(args) -> CheckReport:
    from .freelie import bch_explicit, bch_free

    data = _load(args)
    if args.truncate < 0:
        raise InputError("--truncate must be a nonnegative integer")
    if args.mode == "nilpotent":
        lie, left, right = schemas.parse_nilpotent_bch(data)
        result = element_json(lie.basis.names, lie.bch(left, right))
        witness = {"result": result, "nilpotency_index": lie.nilpotency_index}
        return CheckReport("bch", witness=witness)
    # the free and explicit routes both expand words of every length up to
    # the truncation
    T = args.truncate
    schemas.refuse_past_cap(
        f"--truncate {T}: the 4^{T} word expansion terms", (4**k for k in range(T + 1))
    )
    a, b = schemas.parse_free_bch(data, args.truncate)
    result = bch_free(a, b) if args.mode == "free" else bch_explicit(a, b)
    check = bch_explicit(a, b) if args.mode == "free" else bch_free(a, b)
    rep = CheckReport("bch", witness={"terms": word_terms_json(result)})
    if result != check:
        rep.add("bch", "", "free and explicit modes disagree")
    return rep


def cmd_dsw(args) -> CheckReport:
    from .freelie import dsw_project

    out = dsw_project(schemas.parse_tensor_poly(_load(args)))
    return CheckReport("dsw", witness={"projection": word_terms_json(out)})


def cmd_friedrichs(args) -> CheckReport:
    from .freelie import dsw_project, is_lie

    series = schemas.parse_tensor_poly(_load(args))
    rep = CheckReport("friedrichs")
    if not is_lie(series):
        diff = dsw_project(series) - series
        names = {w: "*".join(series.gens[i] for i in w) for w in diff.terms}
        rep.add(
            "membership",
            format_terms(names, diff.terms),
            "element is not fixed by the projection",
        )
    return rep


def cmd_coder(args) -> CheckReport:
    from .coalg import all_words

    Q = schemas.parse_coderivation(_load(args))
    depth = _bounded_depth(Q.basis, args.max_arity)
    return Q.coleibnitz_report(all_words(Q.basis, depth))


def cmd_comorph(args) -> CheckReport:
    from .coalg import all_words

    F = schemas.parse_comorphism(_load(args))
    depth = _bounded_depth(F.source, args.max_arity)
    return F.comorphism_report(all_words(F.source, depth))


def _bounded_depth(
    basis, max_arity, default=4, counted="splits", per_word=lambda k: 2**k
):
    """--max-arity, or else the `default` depth, refused before any word is
    built when the `counted` of the words up to that length, `per_word(k)`
    on each word of length k, exceed the cap; the refusal names the flag
    only when it was given."""
    from .coalg import word_counts

    depth = max_arity or default
    what = f"--max-arity {depth}" if max_arity else f"the default depth {depth}"
    schemas.refuse_past_cap(
        f"{what}: the {counted} of the words up to length {depth}",
        accumulate(per_word(k) * words for k, words in word_counts(basis, depth)),
    )
    return depth


def _checked_linfty(S, max_arity):
    """`check_linfty` at depth --max-arity, or else at the exact depth
    2m - 1, bounded before it starts."""
    from .linfty import check_linfty

    return check_linfty(S, _bounded_depth(S.shifted, max_arity, S.depth))


def cmd_check_linfty(args) -> CheckReport:
    return _checked_linfty(schemas.parse_linfty(_load(args)), args.max_arity)


def cmd_from_dgla(args) -> CheckReport:
    from .dgla import check_dgla
    from .linfty import from_dgla

    L = schemas.parse_dgla(_load(args))
    rep = check_dgla(L)
    if not rep.ok():
        raise StructureError("from_dgla needs a valid DGLA:\n" + rep.text())
    S = from_dgla(L)
    rep = _checked_linfty(S, args.max_arity)
    rep.command = "from-dgla"
    rep.witness = {
        "suspended_components": {
            str(k): [
                {
                    "word": [S.shifted.names[i] for i in w],
                    "value": element_json(S.shifted.names, v),
                }
                for w, v in sorted(t.items())
            ]
            for k, t in S.components.tables.items()
        }
    }
    return rep


def cmd_linfty_morphism(args) -> CheckReport:
    from .linfty import morphism_check

    F = schemas.parse_linfty_morphism(_load(args))
    return morphism_check(F, _bounded_depth(F.source.shifted, args.max_arity, F.depth))


def cmd_mc_linfty(args) -> CheckReport:
    from .linfty import mc_linfty

    S, A, m = schemas.parse_mc_linfty_problem(_load(args))
    residual = mc_linfty(S, A, m)
    nA = len(A.basis)
    terms = [
        {"l": S.space.names[p // nA], "a": A.basis.names[p % nA],
         "coeff": format_rational(c)}
        for p, c in sorted(residual.terms.items())
    ]
    rep = CheckReport("mc-linfty", witness={"residual": terms})
    if not residual.is_zero():
        names = [f"{v}(x){a}" for v in S.space.names for a in A.basis.names]
        rep.add("residual", format_terms(names, residual.terms), "homotopy MC fails")
    return rep


def cmd_hodge_f(args) -> CheckReport:
    from .linfty import hodge_F, hodge_model_check
    from .models import HODGE_BUILTINS

    if not args.builtin:
        raise InputError("hodge-f requires --builtin {trivial,rank-one,derived}")
    M = HODGE_BUILTINS[args.builtin]()
    # F_m sums m! signed permutations on each word of length m
    m_max = _bounded_depth(M.source, args.max_arity, 4, "signed permutations", factorial)
    rep = hodge_model_check(M)
    if not rep.ok():
        rep.command = "hodge-f"
        return rep
    comps, frep = hodge_F(M, m_max)
    frep.info = {"nonzero_component_arities": sorted(comps)}
    return frep


def cmd_gbv_check(args) -> CheckReport:
    S = schemas.parse_gbv(_load(args))
    rep = S.gbv_check()
    if rep.ok():
        rep.merge(S.dgla_verify(), prefix="shifted bracket: ")
    return rep


def cmd_schouten(args) -> CheckReport:
    from .gbv import schouten

    out = schouten(*schemas.parse_polyvector_pair(_load(args)))
    return CheckReport("schouten", witness={"bracket": _polyvector_json(out)})


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
    from .gbv import delta_volume

    out = delta_volume(schemas.parse_polyvector(_load(args)))
    return CheckReport("delta", witness={"delta": _polyvector_json(out)})


def cmd_tian_todorov(args) -> CheckReport:
    from .gbv import tian_todorov_check

    return tian_todorov_check(*schemas.parse_polyvector_pair(_load(args)))


def cmd_gbv_to_abelian(args) -> CheckReport:
    from .gbv import gbv_to_abelian

    S = schemas.parse_gbv(_load(args))
    # the morphism's words are those of the algebra basis
    m_max = _bounded_depth(S.algebra.basis, args.max_arity)
    base = S.gbv_check()
    if not base.ok():
        base.command = "gbv-to-abelian"
        return base
    _, _, rep = gbv_to_abelian(S, m_max=m_max)
    return rep


def cmd_lefschetz(args) -> CheckReport:
    from .lefschetz import (
        coefficients,
        identities_report,
        is_primitive,
        lefschetz_decompose,
    )

    if args.dim < 0:
        raise InputError("--dim must be a nonnegative integer")
    if args.action == "identities":
        # the wedge oracle visits all 4^dim keys; the operator identities
        # visit C(dim + 3, 3) of them unless one fails
        n = args.dim
        schemas.refuse_past_cap(
            f"--dim {n}: the 4^{n} basis keys", (4**k for k in range(n + 1))
        )
        return identities_report(n)
    v = schemas.parse_covector(_load(args))
    if v.n != args.dim:
        raise InputError("covector dimension differs from --dim")
    # Lambda^a L^b of one term has at most 2^|M + N| <= 2^dim images
    # (sign ledger X4)
    if v.terms:
        terms = len(v.terms)
        schemas.refuse_past_cap(
            f"--dim {args.dim}: {terms} term(s) times 2^{args.dim}",
            (terms << k for k in range(args.dim + 1)),
        )
    return CheckReport("lefschetz-decompose", witness={
        "components": [
            {
                "power": r,
                "primitive": is_primitive(vr),
                "terms": [
                    {
                        **dict(zip("ABMN", map(list, k))),
                        "coeff": {"re": format_rational(re), "im": format_rational(im)},
                    }
                    for k, (re, im) in sorted(coefficients(vr.terms).items())
                ],
            }
            for r, vr in lefschetz_decompose(v)
        ]
    })


def cmd_suite(args) -> CheckReport:
    from .suite import run_suite

    return run_suite(args.seed)


# The options a subcommand may take, by their argparse dest.  Every
# subcommand takes --format, which main reads.
FLAGS = {
    "input": ("--input", {"help": "JSON input file"}),
    "truncate": ("--truncate", {"type": int, "default": 4}),
    # None lets each checker take its default word length: 2m - 1 for
    # check-linfty and from-dgla (m the largest arity, sign ledger C2),
    # max(a + m - 1, m' a) for linfty-morphism (a the Taylor arity, m and
    # m' those of source and target, sign ledger C3), 4 for the others
    "max_arity": ("--max-arity", {"type": int, "default": None}),
    "seed": ("--seed", {"type": int, "default": 7}),
    "mode": ("--mode", {"choices": ("free", "explicit", "nilpotent"),
                        "default": "explicit"}),
    "builtin": ("--builtin", {"choices": ("derived", "rank-one", "trivial")}),
    "action": ("action", {"choices": ("identities", "decompose")}),
    "dim": ("--dim", {"type": int, "default": 2}),
}

# name: (handler, the FLAGS it reads)
SUBCOMMANDS = {
    "check-dgla": (cmd_check_dgla, ("input",)),
    "check-na": (cmd_check_na, ("input",)),
    "mc": (cmd_mc, ("input",)),
    "gauge": (cmd_gauge, ("input",)),
    "obstruction": (cmd_obstruction, ("input",)),
    "cohomology": (cmd_cohomology, ("input",)),
    "cones": (cmd_cones, ("input",)),
    "exp-der": (cmd_exp_der, ("input",)),
    "homotopy-eval": (cmd_homotopy_eval, ("input",)),
    "bch": (cmd_bch, ("input", "mode", "truncate")),
    "dsw": (cmd_dsw, ("input",)),
    "friedrichs": (cmd_friedrichs, ("input",)),
    "coder": (cmd_coder, ("input", "max_arity")),
    "comorph": (cmd_comorph, ("input", "max_arity")),
    "check-linfty": (cmd_check_linfty, ("input", "max_arity")),
    "from-dgla": (cmd_from_dgla, ("input", "max_arity")),
    "linfty-morphism": (cmd_linfty_morphism, ("input", "max_arity")),
    "mc-linfty": (cmd_mc_linfty, ("input",)),
    "hodge-f": (cmd_hodge_f, ("builtin", "max_arity")),
    "gbv-check": (cmd_gbv_check, ("input",)),
    "schouten": (cmd_schouten, ("input",)),
    "delta": (cmd_delta, ("input",)),
    "tian-todorov": (cmd_tian_todorov, ("input",)),
    "gbv-to-abelian": (cmd_gbv_to_abelian, ("input", "max_arity")),
    "lefschetz": (cmd_lefschetz, ("action", "input", "dim")),
    "suite": (cmd_suite, ("seed",)),
}


@functools.cache
def build_parser(name=None) -> argparse.ArgumentParser:
    """The argument parser, built once per process and name: for a
    subcommand `name`, with that subcommand's parser alone, else (for help,
    no name or an unknown one) with all of them."""
    parser = argparse.ArgumentParser(
        prog="defalg",
        description="exact-arithmetic workbench for the algebra of deformation theory",
    )
    if name in SUBCOMMANDS:
        # the full parser's usage line, which its errors print
        sub = parser.add_subparsers(
            dest="subcommand", metavar="{" + ",".join(SUBCOMMANDS) + "}"
        )
        names = (name,)
    else:
        sub = parser.add_subparsers(dest="subcommand")
        names = SUBCOMMANDS
    for cmd in names:
        p = sub.add_parser(cmd)
        p.add_argument("--format", choices=("text", "json"), default="text")
        for flag in SUBCOMMANDS[cmd][1]:
            option, kwargs = FLAGS[flag]
            p.add_argument(option, **kwargs)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv[0] if argv and argv[0] in SUBCOMMANDS else None)
    args = parser.parse_args(argv)
    if not args.subcommand:
        return _emit(parser.format_help().rstrip("\n"), 2)
    handler = SUBCOMMANDS[args.subcommand][0]
    started = time.monotonic()
    try:
        max_arity = getattr(args, "max_arity", None)
        if max_arity is not None and max_arity < 1:
            raise InputError("--max-arity must be a positive integer")
        report = handler(args)
    except DefalgError as exc:
        status = "input-error" if isinstance(exc, InputError) else "error"
        if args.format == "json":
            report = CheckReport(args.subcommand)
            report.add("input", "", str(exc))
            out = {**report.to_dict(), "status": status}
            return _emit(json.dumps(out, sort_keys=True, indent=2), 2)
        return _emit(f"[{status.upper()}] {args.subcommand}: {exc}", 2)
    report.timing_ms = (time.monotonic() - started) * 1000.0
    text = report.to_json() if args.format == "json" else report.text()
    return _emit(text, 0 if report.ok() else 1)


def _emit(text, code) -> int:
    """Print the output and return the verdict's exit code, also when the
    reader has closed standard output."""
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit: send that to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
