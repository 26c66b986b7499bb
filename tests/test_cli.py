"""CLI: dispatch coverage, exit codes, schemas, JSON reports, determinism."""

import ast
import inspect
import json
import os
import random
import subprocess
import sys
import time
from functools import partial
from math import factorial

import pytest
from golden_corpus import cases as golden_cases

from defalg import cli, schemas
from defalg.cli import FLAGS, SUBCOMMANDS, build_parser, main
from defalg.coalg import all_words
from defalg.lefschetz import all_keys
from defalg.models import HODGE_BUILTINS
from defalg.report import CheckReport, Violation

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
INPUTS = os.path.join(REPO, "inputs")


def sample(name):
    with open(os.path.join(INPUTS, f"{name}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_cli(*argv, expect=0):
    cmd = [sys.executable, "-m", "defalg.cli", *argv]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=REPO)
    assert proc.returncode == expect, (proc.stdout, proc.stderr)
    return proc.stdout


def test_dispatch_table_covers_documented_subcommands():
    documented = {
        "check-dgla", "check-na", "mc", "gauge", "obstruction", "cohomology",
        "cones", "exp-der", "homotopy-eval", "bch", "dsw", "friedrichs",
        "coder", "comorph", "check-linfty", "from-dgla", "linfty-morphism",
        "mc-linfty", "hodge-f", "gbv-check", "schouten", "delta",
        "tian-todorov", "gbv-to-abelian", "lefschetz", "suite",
    }
    assert set(SUBCOMMANDS) == documented
    parser = build_parser()
    # every subcommand parses with --format json
    for name in documented:
        argv = [name, "--format", "json"]
        if name == "lefschetz":
            argv.insert(1, "identities")
        args = parser.parse_args(argv)
        assert args.subcommand == name


def test_check_dgla_pass_exit_zero(tmp_path):
    out = run_cli("check-dgla", "--input", os.path.join(INPUTS, "abelian_dgla.json"))
    assert "[PASS]" in out


def test_check_dgla_failure_exit_one(tmp_path):
    bad = tmp_path / "bad_dgla.json"
    bad.write_text(
        json.dumps(
            {
                "kind": "dgla",
                "basis": [{"name": "x", "degree": 1}, {"name": "y", "degree": 2}],
                "bracket": [
                    {
                        "left": "x",
                        "right": "x",
                        "value": [{"basis": "y", "coeff": "1"}],
                    },
                    {
                        "left": "x",
                        "right": "y",
                        "value": [{"basis": "x", "coeff": "1"}],
                    },
                ],
            }
        )
    )
    out = run_cli("check-dgla", "--input", str(bad), expect=1)
    assert "FAIL" in out


def test_malformed_rational_names_field_path(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "kind": "dgla",
                "basis": [{"name": "x", "degree": 1}],
                "differential": [
                    {"from": "x", "value": [{"basis": "x", "coeff": "1/0"}]}
                ],
            }
        )
    )
    out = run_cli("check-dgla", "--input", str(bad), expect=2)
    assert "differential[0].value[0].coeff" in out


def test_unknown_subcommand_exits_two():
    proc = subprocess.run(
        [sys.executable, "-m", "defalg.cli", "frobnicate"],
        capture_output=True,
        text=True,
        cwd=REPO,
    )
    assert proc.returncode == 2


def test_closed_stdout_keeps_the_exit_code_and_prints_no_traceback(tmp_path):
    """The reader closes its end of the pipe before the CLI writes."""
    kind_error = tmp_path / "wrong_kind.json"
    kind_error.write_text(json.dumps({**sample("abelian_dgla"), "kind": "gbv"}))
    runs = (
        (("check-dgla", "--input", "inputs/abelian_dgla.json"), 0),
        (("check-dgla", "--input", "inputs/failing_dgla.json"), 1),
        (("from-dgla", "--input", "inputs/failing_dgla.json", "--format", "json"), 2),
        (("check-dgla", "--input", str(kind_error)), 2),
        ((), 2),
    )
    for argv, code in runs:
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "defalg.cli", *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                cwd=REPO,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (code, ""), argv


# Each launch is a fresh process, so what it imports is start-up cost: the
# probe runs one command through `main` and prints the modules it added.
LAUNCH_PROBE = (
    "import sys\n"
    "before = set(sys.modules)\n"
    "from defalg.cli import main\n"
    "if sys.argv[1:]:\n"
    "    main(sys.argv[1:])\n"
    "print(' '.join(sorted(set(sys.modules) - before)), file=sys.stderr)\n"
)
UNUSED_BY_DGLA_LAUNCHES = {
    "defalg.gbv", "defalg.linfty", "defalg.coalg", "defalg.lefschetz",
    "defalg.models", "defalg.suite", "defalg.generators",
}
LAUNCH_UNUSED = (
    ((), set()),
    (("check-dgla", "--input", "inputs/abelian_dgla.json"), UNUSED_BY_DGLA_LAUNCHES),
    (("bch", "--mode", "nilpotent", "--input", "inputs/heisenberg.json"),
     UNUSED_BY_DGLA_LAUNCHES),
    (("lefschetz", "decompose", "--dim", "2", "--input", "inputs/covector.json"),
     {"defalg.dgla", "defalg.gbv", "defalg.linfty"}),
    (("delta", "--input", "inputs/polyvector.json"), set()),
)


@pytest.mark.parametrize(
    "argv,unused", LAUNCH_UNUSED, ids=[a[0] if a else "import" for a, _ in LAUNCH_UNUSED]
)
def test_each_launch_imports_only_what_its_subcommand_runs(argv, unused):
    proc = subprocess.run(
        [sys.executable, "-c", LAUNCH_PROBE, *argv],
        capture_output=True, text=True, cwd=REPO,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stderr.split())
    assert "defalg.cli" in loaded
    assert not loaded & ({"dataclasses", "inspect"} | unused), sorted(loaded)


PARSER_ERRORS = (
    (),
    ("--help",),
    ("nosuch",),
    ("check-dgla", "--bogus"),
    ("check-dgla", "--format", "xml"),
    ("hodge-f", "--builtin", "nope"),
    ("lefschetz",),
)


@pytest.mark.parametrize("argv", PARSER_ERRORS, ids=lambda v: " ".join(v) or "none")
def test_parser_messages_match_the_full_parser(argv, capsys, monkeypatch):
    """A launch builds one subcommand's parser; what it prints and its exit
    code are those of the parser with every subcommand."""

    def launch():
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        return out.out, out.err, code

    launched = launch()
    full = build_parser()
    monkeypatch.setattr(cli, "build_parser", lambda name=None: full)
    assert launched == launch()
    if argv == ("nosuch",):
        # the full parser names its subcommand argument by the dest
        assert "argument subcommand: invalid choice: 'nosuch'" in launched[1]


def test_a_launch_parser_holds_its_subcommand_alone(capsys):
    with pytest.raises(SystemExit):
        build_parser("check-dgla").parse_args(["check-na"])
    assert "invalid choice: 'check-na'" in capsys.readouterr().err
    # the literal choices, which spare a launch importing models
    assert FLAGS["builtin"][1]["choices"] == tuple(sorted(HODGE_BUILTINS))


def run_cli_input_error(*argv):
    """Run the CLI on an input it must refuse: exit 2, no traceback."""
    proc = subprocess.run(
        [sys.executable, "-m", "defalg.cli", *argv],
        capture_output=True,
        text=True,
        cwd=REPO,
    )
    assert proc.returncode == 2, (proc.stdout, proc.stderr)
    assert "Traceback" not in proc.stderr, proc.stderr
    return proc.stdout


def test_top_level_json_array_exits_two(tmp_path):
    arr = tmp_path / "array.json"
    arr.write_text("[1, 2]")
    for sub in ("check-dgla", "check-na"):
        out = run_cli_input_error(sub, "--input", str(arr))
        assert "expected a JSON object" in out


def test_negative_lefschetz_dim_exits_two():
    out = run_cli_input_error("lefschetz", "identities", "--dim", "-3")
    assert "--dim" in out


def test_non_object_list_entries_exit_two(tmp_path):
    basis = [{"name": "x", "degree": 0}]
    cases = {
        "basis": ({"kind": "dgla", "basis": [1]}, "basis[0]: must be an object"),
        "bracket": (
            {"kind": "dgla", "basis": basis, "bracket": [5]},
            "bracket[0]: must be an object",
        ),
    }
    for name, (payload, message) in cases.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload))
        out = run_cli_input_error("check-dgla", "--input", str(path))
        assert message in out


def test_non_list_fields_exit_two(tmp_path):
    artin = {"basis": [{"name": "t", "degree": 0}]}
    cases = [
        (
            ["delta"],
            {"kind": "polyvector", "vars": 2, "cap": 3, "terms": 5},
            "polyvector.terms: must be a list",
        ),
        (
            ["bch"],
            {"kind": "free_bch", "generators": 5},
            "free_bch.generators: must be a list",
        ),
        (
            ["dsw"],
            {"kind": "tensor_poly", "generators": ["a"], "terms": 5},
            "tensor_poly.terms: must be a list",
        ),
        (
            ["friedrichs"],
            {"kind": "tensor_poly", "generators": 5},
            "tensor_poly.generators: must be a list",
        ),
        (
            ["lefschetz", "decompose"],
            {"kind": "covector", "dim": 2, "terms": 5},
            "covector.terms: must be a list",
        ),
        (
            ["homotopy-eval"],
            {"kind": "homotopy", "source": artin, "target": artin, "entries": 5},
            "homotopy.entries: must be a list",
        ),
        (
            ["homotopy-eval"],
            {
                "kind": "homotopy",
                "source": artin,
                "target": artin,
                "entries": [{"from": "t", "value": 5}],
            },
            "entries[0].value: must be a list",
        ),
        (
            ["delta"],
            {"kind": "polyvector", "vars": 1, "terms": [{"coeff": "1", "monomial": 5}]},
            "terms[0].monomial: must be a list",
        ),
        (
            ["check-linfty"],
            {"kind": "linfty", "basis": artin["basis"], "brackets": {"2": 5}},
            "brackets.2: must be a list",
        ),
        (
            ["coder"],
            {
                "kind": "coderivation",
                "basis": [{"name": "x", "degree": 0}],
                "degree": 1,
                "components": [{"arity": 1, "entries": 5}],
            },
            "components[0].entries: must be a list",
        ),
    ]
    for k, (argv, payload, message) in enumerate(cases):
        path = tmp_path / f"case{k}.json"
        path.write_text(json.dumps(payload))
        out = run_cli_input_error(*argv, "--input", str(path))
        assert message in out


def test_negative_bch_truncate_exits_two():
    free_bch = os.path.join(INPUTS, "free_bch.json")
    out = run_cli_input_error("bch", "--input", free_bch, "--truncate", "-5")
    assert "--truncate" in out
    out = run_cli("bch", "--input", free_bch, "--truncate", "0", "--format", "json")
    payload = json.loads(out)
    assert payload["status"] == "pass" and payload["witness"]["terms"] == []


def test_bch_truncate_cap_exits_two(capsys, monkeypatch):
    # --truncate is refused from 4^truncate against the basis cap before any
    # series exists; the default cap admits the corpus's --truncate 5
    free_bch = os.path.join(INPUTS, "free_bch.json")
    started = time.monotonic()
    out = run_cli_input_error("bch", "--input", free_bch, "--truncate", str(10**6))
    assert time.monotonic() - started < 5.0
    assert "--truncate 1000000: the 4^1000000 word expansion terms exceed" in out
    assert main(["bch", "--input", free_bch, "--mode", "free", "--truncate", "5"]) == 0
    monkeypatch.setenv("DEFALG_MAX_BASIS", "16")
    for mode in ("free", "explicit"):
        assert main(["bch", "--input", free_bch, "--mode", mode, "--truncate", "2"]) == 0
        started = time.monotonic()
        assert main(["bch", "--input", free_bch, "--mode", mode, "--truncate", "3"]) == 2
        assert time.monotonic() - started < 1.0
    captured = capsys.readouterr()
    assert captured.out.count("--truncate 3: the 4^3 word expansion terms exceed") == 2
    assert "cap of 16" in captured.out and "Traceback" not in captured.err


def test_linfty_tensor_poly_and_max_arity_inputs_exit_two(tmp_path, capsys):
    x = [{"name": "x", "degree": 1}]
    value = [{"basis": "x", "coeff": "1"}]
    cases = [
        (
            ["check-linfty"],
            {"kind": "linfty", "basis": x, "brackets": [{"a": 1}]},
            "brackets: must be an object",
        ),
        (
            ["check-linfty"],
            {"kind": "linfty", "basis": x, "brackets": {"0": []}},
            "brackets.0: arity must be an integer >= 1",
        ),
        (
            ["check-linfty"],
            {"kind": "linfty", "basis": x, "brackets": {"two": []}},
            "brackets.two: arity must be an integer >= 1",
        ),
        (
            ["check-linfty"],
            {
                "kind": "linfty",
                "convention": "suspended",
                "basis": x,
                "brackets": {"3": [{"word": ["x"], "value": value}]},
            },
            "has length 1, not its arity 3",
        ),
        (
            ["dsw"],
            {"kind": "tensor_poly", "generators": ["a"], "truncation": "x"},
            "tensor_poly.truncation: must be a nonnegative integer",
        ),
        (
            ["friedrichs"],
            {"kind": "tensor_poly", "generators": ["a"], "truncation": -1},
            "tensor_poly.truncation: must be a nonnegative integer",
        ),
        (
            ["check-linfty", "--max-arity", "-3"],
            {"kind": "linfty", "basis": x, "brackets": {}},
            "--max-arity must be a positive integer",
        ),
        (
            ["coder", "--max-arity", "0"],
            {"kind": "coderivation", "basis": x, "degree": 1, "components": []},
            "--max-arity must be a positive integer",
        ),
    ]
    for k, (argv, payload, message) in enumerate(cases):
        path = tmp_path / f"case{k}.json"
        path.write_text(json.dumps(payload))
        assert main([*argv, "--input", str(path)]) == 2
        out = capsys.readouterr().out
        assert out.startswith(f"[INPUT-ERROR] {argv[0]}: ")
        assert len(out.splitlines()) == 1 and message in out
    # end to end: the list-valued brackets printed a traceback and exited 1
    out = run_cli_input_error("check-linfty", "--input", str(tmp_path / "case0.json"))
    assert "brackets: must be an object" in out


def test_unhashable_symbols_and_component_fields_exit_two(tmp_path, capsys):
    xy = [{"name": "x", "degree": 1}, {"name": "y", "degree": 2}]
    y = [{"basis": "y", "coeff": "1"}]
    listed = [{"basis": ["x"], "coeff": "1"}]
    x = [{"name": "x", "degree": 0}]
    value = [{"basis": "x", "coeff": "1"}]
    entry = {"word": ["x"], "value": value}

    def dgla(**fields):
        return {"kind": "dgla", "basis": xy, **fields}

    def comorph(*components):
        return {
            "kind": "comorphism",
            "source_basis": x,
            "target_basis": x,
            "components": list(components),
        }

    def coder(*components):
        return {"kind": "coderivation", "basis": x, "degree": 0, "components": list(components)}

    cases = [
        # an unhashable basis name reached GradedBasis.index's dict lookup
        (
            ["check-dgla"],
            dgla(bracket=[{"left": ["x"], "right": "x", "value": y}]),
            "unknown basis symbol ['x']",
        ),
        (
            ["check-dgla"],
            dgla(differential=[{"from": "x", "value": listed}]),
            "unknown basis symbol ['x']",
        ),
        (
            ["check-dgla"],
            dgla(differential=[{"from": {"a": 1}, "value": y}]),
            "unknown basis symbol {'a': 1}",
        ),
        (
            ["comorph"],
            comorph({"arity": 1, "entries": [{"word": ["x"], "value": listed}]}),
            "unknown basis symbol ['x']",
        ),
        # component arities and words were read unchecked
        (
            ["coder"],
            coder({"arity": 1.0, "entries": [entry]}),
            "components[0].arity: must be an integer",
        ),
        (
            ["coder"],
            coder({"arity": 1, "entries": [{"word": 5, "value": value}]}),
            "components[0][0].word: must be a list",
        ),
        (
            ["check-linfty"],
            {"kind": "linfty", "basis": x, "brackets": {"1": [{"word": 7, "value": value}]}},
            "brackets.1[0].word: must be a list",
        ),
        (
            ["comorph"],
            comorph({"arity": True, "entries": [entry]}),
            "components[0].arity: must be an integer",
        ),
        (
            ["coder"],
            coder({"arity": 1, "entries": [entry]}, {"arity": 1, "entries": []}),
            "components[1].arity: arity 1 is given twice",
        ),
        (
            ["coder"],
            coder({"arity": 0, "entries": []}),
            "components[0].arity: must be an integer >= 1",
        ),
    ]
    for k, (argv, payload, message) in enumerate(cases):
        path = tmp_path / f"case{k}.json"
        path.write_text(json.dumps(payload))
        assert main([*argv, "--input", str(path)]) == 2, message
        out = capsys.readouterr().out
        assert out.startswith(f"[INPUT-ERROR] {argv[0]}: ")
        assert len(out.splitlines()) == 1 and message in out, out
    # end to end: both printed a TypeError traceback and exited 1
    out = run_cli_input_error("check-dgla", "--input", str(tmp_path / "case0.json"))
    assert "unknown basis symbol ['x']" in out
    out = run_cli_input_error("coder", "--input", str(tmp_path / "case4.json"))
    assert "components[0].arity: must be an integer" in out


def test_lefschetz_dim_cap_and_covector_inputs_exit_two(tmp_path, capsys, monkeypatch):
    # --dim is refused from 4^dim against the basis cap before any key exists
    started = time.monotonic()
    assert main(["lefschetz", "identities", "--dim", "40"]) == 2
    assert time.monotonic() - started < 1.0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 1
    assert "--dim 40: the 4^40 basis keys exceed the DEFALG_MAX_BASIS cap" in out
    monkeypatch.setenv("DEFALG_MAX_BASIS", "16")
    assert main(["lefschetz", "identities", "--dim", "2"]) == 0
    assert main(["lefschetz", "identities", "--dim", "3"]) == 2
    assert "cap of 16" in capsys.readouterr().out
    monkeypatch.setenv("DEFALG_MAX_BASIS", "15")
    assert main(["lefschetz", "identities", "--dim", "2"]) == 2
    assert main(["lefschetz", "identities", "--dim", "1"]) == 0
    capsys.readouterr()
    monkeypatch.delenv("DEFALG_MAX_BASIS")

    def covector(**term):
        base = {"A": [1], "B": [], "M": [], "N": [2], "coeff": {"re": "1"}}
        return {"kind": "covector", "dim": 2, "terms": [{**base, **term}]}

    lefschetz = ["lefschetz", "decompose", "--dim", "2"]
    x = [{"name": "x", "degree": 0}]
    cases = [
        (lefschetz, covector(N="2"), "terms[0].N: must be a list"),
        (lefschetz, covector(A=["1"]), "terms[0].A: must be a list of integers"),
        (lefschetz, covector(M=[True]), "terms[0].M: must be a list of integers"),
        (lefschetz, covector(coeff="1"), "terms[0].coeff: must be an object"),
        (lefschetz, {**covector(), "dim": "2"}, "covector.dim: must be a nonnegative"),
        (lefschetz, {**covector(), "dim": -1}, "covector.dim: must be a nonnegative"),
        (lefschetz, {**covector(), "terms": [3]}, "terms[0]: must be an object"),
        (
            ["coder"],
            {"kind": "coderivation", "basis": x, "degree": "x", "components": []},
            "coderivation.degree: must be an integer",
        ),
        (
            ["cohomology"],
            {
                "kind": "cohomology_problem",
                "degree": "x",
                "structure": {"kind": "dgla", "basis": x},
            },
            "problem.degree: must be an integer",
        ),
    ]
    for k, (argv, payload, message) in enumerate(cases):
        path = tmp_path / f"case{k}.json"
        path.write_text(json.dumps(payload))
        assert main([*argv, "--input", str(path)]) == 2, message
        out = capsys.readouterr().out
        assert out.startswith(f"[INPUT-ERROR] {argv[0]}: ")
        assert len(out.splitlines()) == 1 and message in out
    # end to end: a string N printed a TypeError traceback from make_key
    out = run_cli_input_error(*lefschetz, "--input", str(tmp_path / "case0.json"))
    assert "terms[0].N: must be a list" in out


def test_lefschetz_decompose_work_bound(tmp_path, capsys, monkeypatch):
    # L^k of one term has up to C(dim, k) terms: terms * 2^dim is checked
    # against the basis cap before decomposing
    def covector(dim, Ms=((),)):
        """One term per M, each with N = the rest of 1..dim."""
        terms = [
            {"A": [], "B": [], "M": list(M), "coeff": {"re": "1"},
             "N": [i for i in range(1, dim + 1) if i not in M]}
            for M in Ms
        ]
        path = tmp_path / f"cov{dim}_{len(terms)}.json"
        path.write_text(json.dumps({"kind": "covector", "dim": dim, "terms": terms}))
        return ["lefschetz", "decompose", "--dim", str(dim), "--input", str(path)]

    started = time.monotonic()
    assert main(covector(16)) == 2
    assert time.monotonic() - started < 1.0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 1
    assert "--dim 16: 1 term(s) times 2^16 exceed the DEFALG_MAX_BASIS cap" in out
    assert main(covector(13)) == 2
    assert main(covector(12)) == 0  # 2^12 = 4096 is within the cap
    assert main(["lefschetz", "decompose", "--dim", "2", "--input",
                 os.path.join(INPUTS, "covector.json")]) == 0
    capsys.readouterr()
    # the boundary at a small cap, with two terms: 2 * 2^3 = 16
    monkeypatch.setenv("DEFALG_MAX_BASIS", "16")
    two = ((1,), (2,))
    assert main(covector(3, two)) == 0
    assert main(covector(4, two)) == 2
    assert "2 term(s) times 2^4 exceed" in capsys.readouterr().out.splitlines()[-1]
    monkeypatch.setenv("DEFALG_MAX_BASIS", "15")
    assert main(covector(3, two)) == 2
    assert main(covector(2, two)) == 0
    monkeypatch.setenv("DEFALG_MAX_BASIS", "0")
    assert main(covector(0)) == 2


def test_typed_reader_gaps_exit_two(tmp_path, capsys):
    xy = [{"name": "x", "degree": 1}, {"name": "y", "degree": 2}]
    term = {"coeff": "1", "monomial": [1, 0], "frame": [1]}

    def polyvector(cap=3, **fields):
        terms = [{**term, **fields}]
        return {"kind": "polyvector", "vars": 2, "cap": cap, "terms": terms}

    def pair(cap=3, **fields):
        return {
            "kind": "polyvector_pair",
            "vars": 2,
            "cap": cap,
            "left": [{**term, **fields}],
            "right": [term],
        }

    cases = []
    for bad in (-1, 1.5, True, None):
        for field in ("differential", "bracket"):
            dgla = {"kind": "dgla", "basis": xy, field: bad}
            cases.append((["check-dgla"], dgla, f"{field}: must be a list"))
    for cap in ("x", [1], 1.5, True, -1):
        message = "polyvector.cap: must be a nonnegative integer"
        cases.append((["delta"], polyvector(cap), message))
        for cmd in ("schouten", "tian-todorov"):
            cases.append(([cmd], pair(cap), f"left.{message}"))
    monomial = "monomial: entries must be nonnegative integers"
    for entry in ("a", None, [1], {}, 1.5, -1, True):
        mono = [entry, 0]
        cases.append((["delta"], polyvector(monomial=mono), f"terms[0].{monomial}"))
        for cmd in ("schouten", "tian-todorov"):
            cases.append(([cmd], pair(monomial=mono), f"left.terms[0].{monomial}"))
    for frame in (1, None):
        cases.append((["delta"], polyvector(frame=frame), "frame: must be a list"))
    cases.append((["delta"], polyvector(frame=[True]), "frame: entries must lie in 1..vars"))
    # the other optional lists read through the same check
    gbv = {"kind": "gbv", "algebra": {"basis": xy, "product": 1}}
    cases.append((["gbv-check"], gbv, "gbv.algebra.product: must be a list"))
    t = [{"name": "t", "degree": 0}]
    mc = {"kind": "mc_problem", "dgla": {"basis": xy}, "base": {"basis": t}, "element": 5}
    cases.append((["mc"], mc, "element: must be a list"))
    coder = {"kind": "coderivation", "basis": xy, "degree": 1, "components": 5}
    cases.append((["coder"], coder, "components: must be a list"))
    # a tensor_poly word was iterated unchecked (a string ran per character)
    for word in (5, None, "x"):
        series = {"kind": "tensor_poly", "generators": ["x"], "terms": [{"word": word}]}
        cases.append((["dsw"], series, "terms[0].word: must be a list"))
    # a homotopy's t power and dt flag were read unchecked
    for field, bad in (("t_power", "x"), ("t_power", -1), ("t_power", 1.5), ("dt", 1)):
        value = [{"basis": "t", "coeff": "1", field: bad}]
        homotopy = {"kind": "homotopy", "source": {"basis": t}, "target": {"basis": t},
                    "entries": [{"from": "t", "value": value}]}
        cases.append((["homotopy-eval"], homotopy, f"entries[0].value[0].{field}: must be"))
    # the problem documents the handlers used to read by hand
    expder = sample("exp_derivation")
    cases.append((["exp-der"], {**expder, "derivation": 5}, "derivation: must be a list"))
    entry = {**expder["derivation"][0], "value": 5}
    cases.append(
        (["exp-der"], {**expder, "derivation": [entry]}, "derivation[0].value: must be a list")
    )
    mcl = {**sample("mc_linfty_problem"), "element": 5}
    cases.append((["mc-linfty"], mcl, "element: must be a list"))
    for bad, found in ((5, "int"), ([], "list")):
        coh = {**sample("cohomology_problem"), "structure": bad}
        cases.append((["cohomology"], coh, f"of kind 'dgla', found {found}"))
    obs = {**sample("obstruction_problem"), "kernel": 5}
    cases.append((["obstruction"], obs, "problem.kernel: must be a list"))
    ext = {**sample("small_extension"), "kernel": 5}
    cases.append((["cones"], ext, "small_extension.kernel: must be a list"))
    # a bool degree was read as 0 or 1; repeated or non-string generator
    # names were accepted
    dgla = {"kind": "dgla", "basis": [{"name": "x", "degree": True}]}
    cases.append((["check-dgla"], dgla, "basis[0].degree: must be an integer"))
    for cmd, kind in (("bch", "free_bch"), ("dsw", "tensor_poly")):
        for gens, message in (
            (["x", "x"], f"{kind}.generators[1]: 'x' is repeated"),
            ([["x"], "y"], f"{kind}.generators[0]: must be a string"),
            (["x", 1], f"{kind}.generators[1]: must be a string"),
        ):
            cases.append(([cmd], {"kind": kind, "generators": gens}, message))
    # a bool coefficient was read as 1
    mc = {"kind": "mc_problem", "dgla": {"basis": [{"name": "x", "degree": 1}]},
          "base": {"basis": t}, "element": [{"l": "x", "a": "t", "coeff": True}]}
    cases.append((["mc"], mc, "rational literal must be a string or int, got True"))
    # two spellings of one bracket arity
    linfty = {"kind": "linfty", "basis": xy, "brackets": {"2": [], "02": []}}
    cases.append((["check-linfty"], linfty, "brackets.02: arity 2 is given twice"))
    # a missing basis names its nested path with one dot (it printed
    # "dgla..basis"); a top-level one names the document's kind
    tx = {"basis": t}
    for argv, payload, where in (
        (["check-dgla"], {"kind": "dgla"}, "dgla"),
        (["check-na"], {"kind": "artin_dg"}, "artin_dg"),
        (["mc"], {**mc, "dgla": {}}, "dgla"),
        (["mc"], {**mc, "base": {}}, "base"),
        (["cohomology"], {"kind": "cohomology_problem", "structure": {}, "degree": 0},
         "structure"),
        (["cohomology"], {"kind": "cohomology_problem", "structure": {"kind": "artin_dg"},
                          "degree": 0}, "structure"),
        (["obstruction"], {**sample("obstruction_problem"), "total": {}}, "total"),
        (["homotopy-eval"], {"kind": "homotopy", "source": {}, "target": tx}, "source"),
        (["homotopy-eval"], {"kind": "homotopy", "source": tx, "target": {}}, "target"),
    ):
        cases.append((argv, payload, f": {where}.basis: missing field"))
    for k, (argv, payload, message) in enumerate(cases):
        path = tmp_path / f"case{k}.json"
        path.write_text(json.dumps(payload))
        assert main([*argv, "--input", str(path)]) == 2, (argv, payload)
        out = capsys.readouterr().out
        assert out.startswith(f"[INPUT-ERROR] {argv[0]}: ")
        assert len(out.splitlines()) == 1 and message in out, (out, message)
    # end to end: the first printed a TypeError traceback and exited 1; a
    # negative exponent exited 0
    out = run_cli_input_error("check-dgla", "--input", str(tmp_path / "case0.json"))
    assert "differential: must be a list" in out
    path = tmp_path / "negative.json"
    path.write_text(json.dumps(polyvector(monomial=[-1, 0])))
    out = run_cli_input_error("delta", "--input", str(path))
    assert f"terms[0].{monomial}" in out
    # an absent or null cap is still allowed
    for cap in (None, 3):
        path.write_text(json.dumps(polyvector(cap)))
        assert main(["delta", "--input", str(path)]) == 0
        path.write_text(json.dumps(pair(cap)))
        assert main(["schouten", "--input", str(path)]) == 0
    capsys.readouterr()


def test_repeated_pair_entries_add(tmp_path, capsys):
    """An (l, a) pair given twice in an element list adds its coefficients,
    as every other term list does: twice 1 is 2, and 1 then -1 is zero."""

    def twice(entries, second="1"):
        return [*entries, {**entries[0], "coeff": second}]

    mc, gauge, obs = (sample(k) for k in ("mc_problem", "gauge_problem", "obstruction_problem"))
    mcl, expder = sample("failing_mc_linfty_problem"), sample("exp_derivation")
    readers = (
        (mc, "element", lambda d: schemas.parse_mc_problem(d)[1].terms),
        (gauge, "element", lambda d: schemas.parse_gauge_problem(d)[2].terms),
        (gauge, "gauge_by", lambda d: schemas.parse_gauge_problem(d)[1].terms),
        (obs, "element", lambda d: schemas.parse_obstruction_problem(d)[2].terms),
        (mcl, "element", lambda d: schemas.parse_mc_linfty_problem(d)[2]),
    )
    for doc, field, read in readers:
        assert [*read(doc).values()] == [1], (doc["kind"], field)
        assert [*read({**doc, field: twice(doc[field])}).values()] == [2]
        assert read({**doc, field: twice(doc[field], "-1")}) == {}
    entry = expder["derivation"][0]
    for second, want in (("1", [2]), ("-1", [])):
        value = twice(entry["value"], second)
        ed = schemas.parse_exp_derivation({**expder, "derivation": [{**entry, "value": value}]})
        assert [c for v in ed.values.values() for c in v.values()] == want
    # end to end: x (x) t and -x (x) t cancel, so mc on the failing sample
    # passes as on an empty element
    bad = sample("failing_mc_problem")
    for k, field in enumerate((twice(bad["element"], "-1"), [])):
        path = tmp_path / f"mc{k}.json"
        path.write_text(json.dumps({**bad, "element": field}))
        assert main(["mc", "--input", str(path)]) == 0
    capsys.readouterr()


def test_max_arity_refused_before_any_word(tmp_path, capsys, monkeypatch):
    x = [{"name": "x", "degree": 0}]
    one = [{"word": ["x"], "value": [{"basis": "x", "coeff": "1"}]}]
    path = tmp_path / "coder.json"
    path.write_text(json.dumps({"kind": "coderivation", "basis": x, "degree": 0,
                                "components": [{"arity": 1, "entries": one}]}))
    comorph = tmp_path / "comorph.json"
    comorph.write_text(json.dumps({"kind": "comorphism", "source_basis": x,
                                   "target_basis": x,
                                   "components": [{"arity": 1, "entries": one}]}))

    def no_words(*args, **kwargs):
        raise AssertionError("a word list was built")

    monkeypatch.setattr("defalg.coalg.all_words", no_words)
    started = time.monotonic()
    for cmd, inp in (("coder", path), ("comorph", comorph)):
        assert main([cmd, "--max-arity", str(10**9), "--input", str(inp)]) == 2
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 1
        assert f"--max-arity {10**9}: the splits of the words" in out
        assert "exceed the DEFALG_MAX_BASIS cap of 4096" in out
        # one even letter: sum 2^k for k <= 12 is 8190 > 4096
        assert main([cmd, "--max-arity", "12", "--input", str(inp)]) == 2
        assert "--max-arity 12" in capsys.readouterr().out
    assert time.monotonic() - started < 1.0
    monkeypatch.undo()
    # the boundary: sum 2^k for k <= 11 is 4094 <= 4096
    assert main(["coder", "--max-arity", "11", "--input", str(path)]) == 0
    monkeypatch.setenv("DEFALG_MAX_BASIS", "6")
    assert main(["comorph", "--max-arity", "2", "--input", str(comorph)]) == 0
    assert main(["comorph", "--max-arity", "3", "--input", str(comorph)]) == 2
    assert "cap of 6" in capsys.readouterr().out.splitlines()[-1]
    # end to end: --max-arity 18 took 21.8 s before the bound
    out = run_cli_input_error("coder", "--max-arity", "18", "--input", str(path))
    assert "--max-arity 18" in out


def test_linfty_depth_refused_before_any_word(capsys, monkeypatch):
    """check-linfty and from-dgla bound the words up to their depth (the
    flag, or else 2m - 1) before any is built, as coder and comorph do."""

    path = partial(os.path.join, INPUTS)

    def no_words(*args, **kwargs):
        raise AssertionError("a word list was built")

    monkeypatch.setattr("defalg.linfty.all_words", no_words)
    for cmd, name in (
        ("check-linfty", "linfty.json"),
        ("from-dgla", "odd_square_dgla.json"),
    ):
        assert main([cmd, "--max-arity", str(10**6), "--input", path(name)]) == 2
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 1
        assert f"--max-arity {10**6}: the splits of the words" in out
        assert "exceed the DEFALG_MAX_BASIS cap of 4096" in out
    # the default depth 2m - 1 = 3 of linfty.json holds 28 splits
    monkeypatch.setenv("DEFALG_MAX_BASIS", "27")
    assert main(["check-linfty", "--input", path("linfty.json")]) == 2
    out = capsys.readouterr().out
    assert "the default depth 3: the splits of the words up to length 3" in out
    monkeypatch.undo()
    monkeypatch.setenv("DEFALG_MAX_BASIS", "28")
    assert main(["check-linfty", "--input", path("linfty.json")]) == 0
    monkeypatch.undo()
    # 3,330 splits at its default depth 7 stay under the default cap
    assert main(["check-linfty", "--input", path("failing_linfty_arity4.json")]) == 1
    capsys.readouterr()
    out = run_cli_input_error(
        "from-dgla", "--max-arity", str(10**6), "--input", path("odd_square_dgla.json")
    )
    assert f"--max-arity {10**6}" in out


def test_remaining_max_arity_refused_before_any_word(capsys, monkeypatch):
    """linfty-morphism and gbv-to-abelian bound the splits of their words,
    hodge-f the m! signed permutations F_m sums on each word of length m,
    before any word is built."""
    path = partial(os.path.join, INPUTS)

    def no_words(*args, **kwargs):
        raise AssertionError("a word list was built")

    monkeypatch.setattr("defalg.linfty.all_words", no_words)
    monkeypatch.setattr("defalg.gbv.all_words", no_words)
    for argv, counted in (
        (("linfty-morphism", "--input", path("linfty_morphism.json")), "splits"),
        (("gbv-to-abelian", "--input", path("gbv.json")), "splits"),
        (("hodge-f", "--builtin", "derived"), "signed permutations"),
    ):
        assert main([*argv, "--max-arity", str(10**6)]) == 2
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 1
        assert f"--max-arity {10**6}: the {counted} of the words up to" in out
        assert "exceed the DEFALG_MAX_BASIS cap of 4096" in out
    # the default depth max(a + m - 1, m' a) = 3 holds 4 + 8 + 16 splits
    depth = ("linfty-morphism", "--input", path("failing_linfty_morphism_depth.json"))
    monkeypatch.setenv("DEFALG_MAX_BASIS", "27")
    assert main(list(depth)) == 2
    assert "the default depth 3: the splits" in capsys.readouterr().out
    # derived: 7 + 24 * 2! + 56 * 3! + 104 * 4! = 2887 permutations at 4
    monkeypatch.setenv("DEFALG_MAX_BASIS", "2886")
    assert main(["hodge-f", "--builtin", "derived"]) == 2
    assert "the default depth 4: the signed permutations" in capsys.readouterr().out
    monkeypatch.undo()
    monkeypatch.setenv("DEFALG_MAX_BASIS", "28")
    assert main(list(depth)) == 1
    monkeypatch.setenv("DEFALG_MAX_BASIS", "2887")
    assert main(["hodge-f", "--builtin", "derived"]) == 0
    capsys.readouterr()
    monkeypatch.undo()
    # without the flag the refusal names the default depth, not a flag
    for cmd, name, basis in (
        ("coder", "coderivation", schemas.parse_coderivation(sample("coderivation")).basis),
        ("comorph", "comorphism", schemas.parse_comorphism(sample("comorphism")).source),
        ("gbv-to-abelian", "gbv", schemas.parse_gbv(sample("gbv")).algebra.basis),
    ):
        splits = sum(2 ** len(w) for w in all_words(basis, 4))
        for cap, code in ((splits - 1, 2), (splits, 0)):
            monkeypatch.setenv("DEFALG_MAX_BASIS", str(cap))
            assert main([cmd, "--input", path(f"{name}.json")]) == code
            out = capsys.readouterr().out
            refusal = "the default depth 4: the splits of the words up to length 4"
            assert (refusal in out) == (code == 2) and "--max-arity" not in out
    monkeypatch.undo()
    # end to end: --max-arity 40 ran past 6 s before the bound
    out = run_cli_input_error(
        "gbv-to-abelian", "--max-arity", "40", "--input", path("gbv.json")
    )
    assert "--max-arity 40: the splits" in out


def test_work_bound_boundaries(tmp_path, capsys, monkeypatch):
    """At the caps -1, 0, count - 1 and count, each bounded subcommand is
    refused exactly when the count of its work, listed directly here, passes
    the cap; an empty covector is never refused."""
    path = partial(os.path.join, INPUTS)
    covectors = {}
    for name, Ms in (("empty", []), ("two", [[1], [2]])):
        covectors[name] = tmp_path / f"{name}.json"
        terms = [
            {"A": [], "B": [], "M": M, "N": [i for i in (1, 2, 3) if i not in M],
             "coeff": {"re": "1"}}
            for M in Ms
        ]
        covectors[name].write_text(json.dumps({"kind": "covector", "dim": 3, "terms": terms}))
    coder = schemas.parse_coderivation(sample("coderivation")).basis
    cases = [
        *(
            (["bch", "--input", path("free_bch.json"), "--truncate", str(t)], 4**t)
            for t in (0, 1, 2)
        ),
        *(
            (["lefschetz", "identities", "--dim", str(n)], len(all_keys(n)))
            for n in (0, 1, 2)
        ),
        (["lefschetz", "decompose", "--dim", "2", "--input", path("covector.json")], 1 * 2**2),
        (["lefschetz", "decompose", "--dim", "3", "--input", str(covectors["two"])], 2 * 2**3),
        (["lefschetz", "decompose", "--dim", "3", "--input", str(covectors["empty"])], None),
        *(
            (
                ["coder", "--input", path("coderivation.json"), "--max-arity", str(m)],
                sum(2 ** len(w) for w in all_words(coder, m)),
            )
            for m in (1, 2, 3, 4)
        ),
        *(
            (
                ["hodge-f", "--builtin", name, "--max-arity", str(m)],
                sum(factorial(len(w)) for w in all_words(HODGE_BUILTINS[name]().source, m)),
            )
            for name in sorted(HODGE_BUILTINS)
            for m in (1, 4)
        ),
    ]
    for argv, count in cases:
        for cap in (-1, 0, (count or 0) - 1, count or 0):
            monkeypatch.setenv("DEFALG_MAX_BASIS", str(cap))
            code = main(argv)
            out = capsys.readouterr().out
            refused = count is not None and count > cap
            assert (code == 2) == refused, (argv, cap, out)
            if refused:
                assert len(out.splitlines()) == 1
                # at -1 and 0 the parser may refuse the input's basis first,
                # in the same words
                assert f"exceed the DEFALG_MAX_BASIS cap of {cap}" in out, out


def test_negative_polyvector_vars_exits_two(tmp_path):
    path = tmp_path / "pv.json"
    path.write_text(json.dumps({"kind": "polyvector", "vars": -1, "cap": 3, "terms": []}))
    out = run_cli_input_error("delta", "--input", str(path))
    assert "vars" in out


def test_json_report_round_trips():
    out = run_cli(
        "bch",
        "--input",
        os.path.join(INPUTS, "free_bch.json"),
        "--mode",
        "explicit",
        "--truncate",
        "3",
        "--format",
        "json",
    )
    payload = json.loads(out)
    violations = [Violation(**v) for v in payload["violations"]]
    witness, info = payload.get("witness"), payload.get("info")
    rep = CheckReport(payload["command"], violations, witness, info)
    assert rep.to_dict() == payload
    words = {tuple(t["word"]): t["coeff"] for t in payload["witness"]["terms"]}
    assert words[("a", "b")] == "1/2"
    assert words[("a", "a", "b")] == "1/12"  # from (1/12)[a,[a,b]]


def test_reports_byte_identical_for_fixed_input():
    argv = (
        "check-dgla",
        "--input",
        os.path.join(INPUTS, "odd_square_dgla.json"),
        "--format",
        "json",
    )
    assert run_cli(*argv) == run_cli(*argv)


def test_suite_deterministic_and_seed_sensitive():
    one = run_cli("suite", "--seed", "7", "--format", "json")
    two = run_cli("suite", "--seed", "7", "--format", "json")
    assert one == two
    payload = json.loads(one)
    assert payload["status"] == "pass"
    assert payload["info"]["seed"] == 7


def test_lefschetz_subcommands():
    out = run_cli("lefschetz", "identities", "--dim", "2", "--format", "json")
    payload = json.loads(out)
    assert payload["status"] == "pass"
    assert payload["info"]["basis_size"] == 16
    out = run_cli(
        "lefschetz",
        "decompose",
        "--dim",
        "2",
        "--input",
        os.path.join(INPUTS, "covector.json"),
        "--format",
        "json",
    )
    payload = json.loads(out)
    comps = payload["witness"]["components"]
    assert [c["power"] for c in comps] == [0, 1]
    assert all(c["primitive"] for c in comps)


def test_delta_and_schouten_commands(tmp_path):
    out = run_cli(
        "delta", "--input", os.path.join(INPUTS, "polyvector.json"), "--format", "json"
    )
    payload = json.loads(out)
    assert payload["witness"]["delta"] == [
        {"monomial": [0, 0], "frame": [], "coeff": "1"}
    ]
    pair = tmp_path / "pair.json"
    pair.write_text(
        json.dumps(
            {
                "kind": "polyvector_pair",
                "vars": 2,
                "left": [{"coeff": "1", "monomial": [0, 0], "frame": [1]}],
                "right": [{"coeff": "1", "monomial": [1, 0], "frame": [2]}],
            }
        )
    )
    out = run_cli("schouten", "--input", str(pair), "--format", "json")
    payload = json.loads(out)
    assert payload["witness"]["bracket"] == [
        {"monomial": [0, 0], "frame": [2], "coeff": "1"}
    ]
    out = run_cli("tian-todorov", "--input", str(pair))
    assert "[PASS]" in out


def test_hodge_builtins():
    for name in ("trivial", "rank-one", "derived"):
        out = run_cli("hodge-f", "--builtin", name, "--max-arity", "3", "--format", "json")
        assert json.loads(out)["status"] == "pass"
    run_cli("hodge-f", "--builtin", "nope", expect=2)


def test_gbv_check_command(tmp_path):
    gbv = tmp_path / "gbv.json"
    gbv.write_text(
        json.dumps(
            {
                "kind": "gbv",
                "algebra": {
                    "basis": [
                        {"name": "one", "degree": 0},
                        {"name": "th1", "degree": -1},
                        {"name": "th2", "degree": 1},
                        {"name": "th12", "degree": 0},
                    ],
                    "unit": "one",
                    "product": [
                        {
                            "left": "th1",
                            "right": "th2",
                            "value": [{"basis": "th12", "coeff": "1"}],
                        }
                    ],
                },
                "delta": [
                    {"from": "th1", "value": [{"basis": "one", "coeff": "1"}]},
                    {"from": "th12", "value": [{"basis": "th2", "coeff": "2"}]},
                ],
            }
        )
    )
    out = run_cli("gbv-check", "--input", str(gbv), "--format", "json")
    assert json.loads(out)["status"] == "pass"
    out = run_cli("gbv-to-abelian", "--input", str(gbv), "--max-arity", "4")
    assert "[PASS]" in out


def test_mc_and_gauge_commands(tmp_path):
    problem = {
        "kind": "mc_problem",
        "dgla": {
            "basis": [
                {"name": "a", "degree": 0},
                {"name": "x", "degree": 1},
                {"name": "y", "degree": 1},
            ],
            "bracket": [
                {"left": "a", "right": "x", "value": [{"basis": "y", "coeff": "1"}]}
            ],
        },
        "base": {
            "basis": [{"name": "t", "degree": 0}, {"name": "t2", "degree": 0}],
            "product": [
                {"left": "t", "right": "t", "value": [{"basis": "t2", "coeff": "1"}]}
            ],
        },
        "element": [{"l": "x", "a": "t", "coeff": "1"}],
    }
    f = tmp_path / "mc.json"
    f.write_text(json.dumps(problem))
    out = run_cli("mc", "--input", str(f), "--format", "json")
    assert json.loads(out)["status"] == "pass"
    problem["kind"] = "gauge_problem"
    problem["gauge_by"] = [{"l": "a", "a": "t", "coeff": "1"}]
    g = tmp_path / "gauge.json"
    g.write_text(json.dumps(problem))
    payload = json.loads(run_cli("gauge", "--input", str(g), "--format", "json"))
    got = {(t["basis"], t["coeff"]) for t in payload["witness"]["result"]}
    assert got == {("x(x)t", "1"), ("y(x)t2", "1")}


def test_gauge_and_exp_der_over_a_base_that_is_not_nilpotent_exit_two(tmp_path):
    """Over span{t} with t t = t neither series ends: each command exits 2
    naming the base as not nilpotent, in both formats, with no traceback."""
    idempotent = {
        "basis": [{"name": "t", "degree": 0}],
        "product": [{"left": "t", "right": "t", "value": [{"basis": "t", "coeff": "1"}]}],
    }
    gauge = {
        "kind": "gauge_problem",
        "dgla": {
            "basis": [{"name": "a", "degree": 0}, {"name": "x", "degree": 1}],
            "bracket": [
                {"left": "a", "right": "x", "value": [{"basis": "x", "coeff": "1"}]}
            ],
        },
        "base": idempotent,
        "element": [{"l": "x", "a": "t", "coeff": "1"}],
        "gauge_by": [{"l": "a", "a": "t", "coeff": "1"}],
    }
    exp_der = sample("exp_derivation")
    exp_der["base"] = {"kind": "artin_dg", **idempotent}
    for sub, problem in (("gauge", gauge), ("exp-der", exp_der)):
        f = tmp_path / f"{sub}.json"
        f.write_text(json.dumps(problem))
        out = run_cli_input_error(sub, "--input", str(f))
        assert out == f"[ERROR] {sub}: base algebra is not nilpotent\n"
        payload = json.loads(run_cli_input_error(sub, "--input", str(f), "--format", "json"))
        assert payload["status"] == "error"
        assert [v["message"] for v in payload["violations"]] == [
            "base algebra is not nilpotent"
        ]


def test_basis_cap_env(tmp_path):
    big = tmp_path / "big.json"
    big.write_text(
        json.dumps(
            {
                "kind": "dgla",
                "basis": [{"name": f"e{i}", "degree": 0} for i in range(20)],
            }
        )
    )
    env = dict(os.environ)
    env["DEFALG_MAX_BASIS"] = "10"
    proc = subprocess.run(
        [sys.executable, "-m", "defalg.cli", "check-dgla", "--input", str(big)],
        capture_output=True,
        text=True,
        cwd=REPO,
        env=env,
    )
    assert proc.returncode == 2
    assert proc.stdout == (
        "[INPUT-ERROR] check-dgla: basis: the 20 basis elements exceed the "
        "DEFALG_MAX_BASIS cap of 10\n"
    )


def test_main_entry_in_process():
    code = main(["check-dgla", "--input", os.path.join(INPUTS, "abelian_dgla.json")])
    assert code == 0


def test_remaining_subcommands_end_to_end(tmp_path):
    """Functional smoke of every subcommand not covered above, through real
    input files."""

    def write(name, payload):
        f = tmp_path / name
        f.write_text(json.dumps(payload))
        return str(f)

    dgla = {
        "kind": "dgla",
        "basis": [
            {"name": "x", "degree": 1},
            {"name": "z", "degree": 1},
            {"name": "y", "degree": 2},
        ],
        "bracket": [
            {"left": "x", "right": "x", "value": [{"basis": "y", "coeff": "1"}]}
        ],
        "differential": [{"from": "z", "value": [{"basis": "y", "coeff": "1"}]}],
    }
    artin3 = {
        "kind": "artin_dg",
        "basis": [{"name": "t", "degree": 0}, {"name": "t2", "degree": 0}],
        "product": [
            {"left": "t", "right": "t", "value": [{"basis": "t2", "coeff": "1"}]}
        ],
    }

    # obstruction: the worked 1/2 class
    payload = json.loads(
        run_cli(
            "obstruction",
            "--input",
            write(
                "obs.json",
                {
                    "kind": "obstruction_problem",
                    "dgla": {
                        "kind": "dgla",
                        "basis": [
                            {"name": "x", "degree": 1},
                            {"name": "y", "degree": 2},
                        ],
                        "bracket": [
                            {
                                "left": "x",
                                "right": "x",
                                "value": [{"basis": "y", "coeff": "1"}],
                            }
                        ],
                    },
                    "total": artin3,
                    "kernel": ["t2"],
                    "element": [{"l": "x", "a": "t", "coeff": "1"}],
                },
            ),
            "--format",
            "json",
            expect=1,
        )
    )
    assert payload["witness"]["classes"]["t2"] == ["1/2"]
    assert payload["witness"]["vanishes"] is False

    # cohomology of the dgla above: H^1 = <x>, H^2 = 0
    payload = json.loads(
        run_cli(
            "cohomology",
            "--input",
            write(
                "coh.json",
                {"kind": "cohomology_problem", "structure": dgla, "degree": 1},
            ),
            "--format",
            "json",
        )
    )
    assert payload["witness"]["dims"] == {"cycles": 1, "boundaries": 0, "h": 1}

    # cones of the (t)/(t^3) extension
    payload = json.loads(
        run_cli(
            "cones",
            "--input",
            write(
                "cone.json",
                {"kind": "small_extension", "total": artin3, "kernel": ["t2"]},
            ),
            "--format",
            "json",
        )
    )
    names = {b["name"] for b in payload["witness"]["cone_basis"]}
    assert "t2'" in names
    assert payload["witness"]["kernel_acyclic"] is False  # classical kernel

    # exp-der: dual numbers, d(u) = u (x) t
    out = run_cli(
        "exp-der",
        "--input",
        write(
            "expder.json",
            {
                "kind": "exp_derivation",
                "algebra": {
                    "basis": [
                        {"name": "one", "degree": 0},
                        {"name": "u", "degree": 0},
                    ],
                    "unit": "one",
                    "product": [
                        {"left": "u", "right": "u", "value": []}
                    ],
                },
                "base": {
                    "kind": "artin_dg",
                    "basis": [{"name": "t", "degree": 0}],
                    "product": [{"left": "t", "right": "t", "value": []}],
                },
                "derivation": [
                    {
                        "from": "u",
                        "value": [{"r": "u", "a": "t", "coeff": "1"}],
                    }
                ],
            },
        ),
    )
    assert "[PASS]" in out

    # homotopy-eval: the contracting homotopy on a two-term acyclic algebra
    payload = json.loads(
        run_cli(
            "homotopy-eval",
            "--input",
            write(
                "homotopy.json",
                {
                    "kind": "homotopy",
                    "source": {
                        "kind": "artin_dg",
                        "basis": [
                            {"name": "v", "degree": 1},
                            {"name": "dv", "degree": 2},
                        ],
                        "differential": [
                            {"from": "v", "value": [{"basis": "dv", "coeff": "1"}]}
                        ],
                    },
                    "target": {
                        "kind": "artin_dg",
                        "basis": [
                            {"name": "v", "degree": 1},
                            {"name": "dv", "degree": 2},
                        ],
                        "differential": [
                            {"from": "v", "value": [{"basis": "dv", "coeff": "1"}]}
                        ],
                    },
                    "entries": [
                        {
                            "from": "v",
                            "value": [
                                {"basis": "v", "t_power": 1, "coeff": "1"}
                            ],
                        },
                        {
                            "from": "dv",
                            "value": [
                                {"basis": "dv", "t_power": 1, "coeff": "1"},
                                {"basis": "v", "t_power": 0, "dt": True, "coeff": "-1"},
                            ],
                        },
                    ],
                    "eval_at": "0",
                },
            ),
            "--format",
            "json",
        )
    )
    assert payload["status"] == "pass"
    assert payload["witness"]["map"]["v"] == []  # evaluation at 0 kills it

    # dsw + friedrichs on x (x) y
    tensor = {
        "kind": "tensor_poly",
        "generators": ["x", "y"],
        "truncation": 4,
        "terms": [{"word": ["x", "y"], "coeff": "1"}],
    }
    payload = json.loads(
        run_cli("dsw", "--input", write("dsw.json", tensor), "--format", "json")
    )
    got = {tuple(t["word"]): t["coeff"] for t in payload["witness"]["projection"]}
    assert got == {("x", "y"): "1/2", ("y", "x"): "-1/2"}
    run_cli("friedrichs", "--input", write("fr.json", tensor), expect=1)
    lie = {
        "kind": "tensor_poly",
        "generators": ["x", "y"],
        "truncation": 4,
        "terms": [
            {"word": ["x", "y"], "coeff": "1"},
            {"word": ["y", "x"], "coeff": "-1"},
        ],
    }
    run_cli("friedrichs", "--input", write("lie.json", lie))

    # coder / comorph
    basis4 = [
        {"name": "a", "degree": 1},
        {"name": "b", "degree": 2},
        {"name": "c", "degree": 1},
        {"name": "d", "degree": 0},
    ]
    run_cli(
        "coder",
        "--input",
        write(
            "coder.json",
            {
                "kind": "coderivation",
                "basis": basis4,
                "degree": 1,
                "components": [
                    {
                        "arity": 1,
                        "entries": [
                            {"word": ["a"], "value": [{"basis": "b", "coeff": "1"}]}
                        ],
                    }
                ],
            },
        ),
    )
    run_cli(
        "comorph",
        "--input",
        write(
            "comorph.json",
            {
                "kind": "comorphism",
                "source_basis": basis4,
                "target_basis": basis4,
                "components": [
                    {
                        "arity": 1,
                        "entries": [
                            {"word": ["a"], "value": [{"basis": "a", "coeff": "2"}]}
                        ],
                    }
                ],
            },
        ),
    )

    # check-linfty and from-dgla and linfty-morphism
    linfty = {
        "kind": "linfty",
        "convention": "unsuspended",
        "basis": [{"name": "x", "degree": 1}, {"name": "y", "degree": 2}],
        "brackets": {
            "2": [
                {"word": ["x", "x"], "value": [{"basis": "y", "coeff": "1"}]}
            ]
        },
    }
    run_cli("check-linfty", "--input", write("linfty.json", linfty))
    run_cli("from-dgla", "--input", write("fd.json", dgla))
    run_cli(
        "linfty-morphism",
        "--input",
        write(
            "lmor.json",
            {
                "kind": "linfty_morphism",
                "source": linfty,
                "target": linfty,
                "components": [
                    {
                        "arity": 1,
                        "entries": [
                            {"word": ["x"], "value": [{"basis": "x", "coeff": "1"}]},
                            {"word": ["y"], "value": [{"basis": "y", "coeff": "1"}]},
                        ],
                    }
                ],
            },
        ),
    )

    # mc-linfty: zero element of the structure above is Maurer-Cartan
    run_cli(
        "mc-linfty",
        "--input",
        write(
            "mcl.json",
            {
                "kind": "mc_linfty_problem",
                "structure": linfty,
                "base": artin3,
                "element": [],
            },
        ),
    )


# a value each flag accepts
FLAG_VALUES = {
    "input": ("--input", "x.json"),
    "truncate": ("--truncate", "3"),
    "max_arity": ("--max-arity", "3"),
    "seed": ("--seed", "3"),
    "mode": ("--mode", "free"),
    "builtin": ("--builtin", "trivial"),
    "action": ("identities",),
    "dim": ("--dim", "3"),
}


def test_each_subcommand_takes_exactly_the_flags_it_reads(capsys):
    assert set(FLAG_VALUES) == set(FLAGS)
    parser = build_parser()
    settable = 0
    for name, (_, flags) in SUBCOMMANDS.items():
        base = [name, "--format", "json", *(["identities"] if "action" in flags else [])]
        for flag, value in FLAG_VALUES.items():
            argv = base + list(value) if flag != "action" else [name, "identities"]
            if flag in flags:
                parser.parse_args(argv)
            else:
                with pytest.raises(SystemExit) as exc:
                    parser.parse_args(argv)
                assert exc.value.code == 2, (name, flag)
        settable += 1 + len(flags)  # --format and the listed flags
    assert settable == 63
    capsys.readouterr()
    # end to end: a flag the subcommand does not read is refused
    with pytest.raises(SystemExit) as exc:
        main(["check-dgla", "--seed", "3", "--input", "inputs/abelian_dgla.json"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


def _handler_reads(handler):
    """The `args.<flag>` names a handler reads, `_load(args)` reading input."""
    reads = set()
    for node in ast.walk(ast.parse(inspect.getsource(handler))):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "args":
            reads.add(node.attr)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_load":
            reads.add("input")
    return reads


def test_each_subcommand_row_lists_the_flags_its_handler_reads():
    for name, (handler, flags) in SUBCOMMANDS.items():
        assert _handler_reads(handler) == set(flags), name


FUZZ_VALUES = (None, [], {}, "x", 1.5, -1, True)
DEEPER_DRAWS = 40  # per sample
HUGE = 10**6  # set as every degree, truncation and cap
HUGE_FIELDS = ("degree", "truncation", "cap")


def _entry_fields(doc, path=()):
    """The path of each field of the document and, recursively, of each field
    of the first entry of each list in it."""
    for key, value in doc.items():
        yield (*path, key)
        if isinstance(value, list) and value and isinstance(value[0], dict):
            yield from _entry_fields(value[0], (*path, key, 0))


def _nested_fields(doc, path=()):
    """The path of every field, list entry and nested object in the document."""
    entries = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in entries:
        yield (*path, key)
        if isinstance(value, (dict, list)):
            yield from _nested_fields(value, (*path, key))


def _set(doc, path, value):
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def test_mutated_samples_exit_zero_one_or_two(monkeypatch, capsys):
    """Each sample in inputs/ with one field set to a value of another type:
    every field of the document and of each list's first entry, plus a
    seeded draw of deeper fields.  Every run exits 0, 1 or 2 and none
    raises."""
    samples = {}
    for argv in golden_cases().values():
        if "--input" in argv:
            samples.setdefault(argv[argv.index("--input") + 1], argv)
    assert len(samples) == len(os.listdir(INPUTS))
    rng = random.Random(12)
    runs = failures = 0
    for path, argv in sorted(samples.items()):
        doc = sample(os.path.basename(path)[: -len(".json")])
        fields = list(_entry_fields(doc))
        deeper = [p for p in _nested_fields(doc) if p not in fields]
        mutations = [(p, v) for p in fields for v in FUZZ_VALUES]
        for field in rng.sample(deeper, min(DEEPER_DRAWS, len(deeper))):
            mutations.append((field, rng.choice(FUZZ_VALUES)))
        huge = [p for p in _nested_fields(doc) if p[-1] in HUGE_FIELDS]
        mutations += [(p, HUGE) for p in huge]
        for field, value in mutations:
            mutated = _set(doc, field, value)
            monkeypatch.setattr(schemas, "load_json", lambda _, doc=mutated: doc)
            code = main(list(argv))
            capsys.readouterr()
            runs += 1
            failures += code not in (0, 1, 2)
    assert failures == 0
    assert runs > 2000


INT_FLAGS = ("--truncate", "--dim", "--max-arity")


def test_int_flags_exit_zero_one_or_two(monkeypatch, capsys):
    """Each documented int flag at -1, 0, 1, 2, 3 and 10**6 on every golden
    case of a subcommand that reads it: every run exits 0, 1 or 2 and none
    raises; an input error prints one line (an [ERROR] may carry the report
    that refused the input, as from-dgla's on a failing DGLA does)."""
    monkeypatch.chdir(REPO)
    runs = 0
    for argv in golden_cases().values():
        options = [FLAGS[flag][0] for flag in SUBCOMMANDS[argv[0]][1]]
        for option in (o for o in options if o in INT_FLAGS):
            for value in (-1, 0, 1, 2, 3, 10**6):
                code = main([*argv, option, str(value)])
                out = capsys.readouterr().out
                assert code in (0, 1, 2), (argv, option, value)
                if code == 2:
                    assert out.startswith(("[INPUT-ERROR] ", "[ERROR] ")), out
                    one_line = len(out.splitlines()) == 1
                    assert one_line or out.startswith("[ERROR] "), (argv, option, value, out)
                runs += 1
    assert runs == 6 * 24  # the golden cases of bch, lefschetz and the --max-arity readers
