"""The golden output corpus: every subcommand on each of its `inputs/`
samples, in both formats, run in process through `defalg.cli.main`.

`tests/golden/<case>.json` and `tests/golden/<case>.txt` hold the standard
output of one case (the text output without its trailing timing line), and
`tests/golden/exits.json` the exit code of each case.  `tests/test_golden.py`
compares every entry byte for byte.  Regenerate the corpus with

    PYTHONPATH=src python tests/golden_corpus.py

and list every entry that changed in CHANGES.md.
"""

import contextlib
import io
import json
import os
import re
import sys

from defalg.cli import main

TESTS = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(TESTS)
GOLDEN = os.path.join(TESTS, "golden")
FORMATS = ("json", "txt")
TIMING = re.compile(r"\n  \(\d+\.\d ms\)$")

# (subcommand and flags, samples under inputs/ without ".json")
RUNS = (
    (("check-dgla",), ("abelian_dgla", "odd_square_dgla", "failing_dgla")),
    (("check-na",), ("artin_dg", "failing_artin_dg")),
    (("mc",), ("mc_problem", "failing_mc_problem")),
    (("gauge",), ("gauge_problem",)),
    (("obstruction",), ("obstruction_problem", "lifting_obstruction_problem")),
    (("cohomology",), ("cohomology_problem", "artin_cohomology_problem")),
    (("cones",), ("small_extension",)),
    (("exp-der",), ("exp_derivation", "failing_exp_derivation")),
    (("homotopy-eval",), ("homotopy", "failing_homotopy")),
    (("bch", "--mode", "explicit"), ("free_bch",)),
    (("bch", "--mode", "free", "--truncate", "5"), ("free_bch",)),
    (("bch", "--mode", "nilpotent"), ("heisenberg",)),
    (("dsw",), ("tensor_poly", "failing_tensor_poly")),
    (("friedrichs",), ("tensor_poly", "failing_tensor_poly")),
    (("coder",), ("coderivation",)),
    (("comorph", "--max-arity", "3"), ("comorphism",)),
    (("check-linfty",), ("linfty", "failing_linfty", "failing_linfty_arity4")),
    (("from-dgla",), ("abelian_dgla", "odd_square_dgla", "failing_dgla")),
    (
        ("linfty-morphism",),
        (
            "linfty_morphism",
            "failing_linfty_morphism",
            "failing_linfty_morphism_arity3",
            "failing_linfty_morphism_depth",
        ),
    ),
    (("mc-linfty",), ("mc_linfty_problem", "failing_mc_linfty_problem")),
    (("gbv-check",), ("gbv", "failing_gbv")),
    (("schouten",), ("polyvector_pair", "interleaved_polyvector_pair")),
    (("delta",), ("polyvector", "two_frame_polyvector")),
    (
        ("tian-todorov",),
        ("polyvector_pair", "interleaved_polyvector_pair", "failing_polyvector_pair"),
    ),
    (("gbv-to-abelian",), ("gbv", "failing_gbv")),
    (("lefschetz", "decompose", "--dim", "2"), ("covector",)),
)
# subcommands that read no input file
BARE = (
    ("hodge-f", "--builtin", "trivial"),
    ("hodge-f", "--builtin", "rank-one", "--max-arity", "3"),
    ("hodge-f", "--builtin", "derived"),
    ("lefschetz", "identities", "--dim", "2"),
    ("lefschetz", "identities", "--dim", "3"),
    ("suite", "--seed", "7"),
    ("suite", "--seed", "11"),
)


def cases():
    """{case name: argv without --format}, argv paths relative to the repo."""
    out = {}
    for argv, samples in RUNS:
        for sample in samples:
            name = "_".join(a.lstrip("-") for a in argv) + "__" + sample
            out[name] = (*argv, "--input", os.path.join("inputs", sample + ".json"))
    for argv in BARE:
        out["_".join(a.lstrip("-") for a in argv)] = argv
    return out


def run(argv, fmt):
    """(exit code, standard output) of one in-process run from the repo root."""
    buf = io.StringIO()
    cwd = os.getcwd()
    os.chdir(REPO)
    try:
        with contextlib.redirect_stdout(buf):
            code = main([*argv, "--format", "json" if fmt == "json" else "text"])
    finally:
        os.chdir(cwd)
    return code, TIMING.sub("", buf.getvalue().rstrip("\n")) + "\n"


def generate():
    os.makedirs(GOLDEN, exist_ok=True)
    for name in os.listdir(GOLDEN):
        os.remove(os.path.join(GOLDEN, name))
    exits = {}
    for name, argv in cases().items():
        for fmt in FORMATS:
            code, out = run(argv, fmt)
            exits.setdefault(name, code)
            assert exits[name] == code, (name, fmt)
            with open(os.path.join(GOLDEN, f"{name}.{fmt}"), "w", encoding="utf-8") as fh:
                fh.write(out)
    with open(os.path.join(GOLDEN, "exits.json"), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(exits, indent=2, sort_keys=True) + "\n")
    return exits


if __name__ == "__main__":
    exits = generate()
    print(f"wrote {len(exits) * len(FORMATS)} entries to {GOLDEN}", file=sys.stderr)
