"""Every golden corpus entry (see `golden_corpus.py`) is reproduced byte for
byte."""

import json
import os

from golden_corpus import FORMATS, GOLDEN, cases, run

from defalg.cli import SUBCOMMANDS


def test_golden_corpus_is_reproduced_byte_for_byte():
    with open(os.path.join(GOLDEN, "exits.json"), encoding="utf-8") as fh:
        exits = json.load(fh)
    table = cases()
    assert sorted(exits) == sorted(table)
    entries = {f"{name}.{fmt}" for name in table for fmt in FORMATS}
    assert set(os.listdir(GOLDEN)) == entries | {"exits.json"}
    changed = []
    for name, argv in table.items():
        for fmt in FORMATS:
            code, out = run(argv, fmt)
            with open(os.path.join(GOLDEN, f"{name}.{fmt}"), encoding="utf-8") as fh:
                if (code, out) != (exits[name], fh.read()):
                    changed.append(f"{name}.{fmt}")
    assert changed == []


def test_every_json_entry_is_a_report_with_a_known_status():
    for name in cases():
        with open(os.path.join(GOLDEN, f"{name}.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        assert report["status"] in {"pass", "fail", "input-error", "error"}, name


def test_corpus_runs_every_subcommand_and_every_outcome():
    with open(os.path.join(GOLDEN, "exits.json"), encoding="utf-8") as fh:
        exits = json.load(fh)
    assert {argv[0] for argv in cases().values()} == set(SUBCOMMANDS)
    assert set(exits.values()) == {0, 1, 2}
