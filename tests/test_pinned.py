"""Corpus stdout is byte-identical to the text pinned in `khbench/pinned.json`.

Each pinned job (`CMD corpus:NAME ARGS...`) runs through `cli.main` in this
process on the shipped corpus file, and its stdout must equal the pinned
text byte for byte.  `khbench/run.py` reports a mismatch as `correct: false`
but still exits 0, so this test is what fails on one.  A change that alters
output on purpose re-pins with `khbench/pin.py`.
"""

import json
from pathlib import Path

import pytest

import pkh
from pkh.cli import main

PINNED = json.loads((Path(__file__).resolve().parents[1] / "khbench" / "pinned.json").read_text())
CORPUS = Path(pkh.__file__).resolve().parent / "corpus_data"


@pytest.mark.parametrize("key", sorted(PINNED))
def test_corpus_stdout_matches_the_pinned_text(key, capsys):
    cmd, diagram, *args = key.split()
    kind, name = diagram.split(":", 1)
    assert kind == "corpus"
    assert main([cmd, str(CORPUS / f"{name}.json"), *args]) == 0
    assert capsys.readouterr().out == PINNED[key]
