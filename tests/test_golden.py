"""The compiler and the query layer reproduce the recorded golden outputs
on a fixed corpus (see ``golden.py``, which also rewrites the file)."""

import json

import pytest

import golden

with open(golden.GOLDEN_PATH, encoding="utf-8") as _file:
    EXPECTED = json.load(_file)

CORPUS = golden.corpus()


def test_corpus_matches_the_file():
    names = [name for name, _ in CORPUS]
    assert len(set(names)) == len(names)
    assert set(names) == set(EXPECTED)


@pytest.mark.parametrize("name, source", CORPUS, ids=[name for name, _ in CORPUS])
def test_golden_outputs(name, source):
    assert golden.record(source) == EXPECTED[name]
