"""Smoke test: every script under ``demos/`` runs to completion."""

import pathlib

import pytest

import helpers

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    result = helpers.run_fresh(str(demo))
    assert result.returncode == 0, result.stderr
