"""Smoke test: every script under ``demos/`` runs to completion and
leaves ``demos/`` as it found it."""

import pathlib

import pytest

import helpers

DEMO_DIR = pathlib.Path(__file__).parent.parent / "demos"
DEMOS = sorted(DEMO_DIR.glob("*.py"))


def _listing():
    """Each entry of ``demos/`` by name, with a file's bytes."""
    return {
        path.name: path.read_bytes() if path.is_file() else None for path in DEMO_DIR.iterdir()
    }


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    before = _listing()
    result = helpers.run_fresh(str(demo))
    assert result.returncode == 0, result.stderr
    assert _listing() == before
