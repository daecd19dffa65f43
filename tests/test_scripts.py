"""Smoke tests for the scripts in ``scripts/``: each runs as ``__main__``
with small arguments and prints its key result line."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


CASES = [
    ("cone_gallery.py", ["--box", "2"], "  members 9, undecided 0, dimension 2"),
    (
        "explore_idempotent_presentations.py",
        [],
        "positive-rational target: cancellative yes, one-absorbing elements (none)",
    ),
    (
        "run_abhyankar_report.py",
        ["--k", "4"],
        "  base T2: h = (2*T1*T2 - 1)*X + (-2*T1*T2^2 + T2) after 2 attempts (valid: True)",
    ),
]


@pytest.mark.parametrize("script, argv, expected", CASES, ids=[c[0] for c in CASES])
def test_script_runs(script, argv, expected, monkeypatch, capsys):
    path = SCRIPTS / script
    monkeypatch.setattr(sys, "argv", [str(path), *argv])
    runpy.run_path(str(path), run_name="__main__")
    assert expected in capsys.readouterr().out.splitlines()
