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
        "  base T2: h = (2*T1*T2 - 1)*X + (-2*T1*T2^2 + T2) after 2 attempts, residual 0",
    ),
]


@pytest.mark.parametrize("script, argv, expected", CASES, ids=[c[0] for c in CASES])
def test_script_runs(script, argv, expected, monkeypatch, capsys):
    path = SCRIPTS / script
    monkeypatch.setattr(sys, "argv", [str(path), *argv])
    runpy.run_path(str(path), run_name="__main__")
    assert expected in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("k", ["2", "0"])
def test_abhyankar_report_rejects_truncation_below_3(k, monkeypatch, capsys):
    path = SCRIPTS / "run_abhyankar_report.py"
    monkeypatch.setattr(sys, "argv", [str(path), "--k", k])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(path), run_name="__main__")
    assert exc.value.code == 2
    assert f"--k must be at least 3, got {k}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "script, argv, message",
    [
        ("cone_gallery.py", ["--steps", "0"], "max_steps must be at least 1, got 0"),
        (
            "explore_idempotent_presentations.py",
            ["--deg", "-1"],
            "max_degree must be at least 0, got -1",
        ),
        (
            "explore_idempotent_presentations.py",
            ["--coeff", "0"],
            "max_coeff must be at least 1, got 0",
        ),
    ],
    ids=["gallery-steps", "explore-deg", "explore-coeff"],
)
def test_scripts_reject_an_out_of_range_budget(script, argv, message, monkeypatch, capsys):
    path = SCRIPTS / script
    monkeypatch.setattr(sys, "argv", [str(path), *argv])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(path), run_name="__main__")
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_abhyankar_report_skips_evaluation_on_unverified_context(monkeypatch, capsys):
    # at k = 10 the default --deg 8 leaves the relation ideal incomplete
    path = SCRIPTS / "run_abhyankar_report.py"
    monkeypatch.setattr(sys, "argv", [str(path), "--k", "10"])
    runpy.run_path(str(path), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    assert "context verified:    False" in lines
    skipped = (
        "  skipped: the context is not verified at degree budget 8, "
        "so f_n -> 1/n cannot be evaluated"
    )
    assert lines.count(skipped) == 2
    assert lines[lines.index("annihilator search") + 1] == skipped
