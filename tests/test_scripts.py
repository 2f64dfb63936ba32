"""Smoke tests for the runnable scripts: each runs in process, as
``python scripts/NAME.py ...`` would, on a small input."""

from __future__ import annotations

import json
import os
import runpy
import sys

import pytest

SCRIPTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, "scripts")


def _run_script(monkeypatch, name, *argv):
    # the scripts put tests/ on sys.path; keep that from leaking
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "argv", [name, *argv])
    with pytest.raises(SystemExit) as stop:
        runpy.run_path(os.path.join(SCRIPTS, name), run_name="__main__")
    return stop.value.code


def test_run_fixtures_one_fixture(monkeypatch, capsys):
    assert _run_script(monkeypatch, "run_fixtures.py", "--fixture", "G1") == 0
    out = capsys.readouterr().out
    assert "G1 (basic):" in out
    assert "G |-DAF O q" in out and "G |/-DAF O ~p" in out
    assert "DISAGREE" not in out
    assert "\n4 verdicts in " in out


def test_postulate_suite_small(monkeypatch, capsys):
    assert _run_script(monkeypatch, "postulate_suite.py", "--count", "5") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("5 knowledge bases, ")
    counters = lines[1:]
    assert len(counters) == 10
    for line in counters:
        name, value, status = line.split()
        assert (value, status) == ("0", "ok"), name


def test_export_figure_writes_both_files(monkeypatch, capsys, tmp_path):
    dot = tmp_path / "ctd.dot"
    record = tmp_path / "ctd.json"
    code = _run_script(monkeypatch, "export_figure.py",
                       "--dot", str(dot), "--json", str(record))
    assert code == 0
    assert f"wrote {dot} and {record}" in capsys.readouterr().out
    assert dot.read_text(encoding="utf-8").startswith("digraph daf {")
    data = json.loads(record.read_text(encoding="utf-8"))
    assert data["arguments"] and data["attacks"]
