"""Command-line interface: verdicts, exit codes, exports, determinism."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import daf
from daf.cli import _emit_verdict, framework_from_json, main
from daf.consequence import _FastBasic, entails_fast_basic
from daf.grounded import grounded_extension
from daf.kb import parse_kb, parse_query
from kbs import KB_TEXTS


@pytest.fixture()
def kb_file(tmp_path):
    def write(name):
        path = tmp_path / f"{name.lower()}.kb"
        path.write_text(KB_TEXTS[name] + "\n", encoding="utf-8")
        return str(path)

    return write


def test_query_text_output(kb_file, capsys):
    code = main(["query", "-k", kb_file("G1"), "-s", "basic", "O q"])
    out = capsys.readouterr().out
    assert code == 0
    assert "G |-DAF O q" in out
    assert "witness:" in out
    assert "<O q: p, p => q>" in out


def test_exit_status_flag(kb_file, capsys):
    assert main(["query", "-k", kb_file("G1"), "--exit-status", "O q"]) == 0
    assert main(["query", "-k", kb_file("G1"), "--exit-status", "O ~q"]) == 1
    capsys.readouterr()
    # without the flag both verdicts exit 0
    assert main(["query", "-k", kb_file("G1"), "O ~q"]) == 0
    capsys.readouterr()


def test_prio_and_fast_engines(kb_file, capsys):
    g6 = kb_file("G6")
    assert main(["query", "-k", g6, "-s", "prio", "--exit-status",
                 "O ~s"]) == 0
    assert main(["query", "-k", g6, "-s", "prio", "--exit-status",
                 "O s"]) == 1
    capsys.readouterr()
    g1 = kb_file("G1")
    assert main(["query", "-k", g1, "-e", "fast", "--exit-status",
                 "O q"]) == 0
    # the fast engine is restricted to basic semantics
    assert main(["query", "-k", g1, "-s", "prio", "-e", "fast", "O q"]) == 2
    capsys.readouterr()


def test_parse_and_validation_errors(kb_file, tmp_path, capsys):
    bad = tmp_path / "bad.kb"
    bad.write_text("fact p &\n", encoding="utf-8")
    assert main(["query", "-k", str(bad), "O q"]) == 2
    assert main(["query", "-k", kb_file("G1"), "O"]) == 2
    assert main(["query", "-k", kb_file("G1"), "-s", "prio", "O q"]) == 2
    assert main(["query", "-k", str(tmp_path / "missing.kb"), "O q"]) == 2
    capsys.readouterr()


def test_bound_exceeded_exit_code(kb_file, capsys, monkeypatch):
    monkeypatch.setenv("DAF_HARD_CAP", "3")
    assert main(["query", "-k", kb_file("G6"), "-s", "prio", "O t"]) == 3
    capsys.readouterr()


def test_json_output(kb_file, capsys):
    main(["query", "-k", kb_file("G1"), "-o", "json", "O q"])
    record = json.loads(capsys.readouterr().out)
    assert record["derivable"] is True
    assert record["query"] == "q"
    assert record["engine"] == "fixpoint"
    assert record["witness"]["conclusion"] == "O q"


def test_batch_queries(kb_file, tmp_path, capsys):
    queries = tmp_path / "queries.txt"
    queries.write_text("O q\nO q | r\n# comment\nO ~q\n", encoding="utf-8")
    code = main(["query", "-k", kb_file("G1"), "--queries", str(queries),
                 "--exit-status"])
    out = capsys.readouterr().out
    assert code == 1  # the last query is not derivable
    assert out.count("DAF") == 3


@pytest.mark.parametrize("name,texts,builds", [
    ("G1", ["O q", "O q | r", "O ~p", "O ~q", "O q | z"], 3),
    ("G4", ["O r", "O ~s", "O s", "O ~r", "O q & r", "O w"], 2),
    ("G9", ["O q", "O r", "O ~r"], 1),
])
@pytest.mark.parametrize("output", ["text", "json"])
def test_fast_batch_matches_per_query_verdicts(kb_file, tmp_path, capsys,
                                               monkeypatch, name, texts,
                                               builds, output):
    """One fast engine answers the batch's queries over the knowledge
    base's atoms, and one more each query with other atoms (r, z, w),
    with the bytes and exit code of asking ``entails_fast_basic`` one
    query at a time."""
    kb = parse_kb(KB_TEXTS[name])
    verdicts = [entails_fast_basic(kb, parse_query(t)) for t in texts]
    for verdict in verdicts:
        _emit_verdict(verdict, output)
    expected = capsys.readouterr().out
    built = []
    original = _FastBasic.__init__

    def counted(self, *args):
        built.append(args)
        original(self, *args)

    monkeypatch.setattr(_FastBasic, "__init__", counted)
    queries = tmp_path / "queries.txt"
    queries.write_text("\n".join(texts) + "\n", encoding="utf-8")
    code = main(["query", "-k", kb_file(name), "-e", "fast", "-o", output,
                 "--queries", str(queries), "--exit-status"])
    assert capsys.readouterr().out == expected
    assert code == (0 if all(v.derivable for v in verdicts) else 1)
    assert len(built) == builds


def test_fast_batch_atoms_beyond_the_table_limit(tmp_path, capsys):
    """Eleven knowledge-base atoms and ten more, one per query: each
    query fits the truth table alone, the batch together would not."""
    kb_path = tmp_path / "wide.kb"
    kb_path.write_text("".join(f"ob true => a{i}\n" for i in range(11)),
                       encoding="utf-8")
    queries = tmp_path / "queries.txt"
    queries.write_text("".join(f"O a0 | z{j}\n" for j in range(10)),
                       encoding="utf-8")
    code = main(["query", "-k", str(kb_path), "-e", "fast", "--queries",
                 str(queries), "--exit-status"])
    assert code == 0
    assert capsys.readouterr().out.count("|-DAF") == 10


def test_batch_with_malformed_line_prints_no_verdict(kb_file, tmp_path,
                                                     capsys):
    queries = tmp_path / "queries.txt"
    queries.write_text("O q\nO (q &\nO ~q\n", encoding="utf-8")
    for engine in ("fast", "fixpoint"):
        code = main(["query", "-k", kb_file("G1"), "-e", engine,
                     "--queries", str(queries)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error:")


def test_export_files_and_roundtrip(kb_file, tmp_path, capsys):
    dot = tmp_path / "g1.dot"
    dump = tmp_path / "g1.json"
    code = main(["export", "-k", kb_file("G1"), "-s", "basic",
                 "--query", "O q | r", "--dot", str(dot),
                 "--json", str(dump)])
    assert code == 0
    text = dot.read_text(encoding="utf-8")
    assert text.startswith("digraph daf {")
    assert '[label="a0\\n[]p"' in text
    assert "style=dashed" in text
    record = json.loads(dump.read_text(encoding="utf-8"))
    conclusions = {a["conclusion"] for a in record["arguments"]}
    for expected in ["[]p", "O ~p", "O ~q", "O q", "O q & ~q", "O q | r",
                     "[]~(q & ~q)"]:
        assert expected in conclusions
    assert len(record["arguments"]) >= 7
    kinds = {e["kind"] for e in record["attacks"]}
    assert kinds == {"fact", "conflict"}
    # reloading the dump reproduces identical grounded stages
    af = framework_from_json(record)
    again = grounded_extension(af)
    assert [sorted(s) for s in again.stages] == record["stages"]
    assert sorted(again.grounded) == record["grounded"]


def test_query_with_graph_dump(kb_file, tmp_path, capsys):
    dot = tmp_path / "g1-query.dot"
    assert main(["query", "-k", kb_file("G1"), "--dot", str(dot),
                 "O q | r"]) == 0
    assert dot.read_text(encoding="utf-8").startswith("digraph daf {")
    assert main(["query", "-k", kb_file("G1"), "-e", "fast",
                 "--dot", str(dot), "O q"]) == 2
    capsys.readouterr()


def test_query_on_empty_kb(tmp_path, capsys):
    empty = tmp_path / "empty.kb"
    empty.write_text("", encoding="utf-8")
    assert main(["query", "-k", str(empty), "--exit-status", "O p"]) == 1
    out = capsys.readouterr().out
    assert "|/-DAF O p" in out


def test_export_empty_kb(tmp_path, capsys):
    empty = tmp_path / "empty.kb"
    empty.write_text("", encoding="utf-8")
    out_json = tmp_path / "empty.json"
    dot = tmp_path / "empty.dot"
    assert main(["export", "-k", str(empty), "--json", str(out_json),
                 "--dot", str(dot)]) == 0
    record = json.loads(out_json.read_text(encoding="utf-8"))
    assert record["arguments"] == []
    assert record["attacks"] == []
    assert record["grounded"] == []


def _run_cli(args, tmp_path, seed):
    # The child runs in tmp_path, where a relative PYTHONPATH (such as
    # ``src``) resolves to nothing; hand it the root that holds the very
    # ``daf`` imported here (``src/`` or site-packages), then the inherited
    # entries made absolute.
    package_root = os.path.dirname(os.path.dirname(
        os.path.abspath(daf.__file__)))
    inherited = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    inherited = [os.path.abspath(entry) for entry in inherited if entry]
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = seed
    env["PYTHONPATH"] = os.pathsep.join([package_root, *inherited])
    return subprocess.run(
        [sys.executable, "-m", "daf.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(tmp_path),
    )


def test_exports_byte_identical_across_processes(kb_file, tmp_path):
    """Two runs under different hash seeds produce identical bytes."""
    path = kb_file("G3")
    outputs = []
    for seed in ("1", "271828"):
        dot = tmp_path / f"g3-{seed}.dot"
        dump = tmp_path / f"g3-{seed}.json"
        proc = _run_cli(
            ["export", "-k", path, "-s", "spec", "--dot", str(dot),
             "--json", str(dump)],
            tmp_path,
            seed,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append((dot.read_bytes(), dump.read_bytes()))
    assert outputs[0] == outputs[1]


def test_cli_query_subprocess(kb_file, tmp_path):
    proc = _run_cli(
        ["query", "-k", kb_file("G9"), "-s", "basic", "--exit-status",
         "O q"],
        tmp_path,
        "0",
    )
    assert proc.returncode == 0, proc.stderr
    assert "G |-DAF O q" in proc.stdout
