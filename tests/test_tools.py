"""The probe tools under ``tools/`` run against the package they read.

Both tools reach into package internals (the DOT statement reader and its
caches, the search tables), so a rename there shows up here. Each tool is
loaded by path and its ``main`` called with an argument list.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "data" / "corpus"


def _tool(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_parse_probe_reads_the_bundled_corpus_with_the_statement_reader(capsys):
    _tool("parse_probe").main([str(CORPUS), "--repeats", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert "10 files (0 failed to parse)" in lines
    assert "statement reader: 10, token walk: 0" in lines


def test_search_probe_completes_the_small_search_table(capsys):
    _tool("search_probe").main(["--workload", "small-search", "--seed", "5"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "small-search seed 5: 240 pairs, 168 distinct searches"
    assert "complete: 1.000" in lines
