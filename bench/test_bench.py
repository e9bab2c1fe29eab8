"""Self-tests of the benchmark. Run from the repository root:

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src"), str(ROOT / "tests")]

import check  # noqa: E402
import workloads  # noqa: E402
from augdist.cli import main  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _files(directory: Path) -> dict[str, bytes]:
    return {p.relative_to(directory).as_posix(): p.read_bytes() for p in sorted(directory.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", sorted(workloads.SHAPES))
def test_same_seed_writes_identical_corpus(tmp_path, workload):
    for label, seed in (("a", 7), ("b", 7), ("c", 8)):
        workloads.write_corpus(workloads.make_corpus(workloads.SHAPES[workload], seed, workload), tmp_path / label)
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


def test_output_check_rejects_tampered_reports(tmp_path):
    corpus = tmp_path / "corpus"
    workloads.write_corpus(workloads.make_corpus(workloads.SHAPES["small-search"], 3, "small-search"), corpus)
    out = tmp_path / "out"
    assert main(["evaluate", str(corpus / "rules"), str(corpus), "-a", "exas-l1", "--out", str(out)]) == 0
    rules, dataset = check.load(corpus)
    expected = check.expected_reports(rules, dataset, check.distance_table(rules, dataset, "exas-l1"))
    assert check.compare_reports(out, expected) == []
    assert "true" in expected[0] and expected[1].count("\n") > 1  # some rule was scored

    for name in check.REPORTS:
        original = (out / name).read_text()
        lines = original.splitlines(keepends=True)
        lines[1] = lines[1][:-2] + ("1" if lines[1][-2] == "0" else "0") + "\n"
        (out / name).write_text("".join(lines))
        assert check.compare_reports(out, expected) == [name]
        (out / name).write_text(original)


def test_goldens_match_at_this_commit(tmp_path):
    assert check.check_goldens(ROOT, tmp_path) == []


def test_declared_metrics_have_valid_names_units_and_bounds():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = declared["end_to_end"] + declared["per_layer"]
    names = [metric["name"] for metric in metrics]
    assert len(names) == len(set(names))
    for metric in metrics:
        assert NAME.fullmatch(metric["name"]), metric
        assert UNIT.fullmatch(metric["unit"]), metric
    assert all(0 < metric["bound"] <= 0.25 for metric in declared["end_to_end"])


_TRACED_EVALUATE = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracing
import augdist.exas as exas
original = exas.extract_features
tracer = tracing.Tracer()
tracing.install(tracer)
if sys.argv[4] == "bypass":  # as if a refactor called around the wrapped function
    tracing.rebind(exas.extract_features, original)
from augdist.cli import main
corpus = sys.argv[3]
main(["evaluate", corpus + "/rules", corpus, "-a", "exas-l1", "--out", sys.argv[5]])
print(json.dumps(tracing.guard_failures("exas-l1", tracing.summary(tracer))))
"""


@pytest.mark.parametrize("mode", ["wrapped", "bypass"])
def test_trace_guard_catches_a_layer_routed_around_its_wrapper(tmp_path, mode):
    corpus = ROOT / "tests" / "data" / "corpus"
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_EVALUATE, str(BENCH), str(ROOT / "src"), str(corpus), mode, str(tmp_path)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    failures = json.loads(proc.stdout.strip().splitlines()[-1])
    if mode == "wrapped":
        assert failures == []
    else:
        assert failures == ["exas-l1: boundary exas.extract_features recorded no call"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "small-search", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
