"""Digests of the reports ``augdist evaluate`` writes for the benchmark's
seed-5 corpora, shared by ``test_corpus_digests.py`` and
``tools/regen_goldens.py``; ``write_seed_corpus`` also gives other tests
those corpora.

The corpora come from ``bench/workloads.py``, which imports nothing from
``augdist`` or the tests. This module only reads that file: it loads it
under a name of its own and writes every corpus and report outside
``bench/``.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import logging
import sys
from pathlib import Path

from augdist import fallbacks
from augdist.cli import ALGORITHMS, main

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "tests" / "data" / "golden" / "corpus_digests.json"
REGENERATE = "python3 tools/regen_goldens.py"
SEED = 5
WORKLOADS = ("many-rules", "small-search", "wide-corpus")
REPORTS = ("applicability.csv", "detection.csv")


def bench_workloads():
    """``bench/workloads.py``, loaded under a name of its own."""
    spec = importlib.util.spec_from_file_location(
        "_bench_workloads", ROOT / "bench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


class _FallbackTotals(logging.Handler):
    """The count of each fallback cause that a run's summary warnings name."""

    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.counts = [0] * len(fallbacks.CAUSES)

    def emit(self, record: logging.LogRecord) -> None:
        for index, cause in enumerate(fallbacks.CAUSES):
            if record.msg == cause.summary:
                self.counts[index] = record.args[0]


def write_seed_corpus(workload: str, directory: Path) -> Path:
    """Write ``workload``'s seed-5 corpus to ``directory / workload`` and return that path."""
    workloads = bench_workloads()
    corpus = directory / workload
    workloads.write_corpus(
        workloads.make_corpus(workloads.SHAPES[workload], SEED, workload), corpus
    )
    return corpus


def workload_digests(workload: str, directory: Path) -> dict[str, dict[str, object]]:
    """For each algorithm run on ``workload``'s seed-5 corpus, the SHA-256 of
    each report in ``REPORTS`` and the run's fallback counts, in the order of
    ``fallbacks.CAUSES``. The corpus and reports are written under
    ``directory``."""
    corpus = write_seed_corpus(workload, directory)
    cli_logger = logging.getLogger("augdist.cli")
    digests: dict[str, dict[str, object]] = {}
    for algorithm in ALGORITHMS:
        out = directory / f"{workload}-{algorithm}"
        totals = _FallbackTotals()
        cli_logger.addHandler(totals)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(
                    ["evaluate", str(corpus / "rules"), str(corpus), "-a", algorithm, "-o", str(out)]
                )
        finally:
            cli_logger.removeHandler(totals)
        if code != 0:
            raise RuntimeError(f"evaluate {workload} -a {algorithm} exited {code}")
        digests[algorithm] = {
            **{name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in REPORTS},
            "fallbacks": totals.counts,
        }
    return digests
