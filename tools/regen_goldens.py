#!/usr/bin/env python3
"""Regenerate the committed golden CSVs from the bundled corpus, and the
report digests of the benchmark's seed-5 corpora.

Run from the repository root after an intentional behavior change:

    python3 tools/regen_goldens.py

Timing values differ run to run; the golden comparison ignores them.
"""

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from augdist.cli import ALGORITHMS, main  # noqa: E402
from corpus_digests import DIGESTS, WORKLOADS, workload_digests  # noqa: E402

CORPUS = ROOT / "tests" / "data" / "corpus"
GOLDEN = ROOT / "tests" / "data" / "golden"


def regenerate() -> None:
    for algorithm in ALGORITHMS:
        out_dir = GOLDEN / algorithm
        out_dir.mkdir(parents=True, exist_ok=True)
        code = main(
            [
                "evaluate",
                str(CORPUS / "rules"),
                str(CORPUS),
                "--algorithm",
                algorithm,
                "--out",
                str(out_dir),
            ]
        )
        if code != 0:
            raise SystemExit(f"evaluation failed for {algorithm} (exit {code})")
        print(f"regenerated {out_dir}")


def regenerate_corpus_digests() -> None:
    with tempfile.TemporaryDirectory() as work:
        digests = {workload: workload_digests(workload, Path(work)) for workload in WORKLOADS}
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"regenerated {DIGESTS}")


if __name__ == "__main__":
    regenerate()
    regenerate_corpus_digests()
