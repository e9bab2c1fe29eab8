#!/usr/bin/env python3
"""Time the exact search over one benchmark workload's whole table.

    python3 tools/search_probe.py --workload wide-corpus --seed 5

The corpus comes from ``bench/workloads.py``, which the tool only reads
(through ``tests/corpus_digests.py``), written to a temporary directory. Each
rule side is searched against each distinct entry search content once, at
the default deadline, as ``augdist evaluate`` does. Prints the pairs, the
distinct searches, their total, median, p95 and max seconds, and the share
that completed.
"""

import argparse
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from augdist import ged_astar, load_corpus, load_rules  # noqa: E402
from corpus_digests import bench_workloads  # noqa: E402


def main(argv: list[str] | None = None) -> None:
    workloads = bench_workloads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SHAPES))
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as work:
        corpus = Path(work)
        shape = workloads.SHAPES[args.workload]
        workloads.write_corpus(workloads.make_corpus(shape, args.seed, args.workload), corpus)
        sides = [side for rule in load_rules(corpus / "rules") for side in (rule.fix, rule.misuse)]
        dataset = load_corpus(corpus)
    entries = (*dataset.correct, *dataset.misuse)
    distinct = {(entry.search_tables.keys, entry.search_tables.edges): entry for entry in entries}
    seconds, complete = [], 0
    for side in sides:
        for entry in distinct.values():
            start = time.perf_counter()
            complete += ged_astar(side, entry).complete
            seconds.append(time.perf_counter() - start)
    seconds.sort()
    print(f"{args.workload} seed {args.seed}: {len(sides) * len(entries)} pairs, "
          f"{len(seconds)} distinct searches")
    print(f"seconds: total {sum(seconds):.2f}, median {statistics.median(seconds):.4f}, "
          f"p95 {seconds[min(len(seconds) - 1, int(0.95 * len(seconds)))]:.4f}, max {seconds[-1]:.4f}")
    print(f"complete: {complete / len(seconds):.3f}")


if __name__ == "__main__":
    main()
