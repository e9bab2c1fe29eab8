#!/usr/bin/env python3
"""Check that a corpus's DOT files stay on the statement reader, and time parsing.

    python3 tools/parse_probe.py CORPUS_DIR --repeats 15

Reads every ``*.dot`` file under CORPUS_DIR, rule files (those in a
``rules`` directory) included, with ``augdist``'s own input reader. Prints
the file count, how many files the statement reader reads and how many it
hands to the token walk, which is about three times slower (naming the
first few), and the parse time per file: the median of the repeats, each
parsing every file with the parser's caches cleared.
Files that fail to parse are counted and timed too.
"""

import argparse
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from augdist import dot  # noqa: E402
from augdist.evaluation import READ_ERRORS, read_input  # noqa: E402

_SHOWN = 5


def _parse_all(texts: list[tuple[Path, str]]) -> int:
    """Parse every text as augdist loads it; the number that failed."""
    failed = 0
    for path, text in texts:
        parse = dot.parse_rule if path.parent.name == "rules" else dot.parse_aug
        try:
            parse(text)
        except READ_ERRORS:
            failed += 1
    return failed


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("corpus", type=Path, help="directory searched for *.dot files")
    parser.add_argument("--repeats", type=int, default=15)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    paths = sorted(args.corpus.rglob("*.dot"))
    if not paths:
        parser.error(f"no *.dot files under {args.corpus}")
    texts = [(path, read_input(path)) for path in paths]
    walked = [path for path, text in texts if dot._read_statements(text) is None]
    caches = [f for f in vars(dot).values() if hasattr(f, "cache_clear")]
    seconds = []
    for _ in range(args.repeats):
        for cache in caches:
            cache.cache_clear()
        start = time.perf_counter()
        failed = _parse_all(texts)
        seconds.append(time.perf_counter() - start)
    print(f"{len(paths)} files ({failed} failed to parse)")
    print(f"statement reader: {len(paths) - len(walked)}, token walk: {len(walked)}")
    for path in walked[:_SHOWN]:
        print(f"  walked: {path.relative_to(args.corpus)}")
    if len(walked) > _SHOWN:
        print(f"  ... and {len(walked) - _SHOWN} more")
    per_file = statistics.median(seconds) / len(paths)
    print(f"parse: {per_file * 1e3:.4f} ms per file, median of {args.repeats}")


if __name__ == "__main__":
    main()
