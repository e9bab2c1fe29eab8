"""Batch command-line front end.

``augdist dist`` prints one distance between two DOT files; ``augdist
evaluate`` runs a rule set against a corpus and writes the applicability,
detection and timing reports as CSV. Every flag default can be overridden
through an ``AUGDIST_``-prefixed environment variable (e.g.
``AUGDIST_TIMEOUT=30``).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import logging
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from . import exas, fallbacks, ged, mcs, node_similarity
from .dot import parse_aug
from .errors import (
    CorpusLayoutError,
    DegenerateStructureError,
    DotSyntaxError,
    EmptyGraphError,
    GedTimeoutError,
    InsufficientDataError,
    SchemaError,
)
from .evaluation import (
    ApplicabilityVerdict,
    Dataset,
    DetectionReport,
    DistanceFn,
    TimingRow,
    distance_table,
    is_applicable,
    load_corpus,
    load_rules,
    score,
    timing_rows,
    timing_summary,
    write_applicability_csv,
    write_detection_csv,
    write_timing_csv,
)
from .graphs import CorrectionRule

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INCOMPUTABLE = 3

ALGORITHMS = (
    "astar-ged",
    "hungarian-ged",
    "hungarian-mcs",
    "node-sim",
    "exas-l1",
    "exas-cosine",
    "exas-split-l1",
    "exas-split-cosine",
)

COSINE_MODES = ("corrected", "literal")

# How each fallbacks count is logged: one summary line per `evaluate` run,
# and one line for a `dist` call, in the order of fallbacks.take().
_FALLBACK_SUMMARIES = (
    "%d distance values clamped to 1.0",
    "%d similarity iterations stopped at max-iter without converging",
    "%d exact searches found no complete edit path in time; distance set to 1.0",
)
_FALLBACK_WARNINGS = (
    "distance value clamped to 1.0",
    "similarity iteration stopped at max-iter without converging",
    "no complete edit path within the timeout; distance set to 1.0",
)


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs to build its distance function."""

    algorithm: str
    timeout: float = 15.0
    lam: float = 0.5
    cosine_mode: str = "corrected"
    tol: float = 1e-4
    max_iter: int = 100
    exclude_self: bool = True
    workers: int = 1

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.cosine_mode not in COSINE_MODES:
            raise ValueError(f"unknown cosine mode {self.cosine_mode!r}")
        if not self.timeout > 0:
            raise ValueError("timeout must be positive")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("lambda must be within [0, 1]")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 2 or self.max_iter % 2:
            raise ValueError("max-iter must be an even number >= 2")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


def build_distance(config: RunConfig) -> DistanceFn:
    """Bind the configured algorithm and its options to a two-graph callable."""
    if config.algorithm == "astar-ged":
        return lambda a, b: ged.dist_ged_astar(a, b, timeout=config.timeout)
    if config.algorithm == "hungarian-ged":
        return ged.dist_ged_hungarian
    if config.algorithm == "hungarian-mcs":
        return mcs.dist_mcs_hungarian
    if config.algorithm == "node-sim":
        return lambda a, b: node_similarity.dist_node_sim(
            a, b, tol=config.tol, max_iter=config.max_iter
        )
    if config.algorithm == "exas-l1":
        return exas.dist_exas_l1
    if config.algorithm == "exas-cosine":
        return lambda a, b: exas.dist_exas_cosine(
            a, b, lam=config.lam, mode=config.cosine_mode
        )
    if config.algorithm == "exas-split-l1":
        return lambda a, b: exas.dist_exas_split(a, b, base="l1")
    if config.algorithm == "exas-split-cosine":
        return lambda a, b: exas.dist_exas_split(
            a, b, base="cosine", lam=config.lam, mode=config.cosine_mode
        )
    raise ValueError(f"unknown algorithm {config.algorithm!r}")


def _env_default(name: str, fallback, cast):
    raw = os.environ.get(f"AUGDIST_{name}")
    if raw is None:
        return fallback
    try:
        return cast(raw)
    except ValueError:
        logger.warning("ignoring malformed AUGDIST_%s=%r", name, raw)
        return fallback


def _env_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(raw)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    env_algorithm = _env_default("ALGORITHM", None, str)
    parser.add_argument(
        "--algorithm",
        "-a",
        choices=ALGORITHMS,
        default=env_algorithm,
        required=env_algorithm is None,
        help="distance algorithm to run",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=_env_default("TIMEOUT", 15.0, float),
        help="per-pair deadline in seconds for the search-based distance (default 15)",
    )
    parser.add_argument(
        "--lambda",
        dest="lam",
        type=float,
        default=_env_default("LAMBDA", 0.5, float),
        help="weight of the shared-feature term in the cosine distance (default 0.5)",
    )
    parser.add_argument(
        "--cosine-mode",
        choices=COSINE_MODES,
        default=_env_default("COSINE_MODE", "corrected", str),
        help="corrected keeps identical graphs at distance 0 (default corrected)",
    )
    parser.add_argument(
        "--tol",
        type=float,
        default=_env_default("TOL", 1e-4, float),
        help="convergence tolerance of the node-similarity iteration (default 1e-4)",
    )
    parser.add_argument(
        "--max-iter",
        type=int,
        default=_env_default("MAX_ITER", 100, int),
        help="iteration cap of the node-similarity iteration, even (default 100)",
    )
    parser.add_argument(
        "--exclude-self",
        action=argparse.BooleanOptionalAction,
        default=_env_default("EXCLUDE_SELF", True, _env_bool),
        help="drop the corpus entry sharing a rule's name from that rule's check",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=_env_default("WORKERS", 1, int),
        help="process count for evaluating rules in parallel (default 1)",
    )


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        algorithm=args.algorithm,
        timeout=args.timeout,
        lam=args.lam,
        cosine_mode=args.cosine_mode,
        tol=args.tol,
        max_iter=args.max_iter,
        exclude_self=args.exclude_self,
        workers=args.workers,
    )


def cmd_dist(file_a: Path, file_b: Path, config: RunConfig) -> int:
    """Print the configured distance between two graphs to 6 decimal places."""
    graphs = []
    for path in (file_a, file_b):
        try:
            graphs.append(parse_aug(Path(path).read_text(encoding="utf-8")))
        except (OSError, DotSyntaxError, SchemaError, ValueError) as exc:
            print(f"error: cannot read graph from {path}: {exc}", file=sys.stderr)
            return EXIT_PARSE
    dist = build_distance(config)
    fallbacks.take()  # count this call's fallbacks only
    try:
        value = dist(graphs[0], graphs[1])
    except (EmptyGraphError, DegenerateStructureError, GedTimeoutError) as exc:
        print(f"error: distance incomputable: {exc}", file=sys.stderr)
        return EXIT_INCOMPUTABLE
    for count, message in zip(fallbacks.take(), _FALLBACK_WARNINGS):
        if count:
            logger.warning(message)
    print(f"{value:.6f}")
    return EXIT_OK


# Per-process state for the worker pool; rebuilt by the initializer so only
# picklable values cross process boundaries.
_WORKER_CONFIG: RunConfig | None = None
_WORKER_DATASET: Dataset | None = None


def _init_worker(config: RunConfig, dataset: Dataset) -> None:
    global _WORKER_CONFIG, _WORKER_DATASET
    _WORKER_CONFIG = config
    _WORKER_DATASET = dataset


def _evaluate_rule(
    rule: CorrectionRule,
) -> tuple[
    tuple[ApplicabilityVerdict | None, DetectionReport | None, list[TimingRow]],
    tuple[int, int, int],
]:
    """One rule's results and its fallbacks counts, as ``fallbacks.take()``."""
    assert _WORKER_CONFIG is not None and _WORKER_DATASET is not None
    result = evaluate_rule(rule, _WORKER_DATASET, _WORKER_CONFIG)
    return result, fallbacks.take()


def evaluate_rule(
    rule: CorrectionRule, dataset: Dataset, config: RunConfig
) -> tuple[ApplicabilityVerdict | None, DetectionReport | None, list[TimingRow]]:
    """Applicability verdict, detection report (if applicable) and timings.

    The verdict is None when the rule cannot be checked on this corpus.
    Detection is scored only for applicable rules, mirroring how usable
    rules are the ones carried forward to a detection corpus. All three
    are derived from one distance table, so each distance is computed once.
    """
    dist = build_distance(config)
    scoped = dataset.without(rule.name) if config.exclude_self else dataset
    table = distance_table(rule, scoped, dist)
    timings = timing_rows(rule, scoped, table, config.algorithm)
    try:
        verdict = is_applicable(rule, scoped, table)
    except InsufficientDataError as exc:
        logger.warning("rule %r not checked: %s", rule.name, exc)
        return None, None, timings
    report = score(rule, scoped, table) if verdict.applicable else None
    return verdict, report, timings


def cmd_evaluate(
    rules_dir: Path, corpus_dir: Path, config: RunConfig, out_dir: Path
) -> int:
    """Evaluate every rule and write the three CSV reports."""
    try:
        rules = load_rules(Path(rules_dir))
        dataset = load_corpus(Path(corpus_dir))
    except CorpusLayoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE

    results: list[
        tuple[ApplicabilityVerdict | None, DetectionReport | None, list[TimingRow]]
    ]
    fallbacks.take()  # count this run's fallbacks only
    if config.workers > 1 and len(rules) > 1:
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=config.workers,
            initializer=_init_worker,
            initargs=(config, dataset),
        ) as pool:
            outcomes = list(pool.map(_evaluate_rule, rules))
        results = [result for result, _ in outcomes]
        totals = [sum(column) for column in zip(*(counts for _, counts in outcomes))]
    else:
        results = [evaluate_rule(rule, dataset, config) for rule in rules]
        totals = fallbacks.take()
    for total, summary in zip(totals, _FALLBACK_SUMMARIES):
        if total:
            logger.warning(summary, total)

    verdicts = [verdict for verdict, _, _ in results if verdict is not None]
    reports = [report for _, report, _ in results if report is not None]
    timings = [row for _, _, rows in results for row in rows]

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_applicability_csv(out_dir / "applicability.csv", verdicts)
    write_detection_csv(out_dir / "detection.csv", reports)
    write_timing_csv(out_dir / "timing.csv", timings)

    for algo, (mean, median) in timing_summary(timings).items():
        print(f"timing {algo}: mean {mean:.6f}s median {median:.6f}s")
    applicable = sum(1 for verdict in verdicts if verdict.applicable)
    print(f"applicable: {applicable}/{len(verdicts)}")
    return EXIT_OK


def cmd_features(file: Path) -> int:
    """Dump a graph's feature vector as sorted feature<TAB>count lines."""
    try:
        graph = parse_aug(Path(file).read_text(encoding="utf-8"))
    except (OSError, DotSyntaxError, SchemaError, ValueError) as exc:
        print(f"error: cannot read graph from {file}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        vector = exas.extract_features(graph)
    except EmptyGraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCOMPUTABLE
    for line in exas.feature_lines(vector):
        print(line)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="augdist",
        description="Distance algorithms and evaluation harness for API usage graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    dist_parser = sub.add_parser("dist", help="distance between two DOT graphs")
    dist_parser.add_argument("file_a", type=Path)
    dist_parser.add_argument("file_b", type=Path)
    _add_config_flags(dist_parser)

    eval_parser = sub.add_parser(
        "evaluate", help="check rules against a corpus and write CSV reports"
    )
    eval_parser.add_argument("rules_dir", type=Path)
    eval_parser.add_argument("corpus_dir", type=Path)
    eval_parser.add_argument(
        "--out", "-o", type=Path, default=Path("."), help="report output directory"
    )
    _add_config_flags(eval_parser)

    features_parser = sub.add_parser(
        "features", help="dump a graph's feature vector for debugging"
    )
    features_parser.add_argument("file", type=Path)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(name)s: %(message)s"
    )
    args = _build_parser().parse_args(argv)
    if args.command == "features":
        return cmd_features(args.file)
    try:
        config = _config_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    if args.command == "dist":
        return cmd_dist(args.file_a, args.file_b, config)
    if args.command == "evaluate":
        return cmd_evaluate(args.rules_dir, args.corpus_dir, config, args.out)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
