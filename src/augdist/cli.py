"""Batch command-line front end.

``augdist dist`` prints one distance between two DOT files; ``augdist
evaluate`` runs a rule set against a corpus and writes the applicability,
detection and timing reports as CSV.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import logging
import sys
from dataclasses import dataclass, fields
from functools import partial
from pathlib import Path
from typing import Callable

from . import exas, fallbacks, ged, mcs, node_similarity
from .dot import parse_aug
from .errors import CorpusLayoutError, InsufficientDataError
from .evaluation import (
    INCOMPUTABLE,
    READ_ERRORS,
    ApplicabilityVerdict,
    Dataset,
    DetectionReport,
    DistanceFn,
    TimingRow,
    distance_table,
    is_applicable,
    load_corpus,
    load_rules,
    read_input,
    score,
    timing_rows,
    timing_summary,
    write_applicability_csv,
    write_detection_csv,
    write_timing_csv,
)
from .graphs import AUG, CorrectionRule

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INCOMPUTABLE = 3


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs to build its distance function."""

    algorithm: str
    timeout: float = ged.DEFAULT_TIMEOUT
    lam: float = exas.DEFAULT_LAMBDA
    cosine_mode: str = exas.DEFAULT_COSINE_MODE
    tol: float = node_similarity.DEFAULT_TOL
    max_iter: int = node_similarity.DEFAULT_MAX_ITER
    exclude_self: bool = True
    workers: int = 1

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if not self.timeout > 0:
            raise ValueError("timeout must be positive")
        exas.check_cosine_options(self.lam, self.cosine_mode)
        node_similarity.check_options(self.tol, self.max_iter)
        if not isinstance(self.exclude_self, bool):
            raise ValueError("exclude_self must be True or False")
        # a bool is an int, but True is no worker count
        if type(self.workers) is not int or self.workers < 1:
            raise ValueError("workers must be an integer >= 1")


def _astar_ged(config: RunConfig) -> DistanceFn:
    dist = partial(ged.dist_ged_astar, timeout=config.timeout)
    dist.many_to_many = partial(ged.dist_ged_astar_many, timeout=config.timeout)
    return dist


def _node_sim(config: RunConfig) -> DistanceFn:
    options = {"tol": config.tol, "max_iter": config.max_iter}
    dist = partial(node_similarity.dist_node_sim, **options)
    dist.many_to_many = partial(node_similarity.dist_node_sim_many, **options)
    return dist


# Each algorithm binds its options to a two-graph callable. A binder looks its
# distance up through the module when it runs, so a rebound module attribute
# (a tracing wrapper, say) is the one called.
_BINDERS: dict[str, Callable[[RunConfig], DistanceFn]] = {
    "astar-ged": _astar_ged,
    "hungarian-ged": lambda config: ged.dist_ged_hungarian,
    "hungarian-mcs": lambda config: mcs.dist_mcs_hungarian,
    "node-sim": _node_sim,
    "exas-l1": lambda config: exas.dist_exas_l1,
    "exas-cosine": lambda config: partial(
        exas.dist_exas_cosine, lam=config.lam, mode=config.cosine_mode
    ),
    "exas-split-l1": lambda config: partial(exas.dist_exas_split, base="l1"),
    "exas-split-cosine": lambda config: partial(
        exas.dist_exas_split, base="cosine", lam=config.lam, mode=config.cosine_mode
    ),
}

ALGORITHMS = tuple(_BINDERS)


def build_distance(config: RunConfig) -> DistanceFn:
    """Bind the configured algorithm and its options to a two-graph callable.

    The astar-ged and node-sim callables also carry their many-to-many
    forms as ``many_to_many``, which ``distance_table`` calls once per rule
    with both rule sides as its references.
    """
    return _BINDERS[config.algorithm](config)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--algorithm",
        "-a",
        choices=ALGORITHMS,
        required=True,
        help="distance algorithm to run",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=RunConfig.timeout,
        help="per-pair deadline in seconds for the search-based distance (default %(default)g)",
    )
    parser.add_argument(
        "--lambda",
        dest="lam",
        type=float,
        default=RunConfig.lam,
        help="weight of the shared-feature term in the cosine distance (default %(default)g)",
    )
    parser.add_argument(
        "--cosine-mode",
        choices=exas.COSINE_MODES,
        default=RunConfig.cosine_mode,
        help="corrected keeps identical graphs at distance 0 (default %(default)s)",
    )
    parser.add_argument(
        "--tol",
        type=float,
        default=RunConfig.tol,
        help="convergence tolerance of the node-similarity iteration (default %(default)g)",
    )
    parser.add_argument(
        "--max-iter",
        type=int,
        default=RunConfig.max_iter,
        help="iteration cap of the node-similarity iteration, even (default %(default)d)",
    )


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """The run options the subcommand has flags for; ``RunConfig``'s defaults fill the rest."""
    names = (field.name for field in fields(RunConfig))
    return RunConfig(**{name: getattr(args, name) for name in names if hasattr(args, name)})


def _read_graph(path: Path) -> AUG | None:
    """The graph in a DOT file, or None once the reason it is unreadable is printed."""
    try:
        return parse_aug(read_input(path))
    except READ_ERRORS as exc:
        print(f"error: cannot read graph from {path}: {exc}", file=sys.stderr)
        return None


def cmd_dist(file_a: Path, file_b: Path, config: RunConfig) -> int:
    """Print the configured distance between two graphs to 6 decimal places."""
    if (a := _read_graph(file_a)) is None or (b := _read_graph(file_b)) is None:
        return EXIT_PARSE
    dist = build_distance(config)
    fallbacks.take()  # count this call's fallbacks only
    try:
        value = dist(a, b)
    except INCOMPUTABLE as exc:
        print(f"error: distance incomputable: {exc}", file=sys.stderr)
        return EXIT_INCOMPUTABLE
    for count, cause in zip(fallbacks.take(), fallbacks.CAUSES):
        if count:
            logger.warning(cause.warning)
    print(f"{value:.6f}")
    return EXIT_OK


# A rule's applicability verdict (None if unchecked), detection report (None
# unless applicable) and timing rows.
RuleResult = tuple[ApplicabilityVerdict | None, DetectionReport | None, list[TimingRow]]

# Per-process state of a pool worker, set by the pool initializer so the
# dataset crosses the process boundary once, not once per rule.
_WORKER_CONFIG: RunConfig | None = None
_WORKER_DATASET: Dataset | None = None


def _init_worker(config: RunConfig, dataset: Dataset) -> None:
    global _WORKER_CONFIG, _WORKER_DATASET
    _WORKER_CONFIG = config
    _WORKER_DATASET = dataset


def _evaluate_counted(
    rule: CorrectionRule, dataset: Dataset, config: RunConfig
) -> tuple[RuleResult, fallbacks.Counts]:
    """One rule's results and its fallbacks counts, as ``fallbacks.take()``."""
    return evaluate_rule(rule, dataset, config), fallbacks.take()


def _evaluate_in_worker(rule: CorrectionRule) -> tuple[RuleResult, fallbacks.Counts]:
    assert _WORKER_CONFIG is not None and _WORKER_DATASET is not None
    return _evaluate_counted(rule, _WORKER_DATASET, _WORKER_CONFIG)


def evaluate_rule(rule: CorrectionRule, dataset: Dataset, config: RunConfig) -> RuleResult:
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


def _write_failed(exc: OSError) -> int:
    print(f"error: cannot write reports: {exc}", file=sys.stderr)
    return EXIT_PARSE


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
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return _write_failed(exc)

    fallbacks.take()  # count this run's fallbacks only
    if (workers := min(config.workers, len(rules))) > 1:
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_worker,
            initargs=(config, dataset),
        ) as pool:
            outcomes = list(pool.map(_evaluate_in_worker, rules))
    else:
        outcomes = [_evaluate_counted(rule, dataset, config) for rule in rules]
    results = [result for result, _ in outcomes]
    totals = [sum(column) for column in zip(*(counts for _, counts in outcomes))]
    for total, cause in zip(totals, fallbacks.CAUSES):
        if total:
            logger.warning(cause.summary, total)

    verdicts = [verdict for verdict, _, _ in results if verdict is not None]
    reports = [report for _, report, _ in results if report is not None]
    timings = [row for _, _, rows in results for row in rows]

    try:
        write_applicability_csv(out_dir / "applicability.csv", verdicts)
        write_detection_csv(out_dir / "detection.csv", reports)
        write_timing_csv(out_dir / "timing.csv", timings)
    except OSError as exc:
        return _write_failed(exc)

    for algo, (mean, median) in timing_summary(timings).items():
        print(f"timing {algo}: mean {mean:.6f}s median {median:.6f}s")
    applicable = sum(1 for verdict in verdicts if verdict.applicable)
    print(f"applicable: {applicable}/{len(verdicts)}")
    return EXIT_OK


def cmd_features(file: Path) -> int:
    """Dump a graph's feature vector as sorted feature<TAB>count lines."""
    if (graph := _read_graph(file)) is None:
        return EXIT_PARSE
    for line in exas.feature_lines(exas.extract_features(graph)):
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
    eval_parser.add_argument(
        "--exclude-self",
        action=argparse.BooleanOptionalAction,
        default=RunConfig.exclude_self,
        help="drop the corpus entry sharing a rule's name from that rule's check",
    )
    eval_parser.add_argument(
        "--workers",
        type=int,
        default=RunConfig.workers,
        help="process count for evaluating rules in parallel (default %(default)d)",
    )

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
