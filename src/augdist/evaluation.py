"""Experimental harness: rule applicability, misuse detection, timing.

Each rule is evaluated from one distance table: both rule sides against
every corpus entry, each distance computed once per rule. A distance is
timed on its own, unless its function has a one-to-many form: then each rule
side is computed against all entries in one call, and each of its cells is
timed as an even share of that call. The three reports are derived from that
table. A rule is applicable when four strict inequalities between its mean
distances hold; as a detector it flags an entry that lies strictly closer to
the misuse side than to the fix side; and each positional (correct, misuse)
pair of entries gets one timing row, the sum of its four cells' seconds.
Pairs the distance function cannot handle shrink the respective denominators
instead of poisoning the means.
"""

from __future__ import annotations

import csv
import logging
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

from .dot import parse_aug, parse_rule
from .errors import (
    AugDistError,
    CorpusLayoutError,
    DegenerateStructureError,
    GedTimeoutError,
    InsufficientDataError,
)
from .graphs import AUG, CorrectionRule

logger = logging.getLogger(__name__)

DistanceFn = Callable[[AUG, AUG], float]
# The optional ``one_to_many`` attribute of a DistanceFn: the distances from
# one graph to each of many, None where a pair is incomputable.
OneToManyFn = Callable[[AUG, Sequence[AUG]], list[float | None]]

# Errors that make a single distance computation incomputable without
# invalidating the rest of the run.
_INCOMPUTABLE = (DegenerateStructureError, GedTimeoutError)

LABEL_CORRECT = "correct"
LABEL_MISUSE = "misuse"
SIDE_FIX = "fix"
SIDE_MISUSE = "misuse"


@dataclass(frozen=True)
class Dataset:
    """Corpus entries partitioned into correct usages and misuses."""

    correct: tuple[AUG, ...]
    misuse: tuple[AUG, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "correct", tuple(self.correct))
        object.__setattr__(self, "misuse", tuple(self.misuse))
        names: set[str] = set()
        for graph in (*self.correct, *self.misuse):
            if graph.name in names:
                raise ValueError(f"duplicate entry name {graph.name!r} in dataset")
            names.add(graph.name)

    def labeled(self) -> list[tuple[AUG, str]]:
        return [(graph, LABEL_CORRECT) for graph in self.correct] + [
            (graph, LABEL_MISUSE) for graph in self.misuse
        ]

    def without(self, name: str) -> "Dataset":
        """Copy of the dataset with any entry of the given name removed."""
        return Dataset(
            tuple(g for g in self.correct if g.name != name),
            tuple(g for g in self.misuse if g.name != name),
        )


@dataclass(frozen=True)
class ApplicabilityVerdict:
    """Mean-distance inequalities deciding whether a rule is usable."""

    rule_id: str
    mean_fix_to_correct: float
    mean_fix_to_misuse: float
    mean_misuse_to_correct: float
    mean_misuse_to_misuse: float
    fix_prefers_correct: bool
    misuse_prefers_misuse: bool
    fix_closer_to_correct: bool
    misuse_closer_to_misuse: bool

    @property
    def applicable(self) -> bool:
        return (
            self.fix_prefers_correct
            and self.misuse_prefers_misuse
            and self.fix_closer_to_correct
            and self.misuse_closer_to_misuse
        )


@dataclass(frozen=True)
class DetectionReport:
    """Confusion counts of one rule used as a misuse detector."""

    rule_id: str
    tp: int
    fp: int
    tn: int
    fn: int
    skipped: int = 0

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if self.tp + self.fp else 0.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if self.tp + self.fn else 0.0


class TimingRow(NamedTuple):
    algo: str
    rule_id: str
    elapsed_seconds: float


class Cell(NamedTuple):
    """One rule-side-vs-entry distance (None if incomputable) and its time."""

    value: float | None
    seconds: float


# Keyed by (side, entry name) with side SIDE_FIX or SIDE_MISUSE: the role,
# not the side graph's name, which both sides of a rule may share.
DistanceTable = dict[tuple[str, str], Cell]


def distance_table(
    rule: CorrectionRule, dataset: Dataset, dist: DistanceFn
) -> DistanceTable:
    """Compute and time each rule side against each entry, once.

    When ``dist`` has a one-to-many form (a ``one_to_many`` attribute, see
    ``OneToManyFn``), each rule side is computed against all entries in one
    call, and each cell's seconds are an even share of that call's time.
    Otherwise each cell is one timed ``dist`` call. The table's keys and
    values are the same either way.
    """
    sides = ((SIDE_FIX, rule.fix), (SIDE_MISUSE, rule.misuse))
    entries = (*dataset.correct, *dataset.misuse)
    for graph in (rule.fix, rule.misuse, *entries):
        graph.require_non_empty()
    table: DistanceTable = {}
    one_to_many: OneToManyFn | None = getattr(dist, "one_to_many", None)
    if one_to_many is not None:
        for side, reference in sides:
            start = time.perf_counter()
            values = one_to_many(reference, entries)
            share = (time.perf_counter() - start) / max(len(entries), 1)
            for entry, value in zip(entries, values, strict=True):
                if value is None:
                    logger.debug("%s/%s vs %r incomputable", rule.name, side, entry.name)
                table[(side, entry.name)] = Cell(value, share)
        return table
    for entry in entries:
        for side, reference in sides:
            start = time.perf_counter()
            try:
                value: float | None = dist(reference, entry)
            except _INCOMPUTABLE as exc:
                logger.debug(
                    "%s/%s vs %r incomputable: %s", rule.name, side, entry.name, exc
                )
                value = None
            table[(side, entry.name)] = Cell(value, time.perf_counter() - start)
    return table


def _mean(table: DistanceTable, side: str, entries: Iterable[AUG], context: str) -> float:
    values = [table[(side, entry.name)].value for entry in entries]
    computable = [value for value in values if value is not None]
    if not computable:
        raise InsufficientDataError(f"no computable entries for {context}")
    return sum(computable) / len(computable)


def is_applicable(
    rule: CorrectionRule, dataset: Dataset, table: DistanceTable
) -> ApplicabilityVerdict:
    """Evaluate the four strict mean-distance inequalities for one rule."""
    if not dataset.correct or not dataset.misuse:
        raise InsufficientDataError(
            f"rule {rule.name!r} needs both correct and misuse entries"
        )
    mean_fc = _mean(table, SIDE_FIX, dataset.correct, f"{rule.name}/fix-vs-correct")
    mean_fm = _mean(table, SIDE_FIX, dataset.misuse, f"{rule.name}/fix-vs-misuse")
    mean_mc = _mean(
        table, SIDE_MISUSE, dataset.correct, f"{rule.name}/misuse-vs-correct"
    )
    mean_mm = _mean(
        table, SIDE_MISUSE, dataset.misuse, f"{rule.name}/misuse-vs-misuse"
    )
    return ApplicabilityVerdict(
        rule_id=rule.name,
        mean_fix_to_correct=mean_fc,
        mean_fix_to_misuse=mean_fm,
        mean_misuse_to_correct=mean_mc,
        mean_misuse_to_misuse=mean_mm,
        fix_prefers_correct=mean_fc < mean_fm,
        misuse_prefers_misuse=mean_mc > mean_mm,
        fix_closer_to_correct=mean_fc < mean_mc,
        misuse_closer_to_misuse=mean_fm > mean_mm,
    )


def score(
    rule: CorrectionRule, dataset: Dataset, table: DistanceTable
) -> DetectionReport:
    """Use the rule as a detector over a labeled corpus and tally the counts.

    An entry is flagged when it is strictly closer to the misuse side; ties
    are conservatively not flagged. An entry with an incomputable distance
    to either side is counted as skipped.
    """
    tp = fp = tn = fn = skipped = 0
    for entry, label in dataset.labeled():
        to_fix = table[(SIDE_FIX, entry.name)].value
        to_misuse = table[(SIDE_MISUSE, entry.name)].value
        if to_fix is None or to_misuse is None:
            skipped += 1
            continue
        if to_fix > to_misuse:
            if label == LABEL_MISUSE:
                tp += 1
            else:
                fp += 1
        else:
            if label == LABEL_MISUSE:
                fn += 1
            else:
                tn += 1
    return DetectionReport(rule.name, tp=tp, fp=fp, tn=tn, fn=fn, skipped=skipped)


def timing_rows(
    rule: CorrectionRule, dataset: Dataset, table: DistanceTable, algo: str
) -> list[TimingRow]:
    """Elapsed seconds of every four-distance group: the sum of its cells.

    Correct and misuse entries are paired positionally (the corpus shape
    where each incident contributes one of each); the shorter partition
    bounds the number of groups.
    """
    rows = []
    for pair in zip(dataset.correct, dataset.misuse):
        seconds = sum(
            table[(side, entry.name)].seconds
            for side in (SIDE_FIX, SIDE_MISUSE)
            for entry in pair
        )
        rows.append(TimingRow(algo, rule.name, seconds))
    return rows


def timing_summary(rows: Iterable[TimingRow]) -> dict[str, tuple[float, float]]:
    """Mean and median elapsed seconds per algorithm."""
    by_algo: dict[str, list[float]] = {}
    for row in rows:
        by_algo.setdefault(row.algo, []).append(row.elapsed_seconds)
    return {
        algo: (statistics.mean(values), statistics.median(values))
        for algo, values in sorted(by_algo.items())
    }


# -- corpus loading ---------------------------------------------------------


def load_corpus(corpus_dir: Path) -> Dataset:
    """Read entries listed in ``labels.csv`` from a directory of DOT files.

    Entries that fail to parse, violate the schema, or are empty are skipped
    with a warning so one broken file cannot sink a whole run.
    """
    corpus_dir = Path(corpus_dir)
    manifest = corpus_dir / "labels.csv"
    if not manifest.is_file():
        raise CorpusLayoutError(f"missing manifest {manifest}")
    correct: list[AUG] = []
    misuse: list[AUG] = []
    with manifest.open(newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or set(reader.fieldnames) != {"name", "label"}:
            raise CorpusLayoutError(
                f"{manifest} must have exactly the columns 'name' and 'label'"
            )
        for row in reader:
            name, label = row["name"], row["label"]
            if label not in (LABEL_CORRECT, LABEL_MISUSE):
                raise CorpusLayoutError(
                    f"{manifest}: entry {name!r} has unknown label {label!r}"
                )
            path = corpus_dir / f"{name}.dot"
            try:
                graph = parse_aug(path.read_text(encoding="utf-8"))
            except (OSError, AugDistError, ValueError) as exc:
                logger.warning("skipping corpus entry %r: %s", name, exc)
                continue
            if graph.is_empty:
                logger.warning("skipping corpus entry %r: graph has no nodes", name)
                continue
            if graph.name != name:
                graph = AUG(name, graph.nodes, graph.edges)
            (correct if label == LABEL_CORRECT else misuse).append(graph)
    try:
        return Dataset(tuple(correct), tuple(misuse))
    except ValueError as exc:
        raise CorpusLayoutError(f"{manifest}: {exc}") from exc


def load_rules(rules_dir: Path) -> list[CorrectionRule]:
    """Read every rule DOT file in a directory, sorted by file name."""
    rules_dir = Path(rules_dir)
    if not rules_dir.is_dir():
        raise CorpusLayoutError(f"missing rules directory {rules_dir}")
    rules: list[CorrectionRule] = []
    for path in sorted(rules_dir.glob("*.dot")):
        try:
            rule = parse_rule(path.read_text(encoding="utf-8"))
        except (OSError, AugDistError, ValueError) as exc:
            logger.warning("skipping rule file %s: %s", path.name, exc)
            continue
        if not rule.name:
            rule = CorrectionRule(path.stem, rule.misuse, rule.fix, rule.mapping)
        if rule.misuse.is_empty or rule.fix.is_empty:
            logger.warning("skipping rule %r: empty member graph", rule.name)
            continue
        rules.append(rule)
    return rules


# -- CSV reports --------------------------------------------------------------


def _flag(value: bool) -> str:
    return "true" if value else "false"


def write_applicability_csv(path: Path, verdicts: Iterable[ApplicabilityVerdict]) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(
            [
                "rule_id",
                "mean_fix_to_correct",
                "mean_fix_to_misuse",
                "mean_misuse_to_correct",
                "mean_misuse_to_misuse",
                "fix_prefers_correct",
                "misuse_prefers_misuse",
                "fix_closer_to_correct",
                "misuse_closer_to_misuse",
                "applicable",
            ]
        )
        for verdict in verdicts:
            writer.writerow(
                [
                    verdict.rule_id,
                    f"{verdict.mean_fix_to_correct:.6f}",
                    f"{verdict.mean_fix_to_misuse:.6f}",
                    f"{verdict.mean_misuse_to_correct:.6f}",
                    f"{verdict.mean_misuse_to_misuse:.6f}",
                    _flag(verdict.fix_prefers_correct),
                    _flag(verdict.misuse_prefers_misuse),
                    _flag(verdict.fix_closer_to_correct),
                    _flag(verdict.misuse_closer_to_misuse),
                    _flag(verdict.applicable),
                ]
            )


def write_detection_csv(path: Path, reports: Iterable[DetectionReport]) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["rule_id", "fp", "tp", "fn", "tn", "precision", "recall"])
        for report in reports:
            writer.writerow(
                [
                    report.rule_id,
                    report.fp,
                    report.tp,
                    report.fn,
                    report.tn,
                    f"{report.precision * 100:.2f}",
                    f"{report.recall * 100:.2f}",
                ]
            )


def write_timing_csv(path: Path, rows: Iterable[TimingRow]) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["algo", "rule_id", "elapsed_seconds"])
        for row in rows:
            writer.writerow([row.algo, row.rule_id, f"{row.elapsed_seconds:.6f}"])
