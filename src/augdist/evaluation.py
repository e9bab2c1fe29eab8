"""Experimental harness: rule applicability, misuse detection, timing.

Each rule is evaluated from one distance table: both rule sides against
every corpus entry, each distance computed once per rule. A distance is
timed on its own, unless its function has a many-to-many form: then both rule
sides are computed against all entries in one call per rule, and each cell is
timed as an even share of that call. The three reports are derived from that
table. A rule is applicable when four strict inequalities between its mean
distances hold; as a detector it flags an entry that lies strictly closer to
the misuse side than to the fix side; and each positional (correct, misuse)
pair of entries gets one timing row, the sum of its four cells' seconds.
Pairs the distance function cannot handle shrink the respective denominators
instead of poisoning the means.
"""

from __future__ import annotations

import codecs
import csv
import io
import logging
import math
import statistics
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

from .dot import parse_aug, parse_rule
from .errors import (
    AugDistError,
    CorpusLayoutError,
    DegenerateStructureError,
    EmptyGraphError,
    InsufficientDataError,
)
from .graphs import AUG, CorrectionRule

logger = logging.getLogger(__name__)

DistanceFn = Callable[[AUG, AUG], float]
# The optional ``many_to_many`` attribute of a DistanceFn: one row per
# reference of its distances to each entry, None where a pair is incomputable.
ManyToManyFn = Callable[[Sequence[AUG], Sequence[AUG]], list[list[float | None]]]

# Errors that make a single distance computation incomputable without
# invalidating the rest of the run.
INCOMPUTABLE = (DegenerateStructureError,)
# Errors that make one input file unreadable, so that its reader skips or reports it.
READ_ERRORS = (OSError, AugDistError, ValueError)

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

    When ``dist`` has a many-to-many form (a ``many_to_many`` attribute, see
    ``ManyToManyFn``), both rule sides are computed against all entries in
    one call, and each cell's seconds are an even share of that call's time.
    Otherwise each cell is one timed ``dist`` call. The table's keys and
    values are the same either way.
    """
    sides = ((SIDE_FIX, rule.fix), (SIDE_MISUSE, rule.misuse))
    entries = (*dataset.correct, *dataset.misuse)
    table: DistanceTable = {}
    many_to_many: ManyToManyFn | None = getattr(dist, "many_to_many", None)
    if many_to_many is not None:
        start = time.perf_counter()
        rows = many_to_many([reference for _, reference in sides], entries)
        share = (time.perf_counter() - start) / max(2 * len(entries), 1)
        for (side, _), values in zip(sides, rows, strict=True):
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
            except INCOMPUTABLE as exc:
                logger.debug(
                    "%s/%s vs %r incomputable: %s", rule.name, side, entry.name, exc
                )
                value = None
            table[(side, entry.name)] = Cell(value, time.perf_counter() - start)
    return table


def is_applicable(
    rule: CorrectionRule, dataset: Dataset, table: DistanceTable
) -> ApplicabilityVerdict:
    """Evaluate the four strict mean-distance inequalities for one rule.

    Each mean skips the incomputable cells of its side and partition; one
    without any computable cell raises ``InsufficientDataError``.
    """
    if not dataset.correct or not dataset.misuse:
        raise InsufficientDataError(
            f"rule {rule.name!r} needs both correct and misuse entries"
        )
    means = []
    for side in (SIDE_FIX, SIDE_MISUSE):
        for label, entries in ((LABEL_CORRECT, dataset.correct), (LABEL_MISUSE, dataset.misuse)):
            values = [table[(side, entry.name)].value for entry in entries]
            computable = [value for value in values if value is not None]
            if not computable:
                raise InsufficientDataError(
                    f"no computable entries for {rule.name}/{side}-vs-{label}"
                )
            # a numpy mean would make numpy flags, which the CSV would not spell
            means.append(float(sum(computable) / len(computable)))
    fc, fm, mc, mm = means
    return ApplicabilityVerdict(rule.name, fc, fm, mc, mm, fc < fm, mc > mm, fc < mc, fm > mm)


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
        algo: (math.fsum(values) / len(values), statistics.median(values))
        for algo, values in sorted(by_algo.items())
    }


# -- corpus loading ---------------------------------------------------------


def read_input(path: Path) -> str:
    """The text of an input file, as text mode reads it with the ``utf-8-sig`` codec.

    That is strict UTF-8 past one leading byte order mark (which spreadsheet
    tools save), with a decoding error's offsets counted from after the
    mark, and CRLF and lone CR line breaks read as LF. Only a file cut off
    inside the mark differs: it is no UTF-8, where the codec read it as
    empty. Decoding the bytes directly loads no codec and wraps no text
    stream.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    if data.startswith(codecs.BOM_UTF8):
        data = data[len(codecs.BOM_UTF8):]
    text = data.decode("utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def load_corpus(corpus_dir: Path) -> Dataset:
    """Read entries listed in ``labels.csv`` from a directory of DOT files.

    Entries that fail to parse or violate the schema, a graph with no nodes
    included, are skipped with a warning so one broken file cannot sink a
    whole run. A manifest that is missing or cannot be read raises
    ``CorpusLayoutError``.
    """
    corpus_dir = Path(corpus_dir)
    manifest = corpus_dir / "labels.csv"
    if not manifest.is_file():
        raise CorpusLayoutError(f"missing manifest {manifest}")
    try:
        reader = csv.DictReader(io.StringIO(read_input(manifest)))
        columns, rows = reader.fieldnames, list(reader)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise CorpusLayoutError(f"cannot read {manifest}: {exc}") from exc
    if columns is None or sorted(columns) != ["label", "name"]:
        raise CorpusLayoutError(
            f"{manifest} must have exactly the columns 'name' and 'label'"
        )
    correct: list[AUG] = []
    misuse: list[AUG] = []
    for row in rows:
        name, label = row["name"], row["label"]
        if label not in (LABEL_CORRECT, LABEL_MISUSE):
            raise CorpusLayoutError(
                f"{manifest}: entry {name!r} has unknown label {label!r}"
            )
        path = corpus_dir / f"{name}.dot"
        try:
            graph = parse_aug(read_input(path))
        except READ_ERRORS as exc:
            logger.warning("skipping corpus entry %r: %s", name, exc)
            continue
        if graph.name != name:
            graph = AUG(name, graph.nodes, graph.edges)
        (correct if label == LABEL_CORRECT else misuse).append(graph)
    try:
        return Dataset(tuple(correct), tuple(misuse))
    except ValueError as exc:
        raise CorpusLayoutError(f"{manifest}: {exc}") from exc


def load_rules(rules_dir: Path) -> list[CorrectionRule]:
    """Read every rule DOT file in a directory, sorted by file name.

    The rule files are the entries whose names end in ``.dot``; one that
    cannot be read, such as a subdirectory, is skipped with a warning. A
    directory that cannot be listed raises ``CorpusLayoutError``.

    An unnamed rule, whose sides ``parse_rule`` names ``/misuse`` and
    ``/fix``, takes its file's stem as its name and as their prefix; a
    warning about a side with no nodes names the side that way too. Two
    files that name one rule raise ``CorpusLayoutError``, since the reports
    could not tell their rows apart.
    """
    rules_dir = Path(rules_dir)
    if not rules_dir.is_dir():
        raise CorpusLayoutError(f"missing rules directory {rules_dir}")
    try:
        paths = sorted(path for path in rules_dir.iterdir() if path.name.endswith(".dot"))
    except OSError as exc:
        raise CorpusLayoutError(f"cannot list {rules_dir}: {exc}") from exc
    rules: list[CorrectionRule] = []
    files: dict[str, Path] = {}  # rule name -> the file that named it
    for path in paths:
        try:
            rule = parse_rule(read_input(path))
        except READ_ERRORS as exc:
            if isinstance(exc, EmptyGraphError) and exc.name.startswith("/"):
                exc = EmptyGraphError(path.stem + exc.name)
            logger.warning("skipping rule file %s: %s", path.name, exc)
            continue
        if not rule.name:
            rule = replace(
                rule,
                name=path.stem,
                misuse=replace(rule.misuse, name=f"{path.stem}/misuse"),
                fix=replace(rule.fix, name=f"{path.stem}/fix"),
            )
        first = files.setdefault(rule.name, path)
        if first != path:
            raise CorpusLayoutError(
                f"{first.name} and {path.name} both name the rule {rule.name!r}"
            )
        rules.append(rule)
    return rules


# -- CSV reports --------------------------------------------------------------


def _field(value: object) -> object:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6f}"
    return value


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_field(value) for value in row] for row in rows)


_APPLICABILITY_COLUMNS = (*(f.name for f in fields(ApplicabilityVerdict)), "applicable")


def write_applicability_csv(path: Path, verdicts: Iterable[ApplicabilityVerdict]) -> None:
    rows = ([getattr(verdict, name) for name in _APPLICABILITY_COLUMNS] for verdict in verdicts)
    _write_csv(path, _APPLICABILITY_COLUMNS, rows)


def write_detection_csv(path: Path, reports: Iterable[DetectionReport]) -> None:
    header = ("rule_id", "fp", "tp", "fn", "tn", "precision", "recall")
    rows = (
        (r.rule_id, r.fp, r.tp, r.fn, r.tn, f"{r.precision * 100:.2f}", f"{r.recall * 100:.2f}")
        for r in reports
    )
    _write_csv(path, header, rows)


def write_timing_csv(path: Path, rows: Iterable[TimingRow]) -> None:
    _write_csv(path, TimingRow._fields, rows)
