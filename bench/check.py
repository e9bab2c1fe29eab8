"""Output checks: golden reports, an independent recomputation of the
reports, and a sample of pair values against the brute-force oracles.

Everything here runs in the benchmark's own process, outside the timed
evaluate processes.
"""

from __future__ import annotations

import contextlib
import math
import random
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from augdist import DegenerateStructureError, GedTimeoutError, ged, load_corpus, load_rules
from augdist.cli import RunConfig, build_distance, main

INCOMPUTABLE = (GedTimeoutError, DegenerateStructureError)
GOLDEN_ALGORITHMS = ("hungarian-ged", "exas-l1")
REPORTS = ("applicability.csv", "detection.csv")


def _flag(value: bool) -> str:
    return "true" if value else "false"


@dataclass
class Table:
    """One distance per unique (rule side, entry) pair, or None if it failed."""

    values: dict[tuple[str, str], float | None] = field(default_factory=dict)
    incomplete: int = 0  # pairs whose search ended without a proven optimum

    @property
    def failed(self) -> int:
        return sum(value is None for value in self.values.values()) + self.incomplete


@contextlib.contextmanager
def _searches_watched(seen: list[bool]):
    """Mark ``seen[0]`` when a search inside a distance call ends incomplete."""
    original = ged.ged_astar

    def watched(*args, **kwargs):
        try:
            result = original(*args, **kwargs)
        except GedTimeoutError:
            seen[0] = True
            raise
        if not result.complete:
            seen[0] = True
        return result

    ged.ged_astar = watched
    try:
        yield
    finally:
        ged.ged_astar = original


def distance_table(rules, dataset, algorithm: str) -> Table:
    """Call the public distance once per unique pair the harness needs."""
    dist = build_distance(RunConfig(algorithm=algorithm))
    table = Table()
    seen = [False]
    with _searches_watched(seen):
        for rule in rules:
            for side in (rule.fix, rule.misuse):
                for entry in (*dataset.correct, *dataset.misuse):
                    key = (side.name, entry.name)
                    if key in table.values:
                        continue
                    seen[0] = False
                    try:
                        table.values[key] = dist(side, entry)
                    except INCOMPUTABLE:
                        table.values[key] = None
                        continue
                    table.incomplete += seen[0]
    return table


def expected_reports(rules, dataset, table: Table) -> tuple[str, str]:
    """The applicability and detection CSVs, derived from the table alone.

    A rule is checked on the entries not named like it; its four means skip
    failed cells, and a rule with an empty partition or mean is left out.
    Applicable rules are scored as detectors; an entry with a failed cell on
    either side is skipped.
    """
    applicability = [
        "rule_id,mean_fix_to_correct,mean_fix_to_misuse,mean_misuse_to_correct,"
        "mean_misuse_to_misuse,fix_prefers_correct,misuse_prefers_misuse,"
        "fix_closer_to_correct,misuse_closer_to_misuse,applicable"
    ]
    detection = ["rule_id,fp,tp,fn,tn,precision,recall"]
    for rule in rules:
        correct = [e for e in dataset.correct if e.name != rule.name]
        misuse = [e for e in dataset.misuse if e.name != rule.name]
        means = []
        for side in (rule.fix, rule.misuse):
            for entries in (correct, misuse):
                values = [table.values[(side.name, e.name)] for e in entries]
                values = [v for v in values if v is not None]
                means.append(sum(values) / len(values) if values else None)
        if not correct or not misuse or None in means:
            continue
        fc, fm, mc, mm = means
        flags = (fc < fm, mc > mm, fc < mc, fm > mm)
        applicable = all(flags)
        applicability.append(
            ",".join([rule.name, *(f"{m:.6f}" for m in means), *map(_flag, flags), _flag(applicable)])
        )
        if not applicable:
            continue
        counts = {"tp": 0, "fp": 0, "tn": 0, "fn": 0}
        for entries, is_misuse in ((correct, False), (misuse, True)):
            for entry in entries:
                to_fix = table.values[(rule.fix.name, entry.name)]
                to_misuse = table.values[(rule.misuse.name, entry.name)]
                if to_fix is None or to_misuse is None:
                    continue
                flagged = to_fix > to_misuse
                counts[("t" if flagged == is_misuse else "f") + ("p" if flagged else "n")] += 1
        tp, fp, fn = counts["tp"], counts["fp"], counts["fn"]
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        detection.append(
            f"{rule.name},{fp},{tp},{fn},{counts['tn']},{precision * 100:.2f},{recall * 100:.2f}"
        )
    return "\n".join(applicability) + "\n", "\n".join(detection) + "\n"


def compare_reports(out_dir: Path, expected: tuple[str, str]) -> list[str]:
    """Names of the reports in ``out_dir`` that differ from ``expected``."""
    return [
        name
        for name, text in zip(REPORTS, expected)
        if (out_dir / name).read_bytes() != text.encode("utf-8")
    ]


def check_goldens(root: Path, work: Path) -> list[str]:
    """Evaluate the bundled corpus and compare against the committed goldens."""
    corpus = root / "tests" / "data" / "corpus"
    problems = []
    with tempfile.TemporaryDirectory(dir=work) as scratch:
        for algorithm in GOLDEN_ALGORITHMS:
            out = Path(scratch) / algorithm
            with contextlib.redirect_stdout(None):
                code = main(
                    ["evaluate", str(corpus / "rules"), str(corpus), "-a", algorithm,
                     "--workers", "1", "--out", str(out)]
                )
            golden = root / "tests" / "data" / "golden" / algorithm
            if code != 0:
                problems.append(f"golden {algorithm}: exit {code}")
                continue
            for name in REPORTS:
                if (out / name).read_bytes() != (golden / name).read_bytes():
                    problems.append(f"golden {algorithm}: {name} differs")
    return problems


def _ged_oracle_distance(a, b) -> float:
    from oracles import brute_force_ged

    cm = ged.default_cost_model()
    denominator = max(a.node_count, b.node_count) * cm.mcost_n + max(a.edge_count, b.edge_count) * cm.mcost_e
    return min(1.0, brute_force_ged(a, b, cm) / denominator)


def _exas_oracle_distance(a, b) -> float:
    from oracles import oracle_exas_l1

    return oracle_exas_l1(a, b)


ORACLES = {"astar-ged": _ged_oracle_distance, "exas-l1": _exas_oracle_distance}


def check_oracle_sample(rules, dataset, algorithm: str, table: Table, seed: int, size: int) -> list[str]:
    """Compare ``size`` seeded pairs of the table with the brute-force oracle."""
    oracle = ORACLES[algorithm]
    by_name = {g.name: g for rule in rules for g in (rule.fix, rule.misuse)}
    by_name.update({g.name: g for g in (*dataset.correct, *dataset.misuse)})
    keys = sorted(key for key, value in table.values.items() if value is not None)
    problems = []
    for side, entry in random.Random(seed).sample(keys, min(size, len(keys))):
        want = oracle(by_name[side], by_name[entry])
        got = table.values[(side, entry)]
        if not math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12):
            problems.append(f"{algorithm} {side} vs {entry}: {got!r} != oracle {want!r}")
    return problems


def load(corpus_dir: Path):
    return load_rules(corpus_dir / "rules"), load_corpus(corpus_dir)
