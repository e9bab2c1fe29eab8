import time

import pytest

from augdist import (
    AUG,
    CorpusLayoutError,
    Dataset,
    DegenerateStructureError,
    EmptyGraphError,
    InsufficientDataError,
    distance_table,
    dist_ged_hungarian,
    is_applicable,
    load_corpus,
    load_rules,
    score,
    timing_rows,
    timing_summary,
)
from augdist.cli import RunConfig, build_distance
from augdist.ged import default_cost_model
from helpers import aug, rule
from oracles import brute_force_node_ged

FIX = aug(
    "fixg",
    [
        ("l", "List", "data", "java.util.List"),
        ("it", "List.iterator()", "action", "java.util.List"),
        ("i", "Iterator", "data", "java.util.Iterator"),
        ("hn", "Iterator.hasNext()", "action", "java.util.Iterator"),
        ("nx", "Iterator.next()", "action", "java.util.Iterator"),
    ],
    [
        ("l", "it", "recv"),
        ("it", "i", "def"),
        ("i", "hn", "recv"),
        ("i", "nx", "recv"),
        ("hn", "nx", "sel"),
    ],
)
MISUSE = aug(
    "misg",
    [
        ("l", "List", "data", "java.util.List"),
        ("it", "List.iterator()", "action", "java.util.List"),
        ("i", "Iterator", "data", "java.util.Iterator"),
        ("nx", "Iterator.next()", "action", "java.util.Iterator"),
    ],
    [("l", "it", "recv"), ("it", "i", "def"), ("i", "nx", "recv")],
)
RULE = rule("iter_rule", MISUSE, FIX, [(None, "hn")])


def _renamed(graph: AUG, name: str) -> AUG:
    return AUG(name, graph.nodes, graph.edges)


def _verdict(dataset, dist):
    return is_applicable(RULE, dataset, distance_table(RULE, dataset, dist))


def _score(checked_rule, dataset, dist):
    return score(checked_rule, dataset, distance_table(checked_rule, dataset, dist))


def _timing_rows(dataset, dist, algo):
    return timing_rows(RULE, dataset, distance_table(RULE, dataset, dist), algo)


class TestLoadRules:
    def test_unnamed_rule_and_its_sides_take_the_file_stem(self, tmp_path):
        rules_dir = tmp_path / "rules"
        rules_dir.mkdir()
        for stem in ("first", "second"):
            (rules_dir / f"{stem}.dot").write_text(
                "digraph {\n"
                '  m [label="A.m()", type="action", api="p.A", part="misuse"];\n'
                '  f [label="A.m()", type="action", api="p.A", part="fix"];\n'
                '  m -> f [label="transform"];\n'
                "}\n",
                encoding="utf-8",
            )
        names = [(r.name, r.misuse.name, r.fix.name) for r in load_rules(rules_dir)]
        assert names == [
            ("first", "first/misuse", "first/fix"),
            ("second", "second/misuse", "second/fix"),
        ]

    def test_rule_with_an_empty_side_skipped(self, tmp_path, caplog):
        rules_dir = tmp_path / "rules"
        rules_dir.mkdir()
        (rules_dir / "hollow.dot").write_text(
            'digraph "hollow" {\n'
            '  m [label="A.m()", type="action", api="p.A", part="misuse"];\n'
            '  e [label="", type="empty", part="fix"];\n'
            '  m -> e [label="transform"];\n'
            "}\n",
            encoding="utf-8",
        )
        (rules_dir / "kept.dot").write_text(
            'digraph "kept" {\n'
            '  m [label="A.m()", type="action", api="p.A", part="misuse"];\n'
            '  f [label="A.m()", type="action", api="p.A", part="fix"];\n'
            "}\n",
            encoding="utf-8",
        )
        assert [r.name for r in load_rules(rules_dir)] == ["kept"]
        (warning,) = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert warning.startswith("skipping rule") and "hollow" in warning

    def test_two_files_naming_one_rule_rejected(self, tmp_path):
        rules_dir = tmp_path / "rules"
        rules_dir.mkdir()
        for stem in ("a_first", "b_copy"):
            (rules_dir / f"{stem}.dot").write_text(
                'digraph "shared" {\n'
                '  m [label="A.m()", type="action", api="p.A", part="misuse"];\n'
                '  f [label="A.m()", type="action", api="p.A", part="fix"];\n'
                "}\n",
                encoding="utf-8",
            )
        with pytest.raises(
            CorpusLayoutError, match="a_first.dot and b_copy.dot both name the rule 'shared'"
        ):
            load_rules(rules_dir)

    @pytest.mark.parametrize("empty_side", ["misuse", "fix"])
    def test_unnamed_rule_with_an_empty_side_warned_by_file_stem(self, tmp_path, caplog, empty_side):
        kept = "fix" if empty_side == "misuse" else "misuse"
        (tmp_path / "x.dot").write_text(
            "digraph {\n"
            f'  a [label="A.m()", type="action", api="p.A", part="{kept}"];\n'
            f'  e [label="", type="empty", part="{empty_side}"];\n'
            '  a -> e [label="transform"];\n'
            "}\n",
            encoding="utf-8",
        )
        assert load_rules(tmp_path) == []
        (warning,) = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert warning == f"skipping rule file x.dot: graph 'x/{empty_side}' has no nodes"


def _write_entry(directory, name, graph_name=None):
    (directory / f"{name}.dot").write_text(
        f'digraph "{graph_name or name}" {{ n [label="A.m()", type="action", api="p.A"]; }}\n',
        encoding="utf-8",
    )


class TestLoadCorpus:
    @pytest.mark.parametrize("header", ["name", "name,label,note", "id,label", "name,label,label"])
    def test_manifest_without_exactly_name_and_label_rejected(self, tmp_path, header):
        (tmp_path / "labels.csv").write_text(f"{header}\n", encoding="utf-8")
        with pytest.raises(CorpusLayoutError, match="exactly the columns 'name' and 'label'"):
            load_corpus(tmp_path)

    def test_unknown_label_rejected_naming_the_entry(self, tmp_path):
        (tmp_path / "labels.csv").write_text(
            "name,label\nc1,correct\nm1,buggy\n", encoding="utf-8"
        )
        for name in ("c1", "m1"):
            _write_entry(tmp_path, name)
        with pytest.raises(CorpusLayoutError, match="entry 'm1' has unknown label 'buggy'"):
            load_corpus(tmp_path)

    def test_entry_takes_its_manifest_name(self, tmp_path):
        # both files name their graph "shared"; the manifest names tell them apart
        (tmp_path / "labels.csv").write_text(
            "name,label\nc1,correct\nm1,misuse\n", encoding="utf-8"
        )
        for name in ("c1", "m1"):
            _write_entry(tmp_path, name, graph_name="shared")
        dataset = load_corpus(tmp_path)
        assert [g.name for g in dataset.correct] == ["c1"]
        assert [g.name for g in dataset.misuse] == ["m1"]
        assert dataset.without("c1").correct == ()
        assert dataset.without("shared") == dataset

    def test_entry_without_nodes_skipped(self, tmp_path, caplog):
        (tmp_path / "labels.csv").write_text(
            "name,label\nhollow,correct\nc1,correct\nm1,misuse\n", encoding="utf-8"
        )
        (tmp_path / "hollow.dot").write_text('digraph "hollow" { }\n', encoding="utf-8")
        for name in ("c1", "m1"):
            (tmp_path / f"{name}.dot").write_text(
                f'digraph "{name}" {{ n [label="A.m()", type="action", api="p.A"]; }}\n',
                encoding="utf-8",
            )
        dataset = load_corpus(tmp_path)
        assert [g.name for g in dataset.correct] == ["c1"]
        assert [g.name for g in dataset.misuse] == ["m1"]
        (warning,) = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert warning.startswith("skipping corpus entry 'hollow'")


class TestDataset:
    def test_duplicate_names_rejected(self):
        g = aug("same", [("n", "A", "data", "")])
        with pytest.raises(ValueError, match="duplicate entry name"):
            Dataset((g,), (_renamed(g, "same"),))

    def test_without_removes_by_name(self):
        dataset = Dataset(
            (aug("keep", [("n", "A", "data", "")]),),
            (aug("drop", [("n", "A", "data", "")]),),
        )
        trimmed = dataset.without("drop")
        assert [g.name for g in trimmed.correct] == ["keep"]
        assert trimmed.misuse == ()


class TestQuadruple:
    """The four table cells one (correct, misuse) pair of entries reads."""

    def test_self_comparison_gives_zero_distances(self):
        table = distance_table(RULE, Dataset((FIX,), (MISUSE,)), dist_ged_hungarian)
        assert table[("fix", "fixg")].value == 0.0
        assert table[("misuse", "misg")].value == 0.0
        assert table[("fix", "misg")].value > 0.0
        assert len(table) == 4
        assert all(cell.value is not None for cell in table.values())
        assert all(cell.seconds >= 0.0 for cell in table.values())

    def test_incomputable_marker(self):
        def failing(a, b):
            raise DegenerateStructureError("collapsed")

        table = distance_table(RULE, Dataset((FIX,), (MISUSE,)), failing)
        assert len(table) == 4
        assert all(cell.value is None for cell in table.values())

    def test_empty_entry_rejected_with_name(self):
        # at construction, so no dataset, and no table, can hold one
        with pytest.raises(EmptyGraphError, match="graph 'hollow' has no nodes"):
            AUG("hollow", (), ())


class TestDistanceTable:
    def test_sides_sharing_a_name_are_keyed_by_role(self):
        twin_rule = rule("twins", _renamed(MISUSE, "same"), _renamed(FIX, "same"))
        table = distance_table(twin_rule, Dataset((FIX,), ()), dist_ged_hungarian)
        assert table[("fix", "fixg")].value == 0.0
        assert table[("misuse", "fixg")].value > 0.0


class TestApplicability:
    def test_rule_applicable_on_its_own_shapes(self):
        dataset = Dataset(
            tuple(_renamed(FIX, f"c{i}") for i in range(3)),
            tuple(_renamed(MISUSE, f"m{i}") for i in range(3)),
        )
        verdict = _verdict(dataset, dist_ged_hungarian)
        assert verdict.applicable
        assert verdict.mean_fix_to_correct == 0.0
        assert verdict.mean_misuse_to_misuse == 0.0
        assert verdict.mean_fix_to_misuse > 0.0
        assert verdict.mean_misuse_to_correct > 0.0
        # cross-check the two non-zero means against the node-mapping oracle
        cm = default_cost_model()
        expected = brute_force_node_ged(FIX, MISUSE, cm) / (
            max(FIX.node_count, MISUSE.node_count) * cm.mcost_n
        )
        assert verdict.mean_fix_to_misuse == pytest.approx(expected)

    def test_identical_partitions_never_applicable(self):
        entries = tuple(_renamed(FIX, f"c{i}") for i in range(2))
        mirrored = tuple(_renamed(FIX, f"m{i}") for i in range(2))
        verdict = _verdict(Dataset(entries, mirrored), dist_ged_hungarian)
        assert not verdict.fix_prefers_correct
        assert not verdict.misuse_prefers_misuse
        assert not verdict.applicable

    def test_empty_partition_raises(self):
        dataset = Dataset((FIX,), ())
        with pytest.raises(InsufficientDataError):
            _verdict(dataset, dist_ged_hungarian)

    def test_incomputable_entries_shrink_the_mean(self):
        calls = []

        def flaky(a, b):
            calls.append((a.name, b.name))
            if b.name == "c_bad":
                raise DegenerateStructureError("collapsed")
            return 0.25 if a.name == FIX.name else 0.5

        dataset = Dataset(
            (_renamed(FIX, "c_ok"), _renamed(FIX, "c_bad")),
            (_renamed(MISUSE, "m0"),),
        )
        verdict = _verdict(dataset, flaky)
        assert verdict.mean_fix_to_correct == 0.25
        assert verdict.mean_misuse_to_correct == 0.5

    def test_fully_incomputable_partition_raises(self):
        def dead(a, b):
            raise DegenerateStructureError("collapsed")

        dataset = Dataset((_renamed(FIX, "c0"),), (_renamed(MISUSE, "m0"),))
        with pytest.raises(InsufficientDataError):
            _verdict(dataset, dead)

    @pytest.mark.parametrize(
        "side, entry, context",
        [
            ("fix", "c0", "fix-vs-correct"),
            ("fix", "m0", "fix-vs-misuse"),
            ("misuse", "c0", "misuse-vs-correct"),
            ("misuse", "m0", "misuse-vs-misuse"),
        ],
    )
    def test_insufficient_data_names_the_mean(self, side, entry, context):
        reference = getattr(RULE, side)

        def dist(a, b):
            if a is reference and b.name == entry:
                raise DegenerateStructureError("collapsed")
            return 0.5

        dataset = Dataset((_renamed(FIX, "c0"),), (_renamed(MISUSE, "m0"),))
        message = f"^no computable entries for iter_rule/{context}$"
        with pytest.raises(InsufficientDataError, match=message):
            _verdict(dataset, dist)

    def test_mean_invariant_under_reordering(self):
        correct = tuple(_renamed(FIX, f"c{i}") for i in range(3))
        misuse = (
            _renamed(MISUSE, "m0"),
            _renamed(FIX, "m1"),
            _renamed(MISUSE, "m2"),
        )
        forward = _verdict(Dataset(correct, misuse), dist_ged_hungarian)
        backward = _verdict(Dataset(correct[::-1], misuse[::-1]), dist_ged_hungarian)
        assert forward == backward


class TestDetect:
    """Single-entry detector cases, read through ``score``."""

    def test_entry_matching_misuse_is_flagged(self):
        report = _score(RULE, Dataset((), (_renamed(MISUSE, "e"),)), dist_ged_hungarian)
        assert (report.tp, report.fn) == (1, 0)

    def test_entry_matching_fix_is_not_flagged(self):
        report = _score(RULE, Dataset((_renamed(FIX, "e"),), ()), dist_ged_hungarian)
        assert (report.fp, report.tn) == (0, 1)

    def test_tie_is_not_flagged(self):
        dataset = Dataset((_renamed(FIX, "c"),), (_renamed(MISUSE, "m"),))
        report = _score(RULE, dataset, lambda a, b: 0.5)
        assert (report.tp, report.fp, report.tn, report.fn) == (0, 0, 1, 1)
        assert report.skipped == 0


class TestScore:
    def _stub_dataset(self, tp, fp, tn, fn):
        flagged_misuse = tuple(
            aug(f"flag_m{i}", [("n", "A", "data", "")]) for i in range(tp)
        )
        quiet_misuse = tuple(
            aug(f"quiet_m{i}", [("n", "A", "data", "")]) for i in range(fn)
        )
        flagged_correct = tuple(
            aug(f"flag_c{i}", [("n", "A", "data", "")]) for i in range(fp)
        )
        quiet_correct = tuple(
            aug(f"quiet_c{i}", [("n", "A", "data", "")]) for i in range(tn)
        )
        return Dataset(flagged_correct + quiet_correct, flagged_misuse + quiet_misuse)

    @staticmethod
    def _stub_dist(reference, entry):
        # flagged entries are strictly closer to the misuse side; the rest tie
        if entry.name.startswith("flag_"):
            return 1.0 if reference.name.endswith("fix") else 0.0
        return 0.5

    def test_confusion_counts_first_published_row(self):
        scoring_rule = rule(
            "row_one",
            _renamed(MISUSE, "row_one/misuse"),
            _renamed(FIX, "row_one/fix"),
        )
        report = _score(scoring_rule, self._stub_dataset(3, 2, 377, 111), self._stub_dist)
        assert (report.tp, report.fp, report.tn, report.fn) == (3, 2, 377, 111)
        assert f"{report.precision * 100:.2f}" == "60.00"
        assert f"{report.recall * 100:.2f}" == "2.63"

    def test_confusion_counts_second_published_row(self):
        scoring_rule = rule(
            "row_two",
            _renamed(MISUSE, "row_two/misuse"),
            _renamed(FIX, "row_two/fix"),
        )
        report = _score(scoring_rule, self._stub_dataset(20, 94, 285, 94), self._stub_dist)
        assert (report.tp, report.fp, report.tn, report.fn) == (20, 94, 285, 94)
        assert f"{report.precision * 100:.2f}" == "17.54"
        assert f"{report.recall * 100:.2f}" == "17.54"

    def test_zero_flags_give_zero_ratios(self):
        scoring_rule = rule(
            "quiet",
            _renamed(MISUSE, "quiet/misuse"),
            _renamed(FIX, "quiet/fix"),
        )
        report = _score(scoring_rule, self._stub_dataset(0, 0, 5, 5), self._stub_dist)
        assert report.tp == report.fp == 0
        assert report.precision == 0.0
        assert report.recall == 0.0

    def test_report_algebra(self):
        dataset = self._stub_dataset(2, 1, 4, 3)
        report = _score(RULE, dataset, self._stub_dist)
        assert report.tp + report.fn == len(dataset.misuse)
        assert report.fp + report.tn == len(dataset.correct)

    def test_incomputable_entries_counted_as_skipped(self):
        def flaky(reference, entry):
            if entry.name == "quiet_c0":
                raise DegenerateStructureError("collapsed")
            return self._stub_dist(reference, entry)

        report = _score(RULE, self._stub_dataset(1, 1, 2, 1), flaky)
        assert report.skipped == 1
        assert report.tp + report.fp + report.tn + report.fn == 4


class TestQuadrupleWithRealAlgorithms:
    def test_search_quadruple_respects_four_times_the_pair_deadline(self):
        from augdist import dist_ged_astar
        from gen import random_aug
        import random

        rng = random.Random(5)
        big_c = random_aug(rng, "c", max_nodes=20, min_nodes=20, max_edges=40, min_edges=40)
        big_m = random_aug(rng, "m", max_nodes=20, min_nodes=20, max_edges=40, min_edges=40)
        deadline = 0.3
        dataset = Dataset((big_c,), (big_m,))
        table = distance_table(
            RULE, dataset, lambda a, b: dist_ged_astar(a, b, timeout=deadline)
        )
        assert all(cell.value is not None for cell in table.values())
        (row,) = timing_rows(RULE, dataset, table, "astar-ged")
        assert row.elapsed_seconds <= 4 * deadline + 1.0

    def test_node_similarity_on_edgeless_side_marks_incomputable(self):
        from augdist import dist_node_sim

        edgeless_misuse = aug("bare", [("n", "A", "data", "")])
        degenerate_rule = rule("degenerate", edgeless_misuse, FIX)
        # per pair, and in one call per rule through the CLI's callable
        for dist in (dist_node_sim, build_distance(RunConfig("node-sim"))):
            table = distance_table(degenerate_rule, Dataset((FIX,), (MISUSE,)), dist)
            assert table[("misuse", "fixg")].value is None
            assert table[("misuse", "misg")].value is None
            assert table[("fix", "misg")].value is not None


class TestManyToManyTable:
    """A distance with a many-to-many form fills the same table in one call
    per rule."""

    DATASET = Dataset(
        (FIX, _renamed(MISUSE, "c1"), aug("lone", [("n", "A", "data", "")])),
        (MISUSE, _renamed(FIX, "m1")),
    )
    # Entries and rule sides that share adjacencies under other labels: both
    # sides of SHARED_RULE are one path, as are "p1" and "p2"; "c1" and "m1"
    # are one graph, and the edgeless "lone2" is "lone" renamed.
    PATH = aug(
        "path",
        [("a", "A", "action"), ("b", "B", "data"), ("c", "C", "action")],
        [("a", "b", "def"), ("b", "c", "recv")],
    )
    SHARED_RULE = rule(
        "shared",
        PATH,
        aug(
            "path2",
            [("a", "X", "data"), ("b", "Y", "action"), ("c", "Z", "data")],
            [("a", "b", "order"), ("b", "c", "sel")],
        ),
    )
    LONE = aug("lone", [("n", "A", "data", "")])
    SHARED = Dataset(
        (_renamed(PATH, "p1"), _renamed(FIX, "c1"), LONE),
        (
            aug(
                "p2",
                [("a", "Q", "data"), ("b", "R", "data"), ("c", "S", "data")],
                [("a", "b", "def"), ("b", "c", "def")],
            ),
            _renamed(FIX, "m1"),
            _renamed(LONE, "lone2"),
        ),
    )

    def test_same_cells_as_the_per_pair_path(self):
        batched = build_distance(RunConfig("node-sim"))
        assert hasattr(batched, "many_to_many")
        for checked_rule, dataset in ((RULE, self.DATASET), (self.SHARED_RULE, self.SHARED)):
            table = distance_table(checked_rule, dataset, batched)
            per_pair = distance_table(checked_rule, dataset, lambda a, b: batched(a, b))
            assert {key: cell.value for key, cell in table.items()} == {
                key: cell.value for key, cell in per_pair.items()
            }
            assert table[("fix", "lone")].value is None
        assert table[("misuse", "lone2")].value is None

    def test_side_cells_share_the_batch_time(self):
        calls = []

        def dist(a, b):
            raise AssertionError("the per-pair form must not be called")

        def many_to_many(references, entries):
            start = time.perf_counter()
            calls.append(([a.name for a in references], [b.name for b in entries]))
            time.sleep(0.1)
            elapsed.append(time.perf_counter() - start)
            return [[0.5] * len(entries) for _ in references]

        elapsed = []
        dist.many_to_many = many_to_many
        table = distance_table(RULE, self.DATASET, dist)
        names = ["fixg", "c1", "lone", "misg", "m1"]
        assert calls == [(["fixg", "misg"], names)]  # one call per rule
        (seconds,) = {
            table[(side, name)].seconds for side in ("fix", "misuse") for name in names
        }
        # each cell's even share of the call, which the harness times around it
        assert elapsed[0] <= seconds * 2 * len(names) < 1.5 * elapsed[0]
        assert len(table) == 2 * len(names)
        rows = timing_rows(RULE, self.DATASET, table, "stub")
        per_pair_rows = _timing_rows(self.DATASET, lambda a, b: 0.5, "stub")
        assert [row[:2] for row in rows] == [row[:2] for row in per_pair_rows]


class TestBenchmark:
    """Timing rows derived from the table."""

    def test_instant_stub_has_near_zero_times(self):
        dataset = Dataset(
            tuple(_renamed(FIX, f"c{i}") for i in range(3)),
            tuple(_renamed(MISUSE, f"m{i}") for i in range(3)),
        )
        rows = _timing_rows(dataset, lambda a, b: 0.0, "stub")
        assert len(rows) == 3
        summary = timing_summary(rows)
        mean, median = summary["stub"]
        assert mean == pytest.approx(median, abs=0.05)
        assert mean < 0.05

    def test_long_tail_pulls_mean_above_median(self):
        dataset = Dataset(
            tuple(_renamed(FIX, f"c{i}") for i in range(20)),
            tuple(_renamed(MISUSE, f"m{i}") for i in range(20)),
        )
        slow_entries = {"c3", "c11"}

        def tailed(reference, entry):
            if entry.name in slow_entries:
                time.sleep(0.03)
            return 0.0

        rows = _timing_rows(dataset, tailed, "tailed")
        mean, median = timing_summary(rows)["tailed"]
        assert mean > median

    def test_row_shape(self):
        dataset = Dataset((FIX,), (MISUSE,))
        rows = _timing_rows(dataset, lambda a, b: 0.0, "stub")
        assert rows[0].algo == "stub"
        assert rows[0].rule_id == "iter_rule"
        assert rows[0].elapsed_seconds >= 0.0

    def test_row_is_the_sum_of_its_four_cells(self):
        dataset = Dataset((FIX, _renamed(FIX, "c1")), (MISUSE,))
        table = distance_table(RULE, dataset, dist_ged_hungarian)
        (row,) = timing_rows(RULE, dataset, table, "hungarian-ged")
        cells = [("fix", "fixg"), ("fix", "misg"), ("misuse", "fixg"), ("misuse", "misg")]
        assert row.elapsed_seconds == sum(table[key].seconds for key in cells)
