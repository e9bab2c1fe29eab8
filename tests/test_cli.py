import csv
import shutil
from pathlib import Path

import pytest

import augdist.cli as cli
from augdist import exas, ged, mcs, node_similarity
from augdist import load_corpus, load_rules, parse_aug, parse_rule
from augdist.cli import ALGORITHMS, EXIT_INCOMPUTABLE, EXIT_PARSE, RunConfig, build_distance, main
from augdist.ged import default_cost_model, normalization_denominator
from oracles import brute_force_ged, brute_force_node_ged, oracle_exas_l1

DATA = Path(__file__).parent / "data"
CORPUS = DATA / "corpus"
GOLDEN = DATA / "golden"

SINGLE = 'digraph "g" { n [label="A.m()", type="action", api="p.A"]; }\n'
RELABELED = 'digraph "h" { n [label="A.n()", type="action", api="p.A"]; }\n'
EDGELESS_PAIR = (
    'digraph "e" { a [label="A", type="data", api="p.A"];'
    ' b [label="B", type="data", api="p.B"]; }\n'
)


def _write(tmp_path: Path, name: str, text: str) -> Path:
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestRunConfig:
    def test_defaults(self):
        config = RunConfig(algorithm="astar-ged")
        assert config.timeout == 15.0
        assert config.lam == 0.5
        assert config.cosine_mode == "corrected"
        assert config.tol == 1e-4
        assert config.max_iter == 100
        assert config.exclude_self is True
        assert config.workers == 1

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ValueError):
            RunConfig(algorithm="levenshtein")

    def test_rejects_unknown_cosine_mode(self):
        with pytest.raises(ValueError):
            RunConfig(algorithm="exas-cosine", cosine_mode="fancy")

    @pytest.mark.parametrize(
        "overrides",
        [
            {"timeout": 0.0},
            {"lam": 1.5},
            {"tol": -1.0},
            {"max_iter": 7},
            {"max_iter": 0},
            {"workers": 0},
        ],
    )
    def test_rejects_out_of_domain_options(self, overrides):
        with pytest.raises(ValueError):
            RunConfig(algorithm="node-sim", **overrides)

    def test_bad_option_exits_2_from_cli(self, tmp_path, capsys):
        a = _write(tmp_path, "a.dot", SINGLE)
        code = main(["dist", str(a), str(a), "-a", "node-sim", "--max-iter", "7"])
        assert code == EXIT_PARSE
        assert "max-iter" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "option", [("node-sim", "--tol", "tol"), ("astar-ged", "--timeout", "timeout")]
    )
    def test_nan_option_exits_2_from_cli(self, tmp_path, capsys, option):
        algorithm, flag, name = option
        a = _write(tmp_path, "a.dot", SINGLE)
        assert main(["dist", str(a), str(a), "-a", algorithm, flag, "nan"]) == EXIT_PARSE
        assert f"{name} must be positive" in capsys.readouterr().err

    def test_flags_left_out_give_the_config_defaults(self, monkeypatch):
        # options come from flags only; environment variables are not read
        for name, value in (("LAMBDA", "0.3"), ("EXCLUDE_SELF", "0"), ("WORKERS", "2")):
            monkeypatch.setenv(f"AUGDIST_{name}", value)
        args = cli._build_parser().parse_args(["dist", "a.dot", "b.dot", "-a", "node-sim"])
        assert cli._config_from_args(args) == RunConfig(algorithm="node-sim")

    # the module-level function each algorithm's callable must reach
    MODULE_DISTANCES = {
        "astar-ged": (ged, "dist_ged_astar"),
        "hungarian-ged": (ged, "dist_ged_hungarian"),
        "hungarian-mcs": (mcs, "dist_mcs_hungarian"),
        "node-sim": (node_similarity, "dist_node_sim"),
        "exas-l1": (exas, "dist_exas_l1"),
        "exas-cosine": (exas, "dist_exas_cosine"),
        "exas-split-l1": (exas, "dist_exas_split"),
        "exas-split-cosine": (exas, "dist_exas_split"),
    }

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_distance_is_looked_up_through_its_module(self, monkeypatch, algorithm):
        # a tracer rebinds module attributes; the built callable must use them
        module, name = self.MODULE_DISTANCES[algorithm]
        calls = []

        def counting(a, b, **options):
            calls.append((a, b))
            return 0.25

        monkeypatch.setattr(module, name, counting)
        graph = parse_aug(SINGLE)
        dist = build_distance(RunConfig(algorithm=algorithm))
        assert dist(graph, graph) == 0.25
        assert calls == [(graph, graph)]

    def test_node_sim_one_to_many_is_looked_up_through_its_module(self, monkeypatch):
        calls = []

        def counting(a, others, **options):
            calls.append((a, list(others)))
            return [0.25] * len(others)

        monkeypatch.setattr(node_similarity, "dist_node_sim_many", counting)
        graph = parse_aug(SINGLE)
        dist = build_distance(RunConfig(algorithm="node-sim"))
        assert dist.one_to_many(graph, [graph, graph]) == [0.25, 0.25]
        assert calls == [(graph, [graph, graph])]

    def test_every_algorithm_builds_a_callable(self):
        graph = parse_aug(SINGLE)
        for name in ALGORITHMS:
            dist = build_distance(RunConfig(algorithm=name))
            assert callable(dist)
            if name != "node-sim":  # a single edgeless node is degenerate there
                assert dist(graph, graph) == 0.0


class TestCmdDist:
    def test_identical_files_print_zero(self, tmp_path, capsys):
        a = _write(tmp_path, "a.dot", SINGLE)
        b = _write(tmp_path, "b.dot", SINGLE)
        assert main(["dist", str(a), str(b), "-a", "hungarian-ged"]) == 0
        assert capsys.readouterr().out.strip() == "0.000000"

    def test_relabel_fixture_prints_half(self, tmp_path, capsys):
        a = _write(tmp_path, "a.dot", SINGLE)
        b = _write(tmp_path, "b.dot", RELABELED)
        assert main(["dist", str(a), str(b), "-a", "astar-ged"]) == 0
        assert capsys.readouterr().out.strip() == "0.500000"
        assert main(["dist", str(a), str(b), "-a", "hungarian-ged"]) == 0
        assert capsys.readouterr().out.strip() == "0.500000"

    def test_malformed_dot_exits_2_and_names_file(self, tmp_path, capsys):
        a = _write(tmp_path, "broken.dot", "this is not dot")
        b = _write(tmp_path, "b.dot", SINGLE)
        assert main(["dist", str(a), str(b), "-a", "exas-l1"]) == EXIT_PARSE
        assert "broken.dot" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        b = _write(tmp_path, "b.dot", SINGLE)
        assert main(["dist", str(tmp_path / "nope.dot"), str(b), "-a", "exas-l1"]) == EXIT_PARSE

    def test_incomputable_exits_3(self, tmp_path, capsys):
        a = _write(tmp_path, "a.dot", EDGELESS_PAIR)
        b = _write(tmp_path, "b.dot", EDGELESS_PAIR)
        assert main(["dist", str(a), str(b), "-a", "node-sim"]) == EXIT_INCOMPUTABLE
        assert "incomputable" in capsys.readouterr().err

    def test_search_timeout_warns_once(self, tmp_path, capsys, caplog):
        a = _write(tmp_path, "a.dot", SINGLE)
        b = _write(tmp_path, "b.dot", RELABELED)
        assert main(["dist", str(a), str(b), "-a", "astar-ged", "--timeout", "1e-9"]) == 0
        assert capsys.readouterr().out.strip() == "1.000000"
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert warnings == ["no complete edit path within the timeout; distance set to 1.0"]



class TestHelp:
    def test_help_lists_all_algorithms(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["dist", "--help"])
        assert excinfo.value.code == 0
        text = capsys.readouterr().out
        for name in ALGORITHMS:
            assert name in text


def _read_rows(path: Path) -> list[list[str]]:
    with path.open(newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


class TestCmdEvaluate:
    def _run(self, tmp_path, algorithm, corpus=CORPUS, extra=()):
        out = tmp_path / f"out-{algorithm}"
        code = main(
            [
                "evaluate",
                str(corpus / "rules"),
                str(corpus),
                "-a",
                algorithm,
                "-o",
                str(out),
                *extra,
            ]
        )
        assert code == 0
        return out

    # the applicable count each algorithm reports on the bundled corpus
    GOLDEN_APPLICABLE = {
        "hungarian-ged": "1/2",
        "exas-l1": "1/2",
        "astar-ged": "2/2",
        "node-sim": "0/2",
        "hungarian-mcs": "0/2",
        "exas-cosine": "1/2",
        "exas-split-l1": "1/2",
        "exas-split-cosine": "1/2",
    }

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_matches_committed_goldens(self, tmp_path, capsys, algorithm):
        out = self._run(tmp_path, algorithm)
        golden = GOLDEN / algorithm
        for name in ("applicability.csv", "detection.csv"):
            assert (out / name).read_bytes() == (golden / name).read_bytes()
        # timing values vary per run; the identifying columns must not
        fresh = [row[:2] for row in _read_rows(out / "timing.csv")]
        committed = [row[:2] for row in _read_rows(golden / "timing.csv")]
        assert fresh == committed
        assert f"applicable: {self.GOLDEN_APPLICABLE[algorithm]}" in capsys.readouterr().out

    def test_environment_does_not_change_the_reports(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("AUGDIST_LAMBDA", "0.3")
        monkeypatch.setenv("AUGDIST_EXCLUDE_SELF", "0")
        out = self._run(tmp_path, "exas-cosine")
        for name in ("applicability.csv", "detection.csv"):
            assert (out / name).read_bytes() == (GOLDEN / "exas-cosine" / name).read_bytes()

    def test_two_runs_are_byte_identical(self, tmp_path, capsys):
        first = self._run(tmp_path, "hungarian-ged")
        shutil.move(first, tmp_path / "first")
        second = self._run(tmp_path, "hungarian-ged")
        for name in ("applicability.csv", "detection.csv"):
            assert (tmp_path / "first" / name).read_bytes() == (second / name).read_bytes()

    @pytest.mark.parametrize("algorithm", ["exas-l1", "exas-split-cosine", "node-sim"])
    def test_worker_pool_matches_serial_run(self, tmp_path, capsys, algorithm):
        serial = self._run(tmp_path, algorithm)
        shutil.move(serial, tmp_path / "serial")
        parallel = self._run(tmp_path, algorithm, extra=("--workers", "2"))
        for name in ("applicability.csv", "detection.csv"):
            assert (tmp_path / "serial" / name).read_bytes() == (parallel / name).read_bytes()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_clamped_values_summarized_in_one_warning(self, tmp_path, capsys, caplog, workers):
        # disjoint graphs push the common-subgraph distance past 1 on 20 pairs
        self._run(tmp_path, "hungarian-mcs", extra=("--workers", workers))
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert [m for m in warnings if "clamp" in m] == ["20 distance values clamped to 1.0"]

    # Each option makes every one of the 32 (rule side, entry) pairs fall back:
    # two iterations never pass the even-step check, and a nanosecond deadline
    # has passed before the first expansion.
    @pytest.mark.parametrize(
        "algorithm, option, summary",
        [
            (
                "node-sim",
                ("--max-iter", "2"),
                "32 similarity iterations stopped at max-iter without converging",
            ),
            (
                "astar-ged",
                ("--timeout", "1e-9"),
                "32 exact searches found no complete edit path in time; distance set to 1.0",
            ),
        ],
        ids=["node-sim", "astar-ged"],
    )
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_fallbacks_summarized_in_one_warning(
        self, tmp_path, capsys, caplog, workers, algorithm, option, summary
    ):
        self._run(tmp_path, algorithm, extra=(*option, "--workers", workers))
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert warnings == [summary]

    def test_empty_rules_dir(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        shutil.copytree(CORPUS, corpus)
        for rule_file in (corpus / "rules").glob("*.dot"):
            rule_file.unlink()
        out = self._run(tmp_path, "hungarian-ged", corpus=corpus)
        assert "applicable: 0/0" in capsys.readouterr().out
        assert _read_rows(out / "applicability.csv") == [
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
        ]
        assert len(_read_rows(out / "detection.csv")) == 1
        assert len(_read_rows(out / "timing.csv")) == 1

    def test_unparseable_entry_skipped_run_continues(self, tmp_path, capsys, caplog):
        corpus = tmp_path / "corpus"
        shutil.copytree(CORPUS, corpus)
        (corpus / "c2.dot").write_text("broken {", encoding="utf-8")
        out = self._run(tmp_path, "hungarian-ged", corpus=corpus)
        assert "skipping corpus entry 'c2'" in caplog.text
        rows = _read_rows(out / "applicability.csv")
        assert len(rows) == 3  # header + both rules still evaluated

    def test_missing_manifest_exits_2(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "rules").mkdir()
        code = main(
            ["evaluate", str(corpus / "rules"), str(corpus), "-a", "exas-l1", "-o", str(tmp_path / "o")]
        )
        assert code == EXIT_PARSE
        assert "labels.csv" in capsys.readouterr().err

    def test_duplicate_manifest_entry_exits_2(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        shutil.copytree(CORPUS, corpus)
        manifest = corpus / "labels.csv"
        manifest.write_text(
            manifest.read_text(encoding="utf-8") + "c1,misuse\n", encoding="utf-8"
        )
        code = main(
            [
                "evaluate",
                str(corpus / "rules"),
                str(corpus),
                "-a",
                "exas-l1",
                "-o",
                str(tmp_path / "o"),
            ]
        )
        assert code == EXIT_PARSE
        assert "duplicate" in capsys.readouterr().err

    def test_degenerate_rule_shrinks_checked_count(self, tmp_path, capsys):
        # a rule whose misuse part has no edges cannot be checked with the
        # iterative similarity; the denominator of "applicable: X/Y" drops
        corpus = tmp_path / "corpus"
        shutil.copytree(CORPUS, corpus)
        (corpus / "rules" / "rule_bare.dot").write_text(
            'digraph "rule_bare" {\n'
            '  am [label="Lonely", type="data", api="x.Lonely", part="misuse"];\n'
            '  af [label="Lonely", type="data", api="x.Lonely", part="fix"];\n'
            '  bf [label="Lonely.touch()", type="action", api="x.Lonely", part="fix"];\n'
            '  af -> bf [label="recv"];\n'
            "}\n",
            encoding="utf-8",
        )
        self._run(tmp_path, "node-sim", corpus=corpus)
        assert "applicable: 0/2" in capsys.readouterr().out

    def test_exclude_self_drops_matching_entry(self, tmp_path, capsys, caplog):
        # a rule named like a corpus entry must not be compared to it
        corpus = tmp_path / "corpus"
        shutil.copytree(CORPUS, corpus)
        shutil.copy(corpus / "rules" / "rule_iter.dot", corpus / "rules" / "c1.dot")
        text = (corpus / "rules" / "c1.dot").read_text(encoding="utf-8")
        (corpus / "rules" / "c1.dot").write_text(
            text.replace('digraph "rule_iter"', 'digraph "c1"'), encoding="utf-8"
        )
        out_incl = self._run(
            tmp_path, "hungarian-ged", corpus=corpus, extra=("--no-exclude-self",)
        )
        rows_incl = _read_rows(out_incl / "applicability.csv")
        shutil.move(out_incl, tmp_path / "incl")
        out_excl = self._run(tmp_path, "hungarian-ged", corpus=corpus)
        rows_excl = _read_rows(out_excl / "applicability.csv")
        row_incl = next(row for row in rows_incl[1:] if row[0] == "c1")
        row_excl = next(row for row in rows_excl[1:] if row[0] == "c1")
        # with the self entry excluded, the fix-vs-correct mean loses its
        # zero-distance member and grows
        assert float(row_excl[1]) > float(row_incl[1])


class TestEvaluateRule:
    def test_each_cell_computed_once(self, monkeypatch):
        calls = []

        def counting_build(config):
            real = build_distance(config)

            def dist(a, b):
                calls.append((id(a), b.name))
                return real(a, b)

            return dist

        monkeypatch.setattr(cli, "build_distance", counting_build)
        dataset = load_corpus(CORPUS)
        rule = next(r for r in load_rules(CORPUS / "rules") if r.name == "rule_iter")
        verdict, report, timings = cli.evaluate_rule(
            rule, dataset, RunConfig(algorithm="hungarian-ged")
        )
        assert verdict is not None and verdict.applicable and report is not None
        assert timings
        scoped = dataset.without(rule.name)
        assert len(calls) == 2 * (len(scoped.correct) + len(scoped.misuse))
        assert len(set(calls)) == len(calls)


class TestCmdFeatures:
    def test_prints_sorted_feature_lines(self, tmp_path, capsys):
        path = _write(
            tmp_path,
            "g.dot",
            'digraph { a [label="A", type="data", api="p.A"];'
            ' b [label="A.m()", type="action", api="p.A"];'
            ' a -> b [label="recv"]; }',
        )
        assert main(["features", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == sorted(lines)
        assert any(line.startswith("pq(") for line in lines)
        assert any(line.startswith("path(") for line in lines)

    def test_bad_file_exits_2(self, tmp_path, capsys):
        path = _write(tmp_path, "bad.dot", "nope")
        assert main(["features", str(path)]) == EXIT_PARSE


class TestGoldenAgainstOracles:
    """The committed golden numbers must be reproducible from brute force."""

    def _corpus_entries(self):
        entries = {}
        for line in (CORPUS / "labels.csv").read_text().splitlines()[1:]:
            name, label = line.split(",")
            entries[name] = (
                parse_aug((CORPUS / f"{name}.dot").read_text(encoding="utf-8")),
                label,
            )
        return entries

    def test_hungarian_golden_means_match_node_mapping_oracle(self):
        cm = default_cost_model()
        rule = parse_rule((CORPUS / "rules" / "rule_iter.dot").read_text(encoding="utf-8"))
        entries = self._corpus_entries()

        def oracle_dist(reference, entry):
            denom = max(reference.node_count, entry.node_count) * cm.mcost_n
            return brute_force_node_ged(reference, entry, cm) / denom

        corrects = [g for g, label in entries.values() if label == "correct"]
        misuses = [g for g, label in entries.values() if label == "misuse"]
        expected = {
            "mean_fix_to_correct": sum(oracle_dist(rule.fix, g) for g in corrects) / 4,
            "mean_fix_to_misuse": sum(oracle_dist(rule.fix, g) for g in misuses) / 4,
            "mean_misuse_to_correct": sum(oracle_dist(rule.misuse, g) for g in corrects) / 4,
            "mean_misuse_to_misuse": sum(oracle_dist(rule.misuse, g) for g in misuses) / 4,
        }
        rows = _read_rows(GOLDEN / "hungarian-ged" / "applicability.csv")
        header, values = rows[0], rows[1]
        assert values[0] == "rule_iter"
        for column, expected_value in expected.items():
            golden_value = float(values[header.index(column)])
            assert golden_value == pytest.approx(expected_value, abs=5e-7)

    def test_astar_golden_means_match_exhaustive_oracle(self):
        cm = default_cost_model()
        rule = parse_rule((CORPUS / "rules" / "rule_iter.dot").read_text(encoding="utf-8"))
        entries = self._corpus_entries()

        def oracle_dist(reference, entry):
            return brute_force_ged(reference, entry, cm) / normalization_denominator(
                reference, entry, cm
            )

        rows = _read_rows(GOLDEN / "astar-ged" / "applicability.csv")
        header, values = rows[0], rows[1]
        assert values[0] == "rule_iter"
        for side_name, side in (("fix", rule.fix), ("misuse", rule.misuse)):
            for label in ("correct", "misuse"):
                group = [g for g, entry_label in entries.values() if entry_label == label]
                expected = sum(oracle_dist(side, g) for g in group) / len(group)
                golden_value = float(values[header.index(f"mean_{side_name}_to_{label}")])
                assert golden_value == pytest.approx(expected, abs=5e-7)

    def test_exas_golden_means_match_feature_oracle(self):
        rule = parse_rule((CORPUS / "rules" / "rule_iter.dot").read_text(encoding="utf-8"))
        entries = self._corpus_entries()
        misuses = [g for g, label in entries.values() if label == "misuse"]
        expected = sum(oracle_exas_l1(rule.fix, g) for g in misuses) / 4
        rows = _read_rows(GOLDEN / "exas-l1" / "applicability.csv")
        header, values = rows[0], rows[1]
        golden_value = float(values[header.index("mean_fix_to_misuse")])
        assert golden_value == pytest.approx(expected, abs=5e-7)
