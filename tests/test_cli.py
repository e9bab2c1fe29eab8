import codecs
import csv
import math
import random
import shutil
from pathlib import Path

import pytest

import augdist.cli as cli
from augdist import exas, ged, mcs, node_similarity
from augdist import AUG, Edge, Node, load_corpus, load_rules, parse_aug, parse_rule, serialize_aug
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


def _mark(path: Path) -> None:
    """Prefix ``path`` with the UTF-8 byte order mark that spreadsheet tools save."""
    path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())


def _end_lines_with(path: Path, ending: str) -> None:
    """Rewrite ``path``'s LF line breaks as ``ending``."""
    path.write_bytes(path.read_bytes().replace(b"\n", ending.encode("ascii")))


def _one_class_graph(rng: random.Random, name: str) -> AUG:
    """16 nodes of one class joined by 16 random ``recv`` edges.

    An exact search between two such graphs runs for seconds, so a short
    deadline stops it; and no mapping of equally many nodes costs more than
    the normalization denominator, so no value is clamped.
    """
    nodes = tuple(Node(f"n{i}", "A.m()", "action", "p.A") for i in range(16))
    edges = tuple(
        Edge(f"n{rng.randrange(16)}", f"n{rng.randrange(16)}", "recv") for _ in range(16)
    )
    return AUG(name, nodes, edges)


def _stopping_corpus(tmp_path: Path) -> Path:
    """Two rules and one entry per label, all one-class graphs: each of the
    eight (rule side, entry) searches stops at a 0.2 s deadline."""
    rng = random.Random(1)
    corpus = tmp_path / "stopping"
    (corpus / "rules").mkdir(parents=True)
    for name in ("rule_a", "rule_b"):
        lines = [f'digraph "{name}" {{']
        for part in ("misuse", "fix"):
            graph = _one_class_graph(rng, part)
            lines += [
                f'  {part}_{node.id} [label="A.m()", type="action", api="p.A", part="{part}"];'
                for node in graph.nodes
            ]
            lines += [
                f'  {part}_{edge.source} -> {part}_{edge.target} [label="recv"];'
                for edge in graph.edges
            ]
        _write(corpus / "rules", f"{name}.dot", "\n".join([*lines, "}"]) + "\n")
    for name in ("c1", "m1"):
        _write(corpus, f"{name}.dot", serialize_aug(_one_class_graph(rng, name)))
    _write(corpus, "labels.csv", "name,label\nc1,correct\nm1,misuse\n")
    return corpus


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
            {"workers": 2.0},
            {"max_iter": 4.0},
            {"exclude_self": "no"},
            {"workers": True},
        ],
    )
    def test_rejects_out_of_domain_options(self, overrides):
        with pytest.raises(ValueError):
            RunConfig(algorithm="node-sim", **overrides)

    @pytest.mark.parametrize(
        ("config_option", "distance", "library_option"),
        [
            ({"lam": 1.5}, exas.dist_exas_cosine, {"lam": 1.5}),
            ({"cosine_mode": "fancy"}, exas.dist_exas_cosine, {"mode": "fancy"}),
            ({"tol": math.nan}, node_similarity.dist_node_sim, {"tol": math.nan}),
            ({"max_iter": 3}, node_similarity.dist_node_sim, {"max_iter": 3}),
        ],
        ids=["lam", "cosine_mode", "tol", "max_iter"],
    )
    def test_config_and_library_word_a_bad_option_alike(
        self, config_option, distance, library_option
    ):
        with pytest.raises(ValueError) as from_config:
            RunConfig(algorithm="node-sim", **config_option)
        graph = parse_aug(SINGLE)
        with pytest.raises(ValueError) as from_library:
            distance(graph, graph, **library_option)
        assert str(from_config.value) == str(from_library.value)

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

    def test_node_sim_many_to_many_is_looked_up_through_its_module(self, monkeypatch):
        calls = []

        def counting(references, entries, **options):
            calls.append((list(references), list(entries)))
            return [[0.25] * len(entries) for _ in references]

        monkeypatch.setattr(node_similarity, "dist_node_sim_many", counting)
        graph = parse_aug(SINGLE)
        dist = build_distance(RunConfig(algorithm="node-sim"))
        assert dist.many_to_many([graph], [graph, graph]) == [[0.25, 0.25]]
        assert calls == [([graph], [graph, graph])]

    def test_astar_ged_many_to_many_is_looked_up_through_its_module(self, monkeypatch):
        calls = []

        def counting(references, entries, **options):
            calls.append((list(references), list(entries), options))
            return [[0.25] * len(entries) for _ in references]

        monkeypatch.setattr(ged, "dist_ged_astar_many", counting)
        graph = parse_aug(SINGLE)
        dist = build_distance(RunConfig(algorithm="astar-ged", timeout=2.5))
        assert dist.many_to_many([graph], [graph, graph]) == [[0.25, 0.25]]
        assert calls == [([graph], [graph, graph], {"timeout": 2.5})]

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

    @pytest.mark.parametrize(
        "command, rest",
        [("dist", [str(CORPUS / "m1.dot"), "-a", "exas-l1"]), ("features", [])],
        ids=["dist", "features"],
    )
    def test_graph_without_nodes_exits_2(self, tmp_path, capsys, command, rest):
        empty = _write(tmp_path, "empty.dot", 'digraph "e" { }\n')
        assert main([command, str(empty), *rest]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot read graph from {empty}: graph 'e' has no nodes\n"

    def test_incomputable_exits_3(self, tmp_path, capsys):
        a = _write(tmp_path, "a.dot", EDGELESS_PAIR)
        b = _write(tmp_path, "b.dot", EDGELESS_PAIR)
        assert main(["dist", str(a), str(b), "-a", "node-sim"]) == EXIT_INCOMPUTABLE
        assert "incomputable" in capsys.readouterr().err

    # A nanosecond deadline has passed before the first expansion, so the
    # search returns its seed, here the bundled pair's optimum; 0.2 s stops
    # a search between two one-class graphs midway.
    @pytest.mark.parametrize("timeout", ["1e-9", "0.2"])
    def test_stopped_search_warns_once(self, tmp_path, capsys, caplog, timeout):
        if timeout == "1e-9":
            a, b = CORPUS / "c1.dot", CORPUS / "m1.dot"
        else:
            rng = random.Random(1)
            a = _write(tmp_path, "a.dot", serialize_aug(_one_class_graph(rng, "a")))
            b = _write(tmp_path, "b.dot", serialize_aug(_one_class_graph(rng, "b")))
        assert main(["dist", str(a), str(b), "-a", "astar-ged", "--timeout", timeout]) == 0
        out = capsys.readouterr().out
        assert 0.0 < float(out) <= 1.0 and out == f"{float(out):.6f}\n"
        if timeout == "1e-9":
            assert out == "0.300000\n"
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert warnings == ["exact search stopped at the deadline; best edit path found used"]

    @pytest.mark.parametrize(
        "command, rest",
        [("dist", [str(CORPUS / "m1.dot"), "-a", "hungarian-ged"]), ("features", [])],
        ids=["dist", "features"],
    )
    def test_byte_order_mark_is_read_past(self, tmp_path, capsys, command, rest):
        marked = tmp_path / "marked.dot"
        shutil.copy(CORPUS / "c1.dot", marked)
        _mark(marked)
        outputs = []
        for path in (CORPUS / "c1.dot", marked):
            assert main([command, str(path), *rest]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]
        assert outputs[1].err == ""

    @pytest.mark.parametrize("ending", ["\r\n", "\r"], ids=["crlf", "cr"])
    @pytest.mark.parametrize(
        "command, rest",
        [("dist", [str(CORPUS / "m1.dot"), "-a", "hungarian-ged"]), ("features", [])],
        ids=["dist", "features"],
    )
    def test_line_endings_are_read_as_lf(self, tmp_path, capsys, command, rest, ending):
        ended = tmp_path / "ended.dot"
        shutil.copy(CORPUS / "c1.dot", ended)
        _end_lines_with(ended, ending)
        outputs = []
        for path in (CORPUS / "c1.dot", ended):
            assert main([command, str(path), *rest]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]
        assert outputs[1].err == ""

    def test_evaluate_only_flags_rejected(self, tmp_path, capsys):
        a = _write(tmp_path, "a.dot", SINGLE)
        for flag in (["--workers", "2"], ["--no-exclude-self"]):
            with pytest.raises(SystemExit) as excinfo:
                main(["dist", str(a), str(a), "-a", "exas-l1", *flag])
            assert excinfo.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err



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

    def test_pool_has_at_most_one_worker_per_rule(self, tmp_path, capsys, monkeypatch):
        sizes = []

        class InProcessPool:
            """Records the pool size asked for and runs the work in this process."""

            def __init__(self, max_workers, initializer, initargs):
                sizes.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return None

            def map(self, fn, items):
                return map(fn, items)

        # the initializer sets these; restore them after the test
        monkeypatch.setattr(cli, "_WORKER_CONFIG", None)
        monkeypatch.setattr(cli, "_WORKER_DATASET", None)
        monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        serial = self._run(tmp_path, "exas-l1")
        shutil.move(serial, tmp_path / "serial")
        pooled = self._run(tmp_path, "exas-l1", extra=("--workers", "8"))
        assert sizes == [2]  # the bundled corpus has two rules
        for name in ("applicability.csv", "detection.csv"):
            assert (tmp_path / "serial" / name).read_bytes() == (pooled / name).read_bytes()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_clamped_values_summarized_in_one_warning(self, tmp_path, capsys, caplog, workers):
        # disjoint graphs push the common-subgraph distance past 1 on 20 pairs
        self._run(tmp_path, "hungarian-mcs", extra=("--workers", workers))
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert [m for m in warnings if "clamp" in m] == ["20 distance values clamped to 1.0"]

    # Each option makes every one of the 32 (rule side, entry) pairs fall back:
    # two iterations never pass the even-step check, and a nanosecond deadline
    # has passed before the first expansion, so each search returns its seed.
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
                "32 exact searches stopped at the deadline; best edit path found used",
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

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_stopped_searches_summarized_in_one_warning(self, tmp_path, capsys, caplog, workers):
        corpus = _stopping_corpus(tmp_path)
        out = self._run(
            tmp_path, "astar-ged", corpus=corpus, extra=("--timeout", "0.2", "--workers", workers)
        )
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert warnings == ["8 exact searches stopped at the deadline; best edit path found used"]
        # the reports and stdout keep their usual form
        for name in ("applicability.csv", "detection.csv", "timing.csv"):
            header = _read_rows(GOLDEN / "astar-ged" / name)[0]
            assert _read_rows(out / name)[0] == header
        assert [row[:2] for row in _read_rows(out / "timing.csv")[1:]] == [
            ["astar-ged", "rule_a"],
            ["astar-ged", "rule_b"],
        ]
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == ["timing astar-ged", "applicable"]

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

    @pytest.mark.parametrize("marked", ["labels.csv", "c1.dot", "rules/rule_iter.dot"])
    def test_byte_order_mark_gives_the_plain_reports(self, tmp_path, capsys, caplog, marked):
        corpus = tmp_path / "corpus"
        shutil.copytree(CORPUS, corpus)
        _mark(corpus / marked)
        (tmp_path / "plain").mkdir()
        plain = self._run(tmp_path / "plain", "hungarian-ged")
        plain_count = capsys.readouterr().out.splitlines()[-1]
        out = self._run(tmp_path, "hungarian-ged", corpus=corpus)
        assert capsys.readouterr().out.splitlines()[-1] == plain_count == "applicable: 1/2"
        assert "skipping" not in caplog.text
        for report in ("applicability.csv", "detection.csv"):
            assert (out / report).read_bytes() == (plain / report).read_bytes()

    @pytest.mark.parametrize("ending", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_line_endings_give_the_plain_reports(self, tmp_path, capsys, caplog, ending):
        corpus = tmp_path / "corpus"
        shutil.copytree(CORPUS, corpus)
        for name in ("labels.csv", "c1.dot", "rules/rule_iter.dot"):
            _end_lines_with(corpus / name, ending)
        (tmp_path / "plain").mkdir()
        plain = self._run(tmp_path / "plain", "hungarian-ged")
        plain_count = capsys.readouterr().out.splitlines()[-1]
        out = self._run(tmp_path, "hungarian-ged", corpus=corpus)
        assert capsys.readouterr().out.splitlines()[-1] == plain_count == "applicable: 1/2"
        assert "skipping" not in caplog.text
        for report in ("applicability.csv", "detection.csv"):
            assert (out / report).read_bytes() == (plain / report).read_bytes()

    def test_missing_manifest_exits_2(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "rules").mkdir()
        code = main(
            ["evaluate", str(corpus / "rules"), str(corpus), "-a", "exas-l1", "-o", str(tmp_path / "o")]
        )
        assert code == EXIT_PARSE
        assert "labels.csv" in capsys.readouterr().err

    def test_missing_rules_directory_exits_2(self, tmp_path, capsys):
        rules = tmp_path / "rules"
        code = main(["evaluate", str(rules), str(CORPUS), "-a", "exas-l1", "-o", str(tmp_path / "o")])
        assert code == EXIT_PARSE
        assert capsys.readouterr().err == f"error: missing rules directory {rules}\n"

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

    def test_two_rule_files_naming_one_rule_exit_2(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        shutil.copytree(CORPUS, corpus)
        rules = corpus / "rules"
        shutil.copyfile(rules / "rule_iter.dot", rules / "rule_iter_copy.dot")
        out = tmp_path / "o"
        code = main(["evaluate", str(rules), str(corpus), "-a", "exas-l1", "-o", str(out)])
        assert code == EXIT_PARSE
        assert capsys.readouterr().err == (
            "error: rule_iter.dot and rule_iter_copy.dot both name the rule 'rule_iter'\n"
        )
        assert not out.exists()

    def test_manifest_not_utf8_exits_2(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        shutil.copytree(CORPUS, corpus)
        manifest = corpus / "labels.csv"
        manifest.write_bytes(manifest.read_bytes() + b"\xff,correct\n")
        code = main(
            ["evaluate", str(corpus / "rules"), str(corpus), "-a", "exas-l1", "-o", str(tmp_path / "o")]
        )
        assert code == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {manifest}: ") and err.count("\n") == 1

    def test_output_path_taken_by_a_file_exits_2(self, tmp_path, capsys, monkeypatch):
        out = _write(tmp_path, "out", "")

        def no_distances(*args):
            raise AssertionError("distances computed before the output directory was made")

        monkeypatch.setattr(cli, "distance_table", no_distances)
        code = main(["evaluate", str(CORPUS / "rules"), str(CORPUS), "-a", "exas-l1", "-o", str(out)])
        assert code == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write reports: ") and err.count("\n") == 1

    def test_unwritable_report_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "detection.csv").mkdir(parents=True)
        code = main(["evaluate", str(CORPUS / "rules"), str(CORPUS), "-a", "exas-l1", "-o", str(out)])
        assert code == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot write reports: ")
        assert captured.err.count("\n") == 1 and captured.out == ""

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
