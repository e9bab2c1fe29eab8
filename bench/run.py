#!/usr/bin/env python3
"""Benchmark of ``augdist evaluate``: one algorithm per fresh process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; it needs ``src/augdist`` and the
bundled test data next to this directory and exits with code 2 without
them. The run writes its seeded workload under ``.bench_work/`` in the
checkout, measures for about ``S`` seconds, checks every report the
program wrote, and prints a JSON line describing the host and workload,
then the result line. ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of an outside-in traced run. See
``bench/README.md`` for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

ALGORITHMS = (
    "hungarian-ged", "hungarian-mcs", "node-sim", "exas-l1",
    "exas-cosine", "exas-split-l1", "exas-split-cosine", "astar-ged",
)
LAYER_OF = {
    "astar-ged": "ged.astar",
    "hungarian-ged": "ged.hungarian",
    "hungarian-mcs": "mcs",
    "node-sim": "node_similarity",
    "exas-l1": "exas.l1",
    "exas-cosine": "exas.cosine",
    "exas-split-l1": "exas.split-l1",
    "exas-split-cosine": "exas.split-cosine",
}
# Workloads, metric names, units and bounds are declared once, in BENCHMARK.json.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
UNITS = {m["name"]: m["unit"] for m in (*SPEC["end_to_end"], *SPEC["per_layer"])}
PROBE_SIZES = (5, 7, 9, 12)

ORACLE_SAMPLE = 4
PROBE_PAIRS = 10
PROBE_BUDGET_S = 0.25
CHILD_TIMEOUT_S = 150
SLICE_S = 0.8
# Duration of ``child.reference_work`` on an undisturbed core of the host the
# figures in README.md come from; timings are scaled to this speed.
REFERENCE_S = 0.001


class Run:
    """Child processes of one benchmark run and their bookkeeping."""

    def __init__(self, work: Path) -> None:
        self.work = work
        self.attempted = 0
        self.problems: list[str] = []
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        # The template forks the evaluates, so it must not start BLAS
        # threads; the program's matrices are far below BLAS's threading
        # threshold, so its arithmetic runs on one thread either way.
        template_env = dict(self.env, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        self.template_log = open(work / "template.err", "w")
        self.template = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), "serve", str(CHILD_TIMEOUT_S)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.template_log,
            env=template_env, cwd=ROOT, text=True, start_new_session=True,
        )
        # Nothing is timed while the template is still importing.
        self.template.stdout.readline()

    def close(self) -> None:
        """Stop the template; an idle one exits at once on end of input, one
        still running an evaluate is killed with it."""
        self.template.stdin.close()
        try:
            self.template.wait(timeout=5)
        except subprocess.TimeoutExpired:
            os.killpg(self.template.pid, signal.SIGKILL)
            self.template.wait()
        self.template.stdout.close()
        self.template_log.close()

    def setup_seconds(self, corpus: Path) -> dict | None:
        """Seconds from starting a fresh interpreter to rules and corpus
        loaded, with the speedometer's figures."""
        self.attempted += 1
        with open(self.work / "setup.err", "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(BENCH / "child.py"), "setup", str(corpus)],
                stdout=subprocess.PIPE, stderr=err, env=self.env, cwd=ROOT, text=True,
            )
            killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                line = proc.stdout.readline()
                seconds = time.perf_counter() - start
                proc.stdout.read()
                code = proc.wait()
            finally:
                killer.cancel()
                proc.stdout.close()
        if code != 0 or not line.strip():
            self.problems.append(f"setup probe failed (exit {code}): {self._tail('setup.err')}")
            return None
        return dict(json.loads(line), seconds=seconds)

    def evaluate(self, corpus: Path, algorithm: str, out: Path, traced: bool, speed: bool) -> dict | None:
        """One evaluate in a child forked from the template."""
        self.attempted += 1
        result = self.work / "evaluate.json"
        result.unlink(missing_ok=True)
        job = {"corpus": str(corpus), "algorithm": algorithm, "out": str(out), "traced": traced,
               "speed": speed, "result": str(result), "log": str(self.work / "evaluate.log")}
        reply = ""
        if self.template.poll() is None:
            self.template.stdin.write(json.dumps(job) + "\n")
            self.template.stdin.flush()
            reply = self.template.stdout.readline()
        status = json.loads(reply)["status"] if reply else None
        figures = json.loads(result.read_text()) if status == 0 else None
        if figures is None or figures["exit"] != 0:
            where = self._tail("evaluate.log") if reply else self._tail("template.err")
            self.problems.append(f"{algorithm}: evaluate failed (wait status {status}): {where}")
            return None
        return figures

    def _tail(self, name: str) -> str:
        path = self.work / name
        lines = path.read_text().strip().splitlines() if path.exists() else []
        return " | ".join(lines[-3:])


def prepare(workload: str, seed: int, work: Path) -> tuple[dict[str, Path], dict]:
    """Write the workload; returns each algorithm's corpus and the properties."""
    corpus = workloads.make_corpus(workloads.SHAPES[workload], seed, workload)
    main_dir = work / "corpus"
    workloads.write_corpus(corpus, main_dir)
    search_dir = main_dir
    if workload != "small-search":
        search_dir = work / "search"
        workloads.write_corpus(workloads.make_corpus(workloads.SEARCH_SLICE, seed, "search-slice"), search_dir)
    dirs = {algorithm: main_dir for algorithm in ALGORITHMS}
    dirs["astar-ged"] = search_dir
    return dirs, workloads.properties(corpus)


def measure(run: Run, dirs: dict[str, Path], seconds: float, traced: bool) -> dict:
    """Evaluate samples of every algorithm for about ``seconds``.

    Rounds go over the algorithms, sampling each until it has used
    ``SLICE_S`` of the round (at least once), so a slow spell of the host
    spreads over all of them, every algorithm's samples span the whole run,
    and the cheap ones get more samples; an untraced round starts with one
    set-up sample. After the first round, the run ends at the first slice
    boundary past ``seconds``. Traced runs pair each traced evaluate with an
    untraced one to measure the tracing overhead, both without the
    speedometer.
    """
    kinds = ("plain", "traced") if traced else ("plain",)
    samples: dict = {"setup": [], **{kind: {a: [] for a in ALGORITHMS} for kind in ("plain", "traced")}}
    deadline = time.perf_counter() + seconds

    def done() -> bool:
        return bool(samples["plain"][ALGORITHMS[-1]]) and time.perf_counter() >= deadline

    while not done():
        if not traced:
            samples["setup"].append(run.setup_seconds(dirs["hungarian-ged"]))
        for algorithm in ALGORITHMS:
            if done():
                break
            slice_start = time.perf_counter()
            while True:
                for kind in kinds:
                    taken = samples[kind][algorithm]
                    out = run.work / "out" / kind / algorithm / str(len(taken))
                    taken.append(run.evaluate(dirs[algorithm], algorithm, out, kind == "traced", not traced))
                if time.perf_counter() - slice_start >= SLICE_S:
                    break
    return samples


def check_outputs(run: Run, dirs: dict[str, Path], samples: dict, seed: int, workload: str) -> float:
    """Compare every report written with the recomputed ones; returns the
    lowest share, over the algorithms, of unique pairs that got a full
    answer. Taken per algorithm, one failed exact search is not diluted by
    the pairs of the seven algorithms that cannot time out."""
    import check

    run.problems += check.check_goldens(ROOT, run.work)
    complete = []
    loaded = {}
    for algorithm in ALGORITHMS:
        corpus = dirs[algorithm]
        if corpus not in loaded:
            loaded[corpus] = check.load(corpus)
        rules, dataset = loaded[corpus]
        table = check.distance_table(rules, dataset, algorithm)
        complete.append(1.0 - table.failed / len(table.values))
        expected = check.expected_reports(rules, dataset, table)
        for kind in ("plain", "traced"):
            for index, result in enumerate(samples[kind][algorithm]):
                if result is None:
                    continue
                out = run.work / "out" / kind / algorithm / str(index)
                for name in check.compare_reports(out, expected):
                    run.problems.append(f"{algorithm}: {kind} run {index} wrote a wrong {name}")
        oracle_algorithms = ("astar-ged",) if workload == "small-search" else ("exas-l1",)
        if algorithm in oracle_algorithms:
            run.problems += check.check_oracle_sample(rules, dataset, algorithm, table, seed, ORACLE_SAMPLE)
    return min(complete)


def scaled(samples) -> float:
    """Median over the run of a step's own seconds at the reference speed.

    Each sample's time, less the time its speedometer's bursts took, is
    scaled by the reference computation's undisturbed duration over its
    duration during the sample. On the shared host raw times of one build
    moved up to twofold between runs, with the host's phases; the medians
    of scaled ones mostly kept within 5%.
    """
    return statistics.median(scale(r) for r in samples if r is not None)


def scale(sample: dict) -> float:
    return (sample["seconds"] - sample["burst_s"]) * REFERENCE_S / sample["reference_s"]


def end_to_end(samples: dict, complete_frac: float) -> dict[str, float]:
    metrics = {"setup_s": scaled(samples["setup"])}
    for algorithm in ALGORITHMS:
        metrics[f"evaluate_s.{algorithm}"] = scaled(samples["plain"][algorithm])
    metrics["complete_frac"] = complete_frac
    metrics["peak_rss_mb"] = max(r["rss_mb"] for rs in samples["plain"].values() for r in rs if r)
    return metrics


def _percentile(values: list[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def per_layer(samples: dict, probe: dict[int, float], properties: dict) -> dict[str, float]:
    """Layer figures of the first traced evaluate of each algorithm."""
    figures = {a: samples["traced"][a][0]["trace"] for a in ALGORITHMS}

    def total(key) -> float:
        return sum(key(f) for f in figures.values())

    def values(name: str, algorithms=ALGORITHMS) -> list[float]:
        return [v for a in algorithms for v in figures[a]["values"].get(name, [])]

    files = total(lambda f: f["calls"].get("dot.parse_aug", 0) + f["calls"].get("dot.parse_rule", 0))
    parse_s = total(lambda f: f["parse_s"])
    calls = total(lambda f: f["calls"].get(tracing.DISTANCE, 0))
    unique = total(lambda f: f["unique_pairs"])
    metrics = {
        "dot.files": files,
        "dot.bytes": sum(values("dot.bytes")),
        "dot.parse_s": parse_s,
        "dot.parse_ms_per_file": 1000 * parse_s / files,
        "evaluation.load_corpus_s": total(lambda f: f["load_corpus_s"]),
        "evaluation.load_rules_s": total(lambda f: f["load_rules_s"]),
        "evaluation.dist_calls": calls,
        "evaluation.unique_pairs": unique,
        "evaluation.calls_per_unique_pair": calls / unique,
        "evaluation.harness_s": total(lambda f: f["harness_s"]),
        "evaluation.incomputable.timeout": total(lambda f: f["incomputable"].get("timeout", 0)),
        "evaluation.incomputable.degenerate": total(lambda f: f["incomputable"].get("degenerate", 0)),
        "evaluation.applicable_rules": sum(values("evaluation.applicable")),
    }
    for algorithm in ALGORITHMS:
        pair_ms = [1000 * s for s in figures[algorithm]["values"].get("pair_s", [])]
        layer = LAYER_OF[algorithm]
        metrics[f"{layer}.pair_ms_p50"] = statistics.median(pair_ms)
        metrics[f"{layer}.pair_ms_p95"] = _percentile(pair_ms, 0.95)
        metrics[f"{layer}.pairs"] = len(pair_ms)
    exas = [a for a in ALGORITHMS if a.startswith("exas")]
    searches = figures["astar-ged"]["calls"].get("ged.ged_astar", 0)
    metrics.update({
        "exas.extract_ms_per_graph": 1000 * _mean(values("exas.extract_s", exas)),
        "exas.features_per_graph": _mean(values("exas.features", exas)),
        "graphs.split_ms_per_graph": 1000 * _mean(values("graphs.split_s")),
        "graphs.packages_per_graph": _mean(values("graphs.packages")),
        "node_similarity.iterations_mean": _mean(values("node_similarity.iterations")),
        "node_similarity.converged_frac": _mean(values("node_similarity.converged")),
        "ged.astar.complete_frac": sum(values("ged.astar.complete")) / searches if searches else 0.0,
    })
    for size, share in probe.items():
        metrics[f"ged.astar.complete_frac.n{size}"] = share
    # Each traced sample ran next to an untraced one, in the same phase of the host.
    plain = sum(statistics.median(r["seconds"] for r in samples["plain"][a]) for a in ALGORITHMS)
    traced = sum(statistics.median(r["seconds"] for r in samples["traced"][a]) for a in ALGORITHMS)
    metrics["trace_overhead_frac"] = (traced - plain) / plain
    metrics.update({f"workload.{key}": value for key, value in properties.items()})
    return metrics


def search_probe(seed: int) -> dict[int, float]:
    """Share of exact searches finishing within a small fixed budget, by size."""
    from augdist import GedTimeoutError, ged_astar, parse_aug

    shares = {}
    for size in PROBE_SIZES:
        complete = 0
        for a, b in workloads.probe_pairs(seed, size, PROBE_PAIRS):
            try:
                result = ged_astar(
                    parse_aug(workloads.graph_dot(a)), parse_aug(workloads.graph_dot(b)), timeout=PROBE_BUDGET_S
                )
            except GedTimeoutError:
                continue
            complete += result.complete
        shares[size] = complete / PROBE_PAIRS
    return shares


def trace_guards(samples: dict) -> list[str]:
    problems = []
    for algorithm in ALGORITHMS:
        for result in samples["traced"][algorithm]:
            if result is not None:
                problems += tracing.guard_failures(algorithm, result["trace"])
    return sorted(set(problems))


def commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit(),
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # clean up on termination
    needed = [ROOT / "src" / "augdist" / "cli.py", ROOT / "tests" / "oracles.py", ROOT / "tests" / "data" / "golden"]
    missing = [str(path.relative_to(ROOT)) for path in needed if not path.exists()]
    if missing:
        print(f"error: not a source checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    # Flag defaults come from AUGDIST_* variables; measure and check the
    # plain CLI, here and in every process started below.
    for name in [name for name in os.environ if name.startswith("AUGDIST_")]:
        del os.environ[name]
    # The checks call the program in this process; its per-pair warnings are
    # the evaluate processes' business, not the result's.
    logging.disable(logging.WARNING)
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(work)
    try:
        dirs, properties = prepare(args.workload, args.seed, work)
        traced = bool(args.trace)
        samples = measure(run, dirs, args.seconds, traced)
        probe = search_probe(args.seed) if traced else {}
        complete_frac = check_outputs(run, dirs, samples, args.seed, args.workload)
        if traced:
            run.problems += trace_guards(samples)
        failed = sum(r is None for kind in ("plain", "traced") for rs in samples[kind].values() for r in rs)
        failed += sum(s is None for s in samples["setup"])
        metrics = {}
        if not failed and not run.problems:
            metrics = per_layer(samples, probe, properties) if traced else end_to_end(samples, complete_frac)
            declared = {m["name"] for m in SPEC["per_layer" if traced else "end_to_end"]}
            if set(metrics) != declared:
                run.problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ declared)}")
                metrics = {}
    finally:
        run.close()
        shutil.rmtree(work, ignore_errors=True)
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    # Each step's own seconds, unscaled and scaled.
    steps = {a: samples["plain"][a] for a in ALGORITHMS}
    steps["setup"] = samples["setup"]
    raw = {name: [round(r["seconds"] - r.get("burst_s", 0), 4) for r in rs if r] for name, rs in steps.items()}
    scaled_s = {name: [round(scale(r), 4) for r in rs if r and "burst_s" in r] for name, rs in steps.items()}
    info = {"env": environment(), "workload": args.workload, "seed": args.seed, "properties": properties,
            "raw_s": raw, "scaled_s": scaled_s}
    print(json.dumps(info))
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
