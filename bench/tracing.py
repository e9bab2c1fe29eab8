"""Outside-in tracing of one ``augdist evaluate`` process.

The tracer wraps public functions of the program's modules from outside:
every module attribute bound to a wrapped function is replaced, so calls
through any import path are seen. Each wrapper counts its calls, sums their
duration and records the figures its layer metrics need. Nothing in
``augdist`` is edited; a refactor that stops calling a wrapped function is
caught by :func:`guard_failures`, which demands calls at every boundary the
algorithm's layers must cross.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from functools import wraps

# Boundary names are "<module>.<function>" with the ``augdist.`` prefix dropped.
BOUNDARIES = (
    "dot.parse_aug",
    "dot.parse_rule",
    "evaluation.load_corpus",
    "evaluation.load_rules",
    "evaluation.is_applicable",
    "cli.evaluate_rule",
    "ged.ged_astar",
    "ged.dist_ged_astar",
    "ged.dist_ged_hungarian",
    "mcs.dist_mcs_hungarian",
    "node_similarity.similarity_matrix",
    "node_similarity.dist_node_sim",
    "exas.extract_features",
    "exas.dist_exas_l1",
    "exas.dist_exas_cosine",
    "exas.dist_exas_split",
    "graphs.split_by_api",
)
# The distance callable the CLI builds is traced as this pseudo-boundary.
DISTANCE = "cli.build_distance()"

ALWAYS = (
    "dot.parse_aug", "dot.parse_rule", "evaluation.load_corpus", "evaluation.load_rules",
    "evaluation.is_applicable", "cli.evaluate_rule", DISTANCE,
)
REQUIRED = {
    "astar-ged": ("ged.dist_ged_astar", "ged.ged_astar"),
    "hungarian-ged": ("ged.dist_ged_hungarian",),
    "hungarian-mcs": ("mcs.dist_mcs_hungarian",),
    "node-sim": ("node_similarity.dist_node_sim", "node_similarity.similarity_matrix"),
    "exas-l1": ("exas.dist_exas_l1", "exas.extract_features"),
    "exas-cosine": ("exas.dist_exas_cosine", "exas.extract_features"),
    "exas-split-l1": ("exas.dist_exas_split", "graphs.split_by_api", "exas.extract_features"),
    "exas-split-cosine": ("exas.dist_exas_split", "graphs.split_by_api", "exas.extract_features"),
}


class Tracer:
    """Call counts, summed durations and figures of one process, in memory."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.seconds: Counter[str] = Counter()
        self.missing: list[str] = []
        self.values: dict[str, list[float]] = {}
        self.seen_graphs: set[str] = set()
        self.pairs: set[tuple[str, str]] = set()
        self.incomputable: Counter[str] = Counter()

    def add(self, key: str, value: float) -> None:
        self.values.setdefault(key, []).append(value)

    def traced(self, boundary: str, function, after=None):
        """``function`` counted and timed per call; ``after(args, result,
        seconds)`` records the boundary's own figures."""

        @wraps(function)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                seconds = time.perf_counter() - start
                self.calls[boundary] += 1
                self.seconds[boundary] += seconds
            if after is not None:
                after(args, result, seconds)
            return result

        return wrapper


def rebind(original, replacement) -> int:
    """Point every ``augdist`` module attribute bound to ``original`` at
    ``replacement``; returns how many bindings changed."""
    changed = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "augdist" or name.startswith("augdist.")):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, replacement)
                changed += 1
    return changed


def install(tracer: Tracer) -> None:
    """Wrap every boundary; a boundary that no longer exists is recorded."""
    import importlib

    from augdist import GedTimeoutError, DegenerateStructureError
    import augdist.cli as cli

    def on_parse(args, graph, seconds):
        tracer.add("dot.bytes", len(args[0].encode("utf-8")))

    def on_verdict(args, verdict, seconds):
        tracer.add("evaluation.applicable", float(verdict.applicable))

    def on_search(args, result, seconds):
        tracer.add("ged.astar.complete", float(result.complete))

    def on_matrix(args, matrix, seconds):
        tracer.add("node_similarity.iterations", matrix.iterations_run)
        tracer.add("node_similarity.converged", float(matrix.converged))

    def on_features(args, vector, seconds):
        name = args[0].name
        if name not in tracer.seen_graphs:
            tracer.seen_graphs.add(name)
            tracer.add("exas.extract_s", seconds)
            tracer.add("exas.features", len(vector))

    def on_split(args, parts, seconds):
        tracer.add("graphs.split_s", seconds)
        tracer.add("graphs.packages", len(parts))

    after = {
        "dot.parse_aug": on_parse,
        "dot.parse_rule": on_parse,
        "evaluation.is_applicable": on_verdict,
        "ged.ged_astar": on_search,
        "node_similarity.similarity_matrix": on_matrix,
        "exas.extract_features": on_features,
        "graphs.split_by_api": on_split,
    }
    for boundary in BOUNDARIES:
        module_name, function_name = boundary.split(".")
        module = importlib.import_module(f"augdist.{module_name}")
        original = getattr(module, function_name, None)
        if original is None or not rebind(original, tracer.traced(boundary, original, after.get(boundary))):
            tracer.missing.append(boundary)

    build = cli.build_distance

    def build_traced(config):
        dist = build(config)

        def distance(a, b):
            tracer.pairs.add((a.name, b.name))
            start = time.perf_counter()
            try:
                return dist(a, b)
            except GedTimeoutError:
                tracer.incomputable["timeout"] += 1
                raise
            except DegenerateStructureError:
                tracer.incomputable["degenerate"] += 1
                raise
            finally:
                tracer.add("pair_s", time.perf_counter() - start)

        return tracer.traced(DISTANCE, distance)

    if not rebind(build, build_traced):
        tracer.missing.append("cli.build_distance")


def summary(tracer: Tracer) -> dict:
    """Plain figures of one traced process, merged later across processes.

    With one worker the CLI computes distances only inside ``evaluate_rule``,
    so the harness's own time is the difference of the two sums.
    """
    return {
        "calls": tracer.calls,
        "missing": tracer.missing,
        "values": tracer.values,
        "unique_pairs": len(tracer.pairs),
        "incomputable": dict(tracer.incomputable),
        "parse_s": tracer.seconds["dot.parse_aug"] + tracer.seconds["dot.parse_rule"],
        "load_corpus_s": tracer.seconds["evaluation.load_corpus"],
        "load_rules_s": tracer.seconds["evaluation.load_rules"],
        "harness_s": tracer.seconds["cli.evaluate_rule"] - tracer.seconds[DISTANCE],
    }


def guard_failures(algorithm: str, figures: dict) -> list[str]:
    """Boundaries that recorded no call although the evaluate computed
    distances, or that could not be wrapped at all."""
    problems = [f"boundary {name} not found" for name in figures["missing"]]
    if figures["calls"].get(DISTANCE, 0) == 0:
        return problems + [f"{algorithm}: no distance was computed"]
    for boundary in (*ALWAYS, *REQUIRED[algorithm]):
        if figures["calls"].get(boundary, 0) == 0:
            problems.append(f"{algorithm}: boundary {boundary} recorded no call")
    return problems
