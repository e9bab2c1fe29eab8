"""Data model for API usage graphs and correction rules.

A usage graph is a directed labeled multigraph: action nodes (method calls,
control structures) and data nodes (objects, raw values) connected by
data-flow edges (``para``, ``recv``, ``def``) and control-flow edges
(``sel``, ``order``). Node and edge type alphabets are treated as open
string sets. All types are immutable after construction and safe to share
across workers.

A usage graph has at least one node: ``AUG`` raises ``EmptyGraphError`` on
construction otherwise, so no distance, split or feature count has to check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

from .errors import EmptyGraphError, SchemaError

if TYPE_CHECKING:
    from . import ged, node_similarity

EMPTY_TYPE = "empty"
UNKNOWN_API = "UNKNOWN"
MISC_PACKAGE = "misc"


@dataclass(frozen=True)
class Node:
    """A single usage-graph node.

    ``label`` is the display text (method signature, declared type name, raw
    primitive value, or a special like ``<return>``). ``node_type``
    distinguishes actions from data and their subtypes. ``api`` holds the
    fully qualified declaring type name, ``UNKNOWN`` or ``""`` when
    unresolvable.
    """

    id: str
    label: str
    node_type: str
    api: str = ""

    def __post_init__(self) -> None:
        if not self.label and self.node_type != EMPTY_TYPE:
            raise ValueError(f"node {self.id!r}: empty label on non-empty node type")


@dataclass(frozen=True)
class Edge:
    """A directed edge; parallel edges are separate entries of ``AUG.edges``,
    which may hold one shared instance more than once."""

    source: str
    target: str
    label: str


@dataclass(frozen=True)
class AUG:
    """A directed labeled multigraph of API-usage nodes; never empty."""

    name: str
    nodes: tuple[Node, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "edges", tuple(self.edges))
        if not self.nodes:
            raise EmptyGraphError(self.name)
        seen: set[str] = set()
        for node in self.nodes:
            if node.id in seen:
                raise ValueError(f"duplicate node id {node.id!r} in graph {self.name!r}")
            if node.node_type == EMPTY_TYPE:
                raise ValueError(
                    f"node {node.id!r}: empty nodes belong to correction rules, "
                    f"not standalone graphs"
                )
            seen.add(node.id)
        for edge in self.edges:
            if edge.source not in seen or edge.target not in seen:
                raise ValueError(
                    f"edge {edge.source!r} -> {edge.target!r} references a missing "
                    f"node in graph {self.name!r}"
                )

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def nodes_by_id(self) -> dict[str, Node]:
        return {node.id: node for node in self.nodes}

    @cached_property
    def nodes_in_id_order(self) -> tuple[Node, ...]:
        """The nodes sorted by id: the numbering every per-pair kernel uses."""
        return tuple(sorted(self.nodes, key=lambda node: node.id))

    @cached_property
    def node_class_counts(self) -> tuple[dict[tuple[str, str], int], dict[str, int]]:
        """How many nodes share each ``(node_type, label)`` class, and each
        ``node_type``, counted once per graph.

        Plain dicts for fast lookups; callers must not mutate them, since
        the graph is shared.
        """
        classes: dict[tuple[str, str], int] = {}
        types: dict[str, int] = {}
        for node in self.nodes:
            key = node.node_type, node.label
            classes[key] = classes.get(key, 0) + 1
            types[node.node_type] = types.get(node.node_type, 0) + 1
        return classes, types

    @cached_property
    def edge_positions(self) -> node_similarity.EdgePositions:
        """node-sim's edge arrays for this graph, built once per graph.
        Read-only, since the graph is shared."""
        from . import node_similarity  # node_similarity imports this module

        return node_similarity.edge_positions(self)

    @cached_property
    def feature_counts(self) -> dict[tuple, int]:
        """The exas feature vector, counted once per graph.

        A plain dict for fast lookups; callers must not mutate it, since the
        graph is shared.
        """
        from . import exas  # exas imports this module

        return exas.extract_features(self)

    @cached_property
    def feature_profile(self) -> tuple[int, tuple[tuple, ...]]:
        """The total of ``feature_counts`` and its keys from the highest
        count down, so that the L1 distance only has to visit the keys two
        vectors share. Keys only, not ``(key, count)`` items, to keep each
        graph's footprint small; read-only, since the graph is shared.
        """
        counts = self.feature_counts
        return sum(counts.values()), tuple(sorted(counts, key=counts.__getitem__, reverse=True))

    @cached_property
    def search_tables(self) -> ged.SearchTables:
        """The exact search's tables for this graph, in either role, built
        once per graph. Read-only, since the graph is shared."""
        from . import ged  # ged imports this module

        return ged.search_tables(self)

    @cached_property
    def source_tables(self) -> ged.SourceTables:
        """The exact search's tables for this graph as the source only,
        built once per graph searched as the source. Read-only, since the
        graph is shared."""
        from . import ged  # ged imports this module

        return ged.source_tables(self)

    @cached_property
    def api_parts(self) -> tuple[tuple[str, AUG], ...]:
        """The per-package subgraphs, split once and sorted by package.

        Each part caches its own ``feature_counts``.
        """
        return tuple(sorted(split_by_api(self).items()))


@dataclass(frozen=True)
class CorrectionRule:
    """A misuse graph, its fixed counterpart, and the node mapping between them.

    Mapping pairs are ``(misuse node id, fix node id)``; ``None`` on one side
    marks the empty node of a pure addition (``None`` on the misuse side) or
    deletion (``None`` on the fix side).
    """

    name: str
    misuse: AUG
    fix: AUG
    mapping: tuple[tuple[str | None, str | None], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "mapping", tuple(self.mapping))
        sides = (("misuse", self.misuse, set()), ("fix", self.fix, set()))
        for misuse_id, fix_id in self.mapping:
            if misuse_id is None and fix_id is None:
                raise SchemaError(f"rule {self.name!r}: mapping pair with two empty sides")
            for node_id, (side, graph, seen) in zip((misuse_id, fix_id), sides):
                if node_id is None:
                    continue
                if node_id not in graph.nodes_by_id:
                    raise SchemaError(
                        f"rule {self.name!r}: mapping references unknown {side} node {node_id!r}"
                    )
                if node_id in seen:
                    raise SchemaError(f"rule {self.name!r}: {side} node {node_id!r} mapped twice")
                seen.add(node_id)


def package_of(node: Node) -> str:
    """Package prefix of the node's declaring type, or ``misc`` when unknown.

    Unresolved APIs (empty, ``UNKNOWN``, or a bare name without a dot) carry
    no package information and land in the miscellaneous bucket.
    """
    api = node.api
    if not api or api == UNKNOWN_API:
        return MISC_PACKAGE
    cut = api.rfind(".")
    if cut < 0:
        return MISC_PACKAGE
    return api[:cut]


def split_by_api(graph: AUG) -> dict[str, AUG]:
    """Partition a graph into per-package subgraphs.

    Each subgraph keeps exactly the nodes of one package and the edges whose
    both endpoints stay inside it; edges crossing packages are dropped. The
    ``misc`` cluster is a regular entry.
    """
    clusters: dict[str, list[Node]] = {}
    for node in graph.nodes:
        clusters.setdefault(package_of(node), []).append(node)
    result: dict[str, AUG] = {}
    for package, nodes in clusters.items():
        member_ids = {node.id for node in nodes}
        edges = tuple(
            edge
            for edge in graph.edges
            if edge.source in member_ids and edge.target in member_ids
        )
        result[package] = AUG(f"{graph.name}[{package}]", tuple(nodes), edges)
    return result
