"""Graph edit distance between usage graphs.

Two route families over a shared cost model: an exact-leaning depth-first
branch-and-bound search over node mappings with admissible pruning and a
wall-clock deadline, and the bipartite node-assignment approximation solved
as a linear sum assignment (node costs only).
"""

from __future__ import annotations

import logging
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import GedTimeoutError
from .graphs import AUG, Node

logger = logging.getLogger(__name__)

DEFAULT_TIMEOUT = 15.0

_DELETED = -1


@dataclass(frozen=True)
class CostModel:
    """Edit-operation costs driving both distance variants.

    ``edge_substitute`` receives the two edge labels; the edge endpoints are
    fixed by the node mapping, so the label is the only free attribute. It
    must return 0 for equal labels and, for differing labels, a value no
    smaller than ``min(edge_delete, edge_insert)`` — the search's pruning
    bound relies on both properties. Costs must satisfy the triangle
    inequality (delete + insert >= substitute) for nodes and edges.

    ``mcost_n`` and ``mcost_e`` are the per-node and per-edge maximum costs
    used by the distance normalizations.
    """

    node_substitute: Callable[[Node, Node], float]
    node_delete: float
    node_insert: float
    edge_substitute: Callable[[str, str], float]
    edge_delete: float
    edge_insert: float
    mcost_n: float
    mcost_e: float


def _default_node_substitute(a: Node, b: Node) -> float:
    if a.node_type == b.node_type:
        return 0.0 if a.label == b.label else 1.0
    return 2.0


def _default_edge_substitute(label_a: str, label_b: str) -> float:
    return 0.0 if label_a == label_b else 2.0


def default_cost_model() -> CostModel:
    """Uniform cost model: relabel 1, retype 2, every delete/insert 2."""
    return CostModel(
        node_substitute=_default_node_substitute,
        node_delete=2.0,
        node_insert=2.0,
        edge_substitute=_default_edge_substitute,
        edge_delete=2.0,
        edge_insert=2.0,
        mcost_n=2.0,
        mcost_e=2.0,
    )


class GedResult(NamedTuple):
    cost: float
    complete: bool
    # best node mapping found: (source node id, target node id), either side
    # None for a deletion/insertion
    mapping: tuple[tuple[str | None, str | None], ...]


class EditOp(NamedTuple):
    op: str  # node-sub / node-del / node-ins / edge-sub / edge-del / edge-ins
    source: tuple | None
    target: tuple | None
    cost: float


@dataclass(frozen=True)
class EditPath:
    """Explicit edit operations realizing a node mapping, with total cost."""

    ops: tuple[EditOp, ...]
    total_cost: float


class _DeadlineHit(Exception):
    pass


def _label_multiset(graph: AUG) -> Counter[str]:
    return Counter(edge.label for edge in graph.edges)


class _MappingSearch:
    """Depth-first branch-and-bound over node mappings.

    Nodes of ``a`` are decided in ascending-id order; each is matched to an
    unused node of ``b`` (candidates in ascending id order) or deleted, with
    insertion of leftover ``b`` nodes at the leaves. Edge costs are charged
    when the second endpoint of an edge is decided, so the accumulated cost
    of a partial mapping covers exactly the edges whose fate is fixed.

    The remaining cost is bounded from below by (a) the larger of the two
    per-node best-case bounds (every undecided source node pays at least its
    cheapest substitution or a deletion; symmetrically for unused target
    nodes) and (b) an edge-surplus bound: of the not-yet-charged edge
    instances, at most the label-wise overlap can ever be matched for free,
    and each of the remaining ``max(r_a, r_b) - overlap`` costs at least
    ``min(edge_delete, edge_insert)``. Both bounds underestimate, so a
    search that runs to completion is exact.
    """

    def __init__(self, a: AUG, b: AUG, cm: CostModel, deadline: float) -> None:
        self.cm = cm
        self.deadline = deadline
        self.a_nodes = sorted(a.nodes, key=lambda n: n.id)
        self.b_nodes = sorted(b.nodes, key=lambda n: n.id)
        self.n = len(self.a_nodes)
        self.m = len(self.b_nodes)

        index_a = {node.id: i for i, node in enumerate(self.a_nodes)}
        index_b = {node.id: k for k, node in enumerate(self.b_nodes)}
        self.adj_a = self._indexed_adjacency(a, index_a)
        self.adj_b = self._indexed_adjacency(b, index_b)
        self.nbr_a = self._neighbors(self.adj_a, self.n)
        self.nbr_b = self._neighbors(self.adj_b, self.m)

        self.sub = [
            [float(cm.node_substitute(u, v)) for v in self.b_nodes]
            for u in self.a_nodes
        ]
        self.sub_np = np.array(self.sub, dtype=float) if self.n and self.m else None

        self.rest_a = _label_multiset(a)
        self.rest_b = _label_multiset(b)
        self.rest_a_total = a.edge_count
        self.rest_b_total = b.edge_count
        self.min_edge_op = min(cm.edge_delete, cm.edge_insert)

        self.assign = [_DELETED] * self.n
        self.used = [False] * self.m
        self.preimage = [_DELETED] * self.m
        self.matched = 0
        self.best = float("inf")
        self.best_assign: list[int] | None = None
        self.pair_cache: dict[tuple[tuple[str, ...], tuple[str, ...]], float] = {}

    @staticmethod
    def _indexed_adjacency(
        graph: AUG, index: dict[str, int]
    ) -> dict[tuple[int, int], Counter[str]]:
        adjacency: dict[tuple[int, int], Counter[str]] = {}
        for (source, target), counts in graph.edge_label_counts.items():
            adjacency[(index[source], index[target])] = counts
        return adjacency

    @staticmethod
    def _neighbors(
        adjacency: dict[tuple[int, int], Counter[str]], size: int
    ) -> list[list[int]]:
        neighbor_sets: list[set[int]] = [set() for _ in range(size)]
        for u, v in adjacency:
            if u != v:
                neighbor_sets[u].add(v)
                neighbor_sets[v].add(u)
        return [sorted(s) for s in neighbor_sets]

    def run(self) -> GedResult:
        try:
            self._dfs(0, 0.0)
            complete = True
        except _DeadlineHit:
            complete = False
        if self.best_assign is None:
            raise GedTimeoutError(
                "deadline passed before any complete edit path was found"
            )
        mapping = self._mapping_ids(self.best_assign)
        return GedResult(self.best, complete, mapping)

    def _mapping_ids(
        self, assign: list[int]
    ) -> tuple[tuple[str | None, str | None], ...]:
        pairs: list[tuple[str | None, str | None]] = []
        chosen = set()
        for i, k in enumerate(assign):
            if k == _DELETED:
                pairs.append((self.a_nodes[i].id, None))
            else:
                pairs.append((self.a_nodes[i].id, self.b_nodes[k].id))
                chosen.add(k)
        for k in range(self.m):
            if k not in chosen:
                pairs.append((None, self.b_nodes[k].id))
        return tuple(pairs)

    # -- cost pieces ------------------------------------------------------

    def _pair_edge_cost(self, ca: Counter[str] | None, cb: Counter[str] | None) -> float:
        """Cheapest way to edit one ordered pair's edge multiset into another."""
        size_a = sum(ca.values()) if ca else 0
        size_b = sum(cb.values()) if cb else 0
        if not size_a:
            return self.cm.edge_insert * size_b
        if not size_b:
            return self.cm.edge_delete * size_a
        assert ca is not None and cb is not None
        common = ca & cb
        rest_a = tuple(sorted((ca - common).elements()))
        rest_b = tuple(sorted((cb - common).elements()))
        if not rest_a and not rest_b:
            return 0.0
        key = (rest_a, rest_b)
        cached = self.pair_cache.get(key)
        if cached is None:
            cached = _match_with_ops(self.cm, rest_a, rest_b)[0]
            self.pair_cache[key] = cached
        return cached

    def _substitute_delta(self, i: int, k: int, depth: int) -> float:
        delta = self.sub[i][k]
        relevant = {j for j in self.nbr_a[i] if j < depth}
        for l in self.nbr_b[k]:
            if self.used[l]:
                relevant.add(self.preimage[l])
        for j in relevant:
            l = self.assign[j]
            out_a = self.adj_a.get((i, j))
            in_a = self.adj_a.get((j, i))
            if l == _DELETED:
                size = (sum(out_a.values()) if out_a else 0) + (
                    sum(in_a.values()) if in_a else 0
                )
                delta += self.cm.edge_delete * size
            else:
                delta += self._pair_edge_cost(out_a, self.adj_b.get((k, l)))
                delta += self._pair_edge_cost(in_a, self.adj_b.get((l, k)))
        delta += self._pair_edge_cost(self.adj_a.get((i, i)), self.adj_b.get((k, k)))
        return delta

    def _delete_delta(self, i: int, depth: int) -> float:
        delta = self.cm.node_delete
        total = 0
        for j in self.nbr_a[i]:
            if j >= depth:
                continue
            for key in ((i, j), (j, i)):
                counts = self.adj_a.get(key)
                if counts:
                    total += sum(counts.values())
        loops = self.adj_a.get((i, i))
        if loops:
            total += sum(loops.values())
        return delta + self.cm.edge_delete * total

    # -- admissible lower bound -------------------------------------------

    def _bound(self, depth: int) -> float:
        available = [k for k in range(self.m) if not self.used[k]]
        remaining = self.n - depth
        if remaining and available:
            assert self.sub_np is not None
            block = self.sub_np[depth:, available]
            bound_a = float(np.minimum(block.min(axis=1), self.cm.node_delete).sum())
            bound_b = float(np.minimum(block.min(axis=0), self.cm.node_insert).sum())
        elif remaining:
            bound_a = remaining * self.cm.node_delete
            bound_b = 0.0
        else:
            bound_a = 0.0
            bound_b = len(available) * self.cm.node_insert
        node_bound = max(bound_a, bound_b)

        overlap = sum((self.rest_a & self.rest_b).values())
        edge_bound = self.min_edge_op * (
            max(self.rest_a_total, self.rest_b_total) - overlap
        )
        return node_bound + edge_bound

    # -- bookkeeping of not-yet-charged edges -------------------------------

    def _settle_a(self, i: int, depth: int) -> Counter[str]:
        settled: Counter[str] = Counter()
        for j in self.nbr_a[i]:
            if j >= depth:
                continue
            for key in ((i, j), (j, i)):
                counts = self.adj_a.get(key)
                if counts:
                    settled.update(counts)
        loops = self.adj_a.get((i, i))
        if loops:
            settled.update(loops)
        self.rest_a.subtract(settled)
        self.rest_a_total -= sum(settled.values())
        return settled

    def _settle_b(self, k: int) -> Counter[str]:
        settled: Counter[str] = Counter()
        for l in self.nbr_b[k]:
            if not self.used[l]:
                continue
            for key in ((k, l), (l, k)):
                counts = self.adj_b.get(key)
                if counts:
                    settled.update(counts)
        loops = self.adj_b.get((k, k))
        if loops:
            settled.update(loops)
        self.rest_b.subtract(settled)
        self.rest_b_total -= sum(settled.values())
        return settled

    def _restore(self, rest: Counter[str], settled: Counter[str]) -> int:
        rest.update(settled)
        return sum(settled.values())

    # -- search --------------------------------------------------------------

    def _dfs(self, depth: int, cost: float) -> None:
        if time.monotonic() > self.deadline:
            raise _DeadlineHit
        if depth == self.n:
            total = (
                cost
                + self.cm.node_insert * (self.m - self.matched)
                + self.cm.edge_insert * self.rest_b_total
            )
            if total < self.best:
                self.best = total
                self.best_assign = list(self.assign)
            return
        if cost + self._bound(depth) >= self.best:
            return

        i = depth
        settled_a = self._settle_a(i, depth)
        for k in range(self.m):
            if self.used[k]:
                continue
            new_cost = cost + self._substitute_delta(i, k, depth)
            if new_cost >= self.best:
                continue
            self.assign[i] = k
            self.used[k] = True
            self.preimage[k] = i
            self.matched += 1
            settled_b = self._settle_b(k)
            self._dfs(depth + 1, new_cost)
            self.rest_b_total += self._restore(self.rest_b, settled_b)
            self.matched -= 1
            self.used[k] = False
            self.assign[i] = _DELETED
        new_cost = cost + self._delete_delta(i, depth)
        if new_cost < self.best:
            self.assign[i] = _DELETED
            self._dfs(depth + 1, new_cost)
        self.rest_a_total += self._restore(self.rest_a, settled_a)


def ged_astar(
    a: AUG,
    b: AUG,
    cost_model: CostModel | None = None,
    timeout: float = DEFAULT_TIMEOUT,
) -> GedResult:
    """Minimal edit cost via depth-first search with pruning and a deadline.

    When the search finishes, the cost is the exact minimum under the model;
    when the deadline fires first, the best complete edit path found so far
    is returned with ``complete=False``. Raises ``GedTimeoutError`` only if
    no complete path exists by the deadline.
    """
    a.require_non_empty()
    b.require_non_empty()
    cm = cost_model or default_cost_model()
    deadline = time.monotonic() + timeout
    return _MappingSearch(a, b, cm, deadline).run()


def normalization_denominator(a: AUG, b: AUG, cm: CostModel) -> float:
    return max(a.node_count, b.node_count) * cm.mcost_n + max(
        a.edge_count, b.edge_count
    ) * cm.mcost_e


def _clamp_unit(value: float, context: str) -> float:
    if value > 1.0:
        logger.warning("%s produced %.6f; clamping to 1.0", context, value)
        return 1.0
    return max(0.0, value)


def dist_ged_astar(
    a: AUG,
    b: AUG,
    cost_model: CostModel | None = None,
    timeout: float = DEFAULT_TIMEOUT,
) -> float:
    """Edit cost normalized by the maximum-cost denominator, in [0, 1].

    A timeout without any complete edit path yields the pessimistic 1.0.
    """
    cm = cost_model or default_cost_model()
    a.require_non_empty()
    b.require_non_empty()
    try:
        result = ged_astar(a, b, cm, timeout)
    except GedTimeoutError:
        logger.warning(
            "no complete edit path for %r vs %r within %.3fs; distance set to 1.0",
            a.name,
            b.name,
            timeout,
        )
        return 1.0
    value = result.cost / normalization_denominator(a, b, cm)
    return _clamp_unit(value, "normalized edit distance")


def hungarian_assignment(
    a: AUG, b: AUG, cost_model: CostModel | None = None
) -> tuple[float, list[tuple[str, str]]]:
    """Optimal node-only assignment on the padded bipartite cost matrix.

    Returns the assignment's total cost and the substitution pairs it chose.
    Edge costs are ignored entirely.
    """
    a.require_non_empty()
    b.require_non_empty()
    cm = cost_model or default_cost_model()
    a_nodes = sorted(a.nodes, key=lambda n: n.id)
    b_nodes = sorted(b.nodes, key=lambda n: n.id)
    n, m = len(a_nodes), len(b_nodes)
    matrix = np.full((n + m, m + n), np.inf)
    for i, u in enumerate(a_nodes):
        for k, v in enumerate(b_nodes):
            matrix[i, k] = cm.node_substitute(u, v)
        matrix[i, m + i] = cm.node_delete
    for k in range(m):
        matrix[n + k, k] = cm.node_insert
    matrix[n:, m:] = 0.0
    rows, cols = linear_sum_assignment(matrix)
    cost = float(matrix[rows, cols].sum())
    pairs = [
        (a_nodes[i].id, b_nodes[k].id) for i, k in zip(rows, cols) if i < n and k < m
    ]
    return cost, pairs


def ged_hungarian(a: AUG, b: AUG, cost_model: CostModel | None = None) -> float:
    """Total node-edit cost of the optimal bipartite assignment."""
    return hungarian_assignment(a, b, cost_model)[0]


def dist_ged_hungarian(a: AUG, b: AUG, cost_model: CostModel | None = None) -> float:
    """Bipartite node-assignment cost normalized by node costs only."""
    cm = cost_model or default_cost_model()
    cost = ged_hungarian(a, b, cm)
    value = cost / (max(a.node_count, b.node_count) * cm.mcost_n)
    return _clamp_unit(value, "normalized assignment distance")


def edit_path(a: AUG, b: AUG, result: GedResult, cost_model: CostModel | None = None) -> EditPath:
    """Expand a search result's node mapping into explicit edit operations.

    Node operations come first (decisions on ``a`` nodes in id order, then
    insertions in id order), followed by edge operations pair by pair. The
    listed costs sum to the mapping's total edit cost.
    """
    cm = cost_model or default_cost_model()
    image: dict[str, str | None] = {}
    ops: list[EditOp] = []
    for source_id, target_id in result.mapping:
        if source_id is not None:
            image[source_id] = target_id
        if source_id is None:
            ops.append(EditOp("node-ins", None, (target_id,), cm.node_insert))
        elif target_id is None:
            ops.append(EditOp("node-del", (source_id,), None, cm.node_delete))
        else:
            cost = cm.node_substitute(a.nodes_by_id[source_id], b.nodes_by_id[target_id])
            ops.append(EditOp("node-sub", (source_id,), (target_id,), cost))

    handled_b: set[tuple[str, str]] = set()
    for (u, v), counts in sorted(a.edge_label_counts.items()):
        u_img, v_img = image.get(u), image.get(v)
        if u_img is None or v_img is None:
            for label in sorted(counts.elements()):
                ops.append(EditOp("edge-del", (u, v, label), None, cm.edge_delete))
            continue
        target_counts = b.edge_label_counts.get((u_img, v_img), Counter())
        handled_b.add((u_img, v_img))
        ops.extend(
            _edge_pair_ops(cm, (u, v), counts, (u_img, v_img), target_counts)
        )
    # Remaining target edges were never paired against source edges: either an
    # endpoint is a fresh insertion, or the matched pair simply has no edges
    # on the source side. Both cases are pure edge insertions.
    for (x, y), counts in sorted(b.edge_label_counts.items()):
        if (x, y) in handled_b:
            continue
        for label in sorted(counts.elements()):
            ops.append(EditOp("edge-ins", None, (x, y, label), cm.edge_insert))
    total = sum(op.cost for op in ops)
    return EditPath(tuple(ops), total)


def _edge_pair_ops(
    cm: CostModel,
    source_pair: tuple[str, str],
    counts_a: Counter[str],
    target_pair: tuple[str, str],
    counts_b: Counter[str],
) -> list[EditOp]:
    ops: list[EditOp] = []
    common = counts_a & counts_b
    for label in sorted(common.elements()):
        ops.append(
            EditOp("edge-sub", (*source_pair, label), (*target_pair, label), 0.0)
        )
    rest_a = sorted((counts_a - common).elements())
    rest_b = sorted((counts_b - common).elements())
    _, pairing = _match_with_ops(cm, tuple(rest_a), tuple(rest_b))
    for la, lb in pairing:
        if la is not None and lb is not None:
            ops.append(
                EditOp(
                    "edge-sub",
                    (*source_pair, la),
                    (*target_pair, lb),
                    cm.edge_substitute(la, lb),
                )
            )
        elif la is not None:
            ops.append(EditOp("edge-del", (*source_pair, la), None, cm.edge_delete))
        else:
            assert lb is not None
            ops.append(EditOp("edge-ins", None, (*target_pair, lb), cm.edge_insert))
    return ops


def _match_with_ops(
    cm: CostModel, rest_a: tuple[str, ...], rest_b: tuple[str, ...]
) -> tuple[float, list[tuple[str | None, str | None]]]:
    if not rest_a:
        return cm.edge_insert * len(rest_b), [(None, lb) for lb in rest_b]
    if not rest_b:
        return cm.edge_delete * len(rest_a), [(la, None) for la in rest_a]
    head, tail = rest_a[0], rest_a[1:]
    best_cost, best_ops = _match_with_ops(cm, tail, rest_b)
    best_cost += cm.edge_delete
    best_ops = [(head, None), *best_ops]
    for pick in range(len(rest_b)):
        if pick and rest_b[pick] == rest_b[pick - 1]:
            continue
        sub_cost, sub_ops = _match_with_ops(
            cm, tail, rest_b[:pick] + rest_b[pick + 1 :]
        )
        candidate = cm.edge_substitute(head, rest_b[pick]) + sub_cost
        if candidate < best_cost:
            best_cost = candidate
            best_ops = [(head, rest_b[pick]), *sub_ops]
    return best_cost, best_ops
