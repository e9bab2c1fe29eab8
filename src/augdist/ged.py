"""Graph edit distance between usage graphs.

Two route families over a shared cost model: an exact-leaning depth-first
branch-and-bound search over node mappings, which tries children by cost
plus admissible bound under a wall-clock deadline, and the bipartite
node-assignment approximation of Riesen & Bunke (2009), node costs only.
The approximation's cost is a closed form over each graph's node-class
counts (``AUG.node_class_counts``, counted once per graph); only its pairs
need ``_assign``.

Nodes and edges share one assignment, ``_assign``, which needs no solver. A
partial matching of n items against m costs ``n·delete + m·insert + Σ
gain``, ``gain = substitute - delete - insert``, and a substitution's price
depends only on the longest prefix the two class keys share: ``(node_type,
label)`` for nodes, ``(label,)`` for edges. These classes nest and prices
grow outward, so pairing the most items within each full-key class, then
within each shorter prefix among the leftovers, makes the most pairs share
every prefix length at once. Stopping at the first length whose gain is
not negative gives the optimum over all partial matchings.

The search's distance has a table form, ``dist_ged_astar_many``, which runs
one search per reference and distinct entry content and fills every cell of
that content from it; ``dist_ged_astar`` is its one-cell table, so the
normalization, the clamp and the fallback counts have one home.
"""

from __future__ import annotations

import functools
import logging
import math
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

from . import fallbacks
from .graphs import AUG, Node

logger = logging.getLogger(__name__)

DEFAULT_TIMEOUT = 15.0

_DELETED = -1


@dataclass(frozen=True)
class CostModel:
    """Edit-operation costs driving both distance variants.

    Nodes of equal type and label substitute for 0, of equal type only for
    ``node_relabel``, and otherwise for ``node_retype``. Edges, whose
    endpoints the node mapping fixes, substitute for 0 if their labels are
    equal and for ``edge_relabel`` otherwise. ``math.inf`` forbids a
    substitution; every other cost is finite. Costs are non-negative and
    ``node_relabel <= node_retype``, which makes ``_assign`` exact.

    ``mcost_n`` and ``mcost_e`` are the per-node and per-edge maximum costs
    used by the distance normalizations, and must be positive.
    """

    node_relabel: float
    node_retype: float
    node_delete: float
    node_insert: float
    edge_relabel: float
    edge_delete: float
    edge_insert: float
    mcost_n: float
    mcost_e: float

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if not value >= 0.0:
                raise ValueError(f"{name} must be a non-negative number, not {value!r}")
            if value == math.inf and name not in ("node_relabel", "node_retype", "edge_relabel"):
                raise ValueError(f"{name} must be finite; only substitutions may be forbidden")
        if self.node_relabel > self.node_retype:
            raise ValueError("node_relabel must not exceed node_retype")
        for name in ("mcost_n", "mcost_e"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive: the distances divide by it")

    def node_substitute(self, u: Node, v: Node) -> float:
        if u.node_type != v.node_type:
            return self.node_retype
        return 0.0 if u.label == v.label else self.node_relabel

    def edge_substitute(self, label_a: str, label_b: str) -> float:
        return 0.0 if label_a == label_b else self.edge_relabel


@functools.cache
def default_cost_model() -> CostModel:
    """Uniform cost model: relabel 1, retype 2, every delete/insert 2."""
    return CostModel(
        node_relabel=1.0,
        node_retype=2.0,
        node_delete=2.0,
        node_insert=2.0,
        edge_relabel=2.0,
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


class _DeadlineHit(Exception):
    pass


class SearchTables(NamedTuple):
    """One graph's tables for the exact search: all that it reads of the
    target graph, and the node keys and edges it reads of the source too.

    Nodes are numbered as in ``AUG.nodes_in_id_order``. The tables are
    read-only, since the graph is shared; ``AUG.search_tables`` builds them
    once per graph. Two graphs with equal ``keys`` and ``edges`` cost the
    same to reach from any source, which ``dist_ged_astar_many`` uses.
    """

    keys: tuple[tuple[str, str], ...]  # (node_type, label) of each node
    # edges[i][j]: the sorted labels of the edges from node i to node j
    edges: tuple[tuple[tuple[str, ...], ...], ...]
    # Each node's other neighbours, with the labels of its edges with each
    # of them, and every edge as (source, target, label) in label order.
    links: tuple[tuple[tuple[int, tuple[str, ...]], ...], ...]
    arcs: tuple[tuple[int, int, str], ...]


class SourceTables(NamedTuple):
    """The tables the exact search reads only of the source graph, whose
    node i it decides at depth i. ``AUG.source_tables`` builds them once per
    graph, and only for a graph searched as the source.
    """

    # Deciding node i settles its loops and its edges with its earlier
    # neighbours, ``settled[i]`` edges.
    earlier: tuple[tuple[int, ...], ...]
    settled: tuple[int, ...]
    # At depth d the source edges left to charge are those with a node >= d.
    # anchored[d][u], for each u < d: the sorted labels of u's edges to and
    # from nodes >= d; among[d]: those of the edges among nodes >= d.
    anchored: tuple[tuple[tuple[tuple[str, ...], tuple[str, ...]], ...], ...]
    among: tuple[tuple[str, ...], ...]


def search_tables(graph: AUG) -> SearchTables:
    """Build ``graph``'s search tables; ``graph.search_tables`` caches them."""
    nodes = graph.nodes_in_id_order
    size = len(nodes)
    index = {node.id: i for i, node in enumerate(nodes)}
    arcs = tuple(sorted(
        ((index[edge.source], index[edge.target], edge.label) for edge in graph.edges),
        key=lambda arc: arc[2],
    ))
    # arcs come in label order, so each pair's labels are gathered sorted
    rows: list[list[tuple[str, ...]]] = [[()] * size for _ in nodes]
    for i, j, x in arcs:
        rows[i][j] += (x,)
    edges = tuple(map(tuple, rows))
    return SearchTables(
        keys=tuple((node.node_type, node.label) for node in nodes),
        edges=edges,
        links=tuple(
            tuple((l, pair) for l in range(size) if l != k and (pair := edges[k][l] + edges[l][k]))
            for k in range(size)
        ),
        arcs=arcs,
    )


def source_tables(graph: AUG) -> SourceTables:
    """Build ``graph``'s source tables; ``graph.source_tables`` caches them."""
    edges, arcs = graph.search_tables.edges, graph.search_tables.arcs
    size = len(edges)
    earlier = tuple(
        tuple(j for j in range(i) if edges[i][j] or edges[j][i]) for i in range(size)
    )
    outs: list[list[tuple[int, str]]] = [[] for _ in edges]
    ins: list[list[tuple[int, str]]] = [[] for _ in edges]
    for i, j, x in arcs:
        outs[i].append((j, x))
        ins[j].append((i, x))
    return SourceTables(
        earlier=earlier,
        settled=tuple(
            len(edges[i][i]) + sum(len(edges[i][j]) + len(edges[j][i]) for j in before)
            for i, before in enumerate(earlier)
        ),
        anchored=tuple(
            tuple(
                (tuple(x for j, x in outs[u] if j >= d), tuple(x for j, x in ins[u] if j >= d))
                for u in range(d)
            )
            for d in range(size)
        ),
        among=tuple(tuple(x for i, j, x in arcs if i >= d and j >= d) for d in range(size)),
    )


def _surplus(counts_a: dict, counts_b: dict) -> dict:
    """``counts_a[key] - counts_b[key]`` over the union of keys."""
    surplus = dict.fromkeys(counts_b, 0)
    surplus.update(counts_a)
    for key, count in counts_b.items():
        surplus[key] -= count
    return surplus


def _overlap(counts_a: dict, counts_b: dict) -> int:
    """``Σ min(counts_a[key], counts_b[key])`` over the keys both count."""
    overlap = 0
    for key in counts_a.keys() & counts_b.keys():
        x, y = counts_a[key], counts_b[key]
        overlap += x if x < y else y
    return overlap


def _node_costs(cm: CostModel) -> tuple[float, float, float]:
    """``cm.node_substitute`` by the length of the class-key prefix two
    nodes share: 0 (nothing), 1 (the type) or 2 (type and label). The search
    and the node assignments read node substitution prices only here."""
    return (cm.node_retype, cm.node_relabel, 0.0)


def _node_gains(cm: CostModel) -> tuple[float, float, float]:
    """``_assign``'s node gains, clamped at 0: what substituting two nodes
    of one (type, label) class, of one type only, or of neither costs more
    than deleting one and inserting the other, computed as ``_assign``
    computes them."""
    retype, relabel, same = _node_costs(cm)
    spare = cm.node_delete + cm.node_insert
    return (min(same - spare, 0.0), min(relabel - spare, 0.0), min(retype - spare, 0.0))


@functools.lru_cache(maxsize=4)
def _pair_costs(cm: CostModel) -> Callable[[tuple[str, ...], tuple[str, ...]], float]:
    """``_pair_edge_cost`` under one model, memoized across searches.

    Both caches are bounded, so a long-lived process that meets ever new
    models or label tuples keeps at most ``4 * 2**14`` costs.
    """
    return functools.lru_cache(maxsize=1 << 14)(functools.partial(_pair_edge_cost, cm))


class _MappingSearch:
    """Depth-first branch-and-bound over node mappings.

    Nodes of ``a`` are decided in ascending-id order; each is matched to an
    unused node of ``b`` or deleted, with insertion of leftover ``b`` nodes
    at the leaves. Edge costs are charged when the second endpoint of an
    edge is decided, so the accumulated cost of a partial mapping covers
    exactly the edges whose fate is fixed.

    The per-graph tables come from ``AUG.search_tables`` (both graphs) and
    ``AUG.source_tables`` (``a`` only), and the class counts from
    ``AUG.node_class_counts``, each built once per graph and run:
    each ordered node pair's edges are a sorted tuple of label strings, on
    which a pair's edit cost is memoized per cost model. Node ``i`` of
    ``a`` is always decided at depth ``i``, so the ``a`` edges
    that deciding it settles (those with earlier nodes, and its loops) are
    fixed up front; only ``b``'s settled edges depend on the mapping. A
    search builds only two surplus dicts.

    The remaining cost is bounded from below by the exact cost of
    ``_assign`` over (a) the undecided source nodes against the unused
    target nodes and (b) the uncharged edges' labels, block by block. An
    uncharged source edge between a decided node ``u`` and an undecided one
    can only become a target edge in the same direction between ``u``'s
    image and an unused node, or be deleted with ``u``; an edge among the
    undecided nodes can only become one among the unused nodes. These
    blocks split both sides' uncharged edges, so the edge operations still
    to come are a matching within each block (Riesen, Fankhauser & Bunke
    2007; Blumenthal & Gamper 2018). No matching beats its assignment,
    under any cost model, and summing the blocks is never below pooling
    them. At the root the only block is all edges. The source blocks depend
    only on the depth and come from the tables; the target blocks are
    gathered from ``b``'s edges at each call, and each is priced by the
    memoized pair cost. The node assignment has a closed form over class
    counts: with ``full``, ``typed`` and ``any`` the most node pairs that
    can share a (type, label) class, a type, or nothing, it pairs that many
    at each gain. ``full`` and ``typed`` are each a ``Σ min(x, y)`` of a
    source-side count ``x`` and a target-side count ``y`` per key. One
    ``min(x, y)`` drops by one when ``x`` drops while ``x <= y``, or ``y``
    drops while ``y <= x``, so each sum is kept as an int updated from the
    surplus ``x - y`` where a count changes. Each step saves the ints it
    changes and assigns them back on backtrack. Both bounds underestimate,
    so a search that runs to completion is exact.

    ``best`` starts at the cost the search charges for ``_assign``'s class
    pairing. Each node bounds all its children, a deletion among them, then
    expands them by ascending cost plus bound until that sum reaches
    ``best``, so the first descent is a greedy dive (as in DF-GED, Abu-Aisheh
    et al. 2015). A leaf replaces ``best`` only if strictly cheaper.
    """

    def __init__(self, a: AUG, b: AUG, cm: CostModel, deadline: float) -> None:
        self.cm = cm
        self.deadline = deadline
        self.a_nodes = a.nodes_in_id_order
        self.b_nodes = b.nodes_in_id_order
        self.n = len(self.a_nodes)
        self.m = len(self.b_nodes)

        ta, tb, sa = a.search_tables, b.search_tables, a.source_tables
        self.pair_cost = _pair_costs(cm)
        self.edges_a, self.edges_b = ta.edges, tb.edges
        self.earlier_a, self.anchored_a, self.among_a = sa.earlier, sa.anchored, sa.among
        self.delete_a = [cm.node_delete + cm.edge_delete * settled for settled in sa.settled]
        self.links_b, self.arcs_b = tb.links, tb.arcs
        self.key_a, self.key_b = ta.keys, tb.keys

        self.node_costs = _node_costs(cm)
        self.gain_full, self.gain_typed, self.gain_any = _node_gains(cm)
        # The source counts are of the undecided nodes, the target counts of
        # the unused nodes.
        (classes_a, types_a), (classes_b, types_b) = a.node_class_counts, b.node_class_counts
        self.class_surplus = _surplus(classes_a, classes_b)
        self.type_surplus = _surplus(types_a, types_b)
        self.full, self.typed = _overlap(classes_a, classes_b), _overlap(types_a, types_b)
        self.rest_b_total = b.edge_count  # the uncharged target edges

        self.assign = [_DELETED] * self.n
        self.used = [False] * self.m
        self.preimage = [_DELETED] * self.m
        self.matched = 0
        self.best = float("inf")
        self.best_assign: list[int] | None = None

    def run(self) -> GedResult:
        self._seed()
        self.bound = self._bound(0)
        try:
            self._dfs(0, 0.0)
            complete = True
        except _DeadlineHit:
            complete = False
        assert self.best_assign is not None
        return GedResult(self.best, complete, self._mapping_ids(self.best_assign))

    def _seed(self) -> None:
        """Walk the class-greedy node pairing down to its leaf as the search
        would, so ``best`` starts at the cost the search charges for it."""
        cm = self.cm
        pairs = _assign(self.key_a, self.key_b, self.node_costs, cm.node_delete, cm.node_insert)[1]
        image = dict(pairs)
        cost, taken = 0.0, []
        for i in range(self.n):
            k = image.get(i, _DELETED)
            cost += self.delete_a[i] if k == _DELETED else self._substitute_delta(i, k)
            taken.append((i, k, self._take(i, k)))
        self._leaf(cost)
        for step in reversed(taken):
            self._give_back(*step)

    def _mapping_ids(
        self, assign: list[int]
    ) -> tuple[tuple[str | None, str | None], ...]:
        b_ids, chosen = [v.id for v in self.b_nodes], set(assign)
        return (
            *((u.id, None if k == _DELETED else b_ids[k]) for u, k in zip(self.a_nodes, assign)),
            *((None, v_id) for k, v_id in enumerate(b_ids) if k not in chosen),
        )

    # -- cost pieces ------------------------------------------------------

    def _substitute_delta(self, i: int, k: int) -> float:
        ea, eb, pair_cost, assign = self.edges_a, self.edges_b, self.pair_cost, self.assign
        u, v = self.key_a[i], self.key_b[k]
        delta = self.node_costs[(u[0] == v[0]) + (u == v)]
        for j in self.earlier_a[i]:
            l = assign[j]
            if l == _DELETED:
                delta += self.cm.edge_delete * (len(ea[i][j]) + len(ea[j][i]))
            else:
                delta += pair_cost(ea[i][j], eb[k][l])
                delta += pair_cost(ea[j][i], eb[l][k])
        # The other used neighbours' preimages share no edge with i, so their
        # edges with k are inserted.
        used, preimage = self.used, self.preimage
        for l, pair in self.links_b[k]:
            if used[l] and not (ea[i][j := preimage[l]] or ea[j][i]):
                delta += self.cm.edge_insert * len(pair)
        delta += pair_cost(ea[i][i], eb[k][k])
        return delta

    # -- admissible lower bound -------------------------------------------

    def _node_bound(self, depth: int) -> float:
        """``_assign``'s cost over the undecided source nodes and the unused target nodes."""
        n_left = self.n - depth
        m_free = self.m - self.matched
        paired = min(n_left, m_free)
        return (
            n_left * self.cm.node_delete
            + m_free * self.cm.node_insert
            + self.full * self.gain_full
            + (self.typed - self.full) * self.gain_typed
            + (paired - self.typed) * self.gain_any
        )

    def _bound(self, depth: int) -> float:
        """``_node_bound`` plus ``_assign``'s cost over each block of the
        uncharged edges: the free block, then each decided source node's
        edges out and in.

        The target's out and in blocks are gathered into dicts keyed by the
        used node they hang from, so a call builds only the blocks that
        hold edges. A decided node whose four blocks are all empty is not
        priced: its sum would be exactly 0.0, so the bound is the same float.
        """
        if depth == self.n:  # a leaf: exactly what ``_leaf`` adds
            return self._node_bound(depth) + self.cm.edge_insert * self.rest_b_total
        used = self.used
        out_b: dict[int, list[str]] = {}
        in_b: dict[int, list[str]] = {}
        free_b = []
        for k, l, x in self.arcs_b:
            if used[k]:
                if not used[l]:
                    out_b.setdefault(k, []).append(x)
            elif used[l]:
                in_b.setdefault(l, []).append(x)
            else:
                free_b.append(x)
        pair_cost = self.pair_cost
        bound = self._node_bound(depth) + pair_cost(self.among_a[depth], tuple(free_b))
        # A deleted node (_DELETED) has no target blocks, so its source
        # blocks are priced as deletions.
        for (out_a, in_a), k in zip(self.anchored_a[depth], self.assign):
            out_k, in_k = out_b.get(k, ()), in_b.get(k, ())
            if out_a or in_a or out_k or in_k:
                bound += pair_cost(out_a, tuple(out_k)) + pair_cost(in_a, tuple(in_k))
        return bound

    # -- search --------------------------------------------------------------

    def _leaf(self, cost: float) -> None:
        """Insert the unused target nodes and their edges; keep the total if best."""
        total = (
            cost
            + self.cm.node_insert * (self.m - self.matched)
            + self.cm.edge_insert * self.rest_b_total
        )
        if total < self.best:
            self.best = total
            self.best_assign = list(self.assign)

    def _take(self, i: int, k: int) -> tuple[int, int, int]:
        """Map source node ``i`` to target node ``k``; a deletion (``k`` is
        ``_DELETED``) changes nothing. Returns what ``_give_back`` restores."""
        saved = self.full, self.typed, self.rest_b_total
        if k != _DELETED:
            used, classes, types = self.used, self.class_surplus, self.type_surplus
            self.assign[i] = k
            used[k] = True
            self.preimage[k] = i
            self.matched += 1
            key = self.key_b[k]
            classes[key] += 1
            if classes[key] > 0:
                self.full -= 1
            types[key[0]] += 1
            if types[key[0]] > 0:
                self.typed -= 1
            self.rest_b_total -= len(self.edges_b[k][k])
            for l, pair in self.links_b[k]:
                if used[l]:
                    self.rest_b_total -= len(pair)
        return saved

    def _give_back(self, i: int, k: int, saved: tuple[int, int, int]) -> None:
        """Undo ``_take(i, k)``, the last step taken, which returned ``saved``."""
        if k != _DELETED:
            key = self.key_b[k]
            self.class_surplus[key] -= 1
            self.type_surplus[key[0]] -= 1
            self.matched -= 1
            self.used[k] = False
            self.assign[i] = _DELETED
        self.full, self.typed, self.rest_b_total = saved

    def _dfs(self, depth: int, cost: float) -> None:
        """Expand a partial mapping whose ``_bound`` is in ``self.bound``."""
        if time.monotonic() > self.deadline:
            raise _DeadlineHit
        if depth == self.n:
            self._leaf(cost)
            return
        if cost + self.bound >= self.best:
            return

        # Node i leaves the undecided source nodes: a source count drops.
        i = depth
        used, classes, types = self.used, self.class_surplus, self.type_surplus
        key = self.key_a[i]
        kind = key[0]
        saved_a = self.full, self.typed
        classes[key] -= 1
        if classes[key] < 0:
            self.full -= 1
        types[kind] -= 1
        if types[kind] < 0:
            self.typed -= 1

        children, delete = [], self.delete_a[i]
        for k in [k for k in range(self.m) if not used[k]] + [_DELETED]:
            new_cost = cost + (delete if k == _DELETED else self._substitute_delta(i, k))
            if new_cost < self.best:
                saved_b = self._take(i, k)
                bound = self._bound(depth + 1)
                self._give_back(i, k, saved_b)
                children.append((new_cost + bound, new_cost, k, bound))
        children.sort()
        for total, new_cost, k, self.bound in children:
            if total >= self.best:
                break
            saved_b = self._take(i, k)
            self._dfs(depth + 1, new_cost)
            self._give_back(i, k, saved_b)

        types[kind] += 1
        classes[key] += 1
        self.full, self.typed = saved_a


def _pair_edge_cost(cm: CostModel, ta: tuple[str, ...], tb: tuple[str, ...]) -> float:
    """Cheapest edit of one pair's edges, sorted label tuples, into another's."""
    if not ta:
        return cm.edge_insert * len(tb)
    if not tb:
        return cm.edge_delete * len(ta)
    if ta == tb:
        return 0.0
    keys_a, keys_b = [(x,) for x in ta], [(y,) for y in tb]
    return _assign(keys_a, keys_b, (cm.edge_relabel, 0.0), cm.edge_delete, cm.edge_insert)[0]


def ged_astar(
    a: AUG,
    b: AUG,
    cost_model: CostModel | None = None,
    timeout: float = DEFAULT_TIMEOUT,
) -> GedResult:
    """Minimal edit cost via depth-first search with pruning and a deadline.

    When the search finishes, the cost is the exact minimum under the model;
    when the deadline fires first, the best complete edit path found so far
    is returned with ``complete=False``. The search holds a complete path
    from its start, the class-greedy seed, so a deadline that has passed
    before the first expansion returns that path. A NaN ``timeout`` raises
    ``ValueError``, since no deadline would ever pass.
    """
    if math.isnan(timeout):
        raise ValueError("timeout must not be NaN")
    cm = cost_model or default_cost_model()
    deadline = time.monotonic() + timeout
    return _MappingSearch(a, b, cm, deadline).run()


def normalization_denominator(a: AUG, b: AUG, cm: CostModel) -> float:
    return max(a.node_count, b.node_count) * cm.mcost_n + max(
        a.edge_count, b.edge_count
    ) * cm.mcost_e


def _clamp_unit(value: float, context: str) -> float:
    if value > 1.0:
        logger.debug("%s produced %.6f; clamping to 1.0", context, value)
        fallbacks.note(fallbacks.CLAMPED)
        return 1.0
    return max(0.0, value)


def dist_ged_astar(
    a: AUG,
    b: AUG,
    cost_model: CostModel | None = None,
    timeout: float = DEFAULT_TIMEOUT,
) -> float:
    """Edit cost normalized by the maximum-cost denominator, in [0, 1]: the
    one-cell ``dist_ged_astar_many``.

    A search stopped at the deadline gives the cost of the best edit path it
    found, counted as a ``fallbacks.STOPPED`` fallback. A NaN ``timeout``
    raises ``ValueError``, as in ``ged_astar``.
    """
    return dist_ged_astar_many((a,), (b,), cost_model, timeout)[0][0]


def dist_ged_astar_many(
    references: Sequence[AUG],
    entries: Sequence[AUG],
    cost_model: CostModel | None = None,
    timeout: float = DEFAULT_TIMEOUT,
) -> list[list[float]]:
    """``dist_ged_astar(reference, entry)`` for each reference (a row) and
    each entry (a column).

    Entries whose search tables hold equal ``keys`` and ``edges`` cost the
    same to reach from any reference, so each row runs one search per
    distinct entry content and fills each of its cells from that search.
    Each cell still counts its own fallbacks: a ``fallbacks.STOPPED`` one if
    its search stopped at the deadline, a ``fallbacks.CLAMPED`` one if its
    value clamps. Nothing is kept past the call.
    """
    cm = cost_model or default_cost_model()
    columns: dict[tuple, int] = {}  # search content -> its index among a row's searches
    column_of = [
        columns.setdefault((entry.search_tables.keys, entry.search_tables.edges), len(columns))
        for entry in entries
    ]
    searched = list(dict(zip(column_of, entries)).values())  # an entry of each content
    rows = []
    for reference in references:
        results = [ged_astar(reference, entry, cm, timeout) for entry in searched]
        row = []
        for entry, column in zip(entries, column_of):
            result = results[column]
            if not result.complete:
                logger.debug(
                    "search for %r vs %r stopped at its %.3fs deadline; best edit path found used",
                    reference.name,
                    entry.name,
                    timeout,
                )
                fallbacks.note(fallbacks.STOPPED)
            value = result.cost / normalization_denominator(reference, entry, cm)
            row.append(_clamp_unit(value, "normalized edit distance"))
        rows.append(row)
    return rows


def _assign(
    keys_a: Sequence[tuple], keys_b: Sequence[tuple], costs: Sequence[float],
    delete: float, insert: float,
) -> tuple[float, list[tuple[int, int]]]:
    """Cheapest partial matching of n keyed items against m.

    Substituting two items whose keys share a prefix of exactly length d
    costs ``costs[d]``, which must not grow with d; an unmatched row costs
    ``delete`` and an unmatched column ``insert``. Returns the total cost
    and the sorted substituted (row, column) pairs, lowest indices paired
    first within a class.
    """
    cost = len(keys_a) * delete + len(keys_b) * insert
    pairs: list[tuple[int, int]] = []
    rest_a, rest_b = list(range(len(keys_a))), list(range(len(keys_b)))
    for depth in reversed(range(len(costs))):
        gain = costs[depth] - (delete + insert)
        if not gain < 0.0:
            break
        waiting: dict[tuple, list[int]] = {}
        for i in reversed(rest_a):
            waiting.setdefault(keys_a[i][:depth], []).append(i)
        unpaired_b = []
        for k in rest_b:
            rows = waiting.get(keys_b[k][:depth])
            if rows:
                pairs.append((rows.pop(), k))
                cost += gain
            else:
                unpaired_b.append(k)
        rest_a = sorted(i for rows in waiting.values() for i in rows)
        rest_b = unpaired_b
    pairs.sort()
    return cost, pairs


def hungarian_assignment(
    a: AUG, b: AUG, cost_model: CostModel | None = None
) -> tuple[float, list[tuple[str, str]]]:
    """The optimal node-only assignment's pairs, computed class by class
    over both graphs' nodes in id order.

    Returns the assignment's total cost, equal to ``ged_hungarian``'s, and
    the substitution pairs it chose, each costing less than a deletion plus
    an insertion. A substitution costing exactly that is reported as a
    deletion and an insertion instead; the cost is the same. Edge costs are
    ignored entirely.
    """
    cm = cost_model or default_cost_model()
    a_nodes, b_nodes = a.nodes_in_id_order, b.nodes_in_id_order
    keys_a, keys_b = ([(u.node_type, u.label) for u in nodes] for nodes in (a_nodes, b_nodes))
    cost, pairs = _assign(keys_a, keys_b, _node_costs(cm), cm.node_delete, cm.node_insert)
    return cost, [(a_nodes[i].id, b_nodes[k].id) for i, k in pairs]


def ged_hungarian(a: AUG, b: AUG, cost_model: CostModel | None = None) -> float:
    """Total node-edit cost of the optimal bipartite assignment, in closed
    form from both graphs' ``node_class_counts``, without building pairs.

    The optimum pairs as many nodes as can share a (type, label) class at
    the class gain, as many more as can share a type at the type gain, and
    the rest of the smaller graph at the last gain, stopping at the first
    gain that saves nothing. Each gain is added once per pair in that order,
    as ``_assign`` adds it, so the cost equals ``hungarian_assignment``'s to
    the last bit under every model.
    """
    cm = cost_model or default_cost_model()
    n, m = a.node_count, b.node_count
    counts_a, counts_b = a.node_class_counts, b.node_class_counts
    cost = n * cm.node_delete + m * cm.node_insert
    paired = 0
    # Levels 0 and 1 are the class and the type counts; any two nodes pair at 2.
    for level, gain in enumerate(_node_gains(cm)):
        if not gain < 0.0:
            break
        most = _overlap(counts_a[level], counts_b[level]) if level < 2 else min(n, m)
        for _ in range(most - paired):
            cost += gain
        paired = most
    return cost


def dist_ged_hungarian(a: AUG, b: AUG, cost_model: CostModel | None = None) -> float:
    """Bipartite node-assignment cost normalized by node costs only."""
    cm = cost_model or default_cost_model()
    cost = ged_hungarian(a, b, cm)
    value = cost / (max(a.node_count, b.node_count) * cm.mcost_n)
    return _clamp_unit(value, "normalized assignment distance")
