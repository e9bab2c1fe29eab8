"""Maximum-common-subgraph distance via the edit-distance machinery.

The common-subgraph view falls out of a cost model that forbids any
substitution between non-identical elements and charges unit cost for every
deletion and insertion: whatever the assignment keeps for free is the shared
subgraph. Infinity is modeled as a finite sentinel strictly larger than the
total delete-plus-insert cost of both graphs. The assignment solver works on
gains (substitution minus deletion minus insertion) clipped at 0, so a
forbidden substitution's gain is 0 and it is never picked as a pair.
"""

from __future__ import annotations

from .ged import CostModel, _assign_nodes, _clamp_unit, hungarian_assignment
from .graphs import AUG, Node


def forbidden_cost(a: AUG, b: AUG) -> float:
    """Finite stand-in for an impossible substitution on this graph pair."""
    return float(a.node_count + b.node_count + a.edge_count + b.edge_count + 1)


def mcs_cost_model(a: AUG, b: AUG) -> CostModel:
    """Identical elements substitute for free, everything else is forbidden."""
    sentinel = forbidden_cost(a, b)

    def node_substitute(u: Node, v: Node) -> float:
        if u.label == v.label and u.node_type == v.node_type:
            return 0.0
        return sentinel

    def edge_substitute(label_a: str, label_b: str) -> float:
        return 0.0 if label_a == label_b else sentinel

    return CostModel(
        node_substitute=node_substitute,
        node_delete=1.0,
        node_insert=1.0,
        edge_substitute=edge_substitute,
        edge_delete=1.0,
        edge_insert=1.0,
        mcost_n=1.0,
        mcost_e=1.0,
    )


def mcs_assignment(a: AUG, b: AUG) -> tuple[float, list[tuple[str, str]]]:
    """Node-only assignment cost and the identical pairs it matched."""
    return hungarian_assignment(a, b, mcs_cost_model(a, b))


def dist_mcs_hungarian(a: AUG, b: AUG) -> float:
    """Common-subgraph distance from the node-only assignment, in [0, 1].

    Normalized by the larger node count; the delete-plus-insert cost of two
    disjoint graphs can exceed that denominator, hence the clamp.
    """
    cost = _assign_nodes(a, b, mcs_cost_model(a, b))[0]
    value = cost / max(a.node_count, b.node_count)
    return _clamp_unit(value, "common-subgraph distance")
