"""Maximum-common-subgraph distance via the edit-distance machinery.

The common-subgraph view falls out of a cost model that forbids any
substitution between non-identical elements and charges unit cost for every
deletion and insertion: whatever the assignment keeps for free is the shared
subgraph. A forbidden substitution costs ``math.inf``, so its gain is never
negative and the assignment pairs only nodes of equal type and label.
"""

from __future__ import annotations

import functools
import math

from .ged import CostModel, dist_ged_hungarian, hungarian_assignment
from .graphs import AUG


@functools.cache
def mcs_cost_model() -> CostModel:
    """Identical elements substitute for free, everything else is forbidden."""
    return CostModel(
        node_relabel=math.inf,
        node_retype=math.inf,
        node_delete=1.0,
        node_insert=1.0,
        edge_relabel=math.inf,
        edge_delete=1.0,
        edge_insert=1.0,
        mcost_n=1.0,
        mcost_e=1.0,
    )


def mcs_assignment(a: AUG, b: AUG) -> tuple[float, list[tuple[str, str]]]:
    """Node-only assignment cost and the identical pairs it matched."""
    return hungarian_assignment(a, b, mcs_cost_model())


def dist_mcs_hungarian(a: AUG, b: AUG) -> float:
    """Common-subgraph distance from the node-only assignment, in [0, 1].

    The node-assignment distance under ``mcs_cost_model``, normalized by the
    larger node count; the delete-plus-insert cost of two disjoint graphs
    can exceed that denominator, hence the clamp.
    """
    return dist_ged_hungarian(a, b, mcs_cost_model())
