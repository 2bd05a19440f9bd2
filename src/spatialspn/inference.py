"""MPE inference on the max-product view of a network.

MPE evaluates the network itself with max in place of sum at every sum
node, so weight updates show through without any conversion. The backtrack
walks the selected tree top-down, counting how often each edge is
traversed; those counts drive the discriminative weight gradient.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolationError, TraversalMismatchError
from .network import (
    PART,
    PRODUCT,
    SPATIAL,
    SUM,
    EvaluationResult,
    IndicatorValues,
    Network,
    max_evaluate,
)
from .spatial import Relation

TIE_TOLERANCE = 1e-12


@dataclass
class TraversalCounts:
    """Per-edge traversal counts from one MPE backtrack.

    When a node is reached k times through a shared parent structure, each of
    its selected outgoing edges accumulates k.
    """

    network: Network
    counts: np.ndarray


def traversal_difference(counts_pos: TraversalCounts, counts_neg: TraversalCounts) -> dict[int, int]:
    """Sparse elementwise difference t_pos - t_neg; absent edges are zero."""
    if counts_pos.network is not counts_neg.network:
        raise TraversalMismatchError("traversal counts come from different networks")
    delta = counts_pos.counts.astype(np.int64) - counts_neg.counts.astype(np.int64)
    return {int(e): int(delta[e]) for e in np.flatnonzero(delta)}


@dataclass
class MpeResult:
    assignment: IndicatorValues
    root_log_value: float
    root_value: float
    traversal: TraversalCounts
    evaluation: EvaluationResult
    unconstrained: set = field(default_factory=set)


def _check_query_marginalized(evidence: IndicatorValues, query) -> None:
    for var in query:
        kind, key = var
        if kind == "part":
            if not evidence.is_part_marginalized(key):
                raise ContractViolationError(
                    f"query part {key} must be marginalized in the evidence"
                )
        elif kind == "pair":
            if not evidence.is_pair_marginalized(key):
                raise ContractViolationError(
                    f"query pair {key} must be marginalized in the evidence"
                )
        else:
            raise ContractViolationError(f"unknown variable kind {kind!r}")


def _backtrack(network: Network, log_values: np.ndarray):
    """Top-down traversal of the selected tree.

    Max nodes follow their argmax child (ties broken by lowest child id with
    an absolute tolerance on the log score); product nodes follow all
    children. Node counts propagate multiplicatively through shared nodes.
    """
    with np.errstate(divide="ignore"):
        logw = np.log(network.edge_weight)
    node_counts = np.zeros(network.num_nodes, dtype=np.int64)
    edge_counts = np.zeros(network.num_edges, dtype=np.int64)
    node_counts[network.root] = 1
    order = network.topological_order()[::-1]  # parents before children
    for node in order:
        count = node_counts[node]
        if count == 0:
            continue
        nd = network.nodes[node]
        if nd.kind == PRODUCT:
            edges = network.child_edges(int(node))
            edge_counts[edges] += count
            np.add.at(node_counts, network.edge_child[edges], count)
        elif nd.kind == SUM:
            edges = network.child_edges(int(node))
            scores = logw[edges] + log_values[network.edge_child[edges]]
            best = scores.max()
            candidates = edges[scores >= best - TIE_TOLERANCE]
            children = network.edge_child[candidates]
            chosen = candidates[np.argmin(children)]
            edge_counts[chosen] += count
            node_counts[network.edge_child[chosen]] += count
    return node_counts, edge_counts


def mpe(network: Network, evidence: IndicatorValues, query=()) -> MpeResult:
    """Bottom-up max evaluation followed by a top-down argmax backtrack.

    Query variables must be marginalized in the evidence; the completed
    assignment resolves them to the polarity or relation whose leaf the
    selected tree reached. A query variable whose leaves the tree never
    touches gets the default (positive polarity, no relation set) and is
    listed in `unconstrained`.
    """
    query = list(query)
    _check_query_marginalized(evidence, query)

    result = max_evaluate(network, evidence)
    node_counts, edge_counts = _backtrack(network, result.log_values)

    part_hits: dict[int, dict[bool, int]] = {}
    pair_hits: dict[tuple, dict[Relation, int]] = {}
    for nid in network.leaf_ids():
        count = int(node_counts[nid])
        if count == 0:
            continue
        nd = network.nodes[nid]
        if nd.kind == PART:
            part_hits.setdefault(nd.part, {}).setdefault(nd.positive, 0)
            part_hits[nd.part][nd.positive] += count
        elif nd.kind == SPATIAL:
            pair_hits.setdefault(nd.pair, {}).setdefault(nd.relation, 0)
            pair_hits[nd.pair][nd.relation] += count

    assignment = evidence.copy()
    unconstrained = set()
    for var in query:
        kind, key = var
        if kind == "part":
            hits = part_hits.get(key)
            if not hits:
                assignment.set_part(key, True)
                unconstrained.add(var)
            else:
                # prefer the polarity reached most often; positive on ties
                positive = hits.get(True, 0) >= hits.get(False, 0)
                assignment.set_part(key, positive)
        else:
            hits = pair_hits.get(key)
            if not hits:
                assignment.set_pair(key, (0.0, 0.0, 0.0, 0.0))
                unconstrained.add(var)
            else:
                best = max(hits.items(), key=lambda kv: (kv[1], -int(kv[0])))[0]
                values = [0.0, 0.0, 0.0, 0.0]
                values[int(best)] = 1.0
                assignment.set_pair(key, values)

    return MpeResult(
        assignment=assignment,
        root_log_value=result.root_log_value,
        root_value=result.root_value,
        traversal=TraversalCounts(network, edge_counts),
        evaluation=result,
        unconstrained=unconstrained,
    )
