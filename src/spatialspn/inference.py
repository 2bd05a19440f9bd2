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
    PRODUCT,
    SUM,
    EvaluationResult,
    IndicatorValues,
    Network,
    max_evaluate,
)

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

    assignment = evidence.copy()
    unconstrained = set()
    if query:
        table = network._leaf_slots()
        # zero slots past the end stand in for variables the network lacks
        hits = np.zeros(table.size + 4, dtype=np.int64)
        np.add.at(hits, table.slots, node_counts[table.leaves])
    for var in query:
        kind, key = var
        base = table.base.get(var, table.size)
        # the polarity or relation reached most often wins; ties go to the
        # positive polarity or the lowest relation
        if kind == "part":
            positive, negative = hits[base:base + 2]
            if positive == negative == 0:
                unconstrained.add(var)
            assignment.set_part(key, bool(positive >= negative))
        else:
            counts = hits[base:base + 4]
            values = [0.0, 0.0, 0.0, 0.0]
            if counts.any():
                values[int(np.argmax(counts))] = 1.0
            else:
                unconstrained.add(var)
            assignment.set_pair(key, values)

    return MpeResult(
        assignment=assignment,
        root_log_value=result.root_log_value,
        root_value=result.root_value,
        traversal=TraversalCounts(network, edge_counts),
        evaluation=result,
        unconstrained=unconstrained,
    )
