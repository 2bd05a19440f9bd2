"""MPE inference on the max-product view of a network.

MPE evaluates the network itself with max in place of sum at every sum
node, so weight updates show through without any conversion. The backtrack
walks the selected tree top-down, counting how often each edge is
traversed; those counts drive the discriminative weight gradient.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolationError, DegenerateNodeError
from .network import (
    PRODUCT,
    ROW_BLOCK_ELEMENTS,
    SUM,
    IndicatorValues,
    Network,
    max_evaluate,
    pair_column,
    part_column,
)

TIE_TOLERANCE = 1e-12


@dataclass
class MpeResult:
    """`edge_counts[e]` is how often the selected tree traverses edge e: a
    node reached k times through shared parents passes k to each selected
    outgoing edge."""

    assignment: IndicatorValues
    root_log_value: float
    root_value: float
    edge_counts: np.ndarray
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


def _backtrack(network: Network, log_values: np.ndarray, root_counts=None):
    """Top-down traversal of the selected trees of (rows, nodes) max-pass
    log values, level by level over the evaluation plan.

    Max nodes follow their argmax child (ties broken by lowest child id with
    an absolute tolerance on the log score, then by child-edge order);
    product nodes follow all children. Each row's root starts with its
    `root_counts` entry (default 1) and counts propagate multiplicatively
    through shared nodes. Returns the node and edge counts summed over rows,
    so rows with roots +1 and -1 give the count difference. Raises
    DegenerateNodeError when a reached max node has no comparable score
    (a NaN)."""
    plan = network._evaluation_plan()
    n = network.num_nodes
    rows = len(log_values)
    root_counts = np.ones(rows, dtype=np.int64) if root_counts is None else np.asarray(root_counts)
    node_counts = np.zeros(n, dtype=np.int64)
    edge_counts = np.zeros(network.num_edges, dtype=np.int64)
    step = max(1, ROW_BLOCK_ELEMENTS // max(1, network.num_edges))
    with np.errstate(divide="ignore", invalid="ignore"):
        logw = np.log(network.edge_weight)
    for lo in range(0, rows, step):
        block = log_values[lo:lo + step]
        b = len(block)
        # integer counts, held exactly in float64 (the dtype np.bincount sums in)
        counts = np.zeros((b, n))
        counts[:, network.root] = root_counts[lo:lo + step]
        row_base = (np.arange(b) * n)[:, None]
        for groups in reversed(plan):
            if PRODUCT in groups:
                nodes, edges, children, _, seg_ids = groups[PRODUCT]
                passed = counts[:, nodes[seg_ids]]
                edge_counts[edges] += passed.sum(axis=0).astype(np.int64)
                counts += np.bincount((row_base + children).ravel(), passed.ravel(),
                                      b * n).reshape(b, n)
            if SUM in groups:
                nodes, edges, children, seg_starts, seg_ids = groups[SUM]
                passed = counts[:, nodes]
                scores = logw[edges] + block[:, children]
                best = np.maximum.reduceat(scores, seg_starts, axis=1)
                candidate = scores >= (best - TIE_TOLERANCE)[:, seg_ids]
                # lowest child id first, then the first such edge in child-edge order
                width = len(edges)
                keys = np.where(candidate, children.astype(np.int64) * width + np.arange(width),
                                n * width)
                chosen = np.minimum.reduceat(keys, seg_starts, axis=1)
                stuck = (chosen == n * width) & (passed != 0)
                if stuck.any():
                    bad = int(nodes[stuck.any(axis=0)].min())
                    raise DegenerateNodeError(f"max node {bad} has a NaN score and no argmax child")
                chosen %= width
                edge_counts[edges] += np.bincount(chosen.ravel(), passed.ravel(),
                                                  width).astype(np.int64)
                counts += np.bincount((row_base + children[chosen]).ravel(), passed.ravel(),
                                      b * n).reshape(b, n)
        node_counts += counts.sum(axis=0).astype(np.int64)
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
    node_counts, edge_counts = _backtrack(network, result.log_values[None])

    assignment = evidence.copy()
    unconstrained = set()
    bases = [part_column(key) if kind == "part" else pair_column(*key) for kind, key in query]
    if query:
        table = network._leaf_slots()
        # zero columns past the network's rows stand in for variables it lacks
        hits = np.zeros(max([2 * table.span ** 2] + bases) + 4, dtype=np.int64)
        np.add.at(hits, table.columns, node_counts[table.leaves])
    for var, base in zip(query, bases):
        kind, key = var
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
        edge_counts=edge_counts,
        unconstrained=unconstrained,
    )
