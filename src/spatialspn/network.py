"""Core sum-product network representation and exact bottom-up evaluation.

A network is a rooted weighted DAG. Leaves are indicator nodes: part
indicators carry one polarity of one part variable, spatial indicators carry
one of the four relations of one pair variable (the four relation indicators
of a pair form a single composite variable for scope purposes). Internal
nodes are sums (weighted edges) and products (unweighted edges). A constant-1
leaf ("one") exists for degenerate regions that model nothing.

Evaluation runs in log domain with a max shift per sum node, so deep
networks with tiny filler masses stay finite. Values are scores: networks
containing spatial gadgets are treated as nonnegative scoring circuits, not
normalized distributions, because the four relation indicators of a pair are
not mutually exclusive.

Networks are immutable after construction apart from edge weights, which
training mutates under exclusive access. Evaluation never mutates and is
safe to run concurrently over a shared network.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import (
    ContractViolationError,
    CycleError,
    DegenerateNodeError,
    IncompleteEvidenceError,
    MalformedRecordError,
    ModelFormatError,
)
from .spatial import RELATION_TOKENS, TOKEN_RELATIONS, Relation, canonical_pair

SUM = "sum"
PRODUCT = "product"
PART = "part"
SPATIAL = "spatial"
ONE = "one"

LEAF_KINDS = frozenset({PART, SPATIAL, ONE})

FORMAT_VERSION = 1
WEIGHT_FLOOR = 1e-8
# Rows per block of a batched forward pass are this many values over the
# edge count, which bounds the (rows, edges) temporaries on large networks.
ROW_BLOCK_ELEMENTS = 2 ** 18

NEG_INF = float("-inf")


@dataclass(frozen=True)
class Node:
    kind: str
    part: int | None = None
    positive: bool | None = None
    pair: tuple[int, int] | None = None
    relation: Relation | None = None


@dataclass(frozen=True)
class Violation:
    kind: str
    node: int | None = None
    edge: int | None = None
    message: str = ""


@dataclass
class ValidityReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def kinds(self) -> set[str]:
        return {v.kind for v in self.violations}

    def __str__(self) -> str:
        if self.ok:
            return "valid"
        return "; ".join(f"{v.kind}: {v.message}" for v in self.violations)


@dataclass(frozen=True)
class LeafSlots:
    """Leaf node `leaves[i]` reads evidence column `columns[i]` (see
    `encode_records`); the constant "one" leaf reads nothing, its log value
    is 0. Rows of `encode_records(records, span)` cover every leaf."""

    parts: list[int]
    pairs: list[tuple[int, int]]
    span: int
    leaves: np.ndarray
    columns: np.ndarray


class IndicatorValues:
    """Values in [0, 1] for every leaf indicator a network may look up.

    Part entries map part id -> (x, x_bar); pair entries map a canonical pair
    -> (left, right, above, below). An observed part is one-hot, a
    marginalized part has both polarities 1. A pair whose parts are both
    present carries its geometric relations; a pair with a missing part is
    marginalized to all ones.
    """

    __slots__ = ("parts", "pairs")

    def __init__(self, parts=None, pairs=None):
        self.parts: dict[int, tuple[float, float]] = dict(parts or {})
        self.pairs: dict[tuple[int, int], tuple[float, float, float, float]] = dict(pairs or {})

    def copy(self) -> "IndicatorValues":
        return IndicatorValues(self.parts, self.pairs)

    def set_part(self, part: int, present: bool) -> None:
        self.parts[part] = (1.0, 0.0) if present else (0.0, 1.0)

    def marginalize_part(self, part: int) -> None:
        self.parts[part] = (1.0, 1.0)

    def set_pair(self, pair, values) -> None:
        self.pairs[canonical_pair(*pair)] = tuple(float(v) for v in values)

    def marginalize_pair(self, pair) -> None:
        self.pairs[canonical_pair(*pair)] = (1.0, 1.0, 1.0, 1.0)

    def is_part_marginalized(self, part: int) -> bool:
        return self.parts.get(part) == (1.0, 1.0)

    def is_pair_marginalized(self, pair) -> bool:
        return self.pairs.get(pair) == (1.0, 1.0, 1.0, 1.0)


def part_column(part):
    """First evidence column of a part: (x, x_bar) sit at 2p², 2p²+1."""
    return 2 * part * part


def pair_column(a, b):
    """First evidence column of the canonical pair (a, b), a < b: its
    (left, right, above, below) sit at 2b²+2+4a onwards."""
    return 2 * b * b + 2 + 4 * a


@functools.lru_cache(maxsize=None)
def _pair_layout(vocabulary_size: int):
    """Every canonical pair (a, b) of the vocabulary and its four columns."""
    a, b = np.triu_indices(vocabulary_size, 1)
    return a, b, pair_column(a, b)[:, None] + np.arange(4)


def encode_records(records, vocabulary_size: int, query_parts=()) -> np.ndarray:
    """Dense evidence with one row per record and 2t² columns: part p's
    (x, x_bar) at `part_column(p)`, the pair (a, b)'s (left, right, above,
    below) at `pair_column(a, b)`. The first detection of a part wins and
    parts outside the vocabulary are ignored; absence is evidence, and query
    parts get both polarities 1. A pair with a missing or queried part is all
    ones, and an equal coordinate sets neither relation of its axis. A
    non-finite location raises MalformedRecordError."""
    t, n = vocabulary_size, len(records)
    present = np.zeros((n, t), dtype=bool)
    xy = np.zeros((n, t, 2))
    for row, record in enumerate(records):
        for det in record.detections:
            if not (math.isfinite(det.x) and math.isfinite(det.y)):
                raise MalformedRecordError(
                    f"image {record.id}: part {det.part} is active but its location is not finite"
                )
            if 0 <= det.part < t and not present[row, det.part]:
                present[row, det.part] = True
                xy[row, det.part] = det.x, det.y
    queried = np.zeros(t, dtype=bool)
    queried[[p for p in query_parts if 0 <= p < t]] = True

    evidence = np.empty((n, 2 * t * t))
    evidence[:, part_column(np.arange(t))] = present | queried
    evidence[:, part_column(np.arange(t)) + 1] = ~present | queried
    a, b, columns = _pair_layout(t)
    known = present & ~queried
    lo, hi = xy[:, a], xy[:, b]  # per pair and axis (x, y)
    unknown = ~(known[:, a] & known[:, b])[:, :, None]
    evidence[:, columns[:, 0::2]] = (lo < hi) | unknown  # left, above
    evidence[:, columns[:, 1::2]] = (lo > hi) | unknown  # right, below
    return evidence


def assignment_to_indicators(image, vocabulary_size: int, query_parts=()) -> IndicatorValues:
    """One image's `encode_records` row as indicator values over every part
    and every canonical pair of the vocabulary."""
    row = encode_records([image], vocabulary_size, query_parts)[0].tolist()
    a, b, _ = _pair_layout(vocabulary_size)
    return IndicatorValues(
        {p: tuple(row[part_column(p):part_column(p) + 2]) for p in range(vocabulary_size)},
        {q: tuple(row[pair_column(*q):pair_column(*q) + 4]) for q in zip(a.tolist(), b.tolist())},
    )


class Network:
    """Rooted DAG of sum/product/indicator nodes with dense integer ids.

    Node and edge ids are list indices, stable across serialization.
    `shared_edges` marks edges tied to identical sub-structures in other
    class networks; `region_of` and `partitions` carry structure-learning
    metadata (region annotations are build-time only and not serialized).
    """

    def __init__(
        self,
        nodes,
        edge_parent,
        edge_child,
        edge_weight,
        root,
        class_label=None,
        shared_edges=None,
        partitions=None,
        region_of=None,
    ):
        self.nodes: list[Node] = list(nodes)
        self.edge_parent = np.asarray(edge_parent, dtype=np.int32)
        self.edge_child = np.asarray(edge_child, dtype=np.int32)
        self.edge_weight = np.asarray(edge_weight, dtype=np.float64)
        self.root = int(root)
        self.class_label = class_label
        self.shared_edges: set[int] = set(shared_edges or ())
        self.partitions = list(partitions or [])
        self.region_of: dict[int, object] = dict(region_of or {})

        n = len(self.nodes)
        if not (0 <= self.root < n):
            raise ValueError(f"root {self.root} out of range")
        self._build_child_index()
        self._topo = None
        self._plan = None
        self._leaf_table = None

    # ------------------------------------------------------------------ basics

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return len(self.edge_parent)

    def _build_child_index(self):
        order = np.argsort(self.edge_parent, kind="stable")
        self._cs_edge = order.astype(np.int32)
        self._cs_child = self.edge_child[order]
        counts = np.bincount(self.edge_parent, minlength=self.num_nodes)
        self._cs_start = np.zeros(self.num_nodes + 1, dtype=np.int64)
        np.cumsum(counts, out=self._cs_start[1:])

    def child_edges(self, node: int) -> np.ndarray:
        """Edge ids leaving `node`, in insertion order."""
        lo, hi = self._cs_start[node], self._cs_start[node + 1]
        return self._cs_edge[lo:hi]

    def children(self, node: int) -> np.ndarray:
        lo, hi = self._cs_start[node], self._cs_start[node + 1]
        return self._cs_child[lo:hi]

    def is_leaf(self, node: int) -> bool:
        return self.nodes[node].kind in LEAF_KINDS

    @property
    def part_universe(self) -> list[int]:
        return self._leaf_slots().parts

    @property
    def pair_universe(self) -> list[tuple[int, int]]:
        return self._leaf_slots().pairs

    def variables(self):
        """All variables in the network, parts before pairs, sorted."""
        return [("part", p) for p in self.part_universe] + [("pair", q) for q in self.pair_universe]

    # -------------------------------------------------------------- topo / plan

    def _leaf_slots(self) -> "LeafSlots":
        """Each leaf's evidence column, compiled once."""
        if self._leaf_table is not None:
            return self._leaf_table
        parts = sorted({nd.part for nd in self.nodes if nd.kind == PART})
        pairs = sorted({nd.pair for nd in self.nodes if nd.kind == SPATIAL})
        leaves, columns = [], []
        for nid, nd in enumerate(self.nodes):
            if nd.kind == PART:
                columns.append(part_column(nd.part) + (0 if nd.positive else 1))
            elif nd.kind == SPATIAL:
                columns.append(pair_column(*nd.pair) + int(nd.relation))
            else:
                continue
            leaves.append(nid)
        span = max(parts + [b for _, b in pairs], default=-1) + 1
        self._leaf_table = LeafSlots(parts, pairs, span, np.asarray(leaves, dtype=np.int64),
                                     np.asarray(columns, dtype=np.int64))
        return self._leaf_table

    @property
    def part_span(self) -> int:
        """The smallest vocabulary whose evidence rows cover every leaf."""
        return self._leaf_slots().span

    def topological_order(self) -> np.ndarray:
        """Node ids ordered children-first: by level (a childless node is
        level 0, any other sits one above its highest child), then by id.
        Raises CycleError on cycles."""
        if self._topo is not None:
            return self._topo
        # frontier passes over the parent index: pass k takes the nodes whose
        # children all left in earlier passes, so k is their level; nodes on
        # or above a cycle never get there
        n = self.num_nodes
        remaining = np.bincount(self.edge_parent, minlength=n)
        by_child = np.argsort(self.edge_child, kind="stable")
        p_parent = self.edge_parent[by_child]
        p_start = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.edge_child, minlength=n), out=p_start[1:])

        passes = []
        frontier = np.flatnonzero(remaining == 0)
        while len(frontier):
            passes.append(frontier)
            counts = p_start[frontier + 1] - p_start[frontier]
            seg_starts = np.cumsum(counts) - counts
            first = np.repeat(p_start[frontier] - seg_starts, counts)
            parents = p_parent[first + np.arange(counts.sum())]
            remaining -= np.bincount(parents, minlength=n)
            hit = np.unique(parents)
            frontier = hit[remaining[hit] == 0]
        topo = np.concatenate(passes, dtype=np.int32) if passes else np.zeros(0, dtype=np.int32)
        if len(topo) != n:
            raise CycleError("network graph contains a cycle")
        self._level_starts = np.cumsum([0] + [len(p) for p in passes])
        self._topo = topo
        return topo

    def _evaluation_plan(self):
        """Per level above the leaves (a node sits one above its highest
        child), each node kind's (nodes, edges, children, seg_starts,
        seg_ids): the child edges of its nodes, in id then insertion order,
        their children, where each node's run starts and each edge's node."""
        if self._plan is not None:
            return self._plan
        topo = self.topological_order()  # raises CycleError
        fanout = np.diff(self._cs_start)
        kinds = np.array([nd.kind for nd in self.nodes])

        plan = []
        for lo, hi in zip(self._level_starts[1:-1], self._level_starts[2:]):
            ids = topo[lo:hi]
            groups = {}
            for kind in (SUM, PRODUCT):
                nodes = ids[kinds[ids] == kind].astype(np.int32)
                if not len(nodes):
                    continue
                counts = fanout[nodes]
                seg_starts = np.cumsum(counts) - counts
                seg_ids = np.repeat(np.arange(len(nodes)), counts)
                offsets = np.arange(counts.sum()) - seg_starts[seg_ids]
                edges = self._cs_edge[self._cs_start[nodes][seg_ids] + offsets]
                groups[kind] = (nodes, edges, self.edge_child[edges], seg_starts, seg_ids)
            plan.append(groups)
        self._plan = plan
        return plan

    # ------------------------------------------------------------------ copies

    def copy(self) -> "Network":
        return Network(
            nodes=self.nodes,
            edge_parent=self.edge_parent.copy(),
            edge_child=self.edge_child.copy(),
            edge_weight=self.edge_weight.copy(),
            root=self.root,
            class_label=self.class_label,
            shared_edges=set(self.shared_edges),
            partitions=list(self.partitions),
            region_of=dict(self.region_of),
        )


class NetworkBuilder:
    """Incremental construction of a Network; ids are handed out densely."""

    def __init__(self):
        self._nodes: list[Node] = []
        self._edge_parent: list[int] = []
        self._edge_child: list[int] = []
        self._edge_weight: list[float] = []
        self._annotations: dict[int, object] = {}
        self._leaf_cache: dict[tuple, int] = {}

    def _add(self, node: Node, annotation=None) -> int:
        self._nodes.append(node)
        nid = len(self._nodes) - 1
        if annotation is not None:
            self._annotations[nid] = annotation
        return nid

    def sum(self, annotation=None) -> int:
        return self._add(Node(SUM), annotation)

    def product(self, annotation=None) -> int:
        return self._add(Node(PRODUCT), annotation)

    def part(self, part: int, positive: bool) -> int:
        """Part indicator leaf; one node per (part, polarity) is shared."""
        if part < 0:
            raise ContractViolationError(f"part id must be >= 0, got {part}")
        key = (PART, part, positive)
        if key not in self._leaf_cache:
            self._leaf_cache[key] = self._add(Node(PART, part=part, positive=positive))
        return self._leaf_cache[key]

    def spatial(self, pair, relation: Relation) -> int:
        pair = canonical_pair(*pair)
        if pair[0] < 0:
            raise ContractViolationError(f"part ids must be >= 0, got pair {pair}")
        key = (SPATIAL, pair, relation)
        if key not in self._leaf_cache:
            self._leaf_cache[key] = self._add(Node(SPATIAL, pair=pair, relation=relation))
        return self._leaf_cache[key]

    def one(self) -> int:
        key = (ONE,)
        if key not in self._leaf_cache:
            self._leaf_cache[key] = self._add(Node(ONE))
        return self._leaf_cache[key]

    def edge(self, parent: int, child: int, weight: float | None = None) -> int:
        parent_kind = self._nodes[parent].kind
        if parent_kind == SUM:
            if weight is None:
                raise ValueError("sum edges require a weight")
            if not math.isfinite(weight) or weight < 0:
                raise ValueError(f"sum-edge weight must be finite and >= 0, got {weight}")
        else:
            if weight is not None:
                raise ValueError(f"{parent_kind} edges carry no weight")
            weight = math.nan
        self._edge_parent.append(parent)
        self._edge_child.append(child)
        self._edge_weight.append(weight)
        return len(self._edge_parent) - 1

    def build(self, root: int, class_label=None, partitions=None) -> Network:
        return Network(
            nodes=self._nodes,
            edge_parent=np.asarray(self._edge_parent, dtype=np.int32),
            edge_child=np.asarray(self._edge_child, dtype=np.int32),
            edge_weight=np.asarray(self._edge_weight, dtype=np.float64),
            root=root,
            class_label=class_label,
            partitions=partitions,
            region_of=self._annotations,
        )


# ---------------------------------------------------------------------- validate


def _reachable(n: int, root: int, parent: np.ndarray, child: np.ndarray) -> np.ndarray:
    """Mask of the nodes reachable from `root` over the edges parent -> child,
    one frontier sweep per level."""
    reachable = np.zeros(n, dtype=bool)
    reachable[root] = True
    frontier = reachable.copy()
    while frontier.any():
        hit = np.zeros(n, dtype=bool)
        hit[child[frontier[parent]]] = True
        frontier = hit & ~reachable
        reachable |= frontier
    return reachable


def validate(network: Network) -> ValidityReport:
    """Check acyclicity, reachability, node arity, weights, decomposability
    and completeness. Violations are data, not exceptions; an empty report
    means the network is valid."""
    report = ValidityReport()
    try:
        plan = network._evaluation_plan()
    except CycleError:
        report.violations.append(Violation("acyclicity", message="graph contains a cycle"))
        return report
    n, parent, child = network.num_nodes, network.edge_parent, network.edge_child
    kinds = np.array([nd.kind for nd in network.nodes])
    is_leaf = np.isin(kinds, list(LEAF_KINDS))
    fanout = np.diff(network._cs_start)
    add = report.violations.append

    for node in np.flatnonzero(~_reachable(n, network.root, parent, child)).tolist():
        add(Violation("reachability", node=node, message=f"node {node} unreachable from root"))

    # a leaf with children, or a sum or product without
    for node in np.flatnonzero(is_leaf == (fanout > 0)).tolist():
        if is_leaf[node]:
            add(Violation("leaf-children", node=node, message=f"leaf node {node} has children"))
        else:
            add(Violation("childless-internal", node=node,
                          message=f"{kinds[node]} node {node} has no children"))

    weight = network.edge_weight
    on_sum = kinds[parent] == SUM
    with np.errstate(invalid="ignore"):
        bad = np.where(on_sum, ~(np.isfinite(weight) & (weight >= 0)), ~np.isnan(weight))
    for edge in np.flatnonzero(bad).tolist():
        if on_sum[edge]:
            message = f"edge {edge} has invalid weight {weight[edge]}"
        else:
            message = f"edge {edge} of a {kinds[parent[edge]]} node carries a weight"
        add(Violation("weight", edge=edge, message=message))

    # scopes over variables named by their base evidence column (distinct for
    # non-negative part ids); an internal node's scope is its children's union
    table = network._leaf_slots()
    leaves = [network.nodes[i] for i in table.leaves]
    base = [part_column(nd.part) if nd.kind == PART else pair_column(*nd.pair) for nd in leaves]
    columns, variable = np.unique(np.asarray(base, dtype=np.int64), return_inverse=True)
    scope = np.zeros((n, (len(columns) + 7) // 8), dtype=np.uint8)  # 8 variables a byte
    scope[table.leaves, variable >> 3] = 1 << (variable & 7)
    for groups in plan:
        for nodes, _, children, seg_starts, _ in groups.values():
            scope[nodes] = np.bitwise_or.reduceat(scope[children], seg_starts, axis=0)
    # children are subsets of the union: a product is decomposable iff their
    # sizes add up to the union's, a sum complete iff each has the union's
    # size, that is iff they add up to fanout times it
    size = np.bitwise_count(scope).sum(axis=1)
    child_total = np.bincount(parent, weights=size[child], minlength=n)
    overlap = (kinds == PRODUCT) & (fanout > 0) & (child_total != size)
    differ = (kinds == SUM) & (fanout > 0) & (child_total != fanout * size)
    for node in np.flatnonzero(overlap | differ).tolist():
        if overlap[node]:
            add(Violation("decomposability", node=node,
                          message=f"product node {node} has children with overlapping scopes"))
        else:
            add(Violation("completeness", node=node,
                          message=f"sum node {node} has children with differing scopes"))
    return report


# ---------------------------------------------------------------------- evaluate


@dataclass
class EvaluationResult:
    """Per-node log values from one bottom-up pass."""

    network: Network
    log_values: np.ndarray

    @property
    def root_log_value(self) -> float:
        return float(self.log_values[self.network.root])

    @property
    def root_value(self) -> float:
        return float(np.exp(self.log_values[self.network.root]))

    @property
    def values(self) -> np.ndarray:
        return np.exp(self.log_values)


def _evidence_row(network: Network, indicators: IndicatorValues) -> np.ndarray:
    """One evidence row holding the network's entries of `indicators`."""
    table = network._leaf_slots()
    try:
        entries = [(part_column(p), 2, indicators.parts[p]) for p in table.parts]
    except KeyError as exc:
        raise IncompleteEvidenceError(f"no indicator value for part {exc.args[0]}") from None
    try:
        entries += [(pair_column(*q), 4, indicators.pairs[q]) for q in table.pairs]
    except KeyError as exc:
        raise IncompleteEvidenceError(f"no indicator values for pair {exc.args[0]}") from None
    row = np.zeros((1, 2 * table.span ** 2))
    for column, width, values in entries:
        if len(values) != width:
            raise IncompleteEvidenceError("indicator entries must hold 2 values per part, 4 per pair")
        row[0, column:column + width] = values
    return row


def _leaf_log_values(network: Network, evidence: np.ndarray) -> np.ndarray:
    """(rows, nodes) log values with every leaf read from its evidence column
    and every other node at 0."""
    table = network._leaf_slots()
    values = evidence[:, table.columns]
    bad = ~((values >= 0.0) & (values <= 1.0 + 1e-12))  # NaN fails both tests
    if bad.any():
        row, first = np.unravel_index(np.argmax(bad), bad.shape)
        raise IncompleteEvidenceError(
            f"indicator value for node {table.leaves[first]} must lie in [0, 1], "
            f"got {values[row, first]}"
        )
    logv = np.zeros((len(evidence), network.num_nodes))
    with np.errstate(divide="ignore"):
        logv[:, table.leaves] = np.log(values)
    return logv


def _forward(network: Network, evidence: np.ndarray, mode: str) -> np.ndarray:
    """Per-node log values, one row per evidence row; sum nodes mix ("sum")
    or take their best child ("max"). Rows go through the levels in blocks,
    so the (rows, edges) temporaries stay near ROW_BLOCK_ELEMENTS values."""
    logv = _leaf_log_values(network, evidence)
    plan = network._evaluation_plan()
    step = max(1, ROW_BLOCK_ELEMENTS // max(1, network.num_edges))
    with np.errstate(divide="ignore", invalid="ignore"):
        logw = np.log(network.edge_weight)
        for lo in range(0, len(logv), step):
            block = logv[lo:lo + step]
            for groups in plan:
                if PRODUCT in groups:
                    nodes, _, children, seg_starts, _ = groups[PRODUCT]
                    block[:, nodes] = np.add.reduceat(block[:, children], seg_starts, axis=1)
                if SUM in groups:
                    nodes, edges, children, seg_starts, seg_ids = groups[SUM]
                    scores = logw[edges] + block[:, children]
                    best = np.maximum.reduceat(scores, seg_starts, axis=1)
                    if mode == "sum":
                        # a dead segment (all scores -inf) is shifted by 0, so it sums
                        # to 0 and stays -inf; NaN stays NaN so training can abort
                        best = np.where(best == NEG_INF, 0.0, best)
                        shifted = np.exp(scores - best[:, seg_ids])
                        best = best + np.log(np.add.reduceat(shifted, seg_starts, axis=1))
                    block[:, nodes] = best
    return logv


def evaluate(network: Network, indicators: IndicatorValues) -> EvaluationResult:
    """Exact topological evaluation; sum nodes mix, product nodes factor."""
    return EvaluationResult(network, _forward(network, _evidence_row(network, indicators), "sum")[0])


def max_evaluate(network: Network, indicators: IndicatorValues) -> EvaluationResult:
    """Evaluation with sum nodes replaced by max nodes."""
    return EvaluationResult(network, _forward(network, _evidence_row(network, indicators), "max")[0])


# --------------------------------------------------------------------- normalize


def normalize_weights(network: Network, nodes=None) -> Network:
    """Scale each sum node's outgoing weights to total 1, in place.

    `nodes` limits the pass to the given sum nodes (default: every sum node).
    Childless sums are skipped; a sum whose weights total zero raises."""
    if nodes is None:
        nodes = [i for i, nd in enumerate(network.nodes) if nd.kind == SUM]
    for node in nodes:
        edges = network.child_edges(node)
        if not len(edges):
            continue
        total = network.edge_weight[edges].sum()
        if total <= 0.0:
            raise DegenerateNodeError(f"sum node {node} has no outgoing weight mass")
        network.edge_weight[edges] /= total
    return network


# --------------------------------------------------------------------- serialize


# Edges per block of serialize's Python lists, which bounds their memory.
SERIALIZE_BLOCK_EDGES = 2 ** 12


def _format_rect(rect) -> str:
    return " ".join(str(v) for v in rect)


def serialize(network: Network) -> str:
    """Versioned line-oriented text form; weights keep 17 significant digits."""
    lines = [f"spn-model v{FORMAT_VERSION}"]
    if network.class_label is not None:
        lines.append(f"class {network.class_label}")
    for nid, node in enumerate(network.nodes):
        if node.kind == PART:
            polarity = "pos" if node.positive else "neg"
            lines.append(f"node {nid} part {node.part} {polarity}")
        elif node.kind == SPATIAL:
            token = RELATION_TOKENS[node.relation]
            lines.append(f"node {nid} spatial {node.pair[0]} {node.pair[1]} {token}")
        else:
            lines.append(f"node {nid} {node.kind}")
    is_sum = np.array([nd.kind == SUM for nd in network.nodes], dtype=bool)
    for lo in range(0, network.num_edges, SERIALIZE_BLOCK_EDGES):
        edges = slice(lo, lo + SERIALIZE_BLOCK_EDGES)
        lines.extend(
            f"edge {parent} {child} {weight:.17g}" if on_sum else f"edge {parent} {child}"
            for parent, child, weight, on_sum in zip(
                network.edge_parent[edges].tolist(), network.edge_child[edges].tolist(),
                network.edge_weight[edges].tolist(), is_sum[network.edge_parent[edges]].tolist())
        )
    lines.append(f"root {network.root}")
    for edge in sorted(network.shared_edges):
        lines.append(f"shared {edge}")
    for parent_rect, child_rects in network.partitions:
        children = " | ".join(_format_rect(r) for r in child_rects)
        lines.append(f"partition {_format_rect(parent_rect)} : {children}")
    return "\n".join(lines) + "\n"


def _int(token: str, line_no: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ModelFormatError(line_no, f"bad {what} {token!r}") from None


def _part_id(token: str, line_no: int) -> int:
    part = _int(token, line_no, "part id")
    if part < 0:
        raise ModelFormatError(line_no, f"part id must be >= 0, got {part}")
    return part


def _parse_rect(tokens, line_no, fractions: dict):
    """Four coordinates; `fractions` caches each token's Fraction."""
    if len(tokens) != 4:
        raise ModelFormatError(line_no, f"rectangle needs 4 coordinates, got {len(tokens)}")
    rect = []
    for token in tokens:
        value = fractions.get(token)
        if value is None:
            try:
                value = fractions[token] = Fraction(token)
            except (ValueError, ZeroDivisionError) as exc:
                raise ModelFormatError(line_no, f"bad rectangle coordinate: {exc}") from None
        rect.append(value)
    return tuple(rect)


def _parse_node(body, line_no) -> Node:
    """The node a node line's tokens after its id describe."""
    kind = body[0]
    if kind in (SUM, PRODUCT, ONE):
        if len(body) != 1:
            raise ModelFormatError(line_no, f"{kind} node takes no arguments")
        return Node(kind)
    if kind == PART:
        if len(body) != 3 or body[2] not in ("pos", "neg"):
            raise ModelFormatError(line_no, "part node needs '<id> pos|neg'")
        return Node(PART, part=_part_id(body[1], line_no), positive=body[2] == "pos")
    if kind == SPATIAL:
        if len(body) != 4:
            raise ModelFormatError(line_no, "spatial node needs '<a> <b> <relation>'")
        if body[3] not in TOKEN_RELATIONS:
            raise ModelFormatError(line_no, f"unknown relation {body[3]!r}")
        pair = (_part_id(body[1], line_no), _part_id(body[2], line_no))
        if pair[0] >= pair[1]:
            raise ModelFormatError(line_no, f"pair {pair} is not two canonically ordered parts")
        return Node(SPATIAL, pair=pair, relation=TOKEN_RELATIONS[body[3]])
    raise ModelFormatError(line_no, f"unknown node kind {kind!r}")


def _check_header(line: str | None) -> None:
    """The first line of a model file (None for an empty file)."""
    if line is None:
        raise ModelFormatError(0, "empty model file")
    header = line.split()
    if len(header) != 2 or header[0] != "spn-model":
        raise ModelFormatError(1, f"expected 'spn-model v{FORMAT_VERSION}' header")
    if header[1] != f"v{FORMAT_VERSION}":
        raise ModelFormatError(1, f"unsupported format version {header[1]!r}")


class _LineParser:
    """Parses the lines after a model file's header, one `read` call per
    line in file order, and builds the network with `network`. Node lines
    with the same tokens after the id share one Node."""

    def __init__(self):
        self.nodes: dict[int, Node] = {}
        self.node_line: dict[int, int] = {}
        self.edges: list[tuple[int, int, int, float]] = []  # (line, parent, child, weight)
        self.root = None
        self.root_line = 0
        self.class_label = None
        self.shared: dict[int, int] = {}  # edge id -> its first `shared` line
        self.partitions = []
        self._bodies: dict[tuple, Node] = {}
        self._fractions: dict[str, Fraction] = {}

    def read(self, line_no: int, raw: str) -> None:
        line = raw.strip()
        if not line or line.startswith("#"):
            return
        tokens = line.split()
        tag = tokens[0]
        nodes = self.nodes
        if tag == "node":
            if len(tokens) < 3:
                raise ModelFormatError(line_no, "node line needs an id and a kind")
            nid = _int(tokens[1], line_no, "node id")
            if nid in nodes:
                raise ModelFormatError(line_no, f"duplicate node id {nid}")
            body = tuple(tokens[2:])
            node = self._bodies.get(body)
            if node is None:
                node = self._bodies[body] = _parse_node(body, line_no)
            nodes[nid] = node
            self.node_line[nid] = line_no
        elif tag == "edge":
            if len(tokens) not in (3, 4):
                raise ModelFormatError(line_no, "edge line needs parent, child and optional weight")
            parent = _int(tokens[1], line_no, "edge endpoint")
            child = _int(tokens[2], line_no, "edge endpoint")
            if parent not in nodes or child not in nodes:
                raise ModelFormatError(line_no, f"edge refers to undeclared node")
            if nodes[parent].kind == SUM:
                if len(tokens) != 4:
                    raise ModelFormatError(line_no, "sum edge is missing its weight")
                try:
                    weight = float(tokens[3])
                except ValueError:
                    raise ModelFormatError(line_no, f"bad weight {tokens[3]!r}") from None
                if math.isnan(weight):
                    raise ModelFormatError(line_no, "weight is NaN")
                if weight < 0 or math.isinf(weight):
                    raise ModelFormatError(line_no, f"weight must be finite and >= 0, got {weight}")
            else:
                if len(tokens) != 3:
                    raise ModelFormatError(line_no, "non-sum edge must not carry a weight")
                weight = math.nan
            self.edges.append((line_no, parent, child, weight))
        elif tag == "class":
            if len(tokens) != 2:
                raise ModelFormatError(line_no, "class line needs one label")
            self.class_label = tokens[1]
        elif tag == "root":
            if len(tokens) != 2:
                raise ModelFormatError(line_no, "root line needs one id")
            self.root = _int(tokens[1], line_no, "root id")
            self.root_line = line_no
        elif tag == "shared":
            if len(tokens) != 2:
                raise ModelFormatError(line_no, "shared line needs one edge id")
            self.shared.setdefault(_int(tokens[1], line_no, "shared edge id"), line_no)
        elif tag == "partition":
            body = line[len("partition"):].strip()
            if ":" not in body:
                raise ModelFormatError(line_no, "partition line needs 'parent : children'")
            parent_part, child_part = body.split(":", 1)
            parent_rect = _parse_rect(parent_part.split(), line_no, self._fractions)
            child_rects = tuple(_parse_rect(chunk.split(), line_no, self._fractions)
                                for chunk in child_part.split("|"))
            self.partitions.append((parent_rect, child_rects))
        else:
            raise ModelFormatError(line_no, f"unknown line tag {tag!r}")

    def admits(self, lines, parent, child, weighted) -> bool:
        """Whether edge rows read elsewhere stand where this parse would take
        them: both endpoints declared on an earlier line, and a weight if and
        only if the parent is a sum node."""
        if not len(lines):
            return True
        n = len(self.nodes)
        if sorted(self.nodes) != list(range(n)) or max(parent.max(), child.max()) >= n:
            return False
        declared = np.array([self.node_line[i] for i in range(n)])
        is_sum = np.array([self.nodes[i].kind == SUM for i in range(n)], dtype=bool)
        return bool((declared[parent] < lines).all() and (declared[child] < lines).all()
                    and np.array_equal(is_sum[parent], weighted))

    def network(self, n_lines: int, lines=(), parent=(), child=(), weight=()) -> Network:
        """The network of the lines read, with the edge rows read elsewhere
        (their line numbers, endpoints and weights) merged in by line."""
        if self.root is None:
            raise ModelFormatError(n_lines, "truncated model: missing root line")
        n = len(self.nodes)
        if sorted(self.nodes) != list(range(n)):
            raise ModelFormatError(n_lines, "node ids are not dense 0..n-1")
        if not (0 <= self.root < n):
            raise ModelFormatError(self.root_line, f"root {self.root} out of range")
        for edge_id, line_no in self.shared.items():
            if not (0 <= edge_id < len(lines) + len(self.edges)):
                raise ModelFormatError(line_no, f"shared edge id {edge_id} out of range")
        if self.edges:
            read = [np.array(column) for column in zip(*self.edges)]
            if len(lines):
                order = np.argsort(np.concatenate([lines, read[0]]), kind="stable")
                parent, child, weight = (np.concatenate([bulk, one])[order] for bulk, one
                                         in zip((parent, child, weight), read[1:]))
            else:
                _, parent, child, weight = read
        return Network(
            nodes=[self.nodes[i] for i in range(n)],
            edge_parent=np.asarray(parent, dtype=np.int32),
            edge_child=np.asarray(child, dtype=np.int32),
            edge_weight=np.asarray(weight, dtype=np.float64),
            root=self.root,
            class_label=self.class_label,
            shared_edges=self.shared,
            partitions=self.partitions,
        )


def _parse_lines(text: str) -> Network:
    """The line parser over a whole model file."""
    lines = text.splitlines()
    _check_header(lines[0] if lines else None)
    parser = _LineParser()
    for line_no, raw in enumerate(lines[1:], start=2):
        parser.read(line_no, raw)
    return parser.network(len(lines))


# Line breaks of `str.splitlines` besides "\n", in UTF-8: a file holding one
# numbers its lines by more than its "\n" bytes, so the line parser reads it
_ASCII_BREAKS = tuple(ch.encode() for ch in "\r\x0b\x0c\x1c\x1d\x1e")
_OTHER_BREAKS = _ASCII_BREAKS + tuple(ch.encode() for ch in "\x85\u2028\u2029")
# the most digits an int32 always holds; a longer endpoint goes to the line parser
MAX_ENDPOINT_DIGITS = 9
# Lines per block of the edge pass, which bounds its temporaries on large files.
EDGE_PASS_ROWS = 2 ** 16


def _digits(buf: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Per row, the number buf[lo:hi] spells (1 to MAX_ENDPOINT_DIGITS bytes)
    and whether one of those bytes is not a decimal digit."""
    length = hi - lo
    value = np.zeros(len(lo), dtype=np.int32)
    bad = np.zeros(len(lo), dtype=bool)
    for k in range(1, int(length.max(initial=0)) + 1):
        inside = length >= k
        digit = buf[hi - k] - np.uint8(48)  # bytes below "0" wrap past 9
        bad |= inside & (digit > 9)
        value += (digit * inside).astype(np.int32) * 10 ** (k - 1)
    return value, bad


def _canonical_edges(data: bytes, buf: np.ndarray, starts: np.ndarray, ends: np.ndarray,
                     first: int, last: int):
    """The rows from `first` to `last` (lines from `starts` to `ends` in
    `buf`, the bytes of `data`) that read `edge <parent> <child>` or
    `edge <parent> <child> <weight>`: single spaces, 1 to
    MAX_ENDPOINT_DIGITS decimal digits an endpoint, and a weight `float`
    reads as finite and >= 0. Returns their row indices, endpoints, weights
    (NaN where there is none) and weight mask."""
    starts, ends = starts[first:last], ends[first:last]
    rows = np.flatnonzero(ends - starts >= len("edge 0 0"))
    lo = starts[rows]
    prefix = np.ones(len(rows), dtype=bool)
    for k, byte in enumerate(b"edge "):
        prefix &= buf[lo + k] == byte
    rows, lo = rows[prefix], lo[prefix]
    hi = ends[rows]
    # the space after "edge" and the two after it
    spaces = np.flatnonzero(buf[starts[0]:ends[-1]] == 32) + starts[0]
    spaces = np.append(spaces, [len(buf)] * 2)
    after_edge = np.searchsorted(spaces, lo + 4)
    gap, weight_gap = spaces[after_edge + 1], spaces[after_edge + 2]
    weighted = weight_gap < hi
    child_end = np.where(weighted, weight_gap, hi)
    ok = ((gap - lo - 5 >= 1) & (gap - lo - 5 <= MAX_ENDPOINT_DIGITS)
          & (child_end - gap - 1 >= 1) & (child_end - gap - 1 <= MAX_ENDPOINT_DIGITS))
    rows, lo, gap, child_end, hi, weighted = (
        a[ok] for a in (rows, lo, gap, child_end, hi, weighted))
    endpoints, bad = _digits(buf, np.concatenate([lo + 5, gap + 1]),
                             np.concatenate([gap, child_end]))
    parent, child = np.split(endpoints, 2)
    ok = ~np.logical_or(*np.split(bad, 2))

    # the weight is the rest of the line: `float` strips ASCII whitespace
    # from its ends and fails on any other byte that is not part of a
    # number, so it reads exactly what the line parser's one weight token is
    weight = np.full(len(rows), np.nan)
    carry = np.flatnonzero(weighted)
    values = []
    for start, end in zip((child_end[carry] + 1).tolist(), hi[carry].tolist()):
        try:
            values.append(float(data[start:end]))
        except ValueError:
            values.append(math.nan)
    weight[carry] = values
    with np.errstate(invalid="ignore"):
        ok[carry] &= np.isfinite(weight[carry]) & (weight[carry] >= 0)
    return rows[ok] + first, parent[ok], child[ok], weight[ok], weighted[ok]


def _decode(data: bytes) -> str:
    """`data` as UTF-8 text; a byte that is not is an error at its line."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = len((data[:exc.start].decode("utf-8") + "x").splitlines())
        raise ModelFormatError(line_no, f"invalid UTF-8 byte {data[exc.start]:#04x}") from None


def deserialize(text: str | bytes) -> Network:
    """Parse a model file; errors carry the offending line number.

    Canonical edge lines (see `_canonical_edges`) are read in one array pass
    over the file's bytes and every other line by the line parser, in file
    order. If a row of the pass does not stand where the line parser would
    take it, or a line fails, the line parser reads the whole file and names
    the first offending line."""
    if isinstance(text, bytes):
        data, text = text, _decode(text)
    else:
        data = text.encode("utf-8", "surrogatepass")
    ascii_only = len(data) == len(text)  # any other character takes 2+ bytes
    if any(brk in data for brk in (_ASCII_BREAKS if ascii_only else _OTHER_BREAKS)):
        return _parse_lines(text)

    buf = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(buf == 10)
    if data and not data.endswith(b"\n"):
        ends = np.append(ends, len(data))
    starts = np.concatenate(([0], ends[:-1] + 1))
    n_lines = len(ends)
    _check_header(data[:ends[0]].decode("utf-8", "surrogatepass") if n_lines else None)

    blocks = [_canonical_edges(data, buf, starts, ends, first, first + EDGE_PASS_ROWS)
              for first in range(0, n_lines, EDGE_PASS_ROWS)]
    rows, parent, child, weight, weighted = map(np.concatenate, zip(*blocks))
    line_rows = np.ones(n_lines, dtype=bool)
    line_rows[0] = False
    line_rows[rows] = False
    line_rows = np.flatnonzero(line_rows)
    parser = _LineParser()
    try:
        for row, lo, hi in zip(line_rows.tolist(), starts[line_rows].tolist(),
                               ends[line_rows].tolist()):
            # in ASCII text, byte offsets are character offsets
            raw = text[lo:hi] if ascii_only else data[lo:hi].decode("utf-8", "surrogatepass")
            parser.read(row + 1, raw)
    except ModelFormatError:
        parser = None
    if parser is None or not parser.admits(rows + 1, parent, child, weighted):
        return _parse_lines(text)
    return parser.network(n_lines, rows + 1, parent, child, weight)


def save_network(network: Network, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(network))


def load_network(path) -> Network:
    """Read a model file; its errors name `path`."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return deserialize(data)
    except ModelFormatError as exc:
        raise ModelFormatError(exc.line_no, exc.message, path=path) from None
