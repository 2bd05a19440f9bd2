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
from typing import NamedTuple

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

# Node kinds by their code in `Network.node_kind`. The internal kinds come
# first, so a node is a leaf iff its code is at least CODE_PART.
KINDS = (SUM, PRODUCT, PART, SPATIAL, ONE)
CODE_SUM, CODE_PRODUCT, CODE_PART, CODE_SPATIAL, CODE_ONE = range(len(KINDS))
KIND_CODES = {kind: code for code, kind in enumerate(KINDS)}

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


class NodeTable(NamedTuple):
    """Nodes as parallel arrays, one row per node id: the kind's code, the
    part of a part leaf, its polarity, the canonical (a, b) pair of a
    spatial leaf and its relation. A field a node's kind does not use holds
    -1 (False for `positive`)."""

    kind: np.ndarray
    part: np.ndarray
    positive: np.ndarray
    pair: np.ndarray
    relation: np.ndarray

    @classmethod
    def of(cls, nodes) -> "NodeTable":
        rows = [(KIND_CODES[nd.kind], -1 if nd.part is None else nd.part, bool(nd.positive),
                 *(nd.pair or (-1, -1)), -1 if nd.relation is None else nd.relation)
                for nd in nodes]
        table = np.array(rows, dtype=np.int64).reshape(len(rows), 6)
        return cls(table[:, 0], table[:, 1], table[:, 2] != 0, table[:, 3:5], table[:, 5])


def _node(kind: int, part: int, positive: bool, a: int, b: int, relation: int) -> Node:
    """The Node of one NodeTable row."""
    if kind == CODE_PART:
        return Node(PART, part=part, positive=positive)
    if kind == CODE_SPATIAL:
        return Node(SPATIAL, pair=(a, b), relation=Relation(relation))
    return Node(KINDS[kind])


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

    Node and edge ids are array indices, stable across serialization. Nodes
    are held as the parallel arrays of a NodeTable (`node_kind`, ...), edges
    as `edge_parent`, `edge_child` and `edge_weight`. `shared_edges` marks
    edges tied to identical sub-structures in other class networks;
    `region_of` and `partitions` carry structure-learning metadata (region
    annotations are build-time only and not serialized).
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
        """`nodes` is a NodeTable or a sequence of Node."""
        table = nodes if isinstance(nodes, NodeTable) else NodeTable.of(nodes)
        self.node_kind = np.ascontiguousarray(table.kind, dtype=np.int8)
        self.node_part = np.ascontiguousarray(table.part, dtype=np.int64)
        self.node_positive = np.ascontiguousarray(table.positive, dtype=bool)
        self.node_pair = np.ascontiguousarray(table.pair, dtype=np.int64).reshape(-1, 2)
        self.node_relation = np.ascontiguousarray(table.relation, dtype=np.int8)
        self.edge_parent = np.asarray(edge_parent, dtype=np.int32)
        self.edge_child = np.asarray(edge_child, dtype=np.int32)
        self.edge_weight = np.asarray(edge_weight, dtype=np.float64)
        self.root = int(root)
        self.class_label = class_label
        self.shared_edges: set[int] = set(shared_edges or ())
        self.partitions = list(partitions or [])
        self.region_of: dict[int, object] = dict(region_of or {})

        n = len(self.node_kind)
        if not (0 <= self.root < n):
            raise ValueError(f"root {self.root} out of range")
        self._build_child_index()
        self._topo = None
        self._plan = None
        self._leaf_table = None
        self._nodes = None

    # ------------------------------------------------------------------ basics

    @property
    def num_nodes(self) -> int:
        return len(self.node_kind)

    @property
    def num_edges(self) -> int:
        return len(self.edge_parent)

    @property
    def node_table(self) -> NodeTable:
        return NodeTable(self.node_kind, self.node_part, self.node_positive, self.node_pair,
                         self.node_relation)

    @property
    def nodes(self) -> tuple[Node, ...]:
        """The nodes as objects, derived from the node arrays once; nodes
        with equal rows share one Node."""
        if self._nodes is None:
            shared: dict[tuple, Node] = {}
            self._nodes = tuple(
                shared.get(row) or shared.setdefault(row, _node(*row))
                for row in zip(self.node_kind.tolist(), self.node_part.tolist(),
                               self.node_positive.tolist(), self.node_pair[:, 0].tolist(),
                               self.node_pair[:, 1].tolist(), self.node_relation.tolist()))
        return self._nodes

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
        return bool(self.node_kind[node] >= CODE_PART)

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
        kind = self.node_kind
        leaves = np.flatnonzero((kind == CODE_PART) | (kind == CODE_SPATIAL))
        on_part = kind[leaves] == CODE_PART
        part, pair = self.node_part[leaves], self.node_pair[leaves]
        columns = np.where(on_part, part_column(part) + ~self.node_positive[leaves],
                           pair_column(pair[:, 0], pair[:, 1]) + self.node_relation[leaves])
        parts = sorted(set(part[on_part].tolist()))
        pairs = sorted(set(zip(pair[~on_part, 0].tolist(), pair[~on_part, 1].tolist())))
        span = max(parts + [b for _, b in pairs], default=-1) + 1
        self._leaf_table = LeafSlots(parts, pairs, span, leaves, columns)
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
        # relax every level over its children until none moves. In an
        # acyclic graph sweep t moves exactly the nodes of height >= t, so
        # fewer every sweep; the nodes of a cycle move on every sweep, so a
        # sweep that moves no fewer than the last means a cycle
        parents = np.flatnonzero(np.diff(self._cs_start))
        starts = self._cs_start[parents]
        level = np.zeros(self.num_nodes, dtype=np.int64)
        moved = len(parents) + 1
        while True:
            above = np.maximum.reduceat(level[self._cs_child], starts) + 1
            moving = np.count_nonzero(above != level[parents])
            if not moving:
                break
            if moving >= moved:
                raise CycleError("network graph contains a cycle")
            moved = moving
            level[parents] = above
        self._level = level
        self._topo = np.argsort(level, kind="stable").astype(np.int32)
        return self._topo

    def _evaluation_plan(self):
        """Per level above the leaves (a node sits one above its highest
        child), each node kind's (nodes, edges, children, seg_starts,
        seg_ids): the child edges of its nodes, in id then insertion order,
        their children, where each node's run starts and each edge's node."""
        if self._plan is not None:
            return self._plan
        self.topological_order()  # raises CycleError
        # every sum and product above level 0 in one run, grouped by level
        # and then kind (sums first), each group in id order
        kind, level = self.node_kind, self._level
        group = 2 * level + (kind == CODE_PRODUCT)
        inner = np.flatnonzero((level > 0) & (kind <= CODE_PRODUCT))
        nodes = inner[np.argsort(group[inner], kind="stable")].astype(np.int32)
        counts = np.diff(self._cs_start)[nodes]
        seg_starts = np.cumsum(counts) - counts
        seg_ids = np.repeat(np.arange(len(nodes)), counts)
        edges = self._cs_edge[self._cs_start[nodes][seg_ids] + np.arange(len(seg_ids))
                              - seg_starts[seg_ids]]
        children = self.edge_child[edges]
        depth = int(level.max(initial=0))
        cut = np.searchsorted(group[nodes], np.arange(2, 2 * depth + 3))
        edge_cut = np.append(seg_starts, len(edges))[cut]
        cut, edge_cut = cut.tolist(), edge_cut.tolist()

        plan = []
        for lv in range(depth):
            groups = {}
            for g, name in enumerate((SUM, PRODUCT), start=2 * lv):
                a, b, ea, eb = cut[g], cut[g + 1], edge_cut[g], edge_cut[g + 1]
                if a < b:
                    groups[name] = (nodes[a:b], edges[ea:eb], children[ea:eb],
                                    seg_starts[a:b] - ea, seg_ids[ea:eb] - a)
            plan.append(groups)
        self._plan = plan
        return plan

    # ------------------------------------------------------------------ copies

    def copy(self) -> "Network":
        return Network(
            nodes=NodeTable(*(column.copy() for column in self.node_table)),
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
    one sweep over every edge per level until the mask stops growing."""
    reachable = np.zeros(n, dtype=bool)
    reachable[root] = True
    count = 1
    while True:
        reachable[child[reachable[parent]]] = True
        grown = np.count_nonzero(reachable)
        if grown == count:
            return reachable
        count = grown


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
    kinds = network.node_kind
    is_leaf = kinds >= CODE_PART
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
                          message=f"{KINDS[kinds[node]]} node {node} has no children"))

    weight = network.edge_weight
    on_sum = kinds[parent] == CODE_SUM
    with np.errstate(invalid="ignore"):
        bad = np.where(on_sum, ~(np.isfinite(weight) & (weight >= 0)), ~np.isnan(weight))
    for edge in np.flatnonzero(bad).tolist():
        if on_sum[edge]:
            message = f"edge {edge} has invalid weight {weight[edge]}"
        else:
            message = f"edge {edge} of a {KINDS[kinds[parent[edge]]]} node carries a weight"
        add(Violation("weight", edge=edge, message=message))

    # scopes over variables named by their base evidence column (distinct for
    # non-negative part ids); an internal node's scope is its children's union
    table = network._leaf_slots()
    part, pair = network.node_part[table.leaves], network.node_pair[table.leaves]
    base = np.where(kinds[table.leaves] == CODE_PART, part_column(part),
                    pair_column(pair[:, 0], pair[:, 1]))
    columns, variable = np.unique(base, return_inverse=True)
    scope = np.zeros((n, (len(columns) + 63) // 64), dtype=np.uint64)  # 64 variables a word
    scope[table.leaves, variable >> 6] = np.uint64(1) << (variable & 63).astype(np.uint64)
    for groups in plan:
        for nodes, _, children, seg_starts, _ in groups.values():
            scope[nodes] = np.bitwise_or.reduceat(scope[children], seg_starts, axis=0)
    # children are subsets of the union: a product is decomposable iff their
    # sizes add up to the union's, a sum complete iff each has the union's
    # size, that is iff they add up to fanout times it
    size = np.bitwise_count(scope).sum(axis=1)
    child_total = np.bincount(parent, weights=size[child], minlength=n)
    overlap = (kinds == CODE_PRODUCT) & (fanout > 0) & (child_total != size)
    differ = (kinds == CODE_SUM) & (fanout > 0) & (child_total != fanout * size)
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
        nodes = np.flatnonzero(network.node_kind == CODE_SUM).tolist()
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
    for nid, (kind, part, positive, a, b, relation) in enumerate(zip(
            network.node_kind.tolist(), network.node_part.tolist(),
            network.node_positive.tolist(), network.node_pair[:, 0].tolist(),
            network.node_pair[:, 1].tolist(), network.node_relation.tolist())):
        if kind == CODE_PART:
            lines.append(f"node {nid} part {part} {'pos' if positive else 'neg'}")
        elif kind == CODE_SPATIAL:
            lines.append(f"node {nid} spatial {a} {b} {RELATION_TOKENS[relation]}")
        else:
            lines.append(f"node {nid} {KINDS[kind]}")
    is_sum = network.node_kind == CODE_SUM
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


# The largest part id a model file may name, so that node arrays hold every
# part and a leaf's evidence column (2p², see `part_column`) fits an int64.
MAX_PART_ID = 2 ** 31 - 1


def _part_id(token: str, line_no: int) -> int:
    part = _int(token, line_no, "part id")
    if part < 0:
        raise ModelFormatError(line_no, f"part id must be >= 0, got {part}")
    if part > MAX_PART_ID:
        raise ModelFormatError(line_no, f"part id must be <= {MAX_PART_ID}, got {part}")
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


def _parse_node(body, line_no) -> tuple:
    """The NodeTable row (kind, part, positive, a, b, relation) a node
    line's tokens after its id describe."""
    kind = body[0]
    if kind in (SUM, PRODUCT, ONE):
        if len(body) != 1:
            raise ModelFormatError(line_no, f"{kind} node takes no arguments")
        return KIND_CODES[kind], -1, False, -1, -1, -1
    if kind == PART:
        if len(body) != 3 or body[2] not in ("pos", "neg"):
            raise ModelFormatError(line_no, "part node needs '<id> pos|neg'")
        return CODE_PART, _part_id(body[1], line_no), body[2] == "pos", -1, -1, -1
    if kind == SPATIAL:
        if len(body) != 4:
            raise ModelFormatError(line_no, "spatial node needs '<a> <b> <relation>'")
        if body[3] not in TOKEN_RELATIONS:
            raise ModelFormatError(line_no, f"unknown relation {body[3]!r}")
        pair = (_part_id(body[1], line_no), _part_id(body[2], line_no))
        if pair[0] >= pair[1]:
            raise ModelFormatError(line_no, f"pair {pair} is not two canonically ordered parts")
        return CODE_SPATIAL, -1, False, *pair, int(TOKEN_RELATIONS[body[3]])
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
    with the same tokens after the id share one parsed row."""

    def __init__(self):
        self.kinds: dict[int, int] = {}  # node id -> kind code
        self.node_rows: list[tuple] = []  # (line, id, kind, part, positive, a, b, relation)
        self.edges: list[tuple[int, int, int, float]] = []  # (line, parent, child, weight)
        self.root = None
        self.root_line = 0
        self.class_label = None
        self.shared: dict[int, int] = {}  # edge id -> its first `shared` line
        self.partitions = []
        self._bodies: dict[tuple, tuple] = {}
        self._fractions: dict[str, Fraction] = {}

    def read(self, line_no: int, raw: str) -> None:
        line = raw.strip()
        if not line or line.startswith("#"):
            return
        tokens = line.split()
        tag = tokens[0]
        kinds = self.kinds
        if tag == "node":
            if len(tokens) < 3:
                raise ModelFormatError(line_no, "node line needs an id and a kind")
            nid = _int(tokens[1], line_no, "node id")
            if nid in kinds:
                raise ModelFormatError(line_no, f"duplicate node id {nid}")
            body = tuple(tokens[2:])
            row = self._bodies.get(body)
            if row is None:
                row = self._bodies[body] = _parse_node(body, line_no)
            kinds[nid] = row[0]
            self.node_rows.append((line_no, nid, *row))
        elif tag == "edge":
            if len(tokens) not in (3, 4):
                raise ModelFormatError(line_no, "edge line needs parent, child and optional weight")
            parent = _int(tokens[1], line_no, "edge endpoint")
            child = _int(tokens[2], line_no, "edge endpoint")
            if parent not in kinds or child not in kinds:
                raise ModelFormatError(line_no, f"edge refers to undeclared node")
            if kinds[parent] == CODE_SUM:
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

    def _node_columns(self):
        """The node rows read, in file order: line numbers, ids, NodeTable."""
        rows = np.array(self.node_rows, dtype=np.int64).reshape(-1, 8)
        return rows[:, 0], rows[:, 1], NodeTable(rows[:, 2], rows[:, 3], rows[:, 4] != 0,
                                                 rows[:, 5:7], rows[:, 7])

    def admit(self, node_lines, ids, nodes: NodeTable, lines, parent, child, weighted):
        """The NodeTable of the node rows read here and those read elsewhere
        (their line numbers, ids and NodeTable), if every row read elsewhere
        stands where this parse would take it: node ids 0..n-1 in file
        order, and each edge row (line numbers, endpoints, weight masks)
        after both its endpoints, with a weight if and only if its parent is
        a sum node. None otherwise."""
        n = len(ids) + len(self.node_rows)
        if any(not 0 <= nid < n for nid in self.kinds):
            return None
        if self.node_rows:
            own_lines, own_ids, own = self._node_columns()
            order = np.argsort(np.concatenate([node_lines, own_lines]), kind="stable")
            node_lines, ids = (np.concatenate(pair)[order] for pair in
                               ((node_lines, own_lines), (ids, own_ids)))
            nodes = NodeTable(*(np.concatenate(pair)[order] for pair in zip(nodes, own)))
        if not np.array_equal(ids, np.arange(n)):
            return None
        if len(lines) and not (
                max(parent.max(), child.max()) < n
                and (node_lines[parent] < lines).all() and (node_lines[child] < lines).all()
                and np.array_equal(nodes.kind[parent] == CODE_SUM, weighted)):
            return None
        return nodes

    def network(self, n_lines: int, nodes: NodeTable | None = None, lines=(), parent=(), child=(),
                weight=()) -> Network:
        """The network of the lines read, or of `nodes` (admitted by
        `admit`) and the lines read, with the edge rows read elsewhere
        (their line numbers, endpoints and weights) merged in by line."""
        if self.root is None:
            raise ModelFormatError(n_lines, "truncated model: missing root line")
        if nodes is None:
            n = len(self.kinds)
            if sorted(self.kinds) != list(range(n)):
                raise ModelFormatError(n_lines, "node ids are not dense 0..n-1")
            _, ids, nodes = self._node_columns()
            nodes = NodeTable(*(column[np.argsort(ids)] for column in nodes))
        n = len(nodes.kind)
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
            nodes=nodes,
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
# the most digits an int32 always holds; a longer number goes to the line parser
MAX_DIGITS = 9
# Lines per block of the bulk pass, which bounds its temporaries on large files.
EDGE_PASS_ROWS = 2 ** 16


def _number(buf: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Per row, the number the bytes buf[lo:hi] spell and whether they are 1
    to MAX_DIGITS decimal digits."""
    length = np.where((hi - lo >= 1) & (hi - lo <= MAX_DIGITS), hi - lo, 0)
    value = np.zeros(len(lo), dtype=np.int32)
    ok = length > 0
    for k in range(1, int(length.max(initial=0)) + 1):
        inside = length >= k
        digit = buf[hi - k] - np.uint8(48)  # bytes below "0" wrap past 9
        ok &= ~inside | (digit <= 9)
        value += (digit * inside).astype(np.int32) * 10 ** (k - 1)
    return value, ok


def _words(data: bytes) -> np.ndarray:
    """At each offset of `data`, the 8 bytes from there on (zeros past the
    end) as one little-endian integer."""
    return np.ndarray(len(data), dtype="<u8", buffer=data + bytes(8), strides=(1,))


def _which(words: np.ndarray, lo: np.ndarray, hi: np.ndarray, choices) -> np.ndarray:
    """Per row, the index in `choices` (each 1 to 8 bytes) of the bytes from
    `lo` to `hi` of the file whose `_words` are `words`, or -1."""
    keys = words[np.minimum(lo, len(words) - 1)]
    found = np.full(len(lo), -1, dtype=np.int8)
    for i, choice in enumerate(choices):
        mask = (1 << 8 * len(choice)) - 1
        found[(hi - lo == len(choice)) & (keys & mask == int.from_bytes(choice, "little"))] = i
    return found


# Per kind code, the tokens after "node" of its canonical node line.
_NODE_TOKENS = np.array([2, 2, 4, 5, 2])
_KIND_WORDS = tuple(kind.encode() for kind in KINDS)
_RELATION_WORDS = tuple(RELATION_TOKENS[relation].encode() for relation in Relation)


def _canonical_nodes(buf: np.ndarray, words: np.ndarray, spaces: np.ndarray, rows: np.ndarray,
                     lo: np.ndarray, hi: np.ndarray):
    """The `rows` (lines from `lo` to `hi` in `buf`, each starting "node ";
    `words` are the `_words` of `buf` and `spaces` the offsets of its spaces)
    that read `node <id> sum|product|one`, `node <id> part <p> pos|neg` or
    `node <id> spatial <a> <b> left|right|above|below`: single spaces, 1 to
    MAX_DIGITS decimal digits a number, and a < b. Returns those rows, their
    node ids and their NodeTable."""
    # the space after "node" and the next four bound its tokens; a space
    # past the line's end stands for the end
    at = np.searchsorted(spaces, lo + 4)
    n_tokens = np.searchsorted(spaces, hi) - at
    cut = np.column_stack([np.minimum(spaces[at[:, None] + np.arange(5)], hi[:, None]), hi])

    def token(k):
        return cut[:, k] + 1, cut[:, k + 1]

    kind = _which(words, *token(1), _KIND_WORDS)
    numbers, number_ok = _number(buf, *map(np.concatenate, zip(token(0), token(2), token(3))))
    (nid, a, b), (ok, a_ok, b_ok) = numbers.reshape(3, -1), number_ok.reshape(3, -1)
    positive = _which(words, *token(3), (b"neg", b"pos"))
    relation = _which(words, *token(4), _RELATION_WORDS)
    is_part, is_pair = kind == CODE_PART, kind == CODE_SPATIAL
    ok &= ((kind >= 0) & (n_tokens == _NODE_TOKENS[kind]) & (~is_part | (a_ok & (positive >= 0)))
           & (~is_pair | (a_ok & b_ok & (relation >= 0) & (a < b))))
    rows, nid, kind, a, b, positive, relation, is_part, is_pair = (
        column[ok] for column in (rows, nid, kind, a, b, positive, relation, is_part, is_pair))
    nodes = NodeTable(kind, np.where(is_part, a, -1), is_part & (positive == 1),
                      np.where(is_pair[:, None], np.column_stack([a, b]), -1),
                      np.where(is_pair, relation, -1))
    return rows, nid, nodes


def _canonical_edges(data: bytes, buf: np.ndarray, spaces: np.ndarray, rows: np.ndarray,
                     lo: np.ndarray, hi: np.ndarray):
    """The `rows` (lines from `lo` to `hi` in `buf`, the bytes of `data`,
    each starting "edge "; `spaces` holds the offsets of their spaces) that
    read `edge <parent> <child>` or `edge <parent> <child> <weight>`: single
    spaces, 1 to MAX_DIGITS decimal digits an endpoint, and a weight `float`
    reads as finite and >= 0. Returns those rows, their endpoints, weights
    (NaN where there is none) and weight mask."""
    # the space after "edge" and the two after it
    after_edge = np.searchsorted(spaces, lo + 4)
    gap, weight_gap = spaces[after_edge + 1], spaces[after_edge + 2]
    weighted = weight_gap < hi
    child_end = np.where(weighted, weight_gap, hi)
    endpoints, endpoint_ok = _number(buf, np.concatenate([lo + 5, gap + 1]),
                                     np.concatenate([gap, child_end]))
    (parent, child), (ok, child_ok) = endpoints.reshape(2, -1), endpoint_ok.reshape(2, -1)
    ok &= child_ok

    # the weight is the rest of the line: `float` strips ASCII whitespace
    # from its ends and fails on any other byte that is not part of a
    # number, so it reads exactly what the line parser's one weight token is
    weight = np.full(len(rows), np.nan)
    carry = np.flatnonzero(ok & weighted)
    values = []
    for start, end in zip((child_end[carry] + 1).tolist(), hi[carry].tolist()):
        try:
            values.append(float(data[start:end]))
        except ValueError:
            values.append(math.nan)
    weight[carry] = values
    with np.errstate(invalid="ignore"):
        ok[carry] &= np.isfinite(weight[carry]) & (weight[carry] >= 0)
    return rows[ok], parent[ok], child[ok], weight[ok], weighted[ok]


def _decode(data: bytes) -> str:
    """`data` as UTF-8 text; a byte that is not is an error at its line."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = len((data[:exc.start].decode("utf-8") + "x").splitlines())
        raise ModelFormatError(line_no, f"invalid UTF-8 byte {data[exc.start]:#04x}") from None


def deserialize(text: str | bytes) -> Network:
    """Parse a model file; errors carry the offending line number.

    Canonical node and edge lines (see `_canonical_nodes` and
    `_canonical_edges`) are read in one array pass over the file's bytes and
    every other line by the line parser, in file order. If a row of the pass
    does not stand where the line parser would take it, or a line fails, the
    line parser reads the whole file and names the first offending line."""
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

    words = _words(data)
    node_blocks, edge_blocks = [], []
    for first in range(0, n_lines, EDGE_PASS_ROWS):
        last = min(first + EDGE_PASS_ROWS, n_lines)
        # padded so that the fifth space after any line start has an offset
        spaces = np.concatenate([np.flatnonzero(buf[starts[first]:ends[last - 1]] == 32)
                                 + starts[first], [len(buf)] * 5])
        # a line too short for its tag has its "\n" (or, ending the file,
        # its last byte again) where the tag's space would be
        tag = _which(words, starts[first:last], starts[first:last] + 5, (b"node ", b"edge "))
        nodes, edges = (np.flatnonzero(tag == i) + first for i in (0, 1))
        node_blocks.append(_canonical_nodes(buf, words, spaces, nodes, starts[nodes], ends[nodes]))
        edge_blocks.append(_canonical_edges(data, buf, spaces, edges, starts[edges], ends[edges]))
    node_rows, ids, tables = zip(*node_blocks)
    node_rows, ids = np.concatenate(node_rows), np.concatenate(ids)
    nodes = NodeTable(*map(np.concatenate, zip(*tables)))
    edge_rows, parent, child, weight, weighted = map(np.concatenate, zip(*edge_blocks))
    line_rows = np.ones(n_lines, dtype=bool)
    line_rows[0] = False
    line_rows[node_rows] = False
    line_rows[edge_rows] = False
    line_rows = np.flatnonzero(line_rows)
    parser = _LineParser()
    try:
        for row, lo, hi in zip(line_rows.tolist(), starts[line_rows].tolist(),
                               ends[line_rows].tolist()):
            # in ASCII text, byte offsets are character offsets
            raw = text[lo:hi] if ascii_only else data[lo:hi].decode("utf-8", "surrogatepass")
            parser.read(row + 1, raw)
    except ModelFormatError:
        return _parse_lines(text)
    nodes = parser.admit(node_rows + 1, ids, nodes, edge_rows + 1, parent, child, weighted)
    if nodes is None:
        return _parse_lines(text)
    return parser.network(n_lines, nodes, edge_rows + 1, parent, child, weight)


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
