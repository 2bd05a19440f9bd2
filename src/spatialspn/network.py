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

import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import (
    CycleError,
    DegenerateNodeError,
    IncompleteEvidenceError,
    MalformedRecordError,
    ModelFormatError,
)
from .spatial import RELATION_TOKENS, TOKEN_RELATIONS, Relation, canonical_pair, relation_tuple

SUM = "sum"
PRODUCT = "product"
PART = "part"
SPATIAL = "spatial"
ONE = "one"

LEAF_KINDS = frozenset({PART, SPATIAL, ONE})
INTERNAL_KINDS = frozenset({SUM, PRODUCT})

FORMAT_VERSION = 1
WEIGHT_FLOOR = 1e-8

NEG_INF = float("-inf")


def part_var(part: int):
    return ("part", part)


def pair_var(pair: tuple[int, int]):
    return ("pair", pair)


@dataclass(frozen=True)
class Node:
    kind: str
    part: int | None = None
    positive: bool | None = None
    pair: tuple[int, int] | None = None
    relation: Relation | None = None

    def variable(self):
        """The single variable of a leaf indicator, None for other kinds."""
        if self.kind == PART:
            return part_var(self.part)
        if self.kind == SPATIAL:
            return pair_var(self.pair)
        return None


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
    """Where every leaf of a network reads its value in the evidence vector.

    The vector holds (x, x_bar) for each part of `parts`, then (left, right,
    above, below) for each pair of `pairs`, then the constant 1.0 of the
    "one" leaf. `base` maps each variable to its first slot."""

    parts: list[int]
    pairs: list[tuple[int, int]]
    base: dict
    size: int
    leaves: np.ndarray
    slots: np.ndarray


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


def assignment_to_indicators(image, vocabulary_size: int, query_parts=(), pairs=None,
                             parts=None) -> IndicatorValues:
    """Encode an image's detections as indicator values.

    Observed parts become one-hot (absence is evidence, not missingness),
    parts in query_parts get both polarities 1, and spatial indicators are
    computed from detection centers for pairs with both parts present and
    neither queried, and marginalized otherwise. `parts` and `pairs` restrict
    which entries are materialized; by default every part and every canonical
    pair of the vocabulary is filled.
    """
    query = set(query_parts)
    locations = {}
    for det in image.detections:
        loc = det.location()
        if not loc.is_finite():
            raise MalformedRecordError(
                f"image {image.id}: part {det.part} is active but its location is not finite"
            )
        if det.part not in locations:
            locations[det.part] = loc

    values = IndicatorValues()
    if parts is None:
        parts = range(vocabulary_size)
    for part in parts:
        if part in query:
            values.marginalize_part(part)
        else:
            values.set_part(part, part in locations)

    if pairs is None:
        pairs = [(a, b) for a in range(vocabulary_size) for b in range(a + 1, vocabulary_size)]
    for pair in pairs:
        a, b = canonical_pair(*pair)
        if a in locations and b in locations and a not in query and b not in query:
            values.set_pair((a, b), relation_tuple(locations[a], locations[b]))
        else:
            values.marginalize_pair((a, b))
    return values


def indicators_for_network(network: "Network", image, query_parts=()) -> IndicatorValues:
    """Indicator values covering exactly the leaves of one network."""
    return assignment_to_indicators(image, 0, query_parts, pairs=network.pair_universe,
                                    parts=network.part_universe)


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
        return [part_var(p) for p in self.part_universe] + [pair_var(q) for q in self.pair_universe]

    # -------------------------------------------------------------- topo / plan

    def _leaf_slots(self) -> "LeafSlots":
        """Each leaf's slot in the flat evidence vector, compiled once."""
        if self._leaf_table is not None:
            return self._leaf_table
        parts = sorted({nd.part for nd in self.nodes if nd.kind == PART})
        pairs = sorted({nd.pair for nd in self.nodes if nd.kind == SPATIAL})
        base = {part_var(p): 2 * i for i, p in enumerate(parts)}
        base.update({pair_var(q): 2 * len(parts) + 4 * j for j, q in enumerate(pairs)})
        size = 2 * len(parts) + 4 * len(pairs) + 1
        leaves, slots = [], []
        for nid, nd in enumerate(self.nodes):
            if nd.kind == PART:
                slots.append(base[part_var(nd.part)] + (0 if nd.positive else 1))
            elif nd.kind == SPATIAL:
                slots.append(base[pair_var(nd.pair)] + int(nd.relation))
            elif nd.kind == ONE:
                slots.append(size - 1)
            else:
                continue
            leaves.append(nid)
        self._leaf_table = LeafSlots(parts, pairs, base, size,
                                 np.asarray(leaves, dtype=np.int64), np.asarray(slots, dtype=np.int64))
        return self._leaf_table

    def topological_order(self) -> np.ndarray:
        """Node ids ordered children-first. Raises CycleError on cycles."""
        if self._topo is not None:
            return self._topo
        n = self.num_nodes
        remaining = np.bincount(self.edge_parent, minlength=n)
        parent_index_order = np.argsort(self.edge_child, kind="stable")
        p_edge = parent_index_order
        p_parent = self.edge_parent[parent_index_order]
        counts = np.bincount(self.edge_child, minlength=n)
        p_start = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=p_start[1:])

        topo = []
        stack = [i for i in range(n) if remaining[i] == 0]
        while stack:
            node = stack.pop()
            topo.append(node)
            for parent in p_parent[p_start[node]:p_start[node + 1]]:
                remaining[parent] -= 1
                if remaining[parent] == 0:
                    stack.append(int(parent))
        if len(topo) != n:
            raise CycleError("network graph contains a cycle")
        self._topo = np.asarray(topo, dtype=np.int32)
        return self._topo

    def _evaluation_plan(self):
        """Per-level edge groups for vectorized bottom-up evaluation."""
        if self._plan is not None:
            return self._plan
        topo = self.topological_order()
        level = np.zeros(self.num_nodes, dtype=np.int64)
        for node in topo:
            kids = self.children(node)
            if len(kids):
                level[node] = level[kids].max() + 1

        plan = []
        max_level = int(level.max()) if self.num_nodes else 0
        for lv in range(1, max_level + 1):
            ids = np.flatnonzero(level == lv)
            groups = {}
            for kind in (SUM, PRODUCT):
                nodes = np.asarray(
                    [i for i in ids if self.nodes[i].kind == kind], dtype=np.int32
                )
                if not len(nodes):
                    continue
                seg_starts = []
                edge_chunks = []
                pos = 0
                for nid in nodes:
                    edges = self.child_edges(int(nid))
                    seg_starts.append(pos)
                    edge_chunks.append(edges)
                    pos += len(edges)
                edges = np.concatenate(edge_chunks)
                groups[kind] = (
                    nodes,
                    edges,
                    np.asarray(seg_starts, dtype=np.int64),
                )
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
        key = (PART, part, positive)
        if key not in self._leaf_cache:
            self._leaf_cache[key] = self._add(Node(PART, part=part, positive=positive))
        return self._leaf_cache[key]

    def spatial(self, pair, relation: Relation) -> int:
        pair = canonical_pair(*pair)
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


def _scope_bits(network: Network, topo) -> tuple[list[int], dict]:
    """Per-node variable scopes as bitsets (python ints)."""
    var_index = {v: i for i, v in enumerate(network.variables())}
    scopes = [0] * network.num_nodes
    for node in topo:
        nd = network.nodes[node]
        if nd.kind in (PART, SPATIAL):
            scopes[node] = 1 << var_index[nd.variable()]
        elif nd.kind == ONE:
            scopes[node] = 0
        else:
            acc = 0
            for child in network.children(node):
                acc |= scopes[child]
            scopes[node] = acc
    return scopes, var_index


def validate(network: Network) -> ValidityReport:
    """Check acyclicity, reachability, node arity, weights, decomposability
    and completeness. Violations are data, not exceptions; an empty report
    means the network is valid."""
    report = ValidityReport()

    try:
        topo = network.topological_order()
    except CycleError:
        report.violations.append(
            Violation("acyclicity", message="graph contains a cycle")
        )
        return report

    reachable = np.zeros(network.num_nodes, dtype=bool)
    stack = [network.root]
    reachable[network.root] = True
    while stack:
        node = stack.pop()
        for child in network.children(node):
            if not reachable[child]:
                reachable[child] = True
                stack.append(int(child))
    for node in np.flatnonzero(~reachable):
        report.violations.append(
            Violation("reachability", node=int(node), message=f"node {node} unreachable from root")
        )

    for node, nd in enumerate(network.nodes):
        n_children = len(network.children(node))
        if nd.kind in LEAF_KINDS and n_children:
            report.violations.append(
                Violation("leaf-children", node=node, message=f"leaf node {node} has children")
            )
        if nd.kind in INTERNAL_KINDS and n_children == 0:
            report.violations.append(
                Violation("childless-internal", node=node, message=f"{nd.kind} node {node} has no children")
            )

    for edge in range(network.num_edges):
        parent = int(network.edge_parent[edge])
        weight = network.edge_weight[edge]
        if network.nodes[parent].kind == SUM:
            if not math.isfinite(weight) or weight < 0:
                report.violations.append(
                    Violation("weight", edge=edge, message=f"edge {edge} has invalid weight {weight}")
                )
        elif not math.isnan(weight):
            report.violations.append(
                Violation("weight", edge=edge, message=f"edge {edge} of a {network.nodes[parent].kind} node carries a weight")
            )

    scopes, _ = _scope_bits(network, topo)
    for node, nd in enumerate(network.nodes):
        kids = network.children(node)
        if nd.kind == PRODUCT and len(kids):
            acc = 0
            for child in kids:
                if acc & scopes[child]:
                    report.violations.append(
                        Violation(
                            "decomposability",
                            node=node,
                            message=f"product node {node} has children with overlapping scopes",
                        )
                    )
                    break
                acc |= scopes[child]
        elif nd.kind == SUM and len(kids):
            first = scopes[kids[0]]
            if any(scopes[child] != first for child in kids[1:]):
                report.violations.append(
                    Violation(
                        "completeness",
                        node=node,
                        message=f"sum node {node} has children with differing scopes",
                    )
                )
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


def _leaf_log_values(network: Network, indicators: IndicatorValues) -> np.ndarray:
    table = network._leaf_slots()
    try:
        rows = [indicators.parts[p] for p in table.parts]
    except KeyError as exc:
        raise IncompleteEvidenceError(f"no indicator value for part {exc.args[0]}") from None
    try:
        rows += [indicators.pairs[q] for q in table.pairs]
    except KeyError as exc:
        raise IncompleteEvidenceError(f"no indicator values for pair {exc.args[0]}") from None
    rows.append((1.0,))
    evidence = np.fromiter(chain.from_iterable(rows), dtype=np.float64)
    if len(evidence) != table.size:
        raise IncompleteEvidenceError("indicator entries must hold 2 values per part, 4 per pair")
    values = evidence[table.slots]
    bad = ~((values >= 0.0) & (values <= 1.0 + 1e-12))  # NaN fails both tests
    if bad.any():
        first = int(np.argmax(bad))
        raise IncompleteEvidenceError(
            f"indicator value for node {table.leaves[first]} must lie in [0, 1], got {values[first]}"
        )
    logv = np.zeros(network.num_nodes, dtype=np.float64)
    with np.errstate(divide="ignore"):
        logv[table.leaves] = np.log(values)
    return logv


def _segment_values(scores: np.ndarray, seg_starts: np.ndarray, mode: str) -> np.ndarray:
    """Per-segment logsumexp or max over contiguous edge scores."""
    maxima = np.maximum.reduceat(scores, seg_starts)
    if mode == "max":
        return maxima
    seg_ids = np.zeros(len(scores), dtype=np.int64)
    seg_ids[seg_starts[1:]] = 1
    seg_ids = np.cumsum(seg_ids)
    dead = np.isneginf(maxima)
    with np.errstate(invalid="ignore"):
        shifted = scores - maxima[seg_ids]
    shifted[dead[seg_ids]] = 0.0  # -inf minus -inf: whole segment is dead
    sums = np.add.reduceat(np.exp(shifted), seg_starts)
    with np.errstate(divide="ignore"):
        out = maxima + np.log(sums)
    out[dead] = NEG_INF  # NaN maxima must stay NaN so training can abort
    return out


def _forward(network: Network, indicators, mode: str) -> EvaluationResult:
    logv = _leaf_log_values(network, indicators)
    with np.errstate(divide="ignore"):
        logw = np.log(network.edge_weight)
    for groups in network._evaluation_plan():
        if PRODUCT in groups:
            nodes, edges, seg_starts = groups[PRODUCT]
            logv[nodes] = np.add.reduceat(logv[network.edge_child[edges]], seg_starts)
        if SUM in groups:
            nodes, edges, seg_starts = groups[SUM]
            scores = logw[edges] + logv[network.edge_child[edges]]
            logv[nodes] = _segment_values(scores, seg_starts, mode)
    return EvaluationResult(network, logv)


def evaluate(network: Network, indicators: IndicatorValues) -> EvaluationResult:
    """Exact topological evaluation; sum nodes mix, product nodes factor."""
    return _forward(network, indicators, "sum")


def max_evaluate(network: Network, indicators: IndicatorValues) -> EvaluationResult:
    """Evaluation with sum nodes replaced by max nodes."""
    return _forward(network, indicators, "max")


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
    for edge in range(network.num_edges):
        parent = int(network.edge_parent[edge])
        child = int(network.edge_child[edge])
        if network.nodes[parent].kind == SUM:
            lines.append(f"edge {parent} {child} {network.edge_weight[edge]:.17g}")
        else:
            lines.append(f"edge {parent} {child}")
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


def _parse_rect(tokens, line_no):
    from fractions import Fraction

    if len(tokens) != 4:
        raise ModelFormatError(line_no, f"rectangle needs 4 coordinates, got {len(tokens)}")
    try:
        return tuple(Fraction(t) for t in tokens)
    except (ValueError, ZeroDivisionError) as exc:
        raise ModelFormatError(line_no, f"bad rectangle coordinate: {exc}") from None


def deserialize(text: str | bytes) -> Network:
    """Parse a model file; errors carry the offending line number."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    lines = text.splitlines()
    if not lines:
        raise ModelFormatError(0, "empty model file")
    header = lines[0].split()
    if len(header) != 2 or header[0] != "spn-model":
        raise ModelFormatError(1, f"expected 'spn-model v{FORMAT_VERSION}' header")
    if header[1] != f"v{FORMAT_VERSION}":
        raise ModelFormatError(1, f"unsupported format version {header[1]!r}")

    nodes: dict[int, Node] = {}
    edges = []
    root = None
    class_label = None
    shared = set()
    partitions = []

    for line_no, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        tag = tokens[0]
        if tag == "class":
            if len(tokens) != 2:
                raise ModelFormatError(line_no, "class line needs one label")
            class_label = tokens[1]
        elif tag == "node":
            if len(tokens) < 3:
                raise ModelFormatError(line_no, "node line needs an id and a kind")
            nid = _int(tokens[1], line_no, "node id")
            if nid in nodes:
                raise ModelFormatError(line_no, f"duplicate node id {nid}")
            kind = tokens[2]
            if kind in (SUM, PRODUCT, ONE):
                if len(tokens) != 3:
                    raise ModelFormatError(line_no, f"{kind} node takes no arguments")
                nodes[nid] = Node(kind)
            elif kind == PART:
                if len(tokens) != 5 or tokens[4] not in ("pos", "neg"):
                    raise ModelFormatError(line_no, "part node needs '<id> pos|neg'")
                nodes[nid] = Node(PART, part=_int(tokens[3], line_no, "part id"),
                                  positive=tokens[4] == "pos")
            elif kind == SPATIAL:
                if len(tokens) != 6:
                    raise ModelFormatError(line_no, "spatial node needs '<a> <b> <relation>'")
                if tokens[5] not in TOKEN_RELATIONS:
                    raise ModelFormatError(line_no, f"unknown relation {tokens[5]!r}")
                pair = (_int(tokens[3], line_no, "part id"), _int(tokens[4], line_no, "part id"))
                if pair != canonical_pair(*pair):
                    raise ModelFormatError(line_no, f"pair {pair} is not canonically ordered")
                nodes[nid] = Node(SPATIAL, pair=pair, relation=TOKEN_RELATIONS[tokens[5]])
            else:
                raise ModelFormatError(line_no, f"unknown node kind {kind!r}")
        elif tag == "edge":
            if len(tokens) not in (3, 4):
                raise ModelFormatError(line_no, "edge line needs parent, child and optional weight")
            parent = _int(tokens[1], line_no, "edge endpoint")
            child = _int(tokens[2], line_no, "edge endpoint")
            if parent not in nodes or child not in nodes:
                raise ModelFormatError(line_no, f"edge refers to undeclared node")
            parent_is_sum = nodes[parent].kind == SUM
            if parent_is_sum:
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
            edges.append((line_no, parent, child, weight))
        elif tag == "root":
            if len(tokens) != 2:
                raise ModelFormatError(line_no, "root line needs one id")
            root = _int(tokens[1], line_no, "root id")
        elif tag == "shared":
            if len(tokens) != 2:
                raise ModelFormatError(line_no, "shared line needs one edge id")
            shared.add(_int(tokens[1], line_no, "shared edge id"))
        elif tag == "partition":
            body = line[len("partition"):].strip()
            if ":" not in body:
                raise ModelFormatError(line_no, "partition line needs 'parent : children'")
            parent_part, child_part = body.split(":", 1)
            parent_rect = _parse_rect(parent_part.split(), line_no)
            child_rects = tuple(
                _parse_rect(chunk.split(), line_no) for chunk in child_part.split("|")
            )
            partitions.append((parent_rect, child_rects))
        else:
            raise ModelFormatError(line_no, f"unknown line tag {tag!r}")

    if root is None:
        raise ModelFormatError(len(lines), "truncated model: missing root line")
    n = len(nodes)
    if sorted(nodes) != list(range(n)):
        raise ModelFormatError(len(lines), "node ids are not dense 0..n-1")
    if not (0 <= root < n):
        raise ModelFormatError(len(lines), f"root {root} out of range")
    for line_no, parent, child, _ in edges:
        if not (0 <= parent < n and 0 <= child < n):
            raise ModelFormatError(line_no, "edge endpoint out of range")
    for edge_id in shared:
        if not (0 <= edge_id < len(edges)):
            raise ModelFormatError(len(lines), f"shared edge id {edge_id} out of range")

    return Network(
        nodes=[nodes[i] for i in range(n)],
        edge_parent=[e[1] for e in edges],
        edge_child=[e[2] for e in edges],
        edge_weight=[e[3] for e in edges],
        root=root,
        class_label=class_label,
        shared_edges=shared,
        partitions=partitions,
    )


def save_network(network: Network, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(network))


def load_network(path) -> Network:
    with open(path, "r", encoding="utf-8") as fh:
        return deserialize(fh.read())
