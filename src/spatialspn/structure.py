"""Hierarchical structure learning from discriminative image partitions.

The image plane is recursively divided by axis-aligned guillotine strip
partitions whose cuts live on a 1/20 grid of the parent region, stored as
exact rationals so tilings are exact and region rectangles hash stably.
Candidate partitions are scored by a small regularized linear classifier on
concatenated per-region part activations; the best few become product nodes,
their regions recurse, and leaf regions receive pair gadgets for part pairs
that co-occur there often enough.

Scope bookkeeping: a sum node is only valid if its children cover identical
variable sets, so every mixture child is completed to the region's full
variable set with shared per-part and per-pair marginal nodes, and sibling
regions claim variables exclusively (first region in partition order wins).
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .data import Dataset
from .errors import ContractViolationError, InsufficientDataError
from .network import ONE, PART, PRODUCT, ROW_BLOCK_ELEMENTS, SPATIAL, SUM, Network, NetworkBuilder, validate
from .spatial import Relation, add_gadget

log = logging.getLogger(__name__)

CUT_GRID = 20  # cut positions per axis, relative to the parent region


def pair_count(n_parts: int) -> int:
    """Number of unordered part pairs, n*(n-1)/2."""
    if n_parts < 0:
        raise ValueError("part count must be nonnegative")
    return n_parts * (n_parts - 1) // 2


@dataclass(frozen=True)
class Region:
    """Axis-aligned rectangle in normalized coordinates, exact rationals."""

    x0: Fraction
    y0: Fraction
    x1: Fraction
    y1: Fraction

    def __post_init__(self):
        if not (0 <= self.x0 < self.x1 <= 1 and 0 <= self.y0 < self.y1 <= 1):
            raise ValueError(f"degenerate region {self.rect()}")

    @classmethod
    def whole(cls) -> "Region":
        return cls(Fraction(0), Fraction(0), Fraction(1), Fraction(1))

    @classmethod
    def of(cls, x0, y0, x1, y1) -> "Region":
        return cls(Fraction(x0), Fraction(y0), Fraction(x1), Fraction(y1))

    def rect(self):
        return (self.x0, self.y0, self.x1, self.y1)

    @property
    def area(self) -> Fraction:
        return (self.x1 - self.x0) * (self.y1 - self.y0)

    def contains(self, nx: Fraction, ny: Fraction) -> bool:
        return self.x0 <= nx < self.x1 and self.y0 <= ny < self.y1


@dataclass(frozen=True)
class Partition:
    """Exact tiling of a parent region into ordered strips."""

    parent: Region
    children: tuple[Region, ...]

    def digest(self) -> int:
        """Stable canonical hash used for deterministic tie-breaking."""
        blob = repr([r.rect() for r in self.children]).encode()
        return int.from_bytes(hashlib.sha1(blob).digest()[:8], "big")


@dataclass
class PartitionScore:
    partition: Partition
    accuracy: float


@dataclass
class StructureConfig:
    """Knobs for partition-based structure learning.

    s strips per partition, M candidates scored, m kept (m < M), recursion
    depth D, and a co-occurrence threshold tau gating which pairs get
    gadgets. naive_components sizes the mixture of the spatial-free baseline
    network."""

    s: int = 3
    M: int = 50
    m: int = 3
    D: int = 2
    min_region_area: float = 0.04
    tau: float = 0.2
    seed: int = 0
    naive_components: int = 3

    def __post_init__(self):
        if self.m >= self.M:
            raise ValueError("config requires m < M")
        if self.s < 2:
            raise ValueError("config requires s >= 2")
        if self.D < 1:
            raise ValueError("config requires D >= 1")


@dataclass
class TreeNode:
    """One region of the partition tree with its kept partitions."""

    region: Region
    partitions: list["PartitionChoice"] = field(default_factory=list)
    # set by the variable-claiming pass before network construction
    parts: list[int] = field(default_factory=list)
    pairs: list[tuple[int, int]] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        return not self.partitions

    def variables(self):
        return {("part", p) for p in self.parts} | {("pair", q) for q in self.pairs}


@dataclass
class PartitionChoice:
    partition: Partition
    accuracy: float
    children: list[TreeNode]


@dataclass
class PartitionTree:
    root: TreeNode
    config: StructureConfig

    def leaves(self) -> list[TreeNode]:
        found = []

        def walk(node):
            if node.is_leaf:
                found.append(node)
            for choice in node.partitions:
                for child in choice.children:
                    walk(child)

        walk(self.root)
        return found

    def partition_lines(self):
        lines = []

        def walk(node):
            for choice in node.partitions:
                lines.append(
                    (node.region.rect(), tuple(r.rect() for r in (c.region for c in choice.children)))
                )
                for child in choice.children:
                    walk(child)

        walk(self.root)
        return lines


def manual_tree(partition: Partition, config: StructureConfig | None = None) -> PartitionTree:
    """A one-level tree from an explicit partition (no learning)."""
    config = config or StructureConfig()
    children = [TreeNode(region=r) for r in partition.children]
    root = TreeNode(
        region=partition.parent,
        partitions=[PartitionChoice(partition, accuracy=1.0, children=children)],
    )
    return PartitionTree(root=root, config=config)


# ------------------------------------------------------------------ sampling


def strip_partition(region: Region, orientation: str, cuts: tuple[int, ...]) -> Partition:
    """Guillotine strips at grid positions (twentieths of the region extent)."""
    children = []
    if orientation == "v":
        span = region.x1 - region.x0
        xs = [region.x0] + [region.x0 + span * Fraction(c, CUT_GRID) for c in cuts] + [region.x1]
        for lo, hi in zip(xs, xs[1:]):
            children.append(Region(lo, region.y0, hi, region.y1))
    else:
        span = region.y1 - region.y0
        ys = [region.y0] + [region.y0 + span * Fraction(c, CUT_GRID) for c in cuts] + [region.y1]
        for lo, hi in zip(ys, ys[1:]):
            children.append(Region(region.x0, lo, region.x1, hi))
    return Partition(parent=region, children=tuple(children))


def partition_family_size(s: int) -> int:
    """Distinct strip partitions of one region: orientations x cut choices."""
    if s == 1:
        return 1
    from math import comb

    return 2 * comb(CUT_GRID - 1, s - 1)


def sample_partitions(region: Region, config: StructureConfig, rng, s: int | None = None):
    """Up to M distinct random strip partitions of a region.

    Returns the empty list when the region is too small to host s strips of
    min_region_area each; when the whole family is smaller than M, every
    member is returned (deterministic order)."""
    s = config.s if s is None else s
    if s == 1:
        return [Partition(parent=region, children=(region,))]
    if float(region.area) < s * config.min_region_area:
        return []

    family = partition_family_size(s)
    if family <= config.M:
        candidates = []
        from itertools import combinations

        for orientation in ("v", "h"):
            for cuts in combinations(range(1, CUT_GRID), s - 1):
                candidates.append(strip_partition(region, orientation, cuts))
        return candidates

    seen = set()
    out = []
    attempts = 0
    while len(out) < config.M and attempts < 50 * config.M:
        attempts += 1
        orientation = "v" if rng.integers(2) == 0 else "h"
        cuts = tuple(sorted(int(c) + 1 for c in rng.choice(CUT_GRID - 1, size=s - 1, replace=False)))
        key = (orientation, cuts)
        if key in seen:
            continue
        seen.add(key)
        out.append(strip_partition(region, orientation, cuts))
    return out


# ------------------------------------------------------------------- scoring


def _detection_table(records):
    """Flat arrays (row, part, nx, ny) over all detections of all records.

    Containment tests run on floats; adjacent strips share the exact same
    rational boundary, so its float image is identical on both sides and each
    point falls in exactly one half-open strip."""
    rows, parts, nxs, nys = [], [], [], []
    for row, record in enumerate(records):
        for det in record.detections:
            rows.append(row)
            parts.append(det.part)
            nxs.append(det.x / record.width)
            nys.append(det.y / record.height)
    return (
        np.asarray(rows, dtype=np.int64),
        np.asarray(parts, dtype=np.int64),
        np.asarray(nxs, dtype=np.float64),
        np.asarray(nys, dtype=np.float64),
    )


def _region_features(partition: Partition, dataset: Dataset, records, table=None) -> np.ndarray:
    """Concatenated per-region binary part activations, one row per record."""
    t = dataset.vocabulary_size
    rows, parts, nxs, nys = table if table is not None else _detection_table(records)
    features = np.zeros((len(records), len(partition.children) * t), dtype=np.float64)
    for r_idx, child in enumerate(partition.children):
        mask = (
            (nxs >= float(child.x0))
            & (nxs < float(child.x1))
            & (nys >= float(child.y0))
            & (nys < float(child.y1))
        )
        features[rows[mask], r_idx * t + parts[mask]] = 1.0
    return features


def _train_split(labels: np.ndarray, seed: int):
    """Stratified, seeded 70/30 split; returns boolean train mask."""
    rng = np.random.default_rng(seed)
    mask = np.zeros(len(labels), dtype=bool)
    for value in (0, 1):
        idx = np.flatnonzero(labels == value)
        idx = idx[rng.permutation(len(idx))]
        cut = max(1, int(round(0.7 * len(idx))))
        mask[idx[:cut]] = True
    return mask


def _logistic_fit(x, y, l2=1e-3, iters=300, lr=1.0):
    """Deterministic full-batch gradient descent with balanced class weights:
    one fit per leading slice of x (fits, n, d), all against the labels y.
    The stacked matmuls give each fit the bytes of fitting it alone."""
    fits, n, d = x.shape
    xb = np.concatenate([x, np.ones((fits, n, 1))], axis=2)
    w = np.zeros((fits, d + 1))
    pos = max(y.sum(), 1.0)
    neg = max(n - y.sum(), 1.0)
    sample_w = np.where(y == 1, n / (2.0 * pos), n / (2.0 * neg))
    for _ in range(iters):
        z = np.matmul(xb, w[:, :, None])[:, :, 0]
        p = 1.0 / (1.0 + np.exp(-np.clip(z, -35, 35)))
        grad = np.matmul((sample_w * (p - y))[:, None, :], xb)[:, 0, :] / n
        grad[:, :-1] += l2 * w[:, :-1]
        w -= lr * grad
    return w


def _balanced_accuracy(y_true, y_pred) -> float:
    accs = []
    for value in (0, 1):
        mask = y_true == value
        if mask.any():
            accs.append(float((y_pred[mask] == value).mean()))
    return float(np.mean(accs)) if accs else 0.0


def _score_partitions(partitions, dataset: Dataset, klass: str, seed: int,
                      table=None) -> list[PartitionScore]:
    """Held-out balanced accuracy of a linear classifier on region activations,
    per partition. The partitions share their child count; their fits run as
    stacked descents in blocks of about ROW_BLOCK_ELEMENTS feature values.

    The 70/30 split is stratified and derived from the seed alone, so every
    candidate partition is judged on the same split."""
    records = dataset.records
    labels = np.asarray([1.0 if r.klass == klass else 0.0 for r in records])
    if labels.sum() < 4:
        raise InsufficientDataError(
            f"class {klass!r} has {int(labels.sum())} positives; at least 4 required"
        )
    if labels.sum() == len(labels):
        raise InsufficientDataError(f"class {klass!r} has no negative images")
    table = table if table is not None else _detection_table(records)
    train = _train_split(labels, seed)
    width = len(partitions[0].children) * dataset.vocabulary_size + 1
    step = max(1, ROW_BLOCK_ELEMENTS // (int(train.sum()) * width))
    scores = []
    for lo in range(0, len(partitions), step):
        block = partitions[lo:lo + step]
        features = np.stack([_region_features(p, dataset, records, table) for p in block])
        weights = _logistic_fit(features[:, train], labels[train])
        for partition, held, w in zip(block, features[:, ~train], weights):
            held_x = np.hstack([held, np.ones((len(held), 1))])
            pred = (held_x @ w > 0).astype(float)
            scores.append(PartitionScore(partition, _balanced_accuracy(labels[~train], pred)))
    return scores


def score_partition(partition: Partition, dataset: Dataset, klass: str, seed: int = 0,
                    table=None) -> PartitionScore:
    """Held-out balanced accuracy of a linear classifier on one partition's
    region activations (see _score_partitions)."""
    return _score_partitions([partition], dataset, klass, seed, table)[0]


# ------------------------------------------------------------------ learning


def learn_partition_tree(dataset: Dataset, klass: str, config: StructureConfig) -> PartitionTree:
    """Recursively sample, score and keep the top-m partitions per region.

    Ties on accuracy break toward the lower canonical partition hash, and the
    recursion stops at depth D or when a region cannot host s strips."""
    rng = np.random.default_rng(config.seed)
    table = _detection_table(dataset.records)

    def expand(region: Region, depth: int) -> TreeNode:
        node = TreeNode(region=region)
        if depth >= config.D:
            return node
        candidates = sample_partitions(region, config, rng)
        if not candidates:
            return node
        scored = _score_partitions(candidates, dataset, klass, config.seed, table)
        scored.sort(key=lambda ps: (-ps.accuracy, ps.partition.digest()))
        for ps in scored[: config.m]:
            children = [expand(child, depth + 1) for child in ps.partition.children]
            node.partitions.append(PartitionChoice(ps.partition, ps.accuracy, children))
        return node

    return PartitionTree(root=expand(Region.whole(), 0), config=config)


# ------------------------------------------------------- region statistics


def _assign_region_stats(tree: PartitionTree, dataset: Dataset, klass: str, tau: float) -> None:
    """Fill leaf part/pair qualification and claim variables exclusively.

    Leaf stats come from the class positives: a part qualifies when its
    occurrence rate in the region reaches tau, a pair when both parts land in
    the region together at rate tau. Within each partition, earlier sibling
    regions claim variables first so product scopes stay disjoint."""
    positives = dataset.by_class(klass)
    if not positives:
        raise InsufficientDataError(f"class {klass!r} has no images")

    norm = []
    for record in positives:
        pts = {}
        for det in record.detections:
            if det.part not in pts:
                pts[det.part] = (det.x / record.width, det.y / record.height)
        norm.append(pts)
    n_pos = len(norm)

    def leaf_stats(region: Region):
        fx0, fy0, fx1, fy1 = (float(v) for v in region.rect())
        part_counts: dict[int, int] = {}
        pair_counts: dict[tuple[int, int], int] = {}
        for pts in norm:
            inside = sorted(
                p
                for p, (nx, ny) in pts.items()
                if fx0 <= nx < fx1 and fy0 <= ny < fy1
            )
            for p in inside:
                part_counts[p] = part_counts.get(p, 0) + 1
            for i, a in enumerate(inside):
                for b in inside[i + 1:]:
                    pair_counts[(a, b)] = pair_counts.get((a, b), 0) + 1
        parts = sorted(p for p, c in part_counts.items() if c / n_pos >= tau)
        pairs = sorted(q for q, c in pair_counts.items() if c / n_pos >= tau)
        return parts, pairs

    def restrict(node: TreeNode, forbidden_parts: frozenset, forbidden_pairs: frozenset):
        if node.is_leaf:
            parts, pairs = leaf_stats(node.region)
            node.parts = [p for p in parts if p not in forbidden_parts]
            allowed = set(node.parts)
            node.pairs = [
                q
                for q in pairs
                if q not in forbidden_pairs and q[0] in allowed and q[1] in allowed
            ]
            return
        all_parts: set[int] = set()
        all_pairs: set[tuple[int, int]] = set()
        for choice in node.partitions:
            claimed_parts = set(forbidden_parts)
            claimed_pairs = set(forbidden_pairs)
            for child in choice.children:
                restrict(child, frozenset(claimed_parts), frozenset(claimed_pairs))
                claimed_parts.update(child.parts)
                claimed_pairs.update(child.pairs)
            all_parts.update(claimed_parts - forbidden_parts)
            all_pairs.update(claimed_pairs - forbidden_pairs)
        node.parts = sorted(all_parts)
        node.pairs = sorted(all_pairs)

    restrict(tree.root, frozenset(), frozenset())


# --------------------------------------------------------------- net building


class _ClassNetBuilder:
    """Assembles one class network from a claimed partition tree."""

    def __init__(self, builder: NetworkBuilder):
        self.b = builder
        self._marginals: dict[int, int] = {}
        self._pair_marginals: dict[tuple[int, int], int] = {}

    def part_marginal(self, part: int) -> int:
        """Shared trainable mixture over the two polarities of one part."""
        if part not in self._marginals:
            node = self.b.sum()
            self.b.edge(node, self.b.part(part, True), 0.5)
            self.b.edge(node, self.b.part(part, False), 0.5)
            self._marginals[part] = node
        return self._marginals[part]

    def pair_marginal(self, pair) -> int:
        """Shared mixture over the four relation indicators of one pair."""
        if pair not in self._pair_marginals:
            node = self.b.sum()
            for rel in Relation:
                self.b.edge(node, self.b.spatial(pair, rel), 0.25)
            self._pair_marginals[pair] = node
        return self._pair_marginals[pair]

    def completed_product(self, anchor: int, anchor_vars, all_parts, all_pairs, annotation):
        """Wrap an anchor node with marginal fillers so it covers every
        variable of the region; returns the anchor itself when nothing is
        missing."""
        anchor_parts, anchor_pairs = anchor_vars
        fill_parts = [p for p in all_parts if p not in anchor_parts]
        fill_pairs = [q for q in all_pairs if q not in anchor_pairs]
        if not fill_parts and not fill_pairs:
            return anchor
        prod = self.b.product(annotation=annotation)
        self.b.edge(prod, anchor)
        for p in fill_parts:
            self.b.edge(prod, self.part_marginal(p))
        for q in fill_pairs:
            self.b.edge(prod, self.pair_marginal(q))
        return prod

    def leaf_region(self, node: TreeNode) -> int:
        region = node.region
        rect = region.rect()
        if not node.parts and not node.pairs:
            log.info("leaf region %s models no variables; using a constant-1 leaf", rect)
            top = self.b.sum(annotation=rect)
            self.b.edge(top, self.b.one(), 1.0)
            return top

        partnered = {p for q in node.pairs for p in q}
        bias_parts = [p for p in node.parts if p not in partnered]

        children = []
        for pair in node.pairs:
            gadget = add_gadget(self.b, pair, annotation=rect)
            children.append(
                self.completed_product(gadget, (set(pair), {pair}), node.parts, node.pairs, rect)
            )
        if bias_parts:
            bias = self.b.product(annotation=rect)
            for p in bias_parts:
                self.b.edge(bias, self.b.part(p, True))
            for p in node.parts:
                if p not in bias_parts:
                    self.b.edge(bias, self.part_marginal(p))
            for q in node.pairs:
                self.b.edge(bias, self.pair_marginal(q))
            children.append(bias)

        # uncommitted fallback component: pure marginals, so a dropped part
        # degrades the region's score instead of zeroing the whole network
        if len(node.parts) + len(node.pairs) > 1 or not children:
            fallback = self.b.product(annotation=rect)
            for p in node.parts:
                self.b.edge(fallback, self.part_marginal(p))
            for q in node.pairs:
                self.b.edge(fallback, self.pair_marginal(q))
            children.append(fallback)
        elif node.parts and not node.pairs:
            children.append(self.part_marginal(node.parts[0]))

        top = self.b.sum(annotation=rect)
        weight = 1.0 / len(children)
        for child in children:
            self.b.edge(top, child, weight)
        return top

    def internal(self, node: TreeNode) -> int:
        rect = node.region.rect()
        if not node.parts and not node.pairs:
            top = self.b.sum(annotation=rect)
            self.b.edge(top, self.b.one(), 1.0)
            return top
        all_parts, all_pairs = node.parts, node.pairs
        products = []
        for choice in node.partitions:
            covered_parts: set[int] = set()
            covered_pairs: set[tuple[int, int]] = set()
            members = []
            for child in choice.children:
                if not child.parts and not child.pairs:
                    continue
                members.append(self.build(child))
                covered_parts.update(child.parts)
                covered_pairs.update(child.pairs)
            if not members:
                continue
            prod = self.b.product(annotation=rect)
            for member in members:
                self.b.edge(prod, member)
            for p in all_parts:
                if p not in covered_parts:
                    self.b.edge(prod, self.part_marginal(p))
            for q in all_pairs:
                if q not in covered_pairs:
                    self.b.edge(prod, self.pair_marginal(q))
            products.append(prod)
        if not products:
            # every partition collapsed; fall back to modeling the region flat
            leaf_view = TreeNode(region=node.region, parts=node.parts, pairs=node.pairs)
            return self.leaf_region(leaf_view)
        top = self.b.sum(annotation=rect)
        weight = 1.0 / len(products)
        for prod in products:
            self.b.edge(top, prod, weight)
        return top

    def build(self, node: TreeNode) -> int:
        if node.is_leaf:
            return self.leaf_region(node)
        return self.internal(node)


def _build_network(tree: PartitionTree, dataset: Dataset, klass: str, tau: float) -> Network:
    _assign_region_stats(tree, dataset, klass, tau)
    b = NetworkBuilder()
    root = _ClassNetBuilder(b).build(tree.root)
    net = b.build(root=root, class_label=klass, partitions=tree.partition_lines())
    report = validate(net)
    if not report.ok:
        raise ContractViolationError(f"built network for {klass!r} is invalid: {report}")
    return net


def build_class_network(tree: PartitionTree, dataset: Dataset, klass: str,
                        config: StructureConfig) -> Network:
    """One scoring network for a class from its partition tree.

    Per tree node one sum node; per kept partition one product over the child
    region sums; leaf regions mix pair gadgets (plus a bias product over
    partnerless part indicators), everything scope-completed with shared
    marginal fillers and uniform initial weights."""
    return _build_network(tree, dataset, klass, config.tau)


def count_gadgets(network: Network) -> int:
    """Number of pair-gadget instances (gadget sum nodes) in a network."""

    count = 0
    for node in range(network.num_nodes):
        if network.nodes[node].kind != SUM:
            continue
        kids = network.children(node)
        if len(kids) != 4:
            continue
        pairs = set()
        ok = True
        for child in kids:
            if network.nodes[child].kind != PRODUCT:
                ok = False
                break
            spatial_kids = [
                c for c in network.children(child) if network.nodes[c].kind == SPATIAL
            ]
            if len(spatial_kids) != 1:
                ok = False
                break
            pairs.add(network.nodes[spatial_kids[0]].pair)
        if ok and len(pairs) == 1:
            count += 1
    return count


# ------------------------------------------------------------------- sharing


@dataclass
class SharedStructure:
    """Edge groups tied across class networks by structural signature."""

    groups: list[list[tuple[int, int]]]  # (network index, edge id)


def _node_signatures(network: Network) -> list:
    """Structural signatures, bottom-up.

    A sum node's signature also names its argmax child: two class networks
    only share a sub-structure when they model the same dominant
    configuration (a gadget's identity is its pair plus the relation it has
    learned, per-region), so merging never averages away opposing weights."""
    sigs = [None] * network.num_nodes
    for node in network.topological_order():
        nd = network.nodes[node]
        if nd.kind == PART:
            sigs[node] = ("part", nd.part, nd.positive)
        elif nd.kind == SPATIAL:
            sigs[node] = ("spatial", nd.pair, int(nd.relation))
        elif nd.kind == ONE:
            sigs[node] = ("one",)
        else:
            children = tuple(sorted((sigs[c] for c in network.children(node)), key=repr))
            annotation = network.region_of.get(node)
            if nd.kind == SUM:
                edges = network.child_edges(node)
                weights = network.edge_weight[edges]
                best = np.flatnonzero(weights >= weights.max() - 1e-12)
                mode_sig = min((sigs[network.edge_child[edges[i]]] for i in best), key=repr)
                sigs[node] = (nd.kind, annotation, children, mode_sig)
            else:
                sigs[node] = (nd.kind, annotation, children)
    return sigs


def find_shared_structures(networks: list[Network]) -> SharedStructure:
    """Mark identical sub-structures across class networks as shared.

    Signatures are structural with one weight-aware component: sums name
    their argmax child, so a gadget only matches a gadget modeling the same
    dominant relation in the same region. Every matched edge is marked
    shared; the returned groups (the joint-training units) carry the
    weighted sum edges only."""
    if len(networks) < 2:
        raise ContractViolationError("sharing needs at least two class networks")

    edge_keys: dict[tuple, list[tuple[int, int]]] = {}
    sum_edge: dict[tuple[int, int], bool] = {}
    for net_idx, net in enumerate(networks):
        sigs = _node_signatures(net)
        seen_parent: dict[tuple, int] = {}
        for node in range(net.num_nodes):
            if net.nodes[node].kind not in (SUM, PRODUCT):
                continue
            parent_sig = sigs[node]
            parent_occ = seen_parent.get(parent_sig, 0)
            seen_parent[parent_sig] = parent_occ + 1
            child_edges = sorted(
                net.child_edges(node), key=lambda e: (repr(sigs[net.edge_child[e]]), int(e))
            )
            child_occ: dict[tuple, int] = {}
            for edge in child_edges:
                child_sig = sigs[net.edge_child[edge]]
                occ = child_occ.get(child_sig, 0)
                child_occ[child_sig] = occ + 1
                key = (parent_sig, parent_occ, child_sig, occ)
                edge_keys.setdefault(key, []).append((net_idx, int(edge)))
                sum_edge[(net_idx, int(edge))] = net.nodes[node].kind == SUM

    groups = []
    for key in sorted(edge_keys, key=lambda k: repr(k)):
        members = edge_keys[key]
        if len({idx for idx, _ in members}) >= 2:
            for idx, edge in members:
                networks[idx].shared_edges.add(edge)
            if all(sum_edge[m] for m in members):
                groups.append(sorted(members))
    return SharedStructure(groups=groups)


# ------------------------------------------------------------- flat & naive


def build_flat_network(dataset: Dataset, klass: str, config: StructureConfig) -> Network:
    """All qualifying pairs modeled at whole-image scale (no hierarchy)."""
    return _build_network(PartitionTree(TreeNode(Region.whole()), config), dataset, klass, config.tau)


def build_naive_network(dataset: Dataset, klass: str, config: StructureConfig) -> Network:
    """Spatial-free baseline: a mixture of per-part Bernoulli products.

    Component weights start from seeded jitter around one half so hard-EM can
    break symmetry between components."""
    rng = np.random.default_rng(config.seed ^ 0x5EED)
    t = dataset.vocabulary_size
    b = NetworkBuilder()
    root = b.sum()
    k = max(1, config.naive_components)
    for _ in range(k):
        prod = b.product()
        for part in range(t):
            mix = b.sum()
            w = float(rng.uniform(0.25, 0.75))
            b.edge(mix, b.part(part, True), w)
            b.edge(mix, b.part(part, False), 1.0 - w)
            b.edge(prod, mix)
        b.edge(root, prod, 1.0 / k)
    net = b.build(root=root, class_label=klass)
    report = validate(net)
    if not report.ok:
        raise ContractViolationError(f"naive network for {klass!r} is invalid: {report}")
    return net
