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
variable set with shared per-part and per-pair marginal nodes (fillers),
linked one by one or, where that takes fewer edges, through a balanced
product tree over the region's fillers (see _Completion), and sibling
regions claim variables exclusively (first region in partition order wins).
"""

from __future__ import annotations

import hashlib
import logging
from bisect import bisect_left
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
    one fit per leading slice of the binary activations x (fits, n, d), all
    against the labels y.

    Each fit descends over its distinct (row, label) pairs, a pair's count
    folded into its sample weight, so a step sums the same terms as over all
    n rows, grouped. Rows are keyed by fit index, packed bits and label, one
    byte string each, and deduplicated in one sort. The fits are stacked and
    padded to the block's largest distinct count with zero rows of zero
    weight, which add exact zeros; a fit's bits may still depend on that
    padded length at the ulp level."""
    fits, n, d = x.shape
    pos = max(y.sum(), 1.0)
    neg = max(n - y.sum(), 1.0)
    keys = np.concatenate([
        np.repeat(np.arange(fits, dtype=">u4"), n).view(np.uint8).reshape(fits, n, 4),
        np.packbits(x != 0, axis=2),
        np.broadcast_to((y == 1).astype(np.uint8)[None, :, None], (fits, n, 1)),
    ], axis=2)
    keys = keys.view(np.dtype((np.void, keys.shape[2]))).ravel()
    _, first, counts = np.unique(keys, return_index=True, return_counts=True)
    fit, row = np.divmod(first, n)
    per_fit = np.bincount(fit, minlength=fits)
    slot = np.arange(len(first)) - np.repeat(np.cumsum(per_fit) - per_fit, per_fit)
    xb = np.zeros((fits, per_fit.max(), d + 1))
    xb[fit, slot, :d] = x[fit, row]
    xb[fit, slot, d] = 1.0
    labels = np.zeros(xb.shape[:2])
    labels[fit, slot] = y[row]
    sample_w = np.zeros(xb.shape[:2])
    sample_w[fit, slot] = counts * np.where(y[row] == 1, n / (2.0 * pos), n / (2.0 * neg))
    w = np.zeros((fits, d + 1))
    for _ in range(iters):
        z = np.matmul(xb, w[:, :, None])[:, :, 0]
        p = 1.0 / (1.0 + np.exp(-np.clip(z, -35, 35)))
        grad = np.matmul((sample_w * (p - labels))[:, None, :], xb)[:, 0, :] / n
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


class _Completion:
    """Scope completion of one region: its marginal fillers, parts then pairs
    in region order, and the products that each need all of them but a few
    holes.

    Linked directly, a product takes one edge per filler it needs. Through a
    balanced binary product tree over the fillers it takes the O(log K) tree
    nodes that cover exactly those fillers, the segment-tree form of "product
    of all but a few"; filler scopes are disjoint variables, so every tree
    node is decomposable. The region takes the tree only when that gives
    fewer edges, tree nodes included, over all of its products' requests;
    otherwise each product links its fillers directly, as they are first
    needed. Tree nodes are made on first use and carry the region's
    annotation. `requests` holds, per product, the variables it models
    itself."""

    def __init__(self, owner: "_ClassNetBuilder", parts, pairs, requests, annotation):
        self.owner = owner
        self.parts, self.pairs = parts, pairs
        self.annotation = annotation
        self.k = len(parts) + len(pairs)
        self._position = {v: i for i, v in enumerate([*parts, *pairs])}
        self._segments: dict[tuple[int, int], int] = {}
        holes = [self._holes(request) for request in requests]
        covers = [self._cover(h) for h in holes]
        inner: set[tuple[int, int]] = set()
        for cover in covers:
            for lo, hi in cover:
                self._inner(lo, hi, inner)
        tree_edges = sum(map(len, covers)) + 2 * len(inner)
        self.tree = tree_edges < sum(self.k - len(h) for h in holes)

    def _holes(self, request) -> list[int]:
        return sorted(self._position[v] for v in request)

    def _cover(self, holes) -> list[tuple[int, int]]:
        """The maximal tree segments [lo, hi) without a hole, left to right."""
        out = []

        def walk(lo, hi, a, b):  # holes[a:b] lie in [lo, hi)
            if a == b:
                out.append((lo, hi))
            elif hi - lo > 1:
                mid = (lo + hi) // 2
                m = bisect_left(holes, mid, a, b)
                walk(lo, mid, a, m)
                walk(mid, hi, m, b)

        walk(0, self.k, 0, len(holes))
        return out

    def _inner(self, lo, hi, seen) -> None:
        """Add the product segments of the subtree at [lo, hi) to `seen`."""
        if hi - lo > 1 and (lo, hi) not in seen:
            seen.add((lo, hi))
            mid = (lo + hi) // 2
            self._inner(lo, mid, seen)
            self._inner(mid, hi, seen)

    def _segment(self, lo, hi) -> int:
        """The node over fillers lo..hi-1: the filler itself, or a tree node."""
        if hi - lo == 1:
            if lo < len(self.parts):
                return self.owner.part_marginal(self.parts[lo])
            return self.owner.pair_marginal(self.pairs[lo - len(self.parts)])
        node = self._segments.get((lo, hi))
        if node is None:
            mid = (lo + hi) // 2
            left, right = self._segment(lo, mid), self._segment(mid, hi)
            b = self.owner.b
            node = self._segments[lo, hi] = b.product(annotation=self.annotation)
            b.edge(node, left)
            b.edge(node, right)
        return node

    def fill(self, prod: int, request) -> None:
        """Link `prod` to every filler of the region but those of the
        variables in `request` (parts and pairs)."""
        holes = self._holes(request)
        if self.tree:
            segments = self._cover(holes)
        else:
            skip = set(holes)
            segments = [(i, i + 1) for i in range(self.k) if i not in skip]
        for lo, hi in segments:
            self.owner.b.edge(prod, self._segment(lo, hi))


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
        # uncommitted fallback component: pure marginals, so a dropped part
        # degrades the region's score instead of zeroing the whole network
        fallback = len(node.parts) + len(node.pairs) > 1 or not (node.pairs or bias_parts)
        gadget_vars = [{*pair, pair} for pair in node.pairs]
        requests = (gadget_vars + ([set(bias_parts)] if bias_parts else [])
                    + ([set()] if fallback else []))
        completion = _Completion(self, node.parts, node.pairs, requests, rect)

        children = []
        for pair, covered in zip(node.pairs, gadget_vars):
            gadget = add_gadget(self.b, pair, annotation=rect)
            if len(covered) == completion.k:
                children.append(gadget)
                continue
            prod = self.b.product(annotation=rect)
            self.b.edge(prod, gadget)
            completion.fill(prod, covered)
            children.append(prod)
        if bias_parts:
            bias = self.b.product(annotation=rect)
            for p in bias_parts:
                self.b.edge(bias, self.b.part(p, True))
            completion.fill(bias, set(bias_parts))
            children.append(bias)
        if fallback:
            prod = self.b.product(annotation=rect)
            completion.fill(prod, set())
            children.append(prod)
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
        choices = []
        for choice in node.partitions:
            modeled = [child for child in choice.children if child.parts or child.pairs]
            if modeled:
                covered = {v for child in modeled for v in (*child.parts, *child.pairs)}
                choices.append((modeled, covered))
        completion = _Completion(self, node.parts, node.pairs, [c for _, c in choices], rect)
        products = []
        for modeled, covered in choices:
            members = [self.build(child) for child in modeled]
            prod = self.b.product(annotation=rect)
            for member in members:
                self.b.edge(prod, member)
            completion.fill(prod, covered)
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
    """Number of pair-gadget instances in a network: sum nodes with four
    children, each a product with exactly one spatial child, all of one
    pair."""
    n, parent, child = network.num_nodes, network.edge_parent, network.edge_child
    kinds = np.array([nd.kind for nd in network.nodes])
    pair_ids: dict[tuple[int, int], int] = {}
    pair = np.array([pair_ids.setdefault(nd.pair, len(pair_ids)) if nd.kind == SPATIAL else -1
                     for nd in network.nodes], dtype=np.int64)
    to_spatial = kinds[child] == SPATIAL
    # a product's spatial child count, and the pair of its spatial child
    # (the one that counts where there is exactly one)
    single = (kinds == PRODUCT) & (np.bincount(parent[to_spatial], minlength=n) == 1)
    product_pair = np.full(n, -1, dtype=np.int64)
    product_pair[parent[to_spatial]] = pair[child[to_spatial]]
    fanout = np.diff(network._cs_start)
    sums = np.flatnonzero((kinds == SUM) & (fanout == 4))
    kids = network._cs_child[network._cs_start[sums][:, None] + np.arange(4)]
    same_pair = (product_pair[kids] == product_pair[kids[:, :1]]).all(axis=1)
    return int((single[kids].all(axis=1) & same_pair).sum())


# ------------------------------------------------------------------- sharing


@dataclass
class SharedStructure:
    """Edge groups tied across class networks by structural signature."""

    groups: list[list[tuple[int, int]]]  # (network index, edge id)


def _node_signatures(network: Network) -> list[str]:
    """Structural signatures, bottom-up, as the repr of a nested tuple: a
    leaf's kind and variable, an internal node's kind, region annotation and
    children sorted by signature. Each string is built once from its
    children's strings, so no tuple of Fractions is hashed or printed twice.

    A sum node's signature also names its argmax child: two class networks
    only share a sub-structure when they model the same dominant
    configuration (a gadget's identity is its pair plus the relation it has
    learned, per-region), so merging never averages away opposing weights."""
    sigs = [""] * network.num_nodes
    annotations: dict[int, str] = {}  # repr per annotation object
    for node in network.topological_order().tolist():
        nd = network.nodes[node]
        if nd.kind == PART:
            sigs[node] = repr(("part", nd.part, nd.positive))
        elif nd.kind == SPATIAL:
            sigs[node] = repr(("spatial", nd.pair, int(nd.relation)))
        elif nd.kind == ONE:
            sigs[node] = repr(("one",))
        else:
            children = sorted(sigs[c] for c in network.children(node).tolist())
            inner = ", ".join(children) + ("," if len(children) == 1 else "")
            annotation = network.region_of.get(node)
            if id(annotation) not in annotations:
                annotations[id(annotation)] = repr(annotation)
            head = f"({nd.kind!r}, {annotations[id(annotation)]}, ({inner})"
            if nd.kind == SUM:
                edges = network.child_edges(node)
                weights = network.edge_weight[edges]
                best = np.flatnonzero(weights >= weights.max() - 1e-12)
                mode_sig = min(sigs[network.edge_child[edges[i]]] for i in best)
                sigs[node] = f"{head}, {mode_sig})"
            else:
                sigs[node] = f"{head})"
    return sigs


def find_shared_structures(networks: list[Network]) -> SharedStructure:
    """Mark identical sub-structures across class networks as shared.

    Signatures are structural with one weight-aware component: sums name
    their argmax child, so a gadget only matches a gadget modeling the same
    dominant relation in the same region. Every matched edge is marked
    shared; the returned groups (the joint-training units) carry the
    weighted sum edges only. An edge's key is (parent signature, its
    occurrence, child signature, its occurrence), each signature held as a
    small id; groups come in the order of the keys' reprs."""
    if len(networks) < 2:
        raise ContractViolationError("sharing needs at least two class networks")

    ids: dict[str, int] = {}
    edge_keys: dict[tuple[int, int, int, int], list[tuple[int, int]]] = {}
    sum_edge: dict[tuple[int, int], bool] = {}
    for net_idx, net in enumerate(networks):
        sigs = [ids.setdefault(s, len(ids)) for s in _node_signatures(net)]
        seen_parent: dict[int, int] = {}
        for node, nd in enumerate(net.nodes):
            if nd.kind not in (SUM, PRODUCT):
                continue
            parent_sig = sigs[node]
            parent_occ = seen_parent.get(parent_sig, 0)
            seen_parent[parent_sig] = parent_occ + 1
            child_occ: dict[int, int] = {}
            for child_sig, edge in sorted((sigs[c], e) for c, e in zip(
                    net.children(node).tolist(), net.child_edges(node).tolist())):
                occ = child_occ.get(child_sig, 0)
                child_occ[child_sig] = occ + 1
                edge_keys.setdefault((parent_sig, parent_occ, child_sig, occ), []).append(
                    (net_idx, edge))
                sum_edge[(net_idx, edge)] = nd.kind == SUM

    # a signature is a whole bracketed repr, never a prefix of another, so
    # the repr of a key sorts as its signatures' ranks and its occurrences'
    # decimal strings do
    rank = [0] * len(ids)
    for r, sig in enumerate(sorted(ids)):
        rank[ids[sig]] = r
    groups = []
    for key in sorted(edge_keys, key=lambda k: (rank[k[0]], str(k[1]), rank[k[2]], str(k[3]))):
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
