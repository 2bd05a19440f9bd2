import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from spatialspn.network import IndicatorValues, NetworkBuilder, validate
from spatialspn.oracle import reference_network
from spatialspn.spatial import Relation, add_gadget
from spatialspn.structure import (
    PartitionTree,
    Region,
    StructureConfig,
    TreeNode,
    _assign_region_stats,
)

# CLI and acceptance tests run `python -m spatialspn` in a child process;
# like pytest's `pythonpath` setting, let it import this checkout's package
SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))

# property tests draw the same examples on every run and keep no example database
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture
def ref_net():
    return reference_network()


def one_hot(part0: bool, part1: bool) -> IndicatorValues:
    values = IndicatorValues()
    values.set_part(0, part0)
    values.set_part(1, part1)
    return values


def chain_network(weights_mid=(0.5, 0.5)):
    """root sum -> product -> mid sum over part 0's polarities."""
    b = NetworkBuilder()
    root = b.sum()
    prod = b.product()
    mid = b.sum()
    b.edge(mid, b.part(0, True), weights_mid[0])
    b.edge(mid, b.part(0, False), weights_mid[1])
    b.edge(prod, mid)
    b.edge(root, prod, 1.0)
    return b.build(root=root), mid


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


# --------------------------------------------- scope completion, direct layout


class ReferenceClassNetBuilder:
    """The direct scope-completion layout: every product links each filler
    marginal it needs with its own edge, so a region of K variables costs
    O(K) edges per product. The builder's per-region product trees must
    compute the same function; where no region takes a tree, they must
    give this builder's network byte for byte."""

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


def reference_network_for(tree: PartitionTree, dataset, klass: str, config: StructureConfig):
    """`build_class_network` with the direct filler layout."""
    _assign_region_stats(tree, dataset, klass, config.tau)
    b = NetworkBuilder()
    root = ReferenceClassNetBuilder(b).build(tree.root)
    net = b.build(root=root, class_label=klass, partitions=tree.partition_lines())
    assert validate(net).ok
    return net


def reference_flat_network(dataset, klass: str, config: StructureConfig):
    """`build_flat_network` with the direct filler layout."""
    return reference_network_for(PartitionTree(TreeNode(Region.whole()), config), dataset, klass,
                                 config)
