from fractions import Fraction

import numpy as np
import pytest

import spatialspn.structure as structure_module
from spatialspn.data import (
    generate_synthetic,
    mirror_pair_spec,
    preset_spec,
    shared_halves_spec,
    split_grid_spec,
    strip_grid_spec,
)
from spatialspn.errors import InsufficientDataError
from spatialspn.inference import _backtrack
from spatialspn.learning import TrainConfig, save_bundle, train_all
from spatialspn.network import (
    NetworkBuilder,
    _forward,
    assignment_to_indicators,
    encode_records,
    evaluate,
    serialize,
    validate,
)
from spatialspn.oracle import random_network
from spatialspn.spatial import Relation
from spatialspn.structure import (
    Partition,
    PartitionChoice,
    PartitionTree,
    Region,
    StructureConfig,
    TreeNode,
    _logistic_fit,
    _score_partitions,
    build_class_network,
    build_flat_network,
    build_naive_network,
    count_gadgets,
    find_shared_structures,
    learn_partition_tree,
    manual_tree,
    pair_count,
    partition_family_size,
    sample_partitions,
    score_partition,
    strip_partition,
)

from conftest import reference_flat_network, reference_network_for


def config(**kw):
    kw.setdefault("seed", 0)
    return StructureConfig(**kw)


def test_pair_count_formula():
    assert pair_count(500) == 124_750
    assert pair_count(0) == 0
    assert pair_count(1) == 0
    assert pair_count(100) == 4_950


def test_region_rejects_degenerate():
    with pytest.raises(ValueError):
        Region.of(0, 0, 0, 1)


# ------------------------------------------------------------- partitions


def test_sampled_partitions_tile_exactly(rng):
    region = Region.of(Fraction(1, 5), Fraction(1, 10), Fraction(9, 10), Fraction(4, 5))
    for partition in sample_partitions(region, config(M=20), rng):
        assert sum(child.area for child in partition.children) == region.area
        assert len(partition.children) == 3


def test_identity_partition_for_single_strip(rng):
    region = Region.whole()
    parts = sample_partitions(region, config(), rng, s=1)
    assert len(parts) == 1
    assert parts[0].children == (region,)


def test_sampled_partitions_distinct(rng):
    region = Region.whole()
    out = sample_partitions(region, config(M=40), rng)
    assert len(out) == 40
    assert len({p.digest() for p in out}) == 40


def test_small_family_enumerated_fully(rng):
    out = sample_partitions(Region.whole(), config(s=2, M=50), rng)
    assert len(out) == partition_family_size(2) == 38


def test_too_small_region_yields_nothing(rng):
    region = Region.of(0, 0, Fraction(1, 10), Fraction(1, 10))
    assert sample_partitions(region, config(), rng) == []


def test_strip_partition_layout():
    partition = strip_partition(Region.whole(), "v", (4, 10))
    xs = [(float(c.x0), float(c.x1)) for c in partition.children]
    assert xs == [(0.0, 0.2), (0.2, 0.5), (0.5, 1.0)]


# ---------------------------------------------------------------- scoring


def test_planted_separable_partition_scores_high():
    ds = generate_synthetic(split_grid_spec(images_per_class=60), np.random.default_rng(0))
    planted = strip_partition(Region.whole(), "v", (8,))
    score = score_partition(planted, ds, "lo", seed=0)
    assert score.accuracy >= 0.95


def test_shuffled_labels_score_near_chance(rng):
    ds = generate_synthetic(split_grid_spec(images_per_class=60), np.random.default_rng(0))
    labels = [r.klass for r in ds.records]
    shuffled = list(labels)
    rng.shuffle(shuffled)
    for record, klass in zip(ds.records, shuffled):
        record.klass = klass
    planted = strip_partition(Region.whole(), "v", (8,))
    score = score_partition(planted, ds, "lo", seed=0)
    assert abs(score.accuracy - 0.5) <= 0.1


def test_planted_beats_identity_partition():
    wins = 0
    for seed in range(20):
        ds = generate_synthetic(split_grid_spec(images_per_class=50), np.random.default_rng(seed))
        planted = strip_partition(Region.whole(), "v", (8,))
        identity = Partition(parent=Region.whole(), children=(Region.whole(),))
        a = score_partition(planted, ds, "lo", seed=seed).accuracy
        b = score_partition(identity, ds, "lo", seed=seed).accuracy
        if a > b:
            wins += 1
    assert wins == 20


def test_score_partition_needs_positives():
    ds = generate_synthetic(split_grid_spec(images_per_class=30), np.random.default_rng(0))
    planted = strip_partition(Region.whole(), "v", (8,))
    with pytest.raises(InsufficientDataError):
        score_partition(planted, ds, "missing-class", seed=0)


def reference_logistic_fit(x, y, l2=1e-3, iters=300, lr=1.0):
    """One candidate's (n, d) features at a time: the per-candidate loop."""
    n, d = x.shape
    xb = np.hstack([x, np.ones((n, 1))])
    w = np.zeros(d + 1)
    pos = max(y.sum(), 1.0)
    neg = max(n - y.sum(), 1.0)
    sample_w = np.where(y == 1, n / (2.0 * pos), n / (2.0 * neg))
    for _ in range(iters):
        z = xb @ w
        p = 1.0 / (1.0 + np.exp(-np.clip(z, -35, 35)))
        grad = xb.T @ (sample_w * (p - y)) / n
        grad[:-1] += l2 * w[:-1]
        w -= lr * grad
    return w


def test_stacked_fit_is_bit_identical_to_per_candidate_reference(rng):
    for fits, n, d in ((5, 40, 6), (8, 97, 13), (3, 12, 2), (38, 280, 12)):
        x = (rng.random((fits, n, d)) < rng.random()).astype(float)
        x[:, :, 0] = 0.0  # an all-zero column
        x[:, :, -1] = 1.0  # an all-one column
        y = (rng.random(n) < 0.3).astype(float)
        got = _logistic_fit(x, y)
        for c in range(fits):
            assert got[c].tobytes() == reference_logistic_fit(x[c], y).tobytes()
        # the same candidates split across blocks
        cut = fits // 2
        split = np.concatenate([_logistic_fit(x[:cut], y), _logistic_fit(x[cut:], y)])
        assert split.tobytes() == got.tobytes()


def test_partition_scores_do_not_depend_on_blocking(monkeypatch):
    ds = generate_synthetic(mirror_pair_spec(images_per_class=40), np.random.default_rng(3))
    candidates = sample_partitions(Region.whole(), config(s=2, M=20), np.random.default_rng(0))
    whole = _score_partitions(candidates, ds, ds.classes[0], seed=1)
    train_rows = int(structure_module._train_split(
        np.asarray([r.klass == ds.classes[0] for r in ds.records], dtype=float), 1).sum())
    # three candidates per block: the last block is split mid-list
    monkeypatch.setattr(structure_module, "ROW_BLOCK_ELEMENTS",
                        3 * train_rows * (2 * ds.vocabulary_size + 1))
    blocked = _score_partitions(candidates, ds, ds.classes[0], seed=1)
    assert len(candidates) > 3
    assert [(ps.partition, ps.accuracy) for ps in blocked] == [
        (ps.partition, ps.accuracy) for ps in whole
    ]
    assert [score_partition(p, ds, ds.classes[0], seed=1).accuracy for p in candidates] == [
        ps.accuracy for ps in whole
    ]


@pytest.mark.parametrize("spec", [
    mirror_pair_spec(images_per_class=24),
    shared_halves_spec(images_per_class=16),
    strip_grid_spec(n_strips=3, parts_per_strip=4, images_per_class=24),
])
def test_learned_trees_match_per_candidate_reference(spec, monkeypatch):
    def tree_lines(dataset, cfg):
        out = []
        for klass in sorted(set(dataset.classes)):
            tree = learn_partition_tree(dataset, klass, cfg)
            accuracies = []
            stack = [tree.root]
            while stack:
                node = stack.pop()
                for choice in node.partitions:
                    accuracies.append(choice.accuracy)
                    stack.extend(choice.children)
            out.append((tree.partition_lines(), accuracies))
        return out

    ds = generate_synthetic(spec, np.random.default_rng(5))
    for s in (2, 3):
        cfg = config(s=s, M=8, m=2, D=2, seed=s)
        stacked = tree_lines(ds, cfg)
        monkeypatch.setattr(structure_module, "_logistic_fit",
                            lambda x, y: np.stack([reference_logistic_fit(c, y) for c in x]))
        assert tree_lines(ds, cfg) == stacked
        monkeypatch.undo()


# ------------------------------------------------------------------ trees


def test_depth_one_tree():
    ds = generate_synthetic(split_grid_spec(images_per_class=40), np.random.default_rng(0))
    tree = learn_partition_tree(ds, "lo", config(s=2, D=1, m=2, M=10))
    assert len(tree.root.partitions) <= 2
    for choice in tree.root.partitions:
        for child in choice.children:
            assert child.is_leaf


def test_tree_determinism():
    ds = generate_synthetic(split_grid_spec(images_per_class=40), np.random.default_rng(0))
    t1 = learn_partition_tree(ds, "lo", config(s=2, D=2, seed=9))
    t2 = learn_partition_tree(ds, "lo", config(s=2, D=2, seed=9))
    assert t1.partition_lines() == t2.partition_lines()


# ------------------------------------------------------------ net building


def three_region_fixture():
    """One partition into 3 strips, one qualifying pair per strip."""
    from spatialspn.data import Dataset, Detection, ImageRecord

    records = []
    for i in range(30):
        rng = np.random.default_rng(i)
        dets = []
        for strip, (a, b) in enumerate([(0, 1), (2, 3), (4, 5)]):
            x0 = 100 * strip / 3
            dets.append(Detection(a, x0 + 5 + rng.uniform(0, 5), 20 + rng.uniform(0, 5)))
            dets.append(Detection(b, x0 + 20 + rng.uniform(0, 5), 60 + rng.uniform(0, 5)))
        records.append(ImageRecord(f"i{i}", "c", 100, 100, dets))
        records.append(ImageRecord(f"n{i}", "other", 100, 100, []))
    return Dataset(vocabulary_size=6, classes=["c", "other"], records=records)


def test_structure_counts_for_three_region_fixture():
    ds = three_region_fixture()
    partition = strip_partition(Region.whole(), "v", (7, 13))  # thirds-ish at 0.35/0.65
    tree = manual_tree(partition, config())
    net = build_class_network(tree, ds, "c", config())
    assert validate(net).ok
    assert count_gadgets(net) == 3
    # 1 root sum over 1 partition product over 3 region sums
    root_children = net.children(net.root)
    assert net.nodes[net.root].kind == "sum"
    assert len(root_children) == 1
    assert net.nodes[root_children[0]].kind == "product"
    assert len(net.children(root_children[0])) == 3
    assert len(net.pair_universe) == 3


def test_built_network_validates_and_evaluates():
    ds = generate_synthetic(mirror_pair_spec(images_per_class=60), np.random.default_rng(0))
    tree = learn_partition_tree(ds, "west", config(s=2, D=2))
    net = build_class_network(tree, ds, "west", config(s=2, D=2))
    assert validate(net).ok
    for record in ds.records[:10]:
        result = evaluate(net, assignment_to_indicators(record, ds.vocabulary_size))
        assert not np.isnan(result.root_log_value)


def test_partition_lines_serialized():
    ds = three_region_fixture()
    partition = strip_partition(Region.whole(), "v", (7, 13))
    net = build_class_network(manual_tree(partition, config()), ds, "c", config())
    text = serialize(net)
    assert "partition 0 0 1 1 :" in text


def test_hierarchical_pairs_never_exceed_flat():
    for seed in range(5):
        ds = generate_synthetic(mirror_pair_spec(images_per_class=50), np.random.default_rng(seed))
        cfg = config(s=2, D=2, seed=seed)
        flat = build_flat_network(ds, "west", cfg)
        tree = learn_partition_tree(ds, "west", cfg)
        hier = build_class_network(tree, ds, "west", cfg)
        assert len(hier.pair_universe) <= len(flat.pair_universe)


def test_strip_grid_reduction_counts():
    ds = generate_synthetic(strip_grid_spec(images_per_class=30), np.random.default_rng(0))
    cfg = config(s=5)
    planted = strip_partition(Region.whole(), "v", (4, 8, 12, 16))
    hier = build_class_network(manual_tree(planted, cfg), ds, "a", cfg)
    flat = build_flat_network(ds, "a", cfg)
    assert count_gadgets(hier) == 5 * pair_count(10) == 225
    assert count_gadgets(flat) == pair_count(50) == 1225


def test_naive_network_has_no_spatial_leaves():
    ds = three_region_fixture()
    net = build_naive_network(ds, "c", config())
    assert validate(net).ok
    assert net.pair_universe == []
    assert len(net.part_universe) == 6


def test_network_determinism():
    ds = generate_synthetic(mirror_pair_spec(images_per_class=40), np.random.default_rng(0))
    nets = []
    for _ in range(2):
        tree = learn_partition_tree(ds, "west", config(s=2, seed=4))
        nets.append(build_class_network(tree, ds, "west", config(s=2, seed=4)))
    assert serialize(nets[0]) == serialize(nets[1])


# ---------------------------------------------------------------- sharing


def test_identical_structures_share_gadget_edges():
    ds = three_region_fixture()
    partition = strip_partition(Region.whole(), "v", (7, 13))
    cfg = config()
    net_a = build_class_network(manual_tree(partition, cfg), ds, "c", cfg)
    net_b = build_class_network(manual_tree(partition, cfg), ds, "c", cfg)
    net_b.class_label = "c2"
    shared = find_shared_structures([net_a, net_b])
    assert shared.groups
    assert net_a.shared_edges and net_b.shared_edges


def test_self_comparison_shares_everything(ref_net):
    shared = find_shared_structures([ref_net, ref_net])
    assert ref_net.shared_edges == set(range(ref_net.num_edges))


def test_disjoint_vocabularies_share_nothing():
    from spatialspn.spatial import build_pair_gadget

    a = build_pair_gadget((0, 1))
    b = build_pair_gadget((2, 3))
    shared = find_shared_structures([a, b])
    assert shared.groups == []
    assert not a.shared_edges and not b.shared_edges


def test_opposing_gadgets_are_not_merged():
    # same pair, same region, but opposite dominant relations: no sharing
    from spatialspn.spatial import build_pair_gadget

    a = build_pair_gadget((0, 1))
    b = build_pair_gadget((0, 1))
    a.edge_weight[a.child_edges(a.root)] = [0.97, 0.01, 0.01, 0.01]
    b.edge_weight[b.child_edges(b.root)] = [0.01, 0.97, 0.01, 0.01]
    shared = find_shared_structures([a, b])
    gadget_sum_edges = {int(e) for e in a.child_edges(a.root)}
    assert not (a.shared_edges & gadget_sum_edges)


def test_sharing_soundness_same_value():
    # a merged sub-network evaluates identically in both networks
    ds = three_region_fixture()
    partition = strip_partition(Region.whole(), "v", (7, 13))
    cfg = config()
    net_a = build_class_network(manual_tree(partition, cfg), ds, "c", cfg)
    net_b = build_class_network(manual_tree(partition, cfg), ds, "c", cfg)
    find_shared_structures([net_a, net_b])
    record = ds.records[0]
    va = evaluate(net_a, assignment_to_indicators(record, ds.vocabulary_size)).root_value
    vb = evaluate(net_b, assignment_to_indicators(record, ds.vocabulary_size)).root_value
    assert va == pytest.approx(vb, rel=1e-12)


def test_structure_config_validation():
    with pytest.raises(ValueError):
        StructureConfig(m=5, M=5)
    with pytest.raises(ValueError):
        StructureConfig(s=1)
    with pytest.raises(ValueError):
        StructureConfig(D=0)


# ------------------------------------------------------- scope completion


def reference_count_gadgets(network):
    """The per-node loop `count_gadgets` replaces."""
    count = 0
    for node in range(network.num_nodes):
        if network.nodes[node].kind != "sum":
            continue
        kids = network.children(node)
        if len(kids) != 4:
            continue
        pairs = set()
        ok = True
        for child in kids:
            if network.nodes[child].kind != "product":
                ok = False
                break
            spatial_kids = [
                c for c in network.children(child) if network.nodes[c].kind == "spatial"
            ]
            if len(spatial_kids) != 1:
                ok = False
                break
            pairs.add(network.nodes[spatial_kids[0]].pair)
        if ok and len(pairs) == 1:
            count += 1
    return count


def filler_edge_counts(network, edge_counts):
    """Counts of the filler-sum edges, keyed by the indicator leaf each one
    reaches: a network has one marginal sum per part and per pair."""
    kinds = np.array([nd.kind for nd in network.nodes])
    parent, child = network.edge_parent, network.edge_child
    edges = np.flatnonzero((kinds[parent] == "sum") & np.isin(kinds[child], ["part", "spatial"]))
    return {network.nodes[child[e]]: int(edge_counts[e]) for e in edges.tolist()}


def share_random_weights(net, ref, rng):
    """Give the k-th sum node of both networks the same random weights; both
    builders make the same sum nodes, in the same order, with the same
    child-edge order."""
    sums = [np.flatnonzero([nd.kind == "sum" for nd in n.nodes]) for n in (net, ref)]
    assert len(sums[0]) == len(sums[1])
    for a, b in zip(*sums):
        weights = rng.random(len(net.child_edges(a))) + 0.05
        net.edge_weight[net.child_edges(a)] = weights
        ref.edge_weight[ref.child_edges(b)] = weights


def assert_same_function(net, ref, records, vocabulary_size):
    """Equal root values in sum and max mode within 1e-12 relative, equal
    MPE counts on every filler-sum edge, both valid, equal gadget counts."""
    assert validate(net).ok and validate(ref).ok
    assert count_gadgets(net) == count_gadgets(ref)
    evidence = encode_records(records, vocabulary_size)
    for mode in ("sum", "max"):
        got, want = (_forward(n, evidence, mode)[:, n.root] for n in (net, ref))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    got, want = (filler_edge_counts(n, _backtrack(n, _forward(n, evidence, "max"))[1])
                 for n in (net, ref))
    assert got == want and got


@pytest.fixture(scope="module")
def preset_builds():
    """(dataset, class, network, reference network) over every preset, flat
    and hierarchical, at several tree shapes."""
    return list(_preset_builds())


def _preset_builds():
    for name in ("mirror", "split", "shared", "strips"):
        spec = (strip_grid_spec(n_strips=3, parts_per_strip=6, images_per_class=20)
                if name == "strips" else preset_spec(name, 40))
        ds = generate_synthetic(spec, np.random.default_rng(0))
        for klass in ds.classes[:2]:
            cfg = config()
            yield ds, klass, build_flat_network(ds, klass, cfg), reference_flat_network(ds, klass, cfg)
            if spec.vocabulary_size > 8:
                continue
            for s, D in ((2, 1), (2, 2), (3, 2)):
                cfg = config(s=s, D=D)
                tree = learn_partition_tree(ds, klass, cfg)
                yield (ds, klass, build_class_network(tree, ds, klass, cfg),
                       reference_network_for(tree, ds, klass, cfg))


def test_builder_matches_direct_layout_on_presets(preset_builds):
    rng = np.random.default_rng(3)
    same_bytes = fewer_edges = 0
    for ds, klass, net, ref in preset_builds:
        # a region takes the tree only when it saves edges; otherwise the
        # direct layout is kept to the byte
        if net.num_edges == ref.num_edges:
            assert serialize(net) == serialize(ref)
            same_bytes += 1
        else:
            assert net.num_edges < ref.num_edges
            fewer_edges += 1
        assert_same_function(net, ref, ds.records, ds.vocabulary_size)
        share_random_weights(net, ref, rng)
        assert_same_function(net, ref, ds.records[::5], ds.vocabulary_size)
    assert same_bytes and fewer_edges


def random_partition_tree(rng, config, depth):
    """Up to two random strip partitions per region, to `depth` levels."""
    def expand(region, level):
        node = TreeNode(region=region)
        if level < depth:
            s = int(rng.integers(2, 4))
            for partition in sample_partitions(region, config, rng, s=s)[:int(rng.integers(0, 3))]:
                children = [expand(child, level + 1) for child in partition.children]
                node.partitions.append(PartitionChoice(partition, 1.0, children))
        return node

    return PartitionTree(expand(Region.whole(), 0), config)


def test_builder_matches_direct_layout_on_random_partition_trees():
    rng = np.random.default_rng(11)
    ds = generate_synthetic(strip_grid_spec(n_strips=3, parts_per_strip=6, images_per_class=12),
                            np.random.default_rng(1))
    fewer_edges = 0
    for trial in range(12):
        cfg = config(M=5, tau=float(rng.choice([0.05, 0.1, 0.2])), min_region_area=0.01)
        tree = random_partition_tree(rng, cfg, depth=int(rng.integers(1, 4)))
        klass = ds.classes[trial % 2]
        net = build_class_network(tree, ds, klass, cfg)
        ref = reference_network_for(tree, ds, klass, cfg)
        fewer_edges += net.num_edges < ref.num_edges
        share_random_weights(net, ref, rng)
        assert_same_function(net, ref, ds.records[::4], ds.vocabulary_size)
    assert fewer_edges


@pytest.fixture(scope="module")
def ac11_networks():
    """AC-11's hierarchical (5 strips x 10 parts) and 50-part flat networks,
    each with its direct-layout reference."""
    ds = generate_synthetic(strip_grid_spec(images_per_class=30), np.random.default_rng(0))
    cfg = config(s=5)
    tree = manual_tree(strip_partition(Region.whole(), "v", (4, 8, 12, 16)), cfg)
    return ds, [(build_class_network(tree, ds, "a", cfg), reference_network_for(tree, ds, "a", cfg)),
                (build_flat_network(ds, "a", cfg), reference_flat_network(ds, "a", cfg))]


def test_builder_matches_direct_layout_on_ac11(ac11_networks):
    ds, pairs = ac11_networks
    for net, ref in pairs:
        assert_same_function(net, ref, ds.records[:3], ds.vocabulary_size)
    assert [count_gadgets(net) for net, _ in pairs] == [225, 1225]


def test_tree_completion_size_guard(ac11_networks):
    ds = generate_synthetic(strip_grid_spec(n_strips=3, parts_per_strip=6, images_per_class=60),
                            np.random.default_rng(0))
    strips = build_flat_network(ds, ds.classes[0], config())
    flat50 = ac11_networks[1][1][0]
    assert strips.num_edges <= 8_000 and flat50.num_edges <= 80_000


def mixed_pair_gadget():
    """A gadget-shaped sum whose four products carry four different pairs."""
    b = NetworkBuilder()
    root = b.sum()
    for pair, rel in zip(((0, 1), (0, 2), (1, 2), (0, 3)), Relation):
        prod = b.product()
        b.edge(prod, b.spatial(pair, rel))
        b.edge(root, prod, 0.25)
    return b.build(root=root)


def test_count_gadgets_matches_loop_reference(rng, preset_builds, ac11_networks):
    nets = [random_network(rng) for _ in range(40)] + [mixed_pair_gadget()]
    nets += [n for _, _, net, ref in preset_builds for n in (net, ref)]
    nets += [n for pair in ac11_networks[1] for n in pair]
    counts = [count_gadgets(net) for net in nets]
    assert counts == [reference_count_gadgets(net) for net in nets]
    assert any(counts[:40]) and not all(counts[:40]) and counts[40] == 0


# ------------------------------------------------- interned signatures


def reference_node_signatures(network):
    """The nested-tuple signatures the interned strings replace.

    A sum node's signature also names its argmax child: two class networks
    only share a sub-structure when they model the same dominant
    configuration (a gadget's identity is its pair plus the relation it has
    learned, per-region), so merging never averages away opposing weights."""
    sigs = [None] * network.num_nodes
    for node in network.topological_order():
        nd = network.nodes[node]
        if nd.kind == "part":
            sigs[node] = ("part", nd.part, nd.positive)
        elif nd.kind == "spatial":
            sigs[node] = ("spatial", nd.pair, int(nd.relation))
        elif nd.kind == "one":
            sigs[node] = ("one",)
        else:
            children = tuple(sorted((sigs[c] for c in network.children(node)), key=repr))
            annotation = network.region_of.get(node)
            if nd.kind == "sum":
                edges = network.child_edges(node)
                weights = network.edge_weight[edges]
                best = np.flatnonzero(weights >= weights.max() - 1e-12)
                mode_sig = min((sigs[network.edge_child[edges[i]]] for i in best), key=repr)
                sigs[node] = (nd.kind, annotation, children, mode_sig)
            else:
                sigs[node] = (nd.kind, annotation, children)
    return sigs


def reference_find_shared_structures(networks):
    """The tuple-keyed grouping `find_shared_structures` replaces.

    Signatures are structural with one weight-aware component: sums name
    their argmax child, so a gadget only matches a gadget modeling the same
    dominant relation in the same region. Every matched edge is marked
    shared; the returned groups (the joint-training units) carry the
    weighted sum edges only."""
    if len(networks) < 2:
        raise AssertionError("sharing needs at least two class networks")

    edge_keys = {}
    sum_edge = {}
    for net_idx, net in enumerate(networks):
        sigs = reference_node_signatures(net)
        seen_parent = {}
        for node in range(net.num_nodes):
            if net.nodes[node].kind not in ("sum", "product"):
                continue
            parent_sig = sigs[node]
            parent_occ = seen_parent.get(parent_sig, 0)
            seen_parent[parent_sig] = parent_occ + 1
            child_edges = sorted(
                net.child_edges(node), key=lambda e: (repr(sigs[net.edge_child[e]]), int(e))
            )
            child_occ = {}
            for edge in child_edges:
                child_sig = sigs[net.edge_child[edge]]
                occ = child_occ.get(child_sig, 0)
                child_occ[child_sig] = occ + 1
                key = (parent_sig, parent_occ, child_sig, occ)
                edge_keys.setdefault(key, []).append((net_idx, int(edge)))
                sum_edge[(net_idx, int(edge))] = net.nodes[node].kind == "sum"

    groups = []
    for key in sorted(edge_keys, key=lambda k: repr(k)):
        members = edge_keys[key]
        if len({idx for idx, _ in members}) >= 2:
            for idx, edge in members:
                networks[idx].shared_edges.add(edge)
            if all(sum_edge[m] for m in members):
                groups.append(sorted(members))
    return groups


def assert_same_sharing(networks):
    """Equal groups and shared edges from both groupings, on copies."""
    got = [net.copy() for net in networks]
    want = [net.copy() for net in networks]
    assert find_shared_structures(got).groups == reference_find_shared_structures(want)
    assert [net.shared_edges for net in got] == [net.shared_edges for net in want]


def test_interned_signatures_match_tuple_reference(preset_builds):
    rng = np.random.default_rng(5)
    # the reference prints every signature once per parent, so the large
    # strips networks are left out
    builds = [(ds, klass, net) for ds, klass, net, _ in preset_builds if net.num_edges < 1000]
    first = [net for ds, klass, net in builds if klass == ds.classes[0]]
    second = [net for ds, klass, net in builds if klass == ds.classes[1]]
    assert len(first) == len(second) == 12
    for net in first:
        want = [repr(sig) for sig in reference_node_signatures(net)]
        assert structure_module._node_signatures(net) == want
    for net, twin in zip(first, second):
        # the same structure under other weights: some argmax children differ
        other = net.copy()
        sums = np.flatnonzero([other.nodes[int(p)].kind == "sum" for p in other.edge_parent])
        other.edge_weight[sums] = rng.random(len(sums))
        assert_same_sharing([net, other])
        assert_same_sharing([net, twin])
    # networks with tree nodes, the flat class networks among them
    trees = [net for _, _, net, ref in preset_builds if net.num_edges < min(ref.num_edges, 1000)]
    assert len(trees) >= 4
    assert_same_sharing(trees[:4])
    # twelve same-signature children: keys order by the decimal string of
    # their occurrence ("10" before "2"), as the reprs of the keys do
    b = NetworkBuilder()
    root = b.sum()
    for _ in range(12):
        prod = b.product()
        b.edge(prod, b.part(0, True))
        b.edge(root, prod, 1.0 / 12)
    wide = b.build(root=root)
    assert_same_sharing([wide, wide])


@pytest.mark.parametrize("name", ["mirror", "split", "shared", "strips"])
def test_jhs_bundles_match_tuple_reference(name, tmp_path, monkeypatch):
    import spatialspn.learning as learning_module

    spec = (strip_grid_spec(n_strips=2, parts_per_strip=4, images_per_class=16)
            if name == "strips" else preset_spec(name, 24))
    ds = generate_synthetic(spec, np.random.default_rng(2))
    sc = config(s=2, D=1)
    tc = TrainConfig(seed=0, mode="jhs-spn", generative_epochs=2, discriminative_epochs=1,
                     max_pairs_per_epoch=60)
    bundles = [train_all(ds, sc, tc)]

    def reference(networks):
        return structure_module.SharedStructure(groups=reference_find_shared_structures(networks))

    monkeypatch.setattr(learning_module, "find_shared_structures", reference)
    bundles.append(train_all(ds, sc, tc))
    assert bundles[0].shared_groups == bundles[1].shared_groups
    for i, bundle in enumerate(bundles):
        save_bundle(bundle, tmp_path / str(i))
    files = sorted(p.name for p in (tmp_path / "0").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "1").iterdir())
    for file in files:
        assert (tmp_path / "0" / file).read_bytes() == (tmp_path / "1" / file).read_bytes()
