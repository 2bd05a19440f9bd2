from fractions import Fraction

import numpy as np
import pytest

import spatialspn.structure as structure_module
from spatialspn.data import (
    generate_synthetic,
    mirror_pair_spec,
    shared_halves_spec,
    split_grid_spec,
    strip_grid_spec,
)
from spatialspn.errors import InsufficientDataError
from spatialspn.network import assignment_to_indicators, evaluate, serialize, validate
from spatialspn.structure import (
    Partition,
    PartitionTree,
    Region,
    StructureConfig,
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
