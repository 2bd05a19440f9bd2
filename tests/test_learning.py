import math

import numpy as np
import pytest

import spatialspn.learning as learning_module
from spatialspn import cli
from spatialspn.data import (
    Dataset,
    Detection,
    ImageRecord,
    generate_synthetic,
    mirror_pair_spec,
    shared_halves_spec,
)
from spatialspn.errors import (
    ContractViolationError,
    InsufficientDataError,
    ModelFormatError,
    PruneError,
    TrainingError,
    VocabularyMismatchError,
)
from spatialspn.inference import mpe
from spatialspn.learning import (
    ModelBundle,
    TrainConfig,
    classify,
    discriminative_step,
    generative_train,
    joint_train,
    load_bundle,
    prune,
    save_bundle,
    train_all,
)
from spatialspn.network import (
    Network,
    NetworkBuilder,
    assignment_to_indicators,
    encode_records,
    evaluate,
    normalize_weights,
    serialize,
    validate,
)
from spatialspn.oracle import random_evidence, random_network
from spatialspn.spatial import Relation, build_pair_gadget
from spatialspn.structure import StructureConfig, build_flat_network


def left_pair_records(n=20, seed=0):
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n):
        records.append(
            ImageRecord(
                f"i{i}", "c", 100, 100,
                [Detection(0, float(rng.uniform(5, 40)), float(rng.uniform(5, 95))),
                 Detection(1, float(rng.uniform(60, 95)), float(rng.uniform(5, 95)))],
            )
        )
    return records


def mixture_network():
    b = NetworkBuilder()
    root = b.sum()
    for w0 in (0.3, 0.7):
        prod = b.product()
        mix = b.sum()
        b.edge(mix, b.part(0, True), w0)
        b.edge(mix, b.part(0, False), 1.0 - w0)
        b.edge(prod, mix)
        mix1 = b.sum()
        b.edge(mix1, b.part(1, True), 0.5)
        b.edge(mix1, b.part(1, False), 0.5)
        b.edge(prod, mix1)
        b.edge(root, prod, 0.5)
    return b.build(root=root)


# -------------------------------------------------------------- generative


def test_generative_requires_positives():
    with pytest.raises(InsufficientDataError):
        generative_train(build_pair_gadget((0, 1)), [], TrainConfig())


def test_generative_learns_planted_relation():
    net = build_pair_gadget((0, 1))
    generative_train(net, left_pair_records(), TrainConfig(generative_epochs=4))
    weights = net.edge_weight[net.child_edges(net.root)]
    assert weights[int(Relation.LEFT_OF)] > max(
        weights[int(r)] for r in Relation if r != Relation.LEFT_OF
    )


def test_huge_smoothing_keeps_weights_near_uniform():
    net = build_pair_gadget((0, 1))
    generative_train(net, left_pair_records(), TrainConfig(generative_epochs=3, smoothing=1e9))
    weights = net.edge_weight[net.child_edges(net.root)]
    assert np.max(np.abs(weights - 0.25)) < 1e-6


def test_single_image_zero_smoothing_count_normalization():
    net = build_pair_gadget((0, 1))
    record = left_pair_records(1)[0]
    generative_train(net, [record], TrainConfig(generative_epochs=1, smoothing=0.0))
    weights = net.edge_weight[net.child_edges(net.root)]
    # exactly one gadget branch traversed: it gets all the mass
    assert sorted(weights.tolist()) == [0.0, 0.0, 0.0, 1.0]


def test_generative_mean_log_value_non_decreasing():
    # pure hard-EM (no smoothing) must ascend the max-product objective
    records = left_pair_records(30, seed=3)
    net = build_pair_gadget((0, 1))
    config = TrainConfig(generative_epochs=1, smoothing=0.0)
    means = []
    for _ in range(6):
        generative_train(net, records, config)
        total = sum(
            mpe(net, assignment_to_indicators(r, net.part_span)).root_log_value for r in records
        )
        means.append(total / len(records))
    for before, after in zip(means, means[1:]):
        assert after >= before - 1e-9


# ----------------------------------------------------------------- pruning


def test_prune_removes_zero_weight_edges():
    b = NetworkBuilder()
    s = b.sum()
    b.edge(s, b.part(0, True), 0.7)
    b.edge(s, b.part(0, False), 0.3)
    b.edge(s, b.part(0, False), 0.0)
    net = b.build(root=s)
    pruned = prune(net, 1e-6)
    assert pruned.num_edges == 2
    weights = sorted(pruned.edge_weight.tolist())
    assert weights == pytest.approx([0.3, 0.7])
    assert validate(pruned).ok


def test_prune_noop_when_all_weights_large(ref_net):
    pruned = prune(ref_net, 1e-6)
    assert pruned.num_edges == ref_net.num_edges
    assert serialize(pruned) == serialize(ref_net)


def test_prune_removes_dangling_subtree():
    b = NetworkBuilder()
    root = b.sum()
    keep = b.product()
    b.edge(keep, b.part(0, True))
    drop = b.product()
    mix = b.sum()
    b.edge(mix, b.part(0, False), 1.0)
    b.edge(drop, mix)
    b.edge(root, keep, 1.0)
    b.edge(root, drop, 0.0)
    net = b.build(root=root)
    pruned = prune(net, 1e-6)
    assert pruned.num_nodes == 3  # root sum, kept product, positive leaf
    assert validate(pruned).ok


def test_prune_refuses_to_orphan_root():
    b = NetworkBuilder()
    s = b.sum()
    b.edge(s, b.part(0, True), 0.0)
    b.edge(s, b.part(0, False), 0.0)
    net = b.build(root=s)
    with pytest.raises(PruneError):
        prune(net, 1e-6)


def loop_prune(network, threshold):
    """Edge-by-edge reference for `prune`: the same removal, cascade,
    reachability sweep and renumbering, one node and edge at a time."""
    kind = [nd.kind for nd in network.nodes]
    keep = [not (kind[p] == "sum" and w <= threshold)
            for p, w in zip(network.edge_parent, network.edge_weight)]
    changed = True
    while changed:
        changed = False
        for node in range(network.num_nodes):
            if kind[node] not in ("sum", "product"):
                continue
            if not any(k and p == node for k, p in zip(keep, network.edge_parent)):
                if node == network.root:
                    raise PruneError("root lost its last child")
                for edge, c in enumerate(network.edge_child):
                    if keep[edge] and c == node:
                        keep[edge] = False
                        changed = True
    reachable, stack = set(), [network.root]
    while stack:
        node = stack.pop()
        if node not in reachable:
            reachable.add(node)
            stack.extend(int(c) for k, p, c in zip(keep, network.edge_parent, network.edge_child)
                         if k and p == node)
    new_id = {node: i for i, node in enumerate(sorted(reachable))}
    edges = [e for e in range(network.num_edges) if keep[e] and network.edge_parent[e] in reachable]
    pruned = Network(
        nodes=[network.nodes[n] for n in sorted(reachable)],
        edge_parent=[new_id[int(network.edge_parent[e])] for e in edges],
        edge_child=[new_id[int(network.edge_child[e])] for e in edges],
        edge_weight=[float(network.edge_weight[e]) for e in edges],
        root=new_id[network.root],
        partitions=network.partitions,
        region_of={new_id[n]: r for n, r in network.region_of.items() if n in reachable},
    )
    for node in range(pruned.num_nodes):
        edges = pruned.child_edges(node)
        if pruned.nodes[node].kind == "sum" and len(edges):
            pruned.edge_weight[edges] /= pruned.edge_weight[edges].sum()
    if not validate(pruned).ok:
        raise PruneError("pruned network fails validation")
    return pruned


def test_prune_keeps_root_value_and_drops_every_light_edge(rng):
    threshold = 1e-6
    for _ in range(20):
        net = random_network(rng, max_parts=5, max_pairs=2)
        for node in range(net.num_nodes):
            edges = net.child_edges(node)
            if net.nodes[node].kind == "sum" and len(edges) > 1:
                zero = rng.random(len(edges)) < 0.5
                zero[int(rng.integers(len(edges)))] = False  # a strict subset
                net.edge_weight[edges[zero]] = 0.0
        normalize_weights(net)
        net.region_of = {node: f"r{node}" for node in range(net.num_nodes)}
        pruned = prune(net, threshold)
        sum_edges = [e for e in range(pruned.num_edges)
                     if pruned.nodes[int(pruned.edge_parent[e])].kind == "sum"]
        assert all(pruned.edge_weight[e] > threshold for e in sum_edges)
        assert validate(pruned).ok
        evidence = random_evidence(rng, net)
        before = evaluate(net, evidence).root_log_value
        assert evaluate(pruned, evidence).root_log_value == pytest.approx(before, rel=1e-12)
        reference = loop_prune(net, threshold)
        assert serialize(pruned) == serialize(reference)
        assert pruned.region_of == reference.region_of


def test_prune_matches_loop_reference_when_it_cuts_live_edges(rng):
    # thresholds above the smallest random weights cut real mass and cascade
    compared = 0
    for threshold in (0.05, 0.2, 0.4):
        for _ in range(15):
            net = random_network(rng, max_parts=5, max_pairs=2)
            net.region_of = {node: node % 3 for node in range(net.num_nodes)}
            try:
                reference = loop_prune(net, threshold)
            except PruneError:
                with pytest.raises(PruneError):
                    prune(net, threshold)
                continue
            pruned = prune(net, threshold)
            assert serialize(pruned) == serialize(reference)
            assert pruned.region_of == reference.region_of
            compared += pruned.num_edges < net.num_edges
    assert compared >= 5


# ----------------------------------------------------------- margin updates


def im(parts, klass="c", ident="img"):
    dets = [Detection(p, 10.0 + 20 * p, 10.0) for p in parts]
    return ImageRecord(ident, klass, 100, 100, dets)


def test_no_update_when_constraint_satisfied():
    net = mixture_network()
    # make part-0-present images score far above part-0-absent ones
    mix_edges = net.child_edges(2)
    pos, neg = im([0]), im([], klass="d")
    # pre-train so that the margin holds
    for _ in range(40):
        discriminative_step(net, pos, neg, rate=0.5)
    before = serialize(net)
    record = discriminative_step(net, pos, neg, rate=0.5)
    assert record.slack == 0.0
    assert serialize(net) == before


def test_identical_images_leave_weights_unchanged():
    net = mixture_network()
    before = serialize(net)
    record = discriminative_step(net, im([0]), im([0], klass="d"), rate=0.1)
    assert record.slack > 0  # violated, but the trees cancel
    assert serialize(net) == before


def test_single_sided_edge_weight_increases():
    net = mixture_network()
    pos, neg = im([0]), im([], klass="d")
    res_p = mpe(net, assignment_to_indicators(pos, net.part_span))
    res_n = mpe(net, assignment_to_indicators(neg, net.part_span))
    delta = res_p.traversal.counts - res_n.traversal.counts
    increased = [e for e in np.flatnonzero(delta > 0)
                 if net.nodes[int(net.edge_parent[e])].kind == "sum"]
    before = net.edge_weight[increased].copy()
    discriminative_step(net, pos, neg, rate=0.1)
    after = net.edge_weight[increased]
    assert np.all(after > before)


def test_weights_stay_normalized_after_steps(rng):
    net = mixture_network()
    for i in range(10):
        discriminative_step(net, im([0, 1]), im([1], klass="d"), rate=0.3)
    for node in range(net.num_nodes):
        if net.nodes[node].kind == "sum":
            total = net.edge_weight[net.child_edges(node)].sum()
            assert total == pytest.approx(1.0, abs=1e-9)


def test_nan_weight_aborts_with_node_name():
    net = mixture_network()
    net.edge_weight[net.child_edges(net.root)[0]] = float("nan")
    with pytest.raises(TrainingError, match="node"):
        discriminative_step(net, im([0]), im([], klass="d"), rate=0.1)


def test_discriminative_stage_reads_the_rows_of_the_named_images(monkeypatch):
    # the stage encodes its fit and dev sets once; every pair and dev margin
    # must still see exactly the rows of its own images
    ds = generate_synthetic(shared_halves_spec(images_per_class=10), np.random.default_rng(2))
    classes = sorted(set(ds.classes))
    config = TrainConfig(generative_epochs=1, discriminative_epochs=2, max_pairs_per_epoch=12,
                         early_stop_patience=5, seed=3)
    networks = {k: generative_train(build_flat_network(ds, k, StructureConfig(seed=0)),
                                    ds.by_class(k), config) for k in classes}
    span = max([ds.vocabulary_size] + [net.part_span for net in networks.values()])
    by_id = {r.id: r for r in ds.records}
    dev = {k: learning_module._split_fit_dev(
        ds.by_class(k), np.random.default_rng((config.seed, 11, learning_module.hash_str(k))))[1]
        for k in classes}
    margin_update, mean_dev_margin = learning_module._margin_update, learning_module._mean_dev_margin
    seen = {"pairs": 0, "dev": 0}

    def checked_update(network, evidence, ids, *args, **kwargs):
        pos, neg = by_id[ids[0]], by_id[ids[1]]
        assert pos.klass == network.class_label != neg.klass
        assert np.array_equal(evidence, encode_records([pos, neg], span))
        seen["pairs"] += 1
        return margin_update(network, evidence, ids, *args, **kwargs)

    def checked_dev(network, evidence, n_pos):
        klass = network.class_label
        records = dev[klass] + [r for k in classes if k != klass for r in dev[k]]
        assert n_pos == len(dev[klass])
        assert np.array_equal(evidence, encode_records(records, span))
        seen["dev"] += 1
        return mean_dev_margin(network, evidence, n_pos)

    monkeypatch.setattr(learning_module, "_margin_update", checked_update)
    monkeypatch.setattr(learning_module, "_mean_dev_margin", checked_dev)
    learning_module._discriminative_stage(networks, ds, config)
    assert seen == {"pairs": 2 * 12 * len(classes), "dev": 2 * len(classes)}


# ------------------------------------------------------------------ joint


def test_joint_requires_jhs_mode():
    ds = generate_synthetic(mirror_pair_spec(images_per_class=20), np.random.default_rng(0))
    with pytest.raises(ContractViolationError):
        joint_train({}, [], ds, TrainConfig(mode="ihs-spn"))


def test_zero_shared_joint_equals_independent(monkeypatch):
    # with no shared edges, joint training must be bit-identical to
    # independent per-class training under the same seed
    from spatialspn import learning as learning_mod
    from spatialspn.structure import SharedStructure

    spec = mirror_pair_spec(images_per_class=40)
    ds = generate_synthetic(spec, np.random.default_rng(0))
    sc = StructureConfig(seed=0, s=2, D=1)
    texts = {}
    for mode in ("ihs-spn", "jhs-spn"):
        if mode == "jhs-spn":
            monkeypatch.setattr(
                learning_mod, "find_shared_structures",
                lambda nets: SharedStructure(groups=[]),
            )
        tc = TrainConfig(seed=0, mode=mode, generative_epochs=3,
                         discriminative_epochs=2, max_pairs_per_epoch=50)
        bundle = train_all(ds, sc, tc)
        texts[mode] = {k: serialize(bundle.networks[k]) for k in bundle.classes}
    assert texts["ihs-spn"] == texts["jhs-spn"]


def test_shared_edges_receive_updates_from_both_classes():
    # noisy rates keep margins violated so stage two actually fires
    spec = shared_halves_spec(images_per_class=50, bg_rate=0.1, drop_rate=0.25)
    ds = generate_synthetic(spec, np.random.default_rng(1))
    sc = StructureConfig(seed=1, s=2, D=1)
    tc = TrainConfig(seed=1, mode="jhs-spn", generative_epochs=3,
                     discriminative_epochs=3, max_pairs_per_epoch=300)
    bundle = train_all(ds, sc, tc)
    assert bundle.shared_groups, "expected shared structure between the paired classes"
    updates = bundle.stats["updates"]
    crossed = 0
    for group in bundle.shared_groups:
        total = 0
        per_class_max = 0
        for net_idx, edge in group:
            klass = bundle.classes[net_idx]
            count = updates.get(klass, {}).get(edge, 0)
            total += count
            per_class_max = max(per_class_max, count)
        assert total >= per_class_max
        if total > per_class_max > 0:
            crossed += 1
    assert crossed > 0  # at least one shared edge updated by several classes


# -------------------------------------------------------------- train_all


def test_train_all_is_deterministic(tmp_path):
    ds = generate_synthetic(mirror_pair_spec(images_per_class=30), np.random.default_rng(0))
    sc = StructureConfig(seed=2, s=2, D=1)
    tc = TrainConfig(seed=2, mode="ihs-spn", generative_epochs=3,
                     discriminative_epochs=2, max_pairs_per_epoch=40)
    out = []
    for run in range(2):
        bundle = train_all(ds, sc, tc)
        path = tmp_path / f"run{run}"
        save_bundle(bundle, path)
        out.append({p.name: p.read_bytes() for p in sorted(path.iterdir())})
    assert out[0] == out[1]


def test_bundle_round_trip(tmp_path):
    ds = generate_synthetic(mirror_pair_spec(images_per_class=30), np.random.default_rng(0))
    sc = StructureConfig(seed=2, s=2, D=1)
    tc = TrainConfig(seed=2, mode="ihs-spn", generative_epochs=3,
                     discriminative_epochs=1, max_pairs_per_epoch=40)
    bundle = train_all(ds, sc, tc)
    save_bundle(bundle, tmp_path / "bundle")
    back = load_bundle(tmp_path / "bundle")
    assert back.classes == bundle.classes
    assert back.vocabulary_size == bundle.vocabulary_size
    for klass in bundle.classes:
        assert serialize(back.networks[klass]) == serialize(bundle.networks[klass])


def test_load_bundle_rejects_foreign_manifest(tmp_path):
    (tmp_path / "manifest").write_text("spn-model v1\n")
    with pytest.raises(ModelFormatError) as info:
        load_bundle(tmp_path)
    assert info.value.line_no == 1
    assert cli.main(["inspect", str(tmp_path)]) == cli.EXIT_INPUT


def test_load_bundle_rejects_shared_group_of_undeclared_class(tmp_path):
    (tmp_path / "manifest").write_text(
        "bundle v1\nt 2\nmode jhs-spn\nclasses 0\nshared-group ghost:0\n"
    )
    with pytest.raises(ModelFormatError) as info:
        load_bundle(tmp_path)
    assert info.value.line_no == 5


def write_tied_bundle(path, manifest_tail, weights_b=(0.3, 0.7)):
    """Two one-sum class networks over part 0; the manifest ends with manifest_tail."""
    for klass, weights in (("a", (0.3, 0.7)), ("b", weights_b)):
        b = NetworkBuilder()
        root = b.sum()
        b.edge(root, b.part(0, True), weights[0])
        b.edge(root, b.part(0, False), weights[1])
        (path / f"{klass}.spn").write_text(serialize(b.build(root=root, class_label=klass)))
    (path / "manifest").write_text(
        "bundle v1\nt 1\nmode jhs-spn\nclasses 2\nclass a a.spn\nclass b b.spn\n" + manifest_tail
    )


def test_load_bundle_accepts_equal_tied_weights(tmp_path):
    write_tied_bundle(tmp_path, "shared-group a:0 b:0\nshared-group a:1 b:1\n")
    assert load_bundle(tmp_path).shared_groups == [[(0, 0), (1, 0)], [(0, 1), (1, 1)]]


@pytest.mark.parametrize("manifest_tail, weights_b, line_no", [
    ("t two\n", (0.3, 0.7), 7),
    ("shared-group a0 b:0\n", (0.3, 0.7), 7),
    ("shared-group a:x b:0\n", (0.3, 0.7), 7),
    ("shared-group a:2 b:0\n", (0.3, 0.7), 7),
    ("shared-group a:-1 b:0\n", (0.3, 0.7), 7),
    ("shared-group a:0 b:0\n", (0.5, 0.5), 7),
    ("mode\n", (0.3, 0.7), 7),
    ("mode fancy-spn\n", (0.3, 0.7), 7),
    ("class c\n", (0.3, 0.7), 7),
    ("classes 3\n", (0.3, 0.7), 7),
])
def test_load_bundle_rejects_malformed_manifest_lines(tmp_path, manifest_tail, weights_b, line_no):
    write_tied_bundle(tmp_path, manifest_tail, weights_b)
    with pytest.raises(ModelFormatError) as info:
        load_bundle(tmp_path)
    assert info.value.line_no == line_no
    assert cli.main(["inspect", str(tmp_path)]) == cli.EXIT_INPUT


def test_classify_rejects_unknown_parts():
    ds = generate_synthetic(mirror_pair_spec(images_per_class=20), np.random.default_rng(0))
    sc = StructureConfig(seed=0, s=2, D=1)
    tc = TrainConfig(seed=0, mode="spn", generative_epochs=2, discriminative_epochs=0)
    bundle = train_all(ds, sc, tc)
    rogue = ImageRecord("r", "west", 100, 100, [Detection(99, 5.0, 5.0)])
    with pytest.raises(VocabularyMismatchError):
        classify(rogue, bundle)


def test_classify_empty_image_is_deterministic():
    ds = generate_synthetic(mirror_pair_spec(images_per_class=20), np.random.default_rng(0))
    sc = StructureConfig(seed=0, s=2, D=1)
    tc = TrainConfig(seed=0, mode="ihs-spn", generative_epochs=2, discriminative_epochs=0)
    bundle = train_all(ds, sc, tc)
    empty = ImageRecord("e", "west", 100, 100, [])
    scores1, label1 = classify(empty, bundle)
    scores2, label2 = classify(empty, bundle)
    assert scores1 == scores2 and label1 == label2
    assert label1 in bundle.classes


def test_training_positive_scores_higher_after_generative_stage():
    ds = generate_synthetic(mirror_pair_spec(images_per_class=40), np.random.default_rng(0))
    from spatialspn.structure import build_flat_network

    sc = StructureConfig(seed=0, s=2)
    net = build_flat_network(ds, "west", sc)
    target = ds.by_class("west")[0]
    before = evaluate(net, assignment_to_indicators(target, ds.vocabulary_size)).root_log_value
    generative_train(net, ds.by_class("west"), TrainConfig(generative_epochs=5))
    after = evaluate(net, assignment_to_indicators(target, ds.vocabulary_size)).root_log_value
    assert after > before


def test_pruned_trained_networks_still_validate_and_evaluate():
    ds = generate_synthetic(mirror_pair_spec(images_per_class=40), np.random.default_rng(0))
    sc = StructureConfig(seed=0, s=2, D=1)
    tc = TrainConfig(seed=0, mode="ihs-spn", generative_epochs=4,
                     discriminative_epochs=1, max_pairs_per_epoch=50)
    bundle = train_all(ds, sc, tc)
    for klass in bundle.classes:
        net = bundle.networks[klass]
        assert validate(net).ok
        for record in ds.records[:5]:
            result = evaluate(net, assignment_to_indicators(record, ds.vocabulary_size))
            assert not math.isnan(result.root_log_value)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(mode="bogus")
    with pytest.raises(ValueError):
        TrainConfig(prune_threshold=1e-12)
