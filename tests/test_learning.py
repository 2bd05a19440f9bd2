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
    WEIGHT_FLOOR,
    Network,
    NetworkBuilder,
    _forward,
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
    # the stage encodes its fit and dev sets once and scores pairs from a
    # cache; every update and dev margin must still see exactly the rows, and
    # every update the root values, of its own images (no generative epoch,
    # so that pairs are violated and updates run)
    ds = generate_synthetic(shared_halves_spec(images_per_class=10), np.random.default_rng(2))
    classes = sorted(set(ds.classes))
    config = TrainConfig(generative_epochs=0, discriminative_epochs=2, max_pairs_per_epoch=12,
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
        fresh = _forward(network, encode_records([pos, neg], span), "sum")[:, network.root]
        assert list(kwargs["roots"]) == fresh.tolist()
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
    counters = learning_module._discriminative_stage(networks, ds, config)
    updates = sum(c["updates"] for c in counters.values())
    assert updates > 0
    assert seen == {"pairs": updates, "dev": 2 * len(classes)}


# ------------------------------------------------- windowed pair scoring


def reference_discriminative_stage(networks, dataset, config, shared_groups=None,
                                   log_lines=None, update_stats=None):
    """The per-pair loop: one sum pass over the two rows of every sampled
    pair, then `_margin_update`'s step when the pair is violated."""
    classes = sorted(networks)
    shared_map = {klass: {} for klass in classes}
    groups = shared_groups or []
    for group_idx, group in enumerate(groups):
        for net_idx, edge in group:
            shared_map[classes[net_idx]][edge] = group_idx
    by_class_fit, by_class_dev = {}, {}
    for klass in classes:
        rng = np.random.default_rng((config.seed, 11, learning_module.hash_str(klass)))
        by_class_fit[klass], by_class_dev[klass] = learning_module._split_fit_dev(
            dataset.by_class(klass), rng)

    def others(by_class, klass):
        return [r for k in classes if k != klass for r in by_class[k]]

    span = max([dataset.vocabulary_size] + [net.part_span for net in networks.values()])
    fit_rows = {k: encode_records(by_class_fit[k], span) for k in classes}
    negative_rows = {k: encode_records(others(by_class_fit, k), span) for k in classes}
    dev_rows = {k: encode_records(by_class_dev[k] + others(by_class_dev, k), span) for k in classes}
    best = {klass: math.inf for klass in classes}
    stall = {klass: 0 for klass in classes}
    active = set(classes)
    for epoch in range(config.discriminative_epochs):
        if not active:
            break
        group_acc = [0.0] * len(groups)
        group_hits = [0] * len(groups)
        for klass in classes:
            if klass not in active:
                continue
            network = networks[klass]
            rng = np.random.default_rng((config.seed, 13, learning_module.hash_str(klass), epoch))
            positives = by_class_fit[klass]
            negatives = others(by_class_fit, klass)
            n_pairs = min(config.max_pairs_per_epoch, len(positives) * len(negatives))
            deferred = {edge: 0.0 for edge in shared_map[klass]} if groups else None
            violations = 0
            slack_total = 0.0
            update_counts = update_stats.setdefault(klass, {}) if update_stats is not None else None
            for _ in range(n_pairs):
                i = int(rng.integers(len(positives)))
                j = int(rng.integers(len(negatives)))
                record = learning_module._margin_update(
                    network, np.stack([fit_rows[klass][i], negative_rows[klass][j]]),
                    (positives[i].id, negatives[j].id), config.learning_rate,
                    deferred=deferred, update_counts=update_counts,
                )
                slack_total += record.slack
                if record.slack > 0:
                    violations += 1
            if deferred:
                for edge, step in deferred.items():
                    if step != 0.0:
                        group_acc[shared_map[klass][edge]] += step
                        group_hits[shared_map[klass][edge]] += 1
            if log_lines is not None:
                log_lines.append(
                    f"epoch {epoch} class {klass} stage discriminative "
                    f"mean_margin {slack_total / max(n_pairs, 1):.9g} "
                    f"violation_rate {violations / max(n_pairs, 1):.9g}"
                )
        touched_by_class = {klass: set() for klass in classes}
        for group_idx, group in enumerate(groups):
            step = group_acc[group_idx]
            if step == 0.0:
                continue
            for net_idx, edge in group:
                network = networks[classes[net_idx]]
                network.edge_weight[edge] = max(WEIGHT_FLOOR, network.edge_weight[edge] + step)
                touched_by_class[classes[net_idx]].add(int(network.edge_parent[edge]))
        for klass, nodes in touched_by_class.items():
            if nodes:
                normalize_weights(networks[klass], sorted(nodes))
        if update_stats is not None and groups:
            update_stats.setdefault("group_hits", [0] * len(groups))
            for group_idx, hits in enumerate(group_hits):
                update_stats["group_hits"][group_idx] += hits
        for klass in list(active):
            margin = learning_module._mean_dev_margin(networks[klass], dev_rows[klass],
                                                      len(by_class_dev[klass]))
            if margin < best[klass] - 1e-9:
                best[klass] = margin
                stall[klass] = 0
            else:
                stall[klass] += 1
                if stall[klass] >= config.early_stop_patience:
                    active.discard(klass)


def run_stage(stage, networks, dataset, config, groups=None):
    """(weight bytes, log lines, update stats, error) of one stage run on a
    copy of `networks`."""
    nets = {k: net.copy() for k, net in networks.items()}
    log_lines, update_stats, error = [], {}, None
    try:
        stage(nets, dataset, config, groups, log_lines, update_stats)
    except TrainingError as exc:
        error = str(exc)
    return {k: n.edge_weight.tobytes() for k, n in nets.items()}, log_lines, update_stats, error


def violation_rates(log_lines):
    return [float(line.split()[-1]) for line in log_lines if "stage discriminative" in line]


def stage_case(name):
    """Networks after the generative stage and pruning, their shared groups,
    the dataset and a discriminative config, for one comparison case."""
    spec = {"ihs": mirror_pair_spec(images_per_class=30),
            "jhs": shared_halves_spec(images_per_class=30, bg_rate=0.1, drop_rate=0.25),
            "high": mirror_pair_spec(images_per_class=20),
            "zero": shared_halves_spec(images_per_class=20, drop_rate=0.3)}[name]
    mode = {"ihs": "ihs-spn", "jhs": "jhs-spn", "high": "spn", "zero": "spn"}[name]
    ds = generate_synthetic(spec, np.random.default_rng(4))
    bundle = train_all(ds, StructureConfig(seed=0, s=2, D=1),
                       TrainConfig(seed=5, mode=mode, discriminative_epochs=0,
                                   generative_epochs=0 if name == "high" else 3))
    config = TrainConfig(seed=5, mode=mode, discriminative_epochs=3, max_pairs_per_epoch=150)
    return bundle.networks, bundle.shared_groups, ds, config


def zero_part_weight(network, part):
    """Move the mass of every `part`-present leaf edge to its sibling: an
    image with the part then scores a structural zero."""
    for edge in range(network.num_edges):
        child = network.nodes[int(network.edge_child[edge])]
        if child.kind == "part" and child.part == part and child.positive:
            network.edge_weight[network.child_edges(int(network.edge_parent[edge]))] = 1.0
            network.edge_weight[edge] = 0.0
    normalize_weights(network)


@pytest.mark.parametrize("name", ["ihs", "jhs", "high", "zero"])
def test_windowed_stage_matches_per_pair_reference(name):
    networks, groups, ds, config = stage_case(name)
    if name == "zero":
        klass = ds.classes[0]
        zero_part_weight(networks[klass], 0)
        span = networks[klass].part_span
        roots = _forward(networks[klass], encode_records(ds.by_class(klass), span), "sum")
        finite = np.isfinite(roots[:, networks[klass].root])
        assert finite.any() and not finite.all()
    reference = run_stage(reference_discriminative_stage, networks, ds, config, groups)
    assert run_stage(learning_module._discriminative_stage, networks, ds, config, groups) == reference
    assert reference[3] is None
    if name == "jhs":
        assert groups and any(reference[2]["group_hits"])
    if name == "high":
        assert max(violation_rates(reference[1])) >= 0.3
    if name == "zero":
        assert violation_rates(reference[1])[0] > 0


def test_windowed_stage_raises_the_reference_nan_error(monkeypatch):
    # a NaN enters one sum node's weights right after the third weight
    # change; both stages must stop at the same pair with the same message
    networks, groups, ds, config = stage_case("high")
    normalize = learning_module.normalize_weights

    def poisoning(network, nodes=None):
        normalize(network, nodes)
        calls[0] += 1
        if calls[0] == 3:
            network.edge_weight[network.child_edges(nodes[0])[0]] = math.nan
        return network

    monkeypatch.setattr(learning_module, "normalize_weights", poisoning)
    calls = [0]
    reference = run_stage(reference_discriminative_stage, networks, ds, config)
    calls = [0]
    windowed = run_stage(learning_module._discriminative_stage, networks, ds, config)
    assert reference[3] is not None and reference[3].startswith("NaN value at node")
    assert windowed == reference


def test_windowed_stage_pass_counts(monkeypatch):
    ds = generate_synthetic(shared_halves_spec(images_per_class=30), np.random.default_rng(3))
    networks = train_all(ds, StructureConfig(seed=0, s=2, D=1),
                         TrainConfig(seed=1, mode="fs-spn", discriminative_epochs=0)).networks
    config = TrainConfig(seed=1, mode="fs-spn", discriminative_epochs=3, max_pairs_per_epoch=300,
                         early_stop_patience=3)
    encode, forward = learning_module.encode_records, learning_module._forward
    mean_dev_margin = learning_module._mean_dev_margin
    passes = []  # per class-epoch, the (weights, row tags) of each pair-loop sum pass

    def tagged_encode(records, span):
        # one trailing column no leaf reads: a tag naming each encoded row
        rows = encode(records, span)
        tags = np.arange(len(rows)) + tagged_encode.next
        tagged_encode.next += len(rows)
        return np.hstack([rows, tags[:, None]])

    tagged_encode.next = 0

    def counted_forward(network, evidence, mode):
        if mode == "sum" and not in_dev[0]:
            if not passes or passes[-1][0] != network.class_label:
                passes.append((network.class_label, []))
            passes[-1][1].append((network.edge_weight.tobytes(), evidence[:, -1].tolist()))
        return forward(network, evidence, mode)

    def dev_margin(network, evidence, n_pos):
        in_dev[0] = True
        try:
            return mean_dev_margin(network, evidence, n_pos)
        finally:
            in_dev[0] = False
            passes.append((None, []))  # the epoch boundary

    in_dev = [False]
    monkeypatch.setattr(learning_module, "encode_records", tagged_encode)
    monkeypatch.setattr(learning_module, "_forward", counted_forward)
    monkeypatch.setattr(learning_module, "_mean_dev_margin", dev_margin)
    log_lines = []
    counters = learning_module._discriminative_stage(networks, ds, config, log_lines=log_lines)

    class_epochs = [calls for klass, calls in passes if klass is not None]
    rates = violation_rates(log_lines)
    assert len(class_epochs) == len(rates)
    n_pairs = config.max_pairs_per_epoch
    assert sum(map(len, class_epochs)) == sum(c["sum_passes"] for c in counters.values())
    assert sum(len(rows) for calls in class_epochs for _, rows in calls) == sum(
        c["rows_scored"] for c in counters.values())
    quiet = [calls for calls, rate in zip(class_epochs, rates) if rate == 0.0]
    assert quiet and len(quiet) < len(rates)
    for calls in quiet:
        assert len(calls) <= math.ceil(math.log2(n_pairs)) + 1
    for calls in class_epochs:
        scored = [(weights, row) for weights, rows in calls for row in rows]
        assert len(scored) == len(set(scored))
    for klass, c in counters.items():
        assert c["pairs"] == n_pairs * sum(1 for line in log_lines if f"class {klass} stage d" in line)
        assert c["updates"] <= c["violated"] <= c["pairs"]


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
