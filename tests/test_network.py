import math
import re
import tracemalloc

import numpy as np
import pytest

import spatialspn.network as network_module
from spatialspn.data import (
    Detection,
    ImageRecord,
    generate_synthetic,
    preset_spec,
    strip_grid_spec,
)
from spatialspn.errors import (
    CycleError,
    DegenerateNodeError,
    IncompleteEvidenceError,
    MalformedRecordError,
    ModelFormatError,
)
from spatialspn.network import (
    IndicatorValues,
    Network,
    NetworkBuilder,
    Node,
    _evidence_row,
    _forward,
    _leaf_log_values,
    assignment_to_indicators,
    deserialize,
    encode_records,
    evaluate,
    normalize_weights,
    serialize,
    validate,
)
from spatialspn.oracle import (
    brute_force_marginal,
    random_evidence,
    random_network,
    reference_network,
)

from spatialspn.spatial import compute_relations
from spatialspn.structure import (
    StructureConfig,
    build_class_network,
    build_flat_network,
    learn_partition_tree,
)

from conftest import chain_network, one_hot


def test_reference_network_is_valid(ref_net):
    assert validate(ref_net).ok


def test_decomposability_violation_is_reported():
    b = NetworkBuilder()
    prod = b.product()
    b.edge(prod, b.part(0, True))
    b.edge(prod, b.part(0, False))  # same variable twice under a product
    net = b.build(root=prod)
    report = validate(net)
    assert "decomposability" in report.kinds()
    assert any(v.node == prod for v in report.violations)


def test_completeness_violation_is_reported():
    b = NetworkBuilder()
    s = b.sum()
    b.edge(s, b.part(0, True), 0.5)
    b.edge(s, b.part(1, True), 0.5)
    net = b.build(root=s)
    assert "completeness" in validate(net).kinds()


def test_self_loop_is_an_acyclicity_violation():
    b = NetworkBuilder()
    s = b.sum()
    p = b.product()
    b.edge(s, p, 1.0)
    b.edge(p, s)
    net = b.build(root=s)
    assert "acyclicity" in validate(net).kinds()


def test_orphan_node_is_reported():
    b = NetworkBuilder()
    s = b.sum()
    x = b.part(0, True)
    b.edge(s, x, 1.0)
    b.part(1, True)  # never connected
    net = b.build(root=s)
    assert "reachability" in validate(net).kinds()


# ------------------------------------------------------------ indicators


def _image(dets, klass="c", wh=(100, 100)):
    return ImageRecord(id="img", klass=klass, width=wh[0], height=wh[1],
                       detections=[Detection(*d) for d in dets])


def test_assignment_one_hot_encoding():
    image = _image([(0, 10.0, 10.0)])
    values = assignment_to_indicators(image, vocabulary_size=2)
    assert values.parts[0] == (1.0, 0.0)
    assert values.parts[1] == (0.0, 1.0)


def test_assignment_query_part_marginalized():
    image = _image([(0, 10.0, 10.0)])
    values = assignment_to_indicators(image, vocabulary_size=2, query_parts={1})
    assert values.parts[1] == (1.0, 1.0)


def test_assignment_pair_with_absent_part_marginalized():
    image = _image([(0, 10.0, 10.0)])
    values = assignment_to_indicators(image, vocabulary_size=2)
    assert values.pairs[(0, 1)] == (1.0, 1.0, 1.0, 1.0)


def test_assignment_pair_geometry():
    image = _image([(0, 10.0, 80.0), (1, 50.0, 20.0)])  # 0 below-left of 1
    values = assignment_to_indicators(image, vocabulary_size=2)
    assert values.pairs[(0, 1)] == (1.0, 0.0, 0.0, 1.0)


def test_assignment_rejects_non_finite_location():
    image = _image([(0, float("nan"), 10.0)])
    with pytest.raises(MalformedRecordError):
        assignment_to_indicators(image, vocabulary_size=1)


# ------------------------------------------------------------- evaluation


def test_reference_joint_value(ref_net):
    # hand computation: 0.8*0.3*0.2 + 0.2*0.4*0.9 = 0.12
    result = evaluate(ref_net, one_hot(True, False))
    assert result.root_value == pytest.approx(0.12, abs=1e-12)


def test_reference_partition_function_is_one(ref_net):
    values = IndicatorValues(parts={0: (1.0, 1.0), 1: (1.0, 1.0)})
    assert evaluate(ref_net, values).root_value == pytest.approx(1.0, abs=1e-12)


def test_missing_indicator_raises(ref_net):
    with pytest.raises(IncompleteEvidenceError):
        evaluate(ref_net, IndicatorValues(parts={0: (1.0, 0.0)}))


def reference_leaf_log_values(network, indicators):
    """Per-leaf lookup of every leaf's log value, one node at a time."""
    logv = np.zeros(network.num_nodes)
    for nid, nd in enumerate(network.nodes):
        if nd.kind == "part":
            value = indicators.parts[nd.part][0 if nd.positive else 1]
        elif nd.kind == "spatial":
            value = indicators.pairs[nd.pair][int(nd.relation)]
        elif nd.kind == "one":
            value = 1.0
        else:
            continue
        logv[nid] = math.log(value) if value > 0.0 else -math.inf
    return logv


def fractional_evidence(rng, network):
    values = IndicatorValues()
    for part in network.part_universe:
        values.parts[part] = tuple(float(v) for v in rng.choice([0.0, 0.3, 1.0, rng.random()], 2))
    for pair in network.pair_universe:
        values.pairs[pair] = tuple(float(v) for v in rng.choice([0.0, 0.7, 1.0, rng.random()], 4))
    return values


def with_constant_leaf():
    b = NetworkBuilder()
    root = b.product()
    b.edge(root, b.part(3, True))
    mix = b.sum()
    b.edge(mix, b.one(), 1.0)
    b.edge(root, mix)
    return b.build(root=root)


def test_leaf_fill_matches_per_leaf_reference(rng):
    nets = [random_network(rng, max_parts=5, max_pairs=2) for _ in range(40)]
    for net in nets + [with_constant_leaf()]:
        evidence = fractional_evidence(rng, net)
        got = _leaf_log_values(net, _evidence_row(net, evidence))[0]
        want = reference_leaf_log_values(net, evidence)
        assert np.array_equal(np.isneginf(got), np.isneginf(want))
        finite = np.isfinite(want)
        assert np.allclose(got[finite], want[finite], rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("bad", [float("nan"), 1.5, -0.1])
def test_leaf_fill_names_lowest_out_of_range_node(bad):
    net = random_network(np.random.default_rng(3), max_parts=4, max_pairs=1)
    part = net.part_universe[-1]
    evidence = random_evidence(np.random.default_rng(4), net, marginal_rate=0.0)
    evidence.parts[part] = (bad, bad)
    leaves = [i for i, nd in enumerate(net.nodes) if nd.kind == "part" and nd.part == part]
    with pytest.raises(IncompleteEvidenceError, match=f"node {min(leaves)} must lie in"):
        evaluate(net, evidence)


def test_leaf_fill_rejects_pair_entry_of_wrong_width():
    net = random_network(np.random.default_rng(5), max_parts=4, max_pairs=1)
    evidence = random_evidence(np.random.default_rng(6), net, marginal_rate=0.0)
    evidence.set_pair(net.pair_universe[0], (1.0, 0.0, 0.0, 0.0, 1.0))
    with pytest.raises(IncompleteEvidenceError, match="4 per pair"):
        evaluate(net, evidence)


def test_missing_pair_is_reported_before_out_of_range_value():
    net = random_network(np.random.default_rng(5), max_parts=4, max_pairs=1)
    pair = net.pair_universe[0]
    evidence = random_evidence(np.random.default_rng(6), net, marginal_rate=0.0)
    evidence.parts[net.part_universe[0]] = (1.5, 0.0)
    del evidence.pairs[pair]
    with pytest.raises(IncompleteEvidenceError, match=re.escape(f"pair {pair}")):
        evaluate(net, evidence)


def test_evaluate_matches_brute_force_on_random_networks(rng):
    for _ in range(30):
        net = random_network(rng)
        evidence = random_evidence(rng, net)
        fast = evaluate(net, evidence).root_value
        slow = brute_force_marginal(net, evidence)
        assert fast == pytest.approx(slow, rel=1e-9, abs=1e-300)


def test_linear_domain_recheck(rng):
    # product nodes multiply, sum nodes mix, verified from the result values
    for _ in range(10):
        net = random_network(rng)
        evidence = random_evidence(rng, net)
        values = evaluate(net, evidence).values
        for node in range(net.num_nodes):
            kids = net.children(node)
            if not len(kids):
                continue
            if net.nodes[node].kind == "product":
                expect = np.prod(values[kids])
            else:
                edges = net.child_edges(node)
                expect = float(np.sum(net.edge_weight[edges] * values[net.edge_child[edges]]))
            assert values[node] == pytest.approx(expect, rel=1e-12, abs=1e-300)


def test_evaluation_is_affine_in_each_leaf(ref_net, rng):
    # three-point collinearity: networks are multilinear in indicator values
    for net in (ref_net, random_network(rng)):
        evidence = random_evidence(rng, net)
        part = net.part_universe[0]
        outs = []
        for v in (0.0, 0.5, 1.0):
            e = evidence.copy()
            e.parts[part] = (v, e.parts[part][1])
            outs.append(evaluate(net, e).root_value)
        assert outs[1] == pytest.approx((outs[0] + outs[2]) / 2.0, rel=1e-9, abs=1e-15)


def test_marginalization_is_sum_of_polarities(rng):
    for _ in range(10):
        net = random_network(rng)
        evidence = random_evidence(rng, net)
        part = net.part_universe[0]
        marg = evidence.copy()
        marg.marginalize_part(part)
        pos = evidence.copy()
        pos.set_part(part, True)
        neg = evidence.copy()
        neg.set_part(part, False)
        total = evaluate(net, pos).root_value + evaluate(net, neg).root_value
        assert evaluate(net, marg).root_value == pytest.approx(total, rel=1e-9, abs=1e-300)


def test_scaling_covariance_on_chain():
    net, mid = chain_network()
    values = one_hot(True, False)
    values.parts.pop(1)
    base = evaluate(net, values).root_value
    net.edge_weight[net.child_edges(mid)] *= 3.0
    assert evaluate(net, values).root_value == pytest.approx(3.0 * base, rel=1e-12)


# ------------------------------------------------------------ normalization


def test_normalize_proportional():
    net, mid = chain_network(weights_mid=(2.0, 3.0))
    normalize_weights(net)
    edges = net.child_edges(mid)
    assert list(net.edge_weight[edges]) == pytest.approx([0.4, 0.6])


def test_normalize_reference_unchanged(ref_net):
    before = ref_net.edge_weight.copy()
    normalize_weights(ref_net)
    mask = ~np.isnan(before)
    assert np.max(np.abs(ref_net.edge_weight[mask] - before[mask])) <= 1e-12


def test_normalize_concentrated_mass():
    b = NetworkBuilder()
    s = b.sum()
    b.edge(s, b.part(0, True), 5.0)
    b.edge(s, b.part(0, False), 0.0)
    b.edge(s, b.part(0, False), 0.0)
    net = b.build(root=s)
    normalize_weights(net)
    assert list(net.edge_weight[net.child_edges(s)]) == [1.0, 0.0, 0.0]


def test_normalize_degenerate_sum_raises():
    b = NetworkBuilder()
    s = b.sum()
    b.edge(s, b.part(0, True), 0.0)
    b.edge(s, b.part(0, False), 0.0)
    net = b.build(root=s)
    with pytest.raises(DegenerateNodeError):
        normalize_weights(net)


def test_normalize_preserves_argmax(rng):
    for _ in range(10):
        net = random_network(rng, normalized=False)
        orders = {}
        for node in range(net.num_nodes):
            if net.nodes[node].kind == "sum":
                edges = net.child_edges(node)
                orders[node] = np.argsort(net.edge_weight[edges], kind="stable").tolist()
        normalize_weights(net)
        for node, order in orders.items():
            edges = net.child_edges(node)
            assert np.argsort(net.edge_weight[edges], kind="stable").tolist() == order


# ------------------------------------------------------------ serialization


def test_round_trip_identity(ref_net, rng):
    for net in (ref_net, random_network(rng)):
        text = serialize(net)
        back = deserialize(text)
        assert [n for n in back.nodes] == [n for n in net.nodes]
        assert back.root == net.root
        assert np.array_equal(back.edge_parent, net.edge_parent)
        assert np.array_equal(back.edge_child, net.edge_child)
        mask = ~np.isnan(net.edge_weight)
        assert np.array_equal(back.edge_weight[mask], net.edge_weight[mask])
        assert serialize(back) == text


def test_round_trip_preserves_marks_and_label(ref_net):
    ref_net.class_label = "bike"
    ref_net.shared_edges = {0, 3}
    back = deserialize(serialize(ref_net))
    assert back.class_label == "bike"
    assert back.shared_edges == {0, 3}


def _rewrite_first_sum_edge(text, new_weight):
    lines = text.splitlines()
    for i, line in enumerate(lines):
        tokens = line.split()
        if tokens[0] == "edge" and len(tokens) == 4:
            lines[i] = f"edge {tokens[1]} {tokens[2]} {new_weight}"
            return "\n".join(lines) + "\n"
    raise AssertionError("no sum edge found")


def test_negative_weight_rejected(ref_net):
    text = _rewrite_first_sum_edge(serialize(ref_net), "-0.1")
    with pytest.raises(ModelFormatError):
        deserialize(text)


def test_unknown_node_kind_rejected(ref_net):
    text = serialize(ref_net).replace("node 0 sum", "node 0 gateway")
    with pytest.raises(ModelFormatError, match="gateway"):
        deserialize(text)


def test_nan_weight_rejected(ref_net):
    text = _rewrite_first_sum_edge(serialize(ref_net), "nan")
    with pytest.raises(ModelFormatError, match="NaN"):
        deserialize(text)


def test_version_mismatch_rejected(ref_net):
    text = serialize(ref_net).replace("spn-model v1", "spn-model v9")
    with pytest.raises(ModelFormatError, match="version"):
        deserialize(text)


def test_truncated_file_rejected(ref_net):
    lines = [l for l in serialize(ref_net).splitlines() if not l.startswith("root")]
    with pytest.raises(ModelFormatError, match="root"):
        deserialize("\n".join(lines))


@pytest.mark.parametrize("line", [
    "node 0 part x pos",
    "node 1 spatial a 1 left",
    "root zero",
    "shared q",
])
def test_non_integer_field_is_a_typed_error(line):
    with pytest.raises(ModelFormatError) as info:
        deserialize(f"spn-model v1\n{line}\n")
    assert info.value.line_no == 2


def test_builder_rejects_bad_weights():
    b = NetworkBuilder()
    s = b.sum()
    x = b.part(0, True)
    with pytest.raises(ValueError):
        b.edge(s, x, -1.0)
    with pytest.raises(ValueError):
        b.edge(s, x)  # sum edge needs a weight
    p = b.product()
    with pytest.raises(ValueError):
        b.edge(p, x, 0.5)  # product edge must not carry one



# ------------------------------------------------- evidence matrix encoder


def relation_tuple(loc1, loc2):
    return tuple(1.0 if f else 0.0 for f in compute_relations(loc1, loc2))


def reference_encoding(image, t, query_parts=()):
    """The per-pair encoding: first detection wins, relation_tuple per pair."""
    locations = {}
    for det in image.detections:
        if not det.location().is_finite():
            raise MalformedRecordError(f"image {image.id}: bad location")
        locations.setdefault(det.part, det.location())
    parts = {p: (1.0, 1.0) if p in query_parts else (1.0, 0.0) if p in locations else (0.0, 1.0)
             for p in range(t)}
    pairs = {}
    for a in range(t):
        for b in range(a + 1, t):
            known = all(p in locations and p not in query_parts for p in (a, b))
            pairs[(a, b)] = (relation_tuple(locations[a], locations[b]) if known
                             else (1.0, 1.0, 1.0, 1.0))
    return parts, pairs


def random_records(rng, n, t):
    """Records on a coarse grid, so equal coordinates are common; some
    detections repeat a part or lie outside the vocabulary."""
    records = []
    for i in range(n):
        dets = [Detection(int(rng.integers(0, t + 2)), float(rng.integers(0, 4)),
                          float(rng.integers(0, 4))) for _ in range(int(rng.integers(0, 2 * t + 2)))]
        records.append(ImageRecord(f"r{i}", "c", 10, 10, dets))
    return records


def test_encoder_matches_per_pair_reference(rng):
    for t in (0, 1, 2, 5, 9):
        records = random_records(rng, 25, t)
        for query in ((), (0,), (1, t - 1), (t + 3,)):
            evidence = encode_records(records, t, query)
            assert evidence.shape == (len(records), 2 * t * t)
            for row, record in zip(evidence, records):
                parts, pairs = reference_encoding(record, t, set(query))
                for p, values in parts.items():
                    assert tuple(row[2 * p * p:2 * p * p + 2]) == values
                for (a, b), values in pairs.items():
                    start = 2 * b * b + 2 + 4 * a
                    assert tuple(row[start:start + 4]) == values
                one_row = assignment_to_indicators(record, t, query)
                assert (one_row.parts, one_row.pairs) == (parts, pairs)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_encoder_rejects_non_finite_location_of_any_record(bad):
    good = _image([(0, 1.0, 1.0)])
    broken = ImageRecord("broken", "c", 10, 10, [Detection(0, 1.0, 1.0), Detection(5, bad, 1.0)])
    with pytest.raises(MalformedRecordError, match="image broken: part 5"):
        encode_records([good, broken], 2)


# ------------------------------------------------------ evaluation plan


def reference_plan(network):
    """The per-node loop build of the evaluation plan."""
    level = np.zeros(network.num_nodes, dtype=np.int64)
    for node in network.topological_order():
        kids = network.children(node)
        if len(kids):
            level[node] = level[kids].max() + 1
    plan = []
    for lv in range(1, int(level.max(initial=0)) + 1):
        groups = {}
        for kind in ("sum", "product"):
            nodes = [i for i in np.flatnonzero(level == lv) if network.nodes[i].kind == kind]
            if not nodes:
                continue
            chunks = [network.child_edges(int(i)) for i in nodes]
            edges = np.concatenate(chunks)
            groups[kind] = (
                np.asarray(nodes, dtype=np.int32),
                edges,
                network.edge_child[edges],
                np.cumsum([0] + [len(c) for c in chunks[:-1]]),
                np.repeat(np.arange(len(nodes)), [len(c) for c in chunks]),
            )
        plan.append(groups)
    return plan


def preset_networks():
    """Hierarchical and flat class networks of every preset generator (strips
    at the benchmark's 3x6 size), with random weights, some of them zero."""
    rng = np.random.default_rng(7)
    specs = [preset_spec(name, 12) for name in ("mirror", "split", "shared")]
    specs.append(strip_grid_spec(n_strips=3, parts_per_strip=6, images_per_class=12))
    out = []
    for spec in specs:
        ds = generate_synthetic(spec, np.random.default_rng(0))
        klass = ds.classes[0]
        config = StructureConfig(seed=0, s=2, D=1)
        nets = [build_flat_network(ds, klass, config)]
        if spec.vocabulary_size <= 8:
            nets.append(build_class_network(learn_partition_tree(ds, klass, config), ds, klass, config))
        for net in nets:
            sums = np.flatnonzero([net.nodes[int(p)].kind == "sum" for p in net.edge_parent])
            net.edge_weight[sums] = rng.random(len(sums)) * (rng.random(len(sums)) > 0.1)
            out.append((net, ds.records))
    return out


def test_evaluation_plan_matches_loop_reference(rng):
    nets = [random_network(rng, max_parts=6, max_pairs=3) for _ in range(30)]
    for net in nets + [net for net, _ in preset_networks()]:
        plan, want = net._evaluation_plan(), reference_plan(net)
        assert len(plan) == len(want)
        for groups, ref in zip(plan, want):
            assert groups.keys() == ref.keys()
            for kind in ref:
                for got, expected in zip(groups[kind], ref[kind]):
                    assert got.dtype == expected.dtype and np.array_equal(got, expected)


def test_topological_order_is_children_first_by_level_then_id(rng):
    nets = [random_network(rng, max_parts=6, max_pairs=3) for _ in range(30)]
    for net in nets + [net for net, _ in preset_networks()]:
        order = net.topological_order()
        assert order.dtype == np.int32
        position = np.empty(net.num_nodes, dtype=np.int64)
        position[order] = np.arange(net.num_nodes)
        assert sorted(order.tolist()) == list(range(net.num_nodes))
        assert np.all(position[net.edge_child] < position[net.edge_parent])
        # levels by relaxing every edge until nothing moves
        level = np.zeros(net.num_nodes, dtype=np.int64)
        while True:
            above = level.copy()
            np.maximum.at(above, net.edge_parent, level[net.edge_child] + 1)
            if np.array_equal(above, level):
                break
            level = above
        assert order.tolist() == sorted(range(net.num_nodes), key=lambda i: (level[i], i))


@pytest.mark.parametrize("edges", [
    [(0, 0), (0, 3)],                  # self-loop at the root
    [(0, 1), (1, 2), (2, 0), (2, 3)],  # 3-cycle through the root
    [(0, 1), (1, 2), (2, 1), (2, 3)],  # cycle below the root
])
def test_cycles_raise_cycle_error(edges):
    nodes = [Node("product")] * 3 + [Node("part", part=0, positive=True)]
    net = Network(nodes, [p for p, _ in edges], [c for _, c in edges], [math.nan] * len(edges), 0)
    with pytest.raises(CycleError):
        net.topological_order()
    with pytest.raises(CycleError):
        net._evaluation_plan()
    assert validate(net).kinds() == {"acyclicity"}


# ------------------------------------------------------ batched forward pass


def reference_forward(network, row, mode):
    """One image at a time: per-leaf reads, then 1-D segment reductions."""
    plan = reference_plan(network)
    logv = np.zeros(network.num_nodes)
    leaves, values = [], []
    for nid, nd in enumerate(network.nodes):
        if nd.kind == "part":
            values.append(row[2 * nd.part ** 2 + (0 if nd.positive else 1)])
        elif nd.kind == "spatial":
            a, b = nd.pair
            values.append(row[2 * b * b + 2 + 4 * a + int(nd.relation)])
        else:
            continue
        leaves.append(nid)
    with np.errstate(divide="ignore", invalid="ignore"):
        logv[leaves] = np.log(np.asarray(values))
        logw = np.log(network.edge_weight)
        for groups in plan:
            if "product" in groups:
                nodes, _, children, seg_starts, _ = groups["product"]
                logv[nodes] = np.add.reduceat(logv[children], seg_starts)
            if "sum" in groups:
                nodes, edges, children, seg_starts, seg_ids = groups["sum"]
                scores = logw[edges] + logv[children]
                maxima = np.maximum.reduceat(scores, seg_starts)
                if mode == "sum":
                    dead = np.isneginf(maxima)
                    shifted = scores - maxima[seg_ids]
                    shifted[dead[seg_ids]] = 0.0
                    maxima = maxima + np.log(np.add.reduceat(np.exp(shifted), seg_starts))
                    maxima[dead] = -np.inf
                logv[nodes] = maxima
    return logv


@pytest.mark.parametrize("mode", ["sum", "max"])
def test_batched_forward_is_bit_identical_to_per_image_reference(rng, mode, monkeypatch):
    cases = []
    for _ in range(20):
        net = random_network(rng, max_parts=6, max_pairs=3)
        records = random_records(rng, 7, net.part_span)
        cases.append((net, encode_records(records, net.part_span)))
    for net, records in preset_networks():
        evidence = encode_records(records[:9], net.part_span)
        fractional = rng.choice([0.0, 0.3, 1.0, rng.random()], size=(4, evidence.shape[1]))
        cases.append((net, np.vstack([evidence, fractional])))
    for net, evidence in cases:
        want = np.stack([reference_forward(net, row, mode) for row in evidence])
        assert _forward(net, evidence, mode).tobytes() == want.tobytes()
        for i, row in enumerate(evidence):
            assert _forward(net, evidence[i:i + 1], mode).tobytes() == want[i].tobytes()
        # three rows per block: the last block is split mid-batch
        monkeypatch.setattr(network_module, "ROW_BLOCK_ELEMENTS", 3 * max(1, net.num_edges))
        assert _forward(net, evidence, mode).tobytes() == want.tobytes()
        monkeypatch.undo()


def test_batched_forward_peak_memory_is_bounded():
    ds = generate_synthetic(strip_grid_spec(n_strips=3, parts_per_strip=6, images_per_class=60),
                            np.random.default_rng(0))
    net = build_flat_network(ds, ds.classes[0], StructureConfig(seed=0))
    evidence = encode_records(ds.records[:120], ds.vocabulary_size)
    _forward(net, evidence[:1], "sum")  # compile the plan outside the trace
    tracemalloc.start()
    try:
        _forward(net, evidence, "sum")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert net.num_edges > 25_000 and len(evidence) == 120
    assert peak < 8e6
