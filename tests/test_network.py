import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spatialspn.network as network_module
from spatialspn.data import (
    Detection,
    ImageRecord,
    generate_synthetic,
    preset_spec,
    strip_grid_spec,
)
from spatialspn.errors import (
    ContractViolationError,
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
    ValidityReport,
    Violation,
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

from spatialspn.learning import TrainConfig, load_bundle, save_bundle, train_all
from spatialspn.metrics import evaluate_bundle
from spatialspn.spatial import RELATION_TOKENS, TOKEN_RELATIONS, Relation, compute_relations
from spatialspn.structure import (
    StructureConfig,
    build_class_network,
    build_flat_network,
    learn_partition_tree,
)

from conftest import chain_network, one_hot, reference_flat_network


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


def reference_validate(network):
    """The per-node loop validation the array passes replace: a DFS for
    reachability and per-node scope bitsets over `network.variables()`."""
    report = ValidityReport()
    try:
        topo = network.topological_order()
    except CycleError:
        report.violations.append(Violation("acyclicity", message="graph contains a cycle"))
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
        if nd.kind in ("part", "spatial", "one") and n_children:
            report.violations.append(
                Violation("leaf-children", node=node, message=f"leaf node {node} has children")
            )
        if nd.kind in ("sum", "product") and n_children == 0:
            report.violations.append(
                Violation("childless-internal", node=node, message=f"{nd.kind} node {node} has no children")
            )

    for edge in range(network.num_edges):
        parent = int(network.edge_parent[edge])
        weight = network.edge_weight[edge]
        if network.nodes[parent].kind == "sum":
            if not math.isfinite(weight) or weight < 0:
                report.violations.append(
                    Violation("weight", edge=edge, message=f"edge {edge} has invalid weight {weight}")
                )
        elif not math.isnan(weight):
            report.violations.append(
                Violation("weight", edge=edge, message=f"edge {edge} of a {network.nodes[parent].kind} node carries a weight")
            )

    var_index = {v: i for i, v in enumerate(network.variables())}
    scopes = [0] * network.num_nodes
    for node in topo:
        nd = network.nodes[node]
        if nd.kind == "part":
            scopes[node] = 1 << var_index[("part", nd.part)]
        elif nd.kind == "spatial":
            scopes[node] = 1 << var_index[("pair", nd.pair)]
        elif nd.kind != "one":
            for child in network.children(node):
                scopes[node] |= scopes[child]
    for node, nd in enumerate(network.nodes):
        kids = network.children(node)
        if nd.kind == "product" and len(kids):
            acc = 0
            for child in kids:
                if acc & scopes[child]:
                    report.violations.append(Violation(
                        "decomposability", node=node,
                        message=f"product node {node} has children with overlapping scopes",
                    ))
                    break
                acc |= scopes[child]
        elif nd.kind == "sum" and len(kids):
            first = scopes[kids[0]]
            if any(scopes[child] != first for child in kids[1:]):
                report.violations.append(Violation(
                    "completeness", node=node,
                    message=f"sum node {node} has children with differing scopes",
                ))
    return report


ORPHANS = [Node("sum"), Node("product"), Node("one"), Node("part", part=0, positive=False)]


def mutate(rng, net):
    """`net` with one random structural or weight defect."""
    nodes = list(net.nodes)
    parent, child = net.edge_parent.tolist(), net.edge_child.tolist()
    weight, root = net.edge_weight.tolist(), net.root
    n, e = len(nodes), len(parent)
    is_sum = [nodes[p].kind == "sum" for p in parent]
    leaves = [i for i, nd in enumerate(nodes) if nd.kind in ("part", "spatial", "one")]
    kind = int(rng.integers(10))
    i = int(rng.integers(e))
    if kind == 0:  # drop an edge
        del parent[i], child[i], weight[i]
    elif kind in (1, 2, 3):  # add an edge, from anywhere or from a leaf, or a self-loop
        p = int(rng.integers(n)) if kind == 1 else int(rng.choice(leaves))
        c = p if kind == 3 else int(rng.integers(n))
        parent.append(p)
        child.append(c)
        weight.append(float(rng.random()) if nodes[p].kind == "sum" else math.nan)
    elif kind == 4:  # retarget an edge
        child[i] = int(rng.integers(n))
    elif kind == 5:  # a bad sum weight
        sums = [j for j in range(e) if is_sum[j]]
        weight[int(rng.choice(sums)) if sums else i] = float(rng.choice([-1.0, math.inf, math.nan]))
    elif kind == 6:  # a weight on a product edge
        products = [j for j in range(e) if not is_sum[j]]
        weight[int(rng.choice(products)) if products else i] = 0.5
    elif kind == 7:  # an orphan node
        nodes.append(ORPHANS[int(rng.integers(len(ORPHANS)))])
    else:  # move the root
        root = int(rng.integers(n))
    return Network(nodes, parent, child, weight, root)


def test_validate_matches_per_node_reference(rng):
    """Same violations, messages and order as the per-node loops, on valid
    networks and on up to three stacked random defects each."""
    presets = [net for net, _ in preset_networks()]
    cases = [random_network(rng, max_parts=6, max_pairs=3) for _ in range(40)] + presets
    for _ in range(600):
        net = random_network(rng, max_parts=6, max_pairs=3)
        for _ in range(int(rng.integers(1, 4))):
            net = mutate(rng, net)
        cases.append(net)
    cases += [mutate(rng, net) for net in presets[:4]]
    seen = set()
    for net in cases:
        want = reference_validate(net)
        assert validate(net).violations == want.violations
        seen |= want.kinds()
    assert seen == {"acyclicity", "reachability", "leaf-children", "childless-internal",
                    "weight", "decomposability", "completeness"}


def test_validate_peak_memory_is_bounded():
    ds = generate_synthetic(strip_grid_spec(n_strips=3, parts_per_strip=6, images_per_class=60),
                            np.random.default_rng(0))
    net = reference_flat_network(ds, ds.classes[0], StructureConfig(seed=0))
    tracemalloc.start()
    try:
        report = validate(net)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert net.num_edges > 25_000 and report.ok
    assert peak < 4e6  # the bit-packed scopes; a boolean matrix takes about 5.4 MB


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


@pytest.mark.parametrize("line", [
    "node 0 part -1 pos",
    "node 0 spatial -1 2 left",
    "node 0 spatial 1 -2 above",
    "node 0 spatial 1 1 left",  # would read part 2's columns
])
def test_bad_part_id_is_a_typed_error(line):
    with pytest.raises(ModelFormatError) as info:
        deserialize(f"spn-model v1\n{line}\nroot 0\n")
    assert info.value.line_no == 2


def test_builder_rejects_negative_part_ids():
    b = NetworkBuilder()
    with pytest.raises(ContractViolationError):
        b.part(-1, True)
    with pytest.raises(ContractViolationError):
        b.spatial((2, -1), Relation.LEFT_OF)
    assert b.part(0, True) == 0  # nothing was added


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
    [(0, 1), (1, 0), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)],  # cycle above a chain
])
def test_cycles_raise_cycle_error(edges):
    n = max(max(edge) for edge in edges) + 1
    nodes = [Node("product")] * (n - 1) + [Node("part", part=0, positive=True)]
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
    net = reference_flat_network(ds, ds.classes[0], StructureConfig(seed=0))
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


# ------------------------------------------- bulk load against the line parser


def reference_serialize(network):
    """The per-edge serializer the list-built edge block replaces."""
    lines = [f"spn-model v{network_module.FORMAT_VERSION}"]
    if network.class_label is not None:
        lines.append(f"class {network.class_label}")
    for nid, node in enumerate(network.nodes):
        if node.kind == "part":
            polarity = "pos" if node.positive else "neg"
            lines.append(f"node {nid} part {node.part} {polarity}")
        elif node.kind == "spatial":
            token = RELATION_TOKENS[node.relation]
            lines.append(f"node {nid} spatial {node.pair[0]} {node.pair[1]} {token}")
        else:
            lines.append(f"node {nid} {node.kind}")
    for edge in range(network.num_edges):
        parent = int(network.edge_parent[edge])
        child = int(network.edge_child[edge])
        if network.nodes[parent].kind == "sum":
            lines.append(f"edge {parent} {child} {network.edge_weight[edge]:.17g}")
        else:
            lines.append(f"edge {parent} {child}")
    lines.append(f"root {network.root}")
    for edge in sorted(network.shared_edges):
        lines.append(f"shared {edge}")
    for parent_rect, child_rects in network.partitions:
        children = " | ".join(" ".join(str(v) for v in r) for r in child_rects)
        lines.append(f"partition {' '.join(str(v) for v in parent_rect)} : {children}")
    return "\n".join(lines) + "\n"


def _ref_int(token, line_no, what):
    try:
        return int(token)
    except ValueError:
        raise ModelFormatError(line_no, f"bad {what} {token!r}") from None


def _ref_part_id(token, line_no):
    part = _ref_int(token, line_no, "part id")
    if part < 0:
        raise ModelFormatError(line_no, f"part id must be >= 0, got {part}")
    if part > 2 ** 31 - 1:
        raise ModelFormatError(line_no, f"part id must be <= {2 ** 31 - 1}, got {part}")
    return part


def _ref_rect(tokens, line_no):
    if len(tokens) != 4:
        raise ModelFormatError(line_no, f"rectangle needs 4 coordinates, got {len(tokens)}")
    try:
        return tuple(Fraction(t) for t in tokens)
    except (ValueError, ZeroDivisionError) as exc:
        raise ModelFormatError(line_no, f"bad rectangle coordinate: {exc}") from None


def reference_deserialize(text):
    """The line-by-line parser the bulk load replaces, with two changes: an
    out-of-range root or shared edge id names its own line, and a part id
    must fit the node arrays (at most 2**31 - 1)."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    lines = text.splitlines()
    if not lines:
        raise ModelFormatError(0, "empty model file")
    header = lines[0].split()
    if len(header) != 2 or header[0] != "spn-model":
        raise ModelFormatError(1, "expected 'spn-model v1' header")
    if header[1] != "v1":
        raise ModelFormatError(1, f"unsupported format version {header[1]!r}")

    nodes = {}
    edges = []
    root = None
    root_line = None
    class_label = None
    shared = {}  # edge id -> its first line
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
            nid = _ref_int(tokens[1], line_no, "node id")
            if nid in nodes:
                raise ModelFormatError(line_no, f"duplicate node id {nid}")
            kind = tokens[2]
            if kind in ("sum", "product", "one"):
                if len(tokens) != 3:
                    raise ModelFormatError(line_no, f"{kind} node takes no arguments")
                nodes[nid] = Node(kind)
            elif kind == "part":
                if len(tokens) != 5 or tokens[4] not in ("pos", "neg"):
                    raise ModelFormatError(line_no, "part node needs '<id> pos|neg'")
                nodes[nid] = Node("part", part=_ref_part_id(tokens[3], line_no),
                                  positive=tokens[4] == "pos")
            elif kind == "spatial":
                if len(tokens) != 6:
                    raise ModelFormatError(line_no, "spatial node needs '<a> <b> <relation>'")
                if tokens[5] not in TOKEN_RELATIONS:
                    raise ModelFormatError(line_no, f"unknown relation {tokens[5]!r}")
                pair = (_ref_part_id(tokens[3], line_no), _ref_part_id(tokens[4], line_no))
                if pair[0] >= pair[1]:
                    raise ModelFormatError(line_no, f"pair {pair} is not two canonically ordered parts")
                nodes[nid] = Node("spatial", pair=pair, relation=TOKEN_RELATIONS[tokens[5]])
            else:
                raise ModelFormatError(line_no, f"unknown node kind {kind!r}")
        elif tag == "edge":
            if len(tokens) not in (3, 4):
                raise ModelFormatError(line_no, "edge line needs parent, child and optional weight")
            parent = _ref_int(tokens[1], line_no, "edge endpoint")
            child = _ref_int(tokens[2], line_no, "edge endpoint")
            if parent not in nodes or child not in nodes:
                raise ModelFormatError(line_no, "edge refers to undeclared node")
            if nodes[parent].kind == "sum":
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
            root = _ref_int(tokens[1], line_no, "root id")
            root_line = line_no
        elif tag == "shared":
            if len(tokens) != 2:
                raise ModelFormatError(line_no, "shared line needs one edge id")
            shared.setdefault(_ref_int(tokens[1], line_no, "shared edge id"), line_no)
        elif tag == "partition":
            body = line[len("partition"):].strip()
            if ":" not in body:
                raise ModelFormatError(line_no, "partition line needs 'parent : children'")
            parent_part, child_part = body.split(":", 1)
            parent_rect = _ref_rect(parent_part.split(), line_no)
            child_rects = tuple(_ref_rect(chunk.split(), line_no)
                                for chunk in child_part.split("|"))
            partitions.append((parent_rect, child_rects))
        else:
            raise ModelFormatError(line_no, f"unknown line tag {tag!r}")

    if root is None:
        raise ModelFormatError(len(lines), "truncated model: missing root line")
    n = len(nodes)
    if sorted(nodes) != list(range(n)):
        raise ModelFormatError(len(lines), "node ids are not dense 0..n-1")
    if not (0 <= root < n):
        raise ModelFormatError(root_line, f"root {root} out of range")
    for edge_id, line_no in shared.items():
        if not (0 <= edge_id < len(edges)):
            raise ModelFormatError(line_no, f"shared edge id {edge_id} out of range")

    return Network(
        nodes=[nodes[i] for i in range(n)],
        edge_parent=[e[1] for e in edges],
        edge_child=[e[2] for e in edges],
        edge_weight=[e[3] for e in edges],
        root=root,
        class_label=class_label,
        shared_edges=set(shared),
        partitions=partitions,
    )


NODE_ARRAYS = ("node_kind", "node_part", "node_positive", "node_pair", "node_relation")


def assert_same_network(got, want):
    assert got.nodes == want.nodes
    assert got.root == want.root and got.class_label == want.class_label
    for name in NODE_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
    for name in ("edge_parent", "edge_child", "edge_weight"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert got.shared_edges == want.shared_edges
    assert got.partitions == want.partitions


def marked(net, rng, label):
    """`net` with a class label, some shared edges and two partitions."""
    net.class_label = label
    shared = rng.choice(net.num_edges, size=min(3, net.num_edges), replace=False)
    net.shared_edges = set(shared.tolist())
    half, third = Fraction(1, 2), Fraction(1, 3)
    whole = (Fraction(0), Fraction(0), Fraction(1), Fraction(1))
    net.partitions = [
        (whole, ((0, 0, half, 1), (half, 0, 1, 1))),
        ((0, 0, half, 1), ((0, 0, half, third), (0, third, half, 1))),
    ]
    return net


def trained_flat_networks():
    """Both class networks of an fs-spn bundle trained on 3x6 strips."""
    ds = generate_synthetic(strip_grid_spec(n_strips=3, parts_per_strip=6, images_per_class=12),
                            np.random.default_rng(3))
    bundle = train_all(ds, StructureConfig(seed=0), TrainConfig(
        seed=0, mode="fs-spn", generative_epochs=2, discriminative_epochs=1,
        max_pairs_per_epoch=50))
    return list(bundle.networks.values())


@pytest.mark.parametrize("block", [None, 32], ids=["one-block", "32-line-blocks"])
def test_bulk_load_matches_line_parser(rng, monkeypatch, block):
    if block:
        monkeypatch.setattr(network_module, "EDGE_PASS_ROWS", block)
    nets = [marked(random_network(rng), rng, f"c{i}") if i % 2 else random_network(rng)
            for i in range(30)]
    nets += [marked(random_network(rng), rng, "café"), marked(random_network(rng), rng, "日本")]
    nets += [net for net, _ in preset_networks()] + trained_flat_networks()

    def whole_file(text):
        raise AssertionError("a valid file in serialize's layout fell back to the line parser")

    line_read = network_module._LineParser.read

    def read(parser, line_no, raw):
        if raw.startswith("node "):
            raise AssertionError(f"canonical node line {line_no} reached the line parser")
        line_read(parser, line_no, raw)

    monkeypatch.setattr(network_module, "_parse_lines", whole_file)
    monkeypatch.setattr(network_module._LineParser, "read", read)
    for net in nets:
        text = reference_serialize(net)
        assert serialize(net) == text
        want = reference_deserialize(text)
        assert_same_network(deserialize(text), want)
        assert_same_network(deserialize(text.encode()), want)
        assert serialize(deserialize(text)) == text


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), max_parts=st.integers(1, 6),
       max_pairs=st.integers(0, 3), mark=st.booleans())
def test_deserialize_inverts_serialize(seed, max_parts, max_pairs, mark):
    rng = np.random.default_rng(seed)
    net = random_network(rng, max_parts=max_parts, max_pairs=max_pairs)
    if mark:
        net = marked(net, rng, f"c{seed % 5}")
    assert_same_network(deserialize(serialize(net)), net)


def test_loading_and_scoring_a_bundle_builds_no_node(tmp_path, monkeypatch):
    ds = generate_synthetic(strip_grid_spec(n_strips=3, parts_per_strip=6, images_per_class=12),
                            np.random.default_rng(3))
    bundle = train_all(ds, StructureConfig(seed=0), TrainConfig(
        seed=0, mode="fs-spn", generative_epochs=2, discriminative_epochs=1,
        max_pairs_per_epoch=50))
    save_bundle(bundle, tmp_path)
    want = evaluate_bundle(bundle, ds)
    built = []
    node_init, parse_node = Node.__init__, network_module._parse_node

    def counted_init(node, *args, **kwargs):
        built.append(args)
        node_init(node, *args, **kwargs)

    def counted_parse(*args):
        built.append(args)
        return parse_node(*args)

    monkeypatch.setattr(Node, "__init__", counted_init)
    monkeypatch.setattr(network_module, "_parse_node", counted_parse)
    got = evaluate_bundle(load_bundle(tmp_path), ds)
    assert built == []
    assert got == want
    Node("sum")  # the count does see a Node built
    assert len(built) == 1


def corrupt(lines, rng, n_nodes):
    """One seeded single-line corruption of a model file's lines; returns the
    new text and the name of the corruption."""
    lines = list(lines)
    edges = [i for i, line in enumerate(lines) if line.startswith("edge")]
    i = int(rng.choice(edges)) if edges and rng.random() < 0.7 else int(rng.integers(1, len(lines)))
    tokens = lines[i].split(" ")
    kind = str(rng.choice(["replace"] * 6 + ["add", "drop", "swap", "later node", "crlf",
                                                "cr line", "break", "insert", "spacing",
                                                "no final newline"]))
    if kind == "replace":
        j = int(rng.integers(1, len(tokens))) if len(tokens) > 1 else 0
        tokens[j] = str(rng.choice(["", "x", "-1", "+3", "007", "1_0", "1e3", "nan", "inf",
                                    "-inf", "1e999", "9" * 30, "999999999", "1234567890",
                                    str(n_nodes), str(n_nodes + 7), "0", "1", "0.25", "٣"]))
        lines[i] = " ".join(tokens)
    elif kind == "add":
        tokens.insert(int(rng.integers(1, len(tokens) + 1)), str(rng.choice(["1", "0.5", "x"])))
        lines[i] = " ".join(tokens)
    elif kind == "drop":
        del tokens[int(rng.integers(0, len(tokens)))]
        lines[i] = " ".join(tokens)
    elif kind == "swap":
        j = int(rng.integers(1, len(lines)))
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "later node" and edges:
        # move the declaration of an edge's child below that edge
        child = int(lines[int(rng.choice(edges))].split()[2])
        k = lines.index(next(line for line in lines if line.startswith(f"node {child} ")))
        lines.insert(int(rng.integers(k + 1, len(lines) + 1)), lines.pop(k))
    elif kind == "crlf":
        return "\r\n".join(lines) + "\r\n", kind
    elif kind == "no final newline":
        return "\n".join(lines[:i + 1]), kind
    elif kind == "cr line":
        lines[i] += "\r"
    elif kind == "break":
        # a line break of `str.splitlines` other than "\n" inside a line
        at = int(rng.integers(0, len(lines[i]) + 1))
        brk = str(rng.choice(list("\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029")))
        lines[i] = lines[i][:at] + brk + lines[i][at:]
    elif kind == "insert":
        lines.insert(i, str(rng.choice(["", "   ", "# a comment"])))
    elif kind == "spacing":
        lines[i] = str(rng.choice(["\t", "  "])).join(tokens) + str(rng.choice(["", " ", "\t"]))
    return "\n".join(lines) + "\n", kind


@pytest.mark.parametrize("block", [None, 32], ids=["one-block", "32-line-blocks"])
def test_bulk_load_keeps_the_line_parsers_errors(monkeypatch, block):
    if block:
        monkeypatch.setattr(network_module, "EDGE_PASS_ROWS", block)
    rng = np.random.default_rng(2024)
    bases = [marked(random_network(rng, max_parts=5, max_pairs=2), rng, "r") for _ in range(3)]
    bases += [net for net, _ in preset_networks()[:3]]
    outcomes = {"loaded": 0, "raised": 0}
    kinds = set()
    for case in range(750):
        net = bases[case % len(bases)]
        text, kind = corrupt(serialize(net).splitlines(), rng, net.num_nodes)
        if case >= 600:  # a second corruption: the first error must win across lanes
            text, kind = corrupt(text.splitlines(), rng, net.num_nodes)
        kinds.add(kind)
        try:
            want = reference_deserialize(text)
        except ModelFormatError as expected:
            with pytest.raises(ModelFormatError) as info:
                deserialize(text)
            assert (info.value.line_no, str(info.value)) == (expected.line_no, str(expected)), kind
            outcomes["raised"] += 1
        else:
            assert_same_network(deserialize(text), want)
            outcomes["loaded"] += 1
    assert len(kinds) == 11
    assert min(outcomes.values()) > 50, outcomes


NODE_CORRUPTIONS = ("lefty", "Left", "no relation", "posx", "neg ", "spatial 3 3", "spatial 4 2",
                    "-1", "007", "+3", "\u0663", "duplicate id", "id gap", "ids out of order",
                    "node after an edge")


def corrupt_node_line(lines, rng):
    """One seeded corruption of a model file's node lines (the file holds
    part and spatial nodes), with node-specific tokens; returns the new
    lines and the name of the corruption."""
    lines = list(lines)
    nodes = [i for i, line in enumerate(lines) if line.startswith("node ")]
    kind = str(rng.choice(NODE_CORRUPTIONS))

    def pick(*kinds):
        return int(rng.choice([i for i in nodes if lines[i].split(" ")[2] in kinds]))

    if kind in ("lefty", "Left", "no relation"):
        i = pick("spatial")
        tokens = lines[i].split(" ")
        tokens[5] = "" if kind == "no relation" else kind
    elif kind in ("posx", "neg "):
        i = pick("part")
        tokens = lines[i].split(" ")
        tokens[4] = kind
    elif kind.startswith("spatial "):
        i = pick("spatial")
        tokens = lines[i].split(" ")
        tokens[3:5] = kind.split(" ")[1:]
    elif kind in ("-1", "007", "+3", "\u0663"):
        i = pick("part", "spatial")
        tokens = lines[i].split(" ")
        tokens[3 if tokens[2] == "part" else int(rng.integers(3, 5))] = kind
    elif kind == "duplicate id":
        i, j = (int(k) for k in rng.choice(nodes, size=2, replace=False))
        tokens = lines[i].split(" ")
        tokens[1] = lines[j].split(" ")[1]
    elif kind == "id gap":
        i = int(rng.choice(nodes))
        tokens = lines[i].split(" ")
        tokens[1] = str(len(nodes) + int(rng.integers(0, 3)))
    elif kind == "ids out of order":
        i, j = (int(k) for k in rng.choice(nodes, size=2, replace=False))
        lines[i], lines[j] = lines[j], lines[i]
        return lines, kind
    else:  # a node line moved below the first edge line
        first_edge = next(k for k, line in enumerate(lines) if line.startswith("edge "))
        at = int(rng.integers(first_edge + 1, len(lines) + 1))
        i = int(rng.choice(nodes))
        lines.insert(at, lines[i])
        del lines[i]
        return lines, kind
    lines[i] = " ".join(tokens)
    return lines, kind


@pytest.mark.parametrize("block", [None, 32], ids=["one-block", "32-line-blocks"])
def test_bulk_load_keeps_the_line_parsers_node_errors(monkeypatch, block):
    if block:
        monkeypatch.setattr(network_module, "EDGE_PASS_ROWS", block)
    rng = np.random.default_rng(2025)
    candidates = [marked(random_network(rng, max_parts=5, max_pairs=2), rng, "r") for _ in range(8)]
    bases = [net for net in candidates if net.pair_universe][:3]
    bases += [net for net, _ in preset_networks()[:3]]
    assert len(bases) == 6
    outcomes = {"loaded": 0, "raised": 0}
    kinds = set()
    for case in range(600):
        net = bases[case % len(bases)]
        lines, kind = corrupt_node_line(serialize(net).splitlines(), rng)
        if case >= 480:  # a second corruption: the first error must win across lanes
            lines, kind = corrupt_node_line(lines, rng)
        text = "\n".join(lines) + "\n"
        kinds.add(kind)
        try:
            want = reference_deserialize(text)
        except ModelFormatError as expected:
            with pytest.raises(ModelFormatError) as info:
                deserialize(text)
            assert (info.value.line_no, str(info.value)) == (expected.line_no, str(expected)), kind
            outcomes["raised"] += 1
        else:
            assert_same_network(deserialize(text), want)
            outcomes["loaded"] += 1
    assert len(kinds) == len(NODE_CORRUPTIONS)
    assert min(outcomes.values()) > 50, outcomes


@pytest.mark.parametrize("body, line_no", [
    ("node 0 sum\nnode 1 part 0 pos\nedge 0 1 1\nroot 7\n", 5),
    ("node 0 sum\nnode 1 part 0 pos\nroot 9\nedge 0 1 1\nroot 7\n# end\n", 6),
    ("node 0 sum\nnode 1 part 0 pos\nedge 0 1 1\nroot 0\nshared 0\nshared 4\nshared 0\n", 7),
    ("node 0 sum\nnode 1 part 0 pos\nedge 0 1 1\nroot 0\nshared 3\nshared 0\nshared 3\n", 6),
])
def test_out_of_range_ids_name_their_line(body, line_no):
    text = "spn-model v1\n" + body
    for parse in (deserialize, reference_deserialize):
        with pytest.raises(ModelFormatError, match="out of range") as info:
            parse(text)
        assert info.value.line_no == line_no


def test_non_utf8_model_names_the_line_of_the_bad_byte():
    data = b"spn-model v1\nclass caf\xc3\xa9\nnode 0 one\nclass \xff\nroot 0\n"
    with pytest.raises(ModelFormatError, match="UTF-8") as info:
        deserialize(data)
    assert info.value.line_no == 4
    assert deserialize(data.replace(b"\xff", b"x")).class_label == "x"


def test_bulk_load_peak_memory_is_bounded():
    ds = generate_synthetic(strip_grid_spec(n_strips=3, parts_per_strip=6, images_per_class=60),
                            np.random.default_rng(0))
    net = reference_flat_network(ds, ds.classes[0], StructureConfig(seed=0))
    text = serialize(net)
    tracemalloc.start()
    try:
        back = deserialize(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert net.num_edges > 25_000 and back.num_edges == net.num_edges
    assert peak < 9e6  # the line parser's peak is about 8.5 MB
