import math
import re

import numpy as np
import pytest

from spatialspn.data import Detection, ImageRecord
from spatialspn.errors import (
    DegenerateNodeError,
    IncompleteEvidenceError,
    MalformedRecordError,
    ModelFormatError,
)
from spatialspn.network import (
    IndicatorValues,
    NetworkBuilder,
    _leaf_log_values,
    assignment_to_indicators,
    deserialize,
    evaluate,
    indicators_for_network,
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
        got = _leaf_log_values(net, evidence)
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


def test_indicators_for_network_covers_exactly_the_universe(ref_net):
    image = _image([(0, 5.0, 5.0)])
    values = indicators_for_network(ref_net, image)
    assert set(values.parts) == set(ref_net.part_universe)
    assert set(values.pairs) == set(ref_net.pair_universe)
