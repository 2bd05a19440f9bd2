import numpy as np
import pytest

from spatialspn.errors import ContractViolationError, TraversalMismatchError
from spatialspn.inference import _backtrack, mpe, traversal_difference
from spatialspn.network import (
    IndicatorValues,
    NetworkBuilder,
    evaluate,
    max_evaluate,
    normalize_weights,
)
from spatialspn.oracle import brute_force_mpe, random_evidence, random_network
from spatialspn.spatial import Relation

from conftest import one_hot


def marginalized_second():
    return IndicatorValues(parts={0: (1.0, 0.0), 1: (1.0, 1.0)})


def test_reference_max_value(ref_net):
    # max(0.8*0.3*0.8, 0.2*0.4*0.9) = 0.192 with part 1 marginalized
    assert max_evaluate(ref_net, marginalized_second()).root_value == pytest.approx(
        0.192, abs=1e-12
    )


def test_no_sum_network_max_equals_sum():
    b = NetworkBuilder()
    prod = b.product()
    b.edge(prod, b.part(0, True))
    b.edge(prod, b.part(1, False))
    net = b.build(root=prod)
    values = one_hot(True, False)
    assert max_evaluate(net, values).root_value == evaluate(net, values).root_value


def test_mpe_infers_second_part_present(ref_net):
    result = mpe(ref_net, marginalized_second(), query=[("part", 1)])
    assert result.assignment.parts[1] == (1.0, 0.0)
    assert result.root_value == pytest.approx(0.192, abs=1e-12)
    assert not result.unconstrained


def test_mpe_with_full_evidence_returns_evidence(ref_net):
    evidence = one_hot(True, False)
    result = mpe(ref_net, evidence, query=())
    assert result.assignment.parts == evidence.parts


def test_mpe_requires_marginalized_query(ref_net):
    with pytest.raises(ContractViolationError):
        mpe(ref_net, one_hot(True, False), query=[("part", 1)])


def test_mpe_matches_brute_force(rng):
    for _ in range(30):
        net = random_network(rng)
        evidence = random_evidence(rng, net)
        result = mpe(net, evidence)
        _, best = brute_force_mpe(net, evidence)
        assert result.root_value == pytest.approx(best, rel=1e-12, abs=1e-300)


def test_mpe_self_consistency(rng):
    # re-evaluating the completed assignment reproduces the max root value
    for _ in range(30):
        net = random_network(rng)
        evidence = random_evidence(rng, net)
        query = [("part", p) for p in net.part_universe if evidence.is_part_marginalized(p)]
        query += [("pair", q) for q in net.pair_universe if evidence.is_pair_marginalized(q)]
        result = mpe(net, evidence, query=query)
        redo = max_evaluate(net, result.assignment).root_value
        assert redo == pytest.approx(result.root_value, rel=1e-12, abs=1e-300)


def test_max_root_dominated_by_sum_root(rng):
    for _ in range(20):
        net = random_network(rng, normalized=True)
        normalize_weights(net)
        evidence = random_evidence(rng, net)
        assert (
            max_evaluate(net, evidence).root_value
            <= evaluate(net, evidence).root_value + 1e-15
        )


def test_traversal_counts_conserve_flow(rng):
    for _ in range(20):
        net = random_network(rng)
        evidence = random_evidence(rng, net)
        result = mpe(net, evidence)
        counts = result.traversal.counts
        node_in = np.zeros(net.num_nodes, dtype=np.int64)
        node_in[net.root] = 1
        for edge in np.flatnonzero(counts):
            node_in[net.edge_child[edge]] += counts[edge]
        for node in range(net.num_nodes):
            if net.nodes[node].kind != "sum" or node_in[node] == 0:
                continue
            out = counts[net.child_edges(node)].sum()
            assert out == node_in[node]


def test_traversal_difference_zero_for_identical_trees(ref_net):
    evidence = one_hot(True, False)
    a = mpe(ref_net, evidence).traversal
    b = mpe(ref_net, evidence).traversal
    assert traversal_difference(a, b) == {}


def test_traversal_difference_signs(ref_net):
    pos = mpe(ref_net, one_hot(True, True)).traversal
    neg = mpe(ref_net, one_hot(False, False)).traversal
    delta = traversal_difference(pos, neg)
    assert delta  # trees differ
    assert any(v == 1 for v in delta.values())
    assert any(v == -1 for v in delta.values())


def test_traversal_difference_rejects_mismatched_networks(ref_net, rng):
    other = random_network(rng)
    a = mpe(ref_net, one_hot(True, False)).traversal
    b = mpe(other, random_evidence(rng, other)).traversal
    with pytest.raises(TraversalMismatchError):
        traversal_difference(a, b)


def test_unconstrained_query_flagged():
    # part 1 has no leaf in this network, so the query is never touched
    b = NetworkBuilder()
    s = b.sum()
    b.edge(s, b.part(0, True), 0.7)
    b.edge(s, b.part(0, False), 0.3)
    net = b.build(root=s)
    evidence = IndicatorValues(parts={0: (1.0, 0.0), 1: (1.0, 1.0)})
    result = mpe(net, evidence, query=[("part", 1)])
    assert ("part", 1) in result.unconstrained
    assert result.assignment.parts[1] == (1.0, 0.0)  # default positive


def reference_query_resolution(network, evidence, query):
    """Per-leaf hit counting: most hits wins, ties go to the positive
    polarity or the lowest relation; a variable never hit is unconstrained."""
    node_counts, _ = _backtrack(network, max_evaluate(network, evidence).log_values)
    part_hits, pair_hits = {}, {}
    for nid, nd in enumerate(network.nodes):
        count = int(node_counts[nid])
        if count and nd.kind == "part":
            hits = part_hits.setdefault(nd.part, {})
            hits[nd.positive] = hits.get(nd.positive, 0) + count
        elif count and nd.kind == "spatial":
            hits = pair_hits.setdefault(nd.pair, {})
            hits[nd.relation] = hits.get(nd.relation, 0) + count
    assignment = evidence.copy()
    unconstrained = set()
    for kind, key in query:
        if kind == "part":
            hits = part_hits.get(key)
            if not hits:
                unconstrained.add((kind, key))
            assignment.set_part(key, not hits or hits.get(True, 0) >= hits.get(False, 0))
        else:
            hits = pair_hits.get(key)
            values = [0.0, 0.0, 0.0, 0.0]
            if hits:
                values[int(max(hits.items(), key=lambda kv: (kv[1], -int(kv[0])))[0])] = 1.0
            else:
                unconstrained.add((kind, key))
            assignment.set_pair(key, values)
    return assignment, unconstrained


def tied_leaves_network():
    # one product reaches both polarities of part 0 and two relations of a pair
    b = NetworkBuilder()
    root = b.product()
    b.edge(root, b.part(0, True))
    b.edge(root, b.part(0, False))
    b.edge(root, b.spatial((1, 2), Relation.ABOVE))
    b.edge(root, b.spatial((1, 2), Relation.RIGHT_OF))
    return b.build(root=root)


def test_mpe_query_resolution_matches_hit_rule(rng):
    cases = []
    for _ in range(60):
        net = random_network(rng, max_parts=5, max_pairs=2)
        evidence = random_evidence(rng, net, marginal_rate=0.0)
        variables = net.variables()
        picked = rng.choice(len(variables), size=int(rng.integers(1, len(variables) + 1)),
                            replace=False)
        cases.append((net, evidence, [variables[int(i)] for i in picked]))
    cases.append((tied_leaves_network(), IndicatorValues(), [("part", 0), ("pair", (1, 2))]))
    for net, evidence, query in cases:
        query = query + [("part", 99), ("pair", (97, 98))]  # not in the network
        for kind, key in query:
            if kind == "part":
                evidence.marginalize_part(key)
            else:
                evidence.marginalize_pair(key)
        result = mpe(net, evidence, query)
        assignment, unconstrained = reference_query_resolution(net, evidence, query)
        assert result.assignment.parts == assignment.parts
        assert result.assignment.pairs == assignment.pairs
        assert result.unconstrained == unconstrained
    evidence = IndicatorValues(parts={0: (1.0, 1.0)}, pairs={(1, 2): (1.0, 1.0, 1.0, 1.0)})
    result = mpe(tied_leaves_network(), evidence, [("part", 0), ("pair", (1, 2))])
    assert result.assignment.parts[0] == (1.0, 0.0)
    assert result.assignment.pairs[(1, 2)] == (0.0, 1.0, 0.0, 0.0)


def test_multi_parent_counts_multiply():
    # two products share the same child sum; counts accumulate per visit
    b = NetworkBuilder()
    root = b.sum()
    shared = b.sum()
    b.edge(shared, b.part(0, True), 0.6)
    b.edge(shared, b.part(0, False), 0.4)
    top = b.product()
    mid = b.sum()
    b.edge(mid, shared, 1.0)
    b.edge(top, mid)
    b.edge(root, top, 1.0)
    net = b.build(root=root)
    evidence = IndicatorValues(parts={0: (1.0, 0.0)})
    result = mpe(net, evidence)
    # the winning leaf edge is traversed exactly once along the chain
    leaf_edges = [e for e in range(net.num_edges) if net.edge_parent[e] == shared]
    assert result.traversal.counts[leaf_edges].sum() == 1
