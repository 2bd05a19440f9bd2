import tracemalloc

import numpy as np
import pytest

import spatialspn.inference as inference_module
from spatialspn.data import generate_synthetic, strip_grid_spec
from spatialspn.errors import ContractViolationError, DegenerateNodeError
from spatialspn.inference import TIE_TOLERANCE, _backtrack, mpe
from spatialspn.network import (
    IndicatorValues,
    NetworkBuilder,
    _forward,
    encode_records,
    evaluate,
    max_evaluate,
    normalize_weights,
)
from spatialspn.oracle import brute_force_mpe, random_evidence, random_network
from spatialspn.spatial import Relation
from spatialspn.structure import StructureConfig

from conftest import chain_network, one_hot, reference_flat_network
from test_network import preset_networks, random_records


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
        counts = result.edge_counts
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
    a = mpe(ref_net, evidence).edge_counts
    b = mpe(ref_net, evidence).edge_counts
    assert not (a - b).any()


def test_traversal_difference_signs(ref_net):
    pos = mpe(ref_net, one_hot(True, True)).edge_counts
    neg = mpe(ref_net, one_hot(False, False)).edge_counts
    delta = pos - neg
    assert delta.any()  # trees differ
    assert (delta == 1).any()
    assert (delta == -1).any()


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
    node_counts, _ = _backtrack(network, max_evaluate(network, evidence).log_values[None])
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
    assert result.edge_counts[leaf_edges].sum() == 1


# ------------------------------------------------------ level-wise backtrack


def reference_backtrack(network, log_values):
    """One row of max-pass log values at a time: the per-node loop over the
    reversed topological order."""
    with np.errstate(divide="ignore"):
        logw = np.log(network.edge_weight)
    node_counts = np.zeros(network.num_nodes, dtype=np.int64)
    edge_counts = np.zeros(network.num_edges, dtype=np.int64)
    node_counts[network.root] = 1
    for node in network.topological_order()[::-1]:
        count = node_counts[node]
        if count == 0:
            continue
        edges = network.child_edges(int(node))
        if network.nodes[node].kind == "product":
            edge_counts[edges] += count
            np.add.at(node_counts, network.edge_child[edges], count)
        elif network.nodes[node].kind == "sum":
            scores = logw[edges] + log_values[network.edge_child[edges]]
            candidates = edges[scores >= scores.max() - TIE_TOLERANCE]
            chosen = candidates[np.argmin(network.edge_child[candidates])]
            edge_counts[chosen] += count
            node_counts[network.edge_child[chosen]] += count
    return node_counts, edge_counts


def random_dag(rng, leaves=5, internal=12):
    """A DAG of part leaves and sum/product nodes whose children are drawn
    with replacement from every earlier node: shared nodes, duplicate edges
    to one child and zero weights all occur. It need not be a valid SPN."""
    b = NetworkBuilder()
    nodes = [b.part(int(p), bool(rng.integers(2))) for p in rng.permutation(leaves)]
    for _ in range(internal):
        is_sum = rng.random() < 0.6
        node = b.sum() if is_sum else b.product()
        for child in rng.choice(nodes, size=int(rng.integers(1, 5))):
            b.edge(node, int(child), float(rng.choice([0.0, 0.5, 1.0])) if is_sum else None)
        nodes.append(node)
    return b.build(root=nodes[-1])


def tie_prone_values(rng, network, rows):
    """Log values drawn from a few levels that sit at, just beyond and far
    beyond TIE_TOLERANCE of each other, with -inf for dead children."""
    levels = [0.0, -TIE_TOLERANCE, -TIE_TOLERANCE * 1.5, -2 * TIE_TOLERANCE, -1.0, -np.inf]
    return rng.choice(levels, size=(rows, network.num_nodes))


def backtrack_cases(rng):
    cases = []
    for _ in range(20):
        net = random_network(rng, max_parts=6, max_pairs=3)
        evidence = encode_records(random_records(rng, 7, net.part_span), net.part_span)
        cases.append((net, _forward(net, evidence, "max")))
    for net, records in preset_networks():
        cases.append((net, _forward(net, encode_records(records[:9], net.part_span), "max")))
    for _ in range(40):
        net = random_dag(rng)
        cases.append((net, tie_prone_values(rng, net, 7)))
    return cases


def test_backtrack_matches_per_node_reference(rng, monkeypatch):
    for net, log_values in backtrack_cases(rng):
        want = [reference_backtrack(net, row) for row in log_values]
        for i, (nodes, edges) in enumerate(want):
            got = _backtrack(net, log_values[i:i + 1])
            assert np.array_equal(got[0], nodes) and np.array_equal(got[1], edges)
        # B=N, each root weighted; three rows per block splits the last block
        weights = rng.integers(-3, 4, size=len(log_values))
        summed = (sum(w * nodes for w, (nodes, _) in zip(weights, want)),
                  sum(w * edges for w, (_, edges) in zip(weights, want)))
        for block_rows in (None, 3):
            if block_rows:
                monkeypatch.setattr(inference_module, "ROW_BLOCK_ELEMENTS",
                                    block_rows * max(1, net.num_edges))
            got = _backtrack(net, log_values, weights)
            assert got[0].dtype == got[1].dtype == np.int64
            assert np.array_equal(got[0], summed[0]) and np.array_equal(got[1], summed[1])
            monkeypatch.undo()
        unweighted = _backtrack(net, log_values)
        assert np.array_equal(unweighted[1], sum(edges for _, edges in want))


def two_leaf_sum():
    b = NetworkBuilder()
    root = b.sum()
    low, high = b.part(0, True), b.part(0, False)
    b.edge(root, high, 1.0)
    b.edge(root, low, 1.0)
    return b.build(root=root), low, high


@pytest.mark.parametrize("gap, winner", [
    (0.0, "low"),
    (TIE_TOLERANCE, "low"),  # at the tolerance: a tie, the lower child id wins
    (TIE_TOLERANCE * 1.5, "high"),  # just beyond it: the best score wins
])
def test_backtrack_tie_tolerance(gap, winner):
    net, low, high = two_leaf_sum()
    log_values = np.zeros((1, net.num_nodes))
    log_values[0, low] = -gap
    nodes, edges = _backtrack(net, log_values)
    chosen = {"low": low, "high": high}[winner]
    assert nodes[chosen] == 1 and nodes[low + high - chosen] == 0
    assert edges.tolist() == [int(chosen == high), int(chosen == low)]
    ref = reference_backtrack(net, log_values[0])
    assert np.array_equal(nodes, ref[0]) and np.array_equal(edges, ref[1])


def test_backtrack_duplicate_edges_and_shared_nodes():
    b = NetworkBuilder()
    root = b.product()
    shared = b.sum()
    leaf = b.part(0, True)
    b.edge(shared, leaf, 0.5)
    b.edge(shared, leaf, 0.5)  # a duplicate edge to the same child: the first wins
    b.edge(shared, b.part(0, False), 0.5)
    left, right = b.product(), b.product()
    for parent in (left, right, root):
        b.edge(parent, shared)
    b.edge(root, left)
    b.edge(root, right)
    net = b.build(root=root)
    log_values = np.zeros((2, net.num_nodes))
    log_values[:, 3] = -np.inf  # the negative leaf is dead
    nodes, edges = _backtrack(net, log_values)
    assert nodes[shared] == 2 * 3  # reached from root, left and right in both rows
    assert edges[:3].tolist() == [6, 0, 0]
    for row in log_values:
        ref = reference_backtrack(net, row)
        assert np.array_equal(ref[1] * 2, edges)


def test_backtrack_dead_segment_follows_lowest_child():
    net, low, high = two_leaf_sum()
    log_values = np.full((1, net.num_nodes), -np.inf)
    nodes, edges = _backtrack(net, log_values)
    assert nodes[low] == 1 and edges.tolist() == [0, 1]


def test_mpe_raises_typed_error_on_nan_score():
    net, mid = chain_network()
    net.edge_weight[net.child_edges(mid)] = np.nan
    with pytest.raises(DegenerateNodeError, match=r"max node \d+"):
        mpe(net, one_hot(True, False))
    # a NaN below a node no row reaches is never consulted
    b = NetworkBuilder()
    root = b.sum()
    b.edge(root, b.part(0, True), 1.0)
    orphan = b.sum()
    b.edge(orphan, b.part(0, False), 1.0)
    net = b.build(root=root)
    net.edge_weight[net.child_edges(orphan)] = np.nan
    assert mpe(net, one_hot(True, False)).edge_counts.tolist() == [1, 0]


def test_batched_backtrack_peak_memory_is_bounded():
    ds = generate_synthetic(strip_grid_spec(n_strips=3, parts_per_strip=6, images_per_class=60),
                            np.random.default_rng(0))
    net = reference_flat_network(ds, ds.classes[0], StructureConfig(seed=0))
    log_values = _forward(net, encode_records(ds.records[:120], ds.vocabulary_size), "max")
    _backtrack(net, log_values[:1])  # compile the plan outside the trace
    tracemalloc.start()
    try:
        _backtrack(net, log_values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert net.num_edges > 25_000 and len(log_values) == 120
    assert peak < 8e6
