import numpy as np
import pytest

from spatialspn.errors import SizeGuardError
from spatialspn.inference import mpe
from spatialspn.network import IndicatorValues, Network, evaluate
from spatialspn.oracle import (
    PAIR_STATES,
    CompletionSpace,
    brute_force_marginal,
    brute_force_mpe,
    finite_difference_gradient,
    gradient_fixture,
    gradients_match,
    random_evidence,
    random_network,
    reference_network,
)

from conftest import one_hot


def test_reference_marginal_value(ref_net):
    assert brute_force_marginal(ref_net, one_hot(True, False)) == pytest.approx(
        0.12, abs=1e-12
    )


def test_total_mass_of_normalized_network(ref_net):
    full = IndicatorValues(parts={0: (1.0, 1.0), 1: (1.0, 1.0)})
    assert brute_force_marginal(ref_net, full) == pytest.approx(1.0, abs=1e-12)


def test_pair_states_are_the_nine_realizable_ones():
    assert len(PAIR_STATES) == 9
    assert len(set(PAIR_STATES)) == 9
    for left, right, above, below in PAIR_STATES:
        assert not (left and right)
        assert not (above and below)


def test_reference_mpe_value_and_assignment(ref_net):
    evidence = IndicatorValues(parts={0: (1.0, 0.0), 1: (1.0, 1.0)})
    assignment, value = brute_force_mpe(ref_net, evidence)
    assert value == pytest.approx(0.192, abs=1e-12)
    assert assignment.parts[1] == (1.0, 0.0)


def test_fully_specified_evidence_is_returned(ref_net):
    evidence = one_hot(False, True)
    assignment, value = brute_force_mpe(ref_net, evidence)
    assert assignment.parts == evidence.parts
    assert value == pytest.approx(
        max(0.8 * 0.7 * 0.8, 0.2 * 0.6 * 0.1), abs=1e-12
    )


def test_size_guard():
    from spatialspn.network import NetworkBuilder

    b = NetworkBuilder()
    prod = b.product()
    for part in range(11):
        s = b.sum()
        b.edge(s, b.part(part, True), 0.5)
        b.edge(s, b.part(part, False), 0.5)
        b.edge(prod, s)
    net = b.build(root=prod)
    evidence = IndicatorValues(parts={p: (1.0, 1.0) for p in range(11)})
    with pytest.raises(SizeGuardError):
        brute_force_marginal(net, evidence)


def test_oracle_requires_binary_evidence(ref_net):
    evidence = IndicatorValues(parts={0: (0.5, 0.5), 1: (1.0, 0.0)})
    with pytest.raises(SizeGuardError):
        brute_force_marginal(ref_net, evidence)


def test_oracle_independent_of_node_order(ref_net, rng):
    net = random_network(rng)
    evidence = random_evidence(rng, net)
    expected = brute_force_marginal(net, evidence)

    # rebuild with a permuted node numbering; same graph, same marginal
    perm = rng.permutation(net.num_nodes)
    inverse = np.empty_like(perm)
    inverse[perm] = np.arange(net.num_nodes)
    permuted = Network(
        nodes=[net.nodes[int(perm[i])] for i in range(net.num_nodes)],
        edge_parent=inverse[net.edge_parent],
        edge_child=inverse[net.edge_child],
        edge_weight=net.edge_weight.copy(),
        root=int(inverse[net.root]),
    )
    assert brute_force_marginal(permuted, evidence) == pytest.approx(expected, rel=1e-12)


def test_completion_space_size(ref_net):
    full = IndicatorValues(parts={0: (1.0, 1.0), 1: (1.0, 0.0)})
    space = CompletionSpace.consistent_with(ref_net, full)
    assert space.size == 2  # part 0 is free, part 1 pinned


# ------------------------------------------------------------- gradients


def test_edge_outside_both_trees_has_zero_gradient(rng):
    net, ev_m, ev_n = gradient_fixture(rng)
    res_m = mpe(net, ev_m)
    res_n = mpe(net, ev_n)
    outside = [
        e
        for e in range(net.num_edges)
        if net.nodes[int(net.edge_parent[e])].kind == "sum"
        and res_m.edge_counts[e] == 0
        and res_n.edge_counts[e] == 0
    ]
    assert outside, "fixture should have untraversed sum edges"
    fd = finite_difference_gradient(net, (ev_m, ev_n), outside[0])
    assert fd == pytest.approx(0.0, abs=1e-8)


def test_single_sided_edge_gradient_is_one_over_weight():
    # an edge with weight 0.5 traversed once only in the positive tree
    from spatialspn.network import NetworkBuilder

    b = NetworkBuilder()
    s = b.sum()
    b.edge(s, b.part(0, True), 0.5)
    b.edge(s, b.part(0, False), 0.5)
    net = b.build(root=s)
    ev_m = IndicatorValues(parts={0: (1.0, 0.0)})
    ev_n = IndicatorValues(parts={0: (0.0, 1.0)})
    edge_pos = int(net.child_edges(s)[0])
    fd = finite_difference_gradient(net, (ev_m, ev_n), edge_pos)
    assert fd == pytest.approx(2.0, rel=1e-4)


def test_gradients_match_fd_on_random_fixtures(rng):
    checked = 0
    for _ in range(10):
        net, ev_m, ev_n = gradient_fixture(rng)
        res_m = mpe(net, ev_m)
        res_n = mpe(net, ev_n)
        for edge in range(net.num_edges):
            if net.nodes[int(net.edge_parent[edge])].kind != "sum":
                continue
            dt = int(res_m.edge_counts[edge]) - int(res_n.edge_counts[edge])
            analytic = dt / float(net.edge_weight[edge])
            fd = finite_difference_gradient(net, (ev_m, ev_n), edge)
            if fd is None:
                continue
            checked += 1
            assert gradients_match(analytic, fd), (analytic, fd)
    assert checked > 20


def test_fd_leaves_weights_untouched(rng):
    net, ev_m, ev_n = gradient_fixture(rng)
    before = net.edge_weight.copy()
    for edge in range(min(net.num_edges, 5)):
        if net.nodes[int(net.edge_parent[edge])].kind == "sum":
            finite_difference_gradient(net, (ev_m, ev_n), edge)
    mask = ~np.isnan(before)
    assert np.array_equal(net.edge_weight[mask], before[mask])
