"""The oracle verification suite behind `spatialspn verify`.

Each check compares a fast-path result against an independent reference:
hand-computed fixture values, exhaustive enumeration, finite differences, or
naive recomputation. Tolerances are fixed here, not configurable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clustering import Cluster, FeatureVector, agglomerate, average_link
from .inference import mpe
from .network import SUM, IndicatorValues, evaluate, max_evaluate, validate
from .oracle import (
    REFERENCE_JOINT_VALUE,
    REFERENCE_MPE_BRANCHES,
    brute_force_marginal,
    brute_force_mpe,
    finite_difference_gradient,
    gradient_fixture,
    gradients_match,
    random_evidence,
    random_network,
    reference_network,
)
from .spatial import Location, compute_relations


@dataclass
class Check:
    name: str
    expected: str
    got: str
    tolerance: str
    passed: bool


def _close(a, b, rel=0.0, abs_tol=0.0) -> bool:
    return abs(a - b) <= max(abs_tol, rel * max(abs(a), abs(b)))


def run_verification(seed: int = 0, perturb_fixture: bool = False) -> list[Check]:
    checks: list[Check] = []

    net = reference_network()
    if perturb_fixture:
        edges = net.child_edges(net.root)
        net.edge_weight[edges[0]] += 0.01

    report = validate(net)
    checks.append(Check("fixture-valid", "valid", str(report), "exact", report.ok))

    ev = IndicatorValues(parts={0: (1.0, 0.0), 1: (0.0, 1.0)})
    got = evaluate(net, ev).root_value
    checks.append(Check(
        "fixture-joint-value", f"{REFERENCE_JOINT_VALUE}", f"{got:.17g}", "1e-12 abs",
        _close(got, REFERENCE_JOINT_VALUE, abs_tol=1e-12),
    ))

    oracle_value = brute_force_marginal(net, ev)
    checks.append(Check(
        "fixture-brute-marginal", f"{REFERENCE_JOINT_VALUE}", f"{oracle_value:.17g}", "1e-12 abs",
        _close(oracle_value, REFERENCE_JOINT_VALUE, abs_tol=1e-12),
    ))

    full = IndicatorValues(parts={0: (1.0, 1.0), 1: (1.0, 1.0)})
    total = brute_force_marginal(net, full)
    checks.append(Check(
        "fixture-total-mass", "1", f"{total:.17g}", "1e-12 abs",
        _close(total, 1.0, abs_tol=1e-12),
    ))

    query_ev = IndicatorValues(parts={0: (1.0, 0.0), 1: (1.0, 1.0)})
    result = mpe(net, query_ev, query=[("part", 1)])
    hi, lo = REFERENCE_MPE_BRANCHES
    checks.append(Check(
        "fixture-mpe-value", f"{hi}", f"{result.root_value:.17g}", "1e-12 abs",
        _close(result.root_value, hi, abs_tol=1e-12),
    ))
    inferred_present = result.assignment.parts.get(1) == (1.0, 0.0)
    checks.append(Check(
        "fixture-mpe-assignment", "part 1 present",
        "present" if inferred_present else "absent", "exact", inferred_present,
    ))
    state_hi = IndicatorValues(parts={0: (1.0, 0.0), 1: (1.0, 0.0)})
    state_lo = IndicatorValues(parts={0: (1.0, 0.0), 1: (0.0, 1.0)})
    branch_hi = max_evaluate(net, state_hi).root_value
    branch_lo = max_evaluate(net, state_lo).root_value
    checks.append(Check(
        "fixture-mpe-branches", f"{hi} vs {lo}", f"{branch_hi:.17g} vs {branch_lo:.17g}",
        "1e-12 abs",
        _close(branch_hi, hi, abs_tol=1e-12) and _close(branch_lo, lo, abs_tol=1e-12),
    ))
    _, brute_value = brute_force_mpe(net, query_ev)
    checks.append(Check(
        "fixture-brute-mpe", f"{hi}", f"{brute_value:.17g}", "1e-12 abs",
        _close(brute_value, hi, abs_tol=1e-12),
    ))

    rng = np.random.default_rng(seed)
    worst_marginal = 0.0
    worst_mpe = 0.0
    worst_selfcheck = 0.0
    for _ in range(25):
        rnet = random_network(rng)
        evr = random_evidence(rng, rnet)
        fast = evaluate(rnet, evr).root_value
        slow = brute_force_marginal(rnet, evr)
        scale = max(abs(fast), abs(slow), 1e-300)
        worst_marginal = max(worst_marginal, abs(fast - slow) / scale)
        res = mpe(rnet, evr)
        _, best = brute_force_mpe(rnet, evr)
        scale = max(abs(res.root_value), abs(best), 1e-300)
        worst_mpe = max(worst_mpe, abs(res.root_value - best) / scale)
        redo = max_evaluate(rnet, res.assignment).root_value
        scale = max(abs(res.root_value), abs(redo), 1e-300)
        worst_selfcheck = max(worst_selfcheck, abs(res.root_value - redo) / scale)
    checks.append(Check("random-marginal-oracle", "0", f"{worst_marginal:.3g}", "1e-9 rel",
                        worst_marginal <= 1e-9))
    checks.append(Check("random-mpe-oracle", "0", f"{worst_mpe:.3g}", "1e-12 rel",
                        worst_mpe <= 1e-12))
    checks.append(Check("random-mpe-selfcheck", "0", f"{worst_selfcheck:.3g}", "1e-12 rel",
                        worst_selfcheck <= 1e-12))

    bad_edges = 0
    tested = 0
    for _ in range(5):
        rnet, ev_m, ev_n = gradient_fixture(rng)
        res_m = mpe(rnet, ev_m)
        res_n = mpe(rnet, ev_n)
        for edge in range(rnet.num_edges):
            if rnet.nodes[int(rnet.edge_parent[edge])].kind != SUM:
                continue
            dt = int(res_m.edge_counts[edge]) - int(res_n.edge_counts[edge])
            analytic = dt / float(rnet.edge_weight[edge])
            fd = finite_difference_gradient(rnet, (ev_m, ev_n), edge)
            if fd is None:
                continue
            tested += 1
            if not gradients_match(analytic, fd):
                bad_edges += 1
    checks.append(Check("gradient-finite-difference", "0 mismatches",
                        f"{bad_edges} of {tested} edges", "1e-4 rel",
                        bad_edges == 0 and tested > 0))

    grid = [Location(x, y) for x in (0.0, 1.0, 2.0) for y in (0.0, 1.0, 2.0)]
    sym_ok = True
    for a in grid:
        for b in grid:
            la, ra, aa, ba = compute_relations(a, b)
            lb, rb, ab, bb = compute_relations(b, a)
            if (la, ra, aa, ba) != (rb, lb, bb, ab):
                sym_ok = False
            if (la and ra) or (aa and ba):
                sym_ok = False
    checks.append(Check("relation-antisymmetry", "holds", "holds" if sym_ok else "broken",
                        "exact", sym_ok))

    pts = {}
    feats = []
    grid_rng = np.random.default_rng(seed + 1)
    centers = np.array([[0.0, 0.0], [30.0, 0.0], [0.0, 30.0], [30.0, 30.0]])
    for i in range(28):
        center = centers[i % 4]
        vec = center + grid_rng.normal(0, 0.5, size=2)
        fv = FeatureVector(f"p{i:02d}", vec)
        feats.append(fv)
        pts[fv.id] = fv.values
    clusters = agglomerate(feats, k_init=10, n_centers=4, rng=np.random.default_rng(seed + 2))
    recovered = sorted(tuple(sorted(int(m[1:]) % 4 for m in c.members)) for c in clusters)
    blob_ok = all(len(set(group)) == 1 for group in recovered)
    checks.append(Check("agglomerate-blobs", "4 pure clusters",
                        "pure" if blob_ok else f"{recovered}", "exact", blob_ok))

    c1 = Cluster(members=["p00", "p04"], centroid=None)
    c2 = Cluster(members=["p01", "p05"], centroid=None)
    fast_link = average_link(c1, c2, pts)
    naive = np.mean([
        np.linalg.norm(pts[a] - pts[b]) for a in c1.members for b in c2.members
    ])
    checks.append(Check("average-link-double-sum", f"{naive:.12g}", f"{fast_link:.12g}",
                        "1e-12 rel", _close(fast_link, naive, rel=1e-12)))

    return checks
