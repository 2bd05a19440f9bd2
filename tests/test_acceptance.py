"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are fixed here; dataset and training configurations are
sized so the whole module stays within its stated runtime budgets.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from spatialspn.clustering import Cluster, FeatureVector, agglomerate, average_link
from spatialspn.data import (
    generate_synthetic,
    mirror_pair_spec,
    shared_halves_spec,
    split_grid_spec,
    strip_grid_spec,
)
from spatialspn.inference import mpe
from spatialspn.learning import TrainConfig, generative_train, save_bundle, train_all
from spatialspn.metrics import evaluate_bundle
from spatialspn.network import IndicatorValues, evaluate, max_evaluate
from spatialspn.oracle import (
    brute_force_marginal,
    brute_force_mpe,
    finite_difference_gradient,
    gradient_fixture,
    gradients_match,
    random_evidence,
    random_network,
    reference_network,
)
from spatialspn.spatial import Relation, build_pair_gadget
from spatialspn.structure import (
    Region,
    StructureConfig,
    build_class_network,
    build_flat_network,
    count_gadgets,
    learn_partition_tree,
    manual_tree,
    pair_count,
    strip_partition,
)


def report(name, passed, detail):
    line = f"{name}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line)
    assert passed, line


def test_ac01_reference_joint_value():
    net = reference_network()
    evidence = IndicatorValues(parts={0: (1.0, 0.0), 1: (0.0, 1.0)})
    evaluate(net, evidence)  # warm caches before timing
    start = time.perf_counter()
    value = evaluate(net, evidence).root_value
    elapsed = time.perf_counter() - start
    report(
        "AC-1",
        abs(value - 0.12) <= 1e-12 and elapsed < 1e-3,
        f"value={value!r} err={abs(value - 0.12):.2e} time={elapsed * 1e6:.0f}us",
    )


def test_ac02_reference_mpe():
    net = reference_network()
    evidence = IndicatorValues(parts={0: (1.0, 0.0), 1: (1.0, 1.0)})
    mpe(net, evidence, query=[("part", 1)])  # warm-up
    start = time.perf_counter()
    result = mpe(net, evidence, query=[("part", 1)])
    elapsed = time.perf_counter() - start
    inferred_present = result.assignment.parts[1] == (1.0, 0.0)
    hi = max_evaluate(net, IndicatorValues(parts={0: (1.0, 0.0), 1: (1.0, 0.0)})).root_value
    lo = max_evaluate(net, IndicatorValues(parts={0: (1.0, 0.0), 1: (0.0, 1.0)})).root_value
    _, oracle_value = brute_force_mpe(net, evidence)
    ok = (
        inferred_present
        and abs(hi - 0.192) <= 1e-12
        and abs(lo - 0.072) <= 1e-12
        and abs(oracle_value - 0.192) <= 1e-12
        and elapsed < 1e-3
    )
    report(
        "AC-2",
        ok,
        f"part1=present branches=({hi:.3f},{lo:.3f}) oracle={oracle_value:.3f} "
        f"time={elapsed * 1e6:.0f}us",
    )


def test_ac03_marginal_oracle_equivalence():
    rng = np.random.default_rng(303)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        net = random_network(rng)
        evidence = random_evidence(rng, net)
        fast = evaluate(net, evidence).root_value
        slow = brute_force_marginal(net, evidence)
        scale = max(abs(fast), abs(slow), 1e-300)
        worst = max(worst, abs(fast - slow) / scale)
    elapsed = time.perf_counter() - start
    report("AC-3", worst <= 1e-9 and elapsed < 30.0,
           f"worst_rel={worst:.2e} time={elapsed:.1f}s over 200 networks")


def test_ac04_mpe_self_consistency_and_oracle():
    rng = np.random.default_rng(404)
    start = time.perf_counter()
    worst_self = 0.0
    worst_oracle = 0.0
    for _ in range(200):
        net = random_network(rng)
        evidence = random_evidence(rng, net)
        query = [("part", p) for p in net.part_universe if evidence.is_part_marginalized(p)]
        query += [("pair", q) for q in net.pair_universe if evidence.is_pair_marginalized(q)]
        result = mpe(net, evidence, query=query)
        redo = max_evaluate(net, result.assignment).root_value
        scale = max(abs(result.root_value), abs(redo), 1e-300)
        worst_self = max(worst_self, abs(result.root_value - redo) / scale)
        _, best = brute_force_mpe(net, evidence)
        scale = max(abs(result.root_value), abs(best), 1e-300)
        worst_oracle = max(worst_oracle, abs(result.root_value - best) / scale)
    elapsed = time.perf_counter() - start
    report(
        "AC-4",
        worst_self <= 1e-12 and worst_oracle <= 1e-12 and elapsed < 30.0,
        f"self={worst_self:.2e} oracle={worst_oracle:.2e} time={elapsed:.1f}s",
    )


def test_ac05_spatial_discrimination():
    start = time.perf_counter()
    spn_accs, ihs_accs = [], []
    for seed in range(5):
        spec = mirror_pair_spec(images_per_class=200, bg_rate=0.05, drop_rate=0.1)
        train_ds = generate_synthetic(spec, np.random.default_rng(seed))
        test_ds = generate_synthetic(spec, np.random.default_rng(seed + 9000))
        sc = StructureConfig(seed=seed, s=2)
        spn = train_all(train_ds, sc, TrainConfig(
            seed=seed, mode="spn", generative_epochs=6, discriminative_epochs=2,
            max_pairs_per_epoch=200))
        spn_accs.append(evaluate_bundle(spn, test_ds).accuracy)
        ihs = train_all(train_ds, sc, TrainConfig(
            seed=seed, mode="ihs-spn", generative_epochs=8, discriminative_epochs=4,
            max_pairs_per_epoch=400))
        ihs_accs.append(evaluate_bundle(ihs, test_ds).accuracy)
    elapsed = time.perf_counter() - start
    ok = max(spn_accs) <= 0.60 and min(ihs_accs) >= 0.95 and elapsed < 300.0
    report(
        "AC-5",
        ok,
        f"spn={['%.3f' % a for a in spn_accs]} ihs={['%.3f' % a for a in ihs_accs]} "
        f"time={elapsed:.0f}s",
    )


def test_ac06_generative_learns_planted_relation():
    from spatialspn.data import PairRule, SyntheticSpec

    start = time.perf_counter()
    wins = 0
    for seed in range(10):
        spec = SyntheticSpec(
            classes=["only"], vocabulary_size=2, jitter=2.0,
            pair_rules=[PairRule("only", 0, 1, Relation.LEFT_OF, (0.2, 0.2, 0.8, 0.8))],
            images_per_class=40,
        )
        ds = generate_synthetic(spec, np.random.default_rng(seed))
        net = build_pair_gadget((0, 1))
        generative_train(net, ds.records, TrainConfig(seed=seed, generative_epochs=5))
        weights = net.edge_weight[net.child_edges(net.root)]
        if weights[int(Relation.LEFT_OF)] > max(
            weights[int(r)] for r in Relation if r != Relation.LEFT_OF
        ):
            wins += 1
    elapsed = time.perf_counter() - start
    report("AC-6", wins == 10 and elapsed < 60.0,
           f"strict max in {wins}/10 seeds, time={elapsed:.1f}s")


def test_ac07_structure_recovery():
    start = time.perf_counter()
    planted = strip_partition(Region.whole(), "v", (8,))
    hits = 0
    for seed in range(20):
        ds = generate_synthetic(split_grid_spec(images_per_class=80),
                                np.random.default_rng(seed))
        config = StructureConfig(seed=seed, s=2, M=50, m=3, D=2)
        tree = learn_partition_tree(ds, "lo", config)
        if planted in [choice.partition for choice in tree.root.partitions]:
            hits += 1
    elapsed = time.perf_counter() - start
    report("AC-7", hits >= 18 and elapsed < 300.0,
           f"planted kept in {hits}/20 seeds (need >= 18), time={elapsed:.0f}s")


def test_ac08_joint_vs_individual():
    start = time.perf_counter()
    ihs_accs, jhs_accs = [], []
    crossed_total = 0
    superset_ok = True
    for seed in range(10):
        spec = shared_halves_spec(images_per_class=60, bg_rate=0.1, drop_rate=0.25)
        train_ds = generate_synthetic(spec, np.random.default_rng(seed))
        test_ds = generate_synthetic(spec, np.random.default_rng(seed + 500))
        sc = StructureConfig(seed=seed, s=2, D=1)
        for mode, accs in (("ihs-spn", ihs_accs), ("jhs-spn", jhs_accs)):
            tc = TrainConfig(seed=seed, mode=mode, generative_epochs=4,
                             discriminative_epochs=3, max_pairs_per_epoch=250)
            bundle = train_all(train_ds, sc, tc)
            accs.append(evaluate_bundle(bundle, test_ds).accuracy)
            if mode == "jhs-spn":
                updates = bundle.stats["updates"]
                for group in bundle.shared_groups:
                    counts = [
                        updates.get(bundle.classes[i], {}).get(e, 0) for i, e in group
                    ]
                    if sum(counts) < max(counts):
                        superset_ok = False
                    if sum(counts) > max(counts) > 0:
                        crossed_total += 1
    elapsed = time.perf_counter() - start
    mean_ihs = float(np.mean(ihs_accs))
    mean_jhs = float(np.mean(jhs_accs))
    ok = mean_jhs >= mean_ihs - 0.01 and superset_ok and crossed_total > 0
    report(
        "AC-8",
        ok,
        f"mean ihs={mean_ihs:.4f} jhs={mean_jhs:.4f} "
        f"multi-class-updated shared edges={crossed_total} time={elapsed:.0f}s",
    )


def test_ac09_ablation_finds_planted_pair(tmp_path):
    start = time.perf_counter()
    first = 0
    for seed in range(10):
        spec = mirror_pair_spec(images_per_class=120)
        train_ds = generate_synthetic(spec, np.random.default_rng(seed))
        sc = StructureConfig(seed=seed, s=2, D=1)
        tc = TrainConfig(seed=seed, mode="ihs-spn", generative_epochs=5,
                         discriminative_epochs=2, max_pairs_per_epoch=150)
        bundle = train_all(train_ds, sc, tc)
        bundle_dir = tmp_path / f"m{seed}"
        save_bundle(bundle, bundle_dir)
        test_ds = generate_synthetic(spec, np.random.default_rng(seed + 7000))
        data_path = tmp_path / f"d{seed}.txt"
        from spatialspn.data import save_dataset

        save_dataset(test_ds, data_path)
        proc = subprocess.run(
            [sys.executable, "-m", "spatialspn", "inspect", str(bundle_dir),
             "--data", str(data_path), "--ablate-pairs", "3"],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        ranked = [l for l in proc.stdout.splitlines() if l.startswith("ablate rank 1 ")]
        if ranked and ranked[0].startswith("ablate rank 1 pair 0 1 "):
            first += 1
    elapsed = time.perf_counter() - start
    report("AC-9", first >= 9 and elapsed < 120.0,
           f"planted pair ranked first in {first}/10 seeds, time={elapsed:.0f}s")


def test_ac10_gradient_check():
    rng = np.random.default_rng(1010)
    start = time.perf_counter()
    fixtures = 0
    edges_checked = 0
    mismatches = 0
    while fixtures < 50:
        net, ev_m, ev_n = gradient_fixture(rng)
        fixtures += 1
        res_m = mpe(net, ev_m)
        res_n = mpe(net, ev_n)
        for edge in range(net.num_edges):
            if net.nodes[int(net.edge_parent[edge])].kind != "sum":
                continue
            dt = int(res_m.edge_counts[edge]) - int(res_n.edge_counts[edge])
            analytic = dt / float(net.edge_weight[edge])
            fd = finite_difference_gradient(net, (ev_m, ev_n), edge)
            if fd is None:
                continue  # unstable argmax tree: inconclusive, never faked
            edges_checked += 1
            if not gradients_match(analytic, fd, rel=1e-4):
                mismatches += 1
    elapsed = time.perf_counter() - start
    report(
        "AC-10",
        mismatches == 0 and edges_checked > 200 and elapsed < 60.0,
        f"{edges_checked} edges on 50 fixtures, {mismatches} mismatches, "
        f"time={elapsed:.1f}s",
    )


def test_ac11_pair_count_reduction(tmp_path):
    start = time.perf_counter()
    spec = strip_grid_spec(images_per_class=40)
    ds = generate_synthetic(spec, np.random.default_rng(0))
    config = StructureConfig(seed=0, s=5)
    planted = strip_partition(Region.whole(), "v", (4, 8, 12, 16))
    hier = build_class_network(manual_tree(planted, config), ds, "a", config)
    flat = build_flat_network(ds, "a", config)
    hier_count = count_gadgets(hier)
    flat_count = count_gadgets(flat)

    # cmd_train prints the counts it builds; flat mode must match exactly
    from spatialspn.data import save_dataset

    data_path = tmp_path / "strips.txt"
    save_dataset(ds, data_path)
    proc = subprocess.run(
        [sys.executable, "-m", "spatialspn", "train", str(data_path),
         "--mode", "fs-spn", "--seed", "0", "--generative-epochs", "2",
         "--discriminative-epochs", "0", "--out", str(tmp_path / "fs")],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    printed = {}
    for line in proc.stdout.splitlines():
        if ": " in line:
            key, value = line.split(": ", 1)
            printed[key] = value
    t = ds.vocabulary_size

    # 225 vs 1,225 at 50 parts; the 10% bound is against the doubled pair
    # accounting used by published flat counts (50 * 49), under which the
    # unordered formula n(n-1)/2 gives exactly half
    ok = (
        hier_count == 225
        and flat_count == 1225
        and pair_count(t) == 1225
        and int(printed["gadgets a"]) == 1225
        and int(printed["pairs possible"]) == 1225
        and hier_count <= 0.10 * t * (t - 1)
    )
    elapsed = time.perf_counter() - start
    report(
        "AC-11",
        ok,
        f"hier={hier_count} flat={flat_count} bound={0.10 * t * (t - 1):.0f} "
        f"cmd_train printed gadgets={printed['gadgets a']} time={elapsed:.0f}s",
    )


def test_ac12_average_link_and_blobs():
    start = time.perf_counter()
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(50):
        pts = {f"p{i}": rng.normal(size=3) for i in range(8)}
        c1 = Cluster(["p0", "p1", "p2"], None)
        c2 = Cluster(["p3", "p4", "p5", "p6"], None)
        fast = average_link(c1, c2, pts)
        naive = np.mean([
            np.linalg.norm(pts[a] - pts[b]) for a in c1.members for b in c2.members
        ])
        worst = max(worst, abs(fast - naive))
    feats = []
    centers = np.array([[0.0, 0.0], [40.0, 0.0], [0.0, 40.0], [40.0, 40.0]])
    for i in range(40):
        vec = centers[i % 4] + rng.normal(0, 0.5, size=2)
        feats.append(FeatureVector(f"b{i % 4}_{i:02d}", vec))
    clusters = agglomerate(feats, k_init=12, n_centers=4, rng=np.random.default_rng(1))
    pure = len(clusters) == 4 and all(
        len({m.split("_")[0] for m in c.members}) == 1 for c in clusters
    )
    elapsed = time.perf_counter() - start
    report("AC-12", worst <= 1e-12 and pure and elapsed < 10.0,
           f"worst_link_err={worst:.2e} blobs={'pure' if pure else 'impure'} "
           f"time={elapsed:.1f}s")
