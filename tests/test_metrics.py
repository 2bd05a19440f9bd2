import tracemalloc

import numpy as np
import pytest

import spatialspn.metrics as metrics_module
from spatialspn.data import generate_synthetic, mirror_pair_spec, preset_spec, strip_grid_spec
from spatialspn.learning import TrainConfig, _bundle_evidence, _class_scores, train_all
from spatialspn.metrics import (
    ablation_accuracies,
    accuracy_with_overrides,
    average_precision,
    evaluate_bundle,
)
from spatialspn.network import pair_column
from spatialspn.spatial import canonical_pair
from spatialspn.structure import StructureConfig


def test_perfect_ranking_gives_ap_one():
    labels = [1, 1, 1, 0, 0, 0]
    scores = [9.0, 8.0, 7.0, 3.0, 2.0, 1.0]
    assert average_precision(labels, scores) == 1.0


def test_single_positive_ranked_first():
    labels = [1] + [0] * 9
    scores = list(range(10, 0, -1))
    assert average_precision(labels, scores) == 1.0


def test_worst_case_single_positive_last():
    labels = [0] * 9 + [1]
    scores = list(range(10, 0, -1))
    assert average_precision(labels, scores) == pytest.approx(0.1)


def test_known_small_case():
    # hand computation: hits at ranks 1 and 3 -> mean(1/1, 2/3) = 5/6
    labels = [1, 0, 1, 0]
    scores = [4.0, 3.0, 2.0, 1.0]
    assert average_precision(labels, scores) == pytest.approx(5.0 / 6.0)


def test_ap_in_unit_interval_and_zero_without_positives():
    assert average_precision([0, 0], [1.0, 2.0]) == 0.0
    rng = np.random.default_rng(0)
    for _ in range(20):
        labels = rng.integers(0, 2, size=30)
        scores = rng.normal(size=30)
        ap = average_precision(labels, scores)
        assert 0.0 <= ap <= 1.0


def test_random_scores_ap_near_prevalence():
    # Monte-Carlo property: AP under a random ranking concentrates near the
    # positive prevalence on balanced data
    rng = np.random.default_rng(7)
    labels = np.array([1] * 100 + [0] * 100)
    aps = []
    for _ in range(20):
        aps.append(average_precision(labels, rng.normal(size=200)))
    assert abs(float(np.mean(aps)) - 0.5) <= 0.1


@pytest.fixture(scope="module")
def mirror_bundle_and_data():
    spec = mirror_pair_spec(images_per_class=60)
    train_ds = generate_synthetic(spec, np.random.default_rng(0))
    test_ds = generate_synthetic(spec, np.random.default_rng(1))
    sc = StructureConfig(seed=0, s=2, D=1)
    tc = TrainConfig(seed=0, mode="ihs-spn", generative_epochs=5,
                     discriminative_epochs=2, max_pairs_per_epoch=100)
    return train_all(train_ds, sc, tc), test_ds


def test_report_fields_and_ranges(mirror_bundle_and_data):
    bundle, test_ds = mirror_bundle_and_data
    report = evaluate_bundle(bundle, test_ds)
    assert report.classes == ["east", "west"]
    assert 0.0 <= report.accuracy <= 1.0
    for klass in report.classes:
        assert 0.0 <= report.per_class_ap[klass] <= 1.0
    assert report.mean_ap == pytest.approx(
        np.mean([report.per_class_ap[c] for c in report.classes])
    )
    total = sum(report.confusion.values())
    assert total == len(test_ds.records)
    lines = report.lines()
    assert lines[0] == "classes: 2"
    assert any(line.startswith("map: ") for line in lines)
    assert any(line.startswith("confusion east west:") for line in lines)


def test_ablating_absent_pair_changes_nothing(mirror_bundle_and_data):
    bundle, test_ds = mirror_bundle_and_data
    base = accuracy_with_overrides(bundle, test_ds, None)
    ghost = accuracy_with_overrides(bundle, test_ds, ablated_pair=(97, 98))
    assert ghost == base


def test_ablating_planted_pair_drops_accuracy(mirror_bundle_and_data):
    bundle, test_ds = mirror_bundle_and_data
    base = accuracy_with_overrides(bundle, test_ds, None)
    ablated = accuracy_with_overrides(bundle, test_ds, ablated_pair=(0, 1))
    assert base - ablated > 0.2


def test_ablated_pair_order_does_not_matter(mirror_bundle_and_data):
    bundle, test_ds = mirror_bundle_and_data
    assert accuracy_with_overrides(bundle, test_ds, (1, 0)) == accuracy_with_overrides(
        bundle, test_ds, (0, 1)
    )


# ------------------------------------------------------- stacked ablation


def reference_accuracy_with_overrides(bundle, dataset, ablated_pair=None):
    """The per-pair scoring the stacked sweep replaces: one evidence matrix
    and one forward pass per network for each ablated pair."""
    evidence = _bundle_evidence(bundle, dataset.records)
    if ablated_pair is not None:
        column = pair_column(*canonical_pair(*ablated_pair))
        evidence[:, column:column + 4] = 1.0
    rows = _class_scores(bundle, evidence)
    correct = sum(label == record.klass for record, (_, label) in zip(dataset.records, rows))
    return correct / max(len(dataset.records), 1)


def preset_bundle(name, seed=0):
    spec = (strip_grid_spec(n_strips=3, parts_per_strip=6, images_per_class=12)
            if name == "strips" else preset_spec(name, 20))
    train_ds = generate_synthetic(spec, np.random.default_rng(seed))
    test_ds = generate_synthetic(spec, np.random.default_rng(seed + 1))
    mode = "fs-spn" if name == "strips" else "ihs-spn"
    tc = TrainConfig(seed=0, mode=mode, generative_epochs=2, discriminative_epochs=1,
                     max_pairs_per_epoch=40)
    return train_all(train_ds, StructureConfig(seed=0, s=2, D=1), tc), test_ds


def modeled_pairs(bundle):
    return sorted({q for net in bundle.networks.values() for q in net.pair_universe})


@pytest.mark.parametrize("name", ["mirror", "split", "shared", "strips"])
def test_ablation_sweep_matches_per_pair_loop(name, monkeypatch):
    bundle, test_ds = preset_bundle(name)
    test_ds.records = test_ds.records[::2]
    sweep = [None] + modeled_pairs(bundle) + [(97, 98)]
    want = [reference_accuracy_with_overrides(bundle, test_ds, pair) for pair in sweep]
    evidence = _bundle_evidence(bundle, test_ds.records)
    row = evidence.shape[1] + max(net.num_nodes for net in bundle.networks.values())
    # one chunk, then three copies a chunk (the last one partly filled), then one
    for copies in (len(sweep), 3, 1):
        monkeypatch.setattr(metrics_module, "ROW_BLOCK_ELEMENTS", copies * len(test_ds.records) * row)
        assert ablation_accuracies(bundle, test_ds, sweep) == want
    assert [accuracy_with_overrides(bundle, test_ds, pair) for pair in sweep] == want


def test_ablation_sweep_peak_memory_is_bounded():
    bundle, test_ds = preset_bundle("strips")
    sweep = [None] + modeled_pairs(bundle)
    stacked = len(sweep) * len(test_ds.records) * (
        2 * 18 ** 2 + max(net.num_nodes for net in bundle.networks.values())) * 8
    tracemalloc.start()
    try:
        ablation_accuracies(bundle, test_ds, sweep)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(sweep) > 100 and stacked > 20 * 1e6
    assert peak < 8e6

