import numpy as np
import pytest

from spatialspn.data import generate_synthetic, mirror_pair_spec
from spatialspn.learning import TrainConfig, train_all
from spatialspn.metrics import (
    accuracy_with_overrides,
    average_precision,
    evaluate_bundle,
)
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
