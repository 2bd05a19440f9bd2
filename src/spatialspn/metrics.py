"""Ranking and accuracy metrics for trained bundles."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .learning import ModelBundle, _bundle_evidence, _class_scores
from .network import pair_column
from .spatial import canonical_pair


def average_precision(labels, scores) -> float:
    """Interpolation-free AP: mean precision at each positive hit.

    Items are ranked by descending score; ties keep input order (stable)."""
    labels = np.asarray(labels, dtype=np.float64)
    scores = np.asarray(scores, dtype=np.float64)
    if labels.sum() == 0:
        return 0.0
    order = np.argsort(-scores, kind="stable")
    ranked = labels[order]
    hits = np.cumsum(ranked)
    ranks = np.arange(1, len(ranked) + 1)
    precisions = hits[ranked == 1] / ranks[ranked == 1]
    return float(precisions.mean())


@dataclass
class EvalReport:
    classes: list[str]
    per_class_ap: dict[str, float]
    per_class_accuracy: dict[str, float]
    confusion: dict[tuple[str, str], int]
    accuracy: float
    mean_ap: float = field(init=False)

    def __post_init__(self):
        self.mean_ap = float(np.mean([self.per_class_ap[c] for c in self.classes]))

    def lines(self) -> list[str]:
        out = [f"classes: {len(self.classes)}"]
        for klass in self.classes:
            out.append(f"class {klass} ap: {self.per_class_ap[klass]:.6f}")
        for klass in self.classes:
            out.append(f"class {klass} accuracy: {self.per_class_accuracy[klass]:.6f}")
        out.append(f"map: {self.mean_ap:.6f}")
        out.append(f"accuracy: {self.accuracy:.6f}")
        for true in self.classes:
            for pred in self.classes:
                out.append(f"confusion {true} {pred}: {self.confusion.get((true, pred), 0)}")
        return out


def scores_table(bundle: ModelBundle, dataset: Dataset):
    """Per-image class scores and argmax predictions."""
    rows = _class_scores(bundle, _bundle_evidence(bundle, dataset.records))
    return [(record, scores, label) for record, (scores, label) in zip(dataset.records, rows)]


def evaluate_bundle(bundle: ModelBundle, dataset: Dataset) -> EvalReport:
    """Per-class AP over score rankings plus argmax accuracy and confusion."""
    dataset.validate_against_vocabulary(bundle.vocabulary_size)
    classes = bundle.classes
    rows = scores_table(bundle, dataset)

    per_class_ap = {}
    for klass in classes:
        labels = [1.0 if record.klass == klass else 0.0 for record, _, _ in rows]
        scores = [s[klass] for _, s, _ in rows]
        per_class_ap[klass] = average_precision(labels, scores)

    confusion: dict[tuple[str, str], int] = {}
    per_class_total = {klass: 0 for klass in classes}
    per_class_correct = {klass: 0 for klass in classes}
    correct = 0
    for record, _, predicted in rows:
        confusion[(record.klass, predicted)] = confusion.get((record.klass, predicted), 0) + 1
        if record.klass in per_class_total:
            per_class_total[record.klass] += 1
            if predicted == record.klass:
                per_class_correct[record.klass] += 1
                correct += 1
    per_class_accuracy = {
        klass: per_class_correct[klass] / per_class_total[klass] if per_class_total[klass] else 0.0
        for klass in classes
    }
    accuracy = correct / len(rows) if rows else 0.0
    return EvalReport(
        classes=classes,
        per_class_ap=per_class_ap,
        per_class_accuracy=per_class_accuracy,
        confusion=confusion,
        accuracy=accuracy,
    )


def accuracy_with_overrides(bundle: ModelBundle, dataset: Dataset, ablated_pair=None) -> float:
    """Argmax accuracy with one part pair marginalized in every image's evidence.

    Setting the pair's relation indicators to 1 (rather than deleting its
    gadgets) keeps every network valid while removing the pair's geometric
    evidence from the score."""
    evidence = _bundle_evidence(bundle, dataset.records)
    if ablated_pair is not None:
        column = pair_column(*canonical_pair(*ablated_pair))
        evidence[:, column:column + 4] = 1.0
    rows = _class_scores(bundle, evidence)
    correct = sum(label == record.klass for record, (_, label) in zip(dataset.records, rows))
    return correct / max(len(dataset.records), 1)
