"""Independent referee for the pipeline benchmark.

Reads the `spn-model v1` files of a trained bundle and an `spn-data v1`
dataset with its own parsers and recomputes class scores by direct recursion
over nodes in the log domain. It imports nothing from the program, so a fault
in the program's encoder, forward pass or metrics cannot hide in both.

Relation indicators for the canonical pair (a, b): left = x_a < x_b,
right = x_a > x_b, above = y_a < y_b, below = y_a > y_b. An equal coordinate
gives both indicators of that axis 0, and a pair with a missing part gives
all four indicators 1. Part indicators are one-hot on presence.
"""

from __future__ import annotations

import math
import os
import sys

RELATIONS = ("left", "right", "above", "below")

sys.setrecursionlimit(max(sys.getrecursionlimit(), 20000))


class Model:
    """One class network as parsed from its model file."""

    def __init__(self, kinds, leaf, edges, root):
        self.kinds = kinds          # node id -> "sum" | "product" | "one" | "part" | "spatial"
        self.leaf = leaf            # node id -> (part, positive) or (a, b, relation index)
        self.edges = edges          # edge id -> (parent, child, weight or None)
        self.root = root
        self.children = {n: [] for n in kinds}
        for parent, child, weight in edges:
            self.children[parent].append((child, weight))

    def pairs(self):
        """The canonical part pairs this network has relation leaves for."""
        return {(v[0], v[1]) for n, v in self.leaf.items() if self.kinds[n] == "spatial"}


def parse_model(path) -> Model:
    kinds, leaf, edges, root = {}, {}, [], None
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].split() != ["spn-model", "v1"]:
        raise ValueError(f"{path}: not an spn-model v1 file")
    for line in lines[1:]:
        tok = line.split()
        if not tok:
            continue
        if tok[0] == "node":
            nid, kind = int(tok[1]), tok[2]
            kinds[nid] = kind
            if kind == "part":
                leaf[nid] = (int(tok[3]), tok[4] == "pos")
            elif kind == "spatial":
                leaf[nid] = (int(tok[3]), int(tok[4]), RELATIONS.index(tok[5]))
        elif tok[0] == "edge":
            weight = float(tok[3]) if len(tok) == 4 else None
            edges.append((int(tok[1]), int(tok[2]), weight))
        elif tok[0] == "root":
            root = int(tok[1])
    if root is None:
        raise ValueError(f"{path}: no root line")
    return Model(kinds, leaf, edges, root)


def parse_bundle(path):
    """(classes in manifest order, {class: Model}, shared groups as [(class, edge)])."""
    classes, models, groups = [], {}, []
    with open(os.path.join(path, "manifest"), encoding="utf-8") as fh:
        for line in fh.read().splitlines():
            tok = line.split()
            if tok and tok[0] == "class":
                classes.append(tok[1])
                models[tok[1]] = parse_model(os.path.join(path, tok[2]))
            elif tok and tok[0] == "shared-group":
                groups.append([(c, int(e)) for c, e in (t.rsplit(":", 1) for t in tok[1:])])
    return classes, models, groups


def parse_dataset(path):
    """[(image id, class, {part: (x, y)})]; the first detection of a part wins."""
    images = []
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].split()[:2] != ["spn-data", "v1"]:
        raise ValueError(f"{path}: not an spn-data v1 file")
    for line in lines[1:]:
        tok = line.split()
        if not tok:
            continue
        if tok[0] == "img":
            images.append((tok[1], tok[2], {}))
        elif tok[0] == "det":
            images[-1][2].setdefault(int(tok[1]), (float(tok[2]), float(tok[3])))
    return images


def _indicator(model: Model, node: int, locations, ablated) -> float:
    kind = model.kinds[node]
    if kind == "one":
        return 1.0
    if kind == "part":
        part, positive = model.leaf[node]
        return 1.0 if (part in locations) == positive else 0.0
    a, b, rel = model.leaf[node]
    if (a, b) == ablated or a not in locations or b not in locations:
        return 1.0
    (xa, ya), (xb, yb) = locations[a], locations[b]
    holds = (xa < xb, xa > xb, ya < yb, ya > yb)[rel]
    return 1.0 if holds else 0.0


def root_log_value(model: Model, locations, ablated=None) -> float:
    """Log root value for one image; `ablated` forces that pair's relation leaves to 1."""
    memo: dict[int, float] = {}

    def value(node: int) -> float:
        if node in memo:
            return memo[node]
        kind = model.kinds[node]
        if kind == "product":
            out = 0.0
            for child, _ in model.children[node]:
                out += value(child)
        elif kind == "sum":
            terms = []
            for child, weight in model.children[node]:
                v = value(child)
                if weight > 0.0 and v != -math.inf:
                    terms.append(math.log(weight) + v)
            if terms:
                top = max(terms)
                out = top + math.log(math.fsum(math.exp(t - top) for t in terms))
            else:
                out = -math.inf
        else:
            v = _indicator(model, node, locations, ablated)
            out = math.log(v) if v > 0.0 else -math.inf
        memo[node] = out
        return out

    return value(model.root)


def score_images(classes, models, images, ablated=None):
    """One {class: log score} dict per image."""
    return [
        {k: root_log_value(models[k], locations, ablated) for k in classes}
        for _, _, locations in images
    ]


def argmax_class(scores: dict) -> str:
    """Highest score; an exact tie goes to the lowest class name."""
    best = None
    for klass in sorted(scores):
        if best is None or scores[klass] > scores[best]:
            best = klass
    return best


def average_precision(relevant, scores) -> float:
    """Mean precision at each relevant item, ranked by descending score,
    ties kept in input order."""
    ranked = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    hits, precisions = 0, []
    for rank, i in enumerate(ranked, start=1):
        if relevant[i]:
            hits += 1
            precisions.append(hits / rank)
    return sum(precisions) / len(precisions) if precisions else 0.0


def accuracy(images, score_rows) -> float:
    right = sum(1 for (_, klass, _), row in zip(images, score_rows) if argmax_class(row) == klass)
    return right / max(len(images), 1)


def mean_ap(classes, images, score_rows) -> float:
    aps = [
        average_precision([klass == k for _, klass, _ in images], [row[k] for row in score_rows])
        for k in classes
    ]
    return sum(aps) / len(aps)
