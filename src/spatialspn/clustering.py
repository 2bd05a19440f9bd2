"""Feature-space part discovery: k-means over-segmentation followed by
average-link agglomeration.

Operates on externally supplied feature vectors; clusters are candidate
parts. The merge loop uses the Lance-Williams update for average link, which
is exact, while the test oracle recomputes every distance from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, DataFormatError, InsufficientDataError

FEATURE_HEADER = "feat v1"
# rows per difference tensor in distance computations; bounds peak memory
DISTANCE_BLOCK = 64


@dataclass
class FeatureVector:
    id: str
    values: np.ndarray


@dataclass
class Cluster:
    members: list[str]
    centroid: np.ndarray


def load_features(path) -> list[FeatureVector]:
    """Parse a 'feat v1 dim=<d>' file, one id + d values per line."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise DataFormatError(0, "empty feature file")
    header = lines[0].split()
    if len(header) != 3 or " ".join(header[:2]) != FEATURE_HEADER:
        raise DataFormatError(1, "expected 'feat v1 dim=<d>' header")
    try:
        dim = int(header[2].removeprefix("dim="))
    except ValueError:
        raise DataFormatError(1, "bad dimension") from None
    out = []
    for line_no, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != dim + 1:
            raise DataFormatError(line_no, f"expected id plus {dim} values, got {len(tokens) - 1}")
        try:
            values = np.asarray([float(t) for t in tokens[1:]], dtype=np.float64)
        except ValueError:
            raise DataFormatError(line_no, "bad feature value") from None
        if not np.isfinite(values).all():
            raise DataFormatError(line_no, "feature values must be finite")
        out.append(FeatureVector(tokens[0], values))
    return out


def save_clusters(clusters: list[Cluster], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for idx, cluster in enumerate(clusters):
            fh.write(f"cluster {idx}: {' '.join(cluster.members)}\n")


def average_link(c1: Cluster, c2: Cluster, points: dict[str, np.ndarray] | None = None,
                 dist=None) -> float:
    """Mean pairwise distance between two clusters (Euclidean by default)."""
    if not c1.members or not c2.members:
        raise ContractViolationError("average link needs non-empty clusters")
    if points is None:
        raise ContractViolationError("average link needs the member feature vectors")
    if dist is None:
        total = 0.0
        for a in c1.members:
            diffs = np.stack([points[b] for b in c2.members]) - points[a]
            total += float(np.sqrt((diffs * diffs).sum(axis=1)).sum())
    else:
        total = sum(dist(points[a], points[b]) for a in c1.members for b in c2.members)
    return total / (len(c1.members) * len(c2.members))


def _squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of a and b; the
    difference tensor is built DISTANCE_BLOCK rows of a at a time."""
    out = np.empty((len(a), len(b)))
    for lo in range(0, len(a), DISTANCE_BLOCK):
        diffs = a[lo:lo + DISTANCE_BLOCK, None, :] - b[None, :, :]
        out[lo:lo + DISTANCE_BLOCK] = np.square(diffs, out=diffs).sum(axis=2)
    return out


def _kmeans(data: np.ndarray, k: int, rng, iters: int = 100, tol: float = 1e-6):
    """Seeded farthest-point k-means; deterministic given the rng state."""
    n = len(data)
    centers = np.empty((k, data.shape[1]))
    first = int(rng.integers(n))
    centers[0] = data[first]
    dist2 = ((data - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        pick = int(np.argmax(dist2))
        centers[j] = data[pick]
        dist2 = np.minimum(dist2, ((data - centers[j]) ** 2).sum(axis=1))
    prev_inertia = None
    labels = np.zeros(n, dtype=np.int64)
    for _ in range(iters):
        d2 = _squared_distances(data, centers)
        labels = np.argmin(d2, axis=1)
        inertia = float(d2[np.arange(n), labels].sum())
        for j in range(k):
            mask = labels == j
            if mask.any():
                centers[j] = data[mask].mean(axis=0)
            else:
                # re-seed an empty cluster at the farthest point
                far = int(np.argmax(d2[np.arange(n), labels]))
                centers[j] = data[far]
        if prev_inertia is not None:
            base = max(abs(prev_inertia), 1e-12)
            if abs(prev_inertia - inertia) / base < tol:
                break
        prev_inertia = inertia
    return labels


def agglomerate(features: list[FeatureVector], k_init: int, n_centers: int,
                drop_fraction: float = 0.0, rng=None) -> list[Cluster]:
    """Over-segment with k-means, drop small-and-far clusters, then merge the
    closest pair by average link until n_centers remain.

    Dropping applies once, before merging: a cluster goes when its size is
    below drop_fraction of the mean size and its average link to the nearest
    other cluster exceeds the 90th percentile of those nearest distances.
    Never drops below n_centers clusters."""
    if rng is None:
        rng = np.random.default_rng(0)
    if len(features) < n_centers:
        raise InsufficientDataError(
            f"{len(features)} features cannot form {n_centers} clusters"
        )
    if not (k_init >= n_centers >= 1):
        raise ContractViolationError("need k_init >= n_centers >= 1")
    k_init = min(k_init, len(features))

    data = np.stack([f.values for f in features])
    ids = [f.id for f in features]
    labels = _kmeans(data, k_init, rng)

    members: list[list[int]] = [list(np.flatnonzero(labels == j)) for j in range(k_init)]
    members = [m for m in members if m]

    def avg_link_matrix(groups):
        sizes = np.asarray([len(g) for g in groups], dtype=np.float64)
        k = len(groups)
        link = np.zeros((k, k))
        for i in range(k):
            for j in range(i + 1, k):
                d2 = _squared_distances(data[groups[i]], data[groups[j]])
                link[i, j] = link[j, i] = float(np.sqrt(d2).sum() / (sizes[i] * sizes[j]))
        return link

    link = avg_link_matrix(members)

    if drop_fraction > 0 and len(members) > n_centers:
        sizes = np.asarray([len(m) for m in members], dtype=np.float64)
        mean_size = sizes.mean()
        nearest = np.array([
            min(link[i, j] for j in range(len(members)) if j != i) if len(members) > 1 else 0.0
            for i in range(len(members))
        ])
        cutoff = float(np.percentile(nearest, 90))
        drop_order = sorted(
            (i for i in range(len(members))
             if sizes[i] < drop_fraction * mean_size and nearest[i] > cutoff),
            key=lambda i: (-nearest[i], i),
        )
        allowed = len(members) - n_centers
        to_drop = set(drop_order[:allowed])
        if to_drop:
            keep = [i for i in range(len(members)) if i not in to_drop]
            members = [members[i] for i in keep]
            link = link[np.ix_(keep, keep)]

    sizes = np.asarray([len(m) for m in members], dtype=np.float64)
    # Lance-Williams merge loop; ties break toward the lexicographically
    # smallest index pair so the order is reproducible
    while len(members) > n_centers:
        k = len(members)
        best = None
        for i in range(k):
            for j in range(i + 1, k):
                key = (link[i, j], i, j)
                if best is None or key < best:
                    best = key
        _, i, j = best
        merged = members[i] + members[j]
        new_row = (sizes[i] * link[i] + sizes[j] * link[j]) / (sizes[i] + sizes[j])
        keep = [x for x in range(k) if x not in (i, j)]
        link = link[np.ix_(keep, keep)]
        new_col = new_row[keep]
        link = np.pad(link, ((0, 1), (0, 1)))
        link[-1, :-1] = new_col
        link[:-1, -1] = new_col
        members = [members[x] for x in keep] + [merged]
        sizes = np.asarray([len(m) for m in members], dtype=np.float64)

    clusters = []
    for group in members:
        idx = sorted(group)
        clusters.append(Cluster(members=[ids[i] for i in idx], centroid=data[idx].mean(axis=0)))
    clusters.sort(key=lambda c: c.members[0])
    return clusters
