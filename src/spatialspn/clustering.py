"""Feature-space part discovery: k-means over-segmentation followed by
average-link agglomeration.

Operates on externally supplied feature vectors; clusters are candidate
parts. The merge loop uses the Lance-Williams update for average link, which
is exact, while the test oracle recomputes every distance from scratch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, DataFormatError, InsufficientDataError

FEATURE_HEADER = "feat v1"
# rows per difference tensor in distance computations; bounds peak memory
DISTANCE_BLOCK = 64
# rows per matmul in the k-means assignment screen
SCREEN_BLOCK = 1024


@dataclass
class FeatureVector:
    id: str
    values: np.ndarray


@dataclass
class Cluster:
    members: list[str]
    centroid: np.ndarray


def load_features(path) -> list[FeatureVector]:
    """Parse a 'feat v1 dim=<d>' file, one id + d values per line; d >= 1,
    ids are unique and values finite. The lines stream into one array, and
    an error names the first bad line."""
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
    if dim < 1:
        raise DataFormatError(1, f"dimension must be at least 1, got {dim}")
    ids: dict[str, None] = {}

    def rows():
        for line_no, raw in enumerate(lines[1:], start=2):
            tokens = raw.split()
            if not tokens:
                continue
            if len(tokens) != dim + 1:
                raise DataFormatError(line_no, f"expected id plus {dim} values, got {len(tokens) - 1}")
            try:
                values = [float(t) for t in tokens[1:]]
            except ValueError:
                raise DataFormatError(line_no, "bad feature value") from None
            if not all(map(math.isfinite, values)):
                raise DataFormatError(line_no, "feature values must be finite")
            if tokens[0] in ids:
                raise DataFormatError(line_no, f"duplicate id {tokens[0]!r}")
            ids[tokens[0]] = None
            yield values

    values = np.fromiter(rows(), dtype=np.dtype((np.float64, dim)))
    return [FeatureVector(i, v) for i, v in zip(ids, values)]


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


def _nearest_centres(data: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """argmin(_squared_distances(data, centers), axis=1), bit for bit: the
    screen ||x||^2 - 2 x.c + ||c||^2 is within 4(d+4) eps max_c(||x|| + ||c||)^2
    (plus the smallest normal float, for underflow) of each exact distance,
    so a row whose two best screen values differ by more than twice that has
    the exact argmin; other rows (ties, overflow) are recomputed exactly."""
    finfo = np.finfo(np.float64)
    slack = 8 * (data.shape[1] + 4) * finfo.eps
    c2 = np.square(centers).sum(axis=1)
    c_norm = np.sqrt(c2.max())
    labels = np.empty(len(data), dtype=np.intp)
    for lo in range(0, len(data), SCREEN_BLOCK):
        x = data[lo:lo + SCREEN_BLOCK]
        x2 = np.square(x).sum(axis=1)
        screen = x2[:, None] - 2.0 * (x @ centers.T) + c2
        rows = np.arange(len(x))
        best = np.argmin(screen, axis=1)
        first = screen[rows, best]
        screen[rows, best] = np.inf
        gap = screen.min(axis=1) - first
        unsure = ~(np.isfinite(gap) & (gap > slack * np.square(np.sqrt(x2) + c_norm) + 2 * finfo.tiny))
        if unsure.any():
            best[unsure] = np.argmin(_squared_distances(x[unsure], centers), axis=1)
        labels[lo:lo + len(x)] = best
    return labels


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
        labels = _nearest_centres(data, centers)
        # same per-element sums as the _squared_distances entries they stand for
        label_d2 = np.square(data - centers[labels]).sum(axis=1)
        inertia = float(label_d2.sum())
        # each centre is the mean of its rows in index order, the same
        # reduction as data[labels == j]
        order = np.argsort(labels, kind="stable")
        counts = np.bincount(labels, minlength=k)
        ends = np.cumsum(counts)
        for j, (lo, hi) in enumerate(zip(ends - counts, ends)):
            # an empty cluster is re-seeded at the farthest point
            centers[j] = data[order[lo:hi]].mean(axis=0) if hi > lo else data[np.argmax(label_d2)]
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
        nearest = (link + np.diag(np.full(len(members), np.inf))).min(axis=1)
        cutoff = float(np.percentile(nearest, 90))
        small_far = np.flatnonzero((sizes < drop_fraction * mean_size) & (nearest > cutoff))
        # farthest first, index order among equal distances
        drop_order = small_far[np.argsort(-nearest[small_far], kind="stable")]
        to_drop = set(drop_order[:len(members) - n_centers].tolist())
        if to_drop:
            keep = [i for i in range(len(members)) if i not in to_drop]
            members = [members[i] for i in keep]
            link = link[np.ix_(keep, keep)]

    sizes = np.asarray([len(m) for m in members], dtype=np.float64)
    # Lance-Williams merge loop; ties break toward the lexicographically
    # smallest index pair (the first minimum of the row-major upper
    # triangle) so the order is reproducible
    while len(members) > n_centers:
        k = len(members)
        upper_i, upper_j = np.triu_indices(k, 1)
        pick = int(np.argmin(link[upper_i, upper_j]))
        i, j = int(upper_i[pick]), int(upper_j[pick])
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
