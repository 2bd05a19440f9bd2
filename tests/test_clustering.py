import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spatialspn import clustering
from spatialspn.cli import main
from spatialspn.clustering import (
    Cluster,
    FeatureVector,
    _kmeans,
    _nearest_centres,
    _squared_distances,
    agglomerate,
    average_link,
    load_features,
    save_clusters,
)
from spatialspn.errors import ContractViolationError, DataFormatError, InsufficientDataError


def points(vectors):
    return {f"p{i}": np.asarray(v, dtype=float) for i, v in enumerate(vectors)}


def test_average_link_singletons_is_distance():
    pts = points([[0.0, 0.0], [3.0, 4.0]])
    c1, c2 = Cluster(["p0"], None), Cluster(["p1"], None)
    assert average_link(c1, c2, pts) == pytest.approx(5.0)


def test_average_link_matches_double_loop():
    rng = np.random.default_rng(0)
    pts = points(rng.normal(size=(4, 3)))
    c1 = Cluster(["p0", "p1"], None)
    c2 = Cluster(["p2", "p3"], None)
    expected = np.mean([
        np.linalg.norm(pts[a] - pts[b]) for a in c1.members for b in c2.members
    ])
    assert average_link(c1, c2, pts) == pytest.approx(expected, rel=1e-12)


def test_average_link_symmetric():
    rng = np.random.default_rng(1)
    pts = points(rng.normal(size=(6, 2)))
    c1 = Cluster(["p0", "p1", "p2"], None)
    c2 = Cluster(["p3", "p4", "p5"], None)
    assert average_link(c1, c2, pts) == pytest.approx(average_link(c2, c1, pts), rel=1e-12)


@given(st.floats(min_value=0.1, max_value=50.0))
@settings(max_examples=30, deadline=None)
def test_average_link_scales_linearly(scale):
    rng = np.random.default_rng(2)
    base = rng.normal(size=(4, 2))
    pts = points(base)
    scaled = points(base * scale)
    c1, c2 = Cluster(["p0", "p1"], None), Cluster(["p2", "p3"], None)
    assert average_link(c1, c2, scaled) == pytest.approx(
        scale * average_link(c1, c2, pts), rel=1e-9
    )


def test_average_link_rejects_empty():
    with pytest.raises(ContractViolationError):
        average_link(Cluster([], None), Cluster(["p0"], None), points([[0.0]]))


# ------------------------------------------------------------ agglomerate


def blob_features(rng, n_blobs=4, per_blob=12, sep=30.0, sigma=0.5):
    feats = []
    for blob in range(n_blobs):
        center = np.array([sep * (blob % 2), sep * (blob // 2)])
        for j in range(per_blob):
            vec = center + rng.normal(0, sigma, size=2)
            feats.append(FeatureVector(f"b{blob}_{j:02d}", vec))
    return feats


def test_agglomerate_recovers_planted_blobs(rng):
    feats = blob_features(rng)
    clusters = agglomerate(feats, k_init=10, n_centers=4, rng=rng)
    assert len(clusters) == 4
    for cluster in clusters:
        blobs = {m.split("_")[0] for m in cluster.members}
        assert len(blobs) == 1
    assert sum(len(c.members) for c in clusters) == len(feats)


def test_singletons_when_no_merges_possible(rng):
    feats = blob_features(rng, n_blobs=2, per_blob=3)
    clusters = agglomerate(feats, k_init=len(feats), n_centers=len(feats), rng=rng)
    assert len(clusters) == len(feats)
    assert all(len(c.members) == 1 for c in clusters)


def test_merge_order_matches_naive_recomputation(rng):
    # Lance-Williams shortcut against from-scratch average-link agglomeration
    feats = blob_features(rng, n_blobs=3, per_blob=8, sep=8.0, sigma=1.0)
    data = {f.id: f.values for f in feats}
    clusters = agglomerate(feats, k_init=12, n_centers=3, rng=np.random.default_rng(5))

    from spatialspn.clustering import _kmeans

    matrix = np.stack([f.values for f in feats])
    labels = _kmeans(matrix, 12, np.random.default_rng(5))
    naive = [sorted(np.flatnonzero(labels == j).tolist()) for j in range(12)]
    naive = [g for g in naive if g]
    while len(naive) > 3:
        best = None
        for i in range(len(naive)):
            for j in range(i + 1, len(naive)):
                link = np.mean([
                    np.linalg.norm(matrix[a] - matrix[b]) for a in naive[i] for b in naive[j]
                ])
                key = (link, i, j)
                if best is None or key < best:
                    best = key
        _, i, j = best
        merged = naive[i] + naive[j]
        naive = [g for k, g in enumerate(naive) if k not in (i, j)] + [merged]
    expected = sorted(sorted(feats[i].id for i in g) for g in naive)
    got = sorted(sorted(c.members) for c in clusters)
    assert got == expected


def test_centroid_is_member_mean(rng):
    feats = blob_features(rng, n_blobs=2, per_blob=6)
    data = {f.id: f.values for f in feats}
    for cluster in agglomerate(feats, k_init=4, n_centers=2, rng=rng):
        mean = np.mean([data[m] for m in cluster.members], axis=0)
        assert np.allclose(cluster.centroid, mean)


def test_too_few_features_rejected(rng):
    feats = blob_features(rng, n_blobs=1, per_blob=2)
    with pytest.raises(InsufficientDataError):
        agglomerate(feats, k_init=5, n_centers=5, rng=rng)


def test_drop_small_far_clusters(rng):
    feats = blob_features(rng, n_blobs=3, per_blob=10, sep=20.0)
    feats.append(FeatureVector("outlier", np.array([500.0, 500.0])))
    clusters = agglomerate(feats, k_init=8, n_centers=3, drop_fraction=0.5, rng=rng)
    members = {m for c in clusters for m in c.members}
    assert "outlier" not in members


def test_agglomerate_peak_memory_is_bounded():
    # k-means against 24 centres and average links between clusters of
    # ~80-330 vectors: one unblocked 2000 x 24 x 24 difference tensor alone
    # takes 9.2 MB, the row-blocked distance steps stay far below
    rng = np.random.default_rng(0)
    centres = rng.normal(0.0, 10.0, size=(6, 24))
    feats = [FeatureVector(f"f{i}", centres[i % 6] + rng.normal(size=24)) for i in range(2000)]
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        clusters = agglomerate(feats, k_init=24, n_centers=6, rng=np.random.default_rng(1))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert sorted(len(c.members) for c in clusters) == [333] * 4 + [334] * 2
    assert peak < 6e6


def test_feature_file_round_trip(tmp_path):
    path = tmp_path / "feats.txt"
    path.write_text("feat v1 dim=2\na 1.0 2.0\nb 3.5 -1.25\n")
    feats = load_features(path)
    assert [f.id for f in feats] == ["a", "b"]
    assert feats[1].values.tolist() == [3.5, -1.25]

    out = tmp_path / "clusters.txt"
    save_clusters([Cluster(["a", "b"], None)], out)
    assert out.read_text() == "cluster 0: a b\n"


def test_feature_file_dimension_mismatch(tmp_path):
    path = tmp_path / "feats.txt"
    path.write_text("feat v1 dim=3\na 1.0 2.0\n")
    with pytest.raises(DataFormatError):
        load_features(path)


@pytest.mark.parametrize("dim", ["0", "-1"])
def test_feature_file_dimension_below_one_rejected_at_header(tmp_path, dim):
    path = tmp_path / "feats.txt"
    path.write_text(f"feat v1 dim={dim}\na\nb\n")
    with pytest.raises(DataFormatError) as err:
        load_features(path)
    assert err.value.line_no == 1


def test_feature_file_duplicate_id_rejected_at_its_line(tmp_path):
    path = tmp_path / "feats.txt"
    path.write_text("feat v1 dim=2\na 1 2\nb 3 4\n\na 5 6\n")
    with pytest.raises(DataFormatError, match="duplicate id 'a'") as err:
        load_features(path)
    assert err.value.line_no == 5
    assert main(["cluster", str(path), "--k-init", "2", "--n-centers", "1",
                 "--out", str(tmp_path / "c.txt")]) == 2
    assert not (tmp_path / "c.txt").exists()


@pytest.mark.parametrize("body, line_no, message", [
    ("a 1 2\n\nb 3\n", 4, "expected id plus 2 values, got 1"),
    ("a 1 2\nb 3 4 5\n", 3, "expected id plus 2 values, got 3"),
    ("a 1 2\nb 3 x\nc 1\n", 3, "bad feature value"),
    ("a 1 2\n  \nb 3 nan\n", 4, "feature values must be finite"),
    ("a 1 2\nb 3 1e999\n", 3, "feature values must be finite"),
    ("a 1 2\nb\n", 3, "expected id plus 2 values, got 0"),
    ("a 1 inf\nb x 2\n", 2, "feature values must be finite"),
    ("a 1 2\na 1 x\n", 3, "bad feature value"),
    ("a 1 2\na 1 2\nb 1\n", 3, "duplicate id 'a'"),
])
def test_feature_file_errors_name_the_first_bad_line(tmp_path, body, line_no, message):
    path = tmp_path / "feats.txt"
    path.write_text("feat v1 dim=2\n" + body)
    with pytest.raises(DataFormatError) as err:
        load_features(path)
    assert err.value.line_no == line_no
    assert str(err.value) == f"line {line_no}: {message}"


def test_feature_file_values_are_read_with_float(tmp_path):
    rng = np.random.default_rng(4)
    values = np.concatenate([rng.normal(size=(30, 3)) * 10.0 ** rng.integers(-300, 300, size=(30, 1)),
                             [[-0.0, 0.0, 1e-320]]])
    lines = ["feat v1 dim=3"] + [f"v{i}  " + "\t".join(repr(float(x)) for x in row) for i, row in enumerate(values)]
    lines.insert(5, "   ")
    lines[9] += "  "
    path = tmp_path / "feats.txt"
    path.write_text("\n".join(lines) + "\n")
    expected = [[float(t) for t in line.split()[1:]] for line in lines[1:] if line.split()]
    feats = load_features(path)
    assert [f.id for f in feats] == [f"v{i}" for i in range(len(values))]
    assert np.stack([f.values for f in feats]).tobytes() == np.array(expected).tobytes()
    assert np.stack([f.values for f in feats]).tobytes() == values.tobytes()
    path.write_text("feat v1 dim=2\na 1_0 +2.5E0\n")
    assert load_features(path)[0].values.tolist() == [10.0, 2.5]
    path.write_text("feat v1 dim=3\n")
    assert load_features(path) == []


# ------------------------------------------------ references: the loop code


def kmeans_reference(data, k, rng, iters=100, tol=1e-6):
    """_kmeans with the exact (n, k, d) distance tensor and per-centre masks."""
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
                far = int(np.argmax(d2[np.arange(n), labels]))
                centers[j] = data[far]
        if prev_inertia is not None:
            base = max(abs(prev_inertia), 1e-12)
            if abs(prev_inertia - inertia) / base < tol:
                break
        prev_inertia = inertia
    return labels


def agglomerate_reference(features, k_init, n_centers, drop_fraction=0.0, rng=None):
    """agglomerate with the Python double loops for the drop step and the
    merge pick, over kmeans_reference."""
    k_init = min(k_init, len(features))
    data = np.stack([f.values for f in features])
    ids = [f.id for f in features]
    labels = kmeans_reference(data, k_init, rng)
    members = [list(np.flatnonzero(labels == j)) for j in range(k_init)]
    members = [m for m in members if m]
    sizes = np.asarray([len(g) for g in members], dtype=np.float64)
    k = len(members)
    link = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            d2 = _squared_distances(data[members[i]], data[members[j]])
            link[i, j] = link[j, i] = float(np.sqrt(d2).sum() / (sizes[i] * sizes[j]))
    if drop_fraction > 0 and len(members) > n_centers:
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
        to_drop = set(drop_order[:len(members) - n_centers])
        if to_drop:
            keep = [i for i in range(len(members)) if i not in to_drop]
            members = [members[i] for i in keep]
            link = link[np.ix_(keep, keep)]
    sizes = np.asarray([len(m) for m in members], dtype=np.float64)
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


def assert_same_clusters(got, expected):
    assert [c.members for c in got] == [c.members for c in expected]
    assert [c.centroid.tobytes() for c in got] == [c.centroid.tobytes() for c in expected]


def assert_matches_reference(feats, k_init, n_centers, seed, drop_fraction=0.0):
    data = np.stack([f.values for f in feats])
    k = min(k_init, len(feats))
    labels = _kmeans(data, k, np.random.default_rng(seed))
    expected = kmeans_reference(data, k, np.random.default_rng(seed))
    assert labels.dtype == expected.dtype and labels.tobytes() == expected.tobytes()
    assert_same_clusters(
        agglomerate(feats, k_init, n_centers, drop_fraction, np.random.default_rng(seed)),
        agglomerate_reference(feats, k_init, n_centers, drop_fraction, np.random.default_rng(seed)),
    )


class RecheckSpy:
    """Counts the rows _nearest_centres sends to the exact distances."""

    def __init__(self, monkeypatch):
        self.rows = 0
        monkeypatch.setattr(clustering, "_squared_distances", self)

    def __call__(self, a, b):
        self.rows += len(a)
        return _squared_distances(a, b)


def part_features(n_parts, per_part, seed):
    # the benchmark's feature files: 24-d vectors 10 * e_part + N(0, I)
    rng = np.random.default_rng(seed)
    feats = []
    for i in range(n_parts * per_part):
        vec = rng.normal(size=24)
        vec[i % n_parts] += 10.0
        feats.append(FeatureVector(f"p{i % n_parts}_{i}", vec))
    return feats


@pytest.mark.parametrize("n_parts, centres_per_part", [(18, 3), (6, 4)])
def test_matches_reference_on_benchmark_shaped_features(n_parts, centres_per_part):
    feats = part_features(n_parts, 720 // n_parts, seed=n_parts)
    for seed in range(8):
        assert_matches_reference(feats, n_parts * centres_per_part, n_parts, seed)


def test_screen_settles_every_row_of_separated_features(monkeypatch):
    feats = part_features(18, 40, seed=3)
    data = np.stack([f.values for f in feats])
    spy = RecheckSpy(monkeypatch)
    labels = _kmeans(data, 54, np.random.default_rng(0))
    assert spy.rows == 0
    monkeypatch.undo()
    assert labels.tobytes() == kmeans_reference(data, 54, np.random.default_rng(0)).tobytes()


def test_exact_recheck_fires_where_the_screen_cannot_order(monkeypatch):
    # offsets of 1e-6 on vectors of norm 1e8: the screen's rounding error
    # (~1e2) swamps every distance difference (~1e-12)
    rng = np.random.default_rng(6)
    base = np.full(3, 1e8)
    data = base + rng.normal(0.0, 1e-6, size=(40, 3))
    centers = base + rng.normal(0.0, 1e-6, size=(5, 3))
    spy = RecheckSpy(monkeypatch)
    labels = _nearest_centres(data, centers)
    assert spy.rows == len(data)
    monkeypatch.undo()
    assert labels.tobytes() == np.argmin(_squared_distances(data, centers), axis=1).tobytes()
    # an exact tie between two centres goes to the lower index
    spy = RecheckSpy(monkeypatch)
    assert _nearest_centres(np.zeros((1, 2)), np.array([[0.0, 1.0], [1.0, 0.0]])).tolist() == [0]
    assert spy.rows == 1


def test_screen_matches_exact_argmin_near_underflow():
    # squares of ~1e-160 are subnormal, where rounding error is absolute,
    # not relative: the screen's bound carries an absolute term for them
    rng = np.random.default_rng(0)
    for scale in 10.0 ** np.linspace(-165, -154, 45):
        data = rng.normal(size=(20, 2)) * scale
        centers = rng.normal(size=(4, 2)) * scale
        expected = np.argmin(_squared_distances(data, centers), axis=1)
        assert _nearest_centres(data, centers).tobytes() == expected.tobytes()


def test_centre_sums_keep_row_order():
    # decimal fractions: a centre's bits depend on the order its rows are
    # summed, and here a later assignment depends on those bits
    data = np.array([-0.3, -0.7, 0.7, -0.3, -0.7, 0.3, -0.2, -0.7, 0.0, 0.2, 0.2,
                     -0.1, -0.7, 0.1, 0.7, 0.0, 0.3, -0.2, 0.1, -0.2, 0.0])[:, None]
    expected = kmeans_reference(data, 5, np.random.default_rng(3))
    assert _kmeans(data, 5, np.random.default_rng(3)).tobytes() == expected.tobytes()


def test_empty_clusters_reseed_like_reference():
    # identical vectors leave every centre but the first empty
    data = np.ones((6, 2))
    labels = _kmeans(data, 3, np.random.default_rng(0))
    assert labels.tolist() == [0] * 6
    assert labels.tobytes() == kmeans_reference(data, 3, np.random.default_rng(0)).tobytes()


@pytest.mark.parametrize("drop_fraction", [0.5, 1.0])
def test_drop_step_matches_reference_loop(drop_fraction):
    rng = np.random.default_rng(8)
    feats = blob_features(rng, n_blobs=4, per_blob=10, sep=20.0)
    for i, (x, y) in enumerate([(400, 0), (0, 400), (-400, 0), (0, -400), (300, 300)]):
        feats.append(FeatureVector(f"out{i}", np.array([float(x), float(y)])))
    # two outliers are far enough to drop; at 15 centres only the farther may go
    for n_centers in (4, 15):
        for seed in range(4):
            assert_matches_reference(feats, 16, n_centers, seed, drop_fraction)
        kept = {m for c in agglomerate(feats, 16, n_centers, drop_fraction, np.random.default_rng(0))
                for m in c.members}
        assert len(kept) == len(feats) - (2 if n_centers == 4 else 1)


@st.composite
def feature_sets(draw):
    n = draw(st.integers(1, 20))
    d = draw(st.integers(1, 3))
    grid = np.array(draw(st.lists(st.lists(st.integers(-2, 2), min_size=d, max_size=d),
                                  min_size=n, max_size=n)), dtype=np.float64)
    if draw(st.booleans()):
        grid[:] = grid[0]
    noise = draw(st.sampled_from([0.0, 0.3]))
    scale = draw(st.sampled_from([1.0, 1e-3, 1e-160, 1e-320, 1e200, 1e307]))
    values = (grid + noise * np.random.default_rng(n).normal(size=grid.shape)) * scale
    n_centers = draw(st.integers(1, n))
    k_init = draw(st.sampled_from([n_centers, n, n + 3]))
    return [FeatureVector(f"f{i}", v) for i, v in enumerate(values)], k_init, n_centers


@given(feature_sets(), st.sampled_from([0.0, 0.5, 1.0]), st.integers(0, 3))
@settings(max_examples=150, deadline=None)
def test_matches_reference_on_ties_reseeds_and_overflow(case, drop_fraction, seed):
    feats, k_init, n_centers = case
    with np.errstate(over="ignore", invalid="ignore"):
        assert_matches_reference(feats, k_init, n_centers, seed, drop_fraction)
