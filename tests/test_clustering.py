import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spatialspn.clustering import (
    Cluster,
    FeatureVector,
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
