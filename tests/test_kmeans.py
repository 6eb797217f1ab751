"""Unit tests for k-means with k-means++ initialization."""

import numpy as np
import pytest

import repro.ml.kmeans as kmeans_module
from repro.errors import NotFittedError
from repro.ml.kmeans import KMeans, _kmeans_plus_plus, cluster_means, cluster_sums
from repro.ml.xmeans import XMeans


@pytest.fixture(scope="module")
def blobs():
    rng = np.random.default_rng(0)
    centers = np.array([[0.0, 0.0], [6.0, 0.0], [0.0, 6.0]])
    data = np.vstack([rng.normal(c, 0.4, size=(50, 2)) for c in centers])
    return data, centers


class TestKMeans:
    def test_recovers_blob_centers(self, blobs):
        data, true_centers = blobs
        model = KMeans(n_clusters=3, seed=1).fit(data)
        # Each true center must be close to exactly one found center.
        matched = set()
        for true_center in true_centers:
            distances = np.linalg.norm(
                model.cluster_centers_ - true_center, axis=1
            )
            nearest = int(np.argmin(distances))
            assert distances[nearest] < 0.5
            matched.add(nearest)
        assert len(matched) == 3

    def test_labels_partition_data(self, blobs):
        data, __ = blobs
        model = KMeans(n_clusters=3, seed=1).fit(data)
        sizes = np.bincount(model.labels_, minlength=3)
        assert sizes.sum() == data.shape[0]
        assert np.all(sizes > 30)

    def test_inertia_decreases_with_more_clusters(self, blobs):
        data, __ = blobs
        inertia_2 = KMeans(n_clusters=2, seed=1).fit(data).inertia_
        inertia_3 = KMeans(n_clusters=3, seed=1).fit(data).inertia_
        assert inertia_3 < inertia_2

    def test_predict_assigns_nearest_center(self, blobs):
        data, __ = blobs
        model = KMeans(n_clusters=3, seed=1).fit(data)
        assignments = model.predict(np.array([[0.1, 0.1], [5.9, 0.2]]))
        centers = model.cluster_centers_
        assert np.linalg.norm(centers[assignments[0]] - [0, 0]) < 1.0
        assert np.linalg.norm(centers[assignments[1]] - [6, 0]) < 1.0

    def test_fit_predict_matches_labels(self, blobs):
        data, __ = blobs
        model = KMeans(n_clusters=3, seed=1)
        labels = model.fit_predict(data)
        assert np.array_equal(labels, model.labels_)

    def test_deterministic_with_seed(self, blobs):
        data, __ = blobs
        a = KMeans(n_clusters=3, seed=9).fit(data)
        b = KMeans(n_clusters=3, seed=9).fit(data)
        assert np.array_equal(a.labels_, b.labels_)

    def test_k_equals_n(self):
        data = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        model = KMeans(n_clusters=3, seed=0).fit(data)
        assert model.inertia_ == pytest.approx(0.0)

    def test_duplicate_points(self):
        data = np.vstack([np.zeros((5, 2)), np.ones((5, 2))])
        model = KMeans(n_clusters=2, seed=0).fit(data)
        assert model.inertia_ == pytest.approx(0.0)


class TestValidation:
    def test_more_clusters_than_samples(self):
        with pytest.raises(ValueError):
            KMeans(n_clusters=5).fit(np.zeros((3, 2)))

    def test_not_fitted_predict(self):
        with pytest.raises(NotFittedError):
            KMeans(n_clusters=2).predict(np.zeros((2, 2)))

    def test_bad_constructor(self):
        with pytest.raises(ValueError):
            KMeans(n_clusters=0)
        with pytest.raises(ValueError):
            KMeans(n_clusters=2, n_init=0)

    def test_1d_rejected(self):
        with pytest.raises(ValueError):
            KMeans(n_clusters=2).fit(np.zeros(5))


class TestKMeansPlusPlus:
    def test_centers_are_data_points(self, blobs, rng):
        data, __ = blobs
        centers = _kmeans_plus_plus(data, 3, rng)
        for center in centers:
            assert np.any(np.all(np.isclose(data, center), axis=1))

    def test_spreads_across_blobs(self, blobs, rng):
        data, __ = blobs
        centers = _kmeans_plus_plus(data, 3, rng)
        # Pairwise distances between picked seeds should be blob-scale.
        for i in range(3):
            for j in range(i + 1, 3):
                assert np.linalg.norm(centers[i] - centers[j]) > 2.0


class TestClusterSums:
    def test_matches_per_cluster_loop(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(200, 6))
        labels = rng.integers(0, 5, size=200)
        sums, counts = cluster_sums(data, labels, 5)
        for cluster in range(5):
            members = data[labels == cluster]
            assert counts[cluster] == members.shape[0]
            np.testing.assert_allclose(
                sums[cluster], members.sum(axis=0), atol=1e-9
            )

    def test_empty_clusters_zeroed(self):
        data = np.ones((4, 2))
        labels = np.array([0, 0, 3, 3])
        means, counts = cluster_means(data, labels, 5)
        np.testing.assert_array_equal(counts, [2, 0, 0, 2, 0])
        np.testing.assert_array_equal(means[1], np.zeros(2))
        np.testing.assert_array_equal(means[0], np.ones(2))

    def test_lloyd_update_unchanged_qualitatively(self):
        # Same blobs must still recover the same partition.
        rng = np.random.default_rng(1)
        blobs = np.vstack(
            [rng.normal(loc=c, scale=0.2, size=(30, 2)) for c in (0, 5, 10)]
        )
        model = KMeans(n_clusters=3, seed=0).fit(blobs)
        labels = model.labels_
        for start in (0, 30, 60):
            group = labels[start : start + 30]
            assert np.all(group == group[0])


class TestCompiledScatterParity:
    """The compiled scatter must reproduce ``np.add.at`` bit for bit."""

    @staticmethod
    def _reference(monkeypatch):
        monkeypatch.setattr(
            kmeans_module,
            "segment_scatter_add",
            lambda out, indices, updates: np.add.at(out, indices, updates),
        )

    def test_cluster_sums_byte_equal(self, monkeypatch):
        rng = np.random.default_rng(3)
        data = rng.normal(scale=1e3, size=(500, 7))
        labels = rng.integers(0, 9, size=500)
        sums, counts = cluster_sums(data, labels, 9)
        self._reference(monkeypatch)
        ref_sums, ref_counts = cluster_sums(data, labels, 9)
        assert sums.tobytes() == ref_sums.tobytes()
        np.testing.assert_array_equal(counts, ref_counts)

    @pytest.mark.parametrize("model_factory", [
        lambda: KMeans(n_clusters=6, seed=4),
        lambda: XMeans(k_min=2, k_max=12, seed=4),
    ], ids=["kmeans", "xmeans"])
    def test_labels_and_centers_byte_equal(self, monkeypatch, model_factory):
        rng = np.random.default_rng(5)
        data = np.vstack(
            [rng.normal(c, 0.7, size=(60, 4)) for c in range(0, 24, 4)]
        )
        compiled = model_factory().fit(data)
        self._reference(monkeypatch)
        reference = model_factory().fit(data)
        assert compiled.labels_.tobytes() == reference.labels_.tobytes()
        assert compiled.cluster_centers_.tobytes() == (
            reference.cluster_centers_.tobytes()
        )
