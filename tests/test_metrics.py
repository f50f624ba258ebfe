import json

import numpy as np
import pytest

from motionfuse import metrics
from motionfuse.tensor import SeededRng


def one_hots(k, counts):
    rows = []
    for cls, c in enumerate(counts):
        for _ in range(c):
            row = np.zeros(k)
            row[cls] = 1.0
            rows.append(row)
    return np.stack(rows)


def random_dists(rng, n, k):
    raw = rng.uniforms((n, k)) + 1e-3
    return raw / raw.sum(axis=1, keepdims=True)


class TestInterEntropy:
    def test_identical_one_hots(self):
        assert metrics.inter_entropy(one_hots(5, [3, 0, 0, 0, 0])) == 0.0

    def test_balanced_one_hots_k90(self):
        h = metrics.inter_entropy(one_hots(90, [1] * 90))
        assert abs(h - np.log(90)) < 1e-12
        assert round(h, 2) == 4.50

    def test_two_complementary(self):
        h = metrics.inter_entropy(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert abs(h - np.log(2)) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            metrics.inter_entropy(np.zeros((0, 3)))


class TestMeanIntraEntropy:
    def test_one_hots_zero(self):
        assert metrics.mean_intra_entropy(one_hots(4, [2, 2, 0, 0])) == 0.0

    def test_uniform_k6(self):
        h = metrics.mean_intra_entropy(np.full((3, 6), 1 / 6))
        assert abs(h - np.log(6)) < 1e-12

    def test_mixed_average(self):
        dists = np.array([[1.0, 0.0], [0.5, 0.5]])
        assert abs(metrics.mean_intra_entropy(dists) - np.log(2) / 2) < 1e-12


class TestInceptionScore:
    def test_uniform_lower_bound(self):
        assert abs(metrics.inception_score(np.full((7, 4), 0.25)) - 1.0) < 1e-12

    def test_balanced_one_hots_hit_k(self):
        for k in (20, 90):
            score = metrics.inception_score(one_hots(k, [1] * k))
            assert abs(score - k) < 1e-9

    def test_entropy_and_kl_forms_agree(self):
        rng = SeededRng(0)
        for _ in range(10):
            d = random_dists(rng, 12, 5)
            entropy_form = np.exp(metrics.inter_entropy(d) - metrics.mean_intra_entropy(d))
            assert abs(metrics.inception_score(d) - entropy_form) < 1e-9

    def test_bounds(self):
        rng = SeededRng(1)
        for _ in range(20):
            d = random_dists(rng, 9, 6)
            score = metrics.inception_score(d)
            assert 1.0 - 1e-12 <= score <= 6.0 + 1e-12

    def test_permutation_invariance(self):
        rng = SeededRng(2)
        d = random_dists(rng, 10, 4)
        shuffled = d[::-1]
        relabeled = d[:, [2, 0, 3, 1]]
        for other in (shuffled, relabeled):
            assert abs(metrics.inception_score(d) - metrics.inception_score(other)) < 1e-12
            assert abs(metrics.inter_entropy(d) - metrics.inter_entropy(other)) < 1e-12


class TestDistributionValidation:
    def test_negative_entry(self):
        with pytest.raises(ValueError):
            metrics.inter_entropy(np.array([[1.2, -0.2]]))

    def test_bad_sum(self):
        with pytest.raises(ValueError):
            metrics.inter_entropy(np.array([[0.5, 0.4]]))


class TestReport:
    def test_internal_consistency(self):
        rng = SeededRng(3)
        rep = metrics.MetricsReport.from_distributions(random_dists(rng, 15, 4))
        assert abs(
            rep.inception_score - np.exp(rep.inter_entropy - rep.mean_intra_entropy)
        ) < 1e-9

    def test_json_fields(self):
        rep = metrics.MetricsReport.from_distributions(np.full((3, 4), 0.25))
        doc = json.loads(rep.to_json())
        assert set(doc) == {"K", "N", "inter_entropy", "mean_intra_entropy", "inception_score"}
        assert doc["K"] == 4 and doc["N"] == 3


class TestEvaluateWithClassifier:
    def test_memorizing_classifier_reaches_k(self):
        k = 4
        clips = [np.full((10, 1, 8, 8), float(cls)) for cls in range(k) for _ in range(5)]

        def memorized(clip):
            cls = int(clip[0, 0, 0, 0])
            p = np.full(k, 1e-9)
            p[cls] = 1.0 - (k - 1) * 1e-9
            return p

        rep = metrics.evaluate_with_classifier(clips, memorized)
        assert abs(rep.inception_score - k) < 0.05

    def test_uniform_classifier_scores_one(self):
        clips = [np.zeros((10, 1, 8, 8))] * 6
        rep = metrics.evaluate_with_classifier(clips, lambda clip: np.full(3, 1 / 3))
        assert rep.inception_score == 1.0
