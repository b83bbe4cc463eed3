import math
import re

import numpy as np
import pytest

from capsnlu.autodiff import ContractError, Tensor
from capsnlu.detection import dynamic_routing, squash
from capsnlu.zeroshot import (
    classify_emerging_batch,
    intent_similarity,
    similarity_variance,
    vote_vectors,
    zero_shot_prediction_vectors,
)

from test_detection import FIXED_P, routing_transcript_oracle


class TestVoteVectors:
    def test_uniform_coupling_scales(self):
        rng = np.random.default_rng(0)
        p = Tensor(rng.normal(size=(4, 2, 3)))
        trace = dynamic_routing(p, iterations=1)  # first round couples uniformly at 1/K
        g = vote_vectors(trace, p)
        np.testing.assert_allclose(g, p.values / 4.0, rtol=1e-12)

    def test_single_intent_identity(self):
        rng = np.random.default_rng(1)
        p = Tensor(rng.normal(size=(1, 3, 2)))
        trace = dynamic_routing(p, iterations=3)
        np.testing.assert_allclose(vote_vectors(trace, p), p.values, rtol=1e-12)

    def test_matches_transcript_oracle(self):
        trace = dynamic_routing(Tensor(FIXED_P), iterations=3)
        want = routing_transcript_oracle(FIXED_P, 3)
        g = vote_vectors(trace, FIXED_P)
        np.testing.assert_allclose(g, want["c"][-1][..., None] * FIXED_P, atol=1e-12)

    def test_shape_mismatch(self):
        p = Tensor(np.zeros((2, 2, 2)))
        trace = dynamic_routing(p, iterations=1)
        with pytest.raises(ContractError):
            vote_vectors(trace, np.zeros((3, 2, 2)))


class TestIntentSimilarity:
    def test_equal_distances_uniform(self):
        emerging = np.array([[0.0, 0.0]])
        existing = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        sim = intent_similarity(emerging, existing, sigma=2.0)
        np.testing.assert_allclose(sim.q, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-12)

    def test_hand_softmax_of_zero_and_minus_one(self):
        # distances 0 and sigma^2 give softmax(0, -1)
        sigma = 2.0
        emerging = np.array([[0.0, 0.0]])
        existing = np.array([[0.0, 0.0], [sigma, 0.0]])
        sim = intent_similarity(emerging, existing, sigma=sigma)
        want0 = 1.0 / (1.0 + math.exp(-1.0))
        np.testing.assert_allclose(sim.q, [[want0, 1.0 - want0]], rtol=1e-10)
        np.testing.assert_allclose(sim.q, [[0.7311, 0.2689]], atol=1e-4)

    def test_huge_sigma_flattens(self):
        rng = np.random.default_rng(2)
        emerging = rng.normal(size=(3, 4))
        existing = rng.normal(size=(5, 4))
        sim = intent_similarity(emerging, existing, sigma=1e6)
        np.testing.assert_allclose(sim.q, np.full((3, 5), 0.2), atol=1e-3)

    def test_sigma_contract(self):
        # a NaN sigma would give an all-NaN q, and an infinite one a
        # uniform q that ignores the embeddings
        for sigma in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ContractError, match="sigma"):
                intent_similarity(np.zeros((1, 2)), np.zeros((1, 2)), sigma=sigma)

    @pytest.mark.parametrize(
        "emerging, existing", [((2, 3), (4, 5)), ((3,), (4, 3)), ((2, 3), (4, 3, 1))], ids=["dims", "1-d", "3-d"]
    )
    def test_embeddings_that_do_not_conform_are_named(self, emerging, existing):
        with pytest.raises(ContractError, match=re.escape(f"embedding shapes do not conform: {emerging} vs {existing}")):
            intent_similarity(np.zeros(emerging), np.zeros(existing), sigma=1.0)

    def test_sigma_whose_square_underflows_is_named(self):
        # sigma * sigma = 0 would divide every distance by zero: all-NaN rows
        with pytest.raises(ContractError, match="sigma must be positive with a positive, finite square, got 1e-200"):
            intent_similarity(np.eye(2), np.eye(2), sigma=1e-200)

    def test_sigma_whose_square_overflows_is_named(self):
        # sigma * sigma = inf would scale every distance to -0.0: uniform
        # rows that ignore the embeddings, as an infinite sigma would give
        with pytest.raises(ContractError, match="sigma must be positive with a positive, finite square, got 1e\\+200"):
            intent_similarity(np.eye(2), np.eye(2), sigma=1e200)

    def test_sigma_whose_scaled_distance_overflows_is_named(self):
        # sigma * sigma = 1e-320 is positive and finite, but the distances
        # 2 and 5 scale past float64's range: the softmax's max shift would
        # give inf - inf, all-NaN rows
        with pytest.raises(ContractError, match="sigma 1e-160 leaves a scaled embedding distance that is not finite"):
            intent_similarity([[1, 0]], [[0, 1], [0, 2]], sigma=1e-160)

    def test_rows_stochastic_and_positive(self):
        # sigma >= 1 with unit-scale embeddings keeps every exp(-d)
        # representable; below float underflow Q saturates to one-hot
        rng = np.random.default_rng(3)
        for _ in range(100):
            l, k, d = rng.integers(1, 5), rng.integers(1, 6), rng.integers(1, 5)
            sim = intent_similarity(
                rng.normal(size=(l, d)),
                rng.normal(size=(k, d)),
                sigma=float(rng.uniform(1.0, 10.0)),
            )
            np.testing.assert_allclose(sim.q.sum(axis=-1), np.ones(l), atol=1e-6)
            assert (sim.q > 0.0).all() and (sim.q <= 1.0).all()

    def test_tiny_sigma_saturates_one_hot(self):
        emerging = np.array([[0.0, 0.0]])
        existing = np.array([[0.0, 0.0], [1.0, 0.0]])
        sim = intent_similarity(emerging, existing, sigma=0.01)
        np.testing.assert_allclose(sim.q, [[1.0, 0.0]], atol=1e-12)

    def test_sigma_limit_monotone(self):
        rng = np.random.default_rng(4)
        emerging = rng.normal(size=(3, 6))
        existing = rng.normal(size=(4, 6))
        deviations = []
        for sigma in (1.0, 10.0, 100.0, 1e4):
            q = intent_similarity(emerging, existing, sigma).q
            deviations.append(np.abs(q - 1.0 / 4).max())
        assert all(b < a for a, b in zip(deviations, deviations[1:]))


class TestZeroShotPredictionVectors:
    def test_one_hot_selects(self):
        rng = np.random.default_rng(5)
        g = rng.normal(size=(1, 3, 2, 4))
        q = np.array([[0.0, 1.0, 0.0]])
        np.testing.assert_allclose(zero_shot_prediction_vectors(q, g), g[:, 1:2], rtol=1e-12)

    def test_uniform_averages(self):
        rng = np.random.default_rng(6)
        g = rng.normal(size=(1, 4, 2, 3))
        q = np.full((2, 4), 0.25)
        u = zero_shot_prediction_vectors(q, g)
        np.testing.assert_allclose(u[0, 0], g[0].mean(axis=0), rtol=1e-12)
        np.testing.assert_allclose(u[0, 1], g[0].mean(axis=0), rtol=1e-12)

    def test_hand_weighted_sum(self):
        g = np.array([[[[1.0, 2.0]], [[3.0, 4.0]]]])  # B=1, K=2, R=1, D=2
        q = np.array([[0.25, 0.75]])
        np.testing.assert_allclose(
            zero_shot_prediction_vectors(q, g), [[[[0.25 * 1 + 0.75 * 3, 0.25 * 2 + 0.75 * 4]]]]
        )

    def test_dimension_error(self):
        with pytest.raises(ContractError):
            zero_shot_prediction_vectors(np.ones((1, 3)), np.zeros((1, 2, 2, 2)))
        with pytest.raises(ContractError):  # votes without the batch axis
            zero_shot_prediction_vectors(np.ones((1, 2)), np.zeros((2, 2, 2)))


class TestClassifyEmerging:
    def test_single_emerging_class(self):
        rng = np.random.default_rng(7)
        u = rng.normal(size=(1, 1, 3, 4))
        winners, n = classify_emerging_batch(u, iterations=3)
        assert winners.tolist() == [0]
        # with one target capsule the couplings are all 1 at every round
        want = squash(Tensor(u[0, 0].sum(axis=0)))
        np.testing.assert_allclose(n[0, 0], want, rtol=1e-10)

    def test_doubled_predictions_win(self):
        rng = np.random.default_rng(8)
        base = rng.normal(size=(1, 2, 3))
        u = np.concatenate([base, 2.0 * base], axis=0)[None]
        winners, n = classify_emerging_batch(u, iterations=3)
        assert winners.tolist() == [1]
        assert np.linalg.norm(n[0, 1]) > np.linalg.norm(n[0, 0])

    def test_matches_transcript_oracle(self):
        u = FIXED_P  # reuse the fixed K=2,R=2,D=2 instance as L=2 emerging predictions
        winners, n = classify_emerging_batch(u[None], iterations=3)
        want = routing_transcript_oracle(u, 3)
        np.testing.assert_allclose(n[0], want["v"][-1], atol=1e-10)
        assert winners.tolist() == [int(np.argmax(np.linalg.norm(want["v"][-1], axis=-1)))]

    def test_emerging_permutation_equivariance(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            l = int(rng.integers(2, 5))
            u = rng.normal(size=(l, 3, 4))
            perm = rng.permutation(l)
            w1, n1 = classify_emerging_batch(u[None], iterations=3)
            w2, n2 = classify_emerging_batch(u[perm][None], iterations=3)
            np.testing.assert_allclose(n2[0], n1[0][perm], atol=1e-12)
            assert w2[0] == int(np.argwhere(perm == w1[0])[0, 0])

    def test_batch_matches_single(self):
        rng = np.random.default_rng(10)
        u = rng.normal(size=(6, 2, 3, 4))
        winners, n = classify_emerging_batch(u, iterations=3)
        for i in range(6):
            w_i, n_i = classify_emerging_batch(u[i : i + 1], iterations=3)
            assert winners[i] == w_i[0]
            np.testing.assert_allclose(n[i], n_i[0], atol=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        u = rng.normal(size=(1, 3, 2, 4))
        first = classify_emerging_batch(u, iterations=3)
        second = classify_emerging_batch(u, iterations=3)
        np.testing.assert_array_equal(first[0], second[0])
        np.testing.assert_array_equal(first[1], second[1])


class TestSimilarityVariance:
    def test_uniform_row_zero(self):
        np.testing.assert_allclose(similarity_variance(np.full((1, 4), 0.25)), [0.0], atol=1e-15)

    def test_hand_one_zero(self):
        np.testing.assert_allclose(similarity_variance(np.array([[1.0, 0.0]])), [0.25], rtol=1e-12)

    def test_hand_softmax_row(self):
        q0 = 1.0 / (1.0 + math.exp(-1.0))
        got = similarity_variance(np.array([[q0, 1.0 - q0]]))
        # population variance of two points is their half-gap squared
        np.testing.assert_allclose(got, [(q0 - 0.5) ** 2], rtol=1e-12)
        assert got[0] == pytest.approx(0.05337, abs=1e-4)
