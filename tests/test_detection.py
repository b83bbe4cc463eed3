import numpy as np
import pytest

from capsnlu.autodiff import ContractError, Tensor, finite_diff_check
from capsnlu.detection import (
    DetectionCapsParams,
    activation_norms,
    dynamic_routing,
    init_detection_params,
    margin_loss_batch,
    prediction_vectors,
    squash,
)


def routing_transcript_oracle(p: np.ndarray, iterations: int):
    """Line-by-line transcript of the agreement routing loop, written
    directly against the procedure: no shared code with the package
    implementation beyond numpy."""
    num_intents, heads, caps_dim = p.shape
    b = np.zeros((num_intents, heads))
    rec = {"b": [], "c": [], "s": [], "v": []}
    for _ in range(iterations):
        rec["b"].append(b.copy())
        c = np.zeros_like(b)
        for r in range(heads):
            col = b[:, r]
            e = np.exp(col - col.max())
            c[:, r] = e / e.sum()
        s = np.zeros((num_intents, caps_dim))
        for k in range(num_intents):
            for r in range(heads):
                s[k] += c[k, r] * p[k, r]
        v = np.zeros_like(s)
        for k in range(num_intents):
            n2 = float(np.dot(s[k], s[k]))
            if n2 > 0:
                v[k] = (n2 / (1.0 + n2)) * (s[k] / np.sqrt(n2))
        for k in range(num_intents):
            for r in range(heads):
                b[k, r] = b[k, r] + float(np.dot(p[k, r], v[k]))
        rec["c"].append(c.copy())
        rec["s"].append(s.copy())
        rec["v"].append(v.copy())
    return rec


FIXED_P = np.array(
    [
        [[0.8, -0.3], [0.2, 0.5]],
        [[-0.4, 0.9], [0.7, 0.1]],
    ],
    dtype=np.float64,
)


class TestPredictionVectors:
    def test_all_zero_transform(self):
        params = DetectionCapsParams(w=Tensor(np.zeros((3, 2, 4, 5))))
        m = Tensor(np.random.default_rng(0).normal(size=(2, 4)))
        np.testing.assert_array_equal(prediction_vectors(m, params).values, np.zeros((3, 2, 5)))

    def test_identity_transform(self):
        eye = np.stack([np.stack([np.eye(4)] * 2)] * 3)  # K=3, R=2, 4x4
        params = DetectionCapsParams(w=Tensor(eye))
        m_vals = np.random.default_rng(1).normal(size=(2, 4))
        p = prediction_vectors(Tensor(m_vals), params)
        for k in range(3):
            np.testing.assert_allclose(p.values[k], m_vals)

    def test_hand_values(self):
        w = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])  # K=1, R=1, 2x2
        m = np.array([[5.0, 6.0]])
        p = prediction_vectors(Tensor(m), DetectionCapsParams(w=Tensor(w)))
        np.testing.assert_allclose(p.values, [[[5 + 18, 10 + 24]]])

    def test_shape_mismatch(self):
        params = DetectionCapsParams(w=Tensor(np.zeros((2, 2, 4, 3))))
        with pytest.raises(ContractError):
            prediction_vectors(Tensor(np.zeros((2, 5))), params)

    def test_batched(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=(3, 2, 4, 5))
        m = rng.normal(size=(6, 2, 4))
        p = prediction_vectors(Tensor(m), DetectionCapsParams(w=Tensor(w)))
        assert p.shape == (6, 3, 2, 5)
        for b in range(6):
            for k in range(3):
                for r in range(2):
                    np.testing.assert_allclose(p.values[b, k, r], m[b, r] @ w[k, r], rtol=1e-12)


class TestSquash:
    def test_zero_limit(self):
        np.testing.assert_array_equal(squash(Tensor(np.zeros(2))).values, [0.0, 0.0])

    def test_unit_vector_halves(self):
        np.testing.assert_allclose(squash(Tensor([1.0, 0.0])).values, [0.5, 0.0], rtol=1e-7)

    def test_three_four(self):
        got = squash(Tensor(np.array([3.0, 4.0]))).values
        np.testing.assert_allclose(got, [25 / 26 * 0.6, 25 / 26 * 0.8], rtol=1e-12)

    def test_bounds_monotone_direction(self):
        rng = np.random.default_rng(3)
        prev_pairs = []
        for _ in range(100):
            s = rng.normal(scale=rng.uniform(0.01, 5.0), size=4)
            out = squash(Tensor(s)).values
            n_in = np.linalg.norm(s)
            n_out = np.linalg.norm(out)
            assert 0.0 <= n_out < 1.0
            if n_in > 0:
                np.testing.assert_allclose(out / n_out, s / n_in, rtol=1e-9)
            prev_pairs.append((n_in, n_out))
        prev_pairs.sort()
        outs = [b for _, b in prev_pairs]
        assert all(b2 > b1 for b1, b2 in zip(outs, outs[1:]))  # strictly increasing in ||s||


class TestDynamicRouting:
    def test_single_capsule_single_head(self):
        p_val = np.array([[[0.3, -0.7]]])
        trace = dynamic_routing(Tensor(p_val), iterations=1)
        np.testing.assert_allclose(trace.c[0], [[1.0]])
        np.testing.assert_allclose(trace.v[0][0], squash(Tensor(p_val[0, 0])).values, rtol=1e-12)

    def test_first_iteration_uniform(self):
        rng = np.random.default_rng(4)
        p = Tensor(rng.normal(size=(2, 3, 4)))
        trace = dynamic_routing(p, iterations=1)
        np.testing.assert_allclose(trace.c[0], np.full((2, 3), 0.5), atol=1e-12)
        np.testing.assert_array_equal(trace.b[0], np.zeros((2, 3)))

    def test_zero_iterations_rejected(self):
        with pytest.raises(ContractError):
            dynamic_routing(Tensor(np.zeros((1, 1, 1))), iterations=0)

    def test_transcript_oracle_fixed_instance(self):
        trace = dynamic_routing(Tensor(FIXED_P), iterations=3)
        want = routing_transcript_oracle(FIXED_P, 3)
        for it in range(3):
            np.testing.assert_allclose(trace.b[it], want["b"][it], atol=1e-10)
            np.testing.assert_allclose(trace.c[it], want["c"][it], atol=1e-10)
            np.testing.assert_allclose(trace.s[it], want["s"][it], atol=1e-10)
            np.testing.assert_allclose(trace.v[it], want["v"][it], atol=1e-10)

    def test_transcript_oracle_random_instances(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            k, r, d = rng.integers(1, 5), rng.integers(1, 5), rng.integers(1, 5)
            p = rng.normal(size=(k, r, d))
            trace = dynamic_routing(Tensor(p), iterations=3)
            want = routing_transcript_oracle(p, 3)
            for it in range(3):
                np.testing.assert_allclose(trace.c[it], want["c"][it], atol=1e-10)
                np.testing.assert_allclose(trace.v[it], want["v"][it], atol=1e-10)

    def test_coupling_normalized_every_iteration(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            k, r, d = rng.integers(1, 6), rng.integers(1, 6), rng.integers(1, 5)
            p = Tensor(rng.normal(scale=2.0, size=(k, r, d)))
            trace = dynamic_routing(p, iterations=3)
            for c in trace.c:
                np.testing.assert_allclose(c.sum(axis=0), np.ones(r), atol=1e-6)
            for v in trace.v:
                assert (np.linalg.norm(v, axis=-1) < 1.0).all()

    def test_intent_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            k = int(rng.integers(2, 5))
            p = rng.normal(size=(k, 3, 4))
            perm = rng.permutation(k)
            t1 = dynamic_routing(Tensor(p), iterations=3)
            t2 = dynamic_routing(Tensor(p[perm]), iterations=3)
            np.testing.assert_allclose(t2.v[-1], t1.v[-1][perm], atol=1e-12)
            winner_before = activation_norms(t1.v_final).argmax(-1)
            assert activation_norms(t2.v_final).argmax(-1) == int(np.argwhere(perm == winner_before)[0, 0])

    def test_batched_matches_loop(self):
        rng = np.random.default_rng(8)
        p = rng.normal(size=(5, 2, 3, 4))
        batched = dynamic_routing(Tensor(p), iterations=3)
        for i in range(5):
            single = dynamic_routing(Tensor(p[i]), iterations=3)
            np.testing.assert_allclose(batched.v[-1][i], single.v[-1], atol=1e-12)


class TestMarginLoss:
    def test_inactive_hinges(self):
        v = np.zeros((3, 2))
        v[0] = [0.9, 0.0]
        v[1] = [0.1, 0.0]
        v[2] = [0.05, 0.0]
        loss = margin_loss_batch(Tensor(v[None]), [0], Tensor(np.zeros(1)), penalty_weight=0.0)
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_full_positive_miss(self):
        v = np.zeros((1, 3, 2))
        loss = margin_loss_batch(Tensor(v), [0], Tensor(np.zeros(1)), penalty_weight=0.0)
        assert loss.item() == pytest.approx(0.81, rel=1e-9)

    def test_hand_hinge_arithmetic(self):
        v = np.zeros((2, 2))
        v[0] = [0.5, 0.0]   # true class
        v[1] = [0.6, 0.0]   # other class
        loss = margin_loss_batch(Tensor(v[None]), [0], Tensor(np.zeros(1)), downweight=0.5, penalty_weight=0.0)
        assert loss.item() == pytest.approx(0.4**2 + 0.5 * 0.5**2, rel=1e-9)

    def test_invalid_margins(self):
        with pytest.raises(ContractError):
            margin_loss_batch(Tensor(np.zeros((1, 2, 2))), [0], Tensor(np.zeros(1)), margin_pos=0.1, margin_neg=0.9)

    def test_penalty_term_added(self):
        v = Tensor(np.zeros((1, 2, 2)))
        base = margin_loss_batch(v, [0], Tensor(np.zeros(1)), penalty_weight=0.0).item()
        with_pen = margin_loss_batch(v, [0], Tensor(np.array([2.0])), penalty_weight=0.5).item()
        assert with_pen == pytest.approx(base + 1.0, rel=1e-9)

    def test_batch_mean(self):
        v = np.zeros((2, 2, 2))
        v[0, 0] = [0.9, 0.0]
        loss = margin_loss_batch(Tensor(v), [0, 0], Tensor(np.zeros(2)), penalty_weight=0.0)
        assert loss.item() == pytest.approx(0.81 / 2, rel=1e-9)


class TestClassify:
    def test_unique_max(self):
        v = np.zeros((1, 3, 2))
        v[0, 0, 0], v[0, 1, 0], v[0, 2, 0] = 0.2, 0.9, 0.1
        assert activation_norms(Tensor(v)).argmax(-1).tolist() == [1]

    def test_tie_lowest_index(self):
        v = np.zeros((1, 2, 2))
        v[0, 0, 0] = v[0, 1, 0] = 0.5
        assert activation_norms(Tensor(v)).argmax(-1).tolist() == [0]

    def test_matches_transcript_oracle_winner(self):
        trace = dynamic_routing(Tensor(FIXED_P[None]), iterations=3)
        want = routing_transcript_oracle(FIXED_P, 3)
        oracle_winner = int(np.argmax(np.linalg.norm(want["v"][-1], axis=-1)))
        assert activation_norms(trace.v_final).argmax(-1).tolist() == [oracle_winner]

    def test_activation_norms(self):
        v = np.array([[3.0, 4.0], [0.0, 1.0]])
        np.testing.assert_allclose(activation_norms(v), [5.0, 1.0])


class TestRoutingGradients:
    def test_loss_through_routing_gradcheck(self):
        rng = np.random.default_rng(9)
        for seed in range(3):
            rng = np.random.default_rng(90 + seed)
            params = init_detection_params(rng, num_intents=3, heads=2, in_dim=4, caps_dim=3, dtype=np.float64)
            m = Tensor(rng.normal(scale=0.4, size=(1, 2, 4)), requires_grad=True)

            def loss_fn(_):
                p = prediction_vectors(m, params)
                trace = dynamic_routing(p, iterations=3)
                return margin_loss_batch(trace.v_final, [1], Tensor(np.zeros(1)), penalty_weight=0.0)

            norms = activation_norms(
                dynamic_routing(prediction_vectors(m, params), iterations=3).v_final
            )
            if (np.abs(norms - 0.9) < 1e-3).any() or (np.abs(norms - 0.1) < 1e-3).any():
                continue  # hinge kink, skip this draw
            err = finite_diff_check(loss_fn, [("m", m), ("w", params.w)], epsilon=1e-4)
            assert err < 1e-4
