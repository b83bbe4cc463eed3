import numpy as np
import pytest

from capsnlu.autodiff import Tensor, finite_diff_check
from capsnlu.semantic import (
    LstmParams,
    SemanticCapsParams,
    attend,
    encode_tokens,
    init_semantic_params,
    orthogonality_penalty,
    semantic_vectors,
)


def make_params(rng, word_dim=3, hidden_dim=2, attn_dim=3, heads=2):
    return init_semantic_params(rng, word_dim, hidden_dim, attn_dim, heads, dtype=np.float64)


def zero_params(word_dim, hidden_dim, attn_dim, heads):
    def lstm():
        b = np.zeros((1, 4 * hidden_dim))
        b[0, hidden_dim : 2 * hidden_dim] = 1.0
        return LstmParams(
            w_x=Tensor(np.zeros((word_dim, 4 * hidden_dim)), requires_grad=True),
            w_h=Tensor(np.zeros((hidden_dim, 4 * hidden_dim)), requires_grad=True),
            b=Tensor(b, requires_grad=True),
        )

    return SemanticCapsParams(
        lstm_fw=lstm(),
        lstm_bw=lstm(),
        w_s1=Tensor(np.zeros((attn_dim, 2 * hidden_dim)), requires_grad=True),
        w_s2=Tensor(np.zeros((heads, attn_dim)), requires_grad=True),
    )


def ref_lstm(x_seq, w_x, w_h, b):
    """Independent step-by-step unroll of the 4-gate cell (i, f, o, g)."""
    dh = w_h.shape[0]
    h = np.zeros(dh)
    c = np.zeros(dh)
    out = []
    for x in x_seq:
        z = x @ w_x + h @ w_h + b[0]
        i = 1.0 / (1.0 + np.exp(-z[0:dh]))
        f = 1.0 / (1.0 + np.exp(-z[dh : 2 * dh]))
        o = 1.0 / (1.0 + np.exp(-z[2 * dh : 3 * dh]))
        g = np.tanh(z[3 * dh : 4 * dh])
        c = f * c + i * g
        h = o * np.tanh(c)
        out.append(h.copy())
    return out


class TestInit:
    def test_forget_gate_bias_starts_open(self):
        rng = np.random.default_rng(0)
        params = init_semantic_params(rng, word_dim=4, hidden_dim=3, attn_dim=2, heads=2)
        for cell in (params.lstm_fw, params.lstm_bw):
            b = cell.b.values[0]
            np.testing.assert_array_equal(b[3:6], 1.0)   # forget block
            np.testing.assert_array_equal(b[:3], 0.0)
            np.testing.assert_array_equal(b[6:], 0.0)

    def test_glorot_bounds(self):
        rng = np.random.default_rng(1)
        params = init_semantic_params(rng, word_dim=6, hidden_dim=4, attn_dim=3, heads=2)
        bound = np.sqrt(6.0 / (6 + 4))
        assert (np.abs(params.lstm_fw.w_x.values) <= bound).all()
        assert params.w_s1.shape == (3, 8) and params.w_s2.shape == (2, 3)


class TestBilstmEncode:
    def test_zero_weights_zero_states(self):
        params = zero_params(word_dim=3, hidden_dim=2, attn_dim=3, heads=2)
        emb = Tensor(np.ones((5, 3)))
        big_h, _ = encode_tokens([[0, 1, 2]], emb, params)
        np.testing.assert_array_equal(big_h.values, np.zeros((1, 3, 4)))

    def test_single_token_symmetry(self):
        rng = np.random.default_rng(2)
        params = make_params(rng)
        params.lstm_bw = params.lstm_fw  # identical directions
        emb = Tensor(np.random.default_rng(3).normal(size=(4, 3)))
        big_h, _ = encode_tokens([[2]], emb, params)
        np.testing.assert_allclose(big_h.values[0, 0, :2], big_h.values[0, 0, 2:])

    def test_two_step_scalar_oracle(self):
        w_x = np.array([[0.5, 0.25, -0.3, 0.8]])
        w_h = np.array([[0.1, 0.2, 0.3, -0.1]])
        b = np.array([[0.05, 1.0, -0.05, 0.1]])
        cell = LstmParams(w_x=Tensor(w_x), w_h=Tensor(w_h), b=Tensor(b))
        params = SemanticCapsParams(
            lstm_fw=cell, lstm_bw=cell, w_s1=Tensor(np.zeros((1, 2))), w_s2=Tensor(np.zeros((1, 1)))
        )
        emb = Tensor(np.array([[1.0], [-0.5]]))
        big_h, _ = encode_tokens([[0, 1]], emb, params)
        h = big_h.values[0]
        # frozen from the independent unroll
        np.testing.assert_allclose(
            h[:, 0], [0.17584041169094367, 0.09801330869049425], rtol=1e-12
        )
        np.testing.assert_allclose(
            h[:, 1], [0.13867004951129658, -0.06845330547242791], rtol=1e-12
        )
        # and against the oracle run fresh
        xs = emb.values[[0, 1]]
        np.testing.assert_allclose(h[:, :1], ref_lstm(xs, w_x, w_h, b), rtol=1e-12)
        np.testing.assert_allclose(
            h[:, 1:], ref_lstm(xs[::-1], w_x, w_h, b)[::-1], rtol=1e-12
        )

    def test_random_batch_matches_oracle_per_sequence(self):
        rng = np.random.default_rng(7)
        params = make_params(rng, word_dim=3, hidden_dim=2)
        emb_vals = rng.normal(size=(6, 3))
        emb = Tensor(emb_vals)
        seqs = [[0, 1, 2, 3], [4, 5]]
        big_h, mask = encode_tokens(seqs, emb, params, pad_id=0)
        for si, seq in enumerate(seqs):
            xs = emb_vals[seq]
            fw = ref_lstm(xs, params.lstm_fw.w_x.values, params.lstm_fw.w_h.values, params.lstm_fw.b.values)
            bw = ref_lstm(xs[::-1], params.lstm_bw.w_x.values, params.lstm_bw.w_h.values, params.lstm_bw.b.values)[::-1]
            want = np.hstack([fw, bw])
            np.testing.assert_allclose(big_h.values[si, : len(seq)], want, rtol=1e-10)
        np.testing.assert_array_equal(mask, [[True] * 4, [True, True, False, False]])


class TestAttend:
    def test_zero_w_s2_uniform_rows(self):
        rng = np.random.default_rng(0)
        params = make_params(rng)
        params.w_s2 = Tensor(np.zeros_like(params.w_s2.values), requires_grad=True)
        big_h = Tensor(rng.normal(size=(5, 4)))
        attn, _ = attend(big_h, params)
        np.testing.assert_allclose(attn.values, np.full((2, 5), 0.2), atol=1e-12)

    def test_mask_limits_uniform_support(self):
        rng = np.random.default_rng(0)
        params = make_params(rng)
        params.w_s2 = Tensor(np.zeros_like(params.w_s2.values), requires_grad=True)
        big_h = Tensor(rng.normal(size=(5, 4)))
        attn, _ = attend(big_h, params, pad_mask=[True, True, True, False, False])
        np.testing.assert_allclose(attn.values[:, :3], np.full((2, 3), 1 / 3), atol=1e-12)
        np.testing.assert_array_equal(attn.values[:, 3:], np.zeros((2, 2)))

    def test_one_hot_single_head_penalty_zero(self):
        attn = Tensor(np.array([[1.0, 0.0, 0.0]]))
        assert orthogonality_penalty(attn).item() == pytest.approx(0.0, abs=1e-12)

    def test_identical_one_hot_rows_penalty_two(self):
        attn = Tensor(np.array([[0.0, 1.0, 0.0], [0.0, 1.0, 0.0]]))
        assert orthogonality_penalty(attn).item() == pytest.approx(2.0, rel=1e-12)

    def test_rows_stochastic_random(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            t = int(rng.integers(2, 7))
            params = make_params(rng, word_dim=3, hidden_dim=2, attn_dim=3, heads=3)
            big_h = Tensor(rng.normal(size=(t, 4)))
            real = int(rng.integers(1, t + 1))
            pad_mask = np.arange(t) < real
            attn, penalty = attend(big_h, params, pad_mask=pad_mask)
            np.testing.assert_allclose(attn.values.sum(axis=-1), np.ones(3), atol=1e-6)
            assert (attn.values >= 0).all()
            np.testing.assert_array_equal(attn.values[:, real:], 0.0)
            assert penalty.item() >= 0.0


class TestSemanticVectors:
    def test_uniform_attention_is_mean(self):
        big_h = Tensor(np.arange(12.0).reshape(3, 4))
        attn = Tensor(np.full((2, 3), 1 / 3))
        m = semantic_vectors(attn, big_h)
        np.testing.assert_allclose(m.values, np.tile(big_h.values.mean(axis=0), (2, 1)))

    def test_one_hot_selects_row(self):
        big_h = Tensor(np.arange(12.0).reshape(3, 4))
        attn = Tensor(np.array([[0.0, 0.0, 1.0]]))
        np.testing.assert_allclose(semantic_vectors(attn, big_h).values, big_h.values[2:3])

    def test_hand_matmul(self):
        a = np.array([[0.2, 0.3, 0.5], [0.1, 0.8, 0.1]])
        h = np.arange(12.0).reshape(3, 4)
        want = [[sum(a[i, k] * h[k, j] for k in range(3)) for j in range(4)] for i in range(2)]
        got = semantic_vectors(Tensor(a), Tensor(h)).values
        np.testing.assert_allclose(got, want, rtol=1e-12)


class TestPaddingInvariance:
    def test_pads_change_nothing(self):
        rng = np.random.default_rng(40)
        for trial in range(100):
            params = make_params(rng, word_dim=3, hidden_dim=2, attn_dim=3, heads=2)
            emb_vals = rng.normal(size=(7, 3))
            pad_id = 6
            emb_vals[pad_id] = 0.0
            emb = Tensor(emb_vals)
            n = int(rng.integers(1, 5))
            seq = rng.integers(0, 6, size=n).tolist()
            # row 0 of a batch with a 3-token-longer neighbour carries 3 pads
            h1, m1 = encode_tokens([seq], emb, params)
            h2, m2 = encode_tokens([seq, seq + [0, 1, 2]], emb, params, pad_id=pad_id)
            out1 = _semantic_m(h1, params, m1)
            out2 = _semantic_m(h2, params, m2)
            np.testing.assert_allclose(out1.values, out2.values[:1], atol=1e-6)


def _semantic_m(big_h, params, mask):
    attn, _ = attend(big_h, params, pad_mask=mask)
    return semantic_vectors(attn, big_h)


class TestGradients:
    def test_semantic_path_gradcheck(self):
        rng = np.random.default_rng(21)
        params = make_params(rng, word_dim=3, hidden_dim=2, attn_dim=3, heads=2)
        emb = Tensor(rng.normal(scale=0.3, size=(5, 3)).astype(np.float64), requires_grad=True)
        tokens = [0, 3, 1, 4]

        def loss_fn(_):
            big_h, _ = encode_tokens([tokens], emb, params)
            attn, penalty = attend(big_h, params)
            m = semantic_vectors(attn, big_h)
            return m.sum() + penalty.sum()

        named = params.trainable() + [("embedding", emb)]
        err = finite_diff_check(loss_fn, named, epsilon=1e-4)
        assert err < 1e-4

    def test_ragged_batch_gradcheck(self):
        rng = np.random.default_rng(22)
        params = make_params(rng, word_dim=3, hidden_dim=2, attn_dim=3, heads=2)
        pad_id = 5
        emb = Tensor(rng.normal(scale=0.3, size=(6, 3)), requires_grad=True)
        assert np.abs(emb.values[pad_id]).min() > 0  # pads must not need a zero row
        seqs = [[2], [0, 3, 1], [4, 1, 1, 0, 2]]
        weights = Tensor(rng.normal(size=(3, 2, 4)))

        def loss_fn(_):
            big_h, mask = encode_tokens(seqs, emb, params, pad_id=pad_id)
            attn, penalty = attend(big_h, params, pad_mask=mask)
            m = semantic_vectors(attn, big_h)
            return (m * weights).sum() + penalty.sum()

        named = params.trainable() + [("embedding", emb)]
        err = finite_diff_check(loss_fn, named, epsilon=1e-4)
        assert err < 1e-4
