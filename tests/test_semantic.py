import contextlib
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from capsnlu import autodiff, detection, harness
from capsnlu.autodiff import (
    ContractError,
    DegenerateRowError,
    DimensionError,
    Tensor,
    finite_diff_check,
    no_grad,
)
from capsnlu.config import RunConfig
from capsnlu import model as model_module
from capsnlu import semantic
from capsnlu.data import Corpus, EmbeddingTable
from capsnlu.detection import activation_norms
from capsnlu.harness import batch_loss, build_tiny_setup, evaluate, zsl_evaluate
from capsnlu.model import ModelParams, forward_batch, init_model
from capsnlu.semantic import (
    LstmParams,
    SemanticCapsParams,
    _run_bilstm,
    attend,
    encode_tokens,
    orthogonality_penalty,
    semantic_vectors,
)
from capsnlu.zeroshot import classify_emerging_batch, intent_similarity, vote_vectors, zero_shot_prediction_vectors
import refops as ops
from conftest import init_layers


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
        model = init_layers(np.random.default_rng(0), word_dim=4, hidden_dim=3, attn_dim=2, heads=2, dtype=np.float32)
        for cell in (model.semantic.lstm_fw, model.semantic.lstm_bw):
            b = cell.b.values[0]
            np.testing.assert_array_equal(b[3:6], 1.0)   # forget block
            np.testing.assert_array_equal(b[:3], 0.0)
            np.testing.assert_array_equal(b[6:], 0.0)

    def test_glorot_bounds(self):
        # each weight within sqrt(6 / (fan_in + fan_out)): D_W=6, D_H=4, D_A=3, R=2, D_P=5
        model = init_layers(
            np.random.default_rng(1), word_dim=6, hidden_dim=4, attn_dim=3, heads=2, intents=3, caps_dim=5, dtype=np.float32
        )
        sem = model.semantic
        cells = (sem.lstm_fw, sem.lstm_bw)
        weights = [(c.w_x, 6 + 4) for c in cells] + [(c.w_h, 4 + 4) for c in cells]
        weights += [(sem.w_s1, 8 + 3), (sem.w_s2, 3 + 2), (model.detection.w, 8 + 5)]
        for w, fans in weights:
            assert (np.abs(w.values) <= np.float32(np.sqrt(6.0 / fans))).all()
        assert sem.w_s1.shape == (3, 8) and sem.w_s2.shape == (2, 3)


def _tiny_model(frozen: bool):
    """`build_tiny_setup(0)`, its parameter arrays read-only when `frozen`
    so that a forward under `no_grad` takes the projection table."""
    model, cfg, tokens, label = build_tiny_setup(0)
    if frozen:
        for _, t in model.trainable():
            t.values.flags.writeable = False
    return model, cfg, tokens, label


class TestBilstmEncode:
    def test_zero_weights_zero_states(self):
        params = zero_params(word_dim=3, hidden_dim=2, attn_dim=3, heads=2)
        emb = Tensor(np.ones((5, 3)))
        big_h, _ = encode_tokens([[0, 1, 2]], emb, params)
        np.testing.assert_array_equal(big_h.values, np.zeros((1, 3, 4)))

    def test_single_token_symmetry(self):
        rng = np.random.default_rng(2)
        params = init_layers(rng).semantic
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

    @pytest.mark.parametrize("frozen", [False, True], ids=["graph", "frozen"])
    @pytest.mark.parametrize(
        "bad",
        [
            -1, 10, 1.5, np.nan, np.inf, -np.inf, 1e300,
            pytest.param(10**400, id="int_past_float64"),
            pytest.param(-(10**400), id="negative_int_past_float64"),
            pytest.param(Fraction(10**400, 3), id="fraction_past_float64"),
        ],
    )
    def test_token_id_outside_the_embedding_is_named(self, bad, frozen):
        # -1 would read the pad row, 10 raise a bare IndexError and 1.5 be
        # truncated to row 1; NaN fails every comparison of the first check;
        # an id past float64's range escaped as a bare OverflowError
        model, cfg, tokens, _ = _tiny_model(frozen)
        with no_grad() if frozen else contextlib.nullcontext():
            with pytest.raises(ContractError, match=re.escape(f"utterance 1 has token id {bad},")):
                forward_batch(model, [tokens, [3, bad, 2]], cfg)

    @pytest.mark.parametrize("frozen", [False, True], ids=["graph", "frozen"])
    @pytest.mark.parametrize(
        "bad",
        ["3", b"3", " 4 ", "1e0", None, 1 + 2j, object(), [2]],
        ids=["str", "bytes", "spaced", "exponent", "none", "complex", "object", "list"],
    )
    def test_token_id_that_is_not_a_real_number_is_named(self, bad, frozen):
        # strings and bytes were parsed as numbers and read rows 3, 3, 4
        # and 1; None read as "token id nan"; a complex number or a plain
        # object escaped as a bare TypeError
        model, cfg, tokens, _ = _tiny_model(frozen)
        want = re.escape(f"utterance 1 has token id {bad!r}, not a real number")
        with pytest.raises(ContractError, match=want):
            semantic.check_token_ids(semantic.TokenBatch.of([tokens, [3, bad, 2]]), 10)
        with no_grad() if frozen else contextlib.nullcontext():
            with pytest.raises(ContractError, match=want):
                forward_batch(model, [tokens, [3, bad, 2]], cfg)

    def test_token_ids_numpy_holds_as_objects_read_as_numbers(self):
        # a Fraction or a Decimal reads its row; an int past int64 is named as before
        assert semantic.check_token_ids(semantic.TokenBatch.of([[Fraction(3, 1), 1]]), 10).tolist() == [3, 1]
        assert semantic.check_token_ids(semantic.TokenBatch.of([[Decimal(3), 1]]), 10).tolist() == [3, 1]
        with pytest.raises(ContractError, match=re.escape("utterance 0 has token id 1e+30, not a row")):
            semantic.check_token_ids(semantic.TokenBatch.of([[1, 10**30]]), 10)
        # ids that numpy would stack into a 2-d array are still named one by one
        with pytest.raises(ContractError, match=re.escape("utterance 0 has token id [3], not a real number")):
            semantic.check_token_ids(semantic.TokenBatch.of([[[3], [4]]]), 10)

    def test_token_id_that_is_not_a_real_number_is_named_before_a_bad_row(self):
        with pytest.raises(ContractError, match=re.escape("utterance 1 has token id '3', not a real number")):
            semantic.check_token_ids(semantic.TokenBatch.of([[99], ["3"]]), 10)

    @pytest.mark.parametrize("frozen", [False, True], ids=["graph", "frozen"])
    def test_token_ids_of_other_types_read_their_rows(self, frozen):
        # -0.0 passes the check as row 0, True as row 1, numpy ints as themselves
        model, cfg, tokens, _ = _tiny_model(frozen)
        odd = [3, -0.0, True, np.int64(2), np.int32(7)]
        assert semantic.check_token_ids(semantic.TokenBatch.of([odd]), 10).tolist() == [3, 0, 1, 2, 7]
        with no_grad() if frozen else contextlib.nullcontext():
            got = forward_batch(model, [odd, tokens], cfg).trace.v_final.values
            want = forward_batch(model, [[3, 0, 1, 2, 7], tokens], cfg).trace.v_final.values
        assert got.tobytes() == want.tobytes()
        assert (model.semantic._projections is not None) == frozen

    @pytest.mark.parametrize("frozen", [False, True], ids=["graph", "frozen"])
    @pytest.mark.parametrize(
        "bad",
        [-1, 10, 2.5, np.nan, "rows", [2], 2**70, Decimal("1.5")],
        ids=["negative", "rows", "fraction", "nan", "string", "list", "int_past_int64", "decimal"],
    )
    def test_corpus_chunk_and_list_batch_name_the_same_id(self, bad, frozen):
        # the chunk is cut from the corpus's packed ids, which a string, a
        # list, an int past int64 or a Decimal make an object array
        model, cfg, tokens, _ = _tiny_model(frozen)
        rows = model.embedding.shape[0]
        assert rows == 10
        samples = [(tokens, 0), ([1, 2], 1), ([3, bad, 2], 0), ([0, 1, 2], 2), ([4], 1)]
        corpus = Corpus(samples, ["a", "b", "c"])
        indices = np.array([3, 2, 0])  # the bad utterance is the chunk's second
        seqs = [samples[i][0] for i in indices]
        errors = []
        for run in (
            lambda: semantic.check_token_ids(semantic.TokenBatch.of(seqs), rows),
            lambda: semantic.check_token_ids(corpus.batch(indices), rows),
            lambda: forward_batch(model, seqs, cfg),
            lambda: forward_batch(model, corpus.batch(indices), cfg),
        ):
            with no_grad() if frozen else contextlib.nullcontext():
                with pytest.raises(ContractError) as caught:
                    run()
            errors.append(str(caught.value))
        assert errors[0].startswith("utterance 1 has token id ")
        assert errors == [errors[0]] * 4

    def test_corpus_chunk_with_an_empty_utterance_is_named(self):
        model, cfg, tokens, _ = build_tiny_setup(0)
        corpus = Corpus([(tokens, 0), ([], 1), ([1, 2], 0)], ["a", "b", "c"])
        for batch in (corpus.batch(np.array([2, 1])), [[1, 2], []]):
            with pytest.raises(ContractError, match="every utterance must have at least one token"):
                forward_batch(model, batch, cfg)

    def test_corpus_chunk_gives_the_list_batch_bytes(self):
        model, cfg, tokens, _ = _tiny_model(True)
        corpus = Corpus([(tokens, 0), ([1, 2], 1), ([3, 7, 2], 0), ([0, 1, 2], 2), ([4], 1)], ["a", "b", "c"])
        indices = np.array([4, 1, 2, 0])
        with no_grad():
            got = forward_batch(model, corpus.batch(indices), cfg)
            want = forward_batch(model, [corpus.samples[i][0] for i in indices], cfg)
        assert got.A.values.tobytes() == want.A.values.tobytes()
        assert got.trace.v_final.values.tobytes() == want.trace.v_final.values.tobytes()

    @pytest.mark.parametrize(
        "batch, kwargs, message",
        [
            ([[1, 2], []], {}, "every utterance must have at least one token"),
            ([], {}, "every utterance must have at least one token"),
            ([[1, 2], [3]], {}, "ragged batches need a pad_id"),
            ([[1, 2]], {"training": True, "dropout_keep": 0.5}, "dropout needs an rng"),
        ],
        ids=["empty_utterance", "empty_batch", "ragged_without_pad", "dropout_without_rng"],
    )
    def test_batch_that_cannot_be_encoded_is_named(self, batch, kwargs, message):
        model, _, _, _ = _tiny_model(False)
        with pytest.raises(ContractError, match=message):
            encode_tokens(batch, model.embedding, model.semantic, **kwargs)

    @pytest.mark.parametrize("frozen", [False, True], ids=["graph", "frozen"])
    @pytest.mark.parametrize("bad", [10, 10**6, 2.5, -1])
    def test_pad_id_outside_the_embedding_is_named(self, bad, frozen):
        # 10 and 10**6 raised a bare IndexError (the table path a piece
        # index), 2.5 was refused by take_rows or truncated to row 2, and -1
        # read the last row
        model, _, _, _ = _tiny_model(frozen)
        with no_grad() if frozen else contextlib.nullcontext():
            with pytest.raises(ContractError, match=re.escape(f"pad_id {bad!r} is not a row of the 10-row embedding")):
                encode_tokens([[0, 1, 2], [3]], model.embedding, model.semantic, pad_id=bad)
            # a batch without pads never reads the pad id
            encode_tokens([[0, 1, 2], [3, 4, 5]], model.embedding, model.semantic, pad_id=bad)

    def test_random_batch_matches_oracle_per_sequence(self):
        rng = np.random.default_rng(7)
        params = init_layers(rng, word_dim=3, hidden_dim=2).semantic
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
        params = init_layers(rng).semantic
        params.w_s2 = Tensor(np.zeros_like(params.w_s2.values), requires_grad=True)
        big_h = Tensor(rng.normal(size=(5, 4)))
        attn, _ = attend(big_h, params)
        np.testing.assert_allclose(attn.values, np.full((2, 5), 0.2), atol=1e-12)

    def test_mask_limits_uniform_support(self):
        rng = np.random.default_rng(0)
        params = init_layers(rng).semantic
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
            params = init_layers(rng, word_dim=3, hidden_dim=2, attn_dim=3, heads=3).semantic
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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("lead", [(), (1,), (4,), (2, 3)], ids=["single", "B=1", "B=4", "lead 2x3"])
    def test_node_bitwise_equal_to_per_op_product(self, lead, dtype):
        # one node with parents A and H; its forward and both gradients are
        # the per-op product's numpy calls, so every bit agrees
        rng = np.random.default_rng(31)
        a, h, w = (rng.normal(size=lead + shape).astype(dtype) for shape in ((3, 5), (5, 4), (3, 4)))
        results = []
        for build in (semantic_vectors, ops.matmul):
            attn, big_h = Tensor(a, requires_grad=True), Tensor(h, requires_grad=True)
            m = build(attn, big_h)
            ops.sum(ops.mul(m, Tensor(w))).backward()
            results.append((m.values, attn.grad, big_h.grad))
        got, want = results
        assert got[0].dtype == dtype
        for g, r in zip(got, want):
            assert g.shape == r.shape and g.tobytes() == r.tobytes()

    def test_node_gradcheck(self):
        rng = np.random.default_rng(32)
        params = {
            "attn": Tensor(rng.uniform(size=(2, 3, 5)), requires_grad=True, dtype=np.float64),
            "big_h": Tensor(rng.normal(size=(2, 5, 4)), requires_grad=True, dtype=np.float64),
        }
        weights = Tensor(rng.normal(size=(2, 3, 4)), dtype=np.float64)

        def loss_fn(p):
            return ops.sum(ops.tanh(ops.mul(semantic_vectors(p["attn"], p["big_h"]), weights)))

        assert finite_diff_check(loss_fn, params) < 1e-6

    @pytest.mark.parametrize(
        "a_shape, h_shape",
        [((5,), (5, 4)), ((3, 5), (4,)), ((3, 5), (4, 4)), ((2, 3, 5), (3, 5, 4)), ((3, 5), (2, 5, 4))],
        ids=["1-D A", "1-D H", "inner extents", "lead extents", "lead ranks"],
    )
    def test_nonconforming_shapes_raise_dimension_error(self, a_shape, h_shape):
        with pytest.raises(DimensionError, match=r"semantic_vectors") as exc:
            semantic_vectors(Tensor(np.zeros(a_shape)), Tensor(np.zeros(h_shape)))
        assert str(a_shape) in str(exc.value) and str(h_shape) in str(exc.value)


class TestPaddingInvariance:
    def test_pads_change_nothing(self):
        rng = np.random.default_rng(40)
        for trial in range(100):
            params = init_layers(rng, word_dim=3, hidden_dim=2, attn_dim=3, heads=2).semantic
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
        params = init_layers(rng, word_dim=3, hidden_dim=2, attn_dim=3, heads=2).semantic
        emb = Tensor(rng.normal(scale=0.3, size=(5, 3)).astype(np.float64), requires_grad=True)
        tokens = [0, 3, 1, 4]

        def loss_fn(_):
            big_h, _ = encode_tokens([tokens], emb, params)
            attn, penalty = attend(big_h, params)
            m = semantic_vectors(attn, big_h)
            return ops.add(ops.sum(m), ops.sum(penalty))

        named = params.trainable() + [("embedding", emb)]
        err = finite_diff_check(loss_fn, named, epsilon=1e-4)
        assert err < 1e-4

    def test_ragged_batch_gradcheck(self):
        rng = np.random.default_rng(22)
        params = init_layers(rng, word_dim=3, hidden_dim=2, attn_dim=3, heads=2).semantic
        pad_id = 5
        emb = Tensor(rng.normal(scale=0.3, size=(6, 3)), requires_grad=True)
        assert np.abs(emb.values[pad_id]).min() > 0  # pads must not need a zero row
        seqs = [[2], [0, 3, 1], [4, 1, 1, 0, 2]]
        weights = Tensor(rng.normal(size=(3, 2, 4)))

        def loss_fn(_):
            big_h, mask = encode_tokens(seqs, emb, params, pad_id=pad_id)
            attn, penalty = attend(big_h, params, pad_mask=mask)
            m = semantic_vectors(attn, big_h)
            return ops.add(ops.sum(ops.mul(m, weights)), ops.sum(penalty))

        named = params.trainable() + [("embedding", emb)]
        err = finite_diff_check(loss_fn, named, epsilon=1e-4)
        assert err < 1e-4


# ----------------------------------------------------------------------
# the fused recurrence against the per-step graph it replaced


def _sigmoid(z):
    return ops.mul(ops.add(ops.tanh(ops.mul(z, 0.5)), 1.0), 0.5)


def stepwise_lstm(xw, p):
    """One direction as a graph of per-step Tensor ops: the reference the
    fused node must reproduce (same elementwise order, so H is bitwise
    equal; only the VJP's summation order differs)."""
    n, steps, _ = xw.shape
    dh = p.w_h.shape[0]
    h = c = Tensor(np.zeros((n, dh), dtype=xw.values.dtype))
    states = []
    for t in range(steps):
        z = ops.add(ops.index(xw, np.s_[:, t, :]), ops.matmul(h, p.w_h))
        i = _sigmoid(ops.index(z, np.s_[:, 0:dh]))
        f = _sigmoid(ops.index(z, np.s_[:, dh : 2 * dh]))
        o = _sigmoid(ops.index(z, np.s_[:, 2 * dh : 3 * dh]))
        g = ops.tanh(ops.index(z, np.s_[:, 3 * dh : 4 * dh]))
        c = ops.add(ops.mul(f, c), ops.mul(i, g))
        h = ops.mul(o, ops.tanh(c))
        states.append(h)
    return ops.stack(states, axis=1)


def stepwise_encode(seqs, embedding, params, *, pad_id, keep=None):
    """The padded batch through per-op projections and the per-step
    recurrence; `keep` (B x T x D_W) is a dropout mask to apply first."""
    lengths = np.asarray([len(s) for s in seqs])
    t_max = int(lengths.max())
    ids = np.full((len(seqs), t_max), pad_id)
    for i, s in enumerate(seqs):
        ids[i, : len(s)] = s
    mask = np.arange(t_max)[None, :] < lengths[:, None]
    x = embedding.take_rows(ids)
    if keep is not None:
        x = ops.mul(x, Tensor(keep))
    pos = np.arange(t_max)
    src = np.where(mask, lengths[:, None] - 1 - pos, pos)
    rev = Tensor((src[:, :, None] == pos).astype(x.values.dtype))
    fw, bw = params.lstm_fw, params.lstm_bw
    rows = ops.reshape(x, -1, x.shape[-1])  # one GEMM over all positions, as the BiLSTM node projects

    def project(p):
        return ops.add(ops.reshape(ops.matmul(rows, p.w_x), len(seqs), t_max, -1), p.b)

    h_fw = stepwise_lstm(project(fw), fw)
    h_bw = ops.matmul(rev, stepwise_lstm(ops.matmul(rev, project(bw)), bw))
    return ops.concat(h_fw, h_bw, axis=-1), mask


def per_op_attend(H, params, pad_mask=None):
    """The attention head and its penalty as a graph of per-op Tensor ops:
    the reference the two attention nodes must reproduce (the same numpy
    calls, so A and the penalty are bitwise equal; only the VJPs'
    summation order differs)."""
    hidden = ops.tanh(ops.matmul(params.w_s1, ops.swapaxes(H, -1, -2)))
    logits = ops.matmul(params.w_s2, hidden)
    mask = None if pad_mask is None else np.expand_dims(np.asarray(pad_mask, dtype=bool), -2)
    attn = ops.row_softmax(logits, mask=mask)
    eye = Tensor(np.eye(attn.shape[-2], dtype=attn.values.dtype))
    dev = ops.sub(ops.matmul(attn, ops.swapaxes(attn, -1, -2)), eye)
    return attn, ops.sum(ops.square(dev), axis=(-1, -2))


def _bench_model(dtype, frozen=False, seed=5, vocab=300, lengths=None, heads=3):
    """A model at the benchmark shape (300-d, D_H=32, D_A=20, 5 intents,
    D_P=10) over a `vocab`-row embedding whose last row is the pad, and
    its batch: by default a ragged B=32 with T 5-15 and R=3, else one
    utterance per length. Every parameter array is read-only when
    `frozen`, as `load_model` leaves it. Two calls with the same arguments
    give equal arrays."""
    rng = np.random.default_rng(seed)
    layers = init_layers(rng, 300, 32, 20, heads, intents=5, caps_dim=10, dtype=dtype)
    emb = Tensor(rng.normal(scale=0.3, size=(vocab, 300)), requires_grad=True, dtype=dtype)
    if lengths is None:
        lengths = rng.integers(5, 16, size=32)
        assert len(set(lengths.tolist())) > 1
    seqs = [rng.integers(0, vocab - 1, size=n).tolist() for n in lengths]
    model = ModelParams(embedding=emb, semantic=layers.semantic, detection=layers.detection, pad_id=vocab - 1)
    if frozen:
        for _, t in model.trainable():
            t.values.flags.writeable = False
    return model, seqs


def _bench_shaped(dtype, **kwargs):
    """`_bench_model`'s encoder weights, embedding, batch and pad id."""
    model, seqs = _bench_model(dtype, **kwargs)
    return model.semantic, model.embedding, seqs, model.pad_id


# the ragged benchmark batch, then the smallest cases of the gate-major
# recurrence: one utterance, and one token per utterance. The last two
# batches have no pads, so the encoder gathers no pad row; at B=1, T=1 the
# lone token's projection is the one-row product (GEMV) the per-step graph
# computes too.
RECURRENCE_SHAPES = {
    "ragged B=32": {},
    "B=1": {"lengths": [12]},
    "T=1": {"lengths": [1] * 4},
    "B=32 no pads": {"lengths": [9] * 32},
    "B=1, T=1": {"lengths": [1]},
}


# the ops of one train step's graph, each recorded once
STEP_OPS = (
    "take_rows",
    "dropout",
    "bilstm",
    "attend",
    "penalty",
    "semantic_vectors",
    "prediction_vectors",
    "routing",
    "margin_loss",
)


def _graph_ops(root):
    """The op names of the recorded nodes reachable from `root`, sorted."""
    seen, todo, names = set(), [root], []
    while todo:
        t = todo.pop()
        if id(t) not in seen:
            seen.add(id(t))
            if t.parents:
                names.append(t.op)
            todo.extend(t.parents)
    return sorted(names)


class TestFusedRecurrence:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_states_bitwise_equal_to_stepwise_graph(self, dtype):
        for shape, kwargs in RECURRENCE_SHAPES.items():
            params, emb, seqs, pad_id = _bench_shaped(dtype, **kwargs)
            got, mask = encode_tokens(seqs, emb, params, pad_id=pad_id)
            want, want_mask = stepwise_encode(seqs, emb, params, pad_id=pad_id)
            assert got.values.dtype == dtype
            assert got.values.tobytes() == want.values.tobytes(), shape
            np.testing.assert_array_equal(mask, want_mask)

    @pytest.mark.parametrize(
        "batch, dtype",
        # a padded batch has two rows or more, and at float64 a one-row
        # product h @ w_h can round differently from a two-row one, so the
        # B=1 float64 reference is the per-step graph of the test above
        [(1, np.float32), (4, np.float32), (4, np.float64)],
        ids=["B=1-float32", "B=4-float32", "B=4-float64"],
    )
    def test_pad_free_branch_bitwise_equal_to_padded_branch(self, batch, dtype):
        rng = np.random.default_rng(41)
        dh, rows, steps = 32, 40, 9
        source = rng.normal(size=(rows + 1, 8 * dh)).astype(dtype)  # the last row is the pad row
        w_fw, w_bw = (rng.normal(scale=0.3, size=(dh, 4 * dh)).astype(dtype) for _ in range(2))
        slots = rng.integers(0, rows, size=(batch, steps))
        got, _ = semantic._bilstm_states(source, slots, np.stack([w_fw, w_bw]), np.full(batch, steps))
        # one longer utterance puts pads in every other row
        padded = np.full((batch + 1, steps + 3), rows)
        padded[:batch, :steps] = slots
        padded[batch] = rng.integers(0, rows, size=steps + 3)
        want, _ = semantic._bilstm_states(source, padded, np.stack([w_fw, w_bw]), [steps] * batch + [steps + 3])
        assert got.shape == (batch, steps, 2 * dh)
        assert got.tobytes() == np.ascontiguousarray(want[:batch, :steps]).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_dropout_states_bitwise_equal_at_real_positions(self, dtype):
        params, emb, seqs, pad_id = _bench_shaped(dtype)
        keep_prob = 0.7  # 1 / 0.7 rounds differently in float32 and float64
        got, mask = encode_tokens(
            seqs, emb, params, pad_id=pad_id, training=True, dropout_keep=keep_prob, rng=np.random.default_rng(7)
        )
        draws = np.random.default_rng(7).random(mask.shape + (emb.shape[1],))
        keep = (draws < keep_prob).astype(dtype) / keep_prob
        want, _ = stepwise_encode(seqs, emb, params, pad_id=pad_id, keep=keep)
        assert (~mask).any()
        assert got.values[mask].tobytes() == want.values[mask].tobytes()

    def test_dropout_draws_one_uniform_per_padded_entry(self):
        # the stream a padded batch drew, so every later draw is unchanged
        params, emb, seqs, pad_id = _bench_shaped(np.float32)
        rng, ref = np.random.default_rng(8), np.random.default_rng(8)
        _, mask = encode_tokens(seqs, emb, params, pad_id=pad_id, training=True, dropout_keep=0.8, rng=rng)
        ref.random(mask.size * emb.shape[1])
        assert (~mask).any()
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_dropout_node_bitwise_equal_to_per_op_product(self, dtype):
        # one node whose only parent is the gathered rows: x * keep forward
        # and g * keep back, the per-op product's numpy calls
        rng = np.random.default_rng(33)
        x_vals, w = (rng.normal(size=(6, 4)).astype(dtype) for _ in range(2))
        keep = (rng.random((6, 4)) < 0.7).astype(dtype) / 0.7
        results = []
        for build in (semantic._dropout, lambda x, k: ops.mul(x, Tensor(k))):
            x = Tensor(x_vals, requires_grad=True)
            out = build(x, keep)
            ops.sum(ops.mul(out, Tensor(w))).backward()
            results.append((out, x))
        (got, got_x), (want, want_x) = results
        assert got.op == "dropout" and got.parents == (got_x,)
        assert got.values.tobytes() == want.values.tobytes()
        assert got_x.grad.tobytes() == want_x.grad.tobytes()

    def test_float64_dropout_grads_match_stepwise_graph(self):
        params, emb, seqs, pad_id = _bench_shaped(np.float64)
        keep_prob = 0.7
        lengths = np.array([len(q) for q in seqs])
        draws = np.random.default_rng(9).random((len(seqs), lengths.max(), emb.shape[1]))
        keep = (draws < keep_prob).astype(np.float64) / keep_prob
        named = params.trainable() + [("embedding", emb)]
        grads = []
        for fused in (True, False):
            for _, t in named:
                t.reset_grad()
            if fused:
                big_h, mask = encode_tokens(
                    seqs, emb, params, pad_id=pad_id, training=True, dropout_keep=keep_prob,
                    rng=np.random.default_rng(9),
                )
            else:
                big_h, mask = stepwise_encode(seqs, emb, params, pad_id=pad_id, keep=keep)
            attn, penalty = per_op_attend(big_h, params, pad_mask=mask)
            ops.add(ops.sum(ops.square(semantic_vectors(attn, big_h))), ops.sum(penalty)).backward()
            grads.append({name: t.grad.copy() for name, t in named})
        got, want = grads
        for name, _ in named:
            scale = np.abs(want[name]).max()
            assert scale > 0 and np.abs(got[name] - want[name]).max() <= 1e-12 * scale, name

    def test_float64_grads_match_stepwise_graph(self):
        for shape, kwargs in RECURRENCE_SHAPES.items():
            params, emb, seqs, pad_id = _bench_shaped(np.float64, **kwargs)
            named = params.trainable() + [("embedding", emb)]
            grads = []
            for encode in (encode_tokens, stepwise_encode):
                for _, t in named:
                    t.reset_grad()
                big_h, mask = encode(seqs, emb, params, pad_id=pad_id)
                attn, penalty = per_op_attend(big_h, params, pad_mask=mask)
                ops.add(ops.sum(ops.square(semantic_vectors(attn, big_h))), ops.sum(penalty)).backward()
                grads.append({name: t.grad.copy() for name, t in named})
            for name, _ in named:
                got, want = grads
                scale = np.abs(want[name]).max()
                # with one step, h_{t-1} is the zero state and a softmax over
                # one position is constant, so dw_h and the attention weights'
                # gradients are zero
                assert scale > 0 or (shape.endswith("T=1") and name.endswith(("w_h", "w_s1", "w_s2"))), (shape, name)
                assert np.abs(got[name] - want[name]).max() <= 1e-12 * scale, (shape, name)

    def test_ragged_node_gradcheck(self):
        rng = np.random.default_rng(23)
        lengths = np.array([1, 3, 5])
        real = np.arange(5)[None, :] < lengths[:, None]
        params = init_layers(rng, word_dim=3, hidden_dim=2).semantic
        fw, bw = params.lstm_fw, params.lstm_bw
        x = Tensor(rng.normal(size=(lengths.sum() + 1, 3)), requires_grad=True)  # the pad row last
        weights = Tensor(rng.normal(size=(3, 5, 4)) * real[:, :, None])

        def loss_fn(_):
            return ops.sum(ops.mul(_run_bilstm(x, fw, bw, lengths), weights))

        named = [("x", x)] + fw.trainable("fw") + bw.trainable("bw")
        err = finite_diff_check(loss_fn, named)
        assert err < 1e-4
        # pads come after every real step in both directions, so no real
        # state depends on them
        assert x.grad[-1].tobytes() == np.zeros(3).tobytes()

    def test_second_backward_doubles_leaf_grads(self):
        rng = np.random.default_rng(24)
        params = init_layers(rng, word_dim=5, hidden_dim=3).semantic
        fw, bw = params.lstm_fw, params.lstm_bw
        lengths = np.array([1, 3, 4])
        x = Tensor(rng.normal(size=(lengths.sum() + 1, 5)), requires_grad=True)
        leaves = [x, fw.w_x, fw.b, bw.w_x, bw.b, fw.w_h, bw.w_h]
        weights = Tensor(rng.normal(size=(3, 4, 6)))
        loss = ops.sum(ops.mul(_run_bilstm(x, fw, bw, lengths), weights))
        loss.backward()
        once = [t.grad.copy() for t in leaves]
        loss.backward()
        for t, g in zip(leaves, once):
            np.testing.assert_array_equal(t.grad, 2.0 * g)

    def test_training_step_graph_size(self):
        # the per-step recurrence recorded 560 nodes for this step, the
        # per-op routing loop 83, the broadcast prediction vectors 48, the
        # reversal as B x T x T products outside the recurrence 46 and the
        # attention head and its penalty as 10 per-op nodes 39, the input
        # projections as two products and two bias adds 31, and the margin
        # loss with its penalty term as 19 per-op nodes 27
        rng = np.random.default_rng(25)
        vocab = 50
        table = EmbeddingTable(
            vocab={f"w{i}": i for i in range(vocab)},
            vectors=rng.normal(size=(vocab, 300)),
            oov_id=vocab - 2,
            pad_id=vocab - 1,
        )
        cfg = RunConfig(existing_labels=("a", "b", "c", "d", "e"), emerging_labels=())
        model = init_model(table, cfg, rng=rng)
        lengths = rng.integers(5, 16, size=32)
        tokens = [rng.integers(0, vocab - 2, size=n).tolist() for n in lengths]
        loss = batch_loss(model, tokens, (lengths % 5).tolist(), cfg, training=True, rng=rng)
        assert _graph_ops(loss) == sorted(STEP_OPS)

    def test_evaluation_with_gradients_on_records_only_step_ops(self, toy_setup, monkeypatch):
        # evaluate and zsl_evaluate run their forwards under no_grad; with
        # recording left on, every node they make is one a train step makes
        cfg, table, existing, emerging = toy_setup
        model = init_model(table, cfg)
        recorded = []
        for module in (autodiff, semantic, detection):
            def recording(values, op, parents, vjp, real=module._result):
                out = real(values, op, parents, vjp)
                recorded.append(out.op)  # "" when nothing was recorded
                return out

            monkeypatch.setattr(module, "_result", recording)
        # zeroshot routes a leaf of u, which records no graph without no_grad
        monkeypatch.setattr(harness, "no_grad", contextlib.nullcontext)
        evaluate(model, existing, cfg)
        zsl_evaluate(model, emerging, table.intent_vectors, cfg)
        seen = set(recorded) - {""}
        assert {"take_rows", "semantic_vectors", "routing"} <= seen <= set(STEP_OPS), seen

    def test_pad_rows_carry_zero_gradient_and_scatter_matches_add_at(self, monkeypatch):
        # only the real tokens and one pad row are gathered; pad positions
        # come after every real step in both directions, so the pad row's
        # gradient is zero; the scatter adds it and must equal np.add.at
        # byte for byte
        params, emb, seqs, pad_id = _bench_shaped(np.float32)
        scattered = []
        real_scatter = autodiff._scatter_add_rows

        def recording_scatter(dst, idx, g):
            scattered.append((idx.copy(), g.copy()))
            return real_scatter(dst, idx, g)

        monkeypatch.setattr(autodiff, "_scatter_add_rows", recording_scatter)
        big_h, mask = encode_tokens(
            seqs, emb, params, pad_id=pad_id, training=True, dropout_keep=0.8, rng=np.random.default_rng(3)
        )
        attn, penalty = attend(big_h, params, pad_mask=mask)
        ops.add(ops.sum(ops.square(semantic_vectors(attn, big_h))), ops.sum(penalty)).backward()
        (idx, g), = scattered
        assert (~mask).any()
        np.testing.assert_array_equal(idx, [t for s in seqs for t in s] + [pad_id])
        assert g[-1].tobytes() == np.zeros_like(g[-1]).tobytes()
        assert g[:-1].any(axis=-1).all()
        want = np.zeros_like(emb.values)
        np.add.at(want, idx, g)
        assert emb.grad.tobytes() == want.tobytes()


# ----------------------------------------------------------------------
# the frozen-model projection table


def _encode(model, seqs, **kwargs):
    return encode_tokens(seqs, model.embedding, model.semantic, pad_id=model.pad_id, **kwargs)[0].values


class TestProjectionTable:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_frozen_forward_bitwise_equal_to_writable(self, dtype):
        # the whole request: the forward, the existing intent's norms, then
        # the zero-shot head's votes, u, and the emerging winners and n
        cfg = RunConfig()
        rng = np.random.default_rng(8)
        q = intent_similarity(rng.normal(size=(2, 6)), rng.normal(size=(5, 6)), 1.5).q
        for shape, kwargs in RECURRENCE_SHAPES.items():
            live, seqs = _bench_model(dtype, **kwargs)
            frozen, _ = _bench_model(dtype, frozen=True, **kwargs)
            heads = []
            with no_grad():
                got_h, want_h = _encode(frozen, seqs), _encode(live, seqs)
                got, want = forward_batch(frozen, seqs, cfg), forward_batch(live, seqs, cfg)
                for fwd in (got, want):
                    g = vote_vectors(fwd.trace, fwd.P)
                    u = zero_shot_prediction_vectors(q, g)
                    heads.append((activation_norms(fwd.trace.v_final), g, u, *classify_emerging_batch(u, 3)))
            # a lone token keeps the one-row product the graph path computes
            assert (frozen.semantic._projections is None) == (shape == "B=1, T=1"), shape
            assert live.semantic._projections is None
            assert got_h.dtype == dtype
            assert got_h.tobytes() == want_h.tobytes(), shape
            for name in ("A", "P", "penalty"):
                assert getattr(got, name).values.tobytes() == getattr(want, name).values.tobytes(), (shape, name)
            assert got.trace.v_final.values.tobytes() == want.trace.v_final.values.tobytes(), shape
            for name, a, b in zip(("norms", "votes", "u", "winners", "n"), *heads):
                assert a.shape[0] == len(seqs) and a.tobytes() == b.tobytes(), (shape, name)

    def test_eval_forward_computes_the_penalty_on_first_read(self, monkeypatch):
        model, seqs = _bench_model(np.float32, frozen=True)
        calls = []
        real_penalty = semantic.orthogonality_penalty

        def counting_penalty(attn):
            calls.append(attn)
            return real_penalty(attn)

        monkeypatch.setattr(model_module, "orthogonality_penalty", counting_penalty)
        cfg = RunConfig()
        with no_grad():
            fwd = forward_batch(model, seqs, cfg)
        assert calls == []
        first = fwd.penalty
        assert fwd.penalty is first
        assert len(calls) == 1 and calls[0] is fwd.A
        assert first.values.tobytes() == real_penalty(fwd.A).values.tobytes()
        # a forward that records a graph also builds it on first read, as
        # the penalty node with parent A
        live, _ = _bench_model(np.float32)
        recorded = forward_batch(live, seqs, cfg)
        assert len(calls) == 1
        assert recorded.penalty.op == "penalty" and recorded.penalty.parents == (recorded.A,)
        assert len(calls) == 2 and calls[1] is recorded.A
        assert recorded.penalty.values.tobytes() == first.values.tobytes()

    def test_table_built_once_and_reused(self, monkeypatch):
        model, seqs = _bench_model(np.float32, frozen=True)
        builds = []
        real_build = semantic._input_projections

        def counting_build(xv, fw, bw):
            builds.append(xv.shape[0])
            return real_build(xv, fw, bw)

        monkeypatch.setattr(semantic, "_input_projections", counting_build)
        with no_grad():
            _encode(model, seqs)
            table = model.semantic._projections[1]
            _encode(model, seqs[:5])
        assert builds == [model.embedding.shape[0]]  # one build, over the whole vocabulary
        _, cached, wv = model.semantic._projections
        assert cached is table
        assert not table.flags.writeable and not wv.flags.writeable
        fw, bw = model.semantic.lstm_fw, model.semantic.lstm_bw
        assert wv.tobytes() == np.stack([fw.w_h.values, bw.w_h.values]).tobytes()

    def test_table_rebuilt_when_an_array_is_replaced(self):
        model, seqs = _bench_model(np.float64, frozen=True)
        live, _ = _bench_model(np.float64)
        with no_grad():
            _encode(model, seqs)
            table = model.semantic._projections[1]
            for m in (model, live):
                bias = m.semantic.lstm_bw.b
                bias.values = bias.values + 0.25
            model.semantic.lstm_bw.b.values.flags.writeable = False
            got, want = _encode(model, seqs), _encode(live, seqs)
        assert model.semantic._projections[1] is not table
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("direction", ["lstm_fw", "lstm_bw"])
    def test_table_and_stack_rebuilt_when_a_w_h_is_replaced(self, direction):
        # w_h is no part of the table, but the cached stack is read from it
        model, seqs = _bench_model(np.float64, frozen=True)
        live, _ = _bench_model(np.float64)
        with no_grad():
            _encode(model, seqs)
            _, table, wv = model.semantic._projections
            for m in (model, live):
                w_h = getattr(m.semantic, direction).w_h
                w_h.values = w_h.values * 0.5
            getattr(model.semantic, direction).w_h.values.flags.writeable = False
            got, want = _encode(model, seqs), _encode(live, seqs)
        _, new_table, new_wv = model.semantic._projections
        assert new_table is not table and new_wv is not wv and not new_wv.flags.writeable
        assert got.tobytes() == want.tobytes()

    def test_table_unused_while_recording_or_on_writable_arrays(self):
        model, seqs = _bench_model(np.float32, frozen=True)
        live, _ = _bench_model(np.float32)
        want = _encode(live, seqs)
        assert _encode(model, seqs).tobytes() == want.tobytes()  # grad enabled
        with no_grad():
            got = _encode(model, seqs, training=True, dropout_keep=1.0)
        assert got.tobytes() == want.tobytes()
        fw, bw = model.semantic.lstm_fw, model.semantic.lstm_bw
        for t in (model.embedding, fw.w_x, fw.b, bw.w_x, bw.b, fw.w_h, bw.w_h):
            t.values.flags.writeable = True
            with no_grad():
                assert _encode(model, seqs).tobytes() == want.tobytes()
            t.values.flags.writeable = False
        assert model.semantic._projections is None
        # once built, the table is still skipped while one array is writable
        with no_grad():
            _encode(model, seqs)
            model.embedding.values.flags.writeable = True
            model.embedding.values[seqs[0][0]] += 1.0
            live.embedding.values[seqs[0][0]] += 1.0
            assert _encode(model, seqs).tobytes() == _encode(live, seqs).tobytes()


# ----------------------------------------------------------------------
# the attention nodes against the per-op graph they replaced

ATTENTION_SHAPES = {**RECURRENCE_SHAPES, "R=1": {"heads": 1}}


class TestAttentionNodes:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", list(ATTENTION_SHAPES))
    def test_bitwise_equal_to_per_op_graph(self, shape, dtype):
        params, emb, seqs, pad_id = _bench_shaped(dtype, **ATTENTION_SHAPES[shape])
        big_h, mask = encode_tokens(seqs, emb, params, pad_id=pad_id)
        attn, penalty = attend(big_h, params, pad_mask=mask)
        want_attn, want_penalty = per_op_attend(big_h, params, pad_mask=mask)
        assert attn.values.dtype == penalty.values.dtype == dtype
        assert attn.values.tobytes() == want_attn.values.tobytes()
        assert penalty.values.tobytes() == want_penalty.values.tobytes()
        got_m = semantic_vectors(attn, big_h).values
        assert got_m.tobytes() == semantic_vectors(want_attn, big_h).values.tobytes()

    @pytest.mark.parametrize("shape", list(ATTENTION_SHAPES))
    def test_float64_grads_match_per_op_graph(self, shape):
        params, emb, seqs, pad_id = _bench_shaped(np.float64, **ATTENTION_SHAPES[shape])
        with no_grad():
            h, mask = encode_tokens(seqs, emb, params, pad_id=pad_id)
        big_h = Tensor(h.values, requires_grad=True)
        weights = Tensor(np.random.default_rng(30).normal(size=(len(seqs), params.heads, 64)))
        named = [("H", big_h), ("w_s1", params.w_s1), ("w_s2", params.w_s2)]
        grads = []
        for head in (attend, per_op_attend):
            for _, t in named:
                t.reset_grad()
            attn, penalty = head(big_h, params, pad_mask=mask)
            ops.add(ops.sum(ops.mul(semantic_vectors(attn, big_h), weights)), ops.sum(penalty)).backward()
            grads.append({name: t.grad.copy() for name, t in named})
        got, want = grads
        for name, _ in named:
            scale = np.abs(want[name]).max()
            # a softmax over one position is constant
            assert scale > 0 or (shape.endswith("T=1") and name != "H"), name
            assert np.abs(got[name] - want[name]).max() <= 1e-12 * scale, name

    def test_attend_node_gradcheck(self):
        rng = np.random.default_rng(31)
        params = init_layers(rng, word_dim=3, hidden_dim=2, attn_dim=3, heads=2).semantic
        mask = np.array([[True] * 4, [True, True, False, False]])
        big_h = Tensor(rng.normal(size=(2, 4, 4)), requires_grad=True)
        weights = Tensor(rng.normal(size=(2, 2, 4)))
        named = [("H", big_h), ("w_s1", params.w_s1), ("w_s2", params.w_s2)]

        def loss_fn(_):
            attn, _ = attend(big_h, params, pad_mask=mask)
            return ops.sum(ops.mul(attn, weights))

        assert finite_diff_check(loss_fn, named) < 1e-6
        # masked positions get exactly zero attention, so no gradient
        np.testing.assert_array_equal(big_h.grad[1, 2:], 0.0)

    @pytest.mark.parametrize("batch", [(3,), ()], ids=["batched", "single"])
    def test_penalty_node_gradcheck(self, batch):
        rng = np.random.default_rng(32)
        attn = Tensor(rng.uniform(size=batch + (3, 5)), requires_grad=True)
        weights = Tensor(rng.normal(size=batch))

        def loss_fn(_):
            return ops.sum(ops.mul(orthogonality_penalty(attn), weights))

        assert finite_diff_check(loss_fn, [("A", attn)]) < 1e-6

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("lengths", [[12], [9] * 4], ids=["B=1", "B=4"])
    @pytest.mark.parametrize("as_list", [False, True], ids=["array", "list"])
    def test_mask_that_masks_nothing_is_bitwise_unmasked(self, dtype, lengths, as_list):
        params, emb, seqs, pad_id = _bench_shaped(dtype, lengths=lengths)
        big_h, mask = encode_tokens(seqs, emb, params, pad_id=pad_id)
        assert mask.all()
        got = semantic.attention_matrix(big_h, params, pad_mask=mask.tolist() if as_list else mask).values
        masked, _ = per_op_attend(big_h, params, pad_mask=mask)
        unmasked = semantic.attention_matrix(big_h, params).values
        assert got.tobytes() == masked.values.tobytes() == unmasked.tobytes()
        mask[-1] = False
        with pytest.raises(DegenerateRowError):
            semantic.attention_matrix(big_h, params, pad_mask=mask.tolist() if as_list else mask)

    def test_all_masked_row_raises(self):
        rng = np.random.default_rng(33)
        params = init_layers(rng).semantic
        big_h = Tensor(rng.normal(size=(2, 3, 4)))
        with pytest.raises(DegenerateRowError):
            attend(big_h, params, pad_mask=[[True, False, False], [False, False, False]])

    @pytest.mark.parametrize("shape", [(2, 0, 4), (0, 4)], ids=["batched", "single"])
    @pytest.mark.parametrize("as_list", [False, True], ids=["array", "list"])
    def test_masked_row_of_no_positions_raises(self, shape, as_list):
        # .all() is True on an empty mask, so "masks nothing" must not skip the check
        params = init_layers(np.random.default_rng(35)).semantic
        mask = np.ones(shape[:-1], dtype=bool)
        with pytest.raises(DegenerateRowError):
            semantic.attention_matrix(Tensor(np.zeros(shape)), params, pad_mask=mask.tolist() if as_list else mask)

    def test_broadcast_mask_that_masks_nothing_is_bitwise_unmasked(self):
        # a mask of another shape than H's takes the broadcasting path
        rng = np.random.default_rng(36)
        params = init_layers(rng).semantic
        big_h = Tensor(rng.normal(size=(3, 4, 4)))
        got = semantic.attention_matrix(big_h, params, pad_mask=[True] * 4).values
        assert got.tobytes() == semantic.attention_matrix(big_h, params).values.tobytes()
        with pytest.raises(ValueError):
            semantic.attention_matrix(big_h, params, pad_mask=[True] * 3)

    def test_second_backward_doubles_leaf_grads(self):
        rng = np.random.default_rng(34)
        params = init_layers(rng).semantic
        big_h = Tensor(rng.normal(size=(2, 4, 4)), requires_grad=True)
        weights = Tensor(rng.normal(size=(2, 2, 4)))
        attn, penalty = attend(big_h, params, pad_mask=[[True] * 4, [True, True, True, False]])
        loss = ops.add(ops.sum(ops.mul(semantic_vectors(attn, big_h), weights)), ops.sum(penalty))
        leaves = [big_h, params.w_s1, params.w_s2]
        loss.backward()
        once = [t.grad.copy() for t in leaves]
        loss.backward()
        for t, g in zip(leaves, once):
            np.testing.assert_array_equal(t.grad, 2.0 * g)
