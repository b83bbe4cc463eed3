import contextlib

import numpy as np
import pytest

from capsnlu.autodiff import ContractError, Tensor, _result, finite_diff_check, no_grad
from capsnlu.detection import (
    DetectionCapsParams,
    activation_norms,
    dynamic_routing,
    margin_loss_batch,
    prediction_vectors,
    squash,
)
import refops as ops
from conftest import init_layers


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
        np.testing.assert_array_equal(squash(Tensor(np.zeros(2))), [0.0, 0.0])

    def test_unit_vector_halves(self):
        np.testing.assert_allclose(squash(Tensor([1.0, 0.0])), [0.5, 0.0], rtol=1e-7)

    def test_three_four(self):
        got = squash(Tensor(np.array([3.0, 4.0])))
        np.testing.assert_allclose(got, [25 / 26 * 0.6, 25 / 26 * 0.8], rtol=1e-12)

    def test_bounds_monotone_direction(self):
        rng = np.random.default_rng(3)
        prev_pairs = []
        for _ in range(100):
            s = rng.normal(scale=rng.uniform(0.01, 5.0), size=4)
            out = squash(Tensor(s))
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
        np.testing.assert_allclose(trace.v[0][0], squash(Tensor(p_val[0, 0])), rtol=1e-12)

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
        nan, inf = float("nan"), float("inf")
        for bad in (
            {"margin_pos": 0.1, "margin_neg": 0.9},
            {"margin_pos": nan},
            {"margin_neg": nan},
            {"downweight": -0.5},
            {"downweight": nan},
            {"downweight": inf},
            {"penalty_weight": nan},  # truthy, so the loss would add it
            {"penalty_weight": inf},
        ):
            with pytest.raises(ContractError):
                margin_loss_batch(Tensor(np.zeros((1, 2, 2))), [0], Tensor(np.zeros(1)), **bad)

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

    @pytest.mark.parametrize(
        "labels, problem",
        [
            ([2], r"labels of shape \(1,\) do not match the batch shape \(4,\)"),
            ([0, 1], r"labels of shape \(2,\) do not match the batch shape \(4,\)"),
            ([[0, 1, 2, 0]], r"labels of shape \(1, 4\) do not match the batch shape \(4,\)"),
            ([0.5, 1.9, 0, 1], "label 0.5 is not a whole-number class id"),
            (["0", "1", "0", "1"], "label '0' is not a whole-number class id"),
            ([0, float("nan"), 1, 0], "label nan is not a whole-number class id"),
        ],
        ids=["one", "two", "1xB", "fractions", "strings", "nan"],
    )
    def test_labels_not_matching_the_batch_are_named(self, labels, problem):
        # one label would be broadcast over the batch, two index past it,
        # and a 1 x B array would not fit the one-hot; the int64 cast trained
        # [0.5, 1.9] as [0, 1], took strings, and raised a bare ValueError on NaN
        with pytest.raises(ContractError, match=problem):
            margin_loss_batch(Tensor(np.zeros((4, 3, 2))), labels, Tensor(np.zeros(4)))

    @pytest.mark.parametrize("bad", [3, -1])
    def test_label_outside_the_intents_is_named(self, bad):
        with pytest.raises(ContractError, match="label outside the 3 intents"):
            margin_loss_batch(Tensor(np.zeros((4, 3, 2))), [0, bad, 1, 0], Tensor(np.zeros(4)))

    @pytest.mark.parametrize("penalty_weight", [0.0, 0.5])
    def test_empty_batch_is_named(self, penalty_weight):
        # the mean over no utterance raised a bare ZeroDivisionError
        with pytest.raises(ContractError, match=r"empty batch: v of shape \(0, 3, 2\) holds no utterance"):
            margin_loss_batch(Tensor(np.full((0, 3, 2), 0.1)), [], Tensor(np.zeros(0)), penalty_weight=penalty_weight)


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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(1, 5, 16), (64, 5, 16), (3, 2, 4, 7)], ids=["B=1", "B=64", "more axes"])
    def test_activation_norms_bitwise_equal_to_linalg_norm(self, dtype, shape):
        v = np.random.default_rng(40).normal(scale=0.7, size=shape).astype(dtype)
        v[0, 1] = 0.0  # a zero vector
        v[-1, -1, ..., :] = 0.0
        for arg in (v, Tensor(v)):
            got = activation_norms(arg)
            want = np.linalg.norm(v, axis=-1)
            assert got.dtype == want.dtype == dtype
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert (activation_norms(v)[0, 1] == 0.0).all()


class TestRoutingGradients:
    def test_loss_through_routing_gradcheck(self):
        rng = np.random.default_rng(9)
        for seed in range(3):
            rng = np.random.default_rng(90 + seed)
            params = init_layers(rng, hidden_dim=2, heads=2, intents=3, caps_dim=3).detection
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


# ----------------------------------------------------------------------
# the fused routing node against the per-op graph it replaced


def per_op_squash(s):
    sumsq = ops.sum(ops.square(s), axis=-1, keepdims=True)
    return ops.mul(s, ops.div(ops.sqrt(sumsq), ops.add(sumsq, 1.0)))


def per_op_routing(p, iterations):
    """The routing loop as a graph of per-op Tensor ops: the reference the
    fused node must reproduce (same elementwise order, so every value is
    bitwise equal)."""
    b = Tensor(np.zeros(p.shape[:-1], dtype=p.values.dtype))
    rec = {"b": [], "c": [], "s": [], "v": []}
    for _ in range(iterations):
        rec["b"].append(b.values)
        c = ops.softmax(b, axis=-2)
        s = ops.sum(ops.mul(ops.reshape(c, *c.shape, 1), p), axis=-2)
        v = per_op_squash(s)
        b = ops.add(b, ops.sum(ops.mul(p, ops.reshape(v, *v.shape[:-1], 1, v.shape[-1])), axis=-1))
        rec["c"].append(c.values)
        rec["s"].append(s.values)
        rec["v"].append(v.values)
    return rec, v, c


def _predictions(shape, dtype, seed=41):
    return np.random.default_rng(seed).normal(scale=0.5, size=shape).astype(dtype)


def _laid_out(lead, k, r, dtype, d=10):
    """One P (lead x K x R x D_P) in the layouts routing meets:
    `prediction_vectors`' capsule-major view, a C-contiguous copy of it,
    and a non-contiguous slice."""
    rng = np.random.default_rng(46)
    m = Tensor(rng.normal(size=lead + (r, 8)).astype(dtype))
    w = Tensor(rng.normal(scale=0.3, size=(k, r, 8, d)).astype(dtype))
    p = prediction_vectors(m, DetectionCapsParams(w=w)).values
    wide = np.zeros(lead + (k, r, 2 * d), dtype)
    wide[..., ::2] = p
    return {"prediction_vectors": p, "c_contiguous": np.ascontiguousarray(p), "slice": wide[..., ::2]}


class TestFusedRouting:
    @pytest.mark.parametrize(
        "shape, dtype",
        [
            ((32, 5, 3, 10), np.float32),
            ((32, 5, 3, 10), np.float64),
            ((1, 5, 3, 10), np.float32),
            ((1, 5, 3, 10), np.float64),
            ((1, 2, 3, 10), np.float64),  # zero-shot: L=2 emerging intents, u is float64
            # the first round's couplings are set to 1/K: pinned against the
            # softmax of zeros at K whose 1/K is exact (1), and is not (3, 7)
            *[((4, k, 3, 10), dtype) for k in (1, 3, 7) for dtype in (np.float32, np.float64)],
        ],
    )
    def test_trace_bitwise_equal_to_per_op_graph(self, shape, dtype):
        p = _predictions(shape, dtype)
        trace = dynamic_routing(Tensor(p, requires_grad=True), iterations=3)
        want, v, c = per_op_routing(Tensor(p, requires_grad=True), 3)
        for key in ("b", "c", "s", "v"):
            got = getattr(trace, key)
            assert len(got) == 3
            for it in range(3):
                assert got[it].dtype == dtype
                assert got[it].tobytes() == want[key][it].tobytes(), (key, it)
        assert trace.v_final.values.tobytes() == v.values.tobytes()
        assert trace.c[-1].tobytes() == c.values.tobytes()

    def test_float64_grad_matches_per_op_graph(self):
        p_vals = _predictions((32, 5, 3, 10), np.float64)
        labels = np.arange(32) % 5
        grads = []
        for route in (lambda p: dynamic_routing(p, 3).v_final, lambda p: per_op_routing(p, 3)[1]):
            p = Tensor(p_vals, requires_grad=True)
            margin_loss_batch(route(p), labels, Tensor(np.zeros(32))).backward()
            grads.append(p.grad)
        got, want = grads
        scale = np.abs(want).max()
        assert scale > 0
        assert np.abs(got - want).max() <= 1e-12 * scale

    @pytest.mark.parametrize("iterations", [1, 2, 3])
    def test_node_gradcheck(self, iterations):
        rng = np.random.default_rng(42 + iterations)
        # intent 2 of utterance 1 gets all-zero predictions, so s = 0 there
        # and the VJP meets squash's zero limit. The mask keeps that row at
        # zero while it is perturbed: s|s| is not differentiable twice at
        # 0, so central differences there read O(epsilon), not 0.
        keep = np.ones((2, 3, 1, 1))
        keep[1, 2] = 0.0
        params = {"p": Tensor(rng.normal(size=(2, 3, 3, 4)), requires_grad=True)}
        weights = Tensor(rng.normal(size=(2, 3, 4)))

        def loss_fn(q):
            return ops.sum(ops.mul(dynamic_routing(ops.mul(q["p"], Tensor(keep)), iterations).v_final, weights))

        err = finite_diff_check(loss_fn, params)
        assert err < 1e-4
        np.testing.assert_array_equal(params["p"].grad[1, 2], 0.0)

    def test_second_backward_doubles_grad(self):
        rng = np.random.default_rng(43)
        p = Tensor(rng.normal(size=(3, 4, 2, 5)), requires_grad=True)
        loss = ops.sum(ops.mul(dynamic_routing(p, 3).v_final, Tensor(rng.normal(size=(3, 4, 5)))))
        loss.backward()
        once = p.grad.copy()
        loss.backward()
        np.testing.assert_array_equal(p.grad, 2.0 * once)

    def test_trace_arrays_read_only(self):
        trace = dynamic_routing(Tensor(_predictions((2, 3, 2, 4), np.float64), requires_grad=True), 2)
        for key in ("b", "c", "s", "v"):
            for arr in getattr(trace, key):
                with pytest.raises(ValueError):
                    arr[...] = 0.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k, r", [(5, 3), (1, 3), (5, 1)])
    @pytest.mark.parametrize("lead", [(), (1,), (2, 3)])
    def test_trace_and_grad_bitwise_equal_in_every_layout(self, lead, k, r, dtype):
        # routing reads P capsule-major (K x R x ... x D_P); the other
        # layouts it meets are copied once, and none changes a bit
        layouts = _laid_out(lead, k, r, dtype)
        want, v, _ = per_op_routing(Tensor(layouts["c_contiguous"]), 3)
        g = np.random.default_rng(47).normal(size=lead + (k, 10)).astype(dtype)
        grads = {}
        for name, p in layouts.items():
            trace = dynamic_routing(Tensor(p, requires_grad=True), iterations=3)
            for key in ("b", "c", "s", "v"):
                for it, arr in enumerate(getattr(trace, key)):
                    assert arr.dtype == dtype and arr.shape == want[key][it].shape, (name, key)
                    assert arr.tobytes() == want[key][it].tobytes(), (name, key, it)
            assert trace.v_final.values.tobytes() == v.values.tobytes(), name
            (grads[name],) = trace.v_final._vjp(g)
            assert grads[name].shape == p.shape
        assert len({gp.tobytes() for gp in grads.values()}) == 1

    @pytest.mark.parametrize("lead", [(), (4,)])
    @pytest.mark.parametrize("record", [True, False], ids=["graph", "no_grad"])
    def test_every_trace_array_read_only_in_the_lead_major_shape(self, record, lead):
        m, w = _detect_inputs(lead, seed=48, k=3, r=2, in_dim=6, caps_dim=5)
        with contextlib.nullcontext() if record else no_grad():
            trace = dynamic_routing(prediction_vectors(m, DetectionCapsParams(w=w)), iterations=3)
        assert trace.v_final.requires_grad is record
        shapes = {"b": lead + (3, 2), "c": lead + (3, 2), "s": lead + (3, 5), "v": lead + (3, 5)}
        arrays = [("v_final", trace.v_final.values, shapes["v"])]
        for key, shape in shapes.items():
            assert len(getattr(trace, key)) == 3
            arrays += [(key, arr, shape) for arr in getattr(trace, key)]
        for key, arr, shape in arrays:
            assert arr.shape == shape, key
            assert not arr.flags.writeable, key
            with pytest.raises(ValueError):
                arr[...] = 0.0


# ----------------------------------------------------------------------
# the margin-loss node against the per-op graph it replaced


def _relu(x):
    xv = x.values
    return _result(np.maximum(xv, 0.0), "relu", (x,), lambda g: (g * (xv > 0),))


def per_op_margin_loss(v, labels, penalty, *, downweight=0.5, margin_pos=0.9, margin_neg=0.1, penalty_weight=0.0):
    """The margin loss and its penalty term as a graph of per-op Tensor
    ops: the reference the loss node must reproduce bit for bit, in its
    loss and in every gradient. A Python scalar becomes a tensor of its
    operand's dtype, and a mean is a sum times 1/count."""
    labels = np.asarray(labels, dtype=np.int64)
    onehot = np.zeros(v.shape[:-1], dtype=v.values.dtype)
    np.put_along_axis(onehot, labels[..., None], 1.0, axis=-1)
    one = Tensor(onehot)

    def const(x, like):
        return Tensor(np.asarray(x, dtype=like.values.dtype))

    norms = ops.sqrt(ops.sum(ops.square(v), axis=-1))
    present = ops.square(_relu(ops.sub(const(margin_pos, norms), norms)))
    absent = ops.square(_relu(ops.sub(norms, margin_neg)))
    weight_absent = ops.mul(ops.sub(const(1.0, one), one), downweight)
    per_utt = ops.sum(ops.add(ops.mul(one, present), ops.mul(weight_absent, absent)), axis=-1)
    loss = ops.mul(ops.sum(per_utt), 1.0 / per_utt.size)
    if penalty_weight:
        loss = ops.add(loss, ops.mul(ops.mul(ops.sum(penalty), 1.0 / penalty.size), penalty_weight))
    return loss


def _loss_inputs(dtype, lead, seed, zero_rows=False, at_margins=False, k=5, caps_dim=10):
    """v (lead x K x D_P), labels and penalties; norms spread over both
    hinges. `zero_rows` zeroes a true and a false intent's vector,
    `at_margins` puts norms exactly at m+ and m- (the hinges' kinks)."""
    rng = np.random.default_rng(seed)
    v = rng.normal(scale=0.25, size=lead + (k, caps_dim)).astype(dtype)
    labels = rng.integers(0, k, size=lead)
    penalty = np.asarray(rng.uniform(0.0, 3.0, size=lead), dtype=dtype)
    first, last = (0,) * len(lead), (lead[0] - 1,) if lead else ()
    if zero_rows:
        v[first + (labels[first],)] = 0.0
        v[last + ((labels[last] + 1) % k,)] = 0.0
    if at_margins:
        for b, (target, margin) in enumerate([(True, 0.9), (False, 0.1), (True, 0.1), (False, 0.9)]):
            intent = labels[b] if target else (labels[b] + 1) % k
            v[b, intent] = 0.0
            v[b, intent, 0] = margin
            assert np.sqrt((v[b, intent] * v[b, intent]).sum()) == np.asarray(margin, dtype)
    return v, labels, penalty


LOSS_CASES = {
    "unbatched": {"lead": ()},
    "B=1": {"lead": (1,)},
    "B=3": {"lead": (3,)},  # 1/3 is inexact: the mean's rounding shows
    "B=4": {"lead": (4,)},
    "B=32": {"lead": (32,)},
    "zero-norm rows": {"lead": (4,), "zero_rows": True},
    "norms at m+ and m-": {"lead": (4,), "at_margins": True},
}


def _loss_and_grads(loss_fn, v_vals, labels, pen_vals, **kwargs):
    v = Tensor(v_vals, requires_grad=True)
    penalty = Tensor(pen_vals, requires_grad=True)
    loss = loss_fn(v, labels, penalty, **kwargs)
    loss.backward()
    return np.asarray(loss.values), v._grad, penalty._grad


class TestMarginLossNode:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("penalty_weight", [0.0, 0.0001, 0.3])
    def test_loss_and_grads_bitwise_equal_to_per_op_graph(self, dtype, penalty_weight):
        for case, kwargs in LOSS_CASES.items():
            for seed in range(5):
                v, labels, pen = _loss_inputs(dtype, seed=60 + seed, **kwargs)
                # the default downweight 0.5 scales exactly; 0.3 rounds
                weights = {"penalty_weight": penalty_weight, "downweight": (0.5, 0.3)[seed % 2]}
                got = _loss_and_grads(margin_loss_batch, v, labels, pen, **weights)
                want = _loss_and_grads(per_op_margin_loss, v, labels, pen, **weights)
                assert got[0].dtype == dtype and got[1].dtype == dtype, case
                for name, g, w in zip(("loss", "v", "penalty"), got, want):
                    if w is None:  # no penalty term: the penalty is not reached
                        assert g is None, (case, name)
                    else:
                        assert g.tobytes() == w.tobytes(), (case, seed, name)

    def test_node_gradcheck(self):
        v_vals, labels, pen = _loss_inputs(np.float64, (4,), seed=70, k=3, caps_dim=4)
        norms = np.linalg.norm(v_vals, axis=-1)
        true = np.arange(3) == labels[:, None]
        # both hinges active somewhere, and no norm near a kink
        assert (norms[true] < 0.9).any() and (norms[~true] > 0.1).any()
        assert np.abs(norms - 0.9).min() > 1e-3 and np.abs(norms - 0.1).min() > 1e-3
        params = {"v": Tensor(v_vals, requires_grad=True), "penalty": Tensor(pen, requires_grad=True)}

        def loss_fn(p):
            return margin_loss_batch(p["v"], labels, p["penalty"], downweight=0.7, penalty_weight=0.3)

        assert finite_diff_check(loss_fn, params) < 1e-6

    def test_second_backward_doubles_both_grads(self):
        v_vals, labels, pen_vals = _loss_inputs(np.float64, (4,), seed=71)
        v, penalty = Tensor(v_vals, requires_grad=True), Tensor(pen_vals, requires_grad=True)
        loss = margin_loss_batch(v, labels, penalty, penalty_weight=0.5)
        loss.backward()
        once = v.grad.copy(), penalty.grad.copy()
        loss.backward()
        np.testing.assert_array_equal(v.grad, 2.0 * once[0])
        np.testing.assert_array_equal(penalty.grad, 2.0 * once[1])

    def test_zero_penalty_weight_leaves_the_penalty_unreached(self):
        v_vals, labels, pen_vals = _loss_inputs(np.float32, (4,), seed=72)
        v, penalty = Tensor(v_vals, requires_grad=True), Tensor(pen_vals, requires_grad=True)
        weighted = margin_loss_batch(v, labels, penalty, penalty_weight=0.5)
        assert weighted.op == "margin_loss" and weighted.parents == (v, penalty)
        loss = margin_loss_batch(v, labels, penalty, penalty_weight=0.0)
        assert loss.parents == (v,)
        loss.backward()
        assert v._grad is not None and penalty._grad is None


# ----------------------------------------------------------------------
# the GEMM node against the broadcast product it replaced


def broadcast_prediction_vectors(m, w):
    """P as a graph of broadcast Tensor ops: the B*K*R one-row products
    the node's K*R GEMMs must reproduce up to summation order."""
    k, r, in_dim, caps_dim = w.shape
    lead = m.shape[:-2]
    p = ops.matmul(ops.reshape(m, *lead, 1, r, 1, in_dim), w)
    return ops.reshape(p, *lead, k, r, caps_dim)


def _detect_inputs(lead, seed=43, k=5, r=3, in_dim=64, caps_dim=10):
    rng = np.random.default_rng(seed)
    m = Tensor(rng.normal(size=lead + (r, in_dim)), requires_grad=True)
    w = Tensor(rng.normal(scale=0.2, size=(k, r, in_dim, caps_dim)), requires_grad=True)
    return m, w


def _assert_close(got, want, tol=1e-12):
    scale = np.abs(want).max()
    assert scale > 0
    assert np.abs(got - want).max() <= tol * scale


class TestPredictionVectorsNode:
    @pytest.mark.parametrize("lead", [(), (1,), (32,), (2, 3)])
    def test_forward_matches_broadcast_product(self, lead):
        m, w = _detect_inputs(lead)
        got = prediction_vectors(m, DetectionCapsParams(w=w))
        want = broadcast_prediction_vectors(m, w)
        assert got.shape == want.shape == lead + (5, 3, 10)
        # capsule-major: with the lead axes moved behind K x R, P's memory is C-contiguous
        assert np.moveaxis(got.values, (len(lead), len(lead) + 1), (0, 1)).flags.c_contiguous
        _assert_close(got.values, want.values)

    def test_float64_grads_through_loss_match_broadcast_product(self):
        labels = np.arange(32) % 5
        grads = []
        for predict in (lambda m, w: prediction_vectors(m, DetectionCapsParams(w=w)), broadcast_prediction_vectors):
            m, w = _detect_inputs((32,))
            v = dynamic_routing(predict(m, w), iterations=3).v_final
            margin_loss_batch(v, labels, Tensor(np.zeros(32))).backward()
            grads.append((m.grad, w.grad))
        (gm, gw), (want_m, want_w) = grads
        _assert_close(gm, want_m)
        _assert_close(gw, want_w)

    @pytest.mark.parametrize("batch", [1, 4])
    def test_node_gradcheck(self, batch):
        m, w = _detect_inputs((batch,), seed=44 + batch, k=3, r=2, in_dim=4, caps_dim=3)
        weights = Tensor(np.random.default_rng(batch).normal(size=(batch, 3, 2, 3)))
        params = {"m": m, "w": w}

        def loss_fn(q):
            return ops.sum(ops.tanh(ops.mul(prediction_vectors(q["m"], DetectionCapsParams(w=q["w"])), weights)))

        assert finite_diff_check(loss_fn, params) < 1e-6

    def test_second_backward_doubles_both_grads(self):
        m, w = _detect_inputs((4,))
        c = Tensor(np.random.default_rng(45).normal(size=(4, 5, 3, 10)))
        loss = ops.sum(ops.mul(prediction_vectors(m, DetectionCapsParams(w=w)), c))
        loss.backward()
        once = m.grad.copy(), w.grad.copy()
        loss.backward()
        np.testing.assert_array_equal(m.grad, 2.0 * once[0])
        np.testing.assert_array_equal(w.grad, 2.0 * once[1])
