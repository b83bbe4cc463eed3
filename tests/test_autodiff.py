"""The autodiff core (leaves, take_rows, backward, no_grad,
finite_diff_check) and the per-op reference ops of `refops` that the
other test modules build their reference graphs from."""

import math
import tracemalloc

import numpy as np
import pytest

from capsnlu.autodiff import (
    ContractError,
    DegenerateRowError,
    DimensionError,
    NumericError,
    Tensor,
    _result,
    _scatter_add_rows,
    finite_diff_check,
    no_grad,
)
import refops as ops


def t64(values, requires_grad=False):
    return Tensor(np.asarray(values, dtype=np.float64), requires_grad=requires_grad)


class TestMatmul:
    def test_identity(self):
        eye = t64(np.eye(2))
        a = t64([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose(ops.matmul(eye, a).values, a.values)

    def test_hand_product(self):
        a = t64([[1.0, 2.0], [3.0, 4.0]])
        b = t64([[5.0], [6.0]])
        np.testing.assert_allclose(ops.matmul(a, b).values, [[17.0], [39.0]])

    def test_inner_mismatch_names_both_shapes(self):
        a = t64(np.zeros((2, 3)))
        b = t64(np.zeros((2, 3)))
        with pytest.raises(DimensionError) as exc:
            ops.matmul(a, b)
        assert "(2, 3)" in str(exc.value)

    def test_triple_loop_oracle(self):
        # independent O(n^3) product, no numpy matmul involved
        rng = np.random.default_rng(0)
        a = rng.normal(size=(2, 3))
        b = rng.normal(size=(3, 4))
        want = [[sum(a[i, k] * b[k, j] for k in range(3)) for j in range(4)] for i in range(2)]
        got = ops.matmul(t64(a), t64(b)).values
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_batched_leading_dims(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(5, 2, 3))
        b = rng.normal(size=(3, 4))
        got = ops.matmul(t64(a), t64(b)).values
        for i in range(5):
            np.testing.assert_allclose(got[i], a[i] @ b)

    @pytest.mark.parametrize(
        "shape, dtype, grads",
        [
            ((4, 6, 5), np.float64, "ab"),
            ((2, 3, 4, 5), np.float64, "ab"),
            ((32, 15, 300), np.float32, "ab"),
            ((32, 15, 300), np.float64, "ab"),
            ((1, 15, 300), np.float32, "ab"),  # B=1
            ((1, 1, 300), np.float64, "ab"),  # B=1, T=1
            ((32, 1, 300), np.float32, "ab"),  # T=1
            ((2, 3, 7, 300), np.float32, "ab"),
            ((2, 3, 7, 300), np.float64, "ab"),
            ((4, 6, 5), np.float64, "a"),  # only the input requires grad
            ((32, 15, 300), np.float32, "b"),  # only the weight requires grad
        ],
    )
    def test_batched_input_times_weight_grads_match_einsum(self, shape, dtype, grads):
        rng = np.random.default_rng(2)
        n_out = 128 if shape[-1] == 300 else 3
        a = Tensor(rng.normal(size=shape), requires_grad="a" in grads, dtype=dtype)
        w = Tensor(rng.normal(size=(shape[-1], n_out)), requires_grad="b" in grads, dtype=dtype)
        c = rng.normal(size=shape[:-1] + (n_out,))
        tol = 1e-12 if dtype == np.float64 else 1e-5
        out = ops.matmul(a, w)
        want = np.matmul(a.values, w.values)
        assert out.values.dtype == dtype
        assert out.values.tobytes() == want.tobytes()
        ops.sum(ops.mul(out, Tensor(c, dtype=dtype))).backward()
        lead = "abcd"[: len(shape) - 1]
        av, wv = a.values.astype(np.float64), w.values.astype(np.float64)
        for name, t, ref in (
            ("b", w, np.einsum(f"{lead}k,{lead}n->kn", av, c)),
            ("a", a, np.einsum(f"{lead}n,kn->{lead}k", c, wv)),
        ):
            if name in grads:
                assert t.grad.dtype == dtype
                if shape[-1] == 300:  # long sums cancel: compare to the largest entry
                    assert np.abs(t.grad - ref).max() <= tol * np.abs(ref).max()
                else:
                    np.testing.assert_allclose(t.grad, ref, rtol=tol)
            else:
                assert t._grad is None

    def test_batched_input_times_weight_gradcheck(self):
        rng = np.random.default_rng(3)
        params = {
            "a": t64(rng.normal(size=(3, 4, 5)), requires_grad=True),
            "w": t64(rng.normal(scale=0.5, size=(5, 2)), requires_grad=True),
        }

        def loss_fn(p):
            return ops.sum(ops.square(ops.tanh(ops.matmul(ops.swapaxes(p["a"], 0, 1), p["w"]))))

        err = finite_diff_check(loss_fn, params)
        assert err < 1e-6


class TestUnary:
    def test_tanh_origin(self):
        np.testing.assert_array_equal(ops.tanh(t64([0.0, 0.0])).values, [0.0, 0.0])

    def test_square(self):
        np.testing.assert_allclose(ops.square(t64([-3.0, 2.0])).values, [9.0, 4.0])


class TestRowSoftmax:
    def test_uniform_inputs(self):
        out = ops.row_softmax(t64([[0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out.values, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-12)

    def test_hand_softmax(self):
        out = ops.row_softmax(t64([[math.log(2.0), 0.0]]))
        np.testing.assert_allclose(out.values, [[2 / 3, 1 / 3]], rtol=1e-12)

    def test_single_unmasked(self):
        out = ops.row_softmax(t64([[5.0, 5.0]]), mask=[[True, False]])
        np.testing.assert_array_equal(out.values, [[1.0, 0.0]])

    def test_fully_masked_row(self):
        with pytest.raises(DegenerateRowError):
            ops.row_softmax(t64([[1.0, 2.0]]), mask=[[False, False]])

    def test_large_values_stable(self):
        out = ops.row_softmax(t64([[1e4, 1e4]]))
        np.testing.assert_allclose(out.values, [[0.5, 0.5]])

    def test_rows_stochastic_random(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            r, c = rng.integers(1, 6), rng.integers(1, 8)
            x = rng.normal(scale=5.0, size=(r, c))
            mask = rng.random((r, c)) < 0.7
            mask[np.arange(r), rng.integers(0, c, size=r)] = True  # keep rows alive
            y = ops.row_softmax(t64(x), mask=mask).values
            np.testing.assert_allclose(y.sum(axis=-1), np.ones(r), atol=1e-9)
            assert (y >= 0).all() and (y <= 1).all()
            assert (y[~mask] == 0).all()


class TestConcatStack:
    def test_axis0(self):
        out = ops.concat(t64([1.0, 2.0]), t64([3.0]), axis=0)
        np.testing.assert_array_equal(out.values, [1.0, 2.0, 3.0])

    def test_axis1(self):
        out = ops.concat(t64([[1.0], [2.0]]), t64([[3.0], [4.0]]), axis=1)
        np.testing.assert_array_equal(out.values, [[1.0, 3.0], [2.0, 4.0]])

    def test_incompatible(self):
        with pytest.raises(DimensionError):
            ops.concat(t64([[1.0, 2.0]]), t64([[3.0], [4.0]]), axis=0)

    def test_concat_backward_splits(self):
        a = t64([1.0, 2.0], requires_grad=True)
        b = t64([3.0], requires_grad=True)
        out = ops.concat(ops.mul(a, 2.0), ops.mul(b, 3.0), axis=0)
        ops.sum(out).backward()
        np.testing.assert_array_equal(a.grad, [2.0, 2.0])
        np.testing.assert_array_equal(b.grad, [3.0])

    def test_stack_backward(self):
        a = t64([1.0, 2.0], requires_grad=True)
        b = t64([3.0, 4.0], requires_grad=True)
        out = ops.stack([a, b], axis=0)
        ops.sum(ops.mul(out, t64([[1.0, 2.0], [3.0, 4.0]]))).backward()
        np.testing.assert_array_equal(a.grad, [1.0, 2.0])
        np.testing.assert_array_equal(b.grad, [3.0, 4.0])


class TestFrobenius:
    def test_zero(self):
        assert ops.sum(ops.square(t64(np.zeros((3, 3))))).item() == 0.0

    def test_permutation_matrix(self):
        assert ops.sum(ops.square(t64([[0.0, 1.0], [1.0, 0.0]]))).item() == 2.0

    def test_three_four(self):
        assert ops.sum(ops.square(t64([[3.0, 4.0]]))).item() == 25.0


class TestBackward:
    def test_sum_gives_ones(self):
        x = t64(np.arange(6.0).reshape(2, 3), requires_grad=True)
        ops.sum(x).backward()
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_frobenius_grad(self):
        x = t64([[3.0]], requires_grad=True)
        ops.sum(ops.square(x)).backward()
        np.testing.assert_array_equal(x.grad, [[6.0]])

    def test_non_scalar_rejected(self):
        x = t64([1.0, 2.0], requires_grad=True)
        with pytest.raises(ContractError):
            ops.mul(x, 2.0).backward()

    def test_accumulation_is_exactly_double(self):
        x = t64(np.random.default_rng(3).normal(size=(4,)), requires_grad=True)
        loss = ops.sum(ops.mul(ops.tanh(x), x))
        loss.backward()
        once = x.grad.copy()
        loss.backward()
        np.testing.assert_array_equal(x.grad, 2.0 * once)

    def test_reset_grad(self):
        x = t64([2.0], requires_grad=True)
        ops.sum(ops.square(x)).backward()
        x.reset_grad()
        np.testing.assert_array_equal(x.grad, [0.0])

    def test_grad_zero_on_creation(self):
        x = t64([1.0, 2.0], requires_grad=True)
        np.testing.assert_array_equal(x.grad, [0.0, 0.0])

    def test_shared_subexpression(self):
        # x used twice: d/dx (x*x) = 2x
        x = t64([3.0], requires_grad=True)
        ops.sum(ops.mul(x, x)).backward()
        np.testing.assert_array_equal(x.grad, [6.0])

    def test_no_grad_blocks_graph(self):
        x = t64([1.0], requires_grad=True)
        with no_grad():
            y = ops.mul(x, 2.0)
        assert not y.requires_grad
        assert y.parents == ()


class TestShapeAlgebra:
    def test_random_valid_triples(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n, m, p = rng.integers(1, 7, size=3)
            a = t64(rng.normal(size=(n, m)))
            b = t64(rng.normal(size=(m, p)))
            assert ops.matmul(a, b).shape == (n, p)
            ax = int(rng.integers(0, 2))
            c = t64(rng.normal(size=(n, m)))
            d_shape = [n, m]
            d_shape[ax] = int(rng.integers(1, 5))
            d = t64(rng.normal(size=tuple(d_shape)))
            out = ops.concat(c, d, axis=ax)
            want = list((n, m))
            want[ax] = m + d_shape[ax] if ax == 1 else n + d_shape[ax]
            assert out.shape == tuple(want)

    def test_graph_is_acyclic(self):
        x = t64([1.0], requires_grad=True)
        y = x
        for _ in range(50):
            y = ops.add(ops.mul(y, 1.5), x)
        ops.sum(y).backward()  # topological sort would hang or fail on a cycle
        assert np.isfinite(x.grad).all()


def _rand_graph_loss(params):
    """Composite graph over the supported op set, for gradient checking."""
    w1, w2, v = params["w1"], params["w2"], params["v"]
    h = ops.tanh(ops.matmul(v, w1))
    a = ops.row_softmax(ops.matmul(h, w2))
    sig = ops.mul(ops.add(ops.tanh(ops.mul(ops.matmul(v, w1), 0.5)), 1.0), 0.5)  # the logistic sigmoid
    m = ops.matmul(a, sig)
    pieces = ops.concat(m, ops.tanh(v), axis=-1)
    s = ops.stack([ops.sum(pieces, axis=0), ops.sum(ops.square(pieces), axis=0)], axis=0)
    norm = ops.sqrt(ops.add(ops.sum(ops.square(s), axis=-1, keepdims=True), 1.0))
    gram = ops.matmul(a, ops.swapaxes(a, -1, -2))
    eye = Tensor(np.eye(a.shape[0], dtype=np.float64))
    return ops.add(ops.sum(ops.div(s, norm)), ops.sum(ops.square(ops.sub(gram, eye))))


class TestFiniteDiffCheck:
    def test_square_at_three(self):
        theta = t64([3.0], requires_grad=True)
        err = finite_diff_check(lambda p: ops.sum(ops.square(p[0][1])), [("theta", theta)], epsilon=1e-4)
        assert err < 1e-8

    def test_nan_loss_raises(self):
        theta = t64([1.0], requires_grad=True)

        def bad(_):
            return ops.mul(Tensor(np.asarray(np.nan, dtype=np.float64), requires_grad=True), ops.sum(theta))

        with pytest.raises(NumericError):
            finite_diff_check(bad, [("theta", theta)], epsilon=1e-4)

    def test_nan_gradient_raises(self):
        # a finite loss under a VJP that returns NaN: a NaN compares false
        # against any tolerance, so it must fail loudly instead
        theta = t64([1.0], requires_grad=True)

        def bad(_):
            return _result(theta.values.sum(), "bad", (theta,), lambda g: (np.full(1, np.nan),))

        with pytest.raises(NumericError, match="theta"):
            finite_diff_check(bad, [("theta", theta)], epsilon=1e-4)

    def test_bad_epsilon(self):
        theta = t64([1.0], requires_grad=True)
        with pytest.raises(ContractError):
            finite_diff_check(lambda p: ops.sum(theta), [("theta", theta)], epsilon=0.0)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_random_composite_graphs(self, seed):
        rng = np.random.default_rng(seed)
        params = {
            "w1": t64(rng.normal(scale=0.4, size=(3, 4)), requires_grad=True),
            "w2": t64(rng.normal(scale=0.4, size=(4, 3)), requires_grad=True),
            "v": t64(rng.normal(scale=0.4, size=(3, 3)), requires_grad=True),
        }
        err = finite_diff_check(_rand_graph_loss, params, epsilon=1e-4)
        assert err < 1e-4


class TestGatherOps:
    def test_take_rows_forward(self):
        table = t64(np.arange(12.0).reshape(4, 3), requires_grad=True)
        out = table.take_rows(np.array([0, 2, 0]))
        np.testing.assert_array_equal(out.values, [[0, 1, 2], [6, 7, 8], [0, 1, 2]])

    def test_take_rows_accumulates_duplicates(self):
        table = t64(np.zeros((4, 3)), requires_grad=True)
        out = table.take_rows(np.array([1, 1, 3]))
        ops.sum(out).backward()
        np.testing.assert_array_equal(table.grad[1], [2.0, 2.0, 2.0])
        np.testing.assert_array_equal(table.grad[3], [1.0, 1.0, 1.0])
        np.testing.assert_array_equal(table.grad[0], [0.0, 0.0, 0.0])

    def test_take_rows_second_backward_doubles_leaf_grad(self):
        rng = np.random.default_rng(4)
        table = t64(rng.normal(size=(6, 3)), requires_grad=True)
        loss = ops.sum(ops.mul(table.take_rows(np.array([[4, 0], [2, 5]])), t64(rng.normal(size=(2, 2, 3)))))
        loss.backward()
        once = table.grad.copy()
        loss.backward()
        np.testing.assert_array_equal(table.grad, 2.0 * once)
        np.testing.assert_array_equal(table.grad[[1, 3]], 0.0)

    def test_take_rows_non_leaf_source_gradcheck(self):
        rng = np.random.default_rng(5)
        idx = np.array([[1, 3, 1], [0, 3, 3]])
        c = t64(rng.normal(size=(2, 3, 4)))
        params = {"table": t64(rng.normal(size=(5, 4)), requires_grad=True)}

        def loss_fn(p):
            return ops.sum(ops.tanh(ops.mul(ops.mul(p["table"], 2.0).take_rows(idx), c)))

        err = finite_diff_check(loss_fn, params)
        assert err < 1e-6
        np.testing.assert_array_equal(params["table"].grad[[2, 4]], 0.0)

    def test_take_rows_leaf_also_used_elsewhere_sums_both(self):
        table = t64(np.arange(12.0).reshape(4, 3), requires_grad=True)
        c = np.arange(6.0).reshape(2, 3) - 2.0
        d = np.full((4, 3), 0.5)
        loss = ops.add(ops.sum(ops.mul(table.take_rows(np.array([3, 3])), t64(c))), ops.sum(ops.mul(table, t64(d))))
        loss.backward()
        want = d.copy()
        want[3] += c[0] + c[1]
        np.testing.assert_array_equal(table.grad, want)

    def test_take_rows_backward_allocates_no_table_sized_array(self):
        table = t64(np.ones((2000, 300)), requires_grad=True)
        assert not table.grad.any()  # allocates the accumulator before tracing starts
        loss = ops.sum(table.take_rows(np.array([[1, 7, 7]])))
        tracemalloc.start()
        try:
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * table.values.nbytes, f"peak {peak} bytes for a {table.values.nbytes}-byte table"
        np.testing.assert_array_equal(table.grad[7], 2.0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_take_rows_scatter_is_bytewise_add_at(self, dtype):
        # the reference is np.add.at onto the same starting gradient, once
        # per backward; repeats (and -1 aliasing the last row) must land in
        # the same order, so the bytes agree, not merely the values
        rng = np.random.default_rng(6)
        idx = np.concatenate([rng.integers(0, 40, size=(32, 15)), np.full((32, 3), -1)], axis=1)
        idx[:5, :4] = 7
        table = Tensor(rng.normal(size=(40, 9)), requires_grad=True, dtype=dtype)
        c = Tensor(rng.normal(size=idx.shape + (9,)), dtype=dtype)
        loss = ops.sum(ops.tanh(ops.mul(table.take_rows(idx), c)))
        g = (c.values * (1.0 - np.tanh(table.values[idx] * c.values) ** 2)).astype(dtype)
        want = np.zeros_like(table.values)
        for _ in range(2):
            loss.backward()
            np.add.at(want, idx, g)
            assert table.grad.tobytes() == want.tobytes()

    def test_scatter_of_zero_and_repeated_rows_is_bytewise_add_at(self):
        # all-zero rows (either sign), some of them at repeated indices, are
        # added like any other; dst must stay byte equal to np.add.at, from
        # a +0.0 start and from a non-zero one
        rng = np.random.default_rng(8)
        negative_zeros = repeated_zero_rows = 0
        for draw in range(240):
            dtype = (np.float32, np.float64)[draw % 2]
            n_rows = int(rng.integers(1, 10))
            row_shape = ((), (1,), (4,), (2, 3))[draw % 4]
            idx = rng.integers(-n_rows, n_rows, size=tuple(rng.integers(1, 7, size=int(rng.integers(1, 3)))))
            g = rng.normal(size=idx.shape + row_shape).astype(dtype)
            g[rng.random(g.shape) < 0.2] = 0.0  # rows with some zero entries
            zero_rows = rng.random(idx.shape) < 0.4
            g[zero_rows] = np.where(rng.random(row_shape) < 0.5, -0.0, 0.0)
            negative_zeros += int(np.signbit(g[zero_rows]).sum())
            keys = idx % n_rows
            repeated_zero_rows += int((np.bincount(keys.ravel(), minlength=n_rows)[keys[zero_rows]] > 1).sum())
            if draw % 3 == 0:
                start = np.zeros((n_rows,) + row_shape, dtype=dtype)
            else:
                start = rng.normal(size=(n_rows,) + row_shape).astype(dtype)
            got = start.copy()
            _scatter_add_rows(got, idx, g)
            want = start.copy()
            np.add.at(want, idx, g)
            assert got.tobytes() == want.tobytes(), draw
        assert negative_zeros > 0 and repeated_zero_rows > 0

    def test_take_rows_non_integer(self):
        with pytest.raises(ContractError):
            t64(np.zeros((2, 2))).take_rows(np.array([0.5]))

    def test_getitem_backward(self):
        x = t64(np.arange(6.0).reshape(2, 3), requires_grad=True)
        ops.sum(ops.index(x, np.s_[:, 1])).backward()
        np.testing.assert_array_equal(x.grad, [[0, 1, 0], [0, 1, 0]])



class TestGradRowRecord:
    """``reset_grad`` zeroes a leaf's whole gradient, whether row scatters
    alone or dense writes too reached it."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("lookups_only", [True, False])
    def test_reset_grad_zeroes_the_whole_buffer(self, dtype, lookups_only):
        table = Tensor(np.ones((6, 3)), requires_grad=True, dtype=dtype)
        ops.sum(table.take_rows(np.array([[2, 4], [4, 0]]))).backward()
        if not lookups_only:
            table.grad[5] = -3.0
        table.reset_grad()
        assert table.grad.tobytes() == bytes(table.grad.nbytes)  # +0.0 everywhere


class TestSoftmaxAxis:
    def test_axis_choice_normalizes_that_axis(self):
        rng = np.random.default_rng(5)
        x = t64(rng.normal(size=(2, 3, 4)))
        y = ops.softmax(x, axis=-2)
        np.testing.assert_allclose(y.values.sum(axis=-2), np.ones((2, 4)), atol=1e-9)


class TestConcurrency:
    def test_no_grad_is_thread_local(self):
        # a thread evaluating under no_grad must not suppress another
        # thread's graph recording
        import threading

        results = {}
        barrier = threading.Barrier(2)

        def grad_worker():
            x = t64([2.0], requires_grad=True)
            barrier.wait()
            for _ in range(200):
                ops.sum(ops.square(x)).backward()
            results["grad"] = x.grad.copy()

        def eval_worker():
            x = t64([3.0], requires_grad=True)
            barrier.wait()
            y = None
            with no_grad():
                for _ in range(200):
                    y = ops.square(x)
            results["eval_requires_grad"] = y.requires_grad

        threads = [threading.Thread(target=grad_worker), threading.Thread(target=eval_worker)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        np.testing.assert_allclose(results["grad"], [4.0 * 200])
        assert results["eval_requires_grad"] is False

    def test_distinct_graphs_on_distinct_threads(self):
        import threading

        failures = []

        def worker(seed):
            rng = np.random.default_rng(seed)
            x = t64(rng.normal(size=(4,)), requires_grad=True)
            for _ in range(100):
                loss = ops.sum(ops.mul(ops.tanh(x), x))
                loss.backward()
                got = x.grad.copy()
                x.reset_grad()
                want = np.tanh(x.values) + x.values * (1 - np.tanh(x.values) ** 2)
                if not np.allclose(got, want, atol=1e-12):
                    failures.append(seed)
                    return

        threads = [threading.Thread(target=worker, args=(s,)) for s in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert failures == []
