import concurrent.futures
import contextlib
import copy
import dataclasses
import functools
import json
import sys
import threading
import time
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest

from conftest import ARCHIVE_DAMAGES, TOY_EMERGING, TOY_EXISTING, _adam_threads, toy_config
import refops as ops

from capsnlu.autodiff import ContractError, NumericError, Tensor, no_grad
from capsnlu import harness
from capsnlu.data import Corpus
from capsnlu.harness import (
    EVAL_BATCH,
    Adam,
    _forward_chunks,
    attention_offdiag_mean,
    batch_loss,
    build_tiny_setup,
    evaluate,
    export_activations_emerging,
    export_activations_existing,
    export_attention,
    predict_existing,
    stratified_split,
    train,
    zsl_evaluate,
    zsl_predict,
)
from capsnlu import model as model_module
from capsnlu import semantic
from capsnlu.model import forward_batch, init_model, load_model, save_model
from capsnlu.semantic import TokenBatch, check_token_ids


class TestTrain:
    def test_separable_toy_reaches_full_accuracy(self, toy_setup):
        cfg, table, corpus, _ = toy_setup
        model, history = train(cfg, corpus, table)
        report = evaluate(model, corpus, cfg)
        assert report.accuracy == 1.0
        assert len(history.epoch_losses) == cfg.epochs

    def test_zero_epochs_returns_initialized_params(self, toy_setup):
        cfg, table, corpus, _ = toy_setup
        cfg.epochs = 0
        model, history = train(cfg, corpus, table)
        fresh = init_model(table, cfg, rng=np.random.default_rng(cfg.seed))
        for (_, a), (_, b) in zip(model.trainable(), fresh.trainable()):
            np.testing.assert_array_equal(a.values, b.values)
        assert history.epoch_losses == []

    def test_zero_learning_rate_freezes_loss(self, toy_setup):
        cfg, table, corpus, _ = toy_setup
        cfg.learning_rate = 0.0
        cfg.epochs = 4
        cfg.batch_size = len(corpus.samples)  # one canonical batch per epoch
        _, history = train(cfg, corpus, table)
        losses = np.asarray(history.epoch_losses)
        np.testing.assert_allclose(losses, losses[0], atol=1e-12)

    def test_loss_descends_on_toy(self, toy_setup):
        cfg, table, corpus, _ = toy_setup
        _, history = train(cfg, corpus, table)
        assert history.epoch_losses[-1] < history.epoch_losses[0]

    def test_determinism(self, toy_setup):
        cfg, table, corpus, _ = toy_setup
        m1, h1 = train(cfg, corpus, table)
        m2, h2 = train(cfg, corpus, table)
        assert h1.epoch_losses == h2.epoch_losses
        for (_, a), (_, b) in zip(m1.trainable(), m2.trainable()):
            np.testing.assert_array_equal(a.values, b.values)

    def test_divergence_aborts_with_checkpoint(self, toy_setup):
        cfg, table, corpus, _ = toy_setup
        table.vectors = table.vectors.copy()
        table.vectors[corpus.samples[0][0][0]] = np.nan  # poison one input word
        with pytest.raises(NumericError) as exc:
            train(cfg, corpus, table)
        assert hasattr(exc.value, "checkpoint")
        assert "embedding" in exc.value.checkpoint

    def test_pad_row_stays_zero(self, toy_setup):
        cfg, table, corpus, _ = toy_setup
        cfg.epochs = 3
        model, _ = train(cfg, corpus, table)
        np.testing.assert_array_equal(model.embedding.values[model.pad_id], 0.0)

    def test_empty_corpus_rejected(self, toy_setup):
        from capsnlu.autodiff import ContractError

        cfg, table, corpus, _ = toy_setup
        empty = Corpus([], corpus.label_names)
        with pytest.raises(ContractError):
            train(cfg, empty, table)
        model, _ = train(toy_config(epochs=1), corpus, table)
        with pytest.raises(ContractError):
            evaluate(model, empty, cfg)
        with pytest.raises(ContractError, match="empty corpus"):
            attention_offdiag_mean(model, empty, cfg)
        with pytest.raises(ContractError, match="empty corpus"):
            zsl_evaluate(model, Corpus([], list(TOY_EMERGING)), table.intent_vectors, cfg)

    def test_one_head_has_no_overlap(self, toy_setup):
        cfg, table, corpus, _ = toy_setup
        one = toy_config(heads=1)
        assert attention_offdiag_mean(init_model(table, one), corpus, one) == 0.0


def _textbook_adam(params, grads, moments, t, lr):
    """One Adam step as a fresh-array expression: the reference Adam.step
    must reproduce bit for bit."""
    b1, b2, eps = 0.9, 0.999, 1e-8  # written out, not read from harness: the oracle stays independent
    for i, (p, g) in enumerate(zip(params, grads)):
        m, v = moments[i]
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * (g * g)
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)
        moments[i] = (m, v)


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestAdam:
    # 2,000 rows of 300 span several row blocks in float32 and in float64,
    # and are a multiple of neither block length
    SHAPES = [(2000, 300), (3, 4, 5, 6), (7,), ()]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("lr", [1e-3, 0.05, 0.0])
    def test_bitwise_equal_to_textbook_update(self, dtype, lr):
        rng = np.random.default_rng(11)
        tensors = [Tensor(rng.normal(size=s).astype(dtype), requires_grad=True) for s in self.SHAPES]
        ref = [t.values.copy() for t in tensors]
        start = [p.copy() for p in ref]
        moments = [(np.zeros_like(p), np.zeros_like(p)) for p in ref]
        opt = Adam([(f"p{i}", t) for i, t in enumerate(tensors)], lr=lr)
        for step in range(1, 7):
            opt.zero_grad()
            grads = []
            for t in tensors:
                g = rng.normal(scale=10.0 ** rng.integers(-6, 2), size=t.shape).astype(dtype)
                if g.ndim:
                    g[:: step + 1] = 0.0  # rows with no gradient this step
                    g[:3] = 0.0  # rows that never get one
                t.grad[...] = g
                grads.append(g)
            opt.step()
            _textbook_adam(ref, grads, moments, step, lr)
            for i, t in enumerate(tensors):
                assert _same_bits(t.values, ref[i]), (step, self.SHAPES[i])
                assert _same_bits(opt.m[i], moments[i][0]) and _same_bits(opt.v[i], moments[i][1])
        if lr == 0.0:
            assert all(_same_bits(t.values, p) for t, p in zip(tensors, start))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("write", ["lookup", "lookup_and_product", "grad_read"])
    def test_table_step_bitwise_equal_to_textbook_update(self, dtype, write):
        # gradients reach a 500-row table through embedding lookups, two
        # backward passes per step, with repeated ids and pad positions (id
        # 0, no gradient); the PAD row is frozen as harness.train freezes
        # it. Lookups alone go through the rows step: they read a leaf of
        # the step's rows while a worker steps the whole table without
        # gradient. A table also used densely, or written through .grad,
        # takes the whole-table step.
        self._table_steps(dtype, write, 500)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("write", ["lookup", "lookup_and_product", "grad_read"])
    def test_table_over_several_blocks_steps_bitwise_equal_to_textbook_update(self, dtype, write):
        # the same steps on 2,000 rows: 3 row blocks in float32 and 5 in
        # float64, where 500 rows are one block in float32
        assert len(harness._row_blocks(np.empty((2000, 300), dtype))) >= 3
        self._table_steps(dtype, write, 2000)

    def test_embedding_sized_table_pass_runs_in_eight_blocks(self, monkeypatch):
        # a 6,345 x 300 float32 table, the size of train-snips' embedding:
        # each block is 9 numpy calls of the worker's pass, and each call
        # takes the GIL once from the forward and backward beside it
        table = Tensor(np.zeros((6345, 300), np.float32), requires_grad=True)
        updated = []
        real = harness._update

        def counted(pb, *args):
            updated.append(len(pb))
            real(pb, *args)

        monkeypatch.setattr(harness, "_update", counted)
        Adam([("table", table)], lr=1e-3)._gradient_free_step(0, 1)
        assert len(updated) <= 8 and sum(updated) == 6345

    def _table_steps(self, dtype, write, n_rows):
        # The rows step runs with the interpreter switching threads every
        # microsecond, so a read or write of the table racing the worker
        # would show.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            self._table_steps_at_any_switch(dtype, write, n_rows)
        finally:
            sys.setswitchinterval(interval)

    def _table_steps_at_any_switch(self, dtype, write, n_rows):
        rng = np.random.default_rng(13)
        table = Tensor(rng.normal(size=(n_rows, 300)), requires_grad=True, dtype=dtype)
        ref = [table.values.copy()]
        moments = [(np.zeros_like(ref[0]), np.zeros_like(ref[0]))]
        opt = Adam([("table", table)], lr=1e-3)
        for step in range(1, 7):
            lookups = []
            for _ in range(2):
                idx = rng.integers(1, n_rows, size=(8, 12))
                idx[:, 9:] = 0
                idx[0, :4] = idx[1, 0]
                c = rng.normal(scale=10.0 ** rng.integers(-6, 2), size=idx.shape + (300,)).astype(dtype)
                c[:, 9:] = 0.0
                lookups.append((idx, Tensor(c)))
            opt.zero_grad()
            grad = np.zeros_like(table.values)
            if write == "lookup":
                rows = np.unique(np.concatenate([idx.ravel() for idx, _ in lookups]))
                with opt.rows_step(table, rows) as leaf:
                    for idx, c in lookups:
                        ops.sum(ops.mul(leaf.take_rows(np.searchsorted(rows, idx)), c)).backward()
                    leaf.grad[0] = 0.0  # rows[0] is the PAD row
                    grad[rows] = leaf.grad
            else:
                for idx, c in lookups:
                    loss = ops.sum(ops.mul(table.take_rows(idx), c))
                    if write == "lookup_and_product":
                        dense = Tensor(rng.normal(size=table.shape).astype(dtype))
                        loss = ops.add(loss, ops.sum(ops.mul(table, dense)))
                    loss.backward()
                table.grad[0] = 0.0
                grad[...] = table.grad
                opt.step()
            _textbook_adam(ref, [grad], moments, step, 1e-3)
            assert _same_bits(table.values, ref[0]), step
            assert _same_bits(opt.m[0], moments[0][0]) and _same_bits(opt.v[0], moments[0][1])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_row_record_is_used_only_where_skipping_is_exact(self, dtype):
        # the rows step's worker skips the gradient terms of the rows
        # outside the step, which is exact only if no moment it decays
        # becomes -0.0. Step 1 leaves m[1] at -tiny (the smallest
        # subnormal). At step 2 row 1 is outside the rows, so the worker
        # steps it: 0.9 * m[1] keeps -tiny, where a beta1 <= 0.5 would
        # round it to the -0.0 that the textbook's + 0.0 turns into +0.0.
        table = Tensor(np.ones((4, 2)), requires_grad=True, dtype=dtype)
        tiny = np.finfo(dtype).smallest_subnormal
        first = -10 * tiny  # (1 - 0.9) * first rounds to -tiny
        ref = [table.values.copy()]
        moments = [(np.zeros_like(ref[0]), np.zeros_like(ref[0]))]
        opt = Adam([("table", table)], lr=1e-3)
        for step, (row, value) in enumerate([(1, first), (2, 1.0)], start=1):
            opt.zero_grad()
            grad = np.zeros_like(table.values)
            with opt.rows_step(table, [row]) as leaf:
                ops.sum(ops.mul(leaf.take_rows(np.array([0])), Tensor(np.full((1, 2), value, dtype=dtype)))).backward()
                grad[row] = leaf.grad[0]
            _textbook_adam(ref, [grad], moments, step, 1e-3)
            if step == 1:
                assert moments[0][0][1].tolist() == [-tiny, -tiny]
            assert _same_bits(table.values, ref[0])
            assert _same_bits(opt.m[0], moments[0][0]) and _same_bits(opt.v[0], moments[0][1])
        assert np.signbit(moments[0][0][1]).all()

    @pytest.mark.parametrize("name, value", [("lr", -1e-3), ("lr", float("nan")), ("lr", float("inf"))])
    def test_rejects_hyperparameter_out_of_range(self, name, value):
        table = Tensor(np.ones((4, 2)), requires_grad=True)
        with pytest.raises(ContractError, match=f"Adam {name} must be .*, got {value!r}"):
            Adam([("table", table)], **{"lr": 1e-3, name: value})

    @pytest.mark.parametrize("name", ["beta1", "beta2", "eps"])
    def test_betas_and_eps_are_not_settings(self, name):
        # every caller trains with the paper's defaults: Adam takes lr alone
        table = Tensor(np.ones((4, 2)), requires_grad=True)
        with pytest.raises(TypeError, match=name):
            Adam([("table", table)], lr=1e-3, **{name: 0.5})

    def test_step_allocates_no_parameter_sized_array(self):
        rng = np.random.default_rng(12)
        table = Tensor(rng.normal(size=(2000, 300)), requires_grad=True)
        opt = Adam([("table", table)], lr=1e-3)
        for rows_step in (False, True):
            for _ in range(2):
                opt.zero_grad()
                if not rows_step:
                    table.grad[...] = rng.normal(size=table.shape)
                idx = rng.integers(0, 2000, size=(4, 15))
                rows = np.unique(idx)
                tracemalloc.start()
                try:
                    if rows_step:  # 60 lookups through a leaf of their rows, the worker beside them
                        with opt.rows_step(table, rows) as leaf:
                            ops.sum(leaf.take_rows(np.searchsorted(rows, idx))).backward()
                    else:
                        opt.step()
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak < 0.25 * table.values.nbytes, f"peak {peak} bytes for a {table.values.nbytes}-byte parameter"

    def test_parameter_listed_twice_is_named(self):
        # stepping it once per entry would move it twice as far
        t = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ContractError, match="parameters 'a' and 'b' share memory; Adam would step it twice"):
            Adam([("a", t), ("b", t)], lr=0.1)
        with pytest.raises(ContractError, match="parameters 'a' and 'view' share memory"):
            Adam([("a", t), ("other", Tensor(np.ones(3), requires_grad=True)), ("view", Tensor(t.values[1:]))], lr=0.1)
        opt = Adam([("a", t)], lr=0.1)
        t.grad[...] = 1.0
        opt.step()
        np.testing.assert_allclose(t.values, 0.9)

    def test_rows_step_misuse_is_named(self):
        table = Tensor(np.ones((4, 2)), requires_grad=True)
        opt = Adam([("table", table)], lr=1e-3)
        before = threading.active_count()
        with pytest.raises(ContractError, match="needs a table that is one of the optimizer's parameters"):
            with opt.rows_step(Tensor(np.ones((4, 2)), requires_grad=True), [0]):
                pass
        for rows in ([], [[0]], [0.5], [True]):
            with pytest.raises(ContractError, match="needs a non-empty 1-d array of integer row ids"):
                with opt.rows_step(table, rows):
                    pass
        for rows in ([1, 1], [2, 1], [-1, 2], [0, 4]):  # a repeat would be written back twice
            with pytest.raises(ContractError, match="needs sorted distinct row ids of the 4-row table"):
                with opt.rows_step(table, rows):
                    pass
        assert opt.t == 0  # no block above was entered
        # each misuse inside a block aborts that block's step
        for misuse, message in [
            (lambda opt: opt.rows_step(table, [1]).__enter__(), "a rows step is already open"),
            (Adam.step, "step\\(\\) inside a rows_step block would race its worker"),
        ]:
            opt = Adam([("table", table)], lr=1e-3)
            with pytest.raises(ContractError, match=message):
                with opt.rows_step(table, [0]):
                    misuse(opt)
            assert opt.t == 0
            with pytest.raises(ContractError, match="Adam step 1 was aborted"):
                opt.step()
        assert threading.active_count() == before

    def test_block_left_by_an_exception_takes_no_step(self, monkeypatch):
        # t and the other parameters and their moments are as before, the
        # block's pass (a slow one) has finished when the block is left,
        # the optimizer refuses every later step, naming the aborted one,
        # and no worker outlives the optimizer
        real_pass, finished = Adam._gradient_free_step, []

        def slow_pass(self, index, t):
            time.sleep(0.05)
            real_pass(self, index, t)
            finished.append(t)

        monkeypatch.setattr(Adam, "_gradient_free_step", slow_pass)
        rng = np.random.default_rng(3)
        table = Tensor(rng.normal(size=(6, 2)), requires_grad=True)
        w = Tensor(rng.normal(size=3), requires_grad=True)
        before = threading.active_count()
        opt = Adam([("table", table), ("w", w)], lr=1e-3)
        w.grad[...] = 1.0
        w0 = w.values.copy()
        with pytest.raises(RuntimeError, match="forward failed"):
            with opt.rows_step(table, [1, 4]):
                raise RuntimeError("forward failed")
        assert opt.t == 0 and finished == [1]
        assert _same_bits(w.values, w0) and not opt.m[1].any() and not opt.v[1].any()
        stepped = table.values.copy()
        refused = "Adam step 1 was aborted by an exception; the optimizer takes no further step"
        with pytest.raises(ContractError, match=refused):
            with opt.rows_step(table, [1, 4]):
                pass
        with pytest.raises(ContractError, match=refused):
            opt.step()
        assert opt.t == 0 and finished == [1] and _same_bits(table.values, stepped) and _same_bits(w.values, w0)
        assert threading.active_count() == before

    @pytest.mark.parametrize("failing", ["pass", "rows_step", "write_back"])
    def test_step_whose_exit_raises_is_refused_after(self, monkeypatch, failing):
        # the block ran, but the wait for the pass, the rows' step or the
        # write-back raised on its exit: that step is aborted as well
        table = Tensor(np.ones((4, 2)), requires_grad=True)
        opt = Adam([("table", table)], lr=1e-3)
        with opt.rows_step(table, [1]) as leaf:
            ops.sum(leaf).backward()
        if failing == "pass":
            monkeypatch.setattr(Adam, "_gradient_free_step", lambda *args: 1 / 0)
        elif failing == "rows_step":
            monkeypatch.setattr(harness, "_full_step", lambda *args: 1 / 0)
        with pytest.raises((ZeroDivisionError, ValueError)):
            with opt.rows_step(table, [2]) as leaf:
                ops.sum(leaf).backward()
                if failing == "write_back":
                    leaf.values = np.ones((2, 2))  # two rows cannot be written back into row 2
        with pytest.raises(ContractError, match="Adam step 2 was aborted"):
            with opt.rows_step(table, [1]):
                pass
        with pytest.raises(ContractError, match="Adam step 2 was aborted"):
            opt.step()

    @staticmethod
    def _cut_a_wait_short(opt, table, monkeypatch) -> list:
        """After one step of row 1, run a block of row 3 whose wait for its
        pass's result a KeyboardInterrupt cuts short. The block's way out
        still waits for that pass of step 2, which adds 10 to table row 2
        and appends its step to the list returned."""
        real_pass, done = Adam._gradient_free_step, []

        def late_pass(self, index, t):
            time.sleep(0.1)
            real_pass(self, index, t)
            table.values[2] += 10.0
            done.append(t)

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        with opt.rows_step(table, [1]) as leaf:
            ops.sum(leaf).backward()
        with monkeypatch.context() as mp, pytest.raises(KeyboardInterrupt):
            mp.setattr(Adam, "_gradient_free_step", late_pass)
            mp.setattr(concurrent.futures.Future, "result", interrupted)
            with opt.rows_step(table, [3]) as leaf:
                ops.sum(leaf).backward()
        return done

    def test_rows_step_after_a_wait_cut_short_is_refused(self, monkeypatch):
        # the pass moved the table (row 2 as well) while the rows' step was
        # not taken, so the next block is refused before it gathers a row
        table = Tensor(np.ones((4, 2)), requires_grad=True)
        before = threading.active_count()
        opt = Adam([("table", table)], lr=1e-3)
        done = self._cut_a_wait_short(opt, table, monkeypatch)
        with pytest.raises(ContractError, match="Adam step 2 was aborted by an exception"):
            with opt.rows_step(table, [2]):
                pass
        assert opt.t == 2
        assert done == [2] and table.values[2].tolist() == [11.0, 11.0] and threading.active_count() == before

    def test_step_after_a_wait_cut_short_is_refused(self, monkeypatch):
        table = Tensor(np.ones((4, 2)), requires_grad=True)
        before = threading.active_count()
        opt = Adam([("table", table)], lr=1e-3)
        done = self._cut_a_wait_short(opt, table, monkeypatch)
        opt.zero_grad()
        with pytest.raises(ContractError, match="Adam step 2 was aborted by an exception"):
            opt.step()
        assert opt.t == 2
        assert done == [2] and table.values[2].tolist() == [11.0, 11.0] and threading.active_count() == before

    WAYS_OUT = {
        "normal": None,
        "block_raises": RuntimeError,
        "pass_raises": ZeroDivisionError,
        "write_back_raises": ValueError,
        "keyboard_interrupt": KeyboardInterrupt,
    }

    @pytest.mark.parametrize("way_out", list(WAYS_OUT))
    def test_no_pass_thread_outlives_its_block(self, monkeypatch, way_out):
        # each rows step runs its pass on a thread of its own, and every way
        # out of the block ends it: right after a block no pass thread is
        # alive, even a slow pass's, and the next step's pass ran on a new one
        real_pass, ran_on = Adam._gradient_free_step, []

        def slow_pass(self, index, t):
            ran_on.append(threading.current_thread())
            time.sleep(0.02)
            if way_out == "pass_raises" and t == 2:
                raise ZeroDivisionError("pass failed")
            real_pass(self, index, t)

        monkeypatch.setattr(Adam, "_gradient_free_step", slow_pass)
        table = Tensor(np.ones((4, 2)), requires_grad=True)
        opt = Adam([("table", table)], lr=1e-3)
        with opt.rows_step(table, [1]) as leaf:
            ops.sum(leaf).backward()
        assert not _adam_threads()
        raised = self.WAYS_OUT[way_out]
        with pytest.raises(raised) if raised else contextlib.nullcontext():
            with opt.rows_step(table, [2]) as leaf:
                ops.sum(leaf).backward()
                if way_out == "block_raises":
                    raise RuntimeError("forward failed")
                if way_out == "keyboard_interrupt":
                    raise KeyboardInterrupt
                if way_out == "write_back_raises":
                    leaf.values = np.ones((2, 2))  # two rows cannot be written back into row 2
        assert not _adam_threads()
        first, second = ran_on
        assert first is not second and first.name.startswith("adam-rows-step")
        assert not first.is_alive() and not second.is_alive()

    def test_a_copy_between_steps_takes_the_same_next_step(self):
        # what saving and resuming a run rely on: between rows steps the
        # optimizer holds no thread, so it deep-copies, and the copy's next
        # step gives the original's bits
        rng = np.random.default_rng(5)
        table = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=4), requires_grad=True)
        opt = Adam([("table", table), ("w", w)], lr=1e-3)
        c, g = Tensor(rng.normal(size=(2, 3))), rng.normal(size=4)

        def step(opt, rows):
            (_, table), (_, w) = opt.params
            opt.zero_grad()
            w.grad[...] = g
            with opt.rows_step(table, rows) as leaf:
                ops.sum(ops.mul(leaf, c)).backward()

        step(opt, [1, 4])
        copied = copy.deepcopy(opt)
        step(opt, [0, 4])
        assert copied.t == 1
        step(copied, [0, 4])
        assert opt.t == copied.t == 2
        got = copied.m + copied.v + [t.values for _, t in copied.params]
        want = opt.m + opt.v + [t.values for _, t in opt.params]
        assert all(_same_bits(a, b) and a is not b for a, b in zip(got, want))


class TestTrainStepExactness:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_row_sparse_steps_equal_dense_steps(self, toy_setup, monkeypatch, dtype):
        # harness.train steps each batch's embedding rows through a leaf
        # while a worker steps the whole table without gradient; a copy of
        # its loop on the whole table (the lookups scatter into the table's
        # own .grad, then the whole-table step) must reach the same bits,
        # over ragged batches with dropout
        cfg, table, corpus, _ = toy_setup
        cfg.epochs, cfg.batch_size, cfg.dropout_keep = 1, 3, 0.7  # one epoch: train keeps its last values
        monkeypatch.setattr(harness, "init_model", functools.partial(init_model, dtype=dtype))
        made = []

        class Recorded(Adam):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(harness, "Adam", Recorded)
        model, _ = train(cfg, corpus, table)

        rng = np.random.default_rng(cfg.seed)
        dense = init_model(table, cfg, rng=rng, dtype=dtype)
        opt = Adam(dense.trainable(), lr=cfg.learning_rate)
        order = rng.permutation(len(corpus.samples))
        for start in range(0, len(order), cfg.batch_size):
            batch = [corpus.samples[i] for i in np.sort(order[start : start + cfg.batch_size])]
            loss = batch_loss(dense, [ids for ids, _ in batch], [lab for _, lab in batch], cfg, training=True, rng=rng)
            opt.zero_grad()
            loss.backward()
            dense.embedding.grad[dense.pad_id] = 0.0
            opt.step()
        assert opt.t == made[0].t == 7
        got = [t.values for _, t in model.trainable()] + made[0].m + made[0].v
        want = [t.values for _, t in dense.trainable()] + opt.m + opt.v
        assert all(_same_bits(a, b) for a, b in zip(got, want))


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("lengths", [(3, 3, 3), (4, 1, 3)], ids=["pad_free", "padded"])
    def test_list_batch_and_token_batch_give_the_same_bytes(self, dtype, lengths):
        # train hands batch_loss a TokenBatch, callers a list: the loss and
        # every leaf's gradient must not depend on which, dropout included
        model, cfg, _, _ = build_tiny_setup(0, dtype=dtype)
        cfg.dropout_keep = 0.7
        rng = np.random.default_rng(4)
        seqs = [rng.integers(0, 8, size=n).tolist() for n in lengths]
        got = []
        for tokens in (seqs, TokenBatch.of(seqs)):
            for _, t in model.trainable():
                t.reset_grad()
            loss = batch_loss(model, tokens, [0, 2, 1], cfg, training=True, rng=np.random.default_rng(9))
            loss.backward()
            got.append([loss.values.tobytes()] + [t.grad.tobytes() for _, t in model.trainable()])
        assert got[0] == got[1]
        assert all(t.grad.any() for _, t in model.trainable())

    def test_each_batch_is_renumbered_onto_the_rows_it_steps(self, toy_setup, monkeypatch):
        # the leaf's row k is table row rows[k]: each batch is a TokenBatch
        # of int64 local ids that cover every row, the local pad is the
        # table's pad row, and mapped back through the rows one epoch's
        # batches are the corpus's utterances
        cfg, table, corpus, _ = toy_setup
        cfg.epochs, cfg.batch_size = 1, 3
        stepped_rows, seen = [], []

        class Recorded(Adam):
            @contextlib.contextmanager
            def rows_step(self, param, rows):
                stepped_rows.append(np.asarray(rows))
                with super().rows_step(param, rows) as leaf:
                    yield leaf

        real_loss = harness.batch_loss

        def recording_loss(model, tokens, labels, *args, **kwargs):
            rows = stepped_rows[-1]
            assert isinstance(tokens, TokenBatch) and tokens.values.dtype == np.int64
            assert rows[model.pad_id] == table.pad_id
            assert sorted(set(tokens.values.tolist()) | {model.pad_id}) == list(range(len(rows)))
            utterances = np.split(rows[tokens.values], np.cumsum(tokens.lengths)[:-1])
            seen.extend((tuple(ids.tolist()), int(label)) for ids, label in zip(utterances, labels))
            return real_loss(model, tokens, labels, *args, **kwargs)

        monkeypatch.setattr(harness, "Adam", Recorded)
        monkeypatch.setattr(harness, "batch_loss", recording_loss)
        train(cfg, corpus, table)
        assert len(stepped_rows) == -(-len(corpus.samples) // cfg.batch_size)
        assert sorted(seen) == sorted((tuple(ids), label) for ids, label in corpus.samples)


class TestTrainThreads:
    """Each step's gradient-free embedding pass runs on a thread of the
    step's own, which ends on every way out of the step, and its error
    reaches the caller."""

    @pytest.fixture(autouse=True)
    def slow_worker(self, monkeypatch) -> list:
        # the toy table's pass takes microseconds; a slow one would still be
        # running at the thread count below if train left it unjoined, and
        # any worker left alive is still running; the steps whose pass has
        # finished are listed
        real, finished = Adam._gradient_free_step, []

        def slow(self, index, t):
            time.sleep(0.02)
            real(self, index, t)
            finished.append(t)

        monkeypatch.setattr(Adam, "_gradient_free_step", slow)
        return finished

    def test_no_thread_outlives_a_normal_run(self, toy_setup):
        cfg, table, corpus, _ = toy_setup
        cfg.epochs = 2
        before = threading.active_count()
        train(cfg, corpus, table)
        assert threading.active_count() == before

    def test_no_thread_outlives_a_diverged_run(self, toy_setup):
        cfg, table, corpus, _ = toy_setup
        table.vectors = table.vectors.copy()
        table.vectors[corpus.samples[0][0][0]] = np.nan
        before = threading.active_count()
        with pytest.raises(NumericError, match="training diverged"):
            train(cfg, corpus, table)
        assert threading.active_count() == before

    def test_no_thread_outlives_an_error_in_backward(self, toy_setup, monkeypatch):
        cfg, table, corpus, _ = toy_setup

        def broken(self):
            raise RuntimeError("backward failed")

        monkeypatch.setattr(Tensor, "backward", broken)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="backward failed"):
            train(cfg, corpus, table)
        assert threading.active_count() == before

    def test_between_steps_the_optimizer_holds_no_open_step(self, toy_setup, monkeypatch, slow_worker):
        # what resume relies on: after every step Adam has the attributes
        # of a fresh one, every pass has finished and no pass thread
        # exists, so neither a step's leaf nor a thread needs saving
        cfg, table, corpus, _ = toy_setup
        cfg.epochs = 2
        keys, between = [], []

        class Recorded(Adam):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                keys.append(sorted(vars(self)))

            @contextlib.contextmanager
            def rows_step(self, param, rows):
                with super().rows_step(param, rows) as leaf:
                    yield leaf
                keys.append(sorted(vars(self)))
                idle = slow_worker == list(range(1, self.t + 1))  # every pass started has finished
                between.append((idle, _adam_threads()))

        monkeypatch.setattr(harness, "Adam", Recorded)
        train(cfg, corpus, table)
        steps = cfg.epochs * -(-len(corpus.samples) // cfg.batch_size)
        assert len(keys) == 1 + steps and all(k == keys[0] for k in keys)
        assert between == [(True, set())] * steps

    def test_no_thread_outlives_a_keyboard_interrupt(self, toy_setup, monkeypatch):
        cfg, table, corpus, _ = toy_setup

        def interrupted(self):
            raise KeyboardInterrupt

        monkeypatch.setattr(Tensor, "backward", interrupted)
        before = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            train(cfg, corpus, table)
        assert threading.active_count() == before

    def test_worker_error_is_raised_in_the_caller(self, toy_setup, monkeypatch):
        cfg, table, corpus, _ = toy_setup
        hooked = []
        monkeypatch.setattr(threading, "excepthook", hooked.append)

        def broken(self, index, t):
            raise RuntimeError(f"worker failed at step {t}")

        monkeypatch.setattr(Adam, "_gradient_free_step", broken)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="worker failed at step 1"):
            train(cfg, corpus, table)
        assert threading.active_count() == before
        assert hooked == []

    @pytest.mark.parametrize(
        "bad",
        [-1, None, 2.5, np.nan, "rows", [2], 2**70, Decimal("1.5")],
        ids=["negative", "rows", "fraction", "nan", "string", "list", "int_past_int64", "decimal"],
    )
    def test_bad_token_id_is_named_before_any_step(self, toy_setup, monkeypatch, bad):
        # -1 would gather the last row and 2.5 fail as a bare IndexError;
        # the batch cut from the corpus's packed ids raises the list batch's
        # own error, and the optimizer takes no step
        cfg, table, corpus, _ = toy_setup
        rows = table.vectors.shape[0]
        bad = rows if bad is None else bad  # one past the last row
        samples = list(corpus.samples)
        ids, label = samples[3]
        samples[3] = (ids[:1] + [bad] + ids[1:], label)
        cfg.batch_size = len(samples)  # one batch in corpus order
        with pytest.raises(ContractError) as listed:
            check_token_ids(TokenBatch.of([ids for ids, _ in samples]), rows)
        assert str(listed.value).startswith("utterance 3 has token id ")
        made = []

        class Recorded(Adam):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(harness, "Adam", Recorded)
        before = threading.active_count()
        with pytest.raises(ContractError) as trained:
            train(cfg, Corpus(samples, corpus.label_names), table)
        assert str(trained.value) == str(listed.value)
        assert threading.active_count() == before
        fresh = init_model(table, cfg, rng=np.random.default_rng(cfg.seed))
        (opt,) = made
        assert opt.t == 0
        assert all(_same_bits(t.values, f.values) for (_, t), (_, f) in zip(opt.params, fresh.trainable()))


class TestSplits:
    def make_corpus(self, per_class):
        samples = []
        for lab, count in enumerate(per_class):
            samples += [([lab + 1], lab) for _ in range(count)]
        names = [f"c{i}" for i in range(len(per_class))]
        return Corpus(samples, names)

    def test_split_fractions_per_class(self):
        corpus = self.make_corpus([10, 20])
        tr, va, te = stratified_split(corpus, seed=3)
        # per class: 10 -> (7, 1, 2) and 20 -> (14, 2, 4)
        assert len(tr) == 21 and len(va) == 3 and len(te) == 6
        assert {lab for _, lab in tr.samples} == {0, 1}

    def test_split_covers_disjointly(self):
        corpus = self.make_corpus([9, 9, 9])
        tr, va, te = stratified_split(corpus, seed=5)
        assert len(tr) + len(va) + len(te) == 27


class TestZeroShot:
    def test_toy_emerging_accuracy(self, toy_setup):
        cfg, table, corpus, emerging = toy_setup
        model, _ = train(cfg, corpus, table)
        report, per_intent = zsl_evaluate(model, emerging, table.intent_vectors, cfg)
        # Tunes carries Music's embedding, Sports lands on Weather; the
        # toy's emerging utterances reuse those keyword sets
        assert report.accuracy == 1.0
        assert [name for name, _, _ in per_intent] == list(TOY_EMERGING)
        for _, acc, var in per_intent:
            assert acc == 1.0
            assert var >= 0.0

    def test_single_emerging_class_trivial_accuracy(self, toy_setup):
        cfg, table, corpus, emerging = toy_setup
        cfg.emerging_labels = (TOY_EMERGING[0],)
        table.build_intent_vectors(list(TOY_EXISTING) + [TOY_EMERGING[0]])
        only_tunes = [s for s in emerging.samples if s[1] == 0]
        corpus_one = Corpus(only_tunes, [TOY_EMERGING[0]])
        model, _ = train(cfg, corpus, table)
        report, _ = zsl_evaluate(model, corpus_one, table.intent_vectors, cfg)
        assert report.accuracy == 1.0

    def test_empty_corpus_gives_empty_predictions(self, toy_setup):
        cfg, table, corpus, emerging = toy_setup
        model = init_model(table, cfg)
        preds, acts, _ = zsl_predict(model, emerging.subset([], "none"), table.intent_vectors, cfg)
        _, some_acts, _ = zsl_predict(model, emerging.subset([0], "one"), table.intent_vectors, cfg)
        assert preds.shape == (0,) and preds.dtype == np.int64
        assert acts.shape == (0, len(TOY_EMERGING), cfg.caps_dim)
        assert acts.dtype == some_acts.dtype

    def test_huge_sigma_norms_invariant_to_label_permutation(self, toy_setup):
        cfg, table, corpus, emerging = toy_setup
        cfg.sigma = 1e6
        model, _ = train(cfg, corpus, table)
        _, acts, sim = zsl_predict(model, emerging, table.intent_vectors, cfg)
        np.testing.assert_allclose(sim.q, 0.5, atol=1e-3)
        swapped = table.intent_vectors.copy()
        swapped[[2, 3]] = swapped[[3, 2]]  # permute emerging label embeddings
        _, acts2, _ = zsl_predict(model, emerging, swapped, cfg)
        np.testing.assert_allclose(
            np.linalg.norm(acts, axis=-1), np.linalg.norm(acts2, axis=-1), atol=1e-9
        )


class TestRegularizerEffect:
    def test_penalty_reduces_head_overlap(self, toy_setup):
        # synthetic stand-in for the published ablation: with the
        # orthogonality term on, attention heads overlap less; the toy
        # needs a heavy weight because its utterances are only a few
        # tokens long and its margin loss saturates within a few epochs
        cfg, table, corpus, _ = toy_setup
        cfg_on = toy_config(penalty_weight=1.0)
        cfg_off = toy_config(penalty_weight=0.0)
        model_on, _ = train(cfg_on, corpus, table)
        model_off, _ = train(cfg_off, corpus, table)
        off_diag_on = attention_offdiag_mean(model_on, corpus, cfg_on)
        off_diag_off = attention_offdiag_mean(model_off, corpus, cfg_off)
        assert off_diag_on < off_diag_off


class TestExports:
    def test_attention_export_structure(self, toy_setup, tmp_path):
        cfg, table, corpus, _ = toy_setup
        cfg.epochs = 2
        model, _ = train(cfg, corpus, table)
        words = [None] * len(table.vocab)
        for w, i in table.vocab.items():
            words[i] = w
        out = export_attention(model, corpus, cfg, words, tmp_path / "attn.tsv")
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "utterance\tposition\ttoken\thead\tscore"
        total_tokens = sum(len(ids) for ids, _ in corpus.samples)
        assert len(lines) - 1 == total_tokens * cfg.heads
        # scores of one utterance-head sum to 1
        first = [l.split("\t") for l in lines[1:] if l.startswith("0\t") and l.split("\t")[3] == "0"]
        assert sum(float(r[4]) for r in first) == pytest.approx(1.0, abs=1e-4)

    def test_activation_exports(self, toy_setup, tmp_path):
        cfg, table, corpus, emerging = toy_setup
        cfg.epochs = 2
        model, _ = train(cfg, corpus, table)
        out1 = export_activations_existing(model, corpus, cfg, tmp_path / "act.tsv")
        lines = out1.read_text(encoding="utf-8").splitlines()
        assert len(lines) - 1 == len(corpus.samples) * len(TOY_EXISTING)
        out2 = export_activations_emerging(model, emerging, table.intent_vectors, cfg, tmp_path / "em.tsv")
        lines2 = out2.read_text(encoding="utf-8").splitlines()
        assert len(lines2) - 1 == len(emerging.samples) * len(TOY_EMERGING)
        assert lines2[0].startswith("utterance\ttrue_intent\tpredicted_intent")


def _random_corpus(table, label_names, n: int, seed: int, max_len: int = 15) -> Corpus:
    """`n` utterances of 1 to `max_len` random words (any row but the pad
    row) with random labels, in no order of length."""
    rng = np.random.default_rng(seed)
    words = np.delete(np.arange(table.vectors.shape[0]), table.pad_id)
    samples = [
        (rng.choice(words, size=int(rng.integers(1, max_len + 1))).tolist(), int(rng.integers(len(label_names))))
        for _ in range(n)
    ]
    return Corpus(samples, list(label_names))


class TestEvalChunks:
    """Evaluation cuts its chunks from the corpus sorted by length, and
    every consumer puts its results back in corpus order."""

    def test_chunks_cover_the_corpus_in_length_order(self, toy_setup):
        cfg, table, corpus, _ = toy_setup
        big = _random_corpus(table, corpus.label_names, 2 * EVAL_BATCH + 13, seed=1)
        lengths = np.array([len(ids) for ids, _ in big.samples])
        chunks = []
        for indices, fwd in _forward_chunks(init_model(table, cfg), big, cfg, lambda fwd: fwd):
            assert fwd.A.shape[0] == len(indices)
            assert fwd.A.shape[-1] == lengths[indices].max()  # padded only to its own longest
            chunks.append(indices)
        assert [len(c) for c in chunks] == [EVAL_BATCH, EVAL_BATCH, 13]
        order = np.concatenate(chunks)
        assert sorted(order.tolist()) == list(range(len(big)))
        assert (np.diff(lengths[order]) >= 0).all()
        assert order.tolist() == sorted(range(len(big)), key=lambda i: lengths[i])  # ties in corpus order

    @pytest.mark.parametrize("loaded", [False, True], ids=["trained", "loaded"])
    def test_shuffled_corpus_in_one_chunk_gives_the_same_activations(self, toy_setup, tmp_path, loaded):
        cfg, table, corpus, emerging = toy_setup
        cfg.epochs = 3
        model, _ = train(cfg, corpus, table)
        if loaded:  # frozen weights: the forward reads the projection table
            model = load_model(save_model(model, table, cfg, tmp_path / "model")).model
        rng = np.random.default_rng(2)

        def existing_acts(c):
            return np.stack(harness._per_utterance(model, c, cfg, lambda fwd: fwd.trace.v_final.values))

        for c in (corpus, emerging):
            assert len(c) <= EVAL_BATCH and len({len(ids) for ids, _ in c.samples}) > 1
            perm = rng.permutation(len(c))
            shuffled = c.subset(perm, "shuffled")
            assert existing_acts(shuffled).tobytes() == existing_acts(c)[perm].tobytes()
            _, acts, _ = zsl_predict(model, c, table.intent_vectors, cfg)
            _, shuffled_acts, _ = zsl_predict(model, shuffled, table.intent_vectors, cfg)
            assert shuffled_acts.tobytes() == acts[perm].tobytes()

    def test_shuffled_corpus_over_several_chunks_gives_the_same_predictions(self, toy_setup):
        cfg, table, corpus, _ = toy_setup
        model, _ = train(cfg, corpus, table)
        big = _random_corpus(table, corpus.label_names, 3 * EVAL_BATCH + 5, seed=3)
        perm = np.random.default_rng(4).permutation(len(big))
        shuffled = big.subset(perm, "shuffled")
        preds = predict_existing(model, big, cfg)
        assert len(set(preds.tolist())) > 1
        np.testing.assert_array_equal(predict_existing(model, shuffled, cfg), preds[perm])
        zsl, acts, _ = zsl_predict(model, big, table.intent_vectors, cfg)
        zsl_shuffled, acts_shuffled, _ = zsl_predict(model, shuffled, table.intent_vectors, cfg)
        assert len(set(zsl.tolist())) > 1
        np.testing.assert_array_equal(zsl_shuffled, zsl[perm])
        np.testing.assert_allclose(acts_shuffled, acts[perm], rtol=1e-5, atol=1e-7)

    def test_exports_keep_corpus_order(self, toy_setup, tmp_path):
        cfg, table, corpus, _ = toy_setup
        cfg.epochs = 2
        model, _ = train(cfg, corpus, table)
        big = _random_corpus(table, corpus.label_names, EVAL_BATCH + 20, seed=5)
        words = [None] * len(table.vocab)
        for w, i in table.vocab.items():
            words[i] = w
        attn = export_attention(model, big, cfg, words, tmp_path / "attn.tsv").read_text(encoding="utf-8")
        acts = export_activations_existing(model, big, cfg, tmp_path / "act.tsv").read_text(encoding="utf-8")
        attn, acts = attn.splitlines(), acts.splitlines()
        assert attn[0] == "utterance\tposition\ttoken\thead\tscore"
        assert acts[0] == "\t".join(["utterance", "true_intent", "intent", "norm"] + [f"v{i}" for i in range(cfg.caps_dim)])
        # each utterance alone, in corpus order, gives the rows
        want_attn, want_acts = [], []
        for i, (ids, lab) in enumerate(big.samples):
            with no_grad():
                fwd = forward_batch(model, [ids], cfg)
            for pos, wid in enumerate(ids):
                for head in range(cfg.heads):
                    want_attn.append(([str(i), str(pos), words[wid], str(head)], [fwd.A.values[0, head, pos]]))
            v = fwd.trace.v_final.values[0]
            for k, name in enumerate(cfg.existing_labels):
                want_acts.append(([str(i), big.label_names[lab], name], [np.linalg.norm(v[k]), *v[k]]))
        for lines, want, keys in ((attn, want_attn, 4), (acts, want_acts, 3)):
            assert len(lines) - 1 == len(want)
            for line, (cols, values) in zip(lines[1:], want):
                got = line.split("\t")
                assert got[:keys] == cols
                np.testing.assert_allclose([float(x) for x in got[keys:]], values, atol=2e-6)


def _cpus(monkeypatch, n: int) -> None:
    """Make the process look as if it may run on `n` CPUs."""
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: set(range(n)))


def _eval_threads() -> list:
    return [t for t in threading.enumerate() if t.name.startswith("eval-chunk")]


def _record_forwards(monkeypatch, before=None) -> list:
    """Wrap the harness's forward_batch: each call checks that its chunk
    came as a TokenBatch, appends (thread name, token batch) and runs
    `before(tokens)`, if given, first."""
    calls = []
    forward = harness.forward_batch

    def recorded(model, tokens, cfg, **kwargs):
        assert isinstance(tokens, TokenBatch)
        calls.append((threading.current_thread().name, tokens))
        if before is not None:
            before(tokens)
        return forward(model, tokens, cfg, **kwargs)

    monkeypatch.setattr(harness, "forward_batch", recorded)
    return calls


def _first_ids(tokens: TokenBatch) -> list:
    """The ids of the first utterance of a chunk."""
    return tokens.values[: tokens.lengths[0]].tolist()


def _chunk_head(corpus: Corpus, chunk: int) -> int:
    """The corpus index of the first utterance of eval chunk `chunk`."""
    lengths = np.array([len(ids) for ids, _ in corpus.samples])
    return int(np.argsort(lengths, kind="stable")[chunk * EVAL_BATCH])


def _with_bad_ids(corpus: Corpus, bad: dict) -> Corpus:
    """`corpus` with the first token of the first utterance of each chunk
    `c` in `bad` replaced by the id bad[c]; lengths, and so chunks, stay."""
    samples = list(corpus.samples)
    for chunk, bad_id in bad.items():
        i = _chunk_head(corpus, chunk)
        ids, lab = samples[i]
        samples[i] = ([bad_id, *ids[1:]], lab)
    return Corpus(samples, list(corpus.label_names))


class _Interrupting:
    """A forward pass whose every read raises KeyboardInterrupt."""

    def __getattr__(self, name):
        raise KeyboardInterrupt


class TestEvalPool:
    """Evaluation runs its chunks on one worker thread per CPU, with the
    outputs of a one-thread run, and no worker outlives the call."""

    @pytest.mark.parametrize("loaded", [False, True], ids=["trained", "loaded"])
    def test_one_and_two_cpus_give_identical_bytes(self, toy_setup, tmp_path, monkeypatch, loaded):
        cfg, table, corpus, emerging = toy_setup
        cfg.epochs = 2
        model, _ = train(cfg, corpus, table)
        if loaded:  # frozen weights: the workers share the projection table
            model = load_model(save_model(model, table, cfg, tmp_path / "model")).model
        big = _random_corpus(table, corpus.label_names, 2 * EVAL_BATCH + 13, seed=6)
        big_emerging = _random_corpus(table, emerging.label_names, 2 * EVAL_BATCH + 7, seed=7)
        words = [None] * len(table.vocab)
        for w, i in table.vocab.items():
            words[i] = w

        def outputs(n: int) -> list:
            _cpus(monkeypatch, n)
            calls = _record_forwards(monkeypatch)
            out = tmp_path / f"cpus{n}"
            out.mkdir()
            got = [
                np.stack(harness._per_utterance(model, big, cfg, lambda fwd: fwd.trace.v_final.values)).tobytes(),
                *(a.tobytes() for a in zsl_predict(model, big_emerging, table.intent_vectors, cfg)[:2]),
                export_attention(model, big, cfg, words, out / "attn.tsv").read_bytes(),
                export_activations_existing(model, big, cfg, out / "act.tsv").read_bytes(),
                export_activations_emerging(model, big_emerging, table.intent_vectors, cfg, out / "em.tsv").read_bytes(),
            ]
            return got, {name.split("_")[0] for name, _ in calls}

        one, one_threads = outputs(1)
        two, two_threads = outputs(2)
        assert one_threads == {threading.main_thread().name}
        assert two_threads == {"eval-chunk"}
        assert len(one) == len(two) == 6
        for a, b in zip(one, two):
            assert a == b

    def test_one_chunk_starts_no_thread(self, toy_setup, monkeypatch):
        cfg, table, corpus, emerging = toy_setup
        _cpus(monkeypatch, 2)
        calls = _record_forwards(monkeypatch)
        model = init_model(table, cfg)
        evaluate(model, corpus, cfg)
        zsl_evaluate(model, emerging, table.intent_vectors, cfg)
        assert [name for name, _ in calls] == [threading.main_thread().name] * 2

    def test_first_failing_chunk_in_chunk_order_raises(self, toy_setup, monkeypatch):
        cfg, table, corpus, _ = toy_setup
        rows = len(table.vocab)
        model = init_model(table, cfg)
        big = _with_bad_ids(_random_corpus(table, corpus.label_names, 2 * EVAL_BATCH + 9, seed=8), {0: rows + 1, 1: rows + 2})
        _cpus(monkeypatch, 1)
        with pytest.raises(ContractError) as inline:
            predict_existing(model, big, cfg)
        assert f"token id {rows + 1}, " in str(inline.value)
        _cpus(monkeypatch, 2)
        # chunk 0 fails after chunk 1 has failed
        _record_forwards(monkeypatch, lambda tokens: time.sleep(0.2) if rows + 1 in _first_ids(tokens) else None)
        with pytest.raises(ContractError) as pooled:
            predict_existing(model, big, cfg)
        assert str(pooled.value) == str(inline.value)

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize(
        "bad",
        [-1, None, 2.5, np.nan, "rows", [2], 2**70, Decimal("1.5")],
        ids=["negative", "rows", "fraction", "nan", "string", "list", "int_past_int64", "decimal"],
    )
    def test_first_bad_chunk_names_its_id(self, toy_setup, monkeypatch, bad, cpus):
        # a bad id in chunk 1 and another in chunk 2, each chunk cut from the
        # corpus's packed ids: chunk 1 raises the list batch's own error
        cfg, table, corpus, _ = toy_setup
        rows = len(table.vocab)
        bad = rows if bad is None else bad  # one past the last row
        model = init_model(table, cfg)
        big = _with_bad_ids(_random_corpus(table, corpus.label_names, 3 * EVAL_BATCH, seed=12), {1: bad, 2: -2})
        chunk = np.argsort([len(ids) for ids, _ in big.samples], kind="stable")[EVAL_BATCH : 2 * EVAL_BATCH]
        seqs = [big.samples[i][0] for i in chunk]
        with pytest.raises(ContractError) as listed:
            check_token_ids(TokenBatch.of(seqs), rows)
        assert str(listed.value).startswith("utterance 0 has token id ")
        _cpus(monkeypatch, cpus)
        with pytest.raises(ContractError) as pooled:
            predict_existing(model, big, cfg)
        assert str(pooled.value) == str(listed.value)

    def test_failing_chunk_cancels_the_queued_ones(self, toy_setup, monkeypatch):
        cfg, table, corpus, _ = toy_setup
        rows = len(table.vocab)
        model = init_model(table, cfg)
        big = _with_bad_ids(_random_corpus(table, corpus.label_names, 8 * EVAL_BATCH, seed=9), {0: rows})
        _cpus(monkeypatch, 2)
        calls = _record_forwards(monkeypatch, lambda tokens: None if rows in _first_ids(tokens) else time.sleep(0.2))
        with pytest.raises(ContractError, match=f"token id {rows}, "):
            predict_existing(model, big, cfg)
        # chunk 0 and the one chunk each worker may start before the caller
        # sees chunk 0 fail; none of the other five
        assert len(calls) <= 3
        assert not _eval_threads()

    @pytest.mark.parametrize("outcome", ["returns", "raises", "interrupted"])
    @pytest.mark.parametrize(
        "call",
        ["evaluate", "zsl_evaluate", "export_attention", "export_activations_existing", "export_activations_emerging"],
    )
    def test_no_worker_outlives_the_call(self, toy_setup, tmp_path, monkeypatch, call, outcome):
        cfg, table, corpus, emerging = toy_setup
        model = init_model(table, cfg)
        labels = emerging.label_names if call in ("zsl_evaluate", "export_activations_emerging") else corpus.label_names
        big = _random_corpus(table, labels, 3 * EVAL_BATCH, seed=10)
        if outcome == "raises":
            big = _with_bad_ids(big, {2: len(table.vocab)})
        _cpus(monkeypatch, 2)
        calls = _record_forwards(monkeypatch)
        if outcome == "interrupted":  # the read of chunk 1 raises
            forward, head = harness.forward_batch, big.samples[_chunk_head(big, 1)][0]
            monkeypatch.setattr(
                harness,
                "forward_batch",
                lambda m, tokens, c: _Interrupting() if _first_ids(tokens) == head else forward(m, tokens, c),
            )
        words = [None] * len(table.vocab)
        for w, i in table.vocab.items():
            words[i] = w
        run = {
            "evaluate": lambda: evaluate(model, big, cfg),
            "zsl_evaluate": lambda: zsl_evaluate(model, big, table.intent_vectors, cfg),
            "export_attention": lambda: export_attention(model, big, cfg, words, tmp_path / "out.tsv"),
            "export_activations_existing": lambda: export_activations_existing(model, big, cfg, tmp_path / "out.tsv"),
            "export_activations_emerging": lambda: export_activations_emerging(
                model, big, table.intent_vectors, cfg, tmp_path / "out.tsv"
            ),
        }[call]
        error = {"returns": None, "raises": ContractError, "interrupted": KeyboardInterrupt}[outcome]
        with pytest.raises(error) if error else contextlib.nullcontext():
            run()
        assert calls and all(name.startswith("eval-chunk") for name, _ in calls)
        assert not _eval_threads()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_forward_chunks_leave_graph_recording_on(self, toy_setup, monkeypatch, cpus):
        cfg, table, corpus, _ = toy_setup
        model = init_model(table, cfg)
        big = _random_corpus(table, corpus.label_names, 2 * EVAL_BATCH, seed=11)
        _cpus(monkeypatch, cpus)
        chunks = _forward_chunks(model, big, cfg, lambda fwd: fwd.trace.v_final.requires_grad)
        assert [recorded for _, recorded in chunks] == [False, False]
        assert ops.mul(Tensor([1.0], requires_grad=True), 2.0).requires_grad
        with pytest.raises(ContractError):
            _forward_chunks(model, _with_bad_ids(big, {1: len(table.vocab)}), cfg, lambda fwd: None)
        assert ops.mul(Tensor([1.0], requires_grad=True), 2.0).requires_grad

    def test_concurrent_first_use_builds_the_projection_table_once(self, toy_setup, tmp_path, monkeypatch):
        cfg, table, corpus, _ = toy_setup
        model = load_model(save_model(init_model(table, cfg), table, cfg, tmp_path / "model")).model
        builds = []
        project = semantic._input_projections

        def slow(*args):
            builds.append(threading.current_thread().name)
            time.sleep(0.1)  # every thread reaches the cache while this one builds
            return project(*args)

        monkeypatch.setattr(semantic, "_input_projections", slow)
        threads = 4
        start = threading.Barrier(threads, timeout=10)

        def first_use(_):
            start.wait()
            return semantic._projection_table(model.embedding, model.semantic)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with concurrent.futures.ThreadPoolExecutor(threads) as pool:
                got = list(pool.map(first_use, range(threads), timeout=10))
        finally:
            sys.setswitchinterval(interval)
        assert len(builds) == 1
        assert all(g[0] is got[0][0] and g[1] is got[0][1] for g in got)

        class NoLock:
            def __enter__(self):
                raise AssertionError("a built table was read under the lock")

            def __exit__(self, *exc):
                return False

        monkeypatch.setattr(semantic, "_PROJECTION_LOCK", NoLock())
        with no_grad():
            forward_batch(model, [corpus.samples[0][0]], cfg)  # one request, B=1
        assert len(builds) == 1


def _first_entry(value):
    def damage(a):
        a = a.copy()
        a.flat[0] = value
        return a
    return damage


class TestPersistence:
    def test_save_load_roundtrip(self, toy_setup, tmp_path):
        cfg, table, corpus, emerging = toy_setup
        cfg.epochs = 3
        model, _ = train(cfg, corpus, table)
        save_model(model, table, cfg, tmp_path / "model")
        bundle = load_model(tmp_path / "model")
        for (_, a), (_, b) in zip(model.trainable(), bundle.model.trainable()):
            np.testing.assert_array_equal(a.values, b.values)
        assert bundle.config.existing_labels == tuple(TOY_EXISTING)
        before = evaluate(model, corpus, cfg).accuracy
        after = evaluate(bundle.model, corpus, bundle.config).accuracy
        assert before == after
        np.testing.assert_array_equal(bundle.intent_vectors, table.intent_vectors)

    def test_loaded_vocab_is_the_saved_word_list_in_order(self, toy_setup, tmp_path):
        cfg, table, _, _ = toy_setup
        out = save_model(init_model(table, cfg), table, cfg, tmp_path / "model")
        words = json.loads((out / "meta.json").read_text(encoding="utf-8"))["vocab"]
        vocab = load_model(out).table.vocab
        assert list(vocab.items()) == list({w: i for i, w in enumerate(words)}.items())
        assert list(vocab.items()) == list(table.vocab.items())

    def test_loaded_model_is_read_only_and_snapshot_writable(self, toy_setup, tmp_path):
        cfg, table, _, _ = toy_setup
        bundle = load_model(save_model(init_model(table, cfg), table, cfg, tmp_path / "model"))
        assert not any(t.values.flags.writeable for _, t in bundle.model.trainable())
        snap = bundle.model.snapshot()
        assert snap.keys() == {name for name, _ in bundle.model.trainable()}
        assert all(a.flags.writeable for a in snap.values())

    @staticmethod
    def _init_then_restore(bundle, arrays, dtype):
        """The model as loading built it before the parameter schema: a
        seeded init_model, restore of the saved arrays, then frozen."""
        model = init_model(bundle.table, bundle.config, rng=np.random.default_rng(bundle.config.seed), dtype=dtype)
        model.restore({key.replace("__", "."): a for key, a in arrays.items()})
        for _, t in model.trainable():
            t.values.flags.writeable = False
        return model

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_loaded_parameters_equal_init_then_restore(self, toy_setup, tmp_path, dtype):
        cfg, table, _, _ = toy_setup
        out = save_model(init_model(table, cfg, rng=np.random.default_rng(3), dtype=dtype), table, cfg, tmp_path / "model")
        bundle = load_model(out)
        with np.load(out / "params.npz") as npz:
            arrays = dict(npz)
        reference = self._init_then_restore(bundle, arrays, dtype)
        for (name, got), (_, want) in zip(bundle.model.trainable(), reference.trainable(), strict=True):
            assert got.dtype == want.dtype == dtype, name
            assert got.values.tobytes() == want.values.tobytes(), name
            assert got.values.flags.c_contiguous and not got.values.flags.writeable, name
            assert got.requires_grad, name
        assert bundle.table.vectors is bundle.model.embedding.values  # one copy, shared and read-only

    def test_fortran_order_array_loads_c_contiguous(self, toy_setup, tmp_path):
        cfg, table, _, _ = toy_setup
        out = save_model(init_model(table, cfg), table, cfg, tmp_path / "model")
        with np.load(out / "params.npz") as npz:
            arrays = dict(npz)
        arrays["lstm_fw__w_x"] = np.asfortranarray(arrays["lstm_fw__w_x"])
        np.savez(out / "params.npz", **arrays)
        with np.load(out / "params.npz") as npz:
            assert npz["lstm_fw__w_x"].flags.f_contiguous and not npz["lstm_fw__w_x"].flags.c_contiguous
        w_x = load_model(out).model.semantic.lstm_fw.w_x.values
        assert w_x.flags.c_contiguous and not w_x.flags.writeable
        assert w_x.tobytes() == np.ascontiguousarray(arrays["lstm_fw__w_x"]).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_loaded_model_runs_bitwise_as_init_then_restore(self, toy_setup, tmp_path, dtype):
        cfg, table, corpus, emerging = toy_setup
        cfg.epochs = 2
        trained, _ = train(cfg, corpus, table)
        model = init_model(table, cfg, dtype=dtype)
        model.restore({name: t.values.astype(dtype) for name, t in trained.trainable()})
        out = save_model(model, table, cfg, tmp_path / "model")
        bundle = load_model(out)
        with np.load(out / "params.npz") as npz:
            reference = self._init_then_restore(bundle, dict(npz), dtype)
        runs = []
        for m in (bundle.model, reference):
            with no_grad():
                v = forward_batch(m, [ids for ids, _ in corpus.samples], cfg).trace.v_final.values
            preds = predict_existing(m, corpus, cfg)
            zpreds, acts, sim = zsl_predict(m, emerging, bundle.intent_vectors, cfg)
            runs.append([m.semantic._projections[1], v, preds, zpreds, acts, sim.q])
        assert len(set(runs[0][2].tolist())) > 1
        for got, want in zip(*runs, strict=True):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_load_builds_no_model_and_draws_nothing(self, toy_setup, tmp_path, monkeypatch):
        cfg, table, _, _ = toy_setup
        out = save_model(init_model(table, cfg), table, cfg, tmp_path / "model")

        def forbidden(*args, **kwargs):
            raise AssertionError("load_model must read the saved arrays, not build or draw a model")

        monkeypatch.setattr(model_module, "init_model", forbidden)
        monkeypatch.setattr(model_module.ModelParams, "restore", forbidden)
        monkeypatch.setattr(model_module, "_init_weight", forbidden)
        monkeypatch.setattr(np.random, "default_rng", forbidden)
        assert load_model(out).model.embedding.shape == table.vectors.shape

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_init_model_draws_glorot_uniform_in_schema_order(self, toy_setup, dtype):
        # one generator, in schema order: each weight uniform within
        # sqrt(6 / (fan_in + fan_out)), the LSTM weights as D_H-wide gate
        # blocks side by side, the LSTM biases zero but the forget gate's ones
        cfg, table, _, _ = toy_setup
        model = init_model(table, cfg, rng=np.random.default_rng(4), dtype=dtype)
        d_w, d_h, d_a, heads = cfg.word_dim, cfg.hidden_dim, cfg.attn_dim, cfg.heads
        rng = np.random.default_rng(4)

        def glorot(shape, fan_in, fan_out):
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            return rng.uniform(-bound, bound, size=shape).astype(dtype)

        want = {}
        for direction in ("lstm_fw", "lstm_bw"):
            want[f"{direction}.w_x"] = np.hstack([glorot((d_w, d_h), d_w, d_h) for _ in range(4)])
            want[f"{direction}.w_h"] = np.hstack([glorot((d_h, d_h), d_h, d_h) for _ in range(4)])
            want[f"{direction}.b"] = np.zeros((1, 4 * d_h), dtype)
            want[f"{direction}.b"][0, d_h : 2 * d_h] = 1.0
        want["w_s1"] = glorot((d_a, 2 * d_h), 2 * d_h, d_a)
        want["w_s2"] = glorot((heads, d_a), d_a, heads)
        want["detect.w"] = glorot((len(cfg.existing_labels), heads, 2 * d_h, cfg.caps_dim), 2 * d_h, cfg.caps_dim)
        got = dict(model.trainable())
        assert list(got) == ["embedding", *want] == list(model_module._param_shapes(cfg, len(table.vocab)))
        for name, a in want.items():
            assert got[name].dtype == dtype and got[name].values.tobytes() == a.tobytes(), name
        emb = got["embedding"].values
        assert emb.dtype == dtype and not np.shares_memory(emb, table.vectors)
        assert not emb[table.pad_id].any()
        keep = np.arange(len(emb)) != table.pad_id
        assert emb[keep].tobytes() == table.vectors[keep].astype(dtype).tobytes()

    @pytest.mark.parametrize(
        "setting, problem",
        [
            ({"heads": 0}, "heads must be positive"),
            ({"attn_dim": 0}, "attn_dim must be positive"),
            ({"caps_dim": 0}, "caps_dim must be positive"),
            ({"hidden_dim": 0}, "hidden_dim must be positive"),
            ({"existing_labels": ()}, "existing_labels must name at least one intent"),
        ],
        ids=["heads", "attn_dim", "caps_dim", "hidden_dim", "no-intents"],
    )
    def test_init_model_validates_the_config(self, toy_setup, setting, problem):
        # the first three built a model whose forward ran on meaningless
        # shapes; hidden_dim=0 raised a bare ZeroDivisionError and no
        # intents a bare ValueError from routing
        _, table, _, _ = toy_setup
        cfg = dataclasses.replace(toy_config(), **setting)
        with pytest.raises(ContractError, match=problem):
            init_model(table, cfg)

    def test_writes_to_a_loaded_model_are_named(self, toy_setup, tmp_path):
        # both used to fail with a bare "read-only" ValueError, Adam's only
        # after it had advanced its step count and written the embedding's moments
        cfg, table, _, _ = toy_setup
        bundle = load_model(save_model(init_model(table, cfg), table, cfg, tmp_path / "model"))
        with pytest.raises(ContractError, match="parameter 'embedding' is read-only"):
            Adam(bundle.model.trainable(), lr=0.01)
        with pytest.raises(ContractError, match="parameter 'embedding' is read-only"):
            bundle.model.restore(bundle.model.snapshot())

    @pytest.mark.parametrize(
        "damage, problem",
        [
            (None, "is missing"),
            (lambda a: a[:1], r"has shape \(1, 6\), expected \(2, 6\)"),
            (lambda a: a.astype(np.float64), "has dtype float64, expected float32"),
        ],
        ids=["missing", "shape", "dtype"],
    )
    def test_restore_names_a_bad_value_before_copying(self, toy_setup, damage, problem):
        cfg, table, _, _ = toy_setup
        model = init_model(table, cfg)
        before = model.snapshot()
        values = {name: a + 1 for name, a in before.items()}
        if damage is None:
            del values["w_s2"]
        else:
            values["w_s2"] = damage(values["w_s2"])
        with pytest.raises(ContractError, match=f"parameter 'w_s2' {problem}"):
            model.restore(values)
        for name, t in model.trainable():
            np.testing.assert_array_equal(t.values, before[name])

    def test_init_names_a_word_dim_that_is_not_the_table_dim(self, toy_setup):
        _, table, _, _ = toy_setup
        with pytest.raises(ContractError, match="embedding dim 8 does not match word_dim 9"):
            init_model(table, toy_config(word_dim=9))

    def test_save_needs_intent_vectors(self, toy_setup, tmp_path):
        cfg, table, _, _ = toy_setup
        bare = dataclasses.replace(table, intent_vectors=None)
        with pytest.raises(ContractError, match="table has no intent vectors"):
            save_model(init_model(bare, cfg), bare, cfg, tmp_path / "model")

    def test_restore_names_a_read_only_parameter_before_copying(self, toy_setup):
        cfg, table, _, _ = toy_setup
        model = init_model(table, cfg)
        before = model.snapshot()
        model.semantic.w_s2.values.flags.writeable = False
        with pytest.raises(ContractError, match="parameter 'w_s2' is read-only"):
            model.restore({name: a + 1 for name, a in before.items()})
        for name, t in model.trainable():
            np.testing.assert_array_equal(t.values, before[name])

    @pytest.mark.parametrize(
        "key, value",
        [("pad_id", -1), ("pad_id", 7), ("pad_id", None), ("pad_id", True), ("pad_id", 2.0),
         ("pad_id", "9"), ("pad_id", "too_big"), ("oov_id", "too_big"), ("oov_id", "pad_id")],
        ids=["negative", "real_word", "null", "true", "float", "string", "past_end", "oov_past_end",
             "oov_is_pad"],
    )
    def test_special_ids_that_are_not_distinct_rows_are_named(self, toy_setup, tmp_path, key, value):
        # a bad pad_id used to load silently (and freeze a real word as PAD)
        # or fail with a bare IndexError
        cfg, table, _, _ = toy_setup
        out = save_model(init_model(table, cfg), table, cfg, tmp_path / "model")
        meta = json.loads((out / "meta.json").read_text(encoding="utf-8"))
        if value == "too_big":
            value = table.vectors.shape[0]
        elif value == "pad_id":
            value = meta["pad_id"]
        meta[key] = value
        (out / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
        with pytest.raises(ContractError, match=rf"meta\.json: .*'{key}'"):
            load_model(out)

    @pytest.mark.parametrize(
        "edit, problem",
        [
            (lambda words: words[:-1] + words[:1], "lists '[^']+' more than once"),  # the first word twice
            (lambda words: words[:-1], r"lists \d+ words for the \d+-row embedding"),
            (lambda words: words + ["extra"], r"lists \d+ words for the \d+-row embedding"),
            (lambda words: words[:-1] + [7], "must be a list of strings"),
            (lambda words: "".join(words), "must be a list of strings"),
        ],
        ids=["duplicate", "short", "long", "non_string", "not_a_list"],
    )
    def test_vocab_that_does_not_match_the_embedding_is_named(self, toy_setup, tmp_path, edit, problem):
        # these used to load: a duplicate shadowed a row, and a short or long
        # list shifted which word reads which row
        cfg, table, _, _ = toy_setup
        out = save_model(init_model(table, cfg), table, cfg, tmp_path / "model")
        meta = json.loads((out / "meta.json").read_text(encoding="utf-8"))
        meta["vocab"] = edit(meta["vocab"])
        (out / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
        with pytest.raises(ContractError, match=rf"meta\.json: 'vocab' {problem}"):
            load_model(out)

    @pytest.mark.parametrize(
        "key, value",
        [("routing_iterations", 1.5), ("sigma", -1.0), ("dropout_keep", 7.0), ("heads", True),
         ("sigma", "4"), ("existing_labels", ["GetWeather", ["PlayMusic"]]), ("restrict_vocab", "no")],
    )
    def test_invalid_config_in_meta_is_named(self, toy_setup, tmp_path, key, value):
        # these used to load, then fail at the first forward or serve
        # requests, or escape load_model as a bare TypeError
        cfg, table, _, _ = toy_setup
        out = save_model(init_model(table, cfg), table, cfg, tmp_path / "model")
        meta = json.loads((out / "meta.json").read_text(encoding="utf-8"))
        meta["config"][key] = value
        (out / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
        with pytest.raises(ContractError, match=rf"meta\.json: config {key}"):
            load_model(out)

    @pytest.mark.parametrize(
        "key, damage, named",
        [
            ("detect__w", lambda a: a[0:1], "detect.w"),  # one intent's transforms left
            ("lstm_fw__b", None, "lstm_fw.b"),
            ("embedding", None, "embedding"),
            ("w_s1", lambda a: a.astype(np.float64), "w_s1"),  # float32 model, no silent cast
        ],
        ids=["truncated", "missing", "no-embedding", "float64"],
    )
    def test_damaged_params_rejected(self, toy_setup, tmp_path, key, damage, named):
        cfg, table, _, _ = toy_setup
        path = save_model(init_model(table, cfg), table, cfg, tmp_path / "model") / "params.npz"
        with np.load(path) as npz:
            arrays = dict(npz)
        if damage is None:
            del arrays[key]
        else:
            arrays[key] = damage(arrays[key])
        np.savez(path, **arrays)
        with pytest.raises(ContractError, match=named):
            load_model(tmp_path / "model")

    @pytest.mark.parametrize("damage", list(ARCHIVE_DAMAGES))
    def test_cut_or_damaged_archive_is_named(self, toy_setup, tmp_path, damage):
        # the empty file escaped as a bare EOFError, plain .npy content as a
        # bare TypeError, the others as zipfile.BadZipFile
        cfg, table, _, _ = toy_setup
        path = save_model(init_model(table, cfg), table, cfg, tmp_path / "model") / "params.npz"
        path.write_bytes(ARCHIVE_DAMAGES[damage](path.read_bytes()))
        with pytest.raises(ContractError) as exc:
            load_model(tmp_path / "model")
        assert str(exc.value).startswith(f"{path} is cut short or damaged: ")

    def test_each_flipped_zip_header_byte_loads_or_is_named(self, toy_setup, tmp_path):
        # the first member's header and the last ones' records: flips there
        # raised EOFError, OSError, NotImplementedError or RuntimeError, and some load
        cfg, table, _, _ = toy_setup
        path = save_model(init_model(table, cfg), table, cfg, tmp_path / "model") / "params.npz"
        data = path.read_bytes()
        for i in [*range(64), *range(len(data) - 128, len(data))]:
            for mask in (0x01, 0x80, 0xFF):
                damaged = bytearray(data)
                damaged[i] ^= mask
                path.write_bytes(damaged)
                try:
                    load_model(tmp_path / "model")
                except ContractError as exc:
                    assert str(path) in str(exc), (i, mask)

    def test_missing_archive_is_not_found(self, toy_setup, tmp_path):
        cfg, table, _, _ = toy_setup
        (save_model(init_model(table, cfg), table, cfg, tmp_path / "model") / "params.npz").unlink()
        with pytest.raises(FileNotFoundError):
            load_model(tmp_path / "model")

    @pytest.mark.parametrize(
        "key, damage, problem",
        [
            ("lstm_fw__w_h", _first_entry(np.nan), "is not all finite floats"),
            ("embedding", _first_entry(np.inf), "is not all finite floats"),
            ("intent_vectors", _first_entry(np.nan), "is not all finite floats"),
            ("w_s1", lambda a: a.astype(np.int32), "is not all finite floats"),
            ("intent_vectors", lambda a: a[:-1], r"has shape \(3, 8\), expected \(4, 8\)"),
            ("intent_vectors", lambda a: a[:, :-1], r"has shape \(4, 7\), expected \(4, 8\)"),
        ],
        ids=["nan-weight", "inf-embedding", "nan-intent-vectors", "int-weight", "intent-rows", "intent-dim"],
    )
    def test_non_finite_or_misshapen_arrays_are_named(self, toy_setup, tmp_path, key, damage, problem):
        # a NaN weight used to load and serve wrong predictions, and a short
        # intent_vectors array escaped zsl_evaluate as a bare IndexError
        cfg, table, _, _ = toy_setup
        path = save_model(init_model(table, cfg), table, cfg, tmp_path / "model") / "params.npz"
        with np.load(path) as npz:
            arrays = dict(npz)
        arrays[key] = damage(arrays[key])
        np.savez(path, **arrays)
        with pytest.raises(ContractError, match=rf"params\.npz: array '{key}' {problem}"):
            load_model(tmp_path / "model")
