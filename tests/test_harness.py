import functools
import json
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from conftest import TOY_EMERGING, TOY_EXISTING, toy_config

from capsnlu.autodiff import ContractError, NumericError, Tensor
from capsnlu import harness
from capsnlu.data import Corpus
from capsnlu.harness import (
    Adam,
    _forward_chunks,
    attention_offdiag_mean,
    batch_loss,
    build_tiny_setup,
    evaluate,
    export_activations_emerging,
    export_activations_existing,
    export_attention,
    stratified_split,
    train,
    zsl_evaluate,
    zsl_predict,
)
from capsnlu.model import init_model, load_model, save_model


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


def _textbook_adam(params, grads, moments, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    """One Adam step as a fresh-array expression: the reference Adam.step
    must reproduce bit for bit."""
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
    # 500 rows of 300 span several row blocks in float32 and in float64,
    # and are a multiple of neither block length
    SHAPES = [(500, 300), (3, 4, 5, 6), (7,), ()]

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
        # gradients reach a table that spans several row blocks through
        # embedding lookups, two backward passes per step, with repeated ids
        # and pad positions (id 0, no gradient); the PAD row is frozen as
        # harness.train freezes it. Lookups alone go through the rows step:
        # they read a leaf of the step's rows while a worker steps the whole
        # table without gradient. A table also used densely, or written
        # through .grad, takes the whole-table step. The rows step runs
        # with the interpreter switching threads every microsecond, so a
        # read or write of the table racing the worker would show.
        if write == "lookup":
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                self._table_steps(dtype, write)
            finally:
                sys.setswitchinterval(interval)
        else:
            self._table_steps(dtype, write)

    def _table_steps(self, dtype, write):
        rng = np.random.default_rng(13)
        table = Tensor(rng.normal(size=(500, 300)), requires_grad=True, dtype=dtype)
        ref = [table.values.copy()]
        moments = [(np.zeros_like(ref[0]), np.zeros_like(ref[0]))]
        opt = Adam([("table", table)], lr=1e-3)
        for step in range(1, 7):
            lookups = []
            for _ in range(2):
                idx = rng.integers(1, 500, size=(8, 12))
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
                        (leaf.take_rows(np.searchsorted(rows, idx)) * c).sum().backward()
                    leaf.grad[0] = 0.0  # rows[0] is the PAD row
                    grad[rows] = leaf.grad
                    opt.step()
            else:
                for idx, c in lookups:
                    loss = (table.take_rows(idx) * c).sum()
                    if write == "lookup_and_product":
                        loss = loss + (table * Tensor(rng.normal(size=table.shape).astype(dtype))).sum()
                    loss.backward()
                table.grad[0] = 0.0
                grad[...] = table.grad
                opt.step()
            _textbook_adam(ref, [grad], moments, step, 1e-3)
            assert _same_bits(table.values, ref[0]), step
            assert _same_bits(opt.m[0], moments[0][0]) and _same_bits(opt.v[0], moments[0][1])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("beta1, beta2", [(0.4, 0.999), (0.5, 0.999), (0.9, -0.5), (0.9, 0.999)])
    def test_row_record_is_used_only_where_skipping_is_exact(self, dtype, beta1, beta2):
        # the rows step's worker skips the gradient terms of the rows
        # outside the step only where that is exact. Step 1 leaves m[1] at
        # -tiny (the smallest subnormal). At step 2 row 1 is outside the
        # rows, so the worker steps it: beta1 <= 0.5 rounds beta1 * m[1] to
        # -0.0, which the textbook's + 0.0 turns into +0.0, so the worker
        # must add that +0.0; beta1 > 0.5 keeps -tiny. A negative beta2
        # would turn v = +0.0 on a row without gradient into beta2 * v =
        # -0.0 in the same way, so the constructor rejects it.
        table = Tensor(np.ones((4, 2)), requires_grad=True, dtype=dtype)
        if beta2 < 0:
            with pytest.raises(ContractError, match=f"Adam beta2 must be in \\[0, 1\\), got {beta2!r}"):
                Adam([("table", table)], lr=1e-3, beta1=beta1, beta2=beta2)
            return
        tiny = np.finfo(dtype).smallest_subnormal
        first = -round(1 / (1 - beta1)) * tiny  # (1 - beta1) * first rounds to -tiny
        ref = [table.values.copy()]
        moments = [(np.zeros_like(ref[0]), np.zeros_like(ref[0]))]
        opt = Adam([("table", table)], lr=1e-3, beta1=beta1, beta2=beta2)
        for step, (row, value) in enumerate([(1, first), (2, 1.0)], start=1):
            opt.zero_grad()
            grad = np.zeros_like(table.values)
            with opt.rows_step(table, [row]) as leaf:
                (leaf.take_rows(np.array([0])) * Tensor(np.full((1, 2), value, dtype=dtype))).sum().backward()
                grad[row] = leaf.grad[0]
                opt.step()
            _textbook_adam(ref, [grad], moments, step, 1e-3, b1=beta1, b2=beta2)
            if step == 1:
                assert moments[0][0][1].tolist() == [-tiny, -tiny]
            assert _same_bits(table.values, ref[0])
            assert _same_bits(opt.m[0], moments[0][0]) and _same_bits(opt.v[0], moments[0][1])
        assert np.signbit(moments[0][0][1]).all() == (beta1 > 0.5)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("lr", -1e-3),
            ("lr", float("nan")),
            ("lr", float("inf")),
            ("beta1", 1.0),  # 1 - beta1**t = 0: step would divide by zero
            ("beta1", -0.1),
            ("beta2", -0.5),  # beta2 * v would turn +0.0 into -0.0
            ("beta2", 1.0),
            ("beta1", float("nan")),
            ("eps", 0.0),
            ("eps", -1e-8),
        ],
    )
    def test_rejects_hyperparameter_out_of_range(self, name, value):
        table = Tensor(np.ones((4, 2)), requires_grad=True)
        with pytest.raises(ContractError, match=f"Adam {name} must be .*, got {value!r}"):
            Adam([("table", table)], **{"lr": 1e-3, name: value})

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
                            leaf.take_rows(np.searchsorted(rows, idx)).sum().backward()
                            opt.step()
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
        with pytest.raises(ContractError, match="a rows step is already open"):
            with opt.rows_step(table, [0]):
                with opt.rows_step(table, [1]):
                    pass
        with pytest.raises(ContractError, match="rows_step left without a step"):
            with opt.rows_step(table, [0]):
                pass
        assert threading.active_count() == before


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
            loss = batch_loss(dense, batch, cfg, training=True, rng=rng)
            opt.zero_grad()
            loss.backward()
            dense.embedding.grad[dense.pad_id] = 0.0
            opt.step()
        assert opt.t == made[0].t == 7
        got = [t.values for _, t in model.trainable()] + made[0].m + made[0].v
        want = [t.values for _, t in dense.trainable()] + opt.m + opt.v
        assert all(_same_bits(a, b) for a, b in zip(got, want))


class TestTrainThreads:
    """Each step's gradient-free embedding pass runs on a worker thread;
    train joins it on every way out, and its error reaches the caller."""

    @pytest.fixture(autouse=True)
    def slow_worker(self, monkeypatch):
        # the toy table's pass takes microseconds; a slow one would still be
        # running at the thread count below if train left it unjoined
        real = Adam._gradient_free_step

        def slow(self, index, t):
            time.sleep(0.02)
            real(self, index, t)

        monkeypatch.setattr(Adam, "_gradient_free_step", slow)

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

    @pytest.mark.parametrize("bad", [-1, "rows", 2.5])
    def test_bad_token_id_is_named_before_any_step(self, toy_setup, bad):
        # -1 would gather the last row and 2.5 fail as a bare IndexError
        cfg, table, corpus, _ = toy_setup
        rows = table.vectors.shape[0]
        value = rows if bad == "rows" else bad
        samples = list(corpus.samples)
        ids, label = samples[3]
        samples[3] = (ids[:1] + [value] + ids[1:], label)
        cfg.batch_size = len(samples)  # one batch in corpus order
        before = threading.active_count()
        with pytest.raises(ContractError, match=f"utterance 3 has token id {value}, not a row of the {rows}-row embedding"):
            train(cfg, Corpus(samples, corpus.label_names), table)
        assert threading.active_count() == before


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

    def test_abandoned_forward_chunks_leave_graph_recording_on(self, toy_setup):
        cfg, table, corpus, _ = toy_setup
        chunks = _forward_chunks(init_model(table, cfg), corpus, cfg)
        start, chunk, fwd = next(chunks)
        assert start == 0 and len(chunk) == len(corpus.samples)
        assert not fwd.trace.v_final.requires_grad
        # the suspended generator must not hold a no_grad block open
        assert (Tensor([1.0], requires_grad=True) * 2.0).requires_grad
        chunks.close()


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

    def test_loaded_model_is_read_only_and_snapshot_writable(self, toy_setup, tmp_path):
        cfg, table, _, _ = toy_setup
        bundle = load_model(save_model(init_model(table, cfg), table, cfg, tmp_path / "model"))
        assert not any(t.values.flags.writeable for _, t in bundle.model.trainable())
        snap = bundle.model.snapshot()
        assert snap.keys() == {name for name, _ in bundle.model.trainable()}
        assert all(a.flags.writeable for a in snap.values())

    def test_writes_to_a_loaded_model_are_named(self, toy_setup, tmp_path):
        # both used to fail with a bare "read-only" ValueError, Adam's only
        # after it had advanced its step count and written the embedding's moments
        cfg, table, _, _ = toy_setup
        bundle = load_model(save_model(init_model(table, cfg), table, cfg, tmp_path / "model"))
        with pytest.raises(ContractError, match="parameter 'embedding' is read-only"):
            Adam(bundle.model.trainable(), lr=0.01)
        with pytest.raises(ContractError, match="parameter 'embedding' is read-only"):
            bundle.model.restore(bundle.model.snapshot())

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
