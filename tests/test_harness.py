import json
import tracemalloc

import numpy as np
import pytest

from conftest import TOY_EMERGING, TOY_EXISTING, toy_config

from capsnlu.autodiff import ContractError, NumericError, Tensor
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
        # harness.train freezes it. Only a gradient written by lookups alone
        # keeps its row record, and with it the row-sparse step.
        rng = np.random.default_rng(13)
        table = Tensor(rng.normal(size=(500, 300)), requires_grad=True, dtype=dtype)
        ref = [table.values.copy()]
        moments = [(np.zeros_like(ref[0]), np.zeros_like(ref[0]))]
        opt = Adam([("table", table)], lr=1e-3)
        for step in range(1, 7):
            opt.zero_grad()
            for _ in range(2):
                idx = rng.integers(1, 500, size=(8, 12))
                idx[:, 9:] = 0
                idx[0, :4] = idx[1, 0]
                c = rng.normal(scale=10.0 ** rng.integers(-6, 2), size=idx.shape + (300,)).astype(dtype)
                c[:, 9:] = 0.0
                loss = (table.take_rows(idx) * Tensor(c)).sum()
                if write == "lookup_and_product":
                    loss = loss + (table * Tensor(rng.normal(size=table.shape).astype(dtype))).sum()
                loss.backward()
            if write == "grad_read":
                table.grad[0] = 0.0
            else:
                table.reset_grad(rows=[0])
            grad, rows = table.grad_and_rows()
            assert (rows is not None) == (write == "lookup")
            grads = [grad.copy()]
            opt.step()
            _textbook_adam(ref, grads, moments, step, 1e-3)
            assert _same_bits(table.values, ref[0]), step
            assert _same_bits(opt.m[0], moments[0][0]) and _same_bits(opt.v[0], moments[0][1])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("beta1, beta2", [(0.4, 0.999), (0.5, 0.999), (0.9, -0.5), (0.9, 0.999)])
    def test_row_record_is_used_only_where_skipping_is_exact(self, dtype, beta1, beta2):
        # step 1 leaves m[1] at -tiny (the smallest subnormal). With no
        # gradient on row 1 at step 2, beta1 <= 0.5 rounds beta1 * m[1] to
        # -0.0, which the textbook's + 0.0 turns into +0.0; a step that skipped
        # row 1's gradient terms would keep -0.0. beta1 > 0.5 keeps -tiny.
        # A negative beta2 would turn v = +0.0 on a row without gradient into
        # beta2 * v = -0.0 in the same way, so the constructor rejects it.
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
            (table.take_rows(np.array([row])) * Tensor(np.full((1, 2), value, dtype=dtype))).sum().backward()
            grad, rows = table.grad_and_rows()
            np.testing.assert_array_equal(rows, [row])
            grads = [grad.copy()]
            opt.step()
            _textbook_adam(ref, grads, moments, step, 1e-3, b1=beta1, b2=beta2)
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
        for sparse in (False, True):
            for _ in range(2):
                opt.zero_grad()
                if sparse:  # 60 lookups: the row-sparse step
                    table.take_rows(rng.integers(0, 2000, size=(4, 15))).sum().backward()
                else:
                    table.grad[...] = rng.normal(size=table.shape)
                assert (table.grad_and_rows()[1] is not None) == sparse
                tracemalloc.start()
                try:
                    opt.step()
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak < 0.25 * table.values.nbytes, f"peak {peak} bytes for a {table.values.nbytes}-byte parameter"


class TestTrainStepExactness:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_row_sparse_steps_equal_dense_steps(self, dtype):
        # harness.train freezes PAD with reset_grad(rows=...), which keeps the
        # embedding's row record; writing the PAD row through .grad, as a copy
        # of the loop may, drops it, so every step folds every row
        def run(read_grad):
            model, cfg, _, _ = build_tiny_setup(3, dtype=dtype)
            cfg.dropout_keep = 0.7
            rng = np.random.default_rng(5)
            opt = Adam(model.trainable(), lr=cfg.learning_rate)
            for _ in range(8):
                lengths = rng.integers(1, 6, size=4)
                batch = [(rng.integers(0, 9, size=n).tolist(), int(rng.integers(0, 3))) for n in lengths]
                loss = batch_loss(model, batch, cfg, training=True, rng=rng)
                opt.zero_grad()
                loss.backward()
                if read_grad:
                    model.embedding.grad[model.pad_id] = 0.0
                else:
                    model.embedding.reset_grad(rows=[model.pad_id])
                assert (model.embedding.grad_and_rows()[1] is None) == read_grad
                opt.step()
            return [t.values for _, t in model.trainable()] + opt.m + opt.v

        sparse, dense = run(False), run(True)
        assert all(_same_bits(a, b) for a, b in zip(sparse, dense))


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
