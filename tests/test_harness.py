import tracemalloc

import numpy as np
import pytest

from conftest import TOY_EMERGING, TOY_EXISTING, toy_config

from capsnlu.autodiff import ContractError, NumericError, Tensor
from capsnlu.data import Corpus
from capsnlu.harness import (
    Adam,
    StratificationError,
    _forward_chunks,
    attention_offdiag_mean,
    cross_validate,
    evaluate,
    export_activations_emerging,
    export_activations_existing,
    export_attention,
    stratified_folds,
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
        empty = Corpus([], corpus.existing_labels, corpus.emerging_labels)
        with pytest.raises(ContractError):
            train(cfg, empty, table)
        model, _ = train(toy_config(epochs=1), corpus, table)
        with pytest.raises(ContractError):
            evaluate(model, empty, cfg)


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

    def test_step_allocates_no_parameter_sized_array(self):
        rng = np.random.default_rng(12)
        table = Tensor(rng.normal(size=(2000, 300)), requires_grad=True)
        table.grad[...] = rng.normal(size=table.shape)
        opt = Adam([("table", table)], lr=1e-3)
        opt.step()
        tracemalloc.start()
        try:
            opt.step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * table.values.nbytes, f"peak {peak} bytes for a {table.values.nbytes}-byte parameter"


class TestSplits:
    def make_corpus(self, per_class):
        samples = []
        for lab, count in enumerate(per_class):
            samples += [([lab + 1], lab) for _ in range(count)]
        names = [f"c{i}" for i in range(len(per_class))]
        return Corpus(samples, names, [], domain="existing")

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

    def test_fold_balance(self):
        corpus = self.make_corpus([3, 3, 3])
        assignment = stratified_folds(corpus, folds=3, seed=1)
        labels = np.asarray([lab for _, lab in corpus.samples])
        for fold in range(3):
            fold_labels = labels[assignment == fold]
            assert sorted(fold_labels.tolist()) == [0, 1, 2]

    def test_fold_determinism(self):
        corpus = self.make_corpus([6, 6])
        a = stratified_folds(corpus, folds=3, seed=9)
        b = stratified_folds(corpus, folds=3, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_small_class_rejected(self):
        corpus = self.make_corpus([2, 6])
        with pytest.raises(StratificationError):
            stratified_folds(corpus, folds=3, seed=0)


class TestCrossValidate:
    def test_three_folds_on_toy(self, toy_setup):
        cfg, table, corpus, _ = toy_setup
        cfg.epochs = 5
        reports, mean_acc = cross_validate(cfg, corpus, table, folds=3)
        assert len(reports) == 3
        assert 0.0 <= mean_acc <= 1.0
        assert mean_acc == pytest.approx(np.mean([r.accuracy for r in reports]))


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
        corpus_one = Corpus(only_tunes, list(TOY_EXISTING), [TOY_EMERGING[0]], domain="emerging")
        model, _ = train(cfg, corpus, table)
        report, _ = zsl_evaluate(model, corpus_one, table.intent_vectors, cfg)
        assert report.accuracy == 1.0

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
