import numpy as np
import pytest

from conftest import TOY_EMERGING, TOY_EXISTING, toy_config

from capsnlu.autodiff import ContractError, NumericError, Tensor
from capsnlu.data import Corpus
from capsnlu.harness import (
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
        "key, keep, named",
        [
            ("detect__w", slice(0, 1), "detect.w"),  # one intent's transforms left
            ("lstm_fw__b", None, "lstm_fw.b"),
            ("embedding", None, "embedding"),
        ],
        ids=["truncated", "missing", "no-embedding"],
    )
    def test_damaged_params_rejected(self, toy_setup, tmp_path, key, keep, named):
        cfg, table, _, _ = toy_setup
        path = save_model(init_model(table, cfg), table, cfg, tmp_path / "model") / "params.npz"
        with np.load(path) as npz:
            arrays = dict(npz)
        if keep is None:
            del arrays[key]
        else:
            arrays[key] = arrays[key][keep]
        np.savez(path, **arrays)
        with pytest.raises(ContractError, match=named):
            load_model(tmp_path / "model")
