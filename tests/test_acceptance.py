"""Acceptance suite.

One test per criterion, each printing a PASS line with its measured
value (run with `pytest tests/test_acceptance.py -v -s`).

Criteria 4-6 reproduce published benchmark numbers and need the real
dataset and pretrained word vectors, which are too large to vendor:

    export CAPSNLU_SNIPS_DIR=/path/to/benchmark   # per-intent dirs with
                                                  # train_<Intent>_full.json
    export CAPSNLU_VECTORS_PATH=/path/to/vectors.txt

Without them those three tests skip with this message.
"""

import os
from pathlib import Path

import numpy as np
import pytest

from conftest import TOY_EMERGING, TOY_EXISTING, toy_config

from capsnlu.autodiff import Tensor
from capsnlu.config import RunConfig
from capsnlu.data import load_embeddings, load_snips
from capsnlu.detection import dynamic_routing, squash
from capsnlu.harness import (
    attention_offdiag_mean,
    evaluate,
    export_activations_emerging,
    export_activations_existing,
    full_loss_gradcheck,
    stratified_split,
    train,
    zsl_evaluate,
)
from capsnlu.model import forward_batch, init_model
from capsnlu.semantic import attend, encode_tokens, init_semantic_params, semantic_vectors
from capsnlu.zeroshot import classify_emerging_batch, intent_similarity

from test_detection import FIXED_P, routing_transcript_oracle

SNIPS_DIR = os.environ.get("CAPSNLU_SNIPS_DIR", "")
VECTORS_PATH = os.environ.get("CAPSNLU_VECTORS_PATH", "")
HAVE_SNIPS = bool(SNIPS_DIR) and Path(SNIPS_DIR).is_dir() and bool(VECTORS_PATH) and Path(VECTORS_PATH).is_file()
SKIP_REASON = (
    "benchmark data not present: set CAPSNLU_SNIPS_DIR to the dataset root "
    "and CAPSNLU_VECTORS_PATH to a pretrained word-vector text file"
)

N_INSTANCES = 100


def _report(criterion: int, message: str) -> None:
    print(f"\nACCEPTANCE {criterion} PASS: {message}")


def test_criterion_1_gradient_oracle():
    err, seed = full_loss_gradcheck(seed=0, epsilon=1e-4)
    assert err < 1e-4
    _report(1, f"full-loss gradient check max relative error {err:.3e} (seed {seed})")


def test_criterion_2_routing_transcript_equivalence():
    trace = dynamic_routing(Tensor(FIXED_P), iterations=3)
    want = routing_transcript_oracle(FIXED_P, 3)
    for it in range(3):
        np.testing.assert_allclose(trace.b[it], want["b"][it], atol=1e-10)
        np.testing.assert_allclose(trace.c[it], want["c"][it], atol=1e-10)
        np.testing.assert_allclose(trace.s[it], want["s"][it], atol=1e-10)
        np.testing.assert_allclose(trace.v[it], want["v"][it], atol=1e-10)
    _report(2, "3-iteration routing matches the line-by-line transcript oracle to 1e-10")


class TestCriterion3Invariants:
    def test_coupling_normalization(self):
        rng = np.random.default_rng(100)
        for _ in range(N_INSTANCES):
            k, r, d = rng.integers(1, 6), rng.integers(1, 6), rng.integers(1, 5)
            trace = dynamic_routing(Tensor(rng.normal(scale=2.0, size=(k, r, d))), iterations=3)
            for c in trace.c:
                np.testing.assert_allclose(c.sum(axis=0), np.ones(r), atol=1e-6)

    def test_squash_bounds_monotonicity_direction(self):
        rng = np.random.default_rng(101)
        pairs = []
        for _ in range(N_INSTANCES):
            s = rng.normal(scale=rng.uniform(0.01, 5.0), size=4)
            out = squash(Tensor(s)).values
            n_in, n_out = np.linalg.norm(s), np.linalg.norm(out)
            assert 0.0 <= n_out < 1.0
            if n_in > 0:
                np.testing.assert_allclose(out / n_out, s / n_in, rtol=1e-9)
            pairs.append((n_in, n_out))
        pairs.sort()
        outs = [b for _, b in pairs]
        assert all(b2 > b1 for b1, b2 in zip(outs, outs[1:]))

    def test_attention_row_stochasticity(self):
        rng = np.random.default_rng(102)
        for _ in range(N_INSTANCES):
            t = int(rng.integers(2, 7))
            params = init_semantic_params(rng, 3, 2, 3, 3, dtype=np.float64)
            real = int(rng.integers(1, t + 1))
            attn, _ = attend(
                Tensor(rng.normal(size=(t, 4))), params, pad_mask=np.arange(t) < real
            )
            np.testing.assert_allclose(attn.values.sum(axis=-1), np.ones(3), atol=1e-6)
            assert (attn.values >= 0).all()
            np.testing.assert_array_equal(attn.values[:, real:], 0.0)

    def test_padding_invariance(self):
        rng = np.random.default_rng(103)
        for _ in range(N_INSTANCES):
            params = init_semantic_params(rng, 3, 2, 3, 2, dtype=np.float64)
            emb_vals = rng.normal(size=(7, 3))
            emb_vals[6] = 0.0  # pad row
            emb = Tensor(emb_vals)
            n = int(rng.integers(1, 5))
            seq = rng.integers(0, 6, size=n).tolist()
            # row 0 of a batch with a 3-token-longer neighbour carries 3 pads
            h1, m1 = encode_tokens([seq], emb, params)
            h2, m2 = encode_tokens([seq, seq + [0, 1, 2]], emb, params, pad_id=6)
            a1, _ = attend(h1, params, pad_mask=m1)
            a2, _ = attend(h2, params, pad_mask=m2)
            np.testing.assert_allclose(
                semantic_vectors(a1, h1).values,
                semantic_vectors(a2, h2).values[:1],
                atol=1e-6,
            )

    def test_q_row_stochasticity(self):
        rng = np.random.default_rng(104)
        for _ in range(N_INSTANCES):
            l, k, d = rng.integers(1, 5), rng.integers(1, 6), rng.integers(1, 5)
            sim = intent_similarity(
                rng.normal(size=(l, d)), rng.normal(size=(k, d)), sigma=float(rng.uniform(1.0, 10.0))
            )
            np.testing.assert_allclose(sim.q.sum(axis=-1), np.ones(l), atol=1e-6)
            assert (sim.q > 0).all() and (sim.q <= 1.0).all()

    def test_sigma_limit_uniformity(self):
        rng = np.random.default_rng(105)
        for _ in range(N_INSTANCES):
            k = int(rng.integers(2, 6))
            emerging = rng.normal(size=(2, 5))
            existing = rng.normal(size=(k, 5))
            deviations = [
                np.abs(intent_similarity(emerging, existing, s).q - 1.0 / k).max()
                for s in (1.0, 10.0, 100.0, 1e4)
            ]
            assert all(b < a for a, b in zip(deviations, deviations[1:]))

    def test_intent_permutation_equivariance(self):
        rng = np.random.default_rng(106)
        for _ in range(N_INSTANCES):
            k = int(rng.integers(2, 5))
            p = rng.normal(size=(k, 3, 4))
            perm = rng.permutation(k)
            t1 = dynamic_routing(Tensor(p), iterations=3)
            t2 = dynamic_routing(Tensor(p[perm]), iterations=3)
            np.testing.assert_allclose(t2.v[-1], t1.v[-1][perm], atol=1e-12)

    def test_emerging_permutation_equivariance(self):
        rng = np.random.default_rng(107)
        for _ in range(N_INSTANCES):
            l = int(rng.integers(2, 5))
            u = rng.normal(size=(l, 3, 4))
            perm = rng.permutation(l)
            w1, n1 = classify_emerging_batch(u[None], iterations=3)
            w2, n2 = classify_emerging_batch(u[perm][None], iterations=3)
            np.testing.assert_allclose(n2[0], n1[0][perm], atol=1e-12)
            assert w2[0] == int(np.argwhere(perm == w1[0])[0, 0])

    def test_report(self):
        _report(3, f"all eight invariant families hold on {N_INSTANCES} randomized instances each")


# ----------------------------------------------------------------------
# benchmark reproductions (need the real dataset and vectors)


def _snips_config() -> RunConfig:
    return RunConfig(
        dataset_path=SNIPS_DIR,
        embeddings_path=VECTORS_PATH,
        epochs=int(os.environ.get("CAPSNLU_SNIPS_EPOCHS", "20")),
    )


@pytest.fixture(scope="session")
def snips_trained():
    cfg = _snips_config()
    restrict = None
    if cfg.restrict_vocab:
        from capsnlu.data import dataset_words

        restrict = dataset_words(cfg.dataset_path)
    table = load_embeddings(cfg.embeddings_path, cfg.word_dim, seed=cfg.seed, restrict_to=restrict)
    table.build_intent_vectors(list(cfg.existing_labels) + list(cfg.emerging_labels))
    corpus_existing, corpus_emerging = load_snips(
        cfg.dataset_path, list(cfg.existing_labels), list(cfg.emerging_labels), table
    )
    train_c, val_c, test_c = stratified_split(corpus_existing, cfg.seed)
    model, history = train(cfg, train_c, table, val_corpus=val_c)
    return cfg, table, model, history, (train_c, val_c, test_c), corpus_emerging


@pytest.mark.skipif(not HAVE_SNIPS, reason=SKIP_REASON)
def test_criterion_4_supervised_benchmark(snips_trained):
    cfg, _, model, _, splits, corpus_emerging = snips_trained
    total = sum(len(c) for c in splits) + len(corpus_emerging)
    assert abs(total - 13802) <= 100  # published dataset statistics
    report = evaluate(model, splits[2], cfg)
    assert report.accuracy >= 0.93
    _report(4, f"held-out accuracy on 5 existing intents {report.accuracy:.4f} (published: 0.9621)")


@pytest.mark.skipif(not HAVE_SNIPS, reason=SKIP_REASON)
def test_criterion_5_zero_shot_benchmark(snips_trained):
    cfg, table, model, _, _, corpus_emerging = snips_trained
    report, per_intent = zsl_evaluate(model, corpus_emerging, table.intent_vectors, cfg)
    assert report.accuracy >= 0.70
    pairs = ", ".join(f"{n}: acc={a:.3f} var={v:.4f}" for n, a, v in per_intent)
    _report(5, f"zero-shot accuracy on 2 emerging intents {report.accuracy:.4f} (published: 0.7752); {pairs}")


@pytest.mark.skipif(not HAVE_SNIPS, reason=SKIP_REASON)
def test_criterion_6_regularizer_ablation():
    cfg = _snips_config()
    cfg.epochs = int(os.environ.get("CAPSNLU_ABLATION_EPOCHS", "8"))
    from capsnlu.data import dataset_words

    restrict = dataset_words(cfg.dataset_path) if cfg.restrict_vocab else None
    table = load_embeddings(cfg.embeddings_path, cfg.word_dim, seed=cfg.seed, restrict_to=restrict)
    table.build_intent_vectors(list(cfg.existing_labels) + list(cfg.emerging_labels))
    corpus_existing, _ = load_snips(
        cfg.dataset_path, list(cfg.existing_labels), list(cfg.emerging_labels), table
    )
    # stratified 500-utterance subsample
    rng = np.random.default_rng(cfg.seed)
    by_class = {}
    for i, (_, lab) in enumerate(corpus_existing.samples):
        by_class.setdefault(lab, []).append(i)
    keep = []
    per_class = 500 // len(by_class)
    for lab in sorted(by_class):
        idx = np.asarray(by_class[lab])
        keep.extend(idx[rng.permutation(len(idx))[:per_class]].tolist())
    subsample = corpus_existing.subset(sorted(keep), "train")
    train_c, val_c, _ = stratified_split(subsample, cfg.seed, fracs=(0.8, 0.2, 0.0))

    cfg_on = _snips_config()
    cfg_on.epochs = cfg.epochs
    cfg_on.penalty_weight = 0.0001
    cfg_off = _snips_config()
    cfg_off.epochs = cfg.epochs
    cfg_off.penalty_weight = 0.0
    model_on, _ = train(cfg_on, train_c, table, val_corpus=val_c)
    model_off, _ = train(cfg_off, train_c, table, val_corpus=val_c)
    overlap_on = attention_offdiag_mean(model_on, val_c, cfg_on)
    overlap_off = attention_offdiag_mean(model_off, val_c, cfg_off)
    assert overlap_on < overlap_off
    _report(6, f"validation head overlap {overlap_on:.4f} with regularizer vs {overlap_off:.4f} without")


# ----------------------------------------------------------------------
# toy sanity and determinism


def _run_toy(toy_setup, out_dir: Path):
    cfg, table, corpus, emerging = toy_setup
    model, history = train(cfg, corpus, table)
    report = evaluate(model, corpus, cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    export_activations_existing(model, corpus, cfg, out_dir / "activations_existing.tsv")
    export_activations_emerging(model, emerging, table.intent_vectors, cfg, out_dir / "activations_emerging.tsv")
    return model, report


def test_criterion_7_separable_toy(toy_setup, tmp_path):
    cfg, table, corpus, _ = toy_setup
    assert cfg.epochs <= 30 and cfg.sigma == 0.1
    model, report = _run_toy(toy_setup, tmp_path / "run")
    assert report.accuracy == 1.0

    # the emerging label "Tunes" carries exactly the embedding of the
    # existing label "Music": its similarity row must be one-hot there
    k = len(TOY_EXISTING)
    sim = intent_similarity(table.intent_vectors[k : k + 1], table.intent_vectors[:k], cfg.sigma)
    np.testing.assert_allclose(sim.q[0], [1.0, 0.0], atol=1e-3)

    # and with it as the only emerging candidate, the transferred capsule
    # reproduces that class's activation vector exactly
    from capsnlu.detection import prediction_vectors
    from capsnlu.zeroshot import vote_vectors, zero_shot_prediction_vectors

    tokens = corpus.samples[0][0]
    fwd = forward_batch(model, [tokens], cfg)
    votes = vote_vectors(fwd.trace, fwd.P)
    u = zero_shot_prediction_vectors(sim.q, votes)
    _, n = classify_emerging_batch(u, cfg.routing_iterations)
    np.testing.assert_allclose(n[0, 0], fwd.trace.v_final.values[0, 0], atol=1e-5)
    _report(7, f"toy training accuracy {report.accuracy:.2f}; transferred-label similarity row is one-hot")


def test_criterion_8_determinism(toy_setup, toy_paths, tmp_path):
    from capsnlu.data import load_tsv

    vectors_path, corpus_path = toy_paths

    def fresh_setup():
        cfg = toy_config()
        table = load_embeddings(vectors_path, cfg.word_dim, seed=cfg.seed)
        table.build_intent_vectors(list(TOY_EXISTING) + list(TOY_EMERGING))
        ex, em = load_tsv(corpus_path, list(TOY_EXISTING), list(TOY_EMERGING), table)
        return cfg, table, ex, em

    _, report1 = _run_toy(fresh_setup(), tmp_path / "run1")
    _, report2 = _run_toy(fresh_setup(), tmp_path / "run2")
    assert report1.accuracy == report2.accuracy
    assert report1.f1 == report2.f1
    for name in ("activations_existing.tsv", "activations_emerging.tsv"):
        b1 = (tmp_path / "run1" / name).read_bytes()
        b2 = (tmp_path / "run2" / name).read_bytes()
        assert b1 == b2, f"{name} differs between identical runs"
    _report(8, "repeated toy runs give identical metrics and byte-identical activation exports")
