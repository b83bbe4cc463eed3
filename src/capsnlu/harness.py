"""Training loop, evaluation, and file exports."""

from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .autodiff import ContractError, NumericError, Tensor, finite_diff_check, no_grad
from .config import RunConfig
from .data import Corpus, EmbeddingTable
from .detection import activation_norms, margin_loss_batch
from .metrics import MetricsReport, compute_metrics
from .model import ModelParams, forward_batch, init_model
from .zeroshot import (
    classify_emerging_batch,
    intent_similarity,
    similarity_variance,
    vote_vectors,
    zero_shot_prediction_vectors,
)

log = logging.getLogger(__name__)

EVAL_BATCH = 64


# Bytes of one block of leading-axis rows in Adam.step. The moment,
# gradient, parameter and two temporary blocks then stay in L2 cache across
# the update's passes.
_ADAM_BLOCK_BYTES = 256 * 1024


def _row_blocks(arr: np.ndarray) -> list:
    """Index keys cutting `arr` into runs of leading-axis rows of about
    _ADAM_BLOCK_BYTES each; a 0-d array is one block."""
    if arr.ndim == 0:
        return [...]
    row_bytes = max(math.prod(arr.shape[1:]) * arr.itemsize, 1)
    rows = max(_ADAM_BLOCK_BYTES // row_bytes, 1)
    return [slice(s, s + rows) for s in range(0, arr.shape[0], rows)]


class Adam:
    """Adaptive-moment gradient descent over named tensors (Kingma & Ba).

    ``step`` is bit for bit the textbook update

        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * (g * g)
        p -= lr * (m / (1 - b1**t)) / (sqrt(v / (1 - b2**t)) + eps)

    evaluated with numpy's usual casting of the Python-float
    hyperparameters. It runs the same elementwise operations in the same
    order, but in place on the persistent moments and parameters, one
    block of leading-axis rows at a time. Each operation is correctly
    rounded per element, so neither the blocking nor the reuse of
    buffers changes a bit, and no array larger than one block is
    allocated per step.

    When a parameter's gradient row record is known (see ``Tensor``),
    the gradient terms ``(1 - b1) * g`` and ``(1 - b2) * (g * g)`` are
    folded into the moments only on the recorded rows; the decays and
    the parameter update still cover every row. On the other rows ``g``
    is +0.0, and adding a +0.0 term leaves every value but -0.0 as it
    was. The moments start at +0.0. Since ``beta2 >= 0``, ``v`` is never
    -0.0; for ``beta1 > 0.5``, neither is ``m``, since ``b1 * m`` rounds
    no nonzero ``m`` to zero. So the skip is exact only for
    ``beta1 > 0.5``; a smaller beta1 folds every row.

    ``lr`` must be finite and non-negative, both betas in [0, 1) and
    ``eps`` positive, else ContractError names the value: ``beta1 = 1``,
    say, would make the bias correction ``1 - b1**t`` zero. Every
    parameter must be writable (a loaded model's are not), else
    ContractError names the first that is not.
    """

    def __init__(self, named_params, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        for name, value, ok, rule in (
            ("lr", lr, math.isfinite(lr) and lr >= 0, "finite and non-negative"),
            ("beta1", beta1, 0 <= beta1 < 1, "in [0, 1)"),
            ("beta2", beta2, 0 <= beta2 < 1, "in [0, 1)"),
            ("eps", eps, eps > 0, "positive"),
        ):
            if not ok:
                raise ContractError(f"Adam {name} must be {rule}, got {value!r}")
        self.params = list(named_params)
        for name, t in self.params:
            if not t.values.flags.writeable:
                raise ContractError(f"parameter {name!r} is read-only (a loaded model is frozen)")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(t.values) for _, t in self.params]
        self.v = [np.zeros_like(t.values) for _, t in self.params]
        self._blocks = [_row_blocks(t.values) for _, t in self.params]
        # two temporary rows per parameter, each the size of its first block
        self._temps = [
            np.empty((2, t.values[b[0]].size if b else 0), t.dtype) for b, (_, t) in zip(self._blocks, self.params)
        ]

    def zero_grad(self) -> None:
        for _, t in self.params:
            t.reset_grad()

    def step(self) -> None:
        self.t += 1
        b1, b2, lr, eps = self.beta1, self.beta2, self.lr, self.eps
        c1, c2 = 1 - b1**self.t, 1 - b2**self.t
        for (_, t), m, v, blocks, (s1, s2) in zip(self.params, self.m, self.v, self._blocks, self._temps):
            p = t.values
            g, rows = t.grad_and_rows()
            cuts = None
            if rows is not None and b1 > 0.5 and p.ndim:
                # the recorded rows of block i are rows[cuts[i]:cuts[i + 1]]
                cuts = np.searchsorted(rows, [key.start for key in blocks] + [p.shape[0]])
            for i, key in enumerate(blocks):
                pb, gb, mb, vb = p[key], g[key], m[key], v[key]
                x = s1[: mb.size].reshape(mb.shape)
                y = s2[: mb.size].reshape(mb.shape)
                mb *= b1
                vb *= b2
                if cuts is None:
                    _gradient_terms(gb, x, y, b1, b2)
                    mb += x
                    vb += y
                elif cuts[i] < cuts[i + 1]:
                    r = rows[cuts[i] : cuts[i + 1]] - key.start
                    gx, gy = x[: r.size], y[: r.size]
                    _gradient_terms(np.take(gb, r, axis=0, out=gx), gx, gy, b1, b2)
                    mb[r] += gx
                    vb[r] += gy
                np.divide(mb, c1, out=x)
                x *= lr
                np.divide(vb, c2, out=y)
                np.sqrt(y, out=y)
                y += eps
                x /= y
                pb -= x


def _gradient_terms(g, x, y, b1, b2) -> None:
    """y = (1 - b2) * (g * g), then x = (1 - b1) * g; `g` may be `x`."""
    np.multiply(g, g, out=y)
    y *= 1 - b2
    np.multiply(g, 1 - b1, out=x)


# ----------------------------------------------------------------------
# splits


def stratified_split(corpus: Corpus, seed: int, fracs=(0.7, 0.1, 0.2)):
    """Deterministic per-class train/validation/test partition."""
    rng = np.random.default_rng(seed)
    picks: list[list[int]] = [[], [], []]
    by_class: dict[int, list[int]] = {}
    for i, (_, lab) in enumerate(corpus.samples):
        by_class.setdefault(lab, []).append(i)
    for lab in sorted(by_class):
        idx = np.asarray(by_class[lab])
        idx = idx[rng.permutation(len(idx))]
        n = len(idx)
        n_train = int(round(fracs[0] * n))
        n_val = int(round(fracs[1] * n))
        picks[0].extend(idx[:n_train].tolist())
        picks[1].extend(idx[n_train : n_train + n_val].tolist())
        picks[2].extend(idx[n_train + n_val :].tolist())
    tags = ("train", "validation", "test")
    return tuple(corpus.subset(sorted(p), tag) for p, tag in zip(picks, tags))


# ----------------------------------------------------------------------
# training


@dataclass
class TrainHistory:
    epoch_losses: list[float] = field(default_factory=list)
    val_accuracies: list[float] = field(default_factory=list)
    best_epoch: int = -1


def batch_loss(model: ModelParams, samples, cfg: RunConfig, *, training: bool, rng=None) -> Tensor:
    tokens = [ids for ids, _ in samples]
    labels = [lab for _, lab in samples]
    fwd = forward_batch(model, tokens, cfg, training=training, rng=rng)
    return margin_loss_batch(
        fwd.trace.v_final,
        labels,
        fwd.penalty,
        downweight=cfg.downweight,
        margin_pos=cfg.margin_pos,
        margin_neg=cfg.margin_neg,
        penalty_weight=cfg.penalty_weight,
    )


def train(cfg: RunConfig, corpus: Corpus, table: EmbeddingTable, val_corpus: Corpus | None = None):
    """Minibatch Adam on the margin+penalty loss; keeps the parameters of
    the best validation epoch. Fully deterministic given the seed."""
    cfg.validate()
    if not corpus.samples:
        raise ContractError("empty training corpus")
    rng = np.random.default_rng(cfg.seed)
    model = init_model(table, cfg, rng=rng)
    history = TrainHistory()
    if cfg.epochs == 0:
        return model, history

    if val_corpus is None or not val_corpus.samples:
        val_corpus = corpus
    optimizer = Adam(model.trainable(), lr=cfg.learning_rate)
    n = len(corpus.samples)
    best_acc = -1.0
    best_values = last_good = model.snapshot()

    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, cfg.batch_size):
            # the shuffle picks batch membership; canonical within-batch
            # order keeps gradient accumulation reproducible
            picked = np.sort(order[start : start + cfg.batch_size])
            batch = [corpus.samples[i] for i in picked]
            loss = batch_loss(model, batch, cfg, training=True, rng=rng)
            value = loss.item()
            if not np.isfinite(value):
                err = NumericError(f"training diverged at epoch {epoch}: loss={value}")
                err.checkpoint = last_good
                raise err
            optimizer.zero_grad()
            loss.backward()
            model.embedding.reset_grad(rows=[model.pad_id])  # PAD stays frozen
            optimizer.step()
            loss_sum += value * len(batch)
        epoch_loss = loss_sum / n
        acc = evaluate(model, val_corpus, cfg).accuracy
        history.epoch_losses.append(epoch_loss)
        history.val_accuracies.append(acc)
        last_good = model.snapshot()
        if acc >= best_acc:  # ties keep the later, more-converged epoch
            best_acc = acc
            best_values = last_good  # neither dict is mutated later
            history.best_epoch = epoch
        log.info("epoch %d: loss=%.6f val_acc=%.4f", epoch, epoch_loss, acc)

    model.restore(best_values)
    return model, history


# ----------------------------------------------------------------------
# evaluation


def _forward_chunks(model: ModelParams, corpus: Corpus, cfg: RunConfig):
    """Yield (start, chunk, ForwardPass) for each EVAL_BATCH slice of the
    corpus. no_grad covers each forward_batch call but never a yield: a
    consumer that stops early leaves the generator suspended, and a block
    held open across the yield would keep graph recording off for the
    caller, then pop another block's entry off the thread-local grad
    stack when the generator is finally closed."""
    samples = corpus.samples
    for start in range(0, len(samples), EVAL_BATCH):
        chunk = samples[start : start + EVAL_BATCH]
        with no_grad():
            fwd = forward_batch(model, [ids for ids, _ in chunk], cfg)
        yield start, chunk, fwd


def predict_existing(model: ModelParams, corpus: Corpus, cfg: RunConfig) -> np.ndarray:
    preds = []
    for _, _, fwd in _forward_chunks(model, corpus, cfg):
        preds.extend(activation_norms(fwd.trace.v_final).argmax(axis=-1).tolist())
    return np.asarray(preds, dtype=np.int64)


def evaluate(model: ModelParams, corpus: Corpus, cfg: RunConfig) -> MetricsReport:
    """Support-weighted metrics of the existing-intent classifier."""
    if not corpus.samples:
        raise ContractError("empty corpus")
    started = time.perf_counter()
    preds = predict_existing(model, corpus, cfg)
    truth = np.asarray([lab for _, lab in corpus.samples], dtype=np.int64)
    return compute_metrics(truth, preds, len(corpus.label_names), seconds=time.perf_counter() - started)


def zsl_predict(model: ModelParams, corpus: Corpus, intent_vectors: np.ndarray, cfg: RunConfig):
    """Zero-shot predictions plus per-utterance emerging activations."""
    k = len(cfg.existing_labels)
    sim = intent_similarity(intent_vectors[k:], intent_vectors[:k], cfg.sigma)
    preds = []
    acts = []
    for _, _, fwd in _forward_chunks(model, corpus, cfg):
        votes = vote_vectors(fwd.trace, fwd.P)                 # B x K x R x D_P
        u = zero_shot_prediction_vectors(sim.q, votes)         # B x L x R x D_P
        winners, n = classify_emerging_batch(u, cfg.routing_iterations)
        preds.extend(winners.tolist())
        acts.append(n)
    if not acts:  # an empty corpus: no utterance, L x D_P activations each
        dtype = np.result_type(sim.q, model.embedding.values)
        acts.append(np.empty((0, sim.q.shape[0], cfg.caps_dim), dtype=dtype))
    return np.asarray(preds, dtype=np.int64), np.concatenate(acts, axis=0), sim


def zsl_evaluate(model: ModelParams, corpus: Corpus, intent_vectors: np.ndarray, cfg: RunConfig):
    """Metrics over emerging intents plus (accuracy, similarity-variance)
    pairs per emerging intent."""
    if not corpus.samples:
        raise ContractError("empty corpus")
    started = time.perf_counter()
    preds, _, sim = zsl_predict(model, corpus, intent_vectors, cfg)
    truth = np.asarray([lab for _, lab in corpus.samples], dtype=np.int64)
    report = compute_metrics(truth, preds, len(corpus.label_names), seconds=time.perf_counter() - started)
    variances = similarity_variance(sim.q)
    per_intent = []
    for l, name in enumerate(corpus.label_names):
        sel = truth == l
        acc = float((preds[sel] == l).mean()) if sel.any() else 0.0
        per_intent.append((name, acc, float(variances[l])))
    return report, per_intent


def attention_offdiag_mean(model: ModelParams, corpus: Corpus, cfg: RunConfig) -> float:
    """Mean absolute off-diagonal entry of A A^T over a corpus: how much
    the attention heads overlap."""
    if not corpus.samples:
        raise ContractError("empty corpus")
    heads = cfg.heads
    if heads < 2:
        return 0.0
    off_mask = ~np.eye(heads, dtype=bool)
    totals = []
    for _, _, fwd in _forward_chunks(model, corpus, cfg):
        gram = fwd.A.values @ np.swapaxes(fwd.A.values, -1, -2)  # B x R x R
        totals.extend(np.abs(gram[:, off_mask]).mean(axis=-1).tolist())
    return float(np.mean(totals))


# ----------------------------------------------------------------------
# gradient check of the full loss


def build_tiny_setup(seed: int, dtype=np.float64):
    """A small everything-on model for end-to-end gradient verification:
    5 tokens, 3 intents, 2 heads, 3 routing rounds."""
    rng = np.random.default_rng(seed)
    vocab_words = [f"w{i}" for i in range(8)]
    vocab = {w: i for i, w in enumerate(vocab_words)}
    vocab["<oov>"] = 8
    vocab["<pad>"] = 9
    vectors = rng.normal(scale=0.3, size=(10, 8)).astype(dtype)
    vectors[9] = 0.0
    table = EmbeddingTable(vocab=vocab, vectors=vectors, oov_id=8, pad_id=9)
    cfg = RunConfig(
        word_dim=8,
        hidden_dim=6,
        attn_dim=5,
        heads=2,
        caps_dim=4,
        routing_iterations=3,
        dropout_keep=1.0,
        penalty_weight=0.5,
        existing_labels=("a", "b", "c"),
        emerging_labels=(),
        seed=seed,
    )
    model = init_model(table, cfg, rng=rng, dtype=dtype)
    tokens = rng.integers(0, 8, size=5).tolist()
    label = int(rng.integers(0, 3))
    return model, cfg, tokens, label


def full_loss_gradcheck(seed: int = 0, epsilon: float = 1e-4, kink_gap: float = 1e-3, max_tries: int = 25):
    """Gradient-check the complete loss (attention, squash, every routing
    round) in float64. Draws whose activation norms sit within `kink_gap`
    of a hinge margin are re-rolled. Returns (max relative error, seed)."""
    for attempt in range(seed, seed + max_tries):
        model, cfg, tokens, label = build_tiny_setup(attempt)

        def loss_fn(_):
            return batch_loss(model, [(tokens, label)], cfg, training=False)

        with no_grad():
            fwd = forward_batch(model, [tokens], cfg)
            norms = activation_norms(fwd.trace.v_final)
        near_kink = (np.abs(norms - cfg.margin_pos) < kink_gap) | (np.abs(norms - cfg.margin_neg) < kink_gap)
        if near_kink.any():
            continue
        err = finite_diff_check(loss_fn, model.trainable(), epsilon=epsilon)
        return err, attempt
    raise NumericError(f"no kink-free draw in {max_tries} tries from seed {seed}")


# ----------------------------------------------------------------------
# tabular exports


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def export_attention(model: ModelParams, corpus: Corpus, cfg: RunConfig, words: list[str], path) -> Path:
    """Per-token attention scores, one row per (utterance, token, head)."""
    path = Path(path)
    lines = ["utterance\tposition\ttoken\thead\tscore"]
    for start, chunk, fwd in _forward_chunks(model, corpus, cfg):
        for bi, (ids, _) in enumerate(chunk):
            for pos, wid in enumerate(ids):
                for head in range(cfg.heads):
                    score = fwd.A.values[bi, head, pos]
                    lines.append(
                        f"{start + bi}\t{pos}\t{words[wid]}\t{head}\t{_fmt(score)}"
                    )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def export_activations_existing(model: ModelParams, corpus: Corpus, cfg: RunConfig, path) -> Path:
    """One row per (utterance, intent): norm and entries of v_k."""
    path = Path(path)
    true_names = corpus.label_names
    intent_names = list(cfg.existing_labels)
    header = ["utterance", "true_intent", "intent", "norm"] + [f"v{i}" for i in range(cfg.caps_dim)]
    lines = ["\t".join(header)]
    for start, chunk, fwd in _forward_chunks(model, corpus, cfg):
        v = fwd.trace.v_final.values
        norms = activation_norms(v)
        for bi, (_, lab) in enumerate(chunk):
            for k, name in enumerate(intent_names):
                row = [str(start + bi), true_names[lab], name, _fmt(norms[bi, k])]
                row += [_fmt(x) for x in v[bi, k]]
                lines.append("\t".join(row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def export_activations_emerging(
    model: ModelParams, corpus: Corpus, intent_vectors: np.ndarray, cfg: RunConfig, path
) -> Path:
    """One row per (utterance, emerging intent): true and predicted labels,
    the intent's activation norm, and the n_l entries; raw material for
    orientation plots."""
    path = Path(path)
    names = corpus.label_names
    preds, acts, _ = zsl_predict(model, corpus, intent_vectors, cfg)
    header = ["utterance", "true_intent", "predicted_intent", "intent", "norm"] + [
        f"n{i}" for i in range(acts.shape[-1])
    ]
    lines = ["\t".join(header)]
    for i, (_, lab) in enumerate(corpus.samples):
        for l, name in enumerate(names):
            row = [str(i), names[lab], names[preds[i]], name, _fmt(np.linalg.norm(acts[i, l]))]
            row += [_fmt(x) for x in acts[i, l]]
            lines.append("\t".join(row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_summary(out_dir, mode: str, cfg_hash: str, metrics: dict, seconds: float) -> Path:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "summary.jsonl"
    record = {
        "mode": mode,
        "config": cfg_hash,
        "metrics": metrics,
        "seconds": round(seconds, 3),
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    return path
