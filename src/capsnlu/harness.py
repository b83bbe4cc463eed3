"""Training loop, evaluation, and file exports."""

from __future__ import annotations

import concurrent.futures
import contextlib
import json
import logging
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import config
from .autodiff import ContractError, NumericError, Tensor, finite_diff_check, no_grad
from .config import RunConfig
from .data import Corpus, EmbeddingTable
from .detection import activation_norms, margin_loss_batch
from .metrics import MetricsReport, compute_metrics
from .model import ModelParams, forward_batch, init_model
from .semantic import TokenBatch, check_token_ids
from .zeroshot import (
    classify_emerging_batch,
    intent_similarity,
    similarity_variance,
    vote_vectors,
    zero_shot_prediction_vectors,
)

log = logging.getLogger(__name__)

# Utterances per evaluation chunk. The chunks run on one worker thread
# per CPU (see `_forward_chunks`), and each numpy call holds the GIL for
# its Python overhead, so a chunk must be large enough for the calls' own
# work to dominate: on a 2-vCPU host with one BLAS thread, evaluation on
# two threads ran at 0.84x one thread with 64-utterance chunks and at
# 1.45x with 256-utterance chunks.
EVAL_BATCH = 256


# Bytes of one block of leading-axis rows in Adam's passes. Each numpy call
# of the rows step's gradient-free pass takes the GIL once between the
# forward's and backward's own calls, so fewer, longer calls slow them less:
# at 1 MiB a 6,345 x 300 float32 table's pass is 8 blocks of 9 calls (15 at
# 512 KiB). Larger blocks hand off less still but fall further out of L2,
# so the pass itself slows, and where one CPU runs both threads that cost
# is paid in full: 4 MiB blocks trained slower than 512 KiB pinned to one
# CPU, 1 MiB did not.
_ADAM_BLOCK_BYTES = 1024 * 1024


def _row_blocks(arr: np.ndarray) -> list:
    """Index keys cutting `arr` into runs of leading-axis rows of about
    _ADAM_BLOCK_BYTES each; a 0-d array is one block."""
    if arr.ndim == 0:
        return [...]
    row_bytes = max(math.prod(arr.shape[1:]) * arr.itemsize, 1)
    rows = max(_ADAM_BLOCK_BYTES // row_bytes, 1)
    return [slice(s, s + rows) for s in range(0, arr.shape[0], rows)]


BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's settings: Kingma & Ba's defaults, as in the paper


class Adam:
    """Adaptive-moment gradient descent over named tensors (Kingma & Ba).

    ``step`` is bit for bit the textbook update

        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * (g * g)
        p -= lr * (m / (1 - b1**t)) / (sqrt(v / (1 - b2**t)) + eps)

    with b1, b2 and eps the module's BETA1, BETA2 and EPS, evaluated with
    numpy's usual casting of Python floats. It runs the same elementwise
    operations in the same order, but in place on the persistent moments
    and parameters, one block of leading-axis rows at a time. Each
    operation is correctly rounded per element, so neither the blocking
    nor the reuse of buffers changes a bit, and no array larger than one
    block is allocated per step.

    ``with rows_step(param, rows) as leaf:`` is one step for a table of
    which a step reads and writes only a few rows (the embedding). The
    block gets a new leaf holding those rows, which the forward and
    backward use in place of the table, while the step's own thread runs
    the step with g = +0.0 over every row of the table: the decays and
    the update, which need neither the gradient nor the forward. When the
    block exits normally it steps the other parameters, waits for that
    pass and redoes the full step of the chosen rows from their pre-step
    values and the leaf's gradient, and writes them back. Off those rows
    the textbook's ``(1 - b1) * g`` and ``(1 - b2) * (g * g)`` are +0.0,
    and adding +0.0 leaves every value but -0.0 as it was. No moment is
    ever -0.0: both start at +0.0, v is a sum of squares, and ``b1 * m``
    rounds no nonzero m to zero. So every element sees the textbook's
    operations in its order, and the split changes no bit. Between steps
    the optimizer's state is ``t``, ``m``, ``v`` and any aborted step.

    Each ``rows_step`` runs its pass on a one-thread ThreadPoolExecutor
    of its own (thread ``adam-rows-step_0``), which the block leaves
    through a ``with``: every way out of the block, normal or by an
    exception, waits for the pass and ends the thread. When the process
    may use one CPU only (``config.usable_cpus``), the pass runs inline
    before the block's body instead and no thread starts, since a thread
    would only take turns with the forward and backward. So between steps
    the optimizer holds no thread, and ``copy.deepcopy`` copies it; an
    optimizer that only ``step``s starts none. A step that an exception
    leaves, from its block or its own exit (the wait for the pass, the
    rows' step, the write-back), is aborted: its pass may have moved the
    table while ``t`` and the rest did not, so the next ``rows_step`` or
    ``step()`` raises ContractError naming it.

    ``lr`` must be finite and non-negative, else ContractError names it.
    Every parameter must be writable (a loaded model's are not) and listed
    once, else ContractError names it; a parameter listed twice would be
    stepped twice.
    """

    def __init__(self, named_params, lr: float):
        if not (math.isfinite(lr) and lr >= 0):
            raise ContractError(f"Adam lr must be finite and non-negative, got {lr!r}")
        self.params = list(named_params)
        for k, (name, t) in enumerate(self.params):
            if not t.values.flags.writeable:
                raise ContractError(f"parameter {name!r} is read-only (a loaded model is frozen)")
            for other, u in self.params[:k]:
                if np.shares_memory(t.values, u.values):
                    raise ContractError(f"parameters {other!r} and {name!r} share memory; Adam would step it twice")
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(t.values) for _, t in self.params]
        self.v = [np.zeros_like(t.values) for _, t in self.params]
        self._blocks = [_row_blocks(t.values) for _, t in self.params]
        # two temporary rows per parameter, each the size of its first block
        self._temps = [
            np.empty((2, t.values[b[0]].size if b else 0), t.dtype) for b, (_, t) in zip(self._blocks, self.params)
        ]
        self._in_rows_step = False  # the pass owns a table while True
        self._aborted = ""  # why no step may follow, once one was aborted

    def zero_grad(self) -> None:
        for _, t in self.params:
            t.reset_grad()

    @contextlib.contextmanager
    def rows_step(self, param: Tensor, rows):
        """One step, with `param`, one of the optimizer's tables, stepped
        through a new leaf holding its sorted distinct leading-axis `rows`
        (see the class docstring): the block runs the forward and backward on
        the leaf, and its normal exit takes the step. Inside the block the
        pass owns the table's values and moments: nothing may read or write
        them, and a nested block or a ``step()`` raises ContractError. The
        block waits for its pass on every way out, and the pass's exception,
        if any, is raised when no other is on its way out. A block left by
        an exception aborts its step: the optimizer takes no other (see the
        class docstring)."""
        if self._aborted:
            raise ContractError(self._aborted)
        index = next((k for k, (_, t) in enumerate(self.params) if t is param), None)
        if index is None or param.ndim == 0:
            raise ContractError("rows_step needs a table that is one of the optimizer's parameters")
        if self._in_rows_step:
            raise ContractError("a rows step is already open")
        rows = np.asarray(rows)
        n = param.shape[0]
        if not (np.issubdtype(rows.dtype, np.integer) and rows.ndim == 1 and rows.size):
            raise ContractError("rows_step needs a non-empty 1-d array of integer row ids")
        if rows[0] < 0 or rows[-1] >= n or (np.diff(rows) <= 0).any():
            raise ContractError(f"rows_step needs sorted distinct row ids of the {n}-row table, got {rows}")
        leaf = Tensor(np.take(param.values, rows, axis=0), requires_grad=True)
        m_rows, v_rows = (np.take(a[index], rows, axis=0) for a in (self.m, self.v))
        step = self.t + 1
        self._in_rows_step = True
        try:
            with contextlib.ExitStack() as stack:
                if config.usable_cpus() > 1:
                    # the executor's exit waits for the pass and ends its thread
                    pool = stack.enter_context(concurrent.futures.ThreadPoolExecutor(1, thread_name_prefix="adam-rows-step"))
                    done = pool.submit(self._gradient_free_step, index, step)
                else:  # on one CPU a thread would only take turns with the forward and backward
                    self._gradient_free_step(index, step)
                    done = None
                yield leaf
                self.t = step
                hyper = self._hyper(step)
                self._dense_steps(hyper, skip=index)  # while the pass runs on its thread, if it has one
                if done is not None:
                    done.result()
                _full_step(leaf.values, leaf.grad, m_rows, v_rows, _row_blocks(leaf.values), self._temps[index], hyper)
                param.values[rows] = leaf.values
                self.m[index][rows] = m_rows
                self.v[index][rows] = v_rows
        except BaseException:
            self._aborted = f"Adam step {step} was aborted by an exception; the optimizer takes no further step"
            raise
        finally:
            self._in_rows_step = False

    def _hyper(self, t: int) -> tuple:
        return self.lr, 1 - BETA1**t, 1 - BETA2**t

    def _gradient_free_step(self, index: int, t: int) -> None:
        """Step `t` of parameter `index` with g = +0.0 on every row."""
        lr, c1, c2 = self._hyper(t)
        p, m, v, (s1, s2) = self.params[index][1].values, self.m[index], self.v[index], self._temps[index]
        for key in self._blocks[index]:
            mb, vb = m[key], v[key]
            mb *= BETA1
            vb *= BETA2
            _update(p[key], mb, vb, s1[: mb.size].reshape(mb.shape), s2[: mb.size].reshape(mb.shape), lr, c1, c2)

    def _dense_steps(self, hyper: tuple, skip: int | None = None) -> None:
        for i, (_, t) in enumerate(self.params):
            if i != skip:
                _full_step(t.values, t.grad, self.m[i], self.v[i], self._blocks[i], self._temps[i], hyper)

    def step(self) -> None:
        """One step of every parameter from its ``.grad``."""
        if self._in_rows_step:
            raise ContractError("step() inside a rows_step block would race its worker over the table")
        if self._aborted:
            raise ContractError(self._aborted)
        self.t += 1
        self._dense_steps(self._hyper(self.t))


def _full_step(p, g, m, v, blocks, temps, hyper) -> None:
    """The textbook step of `p` from gradient `g`, in place, block by block."""
    lr, c1, c2 = hyper
    s1, s2 = temps
    for key in blocks:
        pb, gb, mb, vb = p[key], g[key], m[key], v[key]
        x = s1[: mb.size].reshape(mb.shape)
        y = s2[: mb.size].reshape(mb.shape)
        mb *= BETA1
        vb *= BETA2
        np.multiply(gb, gb, out=y)
        y *= 1 - BETA2
        np.multiply(gb, 1 - BETA1, out=x)
        mb += x
        vb += y
        _update(pb, mb, vb, x, y, lr, c1, c2)


def _update(pb, mb, vb, x, y, lr, c1, c2) -> None:
    """pb -= lr * (mb / c1) / (sqrt(vb / c2) + EPS), through buffers x, y."""
    np.divide(mb, c1, out=x)
    x *= lr
    np.divide(vb, c2, out=y)
    np.sqrt(y, out=y)
    y += EPS
    x /= y
    pb -= x


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


def batch_loss(model: ModelParams, tokens, labels, cfg: RunConfig, *, training: bool, rng=None) -> Tensor:
    """The margin loss of a batch (a list or a `TokenBatch`) and its labels."""
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
    the best validation epoch. Fully deterministic given the seed.

    A step cuts its batch from the corpus's packed ids (`Corpus.batch`)
    and reads and writes few embedding rows: the batch's token ids and
    the pad id (whose gradient row is zeroed, so PAD stays frozen). Each
    step is one ``Adam.rows_step`` block, which gathers those rows into a
    leaf, with the batch's ids renumbered to index it; the block runs the
    forward and backward on a model whose embedding is that leaf, and its
    exit takes the Adam step. Meanwhile the step's own thread runs the
    table's gradient-free Adam pass over every row (on one CPU the pass
    runs first, inline), and the step waits for it and ends that thread
    before it returns or raises, so no thread outlives a step. An id that is not a row of the embedding raises
    `check_token_ids`' ContractError before any row is gathered. Losses,
    parameters and moments are bit for bit those of a step on the whole
    table."""
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
    n = len(corpus.samples)
    labels = np.array([lab for _, lab in corpus.samples], dtype=np.int64)
    best_acc = -1.0
    best_values = last_good = model.snapshot()

    optimizer = Adam(model.trainable(), lr=cfg.learning_rate)
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, cfg.batch_size):
            # the shuffle picks batch membership; canonical within-batch
            # order keeps gradient accumulation reproducible
            picked = np.sort(order[start : start + cfg.batch_size])
            batch = corpus.batch(picked)
            ids = check_token_ids(batch, model.embedding.shape[0])
            rows, inverse = np.unique(np.append(ids, model.pad_id), return_inverse=True)
            local = TokenBatch(inverse[:-1], batch.lengths)
            pad = int(inverse[-1])
            with optimizer.rows_step(model.embedding, rows) as leaf:
                stepped = replace(model, embedding=leaf, pad_id=pad)
                loss = batch_loss(stepped, local, labels[picked], cfg, training=True, rng=rng)
                value = loss.item()
                if not np.isfinite(value):
                    err = NumericError(f"training diverged at epoch {epoch}: loss={value}")
                    err.checkpoint = last_good
                    raise err
                optimizer.zero_grad()
                loss.backward()
                leaf.grad[pad] = 0.0  # PAD stays frozen
            loss_sum += value * len(picked)
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


def _forward_chunks(model: ModelParams, corpus: Corpus, cfg: RunConfig, read) -> list:
    """[(indices, read(fwd))] for each chunk of at most EVAL_BATCH
    utterances, in chunk order: `indices` are the chunk's corpus indices
    and `fwd` its ForwardPass. The chunks are cut from the corpus sorted
    by length (a stable sort, so equal lengths keep corpus order), so
    each pads only to its own longest utterance (only a chunk of one
    length has no pads); consumers put their results back in corpus order
    by `indices`. Each chunk's ids are a `TokenBatch` cut by `Corpus.batch`
    from the ids the corpus packs once, so a worker does no per-token
    Python work.

    Each chunk's forward_batch and `read` run together under a no_grad
    block of their own, on a ThreadPoolExecutor (threads named
    ``eval-chunk_N``) with one worker per CPU the process may run on
    (``config.usable_cpus``), capped at the number of chunks.
    With one worker (one CPU, or one chunk) the chunks run inline on the
    caller's thread and no thread starts. A chunk reads only the model
    and its own utterances, so the outputs are identical to a one-thread
    run. The pool is made and shut down in each call, so no worker
    outlives it; graph recording is per thread, so the caller's stays as
    it was. When a chunk raises (or `read` does, even KeyboardInterrupt),
    the first failing chunk in chunk order raises its own exception,
    after the chunks not yet started are cancelled and the running ones
    have finished."""
    order = np.argsort(corpus.lengths, kind="stable")  # packs the corpus's ids, on this thread
    chunks = [order[start : start + EVAL_BATCH] for start in range(0, len(order), EVAL_BATCH)]

    def run(indices):
        with no_grad():
            return indices, read(forward_batch(model, corpus.batch(indices), cfg))

    workers = min(config.usable_cpus(), len(chunks))
    if workers <= 1:
        return [run(indices) for indices in chunks]
    pool = concurrent.futures.ThreadPoolExecutor(workers, thread_name_prefix="eval-chunk")
    try:
        futures = [pool.submit(run, indices) for indices in chunks]
        return [f.result() for f in futures]
    finally:
        pool.shutdown(cancel_futures=True)


def _per_utterance(model: ModelParams, corpus: Corpus, cfg: RunConfig, read) -> list:
    """`read(fwd)` of every chunk, one item per utterance, in corpus order."""
    out = [None] * len(corpus.samples)
    for indices, items in _forward_chunks(model, corpus, cfg, read):
        for i, item in zip(indices.tolist(), items):
            out[i] = item
    return out


def predict_existing(model: ModelParams, corpus: Corpus, cfg: RunConfig) -> np.ndarray:
    preds = np.empty(len(corpus.samples), dtype=np.int64)

    def read(fwd):
        return activation_norms(fwd.trace.v_final).argmax(axis=-1)

    for indices, chunk in _forward_chunks(model, corpus, cfg, read):
        preds[indices] = chunk
    return preds


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
    n_utts = len(corpus.samples)
    preds = np.empty(n_utts, dtype=np.int64)
    acts = np.empty((n_utts, sim.q.shape[0], cfg.caps_dim), dtype=np.result_type(sim.q, model.embedding.values))

    def read(fwd):
        votes = vote_vectors(fwd.trace, fwd.P)                 # B x K x R x D_P
        u = zero_shot_prediction_vectors(sim.q, votes)         # B x L x R x D_P
        return classify_emerging_batch(u, cfg.routing_iterations)

    for indices, chunk in _forward_chunks(model, corpus, cfg, read):
        preds[indices], acts[indices] = chunk
    return preds, acts, sim


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
    totals = np.empty(len(corpus.samples))

    def read(fwd):
        gram = fwd.A.values @ np.swapaxes(fwd.A.values, -1, -2)  # B x R x R
        return np.abs(gram[:, off_mask]).mean(axis=-1)

    for indices, chunk in _forward_chunks(model, corpus, cfg, read):
        totals[indices] = chunk
    return float(totals.mean())


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


def full_loss_gradcheck(seed: int = 0, epsilon: float = 1e-4):
    """Gradient-check the complete loss (attention, squash, every routing
    round) in float64. Draws whose activation norms sit within `kink_gap`
    of a hinge margin are re-rolled. Returns (max relative error, seed)."""
    kink_gap, max_tries = 1e-3, 25
    for attempt in range(seed, seed + max_tries):
        model, cfg, tokens, label = build_tiny_setup(attempt)

        def loss_fn(_):
            return batch_loss(model, [tokens], [label], cfg, training=False)

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
    attn = _per_utterance(model, corpus, cfg, lambda fwd: fwd.A.values)
    for i, ((ids, _), a) in enumerate(zip(corpus.samples, attn)):
        for pos, wid in enumerate(ids):
            for head in range(cfg.heads):
                lines.append(f"{i}\t{pos}\t{words[wid]}\t{head}\t{_fmt(a[head, pos])}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def export_activations_existing(model: ModelParams, corpus: Corpus, cfg: RunConfig, path) -> Path:
    """One row per (utterance, intent): norm and entries of v_k."""
    path = Path(path)
    true_names = corpus.label_names
    intent_names = list(cfg.existing_labels)
    header = ["utterance", "true_intent", "intent", "norm"] + [f"v{i}" for i in range(cfg.caps_dim)]
    lines = ["\t".join(header)]
    acts = _per_utterance(model, corpus, cfg, lambda fwd: fwd.trace.v_final.values)
    for i, ((_, lab), v) in enumerate(zip(corpus.samples, acts)):
        norms = activation_norms(v)
        for k, name in enumerate(intent_names):
            row = [str(i), true_names[lab], name, _fmt(norms[k])]
            row += [_fmt(x) for x in v[k]]
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
    norms = activation_norms(acts)
    for i, (_, lab) in enumerate(corpus.samples):
        for l, name in enumerate(names):
            row = [str(i), names[lab], names[preds[i]], name, _fmt(norms[i, l])]
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
