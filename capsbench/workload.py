"""One benchmark workload, run in a process of its own.

    PYTHONPATH=src python3 capsbench/workload.py --workload train-snips \\
        --inputs DIR --seed 1 --seconds 10 --trace 0 --result FILE

`DIR` holds what `synth.generate` wrote plus `inputs.json`. The result
file gets the metrics, the op counts and the report lines; `run.py`
prints them. With `--trace 0` the library runs through its public entry
points only. With `--trace 1` the same work is composed layer by layer
from each module's public functions, in the order `model.forward_batch`
and `harness.train` call them, with a span around every call; the
composed loop is checked to reproduce the entry points exactly.
"""

from __future__ import annotations

import argparse
import bisect
import json
import logging
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from capsnlu.autodiff import no_grad
from capsnlu.config import RunConfig
from capsnlu.data import dataset_words, load_embeddings, load_snips
from capsnlu.detection import activation_norms, dynamic_routing, margin_loss_batch, prediction_vectors
from capsnlu.harness import (
    EVAL_BATCH,
    Adam,
    evaluate,
    predict_existing,
    stratified_split,
    train,
    zsl_evaluate,
    zsl_predict,
)
from capsnlu.metrics import compute_metrics
from capsnlu.model import forward_batch, init_model, load_model, save_model
from capsnlu.semantic import attend, encode_tokens, semantic_vectors
from capsnlu.zeroshot import (
    classify_emerging_batch,
    intent_similarity,
    vote_vectors,
    zero_shot_prediction_vectors,
)
from spans import Tracer, summary

EPOCHS_PER_SECOND = 0.5    # train-snips trains round(seconds / 2) epochs, 10 at the default 20 s
SETUP_REPS = {"train-snips": 3, "infer-batch": 11, "infer-online": 11}
PROBE_REQUESTS = 3000      # train-snips: B=1 requests after training
PROBE_CHUNK = 200          # infer-batch: B=1 requests after each evaluate + zsl_evaluate pass
MIN_REQUESTS = 1000        # infer-online serves at least this many, so p99 has 10 samples above it
TRACED_PASSES = 3          # inference traced runs: untraced and traced passes, in turn
TEST_ACCURACY_FLOOR = 0.6  # chance is 1/5
ZSL_ACCURACY_FLOOR = 0.7   # chance is 1/2
NEAR_TIE = 1e-4            # B=1 and batched argmax may differ only on a tie this close
# Speed gauges: (batch shape, loop iterations, loop seconds at reference
# speed, a round figure near the loop's median on the reference machine).
DISPATCH_GAUGE = ((16, 64), 300, 2.0e-3)  # numpy dispatch, as in B=1 requests
BATCHED_GAUGE = ((768, 300), 2, 4.0e-3)   # BLAS and memory, as in setups, B=32 training and B=64 eval
GAUGE_EVERY = 40           # B=1 requests between dispatch gauge readings
GAUGE_BURST = 5            # batched gauge readings before and after each setup, eval pass and epoch
GAUGE_WINDOW_S = 0.25      # readings this close to a timed interval set its speed

# Span roots whose calls give a workload's per-layer numbers, first match wins.
MAIN_ROOTS = {
    "train-snips": ("train.step", "zsl.batch", "load", "setup"),
    "infer-batch": ("eval.batch", "zsl.batch", "setup", "prep"),
    "infer-online": ("online.request", "setup", "prep"),
}
LAYER_SPANS = (
    "semantic.encode_tokens",
    "semantic.attend",
    "semantic.semantic_vectors",
    "detection.prediction_vectors",
    "detection.dynamic_routing",
    "detection.margin_loss",
    "autodiff.backward",
    "harness.adam_step",
    "zeroshot.vote_vectors",
    "zeroshot.prediction_vectors",
    "zeroshot.classify_emerging",
)
TRAIN_ONLY_SPANS = ("detection.margin_loss", "autodiff.backward", "harness.adam_step")


class Checks:
    """Output checks; every check is one attempted op, a false one fails."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def __call__(self, ok, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


class SpeedGauge:
    """Machine speed, read by timing a fixed numpy loop between pieces of work.

    The host is shared: its speed swings by up to 2x over seconds to
    minutes as other tenants come and go. A gauge loop (float32 matmul +
    tanh steps on a fixed batch, never touching the library) slows with
    it. Kinds of work slow differently, so each is scaled by its own
    gauge: B=1 requests by DISPATCH_GAUGE; setups, batched passes and
    training by BATCHED_GAUGE. `scale(start, end)` is the loop's time at
    reference speed over the median time read within GAUGE_WINDOW_S of
    that interval; a wall time times the scale is that time at reference
    speed. Readings are taken between library calls, never inside one,
    and in bursts whose median the cache state a call leaves barely moves.
    """

    def __init__(self, spec):
        shape, self.iterations, self.ref_s = spec
        rng = np.random.default_rng(0)
        self.a = rng.normal(size=shape).astype(np.float32)
        self.b = (rng.normal(size=(shape[1], shape[1])) / np.sqrt(shape[1])).astype(np.float32)
        self.stamps: list[float] = []
        self.times: list[float] = []

    def __call__(self, reps: int = 1) -> None:
        for _ in range(reps):
            started = time.perf_counter()
            x = self.a
            for _ in range(self.iterations):
                x = np.tanh(x @ self.b) * 0.5 + self.a
            ended = time.perf_counter()
            self.stamps.append(ended)
            self.times.append(ended - started)

    def timed(self, fn):
        """Call `fn` between two bursts of GAUGE_BURST readings; (result,
        wall seconds, those seconds at reference speed)."""
        self(GAUGE_BURST)
        started = time.perf_counter()
        out = fn()
        ended = time.perf_counter()
        self(GAUGE_BURST)
        seconds = ended - started
        return out, seconds, seconds * self.scale(started, ended)

    def scale(self, start: float, end: float) -> float:
        lo = bisect.bisect_left(self.stamps, start - GAUGE_WINDOW_S)
        hi = bisect.bisect_right(self.stamps, end + GAUGE_WINDOW_S)
        near = self.times[lo:hi] or self.times
        return self.ref_s / float(np.median(near))

    def report(self, name: str) -> str:
        return (f"{name} gauge: machine at {self.ref_s / float(np.median(self.times)):.3f} x reference speed "
                f"(median of {len(self.times)} readings, {self.ref_s * 1e3:g} ms at reference speed)")


def _spanner(tracer: Tracer | None):
    if tracer is None:
        return lambda name, op_id=None: nullcontext()
    return tracer.span


def _cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _rows_touched(tokens, pad_id: int) -> int:
    """Distinct embedding rows the padded id batch gathers."""
    ids = {w for seq in tokens for w in seq}
    if len({len(seq) for seq in tokens}) > 1:
        ids.add(pad_id)
    return len(ids)


def graph_nodes(root) -> int:
    """Recorded autodiff ops reachable from `root` through `parents`."""
    seen: set[int] = set()
    stack = [root]
    count = 0
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        if t.parents:
            count += 1
            stack.extend(t.parents)
    return count


# ----------------------------------------------------------------------
# setup


def load_table(cfg: RunConfig, sp):
    with sp("data.dataset_words"):
        words = dataset_words(cfg.dataset_path)
    with sp("data.load_embeddings"):
        table = load_embeddings(cfg.embeddings_path, cfg.word_dim, seed=cfg.seed, restrict_to=words)
    table.build_intent_vectors(list(cfg.existing_labels) + list(cfg.emerging_labels), mode=cfg.intent_embedding_mode)
    return table


def load_corpora(cfg: RunConfig, table, sp):
    with sp("data.load_snips"):
        return load_snips(cfg.dataset_path, list(cfg.existing_labels), list(cfg.emerging_labels), table)


def setup_train(cfg: RunConfig, sp):
    """Vectors, corpus and model init, as `capsnlu train` does them."""
    with sp("setup"):
        table = load_table(cfg, sp)
        existing, emerging = load_corpora(cfg, table, sp)
        with sp("model.init_model"):
            init_model(table, cfg, rng=np.random.default_rng(cfg.seed))
    return table, existing, emerging


def prep_model(cfg: RunConfig, model_dir: Path, sp):
    """Untimed prep of the inference workloads: save an untrained model."""
    with sp("prep"):
        table = load_table(cfg, sp)
        with sp("model.init_model"):
            model = init_model(table, cfg, rng=np.random.default_rng(cfg.seed))
        save_model(model, table, cfg, model_dir)
    return table


def setup_infer(cfg: RunConfig, model_dir: Path, sp):
    with sp("setup"):
        with sp("model.load_model"):
            bundle = load_model(model_dir)
        existing, emerging = load_corpora(bundle.config, bundle.table, sp)
    return bundle, existing, emerging, similarity(bundle.intent_vectors, cfg)


def similarity(intent_vectors, cfg: RunConfig) -> np.ndarray:
    """The emerging-to-existing q matrix `zsl_predict` builds, made once."""
    k = len(cfg.existing_labels)
    return intent_similarity(intent_vectors[k:], intent_vectors[:k], cfg.sigma).q


def timed_setups(reps: int, fn, gauge: SpeedGauge):
    """Run `fn` `reps` times under the gauge; (median seconds at reference
    speed, every wall time, last result)."""
    times, scaled = [], []
    out = None
    for _ in range(reps):
        out, seconds, at_ref = gauge.timed(fn)
        times.append(seconds)
        scaled.append(at_ref)
    return float(np.median(scaled)), times, out


# ----------------------------------------------------------------------
# layer-by-layer composition of forward_batch, a request and a batch


def composed_forward(model, tokens, cfg: RunConfig, sp, *, training=False, rng=None):
    with sp("semantic.encode_tokens"):
        big_h, mask = encode_tokens(tokens, model.embedding, model.semantic, pad_id=model.pad_id,
                                    training=training, dropout_keep=cfg.dropout_keep, rng=rng)
    with sp("semantic.attend"):
        attn, penalty = attend(big_h, model.semantic, pad_mask=mask)
    with sp("semantic.semantic_vectors"):
        m = semantic_vectors(attn, big_h)
    with sp("detection.prediction_vectors"):
        p = prediction_vectors(m, model.detection)
    with sp("detection.dynamic_routing"):
        trace = dynamic_routing(p, cfg.routing_iterations)
    return p, trace, penalty


def composed_zero_shot(p, trace, q, cfg: RunConfig, sp):
    with sp("zeroshot.vote_vectors"):
        g = vote_vectors(trace, p)
    with sp("zeroshot.prediction_vectors"):
        u = zero_shot_prediction_vectors(q, g)
    with sp("zeroshot.classify_emerging"):
        return classify_emerging_batch(u, cfg.routing_iterations)


def request(model, tokens, cfg: RunConfig, q, sp=None):
    """One utterance (B=1): existing intent, emerging intent, and the
    activation norms of both."""
    with no_grad():
        if sp is None:
            fwd = forward_batch(model, [tokens], cfg)
            p, trace = fwd.P, fwd.trace
        else:
            p, trace, _ = composed_forward(model, [tokens], cfg, sp)
        norms = activation_norms(trace.v_final)
        existing = int(norms[0].argmax())
        if sp is None:
            winners, n = classify_emerging_batch(zero_shot_prediction_vectors(q, vote_vectors(trace, p)),
                                                 cfg.routing_iterations)
        else:
            winners, n = composed_zero_shot(p, trace, q, cfg, sp)
    return existing, int(winners[0]), norms[0], n[0]


def composed_predict(model, corpus, cfg: RunConfig, tracer: Tracer, root: str, q=None, rows=None):
    """`predict_existing` (q None) or `zsl_predict`'s winners, batch by batch."""
    preds = []
    samples = corpus.samples
    with no_grad():
        for b, start in enumerate(range(0, len(samples), EVAL_BATCH)):
            tokens = [ids for ids, _ in samples[start:start + EVAL_BATCH]]
            with tracer.span(root, op_id=f"{root}:{b}"):
                p, trace, _ = composed_forward(model, tokens, cfg, tracer.span)
                if q is None:
                    preds.extend(activation_norms(trace.v_final).argmax(axis=-1).tolist())
                else:
                    winners, _ = composed_zero_shot(p, trace, q, cfg, tracer.span)
                    preds.extend(winners.tolist())
            if rows is not None:
                rows.append(_rows_touched(tokens, model.pad_id))
    return np.asarray(preds, dtype=np.int64)


def inference_graph_nodes(model, token_batches, cfg: RunConfig) -> list[int]:
    """Ops one forward pass records when gradients are on, per batch."""
    counts = []
    for tokens in token_batches:
        fwd = forward_batch(model, tokens, cfg)
        counts.append(graph_nodes(fwd.trace.v_final))
    return counts


# ----------------------------------------------------------------------
# checks shared by the workloads


def _agrees(b1_pred: int, b1_norms, batch_pred: int) -> bool:
    """Equal predictions, or a tie too close for float32 to order."""
    if b1_pred == batch_pred:
        return True
    norms = np.asarray(b1_norms, dtype=np.float64)
    return abs(norms[b1_pred] - norms[batch_pred]) <= NEAR_TIE * max(1.0, float(norms.max()))


def batch_reference(model, corpora, intent_vectors, cfg: RunConfig):
    """The library's batched predictions, per corpus, keyed by sample index."""
    ref = []
    for corpus in corpora:
        existing = predict_existing(model, corpus, cfg)
        emerging, _, _ = zsl_predict(model, corpus, intent_vectors, cfg)
        ref.append((existing, emerging))
    return ref


def check_request(checks: Checks, out, ref_existing: int, ref_emerging: int, where: str):
    existing, emerging, norms, n = out
    checks(_agrees(existing, norms, ref_existing), f"{where}: B=1 existing intent {existing} != batched {ref_existing}")
    n_norms = np.linalg.norm(n, axis=-1)
    checks(_agrees(emerging, n_norms, ref_emerging), f"{where}: B=1 emerging intent {emerging} != batched {ref_emerging}")


def request_pool(corpora, seed: int):
    """(corpus index, sample index) pairs over every utterance, seeded order."""
    pool = [(c, i) for c, corpus in enumerate(corpora) for i in range(len(corpus.samples))]
    order = np.random.default_rng([seed, 7]).permutation(len(pool))
    return [pool[i] for i in order.tolist()]


def serve(model, corpora, pool, cfg, q, *, count=None, seconds=None, start=0, sp=None, gauge=None):
    """Closed loop of B=1 requests over `pool` from position `start`,
    cycling; latencies in ms. With a gauge, it is read every GAUGE_EVERY
    requests, between requests, and latencies come back at reference
    speed as well."""
    latencies = []
    starts = []
    outputs = []
    deadline = time.perf_counter() + (seconds or 0.0)
    i = 0
    while True:
        if count is not None and i >= count:
            break
        if count is None and i >= MIN_REQUESTS and time.perf_counter() >= deadline:
            break
        c, s = pool[(start + i) % len(pool)]
        tokens = corpora[c].samples[s][0]
        if gauge is not None and i % GAUGE_EVERY == 0:
            gauge()
        started = time.perf_counter()
        if sp is None:
            out = request(model, tokens, cfg, q)
        else:
            with sp("online.request", op_id=i):
                out = request(model, tokens, cfg, q, sp)
        latencies.append((time.perf_counter() - started) * 1e3)
        starts.append(started)
        outputs.append(out)
        i += 1
    latencies = np.asarray(latencies)
    if gauge is None:
        return latencies, outputs
    gauge()  # so the last requests have readings on both sides
    scales = np.asarray([gauge.scale(t, t) for t in starts])
    return latencies, outputs, latencies * scales


def check_served(checks: Checks, outputs, pool, ref, where: str):
    """Check request i of a `serve` run that started at pool position 0."""
    for i, out in enumerate(outputs):
        c, s = pool[i % len(pool)]
        check_request(checks, out, int(ref[c][0][s]), int(ref[c][1][s]), f"{where} request {i}")


# ----------------------------------------------------------------------
# workloads


class EpochClock(logging.Handler):
    """Timestamps `harness.train`'s per-epoch log records; with a gauge,
    reads it at each record and keeps that time out of the epochs."""

    def __init__(self, gauge: SpeedGauge | None):
        super().__init__(level=logging.INFO)
        self.gauge = gauge
        self.stamps: list[float] = []   # epoch ends
        self.resumed: list[float] = []  # training resumes after the readings

    def emit(self, record):
        if record.getMessage().startswith("epoch "):
            self.stamps.append(time.perf_counter())
            if self.gauge is not None:
                self.gauge(GAUGE_BURST)
            self.resumed.append(time.perf_counter())


def timed_train(cfg, train_c, table, val_c, gauge: SpeedGauge | None = None):
    """harness.train plus per-epoch utterances/s read off its epoch log;
    (model, history, wall seconds, rates, rates at reference speed)."""
    logger = logging.getLogger("capsnlu.harness")
    clock = EpochClock(gauge)
    logger.addHandler(clock)
    logger.setLevel(logging.INFO)
    if gauge is not None:
        gauge(GAUGE_BURST)
    started = time.perf_counter()
    try:
        model, history = train(cfg, train_c, table, val_corpus=val_c)
    finally:
        logger.removeHandler(clock)
    wall = time.perf_counter() - started
    n = len(train_c.samples)
    if len(clock.stamps) == cfg.epochs:
        epochs = list(zip([started] + clock.resumed, clock.stamps))
    else:  # epoch log format changed: fall back to the whole call
        epochs = [(started, started + wall / cfg.epochs)] * cfg.epochs
    rates = [n / (b - a) for a, b in epochs]
    scaled = [r / gauge.scale(a, b) for r, (a, b) in zip(rates, epochs)] if gauge is not None else rates
    return model, history, wall, rates, scaled


def check_training(checks: Checks, losses, test_acc, zsl_acc):
    checks(all(np.isfinite(losses)), f"non-finite epoch loss in {losses}")
    checks(losses[-1] < losses[0], f"loss did not fall: {losses[0]} -> {losses[-1]}")
    checks(test_acc >= TEST_ACCURACY_FLOOR, f"test accuracy {test_acc} below {TEST_ACCURACY_FLOOR}")
    checks(zsl_acc >= ZSL_ACCURACY_FLOOR, f"zero-shot accuracy {zsl_acc} below {ZSL_ACCURACY_FLOOR}")


def run_train_snips(cfg, args, checks, report):
    dispatch, batched = SpeedGauge(DISPATCH_GAUGE), SpeedGauge(BATCHED_GAUGE)
    setup_s, setup_times, (table, existing, emerging) = timed_setups(
        SETUP_REPS["train-snips"], lambda: setup_train(cfg, _spanner(None)), batched)
    train_c, val_c, test_c = stratified_split(existing, cfg.seed)
    model, history, wall, rates, scaled_rates = timed_train(cfg, train_c, table, val_c, batched)

    test_report = evaluate(model, test_c, cfg)
    zsl_report, _ = zsl_evaluate(model, emerging, table.intent_vectors, cfg)
    check_training(checks, history.epoch_losses, test_report.accuracy, zsl_report.accuracy)

    model_dir = Path(args.inputs) / "model"
    save_model(model, table, cfg, model_dir)
    bundle = load_model(model_dir)
    checks(np.array_equal(predict_existing(bundle.model, test_c, cfg), predict_existing(model, test_c, cfg)),
           "reloaded model predicts differently from the trained one")

    corpora = (test_c, emerging)
    q = similarity(bundle.intent_vectors, cfg)
    pool = request_pool(corpora, cfg.seed)
    latencies, outputs, scaled_lat = serve(bundle.model, corpora, pool, cfg, q, count=PROBE_REQUESTS, gauge=dispatch)
    check_served(checks, outputs, pool, batch_reference(bundle.model, corpora, bundle.intent_vectors, cfg), "probe")

    report += [
        f"train_utts_per_s   {np.median(rates):.1f} utt/s  (median of {len(rates)} epochs of {len(train_c)} utterances, B={cfg.batch_size})",
        f"epoch utts/s       {', '.join(f'{r:.1f}' for r in rates)}",
        f"  at ref speed     {', '.join(f'{r:.1f}' for r in scaled_rates)}",
        f"train_loss_final   {history.epoch_losses[-1]:.6f}  (first epoch {history.epoch_losses[0]:.6f})",
        f"test_accuracy      {test_report.accuracy:.4f}  ({len(test_c)} utterances, floor {TEST_ACCURACY_FLOOR})",
        f"zsl_accuracy       {zsl_report.accuracy:.4f}  ({len(emerging)} utterances, floor {ZSL_ACCURACY_FLOOR})",
        f"eval_utts_per_s    {len(test_c) / test_report.seconds:.1f} utt/s  (one test-split pass)",
        f"zsl_utts_per_s     {len(emerging) / zsl_report.seconds:.1f} utt/s  (one emerging pass)",
        f"online_ms_p50      {np.percentile(latencies, 50):.3f} ms  ({len(latencies)} B=1 requests after training)",
        f"online_ms_p99      {np.percentile(latencies, 99):.3f} ms",
        f"setup_s reps       {', '.join(f'{t:.3f}' for t in setup_times)}",
    ]
    report += [dispatch.report("dispatch"), batched.report("batched")]
    return gauged_metrics(report, setup_s, float(np.median(scaled_rates)), scaled_lat)


def gauged_metrics(report, setup_s, utts_per_s, scaled_latencies):
    """The gated metrics, every time at reference speed."""
    scaled_latencies = np.asarray(scaled_latencies)
    report += [
        f"at reference speed online_ms_p50 {np.percentile(scaled_latencies, 50):.3f} ms, "
        f"online_ms_p99 {np.percentile(scaled_latencies, 99):.3f} ms",
    ]
    return {"setup_s": setup_s, "utts_per_s": utts_per_s, "latency_ms_mean": float(scaled_latencies.mean())}


def prepare_inference(cfg, args, workload, gauge: SpeedGauge):
    model_dir = Path(args.inputs) / "model"
    prep_model(cfg, model_dir, _spanner(None))
    setup_s, setup_times, (bundle, existing, emerging, q) = timed_setups(
        SETUP_REPS[workload], lambda: setup_infer(cfg, model_dir, _spanner(None)), gauge)
    return setup_s, setup_times, bundle, (existing, emerging), q


def run_infer_batch(cfg, args, checks, report):
    dispatch, batched = SpeedGauge(DISPATCH_GAUGE), SpeedGauge(BATCHED_GAUGE)
    setup_s, setup_times, bundle, (existing, emerging), q = prepare_inference(cfg, args, "infer-batch", batched)
    model, run_cfg = bundle.model, bundle.config
    corpora = (existing, emerging)
    pool = request_pool(corpora, cfg.seed)
    eval_s, zsl_s, first = [], [], None
    scaled_s = []  # evaluate + zsl_evaluate seconds of each pass at reference speed
    latencies, outputs, scaled_lat = [], [], []
    deadline = time.perf_counter() + args.seconds
    while len(eval_s) < 3 or len(outputs) < MIN_REQUESTS or time.perf_counter() < deadline:
        r, seconds, at_ref = batched.timed(lambda: evaluate(model, existing, run_cfg))
        eval_s.append(seconds)
        (z, _), seconds, zsl_at_ref = batched.timed(lambda: zsl_evaluate(model, emerging, bundle.intent_vectors, run_cfg))
        zsl_s.append(seconds)
        scaled_s.append(at_ref + zsl_at_ref)
        first = first or (r.accuracy, z.accuracy)
        checks((r.accuracy, z.accuracy) == first, f"pass {len(eval_s)}: accuracies {r.accuracy}, {z.accuracy} != {first}")
        lat, out, scaled = serve(model, corpora, pool, run_cfg, q, count=PROBE_CHUNK, start=len(outputs), gauge=dispatch)
        latencies.extend(lat)
        outputs.extend(out)
        scaled_lat.extend(scaled)

    latencies = np.asarray(latencies)
    check_served(checks, outputs, pool, batch_reference(model, corpora, bundle.intent_vectors, run_cfg), "probe")

    n_ex, n_em = len(existing), len(emerging)
    eval_s, zsl_s = np.asarray(eval_s), np.asarray(zsl_s)
    report += [
        f"eval_utts_per_s    {np.median(n_ex / eval_s):.1f} utt/s  (median of {len(eval_s)} evaluate passes over {n_ex} utterances)",
        f"zsl_utts_per_s     {np.median(n_em / zsl_s):.1f} utt/s  (median of {len(zsl_s)} zsl_evaluate passes over {n_em} utterances)",
        f"online_ms_p50      {np.percentile(latencies, 50):.3f} ms  ({len(latencies)} B=1 requests, {PROBE_CHUNK} after each pass)",
        f"online_ms_p99      {np.percentile(latencies, 99):.3f} ms",
        f"utts_per_s         {np.median((n_ex + n_em) / (eval_s + zsl_s)):.1f} utt/s  (median over passes, wall clock)",
        f"setup_s reps       {', '.join(f'{t:.3f}' for t in setup_times)}",
    ]
    utts = float(np.median((n_ex + n_em) / np.asarray(scaled_s)))
    report += [dispatch.report("dispatch"), batched.report("batched")]
    return gauged_metrics(report, setup_s, utts, scaled_lat)


def run_infer_online(cfg, args, checks, report):
    dispatch, batched = SpeedGauge(DISPATCH_GAUGE), SpeedGauge(BATCHED_GAUGE)
    setup_s, setup_times, bundle, corpora, q = prepare_inference(cfg, args, "infer-online", batched)
    pool = request_pool(corpora, cfg.seed)
    latencies, outputs, scaled_lat = serve(bundle.model, corpora, pool, bundle.config, q, seconds=args.seconds, gauge=dispatch)
    check_served(checks, outputs, pool, batch_reference(bundle.model, corpora, bundle.intent_vectors, bundle.config), "online")
    report += [
        f"online_ms_p50      {np.percentile(latencies, 50):.3f} ms  ({len(latencies)} requests, one closed-loop caller)",
        f"online_ms_p99      {np.percentile(latencies, 99):.3f} ms",
        f"utts_per_s         {len(latencies) / (latencies.sum() / 1e3):.1f} utt/s  (wall clock)",
        f"setup_s reps       {', '.join(f'{t:.3f}' for t in setup_times)}",
    ]
    report += [dispatch.report("dispatch"), batched.report("batched")]
    return gauged_metrics(report, setup_s, len(scaled_lat) / (scaled_lat.sum() / 1e3), scaled_lat)


# ----------------------------------------------------------------------
# traced runs


def composed_train(cfg, corpus, table, val_corpus, tracer: Tracer, counts: dict):
    """harness.train, one layer call at a time, with the same RNG use."""
    rng = np.random.default_rng(cfg.seed)
    model = init_model(table, cfg, rng=rng)
    optimizer = Adam(model.trainable(), lr=cfg.learning_rate)
    n = len(corpus.samples)
    best_acc = -1.0
    best_values = model.snapshot()
    losses, accs = [], []
    step = 0
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, cfg.batch_size):
            picked = np.sort(order[start:start + cfg.batch_size])
            batch = [corpus.samples[i] for i in picked]
            tokens = [ids for ids, _ in batch]
            with tracer.span("train.step", op_id=step):
                _, trace, penalty = composed_forward(model, tokens, cfg, tracer.span, training=True, rng=rng)
                with tracer.span("detection.margin_loss"):
                    loss = train_loss(trace, penalty, [lab for _, lab in batch], cfg)
                value = loss.item()
                optimizer.zero_grad()
                with tracer.span("autodiff.backward"):
                    loss.backward()
                model.embedding.grad[model.pad_id] = 0.0
                with tracer.span("harness.adam_step"):
                    optimizer.step()
            counts["graph_nodes"].append(graph_nodes(loss))
            counts["rows_touched"].append(_rows_touched(tokens, model.pad_id))
            loss_sum += value * len(batch)
            step += 1
        losses.append(loss_sum / n)
        preds = composed_predict(model, val_corpus, cfg, tracer, "val.batch")
        truth = np.asarray([lab for _, lab in val_corpus.samples], dtype=np.int64)
        acc = compute_metrics(truth, preds, len(val_corpus.label_names)).accuracy
        accs.append(acc)
        model.snapshot()  # harness.train keeps a last-good copy every epoch
        if acc >= best_acc:
            best_acc = acc
            best_values = model.snapshot()
    model.restore(best_values)
    return model, losses, accs


def train_loss(trace, penalty, labels, cfg: RunConfig):
    """The margin loss exactly as `harness.batch_loss` builds it."""
    return margin_loss_batch(trace.v_final, labels, penalty, downweight=cfg.downweight,
                             margin_pos=cfg.margin_pos, margin_neg=cfg.margin_neg,
                             penalty_weight=cfg.penalty_weight)


def replay_step_nodes(cfg, corpus, model) -> int:
    """Ops of one training step rebuilt from scratch on the first batch;
    dropout draws do not change the count, so any rng will do."""
    batch = corpus.samples[:cfg.batch_size]
    fwd = forward_batch(model, [ids for ids, _ in batch], cfg, training=True, rng=np.random.default_rng(0))
    return graph_nodes(train_loss(fwd.trace, fwd.penalty, [lab for _, lab in batch], cfg))


def traced_setup_counts(kept: list[int], vector_lines: int, checks: Checks, counts: dict):
    """Words kept from the vectors file (the OOV id is the kept count) must
    repeat exactly across setups."""
    checks(len(set(kept)) == 1, f"vector lines kept differ across setups: {kept}")
    counts["vector_lines"] = vector_lines
    counts["vector_lines_kept"] = kept[0]


def trace_train_snips(cfg, args, checks, report, tracer, counts, inputs_meta):
    sp = tracer.span
    kept = []
    for _ in range(SETUP_REPS["train-snips"]):
        table, existing, emerging = setup_train(cfg, sp)
        kept.append(table.oov_id)
    traced_setup_counts(kept, inputs_meta["vector_lines"], checks, counts)
    train_c, val_c, test_c = stratified_split(existing, cfg.seed)

    ref_model, history, ref_wall, _, _ = timed_train(cfg, train_c, table, val_c)
    counts["graph_nodes"], counts["rows_touched"] = [], []
    cpu0, started = _cpu_seconds(), time.perf_counter()
    model, losses, accs = composed_train(cfg, train_c, table, val_c, tracer, counts)
    wall = time.perf_counter() - started
    counts["cpu_per_wall"] = (_cpu_seconds() - cpu0) / wall
    counts["trace_overhead_ratio"] = wall / ref_wall
    counts["vocab"] = len(table.vocab)
    checks(losses == history.epoch_losses, f"composed epoch losses {losses} != harness.train {history.epoch_losses}")
    checks(accs == history.val_accuracies, f"composed val accuracies {accs} != harness.train {history.val_accuracies}")
    replayed = replay_step_nodes(cfg, train_c, model)
    first = counts["graph_nodes"][0]
    checks(replayed == first, f"graph nodes of the first step: replay {replayed} != traced {first}")

    q = similarity(table.intent_vectors, cfg)
    preds = composed_predict(model, test_c, cfg, tracer, "eval.batch")
    checks(np.array_equal(preds, predict_existing(ref_model, test_c, cfg)), "composed test predictions differ")
    zpreds = composed_predict(model, emerging, cfg, tracer, "zsl.batch", q=q)
    checks(np.array_equal(zpreds, zsl_predict(ref_model, emerging, table.intent_vectors, cfg)[0]),
           "composed zero-shot predictions differ")
    model_dir = Path(args.inputs) / "model"
    save_model(model, table, cfg, model_dir)
    with sp("load"):
        with sp("model.load_model"):
            load_model(model_dir)
    report.append(f"graph nodes per step: replay of step 0 gives {replayed}, traced step 0 {first}")


def alternate(untraced, traced, counts: dict):
    """Run the same work untraced and traced in turn, TRACED_PASSES times.
    Records the median traced/untraced wall ratio and the traced CPU/wall;
    returns the (untraced, traced) outputs of every pass."""
    pairs, ratios, cpu, wall = [], [], 0.0, 0.0
    for _ in range(TRACED_PASSES):
        started = time.perf_counter()
        ref = untraced()
        ref_wall = time.perf_counter() - started
        cpu0, started = _cpu_seconds(), time.perf_counter()
        out = traced()
        elapsed = time.perf_counter() - started
        cpu += _cpu_seconds() - cpu0
        wall += elapsed
        ratios.append(elapsed / ref_wall)
        pairs.append((ref, out))
    counts["trace_overhead_ratio"] = float(np.median(ratios))
    counts["cpu_per_wall"] = cpu / wall
    return pairs


def trace_inference(cfg, args, checks, report, tracer, counts, inputs_meta, workload):
    sp = tracer.span
    model_dir = Path(args.inputs) / "model"
    table = prep_model(cfg, model_dir, sp)
    traced_setup_counts([table.oov_id], inputs_meta["vector_lines"], checks, counts)
    for _ in range(SETUP_REPS[workload]):
        bundle, existing, emerging, q = setup_infer(cfg, model_dir, sp)
    model, run_cfg = bundle.model, bundle.config
    corpora = (existing, emerging)
    counts["vocab"] = len(bundle.table.vocab)
    counts["rows_touched"] = []

    if workload == "infer-batch":
        def untraced():
            return (predict_existing(model, existing, run_cfg),
                    zsl_predict(model, emerging, bundle.intent_vectors, run_cfg)[0])

        def traced():
            return (composed_predict(model, existing, run_cfg, tracer, "eval.batch", rows=counts["rows_touched"]),
                    composed_predict(model, emerging, run_cfg, tracer, "zsl.batch", q=q))

        for ref, out in alternate(untraced, traced, counts):
            checks(np.array_equal(out[0], ref[0]), "composed eval predictions differ from predict_existing")
            checks(np.array_equal(out[1], ref[1]), "composed zero-shot predictions differ from zsl_predict")
        batches = [[ids for ids, _ in existing.samples[i:i + EVAL_BATCH]] for i in range(0, len(existing), EVAL_BATCH)]
    else:
        pool = request_pool(corpora, cfg.seed)
        reference = batch_reference(model, corpora, bundle.intent_vectors, run_cfg)
        pairs = alternate(lambda: serve(model, corpora, pool, run_cfg, q, count=MIN_REQUESTS)[1],
                          lambda: serve(model, corpora, pool, run_cfg, q, count=MIN_REQUESTS, sp=sp)[1], counts)
        for ref, out in pairs:
            same = all(a[:2] == b[:2] and np.array_equal(a[2], b[2]) and np.array_equal(a[3], b[3])
                       for a, b in zip(out, ref))
            checks(same, "composed requests differ from forward_batch requests")
            check_served(checks, out, pool, reference, "traced")
        batches = [[corpora[c].samples[s][0]] for c, s in pool[:MIN_REQUESTS]]
        counts["rows_touched"] = [_rows_touched(tokens, model.pad_id) for tokens in batches]
    counts["graph_nodes"] = inference_graph_nodes(model, batches[:64], run_cfg)


def per_layer_metrics(workload, tracer: Tracer, counts: dict, report):
    roots = MAIN_ROOTS[workload]
    metrics = {}
    layer_stats = {}
    for name in LAYER_SPANS:
        layer_stats[name] = summary(np.asarray(tracer.durations(name, roots)) * 1e3)
    for name in ("data.load_embeddings", "data.load_snips", "model.load_model"):
        layer_stats[name] = summary(tracer.durations(name, roots))

    emb = layer_stats["data.load_embeddings"]
    lines, kept = counts["vector_lines"], counts["vector_lines_kept"]
    metrics["data.load_embeddings_s"] = (emb["median"], "s")
    metrics["data.vector_lines_per_s"] = (lines / emb["median"], "1/s")
    metrics["data.vector_lines_kept_ratio"] = (kept / lines, "ratio")
    metrics["data.load_snips_s"] = (layer_stats["data.load_snips"]["median"], "s")
    metrics["model.load_model_s"] = (layer_stats["model.load_model"]["median"], "s")
    for name in LAYER_SPANS:
        if name not in TRAIN_ONLY_SPANS:
            metrics[f"{name}_ms"] = (layer_stats[name]["median"], "ms")
    nodes = summary(counts["graph_nodes"])
    rows = summary(np.asarray(counts["rows_touched"]) / counts["vocab"])
    metrics["autodiff.graph_nodes"] = (nodes["median"], "count")
    metrics["harness.embedding_rows_touched_ratio"] = (rows["median"], "ratio")
    metrics["process.cpu_per_wall"] = (counts["cpu_per_wall"], "ratio")
    metrics["bench.trace_overhead_ratio"] = (counts["trace_overhead_ratio"], "ratio")

    for name, st in layer_stats.items():
        unit = "s" if name.startswith(("data.", "model.")) else "ms"
        report.append(f"{name:<30} median {st['median']:.4f} {unit}  p90 {st['p90']:.4f} {unit}  n={st['n']}")
    report += [
        f"data.vector_lines              {kept} kept of {lines} lines",
        f"autodiff.graph_nodes           median {nodes['median']:.0f}  p90 {nodes['p90']:.0f}  n={nodes['n']}",
        f"harness.embedding_rows_touched median {rows['median'] * counts['vocab']:.0f} of {counts['vocab']} rows  n={rows['n']}",
        f"process.cpu_per_wall           {counts['cpu_per_wall']:.3f}",
        f"bench.trace_overhead_ratio     {counts['trace_overhead_ratio']:.4f} (traced wall / untraced wall of the same work)",
    ]
    report.append("margin loss, backward and Adam run on train-snips only, so only this printout and "
                  "the trace file carry them, not the result line")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SETUP_REPS))
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)

    inputs_meta = json.loads((Path(args.inputs) / "inputs.json").read_text(encoding="utf-8"))
    cfg = RunConfig(
        seed=args.seed,
        epochs=max(2, round(args.seconds * EPOCHS_PER_SECOND)),
        dataset_path=inputs_meta["data_dir"],
        embeddings_path=inputs_meta["vectors_path"],
    ).validate()
    checks = Checks()
    report: list[str] = []
    if args.trace:
        tracer = Tracer()
        counts: dict = {}
        if args.workload == "train-snips":
            trace_train_snips(cfg, args, checks, report, tracer, counts, inputs_meta)
        else:
            trace_inference(cfg, args, checks, report, tracer, counts, inputs_meta, args.workload)
        metrics = per_layer_metrics(args.workload, tracer, counts, report)
        if args.trace_out:
            tracer.dump(args.trace_out, {"workload": args.workload, "seed": args.seed, "counts": counts})
    else:
        run = {"train-snips": run_train_snips, "infer-batch": run_infer_batch, "infer-online": run_infer_online}
        values = run[args.workload](cfg, args, checks, report)
        units = {"setup_s": "s", "utts_per_s": "utt/s", "latency_ms_mean": "ms"}
        metrics = {k: (v, units[k]) for k, v in values.items()}
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")

    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
        "report": report,
        "failures": checks.failures,
    }
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
