"""Command-line interface.

Subcommands: train, eval, zsl-eval, export-attention,
export-activations, gradcheck. Configuration comes from a key=value
file (--config) with individual keys overridable via --set KEY=VALUE.
"""

from __future__ import annotations

import argparse
import logging
import sys
import time
from pathlib import Path

from .autodiff import ContractError, NumericError
from .config import RunConfig, apply_overrides, config_hash, load_config
from .data import (
    EmptySourceError,
    LabelMappingError,
    ParseError,
    load_dataset,
    load_inputs,
    require_file,
)
from .harness import (
    evaluate,
    export_activations_emerging,
    export_activations_existing,
    export_attention,
    full_loss_gradcheck,
    stratified_split,
    train,
    write_summary,
    zsl_evaluate,
)
from .metrics import format_report
from .model import load_model, save_model

log = logging.getLogger(__name__)

_ERRORS = (
    ContractError,
    NumericError,
    ParseError,
    EmptySourceError,
    LabelMappingError,
    FileNotFoundError,
    NotADirectoryError,
)


def _non_negative_int(text: str) -> int:
    """argparse type of a count: a whole number >= 0."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a whole number >= 0, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="capsnlu", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override one config key")
        p.add_argument("--verbose", action="store_true")

    p_train = sub.add_parser("train", help="train on the existing intents")
    common(p_train)

    for name, help_text in (
        ("eval", "evaluate a trained model on held-out existing intents"),
        ("zsl-eval", "zero-shot evaluation on the emerging intents"),
        ("export-attention", "dump per-token attention scores"),
        ("export-activations", "dump activation vectors"),
    ):
        p = sub.add_parser(name, help=help_text)
        common(p)
        p.add_argument("--model", help="model directory (default <output-dir>/model)")
        if name == "eval":
            p.add_argument("--split", choices=("train", "validation", "test"), default="test")
        if name.startswith("export"):
            p.add_argument("--out", help="output TSV path")
            p.add_argument("--domain", choices=("existing", "emerging"), default="existing")
            p.add_argument("--split", choices=("train", "validation", "test", "all"), default="test")
            p.add_argument("--limit", type=_non_negative_int, default=0,
                           help="keep only the first N utterances (0: all)")

    p_grad = sub.add_parser("gradcheck", help="finite-difference check of the full loss")
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.add_argument("--epsilon", type=float, default=1e-4)
    p_grad.add_argument("--verbose", action="store_true")

    return parser


def _overrides(args) -> dict:
    """Config keys set on the command line by --set."""
    direct = {}
    for item in args.set:
        if "=" not in item:
            raise ContractError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        direct[key.strip()] = value
    return direct


def _resolve_config(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    apply_overrides(cfg, _overrides(args))
    return cfg.validate()


_PATH_KEYS = ("dataset_path", "embeddings_path", "output_dir")


def _model_setup(args):
    """Saved model, its config, both corpora and the output directory.

    Paths given on the command line or in the config file replace the
    model's; any other key given on the command line must equal the
    model's saved value, since the model was built with it.
    """
    cfg = _resolve_config(args)
    model_dir = args.model or (cfg.resolved_output_dir() / "model")
    if not Path(model_dir).exists():
        raise FileNotFoundError(f"model directory not found: {model_dir}")
    bundle = load_model(model_dir)
    run_cfg = bundle.config
    for key in _PATH_KEYS:
        setattr(run_cfg, key, getattr(cfg, key) or getattr(run_cfg, key))
    for key in _overrides(args):
        given, saved = getattr(cfg, key), getattr(run_cfg, key)
        if key not in _PATH_KEYS and given != saved:
            raise ContractError(f"{key}={given!r} differs from the model's {key}={saved!r}")
    data_path = require_file(run_cfg.dataset_path, "dataset path")
    labels = list(run_cfg.existing_labels), list(run_cfg.emerging_labels)
    corpora = load_dataset(data_path, *labels, bundle.table)
    out_dir = run_cfg.resolved_output_dir()
    out_dir.mkdir(parents=True, exist_ok=True)
    return bundle, run_cfg, corpora, out_dir


def _cmd_train(args) -> int:
    cfg = _resolve_config(args)
    started = time.perf_counter()
    table, corpus_existing, _ = load_inputs(cfg)
    train_c, val_c, test_c = stratified_split(corpus_existing, cfg.seed)
    model, history = train(cfg, train_c, table, val_corpus=val_c)
    out_dir = cfg.resolved_output_dir()
    out_dir.mkdir(parents=True, exist_ok=True)
    save_model(model, table, cfg, out_dir / "model")

    curve = ["epoch\tloss\tval_accuracy"]
    for i, (loss, acc) in enumerate(zip(history.epoch_losses, history.val_accuracies)):
        curve.append(f"{i}\t{loss:.6f}\t{acc:.6f}")
    (out_dir / "loss_curve.tsv").write_text("\n".join(curve) + "\n", encoding="utf-8")

    report = evaluate(model, test_c, cfg) if test_c.samples else evaluate(model, train_c, cfg)
    (out_dir / "train_report.txt").write_text(
        format_report(report, list(cfg.existing_labels)), encoding="utf-8"
    )
    write_summary(out_dir, "train", config_hash(cfg), report.row(), time.perf_counter() - started)
    print(f"trained {cfg.epochs} epochs; best epoch {history.best_epoch}; "
          f"test accuracy {report.accuracy:.4f}; model saved to {out_dir / 'model'}")
    return 0


def _cmd_eval(args) -> int:
    bundle, run_cfg, (corpus_existing, _), out_dir = _model_setup(args)
    corpus = next(c for c in stratified_split(corpus_existing, run_cfg.seed) if c.split_tag == args.split)
    started = time.perf_counter()
    report = evaluate(bundle.model, corpus, run_cfg)
    (out_dir / f"eval_{args.split}_report.txt").write_text(
        format_report(report, list(run_cfg.existing_labels)), encoding="utf-8"
    )
    write_summary(out_dir, "eval", config_hash(run_cfg), report.row(), time.perf_counter() - started)
    print(f"{args.split} accuracy {report.accuracy:.4f} precision {report.precision:.4f} "
          f"recall {report.recall:.4f} f1 {report.f1:.4f}")
    return 0


def _cmd_zsl_eval(args) -> int:
    bundle, run_cfg, (_, corpus_emerging), out_dir = _model_setup(args)
    started = time.perf_counter()
    report, per_intent = zsl_evaluate(bundle.model, corpus_emerging, bundle.intent_vectors, run_cfg)
    (out_dir / "zsl_report.txt").write_text(
        format_report(report, list(run_cfg.emerging_labels)), encoding="utf-8"
    )
    pairs = ["intent\taccuracy\tsimilarity_variance"]
    pairs += [f"{name}\t{acc:.6f}\t{var:.8f}" for name, acc, var in per_intent]
    (out_dir / "zsl_intent_variance.tsv").write_text("\n".join(pairs) + "\n", encoding="utf-8")
    write_summary(out_dir, "zsl-eval", config_hash(run_cfg), report.row(), time.perf_counter() - started)
    print(f"zero-shot accuracy {report.accuracy:.4f} precision {report.precision:.4f} "
          f"recall {report.recall:.4f} f1 {report.f1:.4f}")
    return 0


def _select_corpus(args, run_cfg, corpus_existing, corpus_emerging):
    if args.domain == "emerging":
        corpus = corpus_emerging
    else:
        corpus = corpus_existing
        if args.split != "all":
            corpus = next(c for c in stratified_split(corpus, run_cfg.seed) if c.split_tag == args.split)
    if args.limit:
        corpus = corpus.subset(list(range(min(args.limit, len(corpus.samples)))), corpus.split_tag)
    return corpus


def _cmd_export_attention(args) -> int:
    bundle, run_cfg, corpora, out_dir = _model_setup(args)
    corpus = _select_corpus(args, run_cfg, *corpora)
    words = [None] * len(bundle.table.vocab)
    for w, i in bundle.table.vocab.items():
        words[i] = w
    out = Path(args.out) if args.out else out_dir / f"attention_{args.domain}.tsv"
    export_attention(bundle.model, corpus, run_cfg, words, out)
    print(f"wrote {out}")
    return 0


def _cmd_export_activations(args) -> int:
    bundle, run_cfg, corpora, out_dir = _model_setup(args)
    corpus = _select_corpus(args, run_cfg, *corpora)
    out = Path(args.out) if args.out else out_dir / f"activations_{args.domain}.tsv"
    if args.domain == "emerging":
        export_activations_emerging(bundle.model, corpus, bundle.intent_vectors, run_cfg, out)
    else:
        export_activations_existing(bundle.model, corpus, run_cfg, out)
    print(f"wrote {out}")
    return 0


def _cmd_gradcheck(args) -> int:
    err, seed_used = full_loss_gradcheck(seed=args.seed, epsilon=args.epsilon)
    ok = err < 1e-4
    print(f"max relative gradient error {err:.3e} (seed {seed_used}): {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


_COMMANDS = {
    "train": _cmd_train,
    "eval": _cmd_eval,
    "zsl-eval": _cmd_zsl_eval,
    "export-attention": _cmd_export_attention,
    "export-activations": _cmd_export_activations,
    "gradcheck": _cmd_gradcheck,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if getattr(args, "verbose", False) else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return _COMMANDS[args.command](args)
    except _ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
