"""Whole-model parameter bundle, forward pass, and persistence."""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .autodiff import ContractError, Tensor
from .config import RunConfig
from .data import EmbeddingTable
from .detection import (
    DetectionCapsParams,
    RoutingTrace,
    dynamic_routing,
    init_detection_params,
    prediction_vectors,
)
from .semantic import (
    SemanticCapsParams,
    attend,
    encode_tokens,
    init_semantic_params,
    semantic_vectors,
)


@dataclass
class ModelParams:
    """Every trainable weight: embedding matrix, both LSTM directions,
    attention matrices, and the per-(intent, head) transforms."""

    embedding: Tensor  # |V| x D_W, PAD row frozen at zero
    semantic: SemanticCapsParams
    detection: DetectionCapsParams
    pad_id: int

    def trainable(self) -> list[tuple[str, Tensor]]:
        return [("embedding", self.embedding)] + self.semantic.trainable() + self.detection.trainable()

    def snapshot(self) -> dict[str, np.ndarray]:
        return {name: t.values.copy() for name, t in self.trainable()}

    def restore(self, values: dict[str, np.ndarray]) -> None:
        """Copy `values` into the parameters. Every parameter must be
        writable and present with its exact shape and dtype, else
        ContractError names it and nothing is copied."""
        pairs = self.trainable()
        for name, t in pairs:
            if not t.values.flags.writeable:
                raise ContractError(f"parameter {name!r} is read-only (a loaded model is frozen)")
            if name not in values:
                raise ContractError(f"parameter {name!r} is missing")
            got = np.asarray(values[name])
            if got.shape != t.shape:
                raise ContractError(f"parameter {name!r} has shape {got.shape}, expected {t.shape}")
            if got.dtype != t.dtype:
                raise ContractError(f"parameter {name!r} has dtype {got.dtype}, expected {t.dtype}")
        for name, t in pairs:
            t.values[...] = values[name]


@dataclass
class ForwardPass:
    """Products of one batched forward run."""

    A: Tensor              # B x R x T
    penalty: Tensor        # B orthogonality penalties
    P: Tensor              # B x K x R x D_P
    trace: RoutingTrace


def init_model(table: EmbeddingTable, cfg: RunConfig, rng=None, dtype=np.float32) -> ModelParams:
    if table.dim != cfg.word_dim:
        raise ContractError(f"embedding dim {table.dim} does not match word_dim {cfg.word_dim}")
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    emb = table.vectors.astype(dtype).copy()
    emb[table.pad_id] = 0.0
    return ModelParams(
        embedding=Tensor(emb, requires_grad=True),
        semantic=init_semantic_params(rng, cfg.word_dim, cfg.hidden_dim, cfg.attn_dim, cfg.heads, dtype),
        detection=init_detection_params(
            rng, len(cfg.existing_labels), cfg.heads, 2 * cfg.hidden_dim, cfg.caps_dim, dtype
        ),
        pad_id=table.pad_id,
    )


def forward_batch(
    model: ModelParams,
    token_batch,
    cfg: RunConfig,
    *,
    training: bool = False,
    rng=None,
) -> ForwardPass:
    big_h, mask = encode_tokens(
        token_batch,
        model.embedding,
        model.semantic,
        pad_id=model.pad_id,
        training=training,
        dropout_keep=cfg.dropout_keep,
        rng=rng,
    )
    attn, penalty = attend(big_h, model.semantic, pad_mask=mask)
    m = semantic_vectors(attn, big_h)
    p = prediction_vectors(m, model.detection)
    trace = dynamic_routing(p, cfg.routing_iterations)
    return ForwardPass(A=attn, penalty=penalty, P=p, trace=trace)


# ----------------------------------------------------------------------
# persistence


@dataclass
class ModelBundle:
    """A reloaded model plus everything needed to run it on new text."""

    model: ModelParams
    table: EmbeddingTable  # vocab + the tuned embedding matrix
    intent_vectors: np.ndarray  # (K+L) x D_W from the pretrained vectors
    config: RunConfig


def save_model(model: ModelParams, table: EmbeddingTable, cfg: RunConfig, out_dir) -> Path:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if table.intent_vectors is None:
        raise ContractError("table has no intent vectors; build them before saving")
    arrays = {name.replace(".", "__"): t.values for name, t in model.trainable()}
    arrays["intent_vectors"] = table.intent_vectors
    np.savez(out_dir / "params.npz", **arrays)
    words = [None] * len(table.vocab)
    for w, i in table.vocab.items():
        words[i] = w
    meta = {
        "vocab": words,
        "oov_id": table.oov_id,
        "pad_id": table.pad_id,
        "config": cfg.as_dict(),
    }
    (out_dir / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
    return out_dir


def _read_meta(path: Path) -> dict:
    """meta.json with every entry and every RunConfig key present, else
    ContractError naming the file and the key."""
    try:
        meta = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ContractError(f"{path} is not valid JSON ({exc})") from exc
    for key in ("vocab", "oov_id", "pad_id", "config"):
        if not isinstance(meta, dict) or key not in meta:
            raise ContractError(f"{path} has no {key!r} entry")
    cfg_keys = set(meta["config"]) if isinstance(meta["config"], dict) else set()
    known = {f.name for f in fields(RunConfig)}
    for problem, keys in (("unknown", cfg_keys - known), ("missing", known - cfg_keys)):
        if keys:
            raise ContractError(f"{path}: {problem} config key {min(keys)!r}")
    return meta


def _check_special_ids(path: Path, meta: dict, embedding: np.ndarray) -> None:
    """oov_id and pad_id must be distinct rows of the embedding, and the
    PAD row all zero, as init_model makes it and training keeps it; else
    ContractError naming the file and the key."""
    rows = embedding.shape[0]
    for key in ("oov_id", "pad_id"):
        value = meta[key]
        if isinstance(value, bool) or not isinstance(value, int) or not 0 <= value < rows:
            raise ContractError(f"{path}: {key!r} is {value!r}, not a row of the {rows}-row embedding")
    if meta["oov_id"] == meta["pad_id"]:
        raise ContractError(f"{path}: 'oov_id' and 'pad_id' are both {meta['pad_id']}")
    if embedding[meta["pad_id"]].any():
        raise ContractError(f"{path}: 'pad_id' is {meta['pad_id']}, a nonzero row; the PAD row is all zero")


def load_model(model_dir) -> ModelBundle:
    """The model `save_model` wrote to `model_dir`, for inference. Every
    parameter array is read-only, so the encoder gathers each token's
    input projections from a table built once (see `encode_tokens`);
    `snapshot()` gives writable copies."""
    model_dir = Path(model_dir)
    meta = _read_meta(model_dir / "meta.json")
    with np.load(model_dir / "params.npz") as npz:
        arrays = {key.replace("__", "."): npz[key] for key in npz.files}
    for key in ("embedding", "intent_vectors"):
        if key not in arrays:
            raise ContractError(f"{model_dir / 'params.npz'} has no {key!r} array")
    _check_special_ids(model_dir / "meta.json", meta, arrays["embedding"])
    cfg = RunConfig(**{
        k: tuple(v) if isinstance(v, list) else v for k, v in meta["config"].items()
    })
    try:
        cfg.validate()
    except ContractError as exc:
        raise ContractError(f"{model_dir / 'meta.json'}: config {exc}") from exc
    table = EmbeddingTable(
        vocab={w: i for i, w in enumerate(meta["vocab"])},
        vectors=arrays["embedding"],
        oov_id=meta["oov_id"],
        pad_id=meta["pad_id"],
        intent_vectors=arrays["intent_vectors"],
    )
    rng = np.random.default_rng(cfg.seed)
    model = init_model(table, cfg, rng=rng, dtype=arrays["embedding"].dtype)
    model.restore(arrays)
    for _, t in model.trainable():
        t.values.flags.writeable = False
    return ModelBundle(model=model, table=table, intent_vectors=arrays["intent_vectors"], config=cfg)
