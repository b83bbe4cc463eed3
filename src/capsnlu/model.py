"""Whole-model parameter schema and weight init, forward pass, and persistence."""

from __future__ import annotations

import itertools
import json
import zipfile
from collections import Counter
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .autodiff import ContractError, Tensor
from .config import RunConfig
from .data import EmbeddingTable
from .detection import DetectionCapsParams, RoutingTrace, dynamic_routing, prediction_vectors
from .semantic import (
    LstmParams,
    SemanticCapsParams,
    attention_matrix,
    encode_tokens,
    orthogonality_penalty,
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
    """Products of one batched forward run.

    `penalty` holds the B orthogonality penalties of A, computed from A
    on its first read and kept; evaluation never reads it. The training
    loss reads it under the forward's grad mode, so a recorded forward
    gets the penalty node with parent A."""

    A: Tensor              # B x R x T
    P: Tensor              # B x K x R x D_P
    trace: RoutingTrace
    _penalty: Tensor | None = field(default=None, init=False, repr=False)

    @property
    def penalty(self) -> Tensor:
        if self._penalty is None:
            self._penalty = orthogonality_penalty(self.A)
        return self._penalty


def _param_shapes(cfg: RunConfig, vocab_size: int) -> dict[str, tuple[int, ...]]:
    """Every parameter's shape, by its `trainable()` name and in that
    order: the one schema `init_model` builds and `load_model` reads."""
    d_w, d_h, d_a, heads = cfg.word_dim, cfg.hidden_dim, cfg.attn_dim, cfg.heads
    shapes = {"embedding": (vocab_size, d_w)}
    for direction in ("lstm_fw", "lstm_bw"):
        shapes[f"{direction}.w_x"] = (d_w, 4 * d_h)
        shapes[f"{direction}.w_h"] = (d_h, 4 * d_h)
        shapes[f"{direction}.b"] = (1, 4 * d_h)
    shapes["w_s1"] = (d_a, 2 * d_h)
    shapes["w_s2"] = (heads, d_a)
    shapes["detect.w"] = (len(cfg.existing_labels), heads, 2 * d_h, cfg.caps_dim)
    return shapes


def _glorot(rng, shape, fan_in: int, fan_out: int, dtype) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


def _init_weight(rng, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
    """A fresh value for weight `name`: Glorot-uniform, but an LSTM bias
    is zero with the forget gate's block at one (open at the start), and
    an LSTM weight is one fan_in x D_H Glorot block per gate, side by
    side. The attention matrices are out x in, the detection transforms
    ... x in x out."""
    if name.startswith("lstm"):
        d_h = shape[1] // 4
        if name.endswith(".b"):
            b = np.zeros(shape, dtype=dtype)
            b[0, d_h : 2 * d_h] = 1.0
            return b
        return np.hstack([_glorot(rng, (shape[0], d_h), shape[0], d_h, dtype) for _ in range(4)])
    if name == "detect.w":
        return _glorot(rng, shape, shape[2], shape[3], dtype)
    return _glorot(rng, shape, shape[1], shape[0], dtype)


def _model_from(values: dict[str, np.ndarray], pad_id: int) -> ModelParams:
    """ModelParams over `values`, one array per schema name, as is."""
    t = {name: Tensor(a, requires_grad=True) for name, a in values.items()}
    fw, bw = (LstmParams(t[f"{d}.w_x"], t[f"{d}.w_h"], t[f"{d}.b"]) for d in ("lstm_fw", "lstm_bw"))
    return ModelParams(
        embedding=t["embedding"],
        semantic=SemanticCapsParams(lstm_fw=fw, lstm_bw=bw, w_s1=t["w_s1"], w_s2=t["w_s2"]),
        detection=DetectionCapsParams(w=t["detect.w"]),
        pad_id=pad_id,
    )


def init_model(table: EmbeddingTable, cfg: RunConfig, rng=None, dtype=np.float32) -> ModelParams:
    """A fresh model over `table`: the embedding is one `dtype` copy of
    the table's vectors with the PAD row zeroed, and every other weight is
    drawn from `rng` (default: seeded by `cfg.seed`) in schema order, at
    the shapes of `_param_shapes`. `cfg` must pass `RunConfig.validate`."""
    cfg.validate()
    if table.dim != cfg.word_dim:
        raise ContractError(f"embedding dim {table.dim} does not match word_dim {cfg.word_dim}")
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    emb = table.vectors.astype(dtype)  # a copy, even at the table's dtype
    emb[table.pad_id] = 0.0
    values = {"embedding": emb}
    for name, shape in _param_shapes(cfg, emb.shape[0]).items():
        if name != "embedding":
            values[name] = _init_weight(rng, name, shape, dtype)
    return _model_from(values, table.pad_id)


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
    attn = attention_matrix(big_h, model.semantic, pad_mask=mask)
    m = semantic_vectors(attn, big_h)
    p = prediction_vectors(m, model.detection)
    trace = dynamic_routing(p, cfg.routing_iterations)
    return ForwardPass(A=attn, P=p, trace=trace)


# ----------------------------------------------------------------------
# persistence


@dataclass
class ModelBundle:
    """A reloaded model plus everything needed to run it on new text."""

    model: ModelParams
    table: EmbeddingTable  # vocab + the tuned embedding matrix (the model's own array, read-only)
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
    ContractError naming the file and the key. The `mode` key that older
    runs saved in the config is dropped."""
    try:
        meta = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ContractError(f"{path} is not valid UTF-8 JSON ({exc})") from exc
    for key in ("vocab", "oov_id", "pad_id", "config"):
        if not isinstance(meta, dict) or key not in meta:
            raise ContractError(f"{path} has no {key!r} entry")
    config = meta["config"] if isinstance(meta["config"], dict) else {}
    config.pop("mode", None)
    cfg_keys = set(config)
    known = {f.name for f in fields(RunConfig)}
    for problem, keys in (("unknown", cfg_keys - known), ("missing", known - cfg_keys)):
        if keys:
            raise ContractError(f"{path}: {problem} config key {min(keys)!r}")
    return meta


def _vocab_of(path: Path, words, rows: int) -> dict[str, int]:
    """The vocabulary, word -> row, of a list of `rows` distinct strings,
    one word per embedding row, else ContractError naming the file and
    the problem."""
    if not isinstance(words, list) or not all(map(isinstance, words, itertools.repeat(str))):
        raise ContractError(f"{path}: 'vocab' must be a list of strings")
    if len(words) != rows:
        raise ContractError(f"{path}: 'vocab' lists {len(words)} words for the {rows}-row embedding")
    vocab = dict(zip(words, range(rows)))
    if len(vocab) != rows:
        word = next(w for w, n in Counter(words).items() if n > 1)
        raise ContractError(f"{path}: 'vocab' lists {word!r} more than once")
    return vocab


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


def _check_params(npz_path: Path, arrays: dict[str, np.ndarray], shapes: dict[str, tuple[int, ...]]) -> None:
    """Each schema parameter must be saved at its shape, in the
    embedding's dtype, which is native float32 or float64, and the file
    must hold no other array but `intent_vectors`; else ContractError
    naming the file and the parameter or array."""
    dtype = arrays["embedding"].dtype
    if dtype not in (np.float32, np.float64):
        raise ContractError(f"{npz_path}: parameter 'embedding' has dtype {dtype}, expected float32 or float64")
    for name, shape in shapes.items():
        a = arrays.get(name.replace(".", "__"))
        if a is None:
            raise ContractError(f"{npz_path}: parameter {name!r} is missing")
        if a.shape != shape:
            raise ContractError(f"{npz_path}: parameter {name!r} has shape {a.shape}, expected {shape}")
        if a.dtype != dtype:
            raise ContractError(f"{npz_path}: parameter {name!r} has dtype {a.dtype}, expected {dtype}, the embedding's")
    extra = arrays.keys() - {name.replace(".", "__") for name in shapes} - {"intent_vectors"}
    if extra:
        raise ContractError(f"{npz_path}: array {min(extra)!r} is not a parameter of this model")


def load_model(model_dir) -> ModelBundle:
    """The model `save_model` wrote to `model_dir`, for inference; its
    arrays must be finite floats, with one `word_dim` intent vector per
    label, and every parameter at its `_param_shapes` shape in the
    embedding's dtype. The arrays are checked before anything is built,
    then become the parameters as they are: no weight is drawn and none is
    copied but a Fortran-order one (made C-contiguous). Every parameter
    array is read-only, so the encoder gathers each token's input
    projections from a table built once (see `encode_tokens`);
    `snapshot()` gives writable copies. The bundle's `table.vectors` is
    the model's embedding array, so it is read-only too. A `params.npz`
    that is cut short, damaged or a plain `.npy` array raises ContractError
    naming it; a missing one, FileNotFoundError."""
    model_dir = Path(model_dir)
    meta = _read_meta(model_dir / "meta.json")
    npz_path = model_dir / "params.npz"
    try:
        # np.load leaves a path it opened open when the archive is unreadable
        with open(npz_path, "rb") as f:
            npz = np.load(f)
            if not isinstance(npz, np.lib.npyio.NpzFile):  # .npy content loads as one array
                raise zipfile.BadZipFile("a plain .npy array, not an .npz archive")
            with npz:
                arrays = {key: npz[key] for key in npz.files}
    except FileNotFoundError:
        raise
    except ValueError as exc:  # an object array, which needs pickle, or a damaged header
        raise ContractError(f"{npz_path}: {exc}") from exc
    except (OSError, EOFError, RuntimeError, zipfile.BadZipFile) as exc:
        raise ContractError(f"{npz_path} is cut short or damaged: {exc!r}") from exc
    for key in ("embedding", "intent_vectors"):
        if key not in arrays:
            raise ContractError(f"{npz_path} has no {key!r} array")
    for key, a in arrays.items():
        if a.dtype.kind != "f" or not np.isfinite(a).all():
            raise ContractError(f"{npz_path}: array {key!r} is not all finite floats")
    if arrays["embedding"].ndim != 2:
        raise ContractError(f"{npz_path}: array 'embedding' has shape {arrays['embedding'].shape}, not |V| x word_dim")
    vocab = _vocab_of(model_dir / "meta.json", meta["vocab"], arrays["embedding"].shape[0])
    _check_special_ids(model_dir / "meta.json", meta, arrays["embedding"])
    cfg = RunConfig(**{
        k: tuple(v) if isinstance(v, list) else v for k, v in meta["config"].items()
    })
    try:
        cfg.validate()
    except ContractError as exc:
        raise ContractError(f"{model_dir / 'meta.json'}: config {exc}") from exc
    want = (len(cfg.existing_labels) + len(cfg.emerging_labels), cfg.word_dim)
    if arrays["intent_vectors"].shape != want:
        got = arrays["intent_vectors"].shape
        raise ContractError(f"{npz_path}: array 'intent_vectors' has shape {got}, expected {want}")
    shapes = _param_shapes(cfg, arrays["embedding"].shape[0])
    _check_params(npz_path, arrays, shapes)
    values = {}
    for name in shapes:
        a = np.ascontiguousarray(arrays[name.replace(".", "__")])
        a.flags.writeable = False
        values[name] = a
    table = EmbeddingTable(
        vocab=vocab,
        vectors=values["embedding"],
        oov_id=meta["oov_id"],
        pad_id=meta["pad_id"],
        intent_vectors=arrays["intent_vectors"],
    )
    model = _model_from(values, table.pad_id)
    return ModelBundle(model=model, table=table, intent_vectors=arrays["intent_vectors"], config=cfg)
