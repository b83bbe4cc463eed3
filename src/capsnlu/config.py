"""Run configuration: dataclass defaults, key=value files, overrides."""

from __future__ import annotations

import dataclasses
import hashlib
import io
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autodiff import ContractError

OUTPUT_DIR_ENV = "CAPSNLU_OUTPUT_DIR"

SNIPS_EXISTING = (
    "SearchCreativeWork",
    "GetWeather",
    "BookRestaurant",
    "PlayMusic",
    "SearchScreeningEvent",
)
SNIPS_EMERGING = ("AddToPlaylist", "RateBook")


_TYPE_NAMES = {int: "an int", float: "a number", bool: "a bool", str: "a string", tuple: "a tuple of strings"}


def _has_type_of(value, default) -> bool:
    """Whether `value` fits a field whose default is `default`: a float
    field also takes an int, a tuple field holds strings, and a bool is
    not a number."""
    kind = type(default)
    if kind in (int, float):
        return isinstance(value, (int, kind)) and not isinstance(value, bool)
    if kind is tuple:
        return isinstance(value, tuple) and all(isinstance(v, str) for v in value)
    return isinstance(value, kind)  # bool, str


@dataclass
class RunConfig:
    # benchmark defaults for the 5-existing / 2-emerging English corpus
    word_dim: int = 300
    hidden_dim: int = 32
    attn_dim: int = 20
    heads: int = 3
    caps_dim: int = 10
    sigma: float = 4.0
    penalty_weight: float = 0.0001   # weight of the attention orthogonality term
    downweight: float = 0.5          # weight of the absent-intent hinge
    margin_pos: float = 0.9
    margin_neg: float = 0.1
    routing_iterations: int = 3
    dropout_keep: float = 0.8
    learning_rate: float = 0.001
    batch_size: int = 32
    epochs: int = 50
    seed: int = 13
    dataset_path: str = ""
    embeddings_path: str = ""
    output_dir: str = ""
    existing_labels: tuple = SNIPS_EXISTING
    emerging_labels: tuple = SNIPS_EMERGING
    intent_embedding_mode: str = "mean"  # "sum" is the other documented reading
    restrict_vocab: bool = True

    def validate(self) -> "RunConfig":
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if not _has_type_of(value, f.default):
                raise ContractError(f"{f.name} must be {_TYPE_NAMES[type(f.default)]}, got {value!r}")
            if isinstance(value, float) and not math.isfinite(value):
                raise ContractError(f"{f.name} must be finite, got {value!r}")
        for name in ("word_dim", "hidden_dim", "attn_dim", "heads", "caps_dim"):
            if getattr(self, name) < 1:
                raise ContractError(f"{name} must be positive")
        keep = self.dropout_keep
        with np.errstate(divide="ignore", over="ignore"):  # in float32, as encode_tokens divides
            finite_inverse = np.isfinite(np.float32(1.0) / np.float32(keep))
        if not (0.0 < keep <= 1.0 and finite_inverse):
            raise ContractError(f"dropout_keep must be in (0, 1] with a finite float32 reciprocal, got {keep!r}")
        if not 0.0 <= self.margin_neg < self.margin_pos <= 1.0:
            raise ContractError("margins must satisfy 0 <= margin_neg < margin_pos <= 1")
        if not (self.sigma > 0 and 0 < self.sigma * self.sigma < math.inf):
            raise ContractError(f"sigma must be positive with a positive, finite square, got {self.sigma!r}")
        if self.routing_iterations < 1:
            raise ContractError("routing_iterations must be at least 1")
        if self.batch_size < 1 or self.epochs < 0 or self.learning_rate < 0:
            raise ContractError("batch_size, epochs and learning_rate must be non-negative (batch >= 1)")
        if self.downweight < 0 or self.penalty_weight < 0:
            raise ContractError("downweight and penalty_weight must be non-negative")
        if self.intent_embedding_mode not in ("mean", "sum"):
            raise ContractError("intent_embedding_mode must be 'mean' or 'sum'")
        if not self.existing_labels:
            raise ContractError("existing_labels must name at least one intent")
        for name in ("existing_labels", "emerging_labels"):
            labels = getattr(self, name)
            for label in labels:
                if labels.count(label) > 1:
                    raise ContractError(f"{name} names {label!r} twice")
        if set(self.existing_labels) & set(self.emerging_labels):
            raise ContractError("existing and emerging label sets overlap")
        return self

    def resolved_output_dir(self) -> Path:
        if self.output_dir:
            return Path(self.output_dir)
        env = os.environ.get(OUTPUT_DIR_ENV)
        return Path(env) if env else Path("runs")

    def as_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["existing_labels"] = list(self.existing_labels)
        d["emerging_labels"] = list(self.emerging_labels)
        return d


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}


def _parse_value(name: str, raw: str):
    if name not in _FIELDS:
        raise ContractError(f"unknown config key {name!r}")
    current = getattr(RunConfig(), name)
    raw = raw.strip()
    if isinstance(current, bool):
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise ContractError(f"config key {name} expects a boolean, got {raw!r}")
    if isinstance(current, (int, float)):
        try:
            return type(current)(raw)
        except ValueError:
            raise ContractError(f"config key {name} expects {type(current).__name__}, got {raw!r}") from None
    if isinstance(current, tuple):
        return tuple(s.strip() for s in raw.split(",") if s.strip())
    return raw


def load_config(path) -> RunConfig:
    """Parse `key=value` lines of UTF-8 text, a leading byte-order mark
    dropped; `#` starts a comment, and lines end only at LF, CRLF or CR,
    so a comment may hold FF, U+0085 or U+2028. A file that is not UTF-8
    raises ContractError naming it."""
    cfg = RunConfig()
    path = Path(path)
    try:
        content = path.read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ContractError(f"{path}: not UTF-8 text") from exc
    for lineno, line in enumerate(io.StringIO(content, newline=None), start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ContractError(f"{path}:{lineno}: expected key=value")
        key, raw = text.split("=", 1)
        key = key.strip()
        setattr(cfg, key, _parse_value(key, raw))
    return cfg


def apply_overrides(cfg: RunConfig, overrides: dict[str, str]) -> RunConfig:
    for key, raw in overrides.items():
        setattr(cfg, key, _parse_value(key, raw))
    return cfg


def config_hash(cfg: RunConfig) -> str:
    payload = "\n".join(f"{k}={v}" for k, v in sorted(cfg.as_dict().items()))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]
