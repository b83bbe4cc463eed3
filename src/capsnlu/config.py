"""Run configuration: dataclass defaults, key=value files, overrides."""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
from dataclasses import dataclass
from pathlib import Path

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
    mode: str = "train"
    existing_labels: tuple = SNIPS_EXISTING
    emerging_labels: tuple = SNIPS_EMERGING
    intent_embedding_mode: str = "mean"  # "sum" is the other documented reading
    restrict_vocab: bool = True

    def validate(self) -> "RunConfig":
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ContractError(f"{f.name} must be finite, got {value!r}")
            if type(f.default) is int and (isinstance(value, bool) or not isinstance(value, int)):
                raise ContractError(f"{f.name} must be an int, got {value!r}")
        for name in ("word_dim", "hidden_dim", "attn_dim", "heads", "caps_dim"):
            if getattr(self, name) < 1:
                raise ContractError(f"{name} must be positive")
        if not 0.0 < self.dropout_keep <= 1.0:
            raise ContractError("dropout_keep must be in (0, 1]")
        if not 0.0 <= self.margin_neg < self.margin_pos <= 1.0:
            raise ContractError("margins must satisfy 0 <= margin_neg < margin_pos <= 1")
        if self.sigma <= 0:
            raise ContractError("sigma must be positive")
        if self.routing_iterations < 1:
            raise ContractError("routing_iterations must be at least 1")
        if self.batch_size < 1 or self.epochs < 0 or self.learning_rate < 0:
            raise ContractError("batch_size, epochs and learning_rate must be non-negative (batch >= 1)")
        if self.downweight < 0 or self.penalty_weight < 0:
            raise ContractError("downweight and penalty_weight must be non-negative")
        if self.intent_embedding_mode not in ("mean", "sum"):
            raise ContractError("intent_embedding_mode must be 'mean' or 'sum'")
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
    """Parse `key=value` lines; `#` starts a comment."""
    cfg = RunConfig()
    path = Path(path)
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
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
        setattr(cfg, key, _parse_value(key, raw) if isinstance(raw, str) else raw)
    return cfg


def config_hash(cfg: RunConfig) -> str:
    payload = "\n".join(f"{k}={v}" for k, v in sorted(cfg.as_dict().items()))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]
