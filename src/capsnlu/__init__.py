"""Capsule-network intent detection with zero-shot transfer.

A small numpy-based stack: a reverse-mode autodiff tensor core, a BiLSTM
plus multi-head self-attention encoder that extracts semantic capsule
vectors, agreement routing into per-intent detection capsules trained
with a max-margin loss, and a zero-shot layer that builds capsules for
emerging intents out of vote vectors and label-embedding similarity.

Importing the package sets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS to 1 where they are unset, before numpy loads: the
products are small, and BLAS threads of their own only compete with the
evaluation workers and the Adam thread. A value already set wins, and a
program that loaded numpy first keeps numpy's own setting.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from .autodiff import (
    ContractError,
    DegenerateRowError,
    DimensionError,
    NumericError,
    Tensor,
    finite_diff_check,
    no_grad,
)
from .config import RunConfig, load_config
from .data import (
    Corpus,
    EmbeddingTable,
    intent_embedding,
    load_dataset,
    load_embeddings,
    load_inputs,
    load_snips,
    tokenize,
)
from .detection import (
    DetectionCapsParams,
    RoutingTrace,
    dynamic_routing,
    prediction_vectors,
    squash,
)
from .harness import (
    evaluate,
    full_loss_gradcheck,
    stratified_split,
    train,
    zsl_evaluate,
)
from .metrics import MetricsReport, compute_metrics
from .model import ModelParams, forward_batch, init_model, load_model, save_model
from .semantic import (
    SemanticCapsParams,
    attend,
    semantic_vectors,
)
from .zeroshot import (
    SimilarityMatrix,
    intent_similarity,
    similarity_variance,
    vote_vectors,
    zero_shot_prediction_vectors,
)

__version__ = "0.1.0"
