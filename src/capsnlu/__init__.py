"""Capsule-network intent detection with zero-shot transfer.

A small numpy-based stack: a reverse-mode autodiff tensor core, a BiLSTM
plus multi-head self-attention encoder that extracts semantic capsule
vectors, agreement routing into per-intent detection capsules trained
with a max-margin loss, and a zero-shot layer that builds capsules for
emerging intents out of vote vectors and label-embedding similarity.
"""

from .autodiff import (
    ContractError,
    DegenerateRowError,
    DimensionError,
    NumericError,
    Tensor,
    concat,
    finite_diff_check,
    no_grad,
    row_softmax,
    softmax,
    stack,
)
from .config import RunConfig, load_config
from .data import (
    Corpus,
    EmbeddingTable,
    intent_embedding,
    load_dataset,
    load_embeddings,
    load_snips,
    load_tsv,
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
    cross_validate,
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
