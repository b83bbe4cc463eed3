"""Property test of the packed corpus ids that evaluation and training
cut their batches from.

For a random corpus and a random index array, `Corpus.batch(indices)`
through `check_token_ids` gives exactly what the same utterances as
lists give through `TokenBatch.of`, the path every list caller takes:
the same int64 ids, or a ContractError with the same text. Most ids
are rows of a 10-row embedding; the rest are the kinds an id check
meets: negative and past-the-end ints, fractions, NaN and infinities,
strings, nested lists, ints past int64 and past float64, Decimals, bools
and numpy ints. One bad id anywhere in the corpus changes the packed
array's dtype, so chunks without one are checked too.
"""

from decimal import Decimal

import numpy as np
import pytest

from capsnlu.autodiff import ContractError
from capsnlu.data import Corpus
from capsnlu.semantic import TokenBatch, check_token_ids

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

ROWS = 10
ODD_IDS = st.sampled_from(
    [-1, ROWS, 2.5, -0.0, 3.0, float("nan"), float("inf"), "3", [2], 2**70, -(2**64), 10**400,
     Decimal("1.5"), Decimal(4), True, np.int64(2), np.int32(7), np.float32(1.0)]
)
IDS = st.one_of(st.integers(0, ROWS - 1), st.integers(0, ROWS - 1), st.integers(0, ROWS - 1), ODD_IDS)


@st.composite
def corpora_and_indices(draw):
    seqs = draw(st.lists(st.lists(IDS, max_size=6), min_size=1, max_size=12))
    indices = draw(st.lists(st.integers(0, len(seqs) - 1), max_size=2 * len(seqs)))
    return seqs, np.array(indices, dtype=np.int64)


def outcome(check):
    try:
        ids = check()
    except ContractError as err:
        return "error", str(err)
    return ids.dtype, ids.tolist()


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(corpora_and_indices())
def test_corpus_batch_gives_the_list_batch_ids_or_error(case):
    seqs, indices = case
    corpus = Corpus([(ids, 0) for ids in seqs], ["a"])
    batch = corpus.batch(indices)
    chosen = [seqs[i] for i in indices]
    assert batch.lengths.dtype == np.int64
    assert batch.lengths.tolist() == [len(s) for s in chosen]
    want = outcome(lambda: check_token_ids(TokenBatch.of(chosen), ROWS))
    assert outcome(lambda: check_token_ids(batch, ROWS)) == want
