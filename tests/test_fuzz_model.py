"""Property test of the saved-model surface: `meta.json` with `params.npz`.

A small model is saved once. Each example mutates that directory and
loads it: `load_model` must return a bundle that predicts existing and
emerging intents, or raise ContractError. Any other exception fails the
test, and so does any warning (pytest runs with warnings as errors).

The mutations relabel the model consistently (0-3 existing and 0-2
emerging intents, with the arrays that count them resized), remove, add
and retype `meta.json` entries (the vocabulary's words, the special
ids, every config key), replace the whole document, and remove, add,
reshape, retype and poison with non-finite values the arrays of
`params.npz`. A dimension key may also take a value far past the saved
model's: `load_model` checks the saved shapes against the config's
before it builds anything, so a mismatch allocates nothing.
"""

import json
import tracemalloc

import numpy as np
import pytest

from capsnlu.autodiff import ContractError
from capsnlu.config import RunConfig
from capsnlu.data import OOV_TOKEN, PAD_TOKEN, Corpus, EmbeddingTable
from capsnlu.harness import predict_existing, zsl_predict
from capsnlu.model import init_model, load_model, save_model

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

WORDS = ["play", "some", "music", "rate", "book", OOV_TOKEN, PAD_TOKEN]
CFG = RunConfig(
    word_dim=4,
    hidden_dim=3,
    attn_dim=3,
    heads=2,
    caps_dim=3,
    existing_labels=("PlayMusic", "GetWeather"),
    emerging_labels=("RateBook",),
)
ARRAY_NAMES = [
    "embedding", "intent_vectors", "detect__w", "w_s1", "w_s2",
    "lstm_fw__w_x", "lstm_fw__w_h", "lstm_fw__b", "lstm_bw__w_x", "lstm_bw__w_h", "lstm_bw__b",
]
# JSON values of every type, small enough that no config runs long
VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 6),
    st.sampled_from([0.0, 0.5, 1.5, -1.0, float("nan"), float("inf"), 1e308]),
    st.sampled_from(["", "x", "play", "1", OOV_TOKEN, "mean"]),
    st.sampled_from([[], ["play"], [1, 2], [["a"]], [None]]),
    st.sampled_from([{}, {"a": 1}]),
)
DIMENSION_KEYS = ("word_dim", "hidden_dim", "attn_dim", "heads", "caps_dim")
DIMENSIONS = st.integers(7, 4096) | st.sampled_from([2**31, 2**63, 10**30])
DTYPES = st.sampled_from(["float16", "float32", "float64", "int64", "bool", "complex64", ">f4", "<U1", "object"])


def _saved_files(directory):
    table = EmbeddingTable(
        vocab={w: i for i, w in enumerate(WORDS)},
        vectors=np.random.default_rng(0).normal(size=(len(WORDS), CFG.word_dim)).astype(np.float32),
        oov_id=WORDS.index(OOV_TOKEN),
        pad_id=WORDS.index(PAD_TOKEN),
        intent_vectors=np.random.default_rng(1).normal(size=(3, CFG.word_dim)),
    )
    save_model(init_model(table, CFG, rng=np.random.default_rng(2)), table, CFG, directory)
    meta = json.loads((directory / "meta.json").read_text(encoding="utf-8"))
    with np.load(directory / "params.npz") as npz:
        arrays = {key: npz[key] for key in npz.files}
    assert sorted(arrays) == sorted(ARRAY_NAMES)
    return meta, arrays


@st.composite
def meta_mutations(draw):
    """One change to meta.json as (kind, args)."""
    kind = draw(st.sampled_from(["top", "drop", "vocab", "vocab_len", "special", "config", "config_drop", "dimension", "document"]))
    if kind == "top":
        return kind, (draw(st.sampled_from(["vocab", "oov_id", "pad_id", "config", "extra"])), draw(VALUES))
    if kind == "drop":
        return kind, (draw(st.sampled_from(["vocab", "oov_id", "pad_id", "config"])),)
    if kind == "vocab":
        return kind, (draw(st.integers(0, len(WORDS) - 1)), draw(VALUES | st.sampled_from(WORDS)))
    if kind == "vocab_len":
        return kind, (draw(st.sampled_from([-1, 1])),)
    if kind == "special":
        value = draw(st.integers(-2, len(WORDS) + 1) | VALUES)
        return kind, (draw(st.sampled_from(["oov_id", "pad_id"])), value)
    if kind in ("config", "config_drop"):
        key = draw(st.sampled_from(sorted(CFG.as_dict()) + ["unknown_key"]))
        return kind, (key, draw(VALUES))
    if kind == "dimension":  # a config key set past the saved model's size
        return "config", (draw(st.sampled_from(DIMENSION_KEYS)), draw(DIMENSIONS))
    return kind, (draw(st.sampled_from(["[]", "3", '"model"', "null", "{", "", "\udcff"])),)


@st.composite
def array_mutations(draw):
    """One change to params.npz as (kind, name, args)."""
    kind = draw(st.sampled_from(["drop", "add", "dtype", "shape", "nonfinite"]))
    name = draw(st.sampled_from(ARRAY_NAMES))
    if kind == "add":
        return kind, draw(st.sampled_from(["extra", "lstm_fw__w_y", "embedding_"])), ()
    if kind == "dtype":
        return kind, name, (draw(DTYPES),)
    if kind == "shape":
        return kind, name, (draw(st.sampled_from(["row+", "row-", "col+", "flat", "scalar", "axis+"])),)
    if kind == "nonfinite":
        return kind, name, (draw(st.sampled_from([np.nan, np.inf, -np.inf])),)
    return kind, name, ()


def _mutate_meta(meta, kind, args):
    """Apply one change in place; a change whose target an earlier one
    removed or retyped is skipped."""
    if kind in ("top", "special"):
        meta[args[0]] = args[1]
    elif kind == "drop":
        meta.pop(args[0], None)
    elif kind.startswith("vocab"):
        vocab = meta.get("vocab")
        if not isinstance(vocab, list) or not vocab:
            return
        if kind == "vocab_len":
            meta["vocab"] = vocab + ["extra"] if args[0] > 0 else vocab[:-1]
        elif args[0] < len(vocab):
            vocab[args[0]] = args[1]
    elif isinstance(meta.get("config"), dict):
        if kind == "config":
            meta["config"][args[0]] = args[1]
        else:
            meta["config"].pop(args[0], None)


def _relabel(meta, arrays, existing, emerging):
    """Name `existing` + `emerging` intents in the config and resize the
    two arrays that count them, so the model stays consistent."""
    meta["config"]["existing_labels"] = [f"Known{i}" for i in range(existing)]
    meta["config"]["emerging_labels"] = [f"New{i}" for i in range(emerging)]
    rng = np.random.default_rng(3)
    arrays["intent_vectors"] = rng.normal(size=(existing + emerging, CFG.word_dim))
    w = arrays["detect__w"]
    arrays["detect__w"] = rng.normal(scale=0.3, size=(existing,) + w.shape[1:]).astype(w.dtype)


def _mutate_array(arrays, kind, name, args):
    """Apply one change in place; a change that does not apply to the
    array as earlier changes left it is skipped."""
    if kind == "add":
        arrays[name] = np.zeros(2, np.float32)
        return
    a = arrays.get(name)
    if a is None:
        return
    if kind == "drop":
        del arrays[name]
    elif kind == "dtype":
        if a.dtype.kind == "f":
            with np.errstate(all="ignore"):  # NaN to int, overflow to float16
                arrays[name] = a.astype(args[0])
    elif kind == "nonfinite":
        if a.dtype.kind == "f" and a.size:
            a = a.copy()
            a.reshape(-1)[-1] = args[0]
            arrays[name] = a
    elif args[0] == "scalar":
        if a.size:
            arrays[name] = a.reshape(-1)[:1].reshape(())
    elif args[0] == "flat":
        arrays[name] = a.reshape(-1)
    elif args[0] == "axis+":
        arrays[name] = a[None]
    elif a.ndim:
        if args[0] == "row+":
            arrays[name] = np.concatenate([a, np.zeros_like(a[:1])])
        elif args[0] == "row-":
            arrays[name] = a[1:]
        else:  # col+
            arrays[name] = np.concatenate([a, np.zeros_like(a[..., :1])], axis=-1)


def _predicts(bundle):
    """The bundle classifies a few utterances into existing and emerging intents."""
    cfg, table = bundle.config, bundle.table
    ids = [i for i in range(len(table.vocab)) if i != table.pad_id]
    corpus = Corpus(samples=[(ids[:3], 0), (ids[-1:], 0)], label_names=["any"])
    preds = predict_existing(bundle.model, corpus, cfg)
    assert preds.shape == (2,) and ((0 <= preds) & (preds < len(cfg.existing_labels))).all()
    if cfg.emerging_labels:
        zpreds, acts, _ = zsl_predict(bundle.model, corpus, bundle.intent_vectors, cfg)
        assert ((0 <= zpreds) & (zpreds < len(cfg.emerging_labels))).all()
        assert np.isfinite(acts).all()


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(
    relabel=st.none() | st.tuples(st.integers(0, 3), st.integers(0, 2)),
    meta_changes=st.lists(meta_mutations(), max_size=2),
    array_changes=st.lists(array_mutations(), max_size=2),
)
def test_saved_model_loads_and_predicts_or_fails_by_name(tmp_path_factory, relabel, meta_changes, array_changes):
    directory = tmp_path_factory.getbasetemp() / "fuzz_model"
    meta, arrays = _saved_files(directory)
    if relabel is not None:
        _relabel(meta, arrays, *relabel)
    text = None
    for kind, args in meta_changes:
        if kind == "document":  # the whole file replaced: later edits have nothing to edit
            text = args[0]
        else:
            _mutate_meta(meta, kind, args)
    for kind, name, args in array_changes:
        _mutate_array(arrays, kind, name, args)
    text = json.dumps(meta) if text is None else text
    (directory / "meta.json").write_text(text, encoding="utf-8", errors="surrogateescape")
    np.savez(directory / "params.npz", **arrays)
    try:
        bundle = load_model(directory)
    except ContractError:
        return
    _predicts(bundle)


# ----------------------------------------------------------------------
# what the sweep found, one named case each


def _load_after(directory, *, meta_text=None, relabel=None, **arrays_changed):
    meta, arrays = _saved_files(directory)
    if relabel is not None:
        _relabel(meta, arrays, *relabel)
    arrays.update(arrays_changed)
    (directory / "meta.json").write_bytes(meta_text if meta_text is not None else json.dumps(meta).encode("utf-8"))
    np.savez(directory / "params.npz", **arrays)
    return load_model(directory)


def test_meta_json_that_is_not_utf8_is_named(tmp_path):
    # it escaped as a bare UnicodeDecodeError
    with pytest.raises(ContractError, match="meta.json is not valid UTF-8 JSON"):
        _load_after(tmp_path, meta_text=b'{"vocab": ["caf\xe9"]}')


def test_object_array_is_named(tmp_path):
    # np.load refuses it without pickle: a bare ValueError
    arr = np.empty(2, dtype=object)
    with pytest.raises(ContractError, match="params.npz: Object arrays cannot be loaded"):
        _load_after(tmp_path, w_s1=arr)


@pytest.mark.parametrize("shape", [(), (7 * 4,), (1, 7, 4)], ids=["scalar", "flat", "3-d"])
def test_embedding_that_is_not_a_matrix_is_named(tmp_path, shape):
    # a 0-d embedding escaped as a bare IndexError; the others were named by
    # the vocabulary check only because their first axis was not 7 long
    with pytest.raises(ContractError, match="array 'embedding' has shape"):
        _load_after(tmp_path, embedding=np.zeros(shape, np.float32))


def test_config_without_existing_labels_is_named(tmp_path):
    # it loaded, and its first prediction divided by zero intents
    with pytest.raises(ContractError, match="existing_labels must name at least one intent"):
        _load_after(tmp_path, relabel=(0, 2))


@pytest.mark.parametrize("key", ["extra", "lstm_fw__w_y", "detect.w"])
def test_array_that_is_not_a_parameter_is_named(tmp_path, key):
    # the first two loaded silently; "detect.w" took the place of "detect__w"
    # (both were read as parameter detect.w) and was named only by its shape
    with pytest.raises(ContractError, match=rf"params\.npz: array '{key}' is not a parameter of this model"):
        _load_after(tmp_path, **{key: np.zeros(2, np.float32)})


@pytest.mark.parametrize("dtype", ["float16", ">f4"])
def test_model_saved_in_an_unsupported_float_dtype_is_named(tmp_path, dtype):
    # every array in that dtype: the model's arrays are native float32 or float64
    meta, arrays = _saved_files(tmp_path)
    arrays = {key: a.astype(dtype) for key, a in arrays.items()}
    np.savez(tmp_path / "params.npz", **arrays)
    with pytest.raises(ContractError, match=rf"parameter 'embedding' has dtype {dtype}, expected float32 or float64"):
        load_model(tmp_path)


def test_config_dimension_past_the_saved_model_allocates_nothing(tmp_path):
    # the config's model (two 1024 x 4096 float32 w_h, 32 MiB) was built
    # before the shapes were compared: 50 MB traced and ~0.1 s per load
    meta, arrays = _saved_files(tmp_path)
    meta["config"]["hidden_dim"] = 1024
    (tmp_path / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
    tracemalloc.start()
    try:
        with pytest.raises(ContractError, match=r"parameter 'lstm_fw\.w_x' has shape \(4, 12\), expected \(4, 4096\)"):
            load_model(tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (1 << 20), f"peak {peak} bytes"
