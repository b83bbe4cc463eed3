"""Property test of the run-configuration surface: a `key=value` config
file with `--set KEY=VALUE` overrides, resolved as the CLI resolves them.

Every generated input either gives a RunConfig that validates, or fails
with ContractError. Any other exception fails the test, and so does any
warning (pytest runs with warnings as errors).

Files mix every config key with unknown and mis-spelled keys, values of
each field type and of the wrong ones (non-numeric, non-finite, out of
range, empty, repeated and overlapping labels), comments, blank lines
and lines with no `=`, spaces around keys and values, the three line
ends, a missing final newline, a leading byte-order mark and bytes that
are not UTF-8. The overrides draw from the same keys and values.
"""

import dataclasses

import pytest

from capsnlu import cli
from capsnlu.autodiff import ContractError
from capsnlu.config import RunConfig, config_hash

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

FIELDS = {f.name: f.default for f in dataclasses.fields(RunConfig)}
JUNK_KEYS = st.sampled_from(["", "no_such_key", "Epochs", "validate", "as_dict", "word dim", "\ufeffseed"])
LABELS = st.lists(st.sampled_from(["A", "B", "GetWeather", "RateBook", " "]), max_size=3).map(",".join)
TYPED = {
    int: st.integers(-2, 40).map(str),
    float: st.one_of(st.floats(0.0, 1.0).map(repr), st.integers(0, 9).map(str)),
    bool: st.sampled_from(["true", "false", "1", "0", "On", "no"]),
    tuple: LABELS,
    str: st.text(max_size=6),
}
JUNK_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(repr),
    st.sampled_from(
        ["", " ", "nan", "inf", "-inf", "1e999", "1e-320", "2.5", "-1", "1_0", "0x1", "+3", "1e3", "10" * 2200,
         "\u0663", "A,B", "yes please"]
    ),
    st.text(max_size=6),
)


@st.composite
def pairs(draw):
    """(key, value): mostly a config key with a value of its type; the
    label keys, whose values are checked as sets, come up more often."""
    if draw(st.integers(0, 19)) == 0:
        return draw(JUNK_KEYS), draw(JUNK_VALUES)
    key = draw(st.sampled_from(sorted(FIELDS) + ["existing_labels", "emerging_labels"] * 4))
    if draw(st.integers(0, 5)) == 0:
        return key, draw(JUNK_VALUES)
    return key, draw(TYPED[type(FIELDS[key])])


@st.composite
def config_lines(draw):
    kind = draw(st.integers(0, 9))
    if kind == 0:
        return draw(st.sampled_from(["", "   ", "# a comment", "#=", "word_dim 8", "="]))
    key, value = draw(pairs())
    line = key + draw(st.sampled_from(["=", " = ", "= ", " ="])) + value
    if kind == 1:
        line += " # " + draw(st.text(max_size=4))
    return line


@st.composite
def config_inputs(draw):
    """(config file bytes, the --set items) for one run."""
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = end.join(draw(st.lists(config_lines(), max_size=6))) + draw(st.sampled_from(["", end]))
    data = text.encode("utf-8", errors="surrogatepass")
    encoding = draw(st.integers(0, 9))
    if encoding == 0:
        data = BOM + data
    elif encoding == 1:
        data = text.encode("latin-1", errors="replace") + b"\xe9"
    item = pairs().map("=".join)
    sets = draw(st.lists(st.one_of(item, item, item, st.sampled_from(["", "epochs"])), max_size=3))
    return data, sets


BOM = b"\xef\xbb\xbf"
PARSER = cli._build_parser()


def _resolve(path, data: bytes, sets):
    """The CLI's RunConfig for a config file at `path` holding `data` and
    the --set items, or the ContractError it raises."""
    path.write_bytes(data)
    args = PARSER.parse_args(["train", "--config", str(path)] + [f"--set={item}" for item in sets])
    try:
        return cli._resolve_config(args)
    except ContractError as exc:
        return exc


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(case=config_inputs())
def test_config_file_with_overrides_resolves_or_fails_by_name(tmp_path_factory, case):
    data, sets = case
    path = tmp_path_factory.getbasetemp() / "fuzz.cfg"
    cfg = _resolve(path, data, sets)
    if data.startswith(BOM):  # the mark is dropped: the same config, or the same error
        assert repr(cfg) == repr(_resolve(path, data[len(BOM) :], sets))
    if isinstance(cfg, ContractError):
        return
    assert cfg.validate() is cfg
    assert len(config_hash(cfg)) == 12
    assert not set(cfg.existing_labels) & set(cfg.emerging_labels)
    for labels in (cfg.existing_labels, cfg.emerging_labels):
        assert len(set(labels)) == len(labels)
