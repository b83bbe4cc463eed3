"""Property test of the tokenizer against its `str` reference.

`data.words_of` lowercases on `str` and maps ASCII punctuation to spaces
on the UTF-8 bytes; `refops.words_of` does both on `str`. The texts mix
every ASCII punctuation mark, lone surrogates (and split surrogate
pairs), Unicode whitespace that is not ASCII, letters whose lowercase
depends on context or changes length, and any other character.
"""

import string

import pytest

import refops

from capsnlu.data import words_of

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

SPECIAL = (
    list(string.punctuation)
    + list(" \t\n\r\x0b\x0c")
    + ["\ud800", "\udbff", "\udc00", "\udcff", "\udfff", "\ud83d", "\ude00"]  # lone surrogates
    + ["\x85", "\x1c", "\x1d", "\x1e", "\x1f", "\u3000", "\xa0", "\u2028"]  # whitespace beyond ASCII
    + ["Σ", "ς", "σ", "İ", "ẞ", "ǅ", "\u0307", "é", "😀"]
    + list("Ab9")
)
TEXTS = st.text(alphabet=st.one_of(st.sampled_from(SPECIAL), st.characters()), max_size=40)


@settings(max_examples=400, deadline=None)
@given(TEXTS)
def test_words_equal_the_reference(text):
    assert words_of(text) == refops.words_of(text)

