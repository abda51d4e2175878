import re

import pytest
from hypothesis import assume, given, settings, strategies as st

from mtmetrics.textnorm import (
    TokenizerConfig,
    extract_ngrams,
    tokenize,
)
from oracles import bf_ngram_counts, ref_tokenize_13a

LC_13A = TokenizerConfig("13a", lowercase=True)
RAW_13A = TokenizerConfig("13a", lowercase=False)
WS = TokenizerConfig("whitespace", lowercase=False)
NONE = TokenizerConfig("none", lowercase=False)

printable_text = st.text(
    alphabet=st.characters(min_codepoint=0x20, max_codepoint=0x7E), max_size=60
)

# Pieces that make the 13a rules fire, weighted toward the digit-sensitive
# marks: periods, commas and dashes next to digits and to each other, the
# split class, the four entities and their parts (``&amp;`` + ``quot;``
# must not unescape twice), newlines and other whitespace, and non-ASCII
# letters, among them a capital sigma after a letter, which lowercases to
# a final sigma only at the end of a token.
_13A_PIECES = (
    list(".,-" * 12) + list("0123456789" * 2)
    + list(" !\"#$%&'()*+/:;<=>?@[\\]^_`{|}~")
    + ["&quot;", "&amp;", "&lt;", "&gt;", "&", "quot;", "amp;", "lt;", "gt;"]
    + ["\n", "\t", "\r", "  ", "\u00a0"]
    + ["ΟΣ", "ΟΣ", "Σ", "ς", "Ο", "İ", "ß", "é", "Ａ", "a", "B", "z"]
)
rule_text = st.lists(st.sampled_from(_13A_PIECES), max_size=40).map("".join)


def toks(text, config):
    return list(tokenize(text, config))


def test_13a_fixture_hello_world():
    assert toks("Hello, world!", LC_13A) == ["hello", ",", "world", "!"]


def test_13a_fixture_digit_adjacent_period_comma():
    assert toks("It costs 1,234.5 dollars.", RAW_13A) == [
        "It", "costs", "1,234.5", "dollars", ".",
    ]


def test_whitespace_fixture():
    assert toks("a b  c", WS) == ["a", "b", "c"]


def test_13a_entity_unescaping():
    assert toks("a&amp;b &lt;tag&gt; &quot;x&quot;", RAW_13A) == [
        "a", "&", "b", "<", "tag", ">", '"', "x", '"',
    ]


def test_13a_entities_unescape_once():
    assert toks("&amp;quot; &amp;amp;", RAW_13A) == ["&", "quot", ";", "&", "amp", ";"]


def test_13a_newline_becomes_space():
    assert toks("one\ntwo", RAW_13A) == ["one", "two"]


def test_13a_dash_splits_only_after_digit():
    assert toks("3-4", RAW_13A) == ["3", "-", "4"]
    assert toks("a-b", RAW_13A) == ["a-b"]
    assert toks("a-1", RAW_13A) == ["a-1"]


def test_13a_comma_period_split_next_to_non_digits():
    assert toks("a,1", RAW_13A) == ["a", ",", "1"]
    assert toks("1,a", RAW_13A) == ["1", ",", "a"]
    assert toks("end.", RAW_13A) == ["end", "."]
    assert toks("1.", RAW_13A) == ["1", "."]
    assert toks(".5", RAW_13A) == [".", "5"]


def test_13a_apostrophe_is_split():
    # Frozen rule: every printable ASCII char outside [A-Za-z0-9.,-] splits.
    assert toks("don't", RAW_13A) == ["don", "'", "t"]


def test_none_scheme_splits_single_spaces():
    assert toks("a b  c", NONE) == ["a", "b", "c"]
    assert toks("pre ,tokenized", NONE) == ["pre", ",tokenized"]


def test_empty_text_yields_empty_sequence():
    for config in (LC_13A, WS, NONE):
        seq = tokenize("", config)
        assert seq == ()
        assert len(seq) == 0


def test_lowercase_applied_last():
    assert toks("ABC,DEF", LC_13A) == ["abc", ",", "def"]


def test_unknown_scheme_rejected():
    with pytest.raises(ValueError):
        TokenizerConfig("moses", lowercase=True)


def test_13a_adjacent_period_comma_not_idempotent():
    # The regex passes do not overlap their matches (as in mteval-v13a and
    # sacreBLEU), so the second of two adjacent marks can stay attached to
    # a digit; re-tokenizing the joined tokens then splits it off.
    assert toks("..0", RAW_13A) == [".", ".0"]
    assert toks(". .0", RAW_13A) == [".", ".", "0"]
    assert toks("x.,0", RAW_13A) == ["x", ".", ",0"]
    assert toks("x . ,0", RAW_13A) == ["x", ".", ",", "0"]


def test_13a_lowercases_per_token():
    # Lowercasing the whole text first would give 'οδοσ': before the
    # apostrophe and another letter, Σ is not word-final.
    assert tokenize("ΟΔΟΣ'Α", LC_13A) == ("οδος", "'", "α")


@settings(max_examples=300)
@given(rule_text)
def test_13a_matches_reference_lowercased(text):
    assert tokenize(text, LC_13A) == ref_tokenize_13a(text, lowercase=True)


@settings(max_examples=300)
@given(rule_text)
def test_13a_matches_reference_mixed_case(text):
    assert tokenize(text, RAW_13A) == ref_tokenize_13a(text, lowercase=False)


@given(st.text(max_size=60))
def test_13a_matches_reference_on_any_text(text):
    assert tokenize(text, LC_13A) == ref_tokenize_13a(text, lowercase=True)


# Inputs with two adjacent period/comma marks re-tokenize differently
# (pinned above); the properties cover all other printable input.
@given(printable_text)
def test_13a_idempotent(text):
    assume(not re.search(r"[.,]{2}", text))
    first = tokenize(text, LC_13A)
    again = tokenize(" ".join(first), LC_13A)
    assert again == first


@given(printable_text)
def test_13a_idempotent_mixed_case(text):
    assume(not re.search(r"[.,]{2}", text))
    first = tokenize(text, RAW_13A)
    again = tokenize(" ".join(first), RAW_13A)
    assert again == first


@given(st.text(max_size=60))
def test_13a_tokens_nonempty_and_whitespace_free(text):
    for config in (LC_13A, RAW_13A, WS):
        for tok in tokenize(text, config):
            assert tok
            assert not any(ch.isspace() for ch in tok)


@given(printable_text)
def test_determinism(text):
    assert tokenize(text, LC_13A) == tokenize(text, LC_13A)


def test_extract_ngrams_fixture_bigrams():
    counts = extract_ngrams(["the", "cat", "the", "cat"], 2)
    assert counts == {("the", "cat"): 2, ("cat", "the"): 1}


def test_extract_ngrams_short_sequence_empty():
    assert extract_ngrams(["a"], 2) == {}


def test_extract_ngrams_unigrams():
    assert extract_ngrams(["a", "b"], 1) == {("a",): 1, ("b",): 1}


def test_extract_ngrams_rejects_order_zero():
    with pytest.raises(ValueError):
        extract_ngrams(["a"], 0)


@given(st.lists(st.sampled_from("abc"), max_size=20), st.integers(1, 6))
def test_ngram_total_count(tokens, n):
    counts = extract_ngrams(tokens, n)
    assert counts.total() == max(0, len(tokens) - n + 1)


@given(st.lists(st.sampled_from("abc"), max_size=20), st.integers(1, 6))
def test_ngram_counts_match_brute_force(tokens, n):
    assert extract_ngrams(tokens, n) == bf_ngram_counts(tokens, n)


def test_benchmark_adapters():
    # What perfbench reads beyond the tuples themselves: tokenize(...).tokens,
    # align(...).pairs, Codes.size and active_backend(). They and this test go
    # together once the benchmark reads the tuples.
    from mtmetrics import _kernels
    from mtmetrics.hlepor import align

    tokens = tokenize("A b", LC_13A)
    assert isinstance(tokens, _kernels.Codes)
    assert tokens == ("a", "b")
    assert tokens.tokens is tokens
    alignment = align(["a", "b"], ["b", "a", "b"])
    assert isinstance(alignment, _kernels.Codes)
    assert alignment == ((0, 1), (1, 2))
    assert alignment.pairs is alignment
    codes = _kernels.Codes(iter([4, 0, 4]))
    assert codes == (4, 0, 4)
    assert codes.size == 3
    assert _kernels.Codes().size == 0
    assert _kernels.active_backend() == "python"
