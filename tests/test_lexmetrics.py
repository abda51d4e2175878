import math

import pytest
from hypothesis import given, settings, strategies as st

from mtmetrics.lexmetrics import (
    MeteorParams,
    lcs_length,
    meteor_exact,
    rouge_l_f1,
)
from oracles import bf_lcs

short_tokens = st.lists(st.sampled_from("abc"), max_size=10)
word_lists = st.lists(st.sampled_from(["the", "cat", "sat", "on", "mat"]),
                      max_size=12)


# --- LCS --------------------------------------------------------------------

def test_lcs_identical():
    assert lcs_length(["a", "b", "c"], ["a", "b", "c"]) == 3


def test_lcs_subsequence():
    assert lcs_length(["a", "b", "c", "d"], ["b", "d"]) == 2


def test_lcs_empty_side():
    assert lcs_length([], ["a"]) == 0
    assert lcs_length(["a"], []) == 0


@settings(max_examples=300, deadline=None)
@given(short_tokens, short_tokens)
def test_lcs_matches_enumeration(a, b):
    assert lcs_length(a, b) == bf_lcs(a, b)


@given(short_tokens, short_tokens)
def test_lcs_symmetric(a, b):
    assert lcs_length(a, b) == lcs_length(b, a)


# --- ROUGE-L ----------------------------------------------------------------

def test_rouge_identical():
    score = rouge_l_f1(["a", "b"], ["a", "b"])
    assert score.f1 == 1.0
    assert score.lcs_len == 2


def test_rouge_worked_example():
    score = rouge_l_f1(["the", "cat"], ["the", "big", "cat"])
    assert score.lcs_len == 2
    assert score.precision == 1.0
    assert score.recall == pytest.approx(2 / 3, abs=1e-15)
    assert score.f1 == pytest.approx(0.8, abs=1e-12)


def test_rouge_disjoint():
    assert rouge_l_f1(["x"], ["y"]).f1 == 0.0


def test_rouge_empty_conventions():
    both = rouge_l_f1([], [])
    assert (both.precision, both.recall, both.f1) == (1.0, 1.0, 1.0)
    assert both.lcs_len == 0
    one = rouge_l_f1([], ["a"])
    assert one.f1 == 0.0


@given(word_lists, word_lists)
def test_rouge_swap_exchanges_precision_recall(hyp, ref):
    fwd = rouge_l_f1(hyp, ref)
    rev = rouge_l_f1(ref, hyp)
    assert fwd.precision == rev.recall
    assert fwd.recall == rev.precision
    assert fwd.f1 == pytest.approx(rev.f1, abs=1e-12)
    assert fwd.lcs_len <= min(len(hyp), len(ref)) or (not hyp and not ref)
    assert 0.0 <= fwd.f1 <= 1.0


# --- METEOR -----------------------------------------------------------------

def test_meteor_identical_ten_tokens():
    tokens = [f"w{i}" for i in range(10)]
    score = meteor_exact(tokens, tokens)
    assert score == pytest.approx(0.9995, abs=1e-12)


def test_meteor_identical_matches_closed_form():
    params = MeteorParams()
    for m in (1, 2, 5, 9):
        tokens = [f"w{i}" for i in range(m)]
        expected = 1.0 - params.gamma / m ** params.beta
        assert meteor_exact(tokens, tokens) == pytest.approx(expected, abs=1e-12)


def test_meteor_no_matches():
    assert meteor_exact(["x"], ["y"]) == 0.0
    assert meteor_exact([], ["y"]) == 0.0
    assert meteor_exact([], []) == 1.0  # two empty segments are a perfect match


def test_meteor_two_chunks_worked_example():
    assert meteor_exact(["b", "a"], ["a", "b"]) == pytest.approx(0.5, abs=1e-15)


def test_meteor_recall_weighted_worked_example():
    # P = 1, R = 1/2: f_mean = P*R / (0.9*P + 0.1*R) = 0.5 / 0.95; one chunk
    # of two matches gives the penalty 0.5 * (1/2)**3, so 0.5 / 0.95 * 0.9375.
    score = meteor_exact(["a", "b"], ["a", "b", "c", "d"])
    assert score == pytest.approx(0.4934210526315789, abs=1e-15)


def test_meteor_strictly_decreasing_in_chunks():
    ref = ["a", "b", "c", "d", "e", "f"]
    one_chunk = meteor_exact(ref, ref)
    two_chunks = meteor_exact(["d", "e", "f", "a", "b", "c"], ref)
    three_chunks = meteor_exact(["e", "f", "c", "d", "a", "b"], ref)
    six_chunks = meteor_exact(["f", "e", "d", "c", "b", "a"], ref)
    assert one_chunk > two_chunks > three_chunks > six_chunks


@given(word_lists, word_lists)
def test_meteor_bounds(hyp, ref):
    score = meteor_exact(hyp, ref)
    assert 0.0 <= score <= 1.0


def test_meteor_params_validation():
    with pytest.raises(ValueError):
        MeteorParams(alpha=1.0)
    with pytest.raises(ValueError):
        MeteorParams(alpha=0.0)
    assert MeteorParams(beta=0.5).beta == 0.5
    with pytest.raises(ValueError):
        MeteorParams(beta=0.0)
    with pytest.raises(ValueError):
        MeteorParams(gamma=1.0)


@pytest.mark.parametrize("kwargs, message", [
    ({"alpha": float("nan")}, r"alpha must be in \(0, 1\), got nan"),
    ({"gamma": float("nan")}, r"gamma must be in \[0, 1\), got nan"),
])
def test_meteor_params_messages_name_the_value(kwargs, message):
    with pytest.raises(ValueError, match=message):
        MeteorParams(**kwargs)


def test_meteor_param_overrides():
    # gamma = 0 removes the fragmentation penalty entirely.
    score = meteor_exact(["b", "a"], ["a", "b"], MeteorParams(gamma=0.0))
    assert score == pytest.approx(1.0, abs=1e-12)
