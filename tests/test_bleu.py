import math

import pytest
from hypothesis import given, settings, strategies as st

from mtmetrics.bleu import MAX_ORDER, BleuConfig, bleu_corpus
from mtmetrics.errors import InputError
from mtmetrics.evalharness import EvalConfig, evaluate_pairs, run_signature
from mtmetrics.textnorm import TokenizerConfig, tokenize
from oracles import bf_clipped_counts

WS_RAW = TokenizerConfig("whitespace", lowercase=False)

corpus_strategy = st.lists(
    st.tuples(
        st.lists(st.sampled_from("abcd"), max_size=10),
        st.lists(st.sampled_from("abcd"), max_size=10),
    ),
    min_size=1,
    max_size=5,
)


def ws_config(**kwargs):
    return BleuConfig(tokenizer=WS_RAW, **kwargs)


def test_identical_corpus_scores_100():
    hyps = ["the cat sat on the mat", "a b c"]
    report = bleu_corpus(hyps, list(hyps))
    assert report.precisions == (100.0,) * 4
    assert report.bp == 1.0
    assert abs(report.score - 100.0) < 1e-9
    assert report.score <= 100.0


def test_worked_example_matches_brute_force():
    hyp_tokens = tokenize("the cat sat on the mat")
    ref_tokens = tokenize("the cat sat on a mat")
    report = bleu_corpus(["the cat sat on the mat"], ["the cat sat on a mat"])
    expected_precisions = []
    for n in range(1, 5):
        correct, total = bf_clipped_counts([hyp_tokens], [ref_tokens], n)
        assert report.correct[n - 1] == correct
        assert report.total[n - 1] == total
        expected_precisions.append(100.0 * correct / total)
    assert report.precisions == tuple(expected_precisions)
    expected_score = report.bp * math.exp(
        sum(math.log(p) for p in expected_precisions) / 4
    )
    assert report.score == pytest.approx(expected_score, abs=1e-12)


def test_brevity_penalty_nine_vs_ten_tokens():
    report = bleu_corpus(["a b c d e f g h i"], ["a b c d e f g h i j"], ws_config())
    assert report.hyp_tokens == 9
    assert report.ref_tokens == 10
    assert report.bp == pytest.approx(math.exp(1.0 - 10.0 / 9.0), abs=1e-15)


def test_signature_default_config():
    assert run_signature(("bleu",), EvalConfig()) == (
        "mteval:v2|case:lc|tok:13a|metrics:bleu|smooth:none|n:4"
    )


def test_signature_whitespace_exp():
    config = EvalConfig(tokenizer=TokenizerConfig("whitespace", False), smoothing="exp")
    assert run_signature(("bleu",), config) == (
        "mteval:v2|case:mixed|tok:ws|metrics:bleu|smooth:exp|n:4"
    )


def test_signature_deterministic():
    config = EvalConfig(smoothing="add-k", smooth_k=2.0)
    assert run_signature(("bleu",), config) == run_signature(("bleu",), config)
    assert run_signature(("bleu",), config) == (
        "mteval:v2|case:lc|tok:13a|metrics:bleu|smooth:add-k(2)|n:4"
    )
    # k changes the score, so it must be in the signature.
    assert run_signature(("bleu",), EvalConfig(smoothing="add-k")) == (
        "mteval:v2|case:lc|tok:13a|metrics:bleu|smooth:add-k(1)|n:4"
    )


@settings(max_examples=300, deadline=None)
@given(corpus_strategy, st.integers(1, 4))
def test_clipped_counts_match_brute_force(corpus, max_n):
    hyps = [" ".join(h) for h, _ in corpus]
    refs = [" ".join(r) for _, r in corpus]
    if all(not h for h, _ in corpus):
        return
    report = bleu_corpus(hyps, refs, ws_config(max_n=max_n))
    hyp_tok = [h for h, _ in corpus]
    ref_tok = [r for _, r in corpus]
    for n in range(1, max_n + 1):
        correct, total = bf_clipped_counts(hyp_tok, ref_tok, n)
        assert report.correct[n - 1] == correct
        assert report.total[n - 1] == total
        assert 0.0 <= report.precisions[n - 1] <= 100.0


@settings(max_examples=200, deadline=None)
@given(corpus_strategy)
def test_bp_is_one_iff_hyp_at_least_ref(corpus):
    hyps = [" ".join(h) for h, _ in corpus]
    refs = [" ".join(r) for _, r in corpus]
    if all(not h for h, _ in corpus):
        return
    report = bleu_corpus(hyps, refs, ws_config())
    assert 0.0 < report.bp <= 1.0
    assert (report.bp == 1.0) == (report.hyp_tokens >= report.ref_tokens)


def test_segment_permutation_invariance():
    hyps = ["a b c", "b b", "c a"]
    refs = ["a b d", "b c", "a a"]
    base = bleu_corpus(hyps, refs, ws_config())
    flipped = bleu_corpus(hyps[::-1], refs[::-1], ws_config())
    assert base.precisions == flipped.precisions
    assert base.bp == flipped.bp
    assert base.score == flipped.score


def test_self_concatenation_invariance():
    hyps = ["a b c d e", "b c"]
    refs = ["a b c c e", "b d"]
    once = bleu_corpus(hyps, refs, ws_config())
    twice = bleu_corpus(hyps * 2, refs * 2, ws_config())
    assert once.precisions == twice.precisions
    assert once.bp == twice.bp


def test_unsmoothed_zero_match_order_zeroes_score():
    # Unigrams match but no bigram does.
    report = bleu_corpus(["a c b"], ["a x b"], ws_config(max_n=2))
    assert report.precisions[1] == 0.0
    assert report.score == 0.0


def test_exp_smoothing_lifts_zero_orders():
    report = bleu_corpus(["a c b"], ["a x b"], ws_config(max_n=2, smoothing="exp"))
    # First zero-match order is floored at 100 / (2 * total).
    assert report.precisions[1] == pytest.approx(100.0 / (2.0 * 2.0), abs=1e-12)
    assert report.score > 0.0


def test_add_k_smoothing_pads_higher_orders():
    report = bleu_corpus(["a c b"], ["a x b"], ws_config(max_n=2, smoothing="add-k"))
    assert report.precisions[0] == pytest.approx(100.0 * 2 / 3, abs=1e-12)
    assert report.precisions[1] == pytest.approx(100.0 * 1 / 3, abs=1e-12)


def test_add_k_one_worked_example():
    # Orders 2-4 become (c + 1) / (t + 1): 3/4, 2/3 and 1/2 beside the
    # unigram 3/4; brevity penalty 1, so 100 * (3/4 * 3/4 * 2/3 * 1/2) ** (1/4).
    report = bleu_corpus(["a b c d"], ["a b c e"], BleuConfig(smoothing="add-k", smooth_k=1.0))
    assert report.precisions == pytest.approx((75.0, 75.0, 200.0 / 3, 50.0), abs=1e-12)
    assert report.score == pytest.approx(65.80370064762461, abs=1e-12)


def test_exp_smoothing_zero_total_orders_worked_example():
    # One hypothesis token: orders 2-4 have no n-grams, so exp smoothing
    # gives them 100/2, 100/4 and 100/8 beside the unigram 100; brevity
    # penalty exp(1 - 2/1), so 100 * (1/64) ** (1/4) / e.
    report = evaluate_pairs(["a"], ["a b"], ("bleu",), EvalConfig(segment_bleu=True))
    assert report.metrics["bleu"].segments == pytest.approx((13.006502375572225,), abs=1e-12)


def test_short_hypotheses_zero_total_orders():
    report = bleu_corpus(["a"], ["a"], ws_config(max_n=2))
    assert report.total[1] == 0
    assert report.precisions[1] == 0.0
    assert report.score == 0.0


def test_corpus_length_mismatch_is_error():
    with pytest.raises(InputError, match="2.*1|1.*2"):
        bleu_corpus(["a", "b"], ["a"])


def test_empty_corpus_is_error():
    with pytest.raises(InputError, match="empty corpus"):
        bleu_corpus([], [])


def test_all_empty_hypotheses_is_error():
    with pytest.raises(InputError):
        bleu_corpus(["", ""], ["a", "b"], ws_config())


def test_max_order_bounded():
    assert BleuConfig(max_n=MAX_ORDER).max_n == 20
    for max_n in (MAX_ORDER + 1, 5000):
        with pytest.raises(ValueError, match="max_n must be between 1 and 20"):
            BleuConfig(max_n=max_n)


def test_config_validation():
    with pytest.raises(ValueError):
        BleuConfig(max_n=0)
    with pytest.raises(ValueError):
        BleuConfig(smoothing="floor")
    with pytest.raises(ValueError):
        BleuConfig(smoothing="add-k", smooth_k=0.0)
    for k in (float("inf"), float("nan"), -1.0):
        with pytest.raises(ValueError, match="smooth_k"):
            BleuConfig(smoothing="add-k", smooth_k=k)
