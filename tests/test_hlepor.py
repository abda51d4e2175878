import math

import pytest
from hypothesis import given, settings, strategies as st

from mtmetrics.errors import InputError
from mtmetrics.hlepor import (
    PRESETS,
    AlignmentMap,
    HleporBreakdown,
    HleporParams,
    align,
    hlepor_corpus,
    hlepor_sentence,
    hpr,
    length_penalty,
    npd,
    preset,
)
from oracles import bf_best_matching, scaled_matching_cost

short_tokens = st.lists(st.sampled_from("abcde"), max_size=8)
word_lists = st.lists(st.sampled_from(["the", "cat", "sat", "on", "mat", "a"]),
                      min_size=0, max_size=12)


# --- length penalty ---------------------------------------------------------

def test_length_penalty_equal_lengths():
    assert length_penalty(10, 10) == 1.0


def test_length_penalty_short_hypothesis():
    assert length_penalty(5, 10) == pytest.approx(math.exp(-1.0), abs=1e-15)


def test_length_penalty_long_hypothesis_symmetric():
    assert length_penalty(10, 5) == length_penalty(5, 10)


def test_length_penalty_empty_side_is_zero():
    assert length_penalty(0, 3) == 0.0
    assert length_penalty(3, 0) == 0.0


def test_length_penalty_both_empty_is_error():
    with pytest.raises(ValueError):
        length_penalty(0, 0)


@given(st.integers(0, 50), st.integers(0, 50))
def test_length_penalty_bounds_and_symmetry(a, b):
    if a == 0 and b == 0:
        return
    lp = length_penalty(a, b)
    assert lp == length_penalty(b, a)
    if a > 0 and b > 0:
        assert 0.0 < lp <= 1.0
        assert (lp == 1.0) == (a == b)


# --- alignment --------------------------------------------------------------

def test_align_identity():
    alignment = align(["a", "b"], ["a", "b"])
    assert isinstance(alignment, tuple)
    assert alignment == alignment.pairs == ((0, 0), (1, 1))


def test_align_disjoint_vocabulary():
    assert align(["x", "y"], ["p", "q"]).pairs == ()


def test_align_prefers_closest_occurrence():
    # |0/3 - 0/2| = 0 beats |2/3 - 0/2|
    assert align(["the", "cat", "the"], ["the", "dog"]).pairs == ((0, 0),)


def test_align_empty_sides():
    assert align([], ["a"]).pairs == ()
    assert align(["a"], []).pairs == ()


def _check_alignment_invariants(hyp, ref, alignment):
    hyp_seen = set()
    ref_seen = set()
    for i, j in alignment.pairs:
        assert hyp[i] == ref[j]
        assert i not in hyp_seen
        assert j not in ref_seen
        hyp_seen.add(i)
        ref_seen.add(j)


@settings(max_examples=300, deadline=None)
@given(short_tokens, short_tokens)
def test_align_matches_exhaustive_enumeration(hyp, ref):
    alignment = align(hyp, ref)
    _check_alignment_invariants(hyp, ref, alignment)
    best_card, best_cost = bf_best_matching(hyp, ref)
    assert len(alignment) == best_card
    assert scaled_matching_cost(alignment.pairs, len(hyp), len(ref)) == best_cost


def test_align_deterministic_tie_break():
    # Both refs sit at scaled distance 1 from the single hyp token; the
    # lexicographically smaller pair wins.
    assert align(["x", "a", "x", "x"], ["a", "a"]).pairs == ((1, 0),)


# --- npd --------------------------------------------------------------------

def test_npd_identity_is_zero():
    alignment = align(["a", "b", "c"], ["a", "b", "c"])
    assert npd(alignment, 3, 3) == 0.0
    assert math.exp(-npd(alignment, 3, 3)) == 1.0


def test_npd_swapped_pair():
    alignment = align(["a", "b"], ["b", "a"])
    value = npd(alignment, 2, 2)
    assert value == pytest.approx(0.5, abs=1e-15)
    assert math.exp(-value) == pytest.approx(0.6065306597126334, abs=1e-12)


def test_npd_empty_alignment():
    assert npd(AlignmentMap(()), 4, 4) == 0.0
    assert npd(AlignmentMap(()), 0, 0) == 0.0


# --- hpr --------------------------------------------------------------------

@given(st.integers(1, 20), st.floats(0.1, 20), st.floats(0.1, 20))
def test_hpr_equals_x_when_p_equals_r(m, alpha, beta):
    # P == R == m / (2m)
    value = hpr(m, 2 * m, 2 * m, alpha, beta)
    assert value == pytest.approx(0.5, rel=1e-12)


def test_hpr_worked_example():
    assert hpr(2, 4, 2, 9.0, 1.0) == pytest.approx(5.0 / 5.5, abs=1e-15)


def test_hpr_zero_matches():
    assert hpr(0, 5, 5, 9.0, 1.0) == 0.0


# --- sentence scoring -------------------------------------------------------

def test_identical_sentence_scores_exactly_one():
    breakdown = hlepor_sentence(["the", "cat"], ["the", "cat"])
    assert breakdown.lp == 1.0
    assert breakdown.npos_penal == 1.0
    assert breakdown.hpr == 1.0
    assert breakdown.score == 1.0


def test_disjoint_sentence_scores_zero():
    breakdown = hlepor_sentence(["x", "y"], ["p", "q"])
    assert breakdown.hpr == 0.0
    assert breakdown.score == 0.0


def test_sentence_hand_trace_en_es_preset():
    # Independent step-by-step recomputation of every component.
    lp = math.exp(1.0 - 4.0 / 3.0)
    npd_value = (abs(1 / 3 - 1 / 4) + abs(2 / 3 - 2 / 4) + abs(3 / 3 - 3 / 4)) / 3
    npos_penal = math.exp(-npd_value)
    precision, recall = 3 / 3, 3 / 4
    hpr_value = (10.0 * precision * recall) / (9.0 * precision + 1.0 * recall)
    expected = 6.0 / (2.0 / lp + 1.0 / npos_penal + 3.0 / hpr_value)

    breakdown = hlepor_sentence(
        ["the", "cat", "sat"], ["the", "cat", "sat", "down"], preset("en-es")
    )
    assert breakdown.lp == pytest.approx(lp, abs=1e-12)
    assert breakdown.npd == pytest.approx(npd_value, abs=1e-12)
    assert breakdown.npos_penal == pytest.approx(npos_penal, abs=1e-12)
    assert breakdown.hpr == pytest.approx(hpr_value, abs=1e-12)
    assert breakdown.score == pytest.approx(expected, abs=1e-12)


def test_sentence_both_empty_is_perfect_match():
    breakdown = hlepor_sentence([], [])
    assert breakdown == HleporBreakdown(lp=1.0, npd=0.0, npos_penal=1.0, precision=1.0,
                                        recall=1.0, hpr=1.0, score=1.0)
    assert hlepor_sentence([], ["a"]).score == hlepor_sentence(["a"], []).score == 0.0


@settings(max_examples=400, deadline=None)
@given(word_lists, word_lists)
def test_sentence_component_bounds(hyp, ref):
    if not hyp and not ref:
        return
    b = hlepor_sentence(hyp, ref)
    assert 0.0 <= b.lp <= 1.0
    assert 0.0 <= b.npd < 1.0
    assert math.exp(-1.0) < b.npos_penal <= 1.0
    assert abs(b.npos_penal - math.exp(-b.npd)) <= 1e-12
    assert 0.0 <= b.precision <= 1.0
    assert 0.0 <= b.recall <= 1.0
    assert 0.0 <= b.hpr <= 1.0
    assert 0.0 <= b.score <= 1.0
    if b.lp > 0.0 and b.hpr > 0.0:
        assert min(b.lp, b.npos_penal, b.hpr) - 1e-12 <= b.score
        assert b.score <= max(b.lp, b.npos_penal, b.hpr) + 1e-12
    if b.hpr > 0.0:
        assert min(b.precision, b.recall) - 1e-12 <= b.hpr <= max(b.precision, b.recall) + 1e-12


@given(st.permutations(list(range(6))))
def test_permutation_never_beats_identity_order(perm):
    ref = ["t0", "t1", "t2", "t3", "t4", "t5"]
    hyp = [ref[i] for i in perm]
    permuted = hlepor_sentence(hyp, ref)
    identity = hlepor_sentence(ref, ref)
    assert permuted.npos_penal <= identity.npos_penal


# --- corpus scoring ---------------------------------------------------------

def test_corpus_identical_pairs_score_100():
    pairs = [(["a", "b"], ["a", "b"])] * 3
    assert hlepor_corpus(pairs) == 100.0


def test_corpus_is_mean_of_sentences():
    pairs = [
        (["the", "cat"], ["the", "cat", "sat"]),
        (["a"], ["a", "b"]),
    ]
    s1 = hlepor_sentence(*pairs[0]).score
    s2 = hlepor_sentence(*pairs[1]).score
    assert hlepor_corpus(pairs) == pytest.approx((s1 + s2) / 2 * 100.0, abs=1e-12)


def test_corpus_recomputation_over_random_pairs():
    import random

    rng = random.Random(7)
    vocab = ["the", "cat", "sat", "on", "mat", "dog", "ran"]
    pairs = []
    for _ in range(50):
        hyp = [rng.choice(vocab) for _ in range(rng.randint(1, 10))]
        ref = [rng.choice(vocab) for _ in range(rng.randint(1, 10))]
        pairs.append((hyp, ref))
    expected = sum(hlepor_sentence(h, r).score for h, r in pairs) / len(pairs) * 100.0
    assert hlepor_corpus(pairs) == pytest.approx(expected, abs=1e-9)


def test_corpus_empty_is_error():
    with pytest.raises(InputError):
        hlepor_corpus([])


def test_corpus_of_empty_pairs_scores_100():
    assert hlepor_corpus([((), ())]) == 100.0
    assert hlepor_corpus([((), ())] * 3) == 100.0


# --- presets ----------------------------------------------------------------

def test_preset_en_de():
    p = preset("en-de")
    assert (p.alpha, p.beta, p.n, p.w_lp, p.w_npp, p.w_hpr) == (9.0, 1.0, 2, 3.0, 7.0, 1.0)


def test_preset_es_en():
    p = preset("es-en")
    assert (p.alpha, p.beta, p.n, p.w_lp, p.w_npp, p.w_hpr) == (1.0, 9.0, 2, 2.0, 1.0, 7.0)


def test_preset_en_es():
    p = preset("en-es")
    assert (p.alpha, p.beta, p.n, p.w_lp, p.w_npp, p.w_hpr) == (9.0, 1.0, 2, 2.0, 1.0, 3.0)


def test_preset_unknown_lists_options():
    with pytest.raises(InputError, match="en-de"):
        preset("en-zz")


def test_preset_covers_documented_pairs():
    assert sorted(PRESETS) == [
        "cs-en", "de-en", "en-cs", "en-de", "en-es", "en-fr", "en-ru",
        "es-en", "fr-en", "ru-en",
    ]


def test_params_validation():
    with pytest.raises(ValueError):
        HleporParams(alpha=0.0)
    with pytest.raises(ValueError):
        HleporParams(n=0)


# Weights are bounded to [1e-300, 1e300]: below, alpha * precision rounded to
# zero and hpr divided by zero; above, the weight sums overflowed to nan.
@pytest.mark.parametrize("value", [5e-324, 1e-301, 1e301, 1e308])
def test_params_outside_range_rejected(value):
    for name in ("alpha", "beta", "w_lp", "w_npp", "w_hpr"):
        with pytest.raises(ValueError, match=name):
            HleporParams(**{name: value})


@pytest.mark.parametrize("value", [1e-300, 1e300])
def test_params_at_range_edges_score_finite(value):
    params = HleporParams(value, value, 2, value, value, value)
    for hyp, ref in ((["the", "the"], ["the", "cat"]), (["a"], ["a"]), (["a"], ["b", "a"])):
        score = hlepor_sentence(hyp, ref, params).score
        assert 0.0 <= score <= 1.0
