"""Metamorphic properties of the public metric functions.

Tokens are plain sequences of str: a ``tokenize`` result, a tuple and a list
holding the same tokens must give the same result everywhere. Scores depend
only on which tokens are equal, not on what they are; a segment scores the
same alone as inside a corpus; and an identity pair scores the maximum.
"""

from hypothesis import given, settings, strategies as st

import mtmetrics
from mtmetrics.evalharness import METRICS, EvalConfig, evaluate_pairs
from mtmetrics.hlepor import align, hlepor_sentence
from mtmetrics.lexmetrics import MeteorParams, lcs_length, meteor_exact, rouge_l_f1
from mtmetrics.textnorm import TokenizerConfig, extract_ngrams, tokenize

VOCAB = ("a", "b", "c", "d", "e")
# Relabelling targets: multi-character, non-ASCII and reused source forms, so
# a relabelling changes lengths, sort order and which code each form gets.
TARGETS = ("zz", "ß", "b", "a", "Ωx")
# Pre-tokenized text, kept as written, so text and tokens map one to one.
PRETOKENIZED = EvalConfig(tokenizer=TokenizerConfig("none", lowercase=False),
                          segment_bleu=True)

tokens = st.lists(st.sampled_from(VOCAB), max_size=12)
nonempty_tokens = st.lists(st.sampled_from(VOCAB), min_size=1, max_size=12)
# Hypotheses are non-empty, so no pair is empty on both sides and BLEU
# always has a hypothesis token.
corpora = st.lists(st.tuples(nonempty_tokens, tokens), min_size=1, max_size=6)


def _run(pairs):
    hyps = [" ".join(h) for h, _ in pairs]
    refs = [" ".join(r) for _, r in pairs]
    return evaluate_pairs(hyps, refs, METRICS, PRETOKENIZED)


def _longest_chunk(pairs):
    longest = run = 0
    previous = None
    for h, r in pairs:
        run = run + 1 if previous == (h - 1, r - 1) else 1
        longest = max(longest, run)
        previous = (h, r)
    return longest


@settings(max_examples=200, deadline=None)
@given(tokens, tokens, st.integers(1, 4))
def test_tokenize_result_tuple_and_list_agree(hyp, ref, n):
    config = TokenizerConfig("none", lowercase=False)
    forms = [
        (tokenize(" ".join(hyp), config), tokenize(" ".join(ref), config)),
        (tuple(hyp), tuple(ref)),
        (list(hyp), list(ref)),
    ]
    results = []
    for h, r in forms:
        results.append((
            align(h, r),
            hlepor_sentence(h, r) if h or r else None,
            meteor_exact(h, r),
            rouge_l_f1(h, r),
            lcs_length(h, r),
            extract_ngrams(h, n),
        ))
    assert results[0] == results[1] == results[2]


@settings(max_examples=100, deadline=None)
@given(corpora, st.permutations(TARGETS))
def test_scores_unchanged_under_consistent_relabelling(pairs, targets):
    relabel = dict(zip(VOCAB, targets))
    relabelled = [([relabel[t] for t in h], [relabel[t] for t in r]) for h, r in pairs]
    before = _run(pairs).metrics
    after = _run(relabelled).metrics
    assert after == before


@settings(max_examples=100, deadline=None)
@given(corpora)
def test_segment_alone_equals_its_corpus_row(pairs):
    corpus = _run(pairs).metrics
    for index, pair in enumerate(pairs):
        alone = _run([pair]).metrics
        for metric_id in METRICS:
            assert alone[metric_id].segments == (corpus[metric_id].segments[index],)


@settings(max_examples=300, deadline=None)
@given(tokens, tokens)
def test_lcs_at_least_longest_meteor_chunk(hyp, ref):
    assert lcs_length(hyp, ref) >= _longest_chunk(align(hyp, ref).pairs)


@settings(max_examples=200, deadline=None)
@given(tokens, tokens)
def test_identity_pair_scores_the_maximum(ref, other):
    assert hlepor_sentence(ref, ref).score == 1.0
    assert rouge_l_f1(ref, ref).f1 == 1.0
    # METEOR keeps a fragmentation penalty for the one chunk of a non-empty
    # identity pair; no hypothesis scores higher against the same reference.
    params = MeteorParams()
    identity = meteor_exact(ref, ref, params)
    assert identity == (1.0 - params.gamma * (1 / len(ref)) ** params.beta if ref else 1.0)
    assert meteor_exact(other, ref, params) <= identity
    assert hlepor_sentence(other, ref).score <= 1.0
    assert rouge_l_f1(other, ref).f1 <= 1.0
    # Corpus BLEU needs a hypothesis token, which the second pair supplies.
    if not ref or len(ref) >= PRETOKENIZED.max_n:  # every order has an n-gram to match
        segments = _run([(ref, ref), (VOCAB, VOCAB)]).metrics["bleu"].segments
        assert segments[0] == 100.0


def test_every_exported_name_resolves():
    for name in mtmetrics.__all__:
        assert hasattr(mtmetrics, name), name
    assert len(set(mtmetrics.__all__)) == len(mtmetrics.__all__)
