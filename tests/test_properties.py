"""Metamorphic properties of the public metric functions, and the input
reader and winner matrix checked against their oracles.

Tokens are plain sequences of str: a ``tokenize`` result, a tuple and a list
holding the same tokens must give the same result everywhere. Scores depend
only on which tokens are equal, not on what they are; a segment scores the
same alone as inside a corpus; and an identity pair scores the maximum.
"""

import codecs

import pytest
from hypothesis import given, settings, strategies as st

import mtmetrics
from mtmetrics.errors import InputError
from mtmetrics.evalharness import (
    METRICS,
    EvalConfig,
    ScoreTable,
    evaluate_pairs,
    read_lines,
    winner_matrix,
)
from oracles import UndecodableLine, bf_winner_matrix, ref_read_lines
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


@settings(max_examples=100, deadline=None)
@given(corpora, st.lists(st.sampled_from(METRICS), min_size=1, max_size=4, unique=True))
def test_each_metric_scores_the_same_alone_and_with_others(pairs, metric_ids):
    hyps = [" ".join(h) for h, _ in pairs]
    refs = [" ".join(r) for _, r in pairs]
    together = evaluate_pairs(hyps, refs, metric_ids, PRETOKENIZED).metrics
    assert list(together) == metric_ids
    for metric_id in metric_ids:
        alone = evaluate_pairs(hyps, refs, (metric_id,), PRETOKENIZED).metrics
        assert together[metric_id] == alone[metric_id]


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


# Line ends, byte-order marks, whole multi-byte characters, and bytes that
# never decode: truncated sequences, stray continuation bytes, an encoded
# surrogate and an overlong form.
BYTE_PIECES = (
    codecs.BOM_UTF8, b"\r", b"\n", b"\r\n", b"a", b" ", b"\t",
    "é".encode(), "€".encode(), "😀".encode(), "\u2028".encode(),
    b"\xc3", b"\xe2\x82", b"\xf0\x9f\x98", b"\x80", b"\xff", b"\xed\xa0\x80", b"\xc0\xaf",
)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(BYTE_PIECES), max_size=24))
def test_read_lines_matches_the_per_line_reader(tmp_path_factory, pieces):
    data = b"".join(pieces)
    path = tmp_path_factory.getbasetemp() / "read_lines.txt"
    path.write_bytes(data)
    try:
        expected = ref_read_lines(data)
    except UndecodableLine as exc:
        with pytest.raises(InputError, match=f"undecodable bytes at line {exc.args[0]} "):
            read_lines(path)
    else:
        assert read_lines(path) == expected


# Few labels and values, so that cells go missing and values tie, exactly or
# only after rounding.
VALUES = st.one_of(st.sampled_from((0.0, -0.0, 1.0, 1.05, 1.15, 2.5, -2.5, 38.175, 1e30)),
                   st.floats(-100, 100))
score_rows = st.lists(
    st.tuples(st.sampled_from("ABC"), st.sampled_from(("t1", "t2", "t3", "t4")),
              st.sampled_from(("bleu", "chrf", "ter")), VALUES),
    min_size=1, max_size=30, unique_by=lambda row: row[:3])


@settings(max_examples=500, deadline=None)
@given(score_rows, st.sampled_from((None, 0, 1, 2)))
def test_winner_matrix_matches_the_brute_force_matrix(rows, decimals):
    matrix = winner_matrix(ScoreTable(rows), decimals)
    winners, skipped, agreement, compared = bf_winner_matrix(rows, decimals)
    assert matrix.winners == winners
    assert list(matrix.skipped) == skipped
    assert matrix.agreement == agreement
    assert matrix.compared_tasks == compared
    # Reports print the dicts in insertion order, which must be sorted.
    assert list(matrix.winners) == sorted(matrix.winners)
    assert list(matrix.agreement) == sorted(matrix.agreement)


def test_every_exported_name_resolves():
    for name in mtmetrics.__all__:
        assert hasattr(mtmetrics, name), name
    assert len(set(mtmetrics.__all__)) == len(mtmetrics.__all__)
