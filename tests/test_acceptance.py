"""Acceptance suite.

Each test enforces one acceptance criterion at its stated tolerance and
prints a single PASS line (visible with ``pytest -s``); a failed assert
leaves the line unprinted and the criterion red.
"""

import json
import math
import random

import pytest

from mtmetrics.bleu import BleuConfig, bleu_corpus
from mtmetrics.evalharness import (
    METRICS,
    EvalConfig,
    ScoreTable,
    evaluate_pairs,
    improvement_rate,
    render_report,
    winner_matrix,
)
from mtmetrics.hlepor import (
    PRESETS,
    align,
    hlepor_sentence,
    preset,
)
from mtmetrics.lexmetrics import MeteorParams, lcs_length, meteor_exact, rouge_l_f1
from mtmetrics.textnorm import TokenizerConfig, tokenize
from oracles import bf_best_matching, bf_clipped_counts, bf_lcs, scaled_matching_cost


def ok(line):
    print(f"PASS: {line}")


# --- criterion 1: improvement-rate regression --------------------------------

def test_criterion_1_improvement_rates():
    fixtures = [
        (7.38, 18.46, 150.14),
        (13.93, 24.49, 75.81),
        (36.91, 48.78, 32.16),
        (47.55, 59.92, 26.01),
        (40.05, 44.75, 11.74),
        (37.23, 40.84, 9.70),
        (37.23, 31.88, -14.37),
    ]
    for before, after, expected in fixtures:
        assert improvement_rate(before, after) == expected
    ok("criterion 1: all 7 before/after improvement rates exact at 2 decimals")


# --- criterion 2: winner-matrix regression -----------------------------------

CLINICAL_ROWS = [
    ("clinic-Marian", "Task-1", "SacreBLEU", 38.18),
    ("clinic-Marian", "Task-1", "METEOR", 0.6338),
    ("clinic-Marian", "Task-1", "COMET", 0.4237),
    ("clinic-Marian", "Task-1", "BLEU-HF", 0.3650),
    ("clinic-Marian", "Task-1", "ROUGE-L-F1", 0.6271),
    ("clinic-Marian", "Task-2", "SacreBLEU", 26.87),
    ("clinic-Marian", "Task-2", "METEOR", 0.5885),
    ("clinic-Marian", "Task-2", "COMET", 0.9791),
    ("clinic-Marian", "Task-2", "BLEU-HF", 0.2667),
    ("clinic-Marian", "Task-2", "ROUGE-L-F1", 0.6720),
    ("clinic-Marian", "Task-3", "SacreBLEU", 39.10),
    ("clinic-Marian", "Task-3", "METEOR", 0.6262),
    ("clinic-Marian", "Task-3", "COMET", 0.9495),
    ("clinic-Marian", "Task-3", "BLEU-HF", 0.3675),
    ("clinic-Marian", "Task-3", "ROUGE-L-F1", 0.7688),
    ("clinic-NLLB", "Task-1", "SacreBLEU", 37.74),
    ("clinic-NLLB", "Task-1", "METEOR", 0.6273),
    ("clinic-NLLB", "Task-1", "COMET", 0.4081),
    ("clinic-NLLB", "Task-1", "BLEU-HF", 0.3601),
    ("clinic-NLLB", "Task-1", "ROUGE-L-F1", 0.6193),
    ("clinic-NLLB", "Task-2", "SacreBLEU", 28.57),
    ("clinic-NLLB", "Task-2", "METEOR", 0.5873),
    ("clinic-NLLB", "Task-2", "COMET", 1.0290),
    ("clinic-NLLB", "Task-2", "BLEU-HF", 0.2844),
    ("clinic-NLLB", "Task-2", "ROUGE-L-F1", 0.6710),
    ("clinic-NLLB", "Task-3", "SacreBLEU", 41.63),
    ("clinic-NLLB", "Task-3", "METEOR", 0.6072),
    ("clinic-NLLB", "Task-3", "COMET", 0.9180),
    ("clinic-NLLB", "Task-3", "BLEU-HF", 0.3932),
    ("clinic-NLLB", "Task-3", "ROUGE-L-F1", 0.7477),
]

BLEU_FAMILY = ("SacreBLEU", "BLEU-HF")
LEXICAL_FAMILY = ("METEOR", "ROUGE-L-F1")


def test_criterion_2_winner_matrix():
    matrix = winner_matrix(ScoreTable(list(CLINICAL_ROWS)))
    marian, nllb = "clinic-Marian", "clinic-NLLB"
    for metric in ("SacreBLEU", "METEOR", "COMET", "BLEU-HF", "ROUGE-L-F1"):
        assert matrix.winners[("Task-1", metric)] == marian
    assert matrix.winners[("Task-2", "SacreBLEU")] == nllb
    assert matrix.winners[("Task-2", "COMET")] == nllb
    assert matrix.winners[("Task-2", "BLEU-HF")] == nllb
    assert matrix.winners[("Task-2", "METEOR")] == marian
    assert matrix.winners[("Task-2", "ROUGE-L-F1")] == marian
    assert matrix.winners[("Task-3", "SacreBLEU")] == nllb
    assert matrix.winners[("Task-3", "BLEU-HF")] == nllb
    assert matrix.winners[("Task-3", "METEOR")] == marian
    assert matrix.winners[("Task-3", "COMET")] == marian
    assert matrix.winners[("Task-3", "ROUGE-L-F1")] == marian

    # BLEU-family metrics disagree with METEOR/ROUGE-L exactly on tasks 2-3.
    for bleu_metric in BLEU_FAMILY:
        for lexical_metric in LEXICAL_FAMILY:
            pair = tuple(sorted((bleu_metric, lexical_metric)))
            assert matrix.agreement[pair] == pytest.approx(1 / 3)
            for task in ("Task-2", "Task-3"):
                assert (matrix.winners[(task, bleu_metric)]
                        != matrix.winners[(task, lexical_metric)])
    assert matrix.agreement[tuple(sorted(BLEU_FAMILY))] == 1.0
    assert matrix.agreement[tuple(sorted(LEXICAL_FAMILY))] == 1.0
    ok("criterion 2: published winner pattern and BLEU-family disagreement reproduced")


# --- criterion 3: oracle equivalence -----------------------------------------

def test_criterion_3a_bleu_counts_vs_brute_force():
    rng = random.Random(301)
    vocab = "abcd"
    config = BleuConfig(tokenizer=TokenizerConfig("whitespace", lowercase=False))
    for _ in range(1000):
        segments = rng.randint(1, 5)
        corpus = []
        for _ in range(segments):
            hyp = [rng.choice(vocab) for _ in range(rng.randint(0, 10))]
            ref = [rng.choice(vocab) for _ in range(rng.randint(0, 10))]
            corpus.append((hyp, ref))
        if all(not hyp for hyp, _ in corpus):
            continue
        report = bleu_corpus(
            [" ".join(h) for h, _ in corpus], [" ".join(r) for _, r in corpus], config
        )
        for n in range(1, 5):
            correct, total = bf_clipped_counts(
                [h for h, _ in corpus], [r for _, r in corpus], n
            )
            assert report.correct[n - 1] == correct
            assert report.total[n - 1] == total
    ok("criterion 3a: BLEU clipped counts equal brute-force window counting (1000 corpora)")


def test_criterion_3b_lcs_vs_enumeration():
    rng = random.Random(302)
    vocab = "abc"
    for _ in range(1000):
        a = [rng.choice(vocab) for _ in range(rng.randint(0, 10))]
        b = [rng.choice(vocab) for _ in range(rng.randint(0, 10))]
        assert lcs_length(a, b) == bf_lcs(a, b)
    ok("criterion 3b: LCS length equals exhaustive subsequence enumeration (1000 pairs)")


def test_criterion_3c_alignment_vs_enumeration():
    rng = random.Random(303)
    vocab = "abcd"
    for _ in range(1000):
        hyp = [rng.choice(vocab) for _ in range(rng.randint(0, 8))]
        ref = [rng.choice(vocab) for _ in range(rng.randint(0, 8))]
        result = align(hyp, ref)
        card, cost = bf_best_matching(hyp, ref)
        assert len(result) == card
        assert scaled_matching_cost(result, len(hyp), len(ref)) == cost
    ok("criterion 3c: alignment cardinality and total |PD| equal exhaustive matching (1000 pairs)")


# --- criterion 4: identity values and component bounds ------------------------

def test_criterion_4_identities_and_bounds():
    # Identity values on identical non-empty inputs.
    tokens = [f"w{i}" for i in range(10)]
    text = " ".join(tokens)
    assert hlepor_sentence(tokens, tokens).score == 1.0
    assert abs(bleu_corpus([text], [text]).score - 100.0) < 1e-9
    assert rouge_l_f1(tokens, tokens).f1 == 1.0
    params = MeteorParams()
    expected_meteor = 1.0 - params.gamma / len(tokens) ** params.beta
    assert meteor_exact(tokens, tokens) == pytest.approx(expected_meteor, abs=1e-12)

    # Zero values on token-disjoint inputs.
    left, right = ["aa", "bb", "cc"], ["dd", "ee"]
    assert hlepor_sentence(left, right).score == 0.0
    assert rouge_l_f1(left, right).f1 == 0.0
    assert meteor_exact(left, right) == 0.0
    assert bleu_corpus([" ".join(left)], [" ".join(right)]).score == 0.0

    # Component bounds over 10,000 random pairs.
    rng = random.Random(404)
    vocab = ["the", "cat", "sat", "on", "mat", "dog"]
    e_inv = math.exp(-1.0)
    for _ in range(10000):
        hyp = [rng.choice(vocab) for _ in range(rng.randint(0, 12))]
        ref = [rng.choice(vocab) for _ in range(rng.randint(0, 12))]
        if not hyp and not ref:
            continue
        b = hlepor_sentence(hyp, ref)
        assert 0.0 <= b.lp <= 1.0
        if hyp and ref:
            assert b.lp > 0.0
            assert (b.lp == 1.0) == (len(hyp) == len(ref))
            assert b.lp == hlepor_sentence(ref, hyp).lp  # symmetry
        assert 0.0 <= b.npd < 1.0
        assert e_inv < b.npos_penal <= 1.0
        assert abs(b.npos_penal - math.exp(-b.npd)) <= 1e-12
        assert 0.0 <= b.precision <= 1.0 and 0.0 <= b.recall <= 1.0
        assert 0.0 <= b.hpr <= 1.0
        if b.hpr > 0.0:
            assert min(b.precision, b.recall) - 1e-12 <= b.hpr
            assert b.hpr <= max(b.precision, b.recall) + 1e-12
        assert 0.0 <= b.score <= 1.0
        if hyp == ref:
            assert b.score == 1.0
        else:
            assert b.score < 1.0
        assert (b.score == 0.0) == (b.lp == 0.0 or b.hpr == 0.0)
        if b.score > 0.0:
            components = (b.lp, b.npos_penal, b.hpr)
            assert min(components) - 1e-12 <= b.score <= max(components) + 1e-12
    ok("criterion 4: metric identities and hLEPOR component bounds over 10,000 pairs")


# --- criterion 5: tokenizer fixtures and idempotence --------------------------

def test_criterion_5_tokenizer():
    lc = TokenizerConfig("13a", lowercase=True)
    raw = TokenizerConfig("13a", lowercase=False)
    assert tokenize("Hello, world!", lc) == ("hello", ",", "world", "!")
    assert tokenize("It costs 1,234.5 dollars.", raw) == (
        "It", "costs", "1,234.5", "dollars", ".",
    )
    assert tokenize("a b  c", TokenizerConfig("whitespace", False)) == ("a", "b", "c")
    assert tokenize("3-4 a-b 1,2 x,y 9.9 end.", raw) == (
        "3", "-", "4", "a-b", "1,2", "x", ",", "y", "9.9", "end", ".",
    )

    rng = random.Random(505)
    printable = [chr(c) for c in range(0x20, 0x7F)]
    for _ in range(1000):
        text = "".join(rng.choice(printable) for _ in range(rng.randint(0, 40)))
        for config in (lc, raw):
            once = tokenize(text, config)
            again = tokenize(" ".join(once), config)
            assert once == again
    ok("criterion 5: 13a fixtures byte-exact; idempotent on 1000 random printable strings")


# --- criterion 6: determinism ------------------------------------------------

def synthetic_corpus(segments=1000):
    rng = random.Random(606)
    vocab = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta",
             "theta", "1,234.5", "x-ray"]
    hyps, refs = [], []
    for _ in range(segments):
        ref = [rng.choice(vocab) for _ in range(rng.randint(1, 12))]
        hyp = list(ref)
        if hyp and rng.random() < 0.7:
            hyp[rng.randrange(len(hyp))] = rng.choice(vocab)
        if rng.random() < 0.3:
            hyp.append(rng.choice(vocab))
        rng.shuffle(hyp)
        hyps.append(" ".join(hyp))
        refs.append(" ".join(ref))
    return hyps, refs


def test_criterion_6_determinism():
    hyps, refs = synthetic_corpus(1000)
    config = EvalConfig(segment_bleu=True)
    first = render_report(evaluate_pairs(hyps, refs, METRICS, config), "json")
    repeat = render_report(evaluate_pairs(hyps, refs, METRICS, config), "json")
    assert first == repeat
    json.loads(first)  # stays valid JSON
    ok("criterion 6: repeated runs byte-identical on 1000 segments")


# --- criterion 7: preset fidelity ---------------------------------------------

def test_criterion_7_presets():
    expected = {
        ("en-cs", "en-ru"): (9.0, 1.0, 2.0, 1.0, 7.0),
        ("en-de",): (9.0, 1.0, 3.0, 7.0, 1.0),
        ("cs-en", "es-en", "ru-en"): (1.0, 9.0, 2.0, 1.0, 7.0),
        ("de-en", "fr-en", "en-es", "en-fr"): (9.0, 1.0, 2.0, 1.0, 3.0),
    }
    covered = set()
    for pairs, tup in expected.items():
        for pair in pairs:
            p = preset(pair)
            assert (p.alpha, p.beta, p.w_lp, p.w_npp, p.w_hpr) == tup
            covered.add(pair)
    assert covered == set(PRESETS)
    ok("criterion 7: all four tuned parameter tuples returned exactly")


# --- criterion 8: non-reproducibility of absolute published values ------------

def test_criterion_8_published_absolute_values_not_reproducible():
    # The published per-order precisions (19.64, 10.96, 4.56, 2.00, BP 1.0)
    # do not combine to the published overall 7.38 under the plain geometric
    # mean, so absolute published values cannot anchor regression tests; the
    # suite uses them only for rates, winners, and report formats.
    precisions = (19.64, 10.96, 4.56, 2.00)
    geometric_mean = math.exp(sum(math.log(p) for p in precisions) / 4)
    assert geometric_mean == pytest.approx(6.66, abs=0.01)
    assert abs(geometric_mean - 7.38) > 0.5
    ok("criterion 8: published absolute scores confirmed non-reproducible; "
       "used as rate/winner/format fixtures only")
