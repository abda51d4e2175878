"""Seeded synthetic corpora for the benchmark.

Every workload is a reference file plus hypothesis files for two systems
(A and B) and a score table for ``matrix``, all made from the seed with
``random.Random`` only: no downloads, no byte-order marks, and the same seed
always gives the same bytes.

Workloads (sizes in ``WORKLOADS``):

``news``
    News-like prose: Zipf vocabulary of 8000 words, sentence case,
    punctuation, digits, ``&amp;``, ``12,000``, ``5-6`` and ``don't`` so every
    13a rule fires. Every reference string is distinct. The work spreads over
    all layers.
``long-rep``
    Long segments over 40 forms, six of which make 13a rules fire
    (``12,000``, ``5-6``, ``don't``, ``&amp;``...), plus the adversarial
    pairs: one 2000-token pair, and one form repeated 500 times against
    1000 occurrences. The alignment and LCS kernels dominate.
``short``
    Segments of 0-3 tokens over 24 words, most of them repeated. No pair
    has both sides empty. Per-call overhead and repeated inputs dominate,
    and the score table for ``matrix`` is large.

Reference lengths follow a fixed profile and only the content depends on
the seed, so the amount of work barely changes from seed to seed.
"""

from __future__ import annotations

import bisect
import itertools
import random
from collections import Counter
from dataclasses import dataclass

_ONSETS = ["b", "br", "c", "ch", "d", "f", "g", "gr", "h", "j", "k", "l", "m",
           "n", "p", "pl", "r", "s", "sh", "st", "t", "tr", "v", "w", "z"]
_VOWELS = ["a", "e", "i", "o", "u", "ai", "ea", "ou"]
_CODAS = ["", "", "n", "r", "s", "t", "l", "nd", "st", "ck"]

# Tokens that make each 13a rule fire: entity unescaping, split characters,
# digit-sensitive period/comma/dash handling, and an apostrophe.
_SPECIALS = ["12,000", "5-6", "3.5", "don't", "&amp;", "$40", "U.S.", "2019",
             "(", ")", "\"", "%", ":", ";", "&quot;yes&quot;", "x&lt;y"]
_PUNCT_END = [".", ".", ".", "!", "?", ":"]
_LONG_SPECIALS = _SPECIALS[:6]


@dataclass(frozen=True)
class Workload:
    segments: int         # generated segment pairs (adversarial pairs extra)
    tasks: int            # tasks in the matrix score table
    why: str


TABLE_SYSTEMS = 16


# Sizes are set so that one round of every timed CLI command takes about
# four seconds on a 2-core host, which leaves about ten rounds per run.
WORKLOADS = {
    "news": Workload(
        250, 120,
        "250 distinct news-like segments of ~28 tokens hitting every 13a rule: "
        "the typical test set, work spread over all layers"),
    "long-rep": Workload(
        6, 120,
        "6 segments of 200-2000 tokens over 40 forms plus a 2000-token pair and a "
        "500-vs-1000 repeated form: the alignment and LCS kernels dominate"),
    "short": Workload(
        2000, 1500,
        "2000 segments of 0-3 tokens over 24 words, mostly repeated, and a 96k-row "
        "matrix table: per-call overhead and repeated inputs dominate"),
}


def _pseudo_words(rng: random.Random, count: int) -> list[str]:
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < count:
        syllables = rng.choice((1, 2, 2, 2, 3, 3, 4))
        word = "".join(
            rng.choice(_ONSETS) + rng.choice(_VOWELS) + rng.choice(_CODAS)
            for _ in range(syllables)
        )
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


class _Zipf:
    """Draws words with probability proportional to 1 / rank**s."""

    def __init__(self, rng: random.Random, words: list[str], s: float = 1.1):
        self.rng = rng
        self.words = words
        self.cum = list(itertools.accumulate(1.0 / (r ** s) for r in range(1, len(words) + 1)))

    def draw(self) -> str:
        x = self.rng.random() * self.cum[-1]
        return self.words[bisect.bisect_right(self.cum, x)]


def _perturb(rng: random.Random, tokens: list[str], rate: float, draw) -> list[str]:
    """Substitute (odds 0.4 x rate), delete (0.2 x rate) or follow with an
    inserted token (0.2 x rate) each token, then swap 0.2 x rate x length
    neighbouring pairs."""
    out: list[str] = []
    for tok in tokens:
        r = rng.random()
        if r < rate * 0.4:
            out.append(draw())
        elif r < rate * 0.6:
            continue
        elif r < rate * 0.8:
            out.append(tok)
            out.append(draw())
        else:
            out.append(tok)
    for _ in range(int(len(out) * rate * 0.2)):
        if len(out) >= 2:
            i = rng.randrange(len(out) - 1)
            out[i], out[i + 1] = out[i + 1], out[i]
    return out


def _news(rng: random.Random, n: int):
    zipf = _Zipf(rng, _pseudo_words(rng, 8000))

    def draw() -> str:
        if rng.random() < 0.06:
            return rng.choice(_SPECIALS)
        if rng.random() < 0.05:
            return ","
        return zipf.draw()

    def sentence(tokens: list[str]) -> str:
        if not tokens:
            return ""
        first = tokens[0]
        tokens = [first[:1].upper() + first[1:]] + tokens[1:]
        # Sentence-final punctuation is glued to the last word, as in raw text.
        return " ".join(tokens) + rng.choice(_PUNCT_END)

    # About 5% headline-length segments, so the brute-force oracles can check
    # some segments exactly; the rest centre on 28 tokens. The length profile
    # is the same for every seed.
    profile = random.Random("news-lengths")
    lengths = [profile.randint(2, 6) if profile.random() < 0.05
               else max(8, min(60, int(profile.gauss(29, 8)))) for _ in range(n)]
    refs: list[str] = []
    hyp_a: list[str] = []
    hyp_b: list[str] = []
    seen: set[str] = set()
    for length in lengths:
        while True:
            tokens = [draw() for _ in range(length)]
            ref = sentence(tokens)
            if ref not in seen:
                break
        seen.add(ref)
        refs.append(ref)
        hyp_a.append(sentence(_perturb(rng, tokens, 0.30, draw)))
        hyp_b.append(sentence(_perturb(rng, tokens, 0.22, draw)))
    return refs, hyp_a, hyp_b


def _long_rep(rng: random.Random, n: int):
    forms = _pseudo_words(rng, 40 - len(_LONG_SPECIALS)) + _LONG_SPECIALS

    def draw() -> str:
        return rng.choice(forms)

    refs: list[list[str]] = []
    hyp_a: list[list[str]] = []
    hyp_b: list[list[str]] = []
    for i in range(n):
        length = int(round(200 * 10 ** ((i + 0.5) / n)))  # log-spaced, 200..2000
        tokens = [draw() for _ in range(length)]
        refs.append(tokens)
        hyp_a.append(_perturb(rng, tokens, 0.30, draw))
        hyp_b.append(_perturb(rng, tokens, 0.20, draw))
    # Adversarial pair 1: 2000 tokens on each side (plain words only, as a
    # special form tokenizes to several tokens).
    words = forms[:-len(_LONG_SPECIALS)]
    tokens = [rng.choice(words) for _ in range(2000)]
    refs.append(tokens)
    hyp_a.append([rng.choice(words) for _ in range(2000)])
    hyp_b.append(_perturb(rng, tokens, 0.20, lambda: rng.choice(words)))
    # Adversarial pair 2: one form 500 times in the hypothesis against 1000
    # occurrences in the reference, the worst case for occurrence selection.
    rep = forms[0]
    others = forms[1:]
    ref = [rep] * 1000 + [rng.choice(others) for _ in range(200)]
    rng.shuffle(ref)
    hyp = [rep] * 500 + [rng.choice(others) for _ in range(200)]
    rng.shuffle(hyp)
    refs.append(ref)
    hyp_a.append(hyp)
    hyp_b.append(list(hyp))
    join = " ".join
    return [join(t) for t in refs], [join(t) for t in hyp_a], [join(t) for t in hyp_b]


def _short(rng: random.Random, n: int):
    zipf = _Zipf(rng, _pseudo_words(rng, 24))

    def segment(length: int) -> list[str]:
        return [zipf.draw() for _ in range(length)]

    lengths = [i % 4 for i in range(n)]  # as many of each length 0..3
    rng.shuffle(lengths)
    refs: list[str] = []
    hyp_a: list[str] = []
    hyp_b: list[str] = []
    for length in lengths:
        ref = segment(length)
        refs.append(" ".join(ref))
        # An empty reference gets a non-empty hypothesis, so no pair has both
        # sides empty (hLEPOR rejects such a pair).
        low = 1 if not ref else 0
        hyp_a.append(" ".join(ref if ref and rng.random() < 0.3
                              else segment(rng.randint(low, 3))))
        hyp_b.append(" ".join(ref if ref and rng.random() < 0.5
                              else segment(rng.randint(low, 3))))
    return refs, hyp_a, hyp_b


def score_table(rng: random.Random, systems: int, tasks: int) -> dict:
    """A complete (system, task, metric) table with occasional exact ties."""
    rows = []
    for t in range(tasks):
        for metric, scale in (("BLEU", 100), ("hLEPOR", 100), ("METEOR", 1), ("ROUGE-L", 1)):
            for s in range(systems):
                value = round(rng.random() * scale, 2 if scale == 100 else 4)
                rows.append({"system": f"sys{s:02d}", "task": f"task{t:04d}",
                             "metric": metric, "value": value})
    return {"rows": rows}


def generate(workload: str, seed: int) -> dict:
    """Return {"ref", "hyp_a", "hyp_b"} line lists and the "table" dict."""
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    make = {"news": _news, "long-rep": _long_rep, "short": _short}[workload]
    refs, hyp_a, hyp_b = make(rng, spec.segments)
    table = score_table(rng, TABLE_SYSTEMS, spec.tasks)
    return {"ref": refs, "hyp_a": hyp_a, "hyp_b": hyp_b, "table": table}


def properties(data: dict, tokenize) -> dict:
    """Facts about a generated corpus that performance claims must cite.

    `tokenize` maps a line to its tokens (the program's default tokenizer).
    """
    facts: dict = {"segments": len(data["ref"]), "table_rows": len(data["table"]["rows"])}
    for side in ("ref", "hyp_a", "hyp_b"):
        lines = data[side]
        tokens = [tokenize(line) for line in lines]
        facts[side] = {
            "tokens": sum(len(t) for t in tokens),
            "distinct_share": len(set(lines)) / len(lines),
            "max_segment_tokens": max(len(t) for t in tokens),
            "max_form_occurrences": max(max(Counter(t).values(), default=0) for t in tokens),
        }
    return facts


if __name__ == "__main__":
    import argparse
    import json
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from mtmetrics.textnorm import tokenize

    parser = argparse.ArgumentParser(description="Print the facts of a generated corpus.")
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    facts = properties(generate(args.workload, args.seed), lambda line: tokenize(line).tokens)
    print(json.dumps(facts, indent=2))
