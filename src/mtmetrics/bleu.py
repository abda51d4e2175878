"""Corpus BLEU under fixed, disclosed settings.

Modified n-gram precisions are clipped per segment against the single
reference and pooled over the corpus; the score is the brevity penalty
times the geometric mean of the per-order precisions (0-100 scale).
``BleuReport`` is a statistics record and carries no signature: the settings
that produced a score are disclosed by the one run signature that
``evalharness.run_signature`` writes, because a BLEU number without its
configuration cannot be reproduced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InputError
from .textnorm import TokenizerConfig, extract_ngrams, tokenize

SMOOTHINGS = ("none", "add-k", "exp")

#: Highest n-gram order ``BleuConfig`` accepts. Reports print one precision
#: per order, and orders far above the usual 4 only pad them with zeros.
MAX_ORDER = 20


@dataclass(frozen=True)
class BleuConfig:
    """Maximum n-gram order, smoothing for zero-count orders, tokenizer."""

    max_n: int = 4
    smoothing: str = "none"
    smooth_k: float = 1.0
    tokenizer: TokenizerConfig = TokenizerConfig()

    def __post_init__(self) -> None:
        if not 1 <= self.max_n <= MAX_ORDER:
            raise ValueError(f"max_n must be between 1 and {MAX_ORDER}, got {self.max_n}")
        if self.smoothing not in SMOOTHINGS:
            raise ValueError(
                f"unknown smoothing {self.smoothing!r}; expected one of {SMOOTHINGS}"
            )
        if not (math.isfinite(self.smooth_k) and self.smooth_k > 0):
            raise ValueError(f"smooth_k must be finite and > 0, got {self.smooth_k}")


@dataclass(frozen=True)
class BleuReport:
    """Per-order precisions (0-100), brevity penalty, overall score, token
    totals and clipped-count sufficient statistics."""

    precisions: tuple[float, ...]
    bp: float
    score: float
    hyp_tokens: int
    ref_tokens: int
    correct: tuple[int, ...]
    total: tuple[int, ...]


def _smoothed_precisions(correct: Sequence[int], total: Sequence[int],
                         config: BleuConfig) -> list[float]:
    precisions = []
    doubling = 1.0
    for n in range(1, config.max_n + 1):
        c, t = correct[n - 1], total[n - 1]
        if config.smoothing == "add-k" and n > 1:
            # Lin & Och style: pad numerator and denominator of every order
            # above 1, zero matches or not.
            p = 100.0 * (c + config.smooth_k) / (t + config.smooth_k)
        elif c == 0 and config.smoothing == "exp":
            doubling *= 2.0
            p = 100.0 / (doubling * max(t, 1))
        elif t == 0:
            p = 0.0
        else:
            p = 100.0 * c / t
        precisions.append(p)
    return precisions


def bleu_corpus(hyps: Iterable[str], refs: Iterable[str],
                config: BleuConfig | None = None) -> BleuReport:
    """Score a corpus of raw text segments against line-aligned references.

    Tokenization happens internally, per the config, so detokenized system
    output and reference text are handled identically.
    """
    if config is None:
        config = BleuConfig()
    hyp_list = list(hyps)
    ref_list = list(refs)
    if len(hyp_list) != len(ref_list):
        raise InputError(
            f"corpus size mismatch: {len(hyp_list)} hypothesis segments vs "
            f"{len(ref_list)} reference segments"
        )
    if not hyp_list:
        raise InputError("empty corpus")

    correct = [0] * config.max_n
    total = [0] * config.max_n
    hyp_tokens = 0
    ref_tokens = 0
    for hyp_text, ref_text in zip(hyp_list, ref_list):
        hyp_seq = tokenize(hyp_text, config.tokenizer)
        ref_seq = tokenize(ref_text, config.tokenizer)
        hyp_tokens += len(hyp_seq)
        ref_tokens += len(ref_seq)
        for n in range(1, config.max_n + 1):
            hyp_counts = extract_ngrams(hyp_seq, n)
            if not hyp_counts:
                break  # shorter orders already empty implies longer ones are
            ref_counts = extract_ngrams(ref_seq, n)
            total[n - 1] += len(hyp_seq) - n + 1  # one n-gram per window
            correct[n - 1] += sum(
                min(count, ref_counts.get(gram, 0))
                for gram, count in hyp_counts.items()
            )
    if hyp_tokens == 0:
        raise InputError("all hypothesis segments are empty")

    precisions = _smoothed_precisions(correct, total, config)
    if hyp_tokens >= ref_tokens:
        bp = 1.0
    else:
        bp = math.exp(1.0 - ref_tokens / hyp_tokens)
    if min(precisions) == 0.0:
        score = 0.0
    else:
        # Summed left to right: from Python 3.12 on, sum() of floats
        # compensates for rounding, which changes the score's last digits.
        log_sum = 0.0
        for p in precisions:
            log_sum += math.log(p)
        mean_log = log_sum / config.max_n
        # Mathematically <= 100; the clamp only absorbs exp/log round-trip.
        score = min(100.0, bp * math.exp(mean_log))
    return BleuReport(
        precisions=tuple(precisions),
        bp=bp,
        score=score,
        hyp_tokens=hyp_tokens,
        ref_tokens=ref_tokens,
        correct=tuple(correct),
        total=tuple(total),
    )
