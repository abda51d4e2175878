"""ROUGE-L F1 and exact-match METEOR.

ROUGE-L scores the longest common subsequence (not necessarily contiguous)
between hypothesis and reference. METEOR here runs the exact surface-match
stage only: unigram precision/recall over the same optimal alignment hLEPOR
uses, discounted by a fragmentation penalty over matched chunks. It is
named ``meteor_exact`` precisely because the stem/synonym/paraphrase stages
of the full tool are not implemented.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from . import _kernels
from .errors import _checked, _is_number
from .hlepor import align


class RougeLScore(NamedTuple):
    precision: float
    recall: float
    f1: float
    lcs_len: int


@_checked
class MeteorParams(NamedTuple):
    """Recall weight alpha, fragmentation exponent beta, penalty weight gamma."""

    alpha: float = 0.9
    beta: float = 3.0
    gamma: float = 0.5

    def _check(self) -> None:
        for name, value in zip(self._fields, self):
            if not _is_number(value):
                raise ValueError(f"{name} must be an int or a float, got {value!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise ValueError(f"beta must be finite and > 0, got {self.beta}")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma must be in [0, 1), got {self.gamma}")


def lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    """Length of the longest common subsequence of two token sequences."""
    if not a or not b:
        return 0
    return _kernels.lcs_length_codes(_kernels.Codes(a), _kernels.Codes(b))


def rouge_l_f1(hyp: Sequence[str], ref: Sequence[str]) -> RougeLScore:
    """LCS-based precision, recall and F1. Two empty segments count as a
    perfect match so the function is total."""
    if not hyp and not ref:
        return RougeLScore(1.0, 1.0, 1.0, 0)
    lcs = lcs_length(hyp, ref)
    precision = lcs / len(hyp) if hyp else 0.0
    recall = lcs / len(ref) if ref else 0.0
    if precision + recall == 0.0:
        f1 = 0.0
    else:
        f1 = 2.0 * precision * recall / (precision + recall)
    return RougeLScore(precision, recall, f1, lcs)


def _chunk_count(alignment: tuple[tuple[int, int], ...]) -> int:
    # A chunk extends while matches are adjacent in the hypothesis and their
    # reference positions advance by exactly one.
    ref_at = dict(alignment)
    chunks = 0
    for h, r in alignment:  # sorted by hypothesis position
        if ref_at.get(h - 1) != r - 1:
            chunks += 1
    return chunks


def meteor_exact(hyp: Sequence[str], ref: Sequence[str],
                 params: MeteorParams = MeteorParams()) -> float:
    """Exact-surface-match METEOR score in [0, 1]. Zero matches score 0,
    except that two empty segments are a perfect match and score 1."""
    alignment = align(hyp, ref)
    matched = len(alignment)
    if matched == 0:
        return 0.0 if hyp or ref else 1.0
    precision = matched / len(hyp)
    recall = matched / len(ref)
    f_mean = precision * recall / (
        params.alpha * precision + (1.0 - params.alpha) * recall
    )
    chunks = _chunk_count(alignment)
    penalty = params.gamma * (chunks / matched) ** params.beta
    return f_mean * (1.0 - penalty)
