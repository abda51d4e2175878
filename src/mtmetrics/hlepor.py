"""hLEPOR: a weighted harmonic combination of a sentence length penalty, a
position-difference penalty over an exact token alignment, and the weighted
harmonic mean of unigram precision and recall.

The alignment here is the exact optimum: among all maximum-cardinality
matchings over equal surface forms it minimizes the total normalized
position difference, with ties broken toward the lexicographically smallest
pair list. Because edges only connect equal surface forms, the optimum
decomposes per form, where an order-preserving assignment is optimal and
only the occurrence-subset choice needs a small DP (see ``_kernels``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import _kernels
from .errors import InputError


@dataclass(frozen=True)
class HleporParams:
    """The six hLEPOR hyper-parameters.

    alpha and beta weight recall vs precision inside the harmonic
    precision/recall factor; w_lp, w_npp and w_hpr weight the three outer
    components. n is the context-window order carried by the tuned presets;
    under the exact alignment used here it does not alter scores. The five
    weights lie in [1e-300, 1e300], so that their sums and their products
    with precision and recall neither overflow nor round to zero.
    """

    alpha: float = 9.0
    beta: float = 1.0
    n: int = 2
    w_lp: float = 2.0
    w_npp: float = 1.0
    w_hpr: float = 3.0

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "w_lp", "w_npp", "w_hpr"):
            value = getattr(self, name)
            if not 1e-300 <= value <= 1e300:
                raise ValueError(f"{name} must be between 1e-300 and 1e300, got {value}")
        if self.n < 1:
            raise ValueError("n must be >= 1")


# Manually tuned per-language-pair defaults, as (alpha, beta, n, w_lp,
# w_npp, w_hpr). The widest preset is the default tuple.
_EN_TO_CS_RU = HleporParams(9.0, 1.0, 2, 2.0, 1.0, 7.0)
_EN_TO_DE = HleporParams(9.0, 1.0, 2, 3.0, 7.0, 1.0)
_X_TO_EN = HleporParams(1.0, 9.0, 2, 2.0, 1.0, 7.0)
_WIDE = HleporParams()

PRESETS = {
    "en-cs": _EN_TO_CS_RU,
    "en-ru": _EN_TO_CS_RU,
    "en-de": _EN_TO_DE,
    "cs-en": _X_TO_EN,
    "es-en": _X_TO_EN,
    "ru-en": _X_TO_EN,
    "de-en": _WIDE,
    "fr-en": _WIDE,
    "en-es": _WIDE,
    "en-fr": _WIDE,
}


def preset(language_pair: str) -> HleporParams:
    """Tuned parameters for a language pair such as ``en-de`` or ``es-en``."""
    try:
        return PRESETS[language_pair]
    except KeyError:
        raise InputError(
            f"unknown language pair {language_pair!r}; available presets: "
            + ", ".join(sorted(PRESETS))
        ) from None


class AlignmentMap(tuple):
    """Injective matching of equal tokens, as a tuple of (hyp_index,
    ref_index) pairs sorted by hypothesis position. ``pairs`` returns the
    tuple itself; it stays while ``perfbench`` reads ``align(...).pairs``."""

    __slots__ = ()

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return self


@dataclass(frozen=True)
class HleporBreakdown:
    lp: float
    npd: float
    npos_penal: float
    precision: float
    recall: float
    hpr: float
    score: float


def length_penalty(hyp_len: int, ref_len: int) -> float:
    """Exponential penalty for a length mismatch; 1 when lengths agree.

    One empty side gives the limit value 0; comparing two empty segments is
    an error.
    """
    if hyp_len == 0 and ref_len == 0:
        raise ValueError("cannot compare two empty segments")
    if hyp_len == 0 or ref_len == 0:
        return 0.0
    return math.exp(1.0 - max(hyp_len, ref_len) / min(hyp_len, ref_len))


def align(hyp: Sequence[str], ref: Sequence[str]) -> AlignmentMap:
    """Best exact-token alignment between hypothesis and reference.

    Maximum cardinality first; among those, minimum total normalized
    position difference sum(|i/len_hyp - j/len_ref|); remaining ties go to
    the lexicographically smallest sorted pair list.
    """
    lh, lr = len(hyp), len(ref)
    hyp_pos: dict[str, list[int]] = {}
    for i, tok in enumerate(hyp):
        hyp_pos.setdefault(tok, []).append(i)
    ref_pos: dict[str, list[int]] = {}
    for j, tok in enumerate(ref):
        ref_pos.setdefault(tok, []).append(j)

    pairs: list[tuple[int, int]] = []
    for form, hp in hyp_pos.items():
        rp = ref_pos.get(form)
        if rp is None:
            continue
        if len(hp) == len(rp):
            pairs.extend(zip(hp, rp))
            continue
        # Costs |i/lh - j/lr| over the common denominator lh*lr keep the DP in
        # exact integers; the side with fewer occurrences goes into the other.
        hyp_codes = _kernels.Codes(i * lr for i in hp)
        ref_codes = _kernels.Codes(j * lh for j in rp)
        if len(hp) < len(rp):
            chosen = zip(hp, map(rp.__getitem__, _kernels.ordered_selection(hyp_codes, ref_codes)))
        else:
            chosen = zip(map(hp.__getitem__, _kernels.ordered_selection(ref_codes, hyp_codes)), rp)
        pairs.extend(chosen)
    pairs.sort()
    return AlignmentMap(pairs)


def npd(alignment: AlignmentMap, hyp_len: int, ref_len: int) -> float:
    """Normalized position difference: sum over matched pairs of
    |pos_h/hyp_len - pos_r/ref_len| with 1-based positions, divided by the
    hypothesis length. Unmatched tokens contribute nothing.
    """
    if hyp_len == 0 or not alignment:
        return 0.0
    total = math.fsum(
        abs((i + 1) / hyp_len - (j + 1) / ref_len) for i, j in alignment
    )
    return total / hyp_len


def hpr(aligned_num: int, hyp_len: int, ref_len: int,
        alpha: float, beta: float) -> float:
    """Weighted harmonic mean of unigram precision and recall."""
    if aligned_num == 0:
        return 0.0
    precision = aligned_num / hyp_len
    recall = aligned_num / ref_len
    return ((alpha + beta) * precision * recall) / (alpha * precision + beta * recall)


def hlepor_sentence(hyp: Sequence[str], ref: Sequence[str],
                    params: HleporParams | None = None) -> HleporBreakdown:
    """Sentence score with the full component breakdown.

    The score is the weighted harmonic mean of the three components; if any
    component is zero the score is zero rather than an infinity. Two empty
    segments are a perfect match: every component and the score are 1.
    """
    if params is None:
        params = HleporParams()
    lh, lr = len(hyp), len(ref)
    # Aligned before the empty check, so that every sentence runs exactly one
    # alignment, as perfbench's traced call counts expect.
    alignment = align(hyp, ref)
    if lh == 0 and lr == 0:
        return HleporBreakdown(lp=1.0, npd=0.0, npos_penal=1.0, precision=1.0,
                               recall=1.0, hpr=1.0, score=1.0)
    lp = length_penalty(lh, lr)
    npd_value = npd(alignment, lh, lr)
    npos_penal = math.exp(-npd_value)
    matched = len(alignment)
    precision = matched / lh if lh else 0.0
    recall = matched / lr if lr else 0.0
    hpr_value = hpr(matched, lh, lr, params.alpha, params.beta)
    if lp == 0.0 or hpr_value == 0.0:
        score = 0.0
    else:
        score = (params.w_lp + params.w_npp + params.w_hpr) / (
            params.w_lp / lp + params.w_npp / npos_penal + params.w_hpr / hpr_value
        )
    return HleporBreakdown(
        lp=lp,
        npd=npd_value,
        npos_penal=npos_penal,
        precision=precision,
        recall=recall,
        hpr=hpr_value,
        score=score,
    )


def hlepor_corpus(pairs: Iterable[tuple[Sequence[str], Sequence[str]]],
                  params: HleporParams | None = None) -> float:
    """Corpus score on a 0-100 scale: the mean of the sentence scores."""
    if params is None:
        params = HleporParams()
    scores = [hlepor_sentence(h, r, params).score for h, r in pairs]
    if not scores:
        raise InputError("empty corpus")
    return 100.0 * math.fsum(scores) / len(scores)
