"""hLEPOR: a weighted harmonic combination of a sentence length penalty, a
position-difference penalty over an exact token alignment, and the weighted
harmonic mean of unigram precision and recall.

The alignment here is the exact optimum: among all maximum-cardinality
matchings over equal surface forms it minimizes the total normalized
position difference, with ties broken toward the lexicographically smallest
pair list. Because edges only connect equal surface forms, the optimum
decomposes per form, where an order-preserving assignment is optimal and
only the occurrence-subset choice needs a matching on a line: a two-heap
greedy in O((p + q) log q) time and O(p + q) memory that takes the
earliest occurrences on equal cost (see ``_kernels``).
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from . import _kernels
from .errors import InputError, _checked, _is_number


@_checked
class HleporParams(NamedTuple):
    """The five hLEPOR hyper-parameters.

    alpha and beta weight recall vs precision inside the harmonic
    precision/recall factor; w_lp, w_npp and w_hpr weight the three outer
    components. The exact alignment needs no n-gram context window, so the
    context order of the published presets is not a parameter. All five lie
    in [1e-300, 1e300], so that their sums and their products with precision
    and recall neither overflow nor round to zero.
    """

    alpha: float = 9.0
    beta: float = 1.0
    w_lp: float = 2.0
    w_npp: float = 1.0
    w_hpr: float = 3.0

    def _check(self) -> None:
        for name, value in zip(self._fields, self):
            if not _is_number(value):
                raise ValueError(f"{name} must be an int or a float, got {value!r}")
            if not 1e-300 <= value <= 1e300:
                raise ValueError(f"{name} must be between 1e-300 and 1e300, got {value}")


# Manually tuned per-language-pair defaults, as (alpha, beta, w_lp, w_npp,
# w_hpr). The widest preset is the default tuple.
_EN_TO_CS_RU = HleporParams(9.0, 1.0, 2.0, 1.0, 7.0)
_EN_TO_DE = HleporParams(9.0, 1.0, 3.0, 7.0, 1.0)
_X_TO_EN = HleporParams(1.0, 9.0, 2.0, 1.0, 7.0)
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


class HleporBreakdown(NamedTuple):
    """One sentence's hLEPOR score and the components it combines.

    With hypothesis length lh, reference length lr and m aligned pairs
    (i, j), 0-based:

    - lp = exp(1 - max(lh, lr) / min(lh, lr)), the length penalty: 1 when
      the lengths agree, 0 when one side is empty;
    - npd = sum(|(i + 1)/lh - (j + 1)/lr|) / lh, the normalized position
      difference; unmatched tokens contribute nothing;
    - npos_penal = exp(-npd);
    - precision = m / lh and recall = m / lr;
    - hpr = (alpha + beta) * precision * recall
      / (alpha * precision + beta * recall), their weighted harmonic mean;
    - score = (w_lp + w_npp + w_hpr)
      / (w_lp / lp + w_npp / npos_penal + w_hpr / hpr).
    """

    lp: float
    npd: float
    npos_penal: float
    precision: float
    recall: float
    hpr: float
    score: float


def align(hyp: Sequence[str], ref: Sequence[str]) -> tuple[tuple[int, int], ...]:
    """Best exact-token alignment, as (hyp_index, ref_index) pairs of equal
    tokens sorted by hypothesis position, each index used at most once.

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
        # Costs |i/lh - j/lr| over the common denominator lh*lr keep the
        # matching exact in integers; the side with fewer occurrences goes
        # into the other.
        hyp_codes = _kernels.Codes(i * lr for i in hp)
        ref_codes = _kernels.Codes(j * lh for j in rp)
        if len(hp) < len(rp):
            chosen = zip(hp, map(rp.__getitem__, _kernels.ordered_selection(hyp_codes, ref_codes)))
        else:
            chosen = zip(map(hp.__getitem__, _kernels.ordered_selection(ref_codes, hyp_codes)), rp)
        pairs.extend(chosen)
    pairs.sort()
    return _kernels.Codes(pairs)


def hlepor_sentence(hyp: Sequence[str], ref: Sequence[str],
                    params: HleporParams = HleporParams()) -> HleporBreakdown:
    """Sentence score with the full component breakdown.

    Two empty segments are a perfect match: every component and the score
    are 1. No aligned pair, which includes one empty side, scores 0. Else
    the score is the weighted harmonic mean of lp, npos_penal and hpr, or 0
    if lp or hpr is 0 (exp underflows for very unequal lengths) rather than
    an infinity. The corpus score is ``evaluate_pairs``'s.
    """
    lh, lr = len(hyp), len(ref)
    # Aligned before the empty check, so that every sentence runs exactly one
    # alignment, as perfbench's traced call counts expect.
    alignment = align(hyp, ref)
    if lh == 0 and lr == 0:
        return HleporBreakdown(lp=1.0, npd=0.0, npos_penal=1.0, precision=1.0,
                               recall=1.0, hpr=1.0, score=1.0)
    lp = math.exp(1.0 - max(lh, lr) / min(lh, lr)) if lh and lr else 0.0
    matched = len(alignment)
    if not matched:
        return HleporBreakdown(lp=lp, npd=0.0, npos_penal=1.0, precision=0.0,
                               recall=0.0, hpr=0.0, score=0.0)
    npd = math.fsum(abs((i + 1) / lh - (j + 1) / lr) for i, j in alignment) / lh
    npos_penal = math.exp(-npd)
    precision = matched / lh
    recall = matched / lr
    hpr = ((params.alpha + params.beta) * precision * recall) / (
        params.alpha * precision + params.beta * recall
    )
    if lp == 0.0 or hpr == 0.0:
        score = 0.0
    else:
        score = (params.w_lp + params.w_npp + params.w_hpr) / (
            params.w_lp / lp + params.w_npp / npos_penal + params.w_hpr / hpr
        )
    return HleporBreakdown(lp=lp, npd=npd, npos_penal=npos_penal, precision=precision,
                           recall=recall, hpr=hpr, score=score)
