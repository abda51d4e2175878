"""Machine translation evaluation toolkit.

Implements hLEPOR, corpus BLEU with disclosed settings, ROUGE-L F1, and
exact-match METEOR over a shared tokenizer, plus a harness that evaluates
line-aligned corpora, rates before/after improvements, and builds winner
matrices with metric-agreement statistics.
"""

from ._version import SIGNATURE_VERSION, __version__
from .bleu import BleuConfig, BleuReport, bleu_corpus
from .errors import InputError
from .evalharness import (
    METRICS,
    TIE,
    ComparisonReport,
    ComparisonRow,
    EvalConfig,
    EvaluationReport,
    MetricResult,
    ScoreTable,
    WinnerMatrix,
    compare_files,
    evaluate_corpus,
    evaluate_pairs,
    improvement_rate,
    read_lines,
    read_tsv,
    render_report,
    run_signature,
    winner_matrix,
)
from .hlepor import (
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
from .lexmetrics import (
    MeteorParams,
    RougeLScore,
    lcs_length,
    meteor_exact,
    rouge_l_f1,
)
from .textnorm import (
    TokenizerConfig,
    TokenSequence,
    extract_ngrams,
    tokenize,
)

__all__ = [
    "SIGNATURE_VERSION",
    "__version__",
    "AlignmentMap",
    "BleuConfig",
    "BleuReport",
    "ComparisonReport",
    "ComparisonRow",
    "EvalConfig",
    "EvaluationReport",
    "HleporBreakdown",
    "HleporParams",
    "InputError",
    "METRICS",
    "MeteorParams",
    "MetricResult",
    "PRESETS",
    "RougeLScore",
    "ScoreTable",
    "TIE",
    "TokenSequence",
    "TokenizerConfig",
    "WinnerMatrix",
    "align",
    "bleu_corpus",
    "compare_files",
    "evaluate_corpus",
    "evaluate_pairs",
    "extract_ngrams",
    "hlepor_corpus",
    "hlepor_sentence",
    "hpr",
    "improvement_rate",
    "lcs_length",
    "length_penalty",
    "meteor_exact",
    "npd",
    "preset",
    "read_lines",
    "read_tsv",
    "render_report",
    "rouge_l_f1",
    "run_signature",
    "tokenize",
    "winner_matrix",
]
