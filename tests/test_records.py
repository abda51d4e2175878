"""The record types: immutable NamedTuples with fixed field orders, and
checked fields on every construction path."""

import pytest

from mtmetrics import (
    METRICS,
    BleuConfig,
    BleuReport,
    ComparisonReport,
    ComparisonRow,
    EvalConfig,
    EvaluationReport,
    HleporBreakdown,
    HleporParams,
    MeteorParams,
    MetricResult,
    RougeLScore,
    ScoreTable,
    TokenizerConfig,
    WinnerMatrix,
    bleu_corpus,
    evaluate_pairs,
    hlepor_sentence,
    rouge_l_f1,
    winner_matrix,
)
from mtmetrics.evalharness import run_signature

# Report JSON takes its key order from these, through ``_asdict()``.
FIELDS = {
    TokenizerConfig: ("scheme", "lowercase"),
    BleuConfig: ("max_n", "smoothing", "smooth_k", "tokenizer"),
    BleuReport: ("precisions", "bp", "score", "hyp_tokens", "ref_tokens", "correct", "total"),
    HleporParams: ("alpha", "beta", "w_lp", "w_npp", "w_hpr"),
    HleporBreakdown: ("lp", "npd", "npos_penal", "precision", "recall", "hpr", "score"),
    RougeLScore: ("precision", "recall", "f1", "lcs_len"),
    MeteorParams: ("alpha", "beta", "gamma"),
    EvalConfig: ("tokenizer", "hlepor_params", "meteor_params", "max_n", "smoothing",
                 "smooth_k", "segment_bleu"),
    MetricResult: ("corpus", "segments"),
    EvaluationReport: ("signature", "metrics", "config", "counts", "bleu_report"),
    ComparisonRow: ("metric", "before", "after", "rate_percent"),
    ComparisonReport: ("signature", "rows"),
    WinnerMatrix: ("winners", "agreement", "compared_tasks", "skipped", "signature"),
}

_REPORT = evaluate_pairs(["a b"], ["a b"], ["bleu"])
_ROW = ComparisonRow("bleu", 50.0, 60.0, 20.0)
SAMPLES = {
    TokenizerConfig: TokenizerConfig(),
    BleuConfig: BleuConfig(),
    BleuReport: bleu_corpus(["a b"], ["a b"]),
    HleporParams: HleporParams(),
    HleporBreakdown: hlepor_sentence(["a"], ["a"]),
    RougeLScore: rouge_l_f1(["a"], ["a"]),
    MeteorParams: MeteorParams(),
    EvalConfig: EvalConfig(),
    MetricResult: _REPORT.metrics["bleu"],
    EvaluationReport: _REPORT,
    ComparisonRow: _ROW,
    ComparisonReport: ComparisonReport("sig", (_ROW,)),
    WinnerMatrix: winner_matrix(ScoreTable([("A", "t", "m", 1.0)])),
}

# (type, bad fields, the ValueError message). Where two fields are bad, the
# message names the one checked first.
BAD = [
    (TokenizerConfig, {"scheme": "moses"},
     "unknown tokenizer scheme 'moses'; expected one of ('13a', 'whitespace', 'none')"),
    (BleuConfig, {"max_n": 0}, "max_n must be between 1 and 20, got 0"),
    (BleuConfig, {"max_n": 21, "smoothing": "floor"}, "max_n must be between 1 and 20, got 21"),
    (BleuConfig, {"smoothing": "floor"},
     "unknown smoothing 'floor'; expected one of ('none', 'add-k', 'exp')"),
    (BleuConfig, {"smooth_k": float("nan")}, "smooth_k must be finite and > 0, got nan"),
    (EvalConfig, {"max_n": 0}, "max_n must be between 1 and 20, got 0"),
    (EvalConfig, {"smoothing": "add-k", "smooth_k": -1.0},
     "smooth_k must be finite and > 0, got -1.0"),
    (HleporParams, {"alpha": 0.0}, "alpha must be between 1e-300 and 1e300, got 0.0"),
    (HleporParams, {"w_lp": 1e301, "w_hpr": 0.0},
     "w_lp must be between 1e-300 and 1e300, got 1e+301"),
    (HleporParams, {"w_hpr": float("inf")}, "w_hpr must be between 1e-300 and 1e300, got inf"),
    (MeteorParams, {"alpha": 1.0}, "alpha must be in (0, 1), got 1.0"),
    (MeteorParams, {"beta": float("nan"), "gamma": 1.0}, "beta must be finite and > 0, got nan"),
    (MeteorParams, {"gamma": 1.0}, "gamma must be in [0, 1), got 1.0"),
]
# (type, field, a value of the wrong type, the ValueError message). Each of
# these would otherwise be accepted, or fail later with a TypeError or an
# AttributeError. An int passes where a float is expected.
WRONG_TYPES = [
    (TokenizerConfig, "lowercase", "no", "lowercase must be a bool, got 'no'"),
    (BleuConfig, "max_n", True, "max_n must be an int, got True"),
    (BleuConfig, "max_n", 4.0, "max_n must be an int, got 4.0"),
    (BleuConfig, "smooth_k", "1", "smooth_k must be an int or a float, got '1'"),
    (BleuConfig, "smooth_k", True, "smooth_k must be an int or a float, got True"),
    (BleuConfig, "tokenizer", ("13a", True),
     "tokenizer must be a TokenizerConfig, got ('13a', True)"),
    (HleporParams, "alpha", "9", "alpha must be an int or a float, got '9'"),
    (HleporParams, "w_hpr", False, "w_hpr must be an int or a float, got False"),
    (MeteorParams, "alpha", "0.5", "alpha must be an int or a float, got '0.5'"),
    (MeteorParams, "gamma", None, "gamma must be an int or a float, got None"),
    (EvalConfig, "tokenizer", None, "tokenizer must be a TokenizerConfig, got None"),
    (EvalConfig, "hlepor_params", (9.0, 1.0, 2.0, 1.0, 3.0),
     "hlepor_params must be a HleporParams, got (9.0, 1.0, 2.0, 1.0, 3.0)"),
    (EvalConfig, "meteor_params", (0.9, 3.0, 0.5),
     "meteor_params must be a MeteorParams, got (0.9, 3.0, 0.5)"),
    (EvalConfig, "max_n", True, "max_n must be an int, got True"),
    (EvalConfig, "segment_bleu", 1, "segment_bleu must be a bool, got 1"),
]
CASES = [
    *(pytest.param(cls, bad, message, id=f"{cls.__name__}-{'-'.join(bad)}")
      for cls, bad, message in BAD),
    *(pytest.param(cls, {name: value}, message,
                   id=f"{cls.__name__}-{name}-{type(value).__name__}")
      for cls, name, value, message in WRONG_TYPES),
]

PATHS = {
    "constructor": lambda cls, bad: cls(**bad),
    "_make": lambda cls, bad: cls._make(bad.get(name, default)
                                        for name, default in zip(cls._fields, cls())),
    "_replace": lambda cls, bad: cls()._replace(**bad),
}


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_field_order_is_pinned(cls):
    assert cls._fields == FIELDS[cls]


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_records_are_immutable(cls):
    record = SAMPLES[cls]
    assert type(record) is cls
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = None


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize(("cls", "bad", "message"), CASES)
def test_every_construction_path_checks_fields(path, cls, bad, message):
    with pytest.raises(ValueError) as exc_info:
        PATHS[path](cls, bad)
    assert str(exc_info.value) == message


@pytest.mark.parametrize("cls", dict.fromkeys(cls for cls, _, _ in BAD),
                         ids=lambda cls: cls.__name__)
def test_good_values_pass_every_construction_path(cls):
    default = cls()
    assert cls._make(default) == default._replace() == default
    assert type(cls._make(default)) is type(default._replace()) is cls


@pytest.mark.parametrize("cls", dict.fromkeys(cls for cls, _, _ in BAD),
                         ids=lambda cls: cls.__name__)
def test_settings_types_are_one_class(cls):
    assert type(cls()).__mro__ == (cls, tuple, object)


def test_int_parameters_sign_and_score_like_floats():
    ints = EvalConfig(hlepor_params=HleporParams(9, 1, 2, 1, 3),
                      meteor_params=MeteorParams(beta=3), smoothing="add-k", smooth_k=2)
    floats = EvalConfig(smoothing="add-k", smooth_k=2.0)
    hyps, refs = ["the cat sat on a mat", "a dog"], ["the cat sat on the mat", "the dog"]
    assert run_signature(METRICS, ints) == run_signature(METRICS, floats)
    assert (evaluate_pairs(hyps, refs, METRICS, ints).metrics
            == evaluate_pairs(hyps, refs, METRICS, floats).metrics)
