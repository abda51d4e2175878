"""The benchmark's output check must catch a corrupted score.

Runs on a small corpus in a few seconds: ``python -m pytest perfbench``.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src"), str(ROOT / "tests")]

import checks  # noqa: E402
import corpus  # noqa: E402
from mtmetrics import lexmetrics, render_report  # noqa: E402
from mtmetrics.evalharness import EvalConfig, evaluate_pairs  # noqa: E402


@pytest.fixture(scope="module")
def small():
    data = corpus.generate("short", checks.DEFAULT_SEED)
    for side in ("ref", "hyp_a", "hyp_b"):
        data[side] = data[side][:60]
    return data


def score_stdout(data, metric):
    report = evaluate_pairs(data["hyp_a"], data["ref"], (metric,), EvalConfig())
    return (render_report(report, "json") + "\n").encode()


def test_correct_output_passes(small):
    ref = checks.Reference(small)
    kind = ("score", "hlepor", False)
    assert checks.check_output(kind, score_stdout(small, "hlepor"), ref) == []
    assert checks.oracle_problems(ref)[0] == []


@pytest.mark.parametrize("metric", ["bleu", "hlepor", "meteor", "rouge-l"])
def test_corrupted_output_is_caught(small, metric):
    ref = checks.Reference(small)
    kind = ("score", metric, False)
    assert checks.corrupted_score_caught(kind, score_stdout(small, metric), ref)


def test_corrupted_program_is_caught_by_oracles(small, monkeypatch):
    # A METEOR that miscounts chunks scores consistently in and out of
    # process, so only the oracle formulas can catch it.
    real = lexmetrics._chunk_count
    monkeypatch.setattr(lexmetrics, "_chunk_count", lambda alignment: real(alignment) + 1)
    problems, checked = checks.oracle_problems(checks.Reference(small))
    assert checked > 0
    assert any(metrics == ("meteor",) and "disagrees with oracle" in text
               for metrics, text in problems)
