import json
import sys
from decimal import ROUND_HALF_UP, Context, Decimal

import pytest
from hypothesis import given, strategies as st

from mtmetrics.errors import InputError
from mtmetrics.evalharness import (
    METRICS,
    TIE,
    ComparisonReport,
    EvalConfig,
    ScoreTable,
    compare_files,
    evaluate_corpus,
    evaluate_pairs,
    improvement_rate,
    read_lines,
    read_tsv,
    render_report,
    round_half_up,
    run_signature,
    winner_matrix,
)
from mtmetrics.bleu import bleu_corpus
from mtmetrics.cli import main
from mtmetrics.hlepor import HleporParams, hlepor_corpus
from mtmetrics.lexmetrics import MeteorParams, meteor_exact, rouge_l_f1
from mtmetrics.textnorm import TokenizerConfig, tokenize

# Published two-system evaluation used as a winner-matrix fixture:
# (system, task, metric) -> score.
CLINICAL_FIXTURE = {
    "clinic-Marian": {
        "Task-1": {"SacreBLEU": 38.18, "METEOR": 0.6338, "COMET": 0.4237,
                   "BLEU-HF": 0.3650, "ROUGE-L-F1": 0.6271},
        "Task-2": {"SacreBLEU": 26.87, "METEOR": 0.5885, "COMET": 0.9791,
                   "BLEU-HF": 0.2667, "ROUGE-L-F1": 0.6720},
        "Task-3": {"SacreBLEU": 39.10, "METEOR": 0.6262, "COMET": 0.9495,
                   "BLEU-HF": 0.3675, "ROUGE-L-F1": 0.7688},
    },
    "clinic-NLLB": {
        "Task-1": {"SacreBLEU": 37.74, "METEOR": 0.6273, "COMET": 0.4081,
                   "BLEU-HF": 0.3601, "ROUGE-L-F1": 0.6193},
        "Task-2": {"SacreBLEU": 28.57, "METEOR": 0.5873, "COMET": 1.0290,
                   "BLEU-HF": 0.2844, "ROUGE-L-F1": 0.6710},
        "Task-3": {"SacreBLEU": 41.63, "METEOR": 0.6072, "COMET": 0.9180,
                   "BLEU-HF": 0.3932, "ROUGE-L-F1": 0.7477},
    },
}


def clinical_rows():
    return [
        (system, task, metric, value)
        for system, tasks in CLINICAL_FIXTURE.items()
        for task, metrics in tasks.items()
        for metric, value in metrics.items()
    ]


def clinical_table():
    return ScoreTable(clinical_rows())


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


# --- improvement rate -------------------------------------------------------

RATE_FIXTURES = [
    (7.38, 18.46, 150.14),
    (13.93, 24.49, 75.81),
    (36.91, 48.78, 32.16),
    (47.55, 59.92, 26.01),
    (40.05, 44.75, 11.74),
    (37.23, 40.84, 9.70),
    (37.23, 31.88, -14.37),
]


@pytest.mark.parametrize("before,after,expected", RATE_FIXTURES)
def test_improvement_rate_fixtures(before, after, expected):
    assert improvement_rate(before, after) == expected


def test_improvement_rate_identity_is_zero():
    for value in (0.5, 7.38, 100.0):
        assert improvement_rate(value, value) == 0.0


def test_improvement_rate_antisymmetric():
    assert improvement_rate(10.0, 12.5) == -improvement_rate(10.0, 7.5)


def test_improvement_rate_rejects_nonpositive_base():
    with pytest.raises(InputError):
        improvement_rate(0.0, 5.0)
    with pytest.raises(InputError):
        improvement_rate(-1.0, 5.0)


def test_improvement_rate_beyond_float_range_is_input_error():
    # 100 * (50 - 1e-306) / 1e-306 overflows to inf, which cannot be rounded.
    with pytest.raises(InputError, match="beyond the float range"):
        improvement_rate(1e-306, 50.0)


def test_round_half_up_is_not_bankers():
    assert round_half_up(0.125, 2) == 0.13
    assert round_half_up(-0.125, 2) == -0.13
    assert round_half_up(2.675, 2) == 2.68


def test_round_half_up_large_values():
    # The integer digits do not count against the 28 significant digits.
    assert round_half_up(1e30, 0) == 1e30
    assert round_half_up(-1e28, 2) == -1e28
    assert round_half_up(sys.float_info.max, 27) == sys.float_info.max
    assert round_half_up(123456789012345678901.5, 8) == 123456789012345678901.5


@given(st.floats(allow_nan=False, allow_infinity=False), st.integers(-5, 27))
def test_round_half_up_rounds_every_finite_float(value, decimals):
    exact = Decimal(repr(value)).quantize(
        Decimal(1).scaleb(-decimals), ROUND_HALF_UP, Context(prec=400))
    assert round_half_up(value, decimals) == float(exact)


# --- winner matrix ----------------------------------------------------------

EXPECTED_WINNERS = {
    ("Task-1", "SacreBLEU"): "clinic-Marian",
    ("Task-1", "METEOR"): "clinic-Marian",
    ("Task-1", "COMET"): "clinic-Marian",
    ("Task-1", "BLEU-HF"): "clinic-Marian",
    ("Task-1", "ROUGE-L-F1"): "clinic-Marian",
    ("Task-2", "SacreBLEU"): "clinic-NLLB",
    ("Task-2", "METEOR"): "clinic-Marian",
    ("Task-2", "COMET"): "clinic-NLLB",
    ("Task-2", "BLEU-HF"): "clinic-NLLB",
    ("Task-2", "ROUGE-L-F1"): "clinic-Marian",
    ("Task-3", "SacreBLEU"): "clinic-NLLB",
    ("Task-3", "METEOR"): "clinic-Marian",
    ("Task-3", "COMET"): "clinic-Marian",
    ("Task-3", "BLEU-HF"): "clinic-NLLB",
    ("Task-3", "ROUGE-L-F1"): "clinic-Marian",
}


def test_winner_matrix_clinical_fixture():
    matrix = winner_matrix(clinical_table())
    assert matrix.winners == EXPECTED_WINNERS
    assert matrix.skipped == ()


def test_winner_matrix_agreement_fractions():
    matrix = winner_matrix(clinical_table())
    agreement = matrix.agreement
    # The two BLEU-family metrics always agree; each disagrees with METEOR
    # and ROUGE-L on tasks 2 and 3.
    assert agreement[("BLEU-HF", "SacreBLEU")] == 1.0
    assert agreement[("METEOR", "ROUGE-L-F1")] == 1.0
    assert agreement[("METEOR", "SacreBLEU")] == pytest.approx(1 / 3)
    assert agreement[("BLEU-HF", "METEOR")] == pytest.approx(1 / 3)
    assert agreement[("ROUGE-L-F1", "SacreBLEU")] == pytest.approx(1 / 3)
    assert agreement[("BLEU-HF", "ROUGE-L-F1")] == pytest.approx(1 / 3)


def test_winner_matrix_single_system_trivial():
    table = ScoreTable([("only", "t1", "m1", 0.5), ("only", "t2", "m1", 0.7)])
    matrix = winner_matrix(table)
    assert matrix.winners == {("t1", "m1"): "only", ("t2", "m1"): "only"}


def test_winner_matrix_exact_tie():
    table = ScoreTable([("s1", "t", "m", 0.5), ("s2", "t", "m", 0.5)])
    assert winner_matrix(table).winners[("t", "m")] == TIE


def test_winner_matrix_rounding_policy_can_create_ties():
    table = ScoreTable([("s1", "t", "m", 0.6271), ("s2", "t", "m", 0.6274)])
    assert winner_matrix(table).winners[("t", "m")] == "s2"
    assert winner_matrix(table, decimals=3).winners[("t", "m")] == TIE


def test_winner_matrix_row_permutation_invariant():
    table = clinical_table()
    reversed_table = ScoreTable(list(reversed(table.rows)))
    assert winner_matrix(reversed_table).winners == winner_matrix(table).winners
    for fmt in ("table", "json"):
        assert (render_report(winner_matrix(reversed_table), fmt)
                == render_report(winner_matrix(table), fmt))


def test_winner_matrix_rescaling_invariant():
    table = clinical_table()
    scaled = ScoreTable(
        [
            (s, t, m, v * 100.0 if m == "ROUGE-L-F1" else v)
            for s, t, m, v in table.rows
        ]
    )
    assert winner_matrix(scaled).winners == winner_matrix(table).winners


def test_winner_matrix_missing_cell_skipped():
    table = ScoreTable([
        ("s1", "t1", "m1", 0.1),
        ("s2", "t1", "m1", 0.2),
        ("s1", "t2", "m1", 0.3),  # s2 missing here
    ])
    matrix = winner_matrix(table)
    assert matrix.winners == {("t1", "m1"): "s2"}
    assert matrix.skipped == (("t2", "m1"),)


def test_score_table_rejects_duplicates():
    with pytest.raises(InputError):
        ScoreTable([("s", "t", "m", 1.0), ("s", "t", "m", 2.0)])


def test_score_table_rejects_duplicates_among_other_rows():
    with pytest.raises(InputError, match="duplicate"):
        ScoreTable([("s", "t", "m", 1.0), ("s", "t", "n", 1.0), ("s", "t", "m", 2.0)])
    table = ScoreTable([("s", "t", "m", 1.0), ("s", "t", "n", 1.0)])
    assert table.rows == (("s", "t", "m", 1.0), ("s", "t", "n", 1.0))


def test_score_table_add_does_not_scan_rows():
    # Counts label comparisons: a scan of the earlier rows compares each new
    # triple with every earlier one (about n*n/2 in all), a hashed lookup
    # with none of them.
    comparisons = 0

    class Label(str):
        __hash__ = str.__hash__

        def __eq__(self, other):
            nonlocal comparisons
            comparisons += 1
            return str.__eq__(self, other)

    table = ScoreTable([(Label("s"), Label("t"), Label(f"m{i}"), 0.5) for i in range(1000)])
    assert len(table.rows) == 1000
    assert comparisons < 1000


@pytest.mark.parametrize("row, named", [
    (("s", "t", "m", True), "value must be a number"),
    (("s", "t", "m", " 0.5 "), "value must be a number"),
    (("s", "t", "m", None), "value must be a number"),
    ((None, "t", "m", 0.5), "system must be a string"),
    (("s", ["t"], "m", 0.5), "task must be a string"),
    (("s", "t", 5, 0.5), "metric must be a string"),
])
def test_score_table_add_checks_rows_like_from_dict(row, named):
    with pytest.raises(InputError, match=f"row 2: {named}"):
        ScoreTable([("a", "t", "m", 1.0), row])
    system, task, metric, value = row
    data = {"rows": [{"system": "a", "task": "t", "metric": "m", "value": 1.0},
                     {"system": system, "task": task, "metric": metric, "value": value}]}
    with pytest.raises(InputError, match=f"row 2: {named}"):
        ScoreTable.from_dict(data)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_score_table_rejects_non_finite_values(value):
    # NaN compared with anything is never the maximum, so it used to be
    # decided as a tie instead of rejected.
    with pytest.raises(InputError, match="row 2: value must be finite"):
        ScoreTable([("s1", "t", "m", 1.0), ("s2", "t", "m", value)])
    with pytest.raises(InputError, match="row 1: value must be finite"):
        ScoreTable([("s", "t", "m", value)])


# --- corpus evaluation ------------------------------------------------------

def test_identical_files_perfect_scores(tmp_path):
    lines = ["The cat sat on the mat.", "A small dog ran.", "Numbers like 1,234.5 stay."]
    hyp = write_lines(tmp_path / "hyp.txt", lines)
    ref = write_lines(tmp_path / "ref.txt", lines)
    report = evaluate_corpus(hyp, ref)
    assert report.metrics["hlepor"].corpus == 100.0
    assert abs(report.metrics["bleu"].corpus - 100.0) < 1e-9
    assert report.metrics["rouge-l"].corpus == 1.0
    assert report.counts["segments"] == 3
    assert report.counts["hyp_tokens"] == report.counts["ref_tokens"]


def test_toy_corpus_recomposition(tmp_path):
    hyp_lines = ["the cat sat", "a dog ran fast", "hello world"]
    ref_lines = ["the cat sat down", "a dog ran", "hello there world"]
    hyp = write_lines(tmp_path / "hyp.txt", hyp_lines)
    ref = write_lines(tmp_path / "ref.txt", ref_lines)
    config = EvalConfig()
    report = evaluate_corpus(hyp, ref, METRICS, config)

    hyp_seqs = [tokenize(t, config.tokenizer) for t in hyp_lines]
    ref_seqs = [tokenize(t, config.tokenizer) for t in ref_lines]
    pairs = list(zip(hyp_seqs, ref_seqs))

    assert report.metrics["hlepor"].corpus == pytest.approx(
        hlepor_corpus(pairs, config.hlepor_params), abs=1e-12
    )
    assert report.metrics["bleu"].corpus == bleu_corpus(
        hyp_lines, ref_lines, config.bleu_config()
    ).score
    expected_meteor = [meteor_exact(h, r, config.meteor_params) for h, r in pairs]
    assert list(report.metrics["meteor"].segments) == expected_meteor
    expected_rouge = [rouge_l_f1(h, r).f1 for h, r in pairs]
    assert list(report.metrics["rouge-l"].segments) == expected_rouge


def test_line_count_mismatch_names_both_counts(tmp_path):
    hyp = write_lines(tmp_path / "hyp.txt", ["a", "b", "c"])
    ref = write_lines(tmp_path / "ref.txt", ["a", "b", "c", "d"])
    with pytest.raises(InputError, match=r"3.*4"):
        evaluate_corpus(hyp, ref)


def test_read_lines_strips_byte_order_mark(tmp_path):
    hyp = tmp_path / "hyp.txt"
    hyp.write_bytes(b"\xef\xbb\xbfa b\n\xef\xbb\xbfa b\n")
    ref = write_lines(tmp_path / "ref.txt", ["a b", "a b"])
    # Only a leading mark is an encoding signature; a later one is text.
    assert read_lines(str(hyp)) == ["a b", "\ufeffa b"]
    report = evaluate_corpus(str(hyp), ref, ("rouge-l",))
    assert report.metrics["rouge-l"].segments == (1.0, 0.5)


def test_eval_config_validates_bleu_settings():
    with pytest.raises(ValueError, match="max_n"):
        EvalConfig(max_n=0)
    with pytest.raises(ValueError, match="smooth_k"):
        EvalConfig(smoothing="add-k", smooth_k=float("inf"))


def test_undecodable_bytes_name_line_number(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"fine line\n\xff\xfe broken\n")
    with pytest.raises(InputError, match="line 2"):
        read_lines(str(path))


def test_tsv_input(tmp_path):
    path = tmp_path / "pairs.tsv"
    path.write_text("the cat\tthe cat\ndog ran\tdog ran\n", encoding="utf-8")
    hyps, refs = read_tsv(str(path))
    assert hyps == ["the cat", "dog ran"]
    assert refs == ["the cat", "dog ran"]
    report = evaluate_pairs(hyps, refs, ("hlepor",))
    assert report.metrics["hlepor"].corpus == 100.0


def test_tsv_wrong_column_count(tmp_path):
    path = tmp_path / "pairs.tsv"
    path.write_text("a\tb\nno-tab-here\n", encoding="utf-8")
    with pytest.raises(InputError, match="line 2"):
        read_tsv(str(path))


def test_empty_segment_pair_is_perfect_match():
    config = EvalConfig(segment_bleu=True)
    report = evaluate_pairs(["a b c d", "", ""], ["a b c d", "", "x"], METRICS, config)
    segments = {m: result.segments for m, result in report.metrics.items()}
    assert segments["bleu"][1:] == (100.0, 0.0)
    assert segments["hlepor"][1:] == (100.0, 0.0)
    assert segments["meteor"][1:] == (1.0, 0.0)
    assert segments["rouge-l"][1:] == (1.0, 0.0)


def test_segment_bleu_forces_exp_smoothing():
    config = EvalConfig(segment_bleu=True)
    report = evaluate_pairs(["the cat sat"], ["the cat sat down"], ("bleu",), config)
    segments = report.metrics["bleu"].segments
    assert segments is not None and len(segments) == 1
    assert segments[0] > 0.0  # raw 4-gram precision would zero this out
    assert "seg-bleu:exp" in report.signature


def test_compare_identical_files_all_rates_zero(tmp_path):
    lines = ["the cat sat on the mat", "a dog ran"]
    before = write_lines(tmp_path / "before.txt", lines)
    after = write_lines(tmp_path / "after.txt", lines)
    ref = write_lines(tmp_path / "ref.txt", lines)
    comparison = compare_files(before, after, ref)
    assert all(row.rate_percent == 0.0 for row in comparison.rows)


def test_compare_rate_matches_improvement_rate(tmp_path):
    ref_lines = ["the cat sat on the mat", "a dog ran away"]
    before_lines = ["the cat sat on mat", "a dog walked away"]
    after_lines = ["the cat sat on a mat", "a dog ran away"]
    before = write_lines(tmp_path / "before.txt", before_lines)
    after = write_lines(tmp_path / "after.txt", after_lines)
    ref = write_lines(tmp_path / "ref.txt", ref_lines)
    comparison = compare_files(before, after, ref, ("bleu", "hlepor", "rouge-l"))
    for row in comparison.rows:
        assert row.before > 0
        assert row.rate_percent == improvement_rate(row.before, row.after)
    bleu_row = comparison.rows[0]
    assert bleu_row.metric == "bleu"
    assert bleu_row.before == bleu_corpus(before_lines, ref_lines).score
    assert bleu_row.after == bleu_corpus(after_lines, ref_lines).score


def test_compare_zero_base_rate_is_none(tmp_path):
    before = write_lines(tmp_path / "before.txt", ["xx yy zz"])
    after = write_lines(tmp_path / "after.txt", ["the cat"])
    ref = write_lines(tmp_path / "ref.txt", ["the cat"])
    comparison = compare_files(before, after, ref, ("rouge-l",))
    assert comparison.rows[0].before == 0.0
    assert comparison.rows[0].rate_percent is None
    assert "n/a" in render_report(comparison, "table")


def test_compare_rate_beyond_float_range_is_none(tmp_path, capsys):
    # One token against 706: BLEU's brevity penalty makes the base about
    # 1e-305, and 100 * (after - before) / before overflows.
    before = write_lines(tmp_path / "before.txt", ["a"])
    after = write_lines(tmp_path / "after.txt", [" ".join(["a"] * 706)])
    ref = write_lines(tmp_path / "ref.txt", [" ".join(["a"] * 706)])
    argv = ["compare", "--before", before, "--after", after, "--ref", ref,
            "--metrics", "bleu", "--smoothing", "exp"]
    assert main(argv) == 0
    table = capsys.readouterr().out
    assert table.splitlines()[1].split()[-1] == "n/a"
    assert main([*argv, "--format", "json"]) == 0
    row = json.loads(capsys.readouterr().out)["rows"][0]
    assert 0 < row["before"] < 1e-300
    assert row["rate_percent"] is None


# --- rendering --------------------------------------------------------------

def test_render_bleu_table_header():
    report = evaluate_pairs(["the cat sat on the mat"], ["the cat sat on a mat"], ("bleu",))
    lines = render_report(report, "table").splitlines()
    header = lines[lines.index("") + 1].split()
    assert header == ["uni-gram", "bi-gram", "tri-gram", "4-gram", "BP", "Overall"]
    # One signature line, the run signature, closes the table.
    assert [line for line in lines if line.startswith("signature:")] == [
        f"signature: {report.signature}"
    ]
    assert lines[-1] == "signature: mteval:v1|case:lc|tok:13a|metrics:bleu|smooth:none|n:4"


@pytest.mark.parametrize("decimals", [None, 2])
def test_matrix_json_matches_cli(tmp_path, capsys, decimals):
    table = clinical_table()
    path = tmp_path / "scores.json"
    rows = [{"system": s, "task": t, "metric": m, "value": v} for s, t, m, v in clinical_rows()]
    path.write_text(json.dumps({"rows": rows}), encoding="utf-8")
    argv = ["matrix", "--scores", str(path), "--format", "json"]
    if decimals is not None:
        argv += ["--decimals", str(decimals)]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    rendered = render_report(winner_matrix(table, decimals), "json")
    assert stdout == rendered + "\n"
    payload = json.loads(rendered)
    assert list(payload)[-1] == "signature"
    label = "none" if decimals is None else str(decimals)
    assert payload["signature"] == f"matrix:v1|decimals:{label}"


def test_render_bleu_json():
    report = evaluate_pairs(["a b c"], ["a b d"], ("bleu",), EvalConfig(smoothing="exp"))
    payload = json.loads(render_report(report, "json"))
    entry = payload["metrics"]["bleu"]
    assert list(entry) == ["corpus", "precisions", "bp"]
    stats = bleu_corpus(["a b c"], ["a b d"], EvalConfig(smoothing="exp").bleu_config())
    assert entry["corpus"] == stats.score
    assert entry["precisions"] == list(stats.precisions)
    assert entry["bp"] == stats.bp
    with pytest.raises(TypeError):
        render_report(stats, "json")


def test_run_signature_hlepor_meteor_blocks():
    config = EvalConfig(hlepor_params=HleporParams(1.0, 9.0, 3, 2.5, 1.0, 7.0),
                        meteor_params=MeteorParams(0.8, 2.5, 0.25))
    assert run_signature(METRICS, config) == (
        "mteval:v1|case:lc|tok:13a|metrics:bleu+hlepor+meteor+rouge-l"
        "|smooth:none|n:4|hlepor:1,9,3,2.5,1,7|meteor:0.8,2.5,0.25"
    )
    assert run_signature(("meteor", "hlepor"), config) == (
        "mteval:v1|case:lc|tok:13a|metrics:meteor+hlepor"
        "|hlepor:1,9,3,2.5,1,7|meteor:0.8,2.5,0.25"
    )


@pytest.mark.parametrize("scheme, tok", [("13a", "13a"), ("whitespace", "ws"), ("none", "none")])
@pytest.mark.parametrize("lowercase, case", [(True, "lc"), (False, "mixed")])
@pytest.mark.parametrize("smoothing, smooth_k, smooth", [
    ("none", 1.0, "none"), ("exp", 1.0, "exp"), ("add-k", 2.0, "add-k(2)"),
])
def test_run_signature_labels(scheme, tok, lowercase, case, smoothing, smooth_k, smooth):
    config = EvalConfig(tokenizer=TokenizerConfig(scheme, lowercase),
                        smoothing=smoothing, smooth_k=smooth_k)
    assert run_signature(("bleu", "rouge-l"), config) == (
        f"mteval:v1|case:{case}|tok:{tok}|metrics:bleu+rouge-l|smooth:{smooth}|n:4"
    )


def test_render_byte_deterministic():
    report = evaluate_pairs(["a b c"], ["a b d"], METRICS)
    again = evaluate_pairs(["a b c"], ["a b d"], METRICS)
    for fmt in ("table", "json"):
        assert render_report(report, fmt) == render_report(again, fmt)


def test_report_json_schema_shape():
    report = evaluate_pairs(["a b"], ["a b"], ("hlepor", "bleu"))
    payload = json.loads(render_report(report, "json"))
    assert list(payload) == ["signature", "metrics", "config", "counts"]
    assert set(payload["metrics"]) == {"hlepor", "bleu"}
    assert "segments" in payload["metrics"]["hlepor"]
    assert "segments" not in payload["metrics"]["bleu"]
    assert payload["counts"] == {"segments": 1, "hyp_tokens": 2, "ref_tokens": 2}


def test_comparison_json_schema(tmp_path):
    lines = ["a b"]
    before = write_lines(tmp_path / "b.txt", lines)
    after = write_lines(tmp_path / "a.txt", lines)
    ref = write_lines(tmp_path / "r.txt", lines)
    comparison = compare_files(before, after, ref, ("rouge-l",))
    payload = json.loads(render_report(comparison, "json"))
    assert payload["rows"] == [
        {"metric": "rouge-l", "before": 1.0, "after": 1.0, "rate_percent": 0.0}
    ]


def test_unknown_metric_rejected():
    with pytest.raises(InputError, match="chrf"):
        evaluate_pairs(["a"], ["a"], ("chrf",))
