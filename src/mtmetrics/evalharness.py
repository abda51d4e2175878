"""Corpus evaluation harness.

Runs any subset of the metrics over line-aligned files (or a two-column
TSV), emits before/after comparison tables with improvement rates, and
computes per-task winner matrices with pairwise metric-agreement
statistics. Segments are scored one after another and every aggregate
folds in segment order, so identical inputs give byte-identical reports.
"""

from __future__ import annotations

import codecs
import json
import math
import numbers
from decimal import ROUND_HALF_UP, Context, Decimal
from itertools import combinations
from typing import Iterable, NamedTuple, Sequence

from ._version import SIGNATURE_VERSION
from .bleu import BleuConfig, BleuReport, bleu_corpus
from .errors import InputError, _checked
from .hlepor import HleporParams, hlepor_sentence
from .lexmetrics import MeteorParams, meteor_exact, rouge_l_f1
from .textnorm import TokenizerConfig, tokenize

METRICS = ("bleu", "hlepor", "meteor", "rouge-l")

#: Marker used in winner matrices when two systems tie exactly.
TIE = "TIE"

#: Top of each metric's reported range, printed as ``0-{scale}``. hLEPOR,
#: METEOR and ROUGE-L scores are multiplied by it; BLEU is 0-100 already.
_SCALES = {"bleu": 100, "hlepor": 100, "meteor": 1, "rouge-l": 1}


@_checked
class EvalConfig(NamedTuple):
    """Everything that can change a score, bundled so it can be disclosed."""

    tokenizer: TokenizerConfig = TokenizerConfig()
    hlepor_params: HleporParams = HleporParams()
    meteor_params: MeteorParams = MeteorParams()
    max_n: int = 4
    smoothing: str = "none"
    smooth_k: float = 1.0
    segment_bleu: bool = False

    def _check(self) -> None:
        self.bleu_config()  # raises ValueError on bad BLEU settings and tokenizer
        if not isinstance(self.hlepor_params, HleporParams):
            raise ValueError(
                f"hlepor_params must be a HleporParams, got {self.hlepor_params!r}")
        if not isinstance(self.meteor_params, MeteorParams):
            raise ValueError(
                f"meteor_params must be a MeteorParams, got {self.meteor_params!r}")
        if not isinstance(self.segment_bleu, bool):
            raise ValueError(f"segment_bleu must be a bool, got {self.segment_bleu!r}")

    def bleu_config(self) -> BleuConfig:
        return BleuConfig(self.max_n, self.smoothing, self.smooth_k, self.tokenizer)

    def to_dict(self) -> dict:
        return {
            "tokenize": self.tokenizer.scheme,
            "lowercase": self.tokenizer.lowercase,
            "max_n": self.max_n,
            "smoothing": self.smoothing,
            "smooth_k": self.smooth_k,
            "hlepor_params": self.hlepor_params._asdict(),
            "meteor_params": self.meteor_params._asdict(),
            "segment_bleu": self.segment_bleu,
        }


def _exact(value: float) -> str:
    text = format(value, "g")  # 6 significant digits; repr keeps every one
    return text if float(text) == value else repr(value)


def run_signature(metrics: Sequence[str], config: EvalConfig) -> str:
    """Settings summary sufficient to re-run an evaluation."""
    tokenizer = config.tokenizer
    parts = [
        f"mteval:v{SIGNATURE_VERSION}",
        f"case:{'lc' if tokenizer.lowercase else 'mixed'}",
        f"tok:{'ws' if tokenizer.scheme == 'whitespace' else tokenizer.scheme}",
        "metrics:" + "+".join(metrics),
    ]
    if "bleu" in metrics:
        smooth = config.smoothing
        if smooth == "add-k":  # k changes the score, so it is written too
            smooth = f"add-k({_exact(config.smooth_k)})"
        parts.append(f"smooth:{smooth}")
        parts.append(f"n:{config.max_n}")
        if config.segment_bleu:
            parts.append("seg-bleu:exp")
    for metric_id, params in (("hlepor", config.hlepor_params),
                              ("meteor", config.meteor_params)):
        if metric_id in metrics:
            parts.append(f"{metric_id}:" + ",".join(map(_exact, params)))
    return "|".join(parts)


def _read_text(path) -> str:
    """A UTF-8 file's text without one leading byte-order mark. Read errors
    and undecodable bytes, named by line, raise InputError."""
    try:
        with open(path, "rb") as handle:
            data = handle.read().removeprefix(codecs.BOM_UTF8)
    except OSError as exc:
        raise InputError(str(exc)) from None
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise InputError(f"{path}: undecodable bytes at line {line} ({exc.reason})") from None


def read_lines(path) -> list[str]:
    """Read a UTF-8 text file, one segment per line. A leading byte-order
    mark, the final newline and each line's trailing CRs are dropped."""
    lines = _read_text(path).split("\n")
    if lines[-1] == "":
        lines.pop()
    return [line.rstrip("\r") for line in lines]


def read_tsv(path) -> tuple[list[str], list[str]]:
    """Read a two-column hypothesis<TAB>reference file."""
    hyps = []
    refs = []
    for number, line in enumerate(read_lines(path), start=1):
        columns = line.split("\t")
        if len(columns) != 2:
            raise InputError(
                f"{path}: line {number}: expected 2 tab-separated columns, got {len(columns)}"
            )
        hyps.append(columns[0])
        refs.append(columns[1])
    return hyps, refs


class MetricResult(NamedTuple):
    corpus: float
    segments: tuple[float, ...] | None = None


class EvaluationReport(NamedTuple):
    """One corpus value per metric plus ordered per-segment score streams."""

    signature: str
    metrics: dict[str, MetricResult]
    config: EvalConfig
    counts: dict[str, int]
    bleu_report: BleuReport | None = None

    def to_dict(self) -> dict:
        metric_block = {}
        for metric_id, result in self.metrics.items():
            entry: dict = {"corpus": result.corpus}
            if metric_id == "bleu":
                entry["precisions"] = list(self.bleu_report.precisions)
                entry["bp"] = self.bleu_report.bp
            if result.segments is not None:
                entry["segments"] = list(result.segments)
            metric_block[metric_id] = entry
        return {
            "signature": self.signature,
            "metrics": metric_block,
            "config": self.config.to_dict(),
            "counts": dict(self.counts),
        }


def _validated_metrics(metrics: Iterable[str]) -> tuple[str, ...]:
    chosen = tuple(metrics)
    if not chosen:
        raise InputError("no metrics requested")
    unknown = [m for m in chosen if m not in METRICS]
    if unknown:
        raise InputError(
            f"unknown metric(s) {', '.join(unknown)}; available: {', '.join(METRICS)}"
        )
    if len(set(chosen)) != len(chosen):
        raise InputError("duplicate metrics requested")
    return chosen


def evaluate_pairs(hyps: Sequence[str], refs: Sequence[str],
                   metrics: Iterable[str] = METRICS,
                   config: EvalConfig = EvalConfig()) -> EvaluationReport:
    """Score in-memory segment pairs. See ``evaluate_corpus`` for files."""
    metric_ids = _validated_metrics(metrics)
    hyp_list = list(hyps)
    ref_list = list(refs)
    if len(hyp_list) != len(ref_list):
        raise InputError(
            f"segment count mismatch: {len(hyp_list)} hypotheses vs {len(ref_list)} references"
        )
    if not hyp_list:
        raise InputError("empty corpus")

    hyp_seqs = [tokenize(text, config.tokenizer) for text in hyp_list]
    ref_seqs = [tokenize(text, config.tokenizer) for text in ref_list]
    pairs = list(zip(hyp_seqs, ref_seqs))

    results: dict[str, MetricResult] = {}
    bleu_report = None
    for metric_id in metric_ids:
        if metric_id == "bleu":
            bleu_report = bleu_corpus(hyp_list, ref_list, config.bleu_config())
            segments = None
            if config.segment_bleu:
                # Per-segment BLEU forces exponential smoothing; raw per-order
                # precisions collapse to zero on almost every single sentence.
                # An empty hypothesis has no n-grams: it scores 0, unless the
                # reference is empty too, which is a perfect match.
                seg_config = BleuConfig(config.max_n, "exp", 1.0, config.tokenizer)
                segments = tuple(
                    bleu_corpus([hyp], [ref], seg_config).score if hyp_seq
                    else 0.0 if ref_seq else 100.0
                    for hyp, ref, (hyp_seq, ref_seq) in zip(hyp_list, ref_list, pairs)
                )
            results["bleu"] = MetricResult(bleu_report.score, segments)
            continue
        if metric_id == "hlepor":
            raw = [hlepor_sentence(h, r, config.hlepor_params).score for h, r in pairs]
        elif metric_id == "meteor":
            raw = [meteor_exact(h, r, config.meteor_params) for h, r in pairs]
        else:
            raw = [rouge_l_f1(h, r).f1 for h, r in pairs]
        scale = _SCALES[metric_id]
        results[metric_id] = MetricResult(
            scale * math.fsum(raw) / len(raw), tuple(scale * v for v in raw)
        )

    counts = {
        "segments": len(hyp_list),
        "hyp_tokens": sum(len(seq) for seq in hyp_seqs),
        "ref_tokens": sum(len(seq) for seq in ref_seqs),
    }
    return EvaluationReport(
        signature=run_signature(metric_ids, config),
        metrics=results,
        config=config,
        counts=counts,
        bleu_report=bleu_report,
    )


def evaluate_corpus(hyp_file, ref_file,
                    metrics: Iterable[str] = METRICS,
                    config: EvalConfig = EvalConfig()) -> EvaluationReport:
    """Score two line-aligned UTF-8 files against each other. A corpus-level
    InputError, such as an empty corpus, names the hypothesis file."""
    hyps = read_lines(hyp_file)
    refs = read_lines(ref_file)
    if len(hyps) != len(refs):
        raise InputError(
            f"line count mismatch: {hyp_file} has {len(hyps)} lines, "
            f"{ref_file} has {len(refs)} lines"
        )
    return _evaluate_file(hyp_file, hyps, refs, metrics, config)


def evaluate_tsv(path, metrics: Iterable[str], config: EvalConfig) -> EvaluationReport:
    """``evaluate_corpus`` for a two-column hypothesis<TAB>reference file."""
    return _evaluate_file(path, *read_tsv(path), metrics, config)


def _evaluate_file(path, hyps, refs, metrics, config) -> EvaluationReport:
    """``evaluate_pairs``, with `path` prefixed to a corpus-level InputError."""
    metric_ids = _validated_metrics(metrics)  # not the file's fault: left unprefixed
    try:
        return evaluate_pairs(hyps, refs, metric_ids, config)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


def round_half_up(value: float, decimals: int) -> float:
    """Decimal rounding with halves away from zero (not banker's).

    The arithmetic is exact, with 28 significant digits past the integer
    part of `value`, so every finite float rounds to up to 27 decimals;
    asking for more digits than that can raise ``decimal.InvalidOperation``.
    """
    exact = Decimal(repr(value))
    context = Context(prec=28 + max(exact.adjusted() + 1, 0))
    quantum = Decimal(1).scaleb(-decimals)
    return float(exact.quantize(quantum, ROUND_HALF_UP, context))


def improvement_rate(before: float, after: float) -> float:
    """Percentage change from before to after, half-up rounded to 2 decimals.

    Negative results are drops. The base must be positive, and so small a
    base that the rate is beyond the float range has no rate either.
    """
    if before <= 0:
        raise InputError(f"improvement rate needs a positive base score, got {before}")
    rate = 100.0 * (after - before) / before
    if not math.isfinite(rate):
        raise InputError(f"improvement rate from base {before} is beyond the float range")
    return round_half_up(rate, 2)


class ComparisonRow(NamedTuple):
    metric: str
    before: float
    after: float
    rate_percent: float | None


class ComparisonReport(NamedTuple):
    signature: str
    rows: tuple[ComparisonRow, ...]

    def to_dict(self) -> dict:
        return {
            "signature": self.signature,
            "rows": [row._asdict() for row in self.rows],
        }


def compare_files(before_file, after_file, ref_file,
                  metrics: Iterable[str] = METRICS,
                  config: EvalConfig = EvalConfig()) -> ComparisonReport:
    """Score two systems against one reference and rate the change."""
    metric_ids = _validated_metrics(metrics)
    before_report = evaluate_corpus(before_file, ref_file, metric_ids, config)
    after_report = evaluate_corpus(after_file, ref_file, metric_ids, config)
    rows = []
    for metric_id in metric_ids:
        before = before_report.metrics[metric_id].corpus
        after = after_report.metrics[metric_id].corpus
        try:
            rate = improvement_rate(before, after)
        except InputError:  # a zero base, or a rate beyond the float range
            rate = None
        rows.append(ComparisonRow(metric_id, before, after, rate))
    return ComparisonReport(before_report.signature, tuple(rows))


def _checked_rows(rows) -> tuple[tuple, dict[str, dict[str, dict[str, float]]]]:
    """Score-table rows, numbered from 1, checked and indexed in one pass:
    three string labels that are valid Unicode and whose triple is unique,
    and a finite real number, returned as a float. Returns the rows (rebuilt
    only if a row or value needed converting) and their task -> metric ->
    system -> value index. Rows of ASCII str labels and a finite float pass
    one test; others take the detailed checks, which name the first bad row."""
    rows = tuple(rows)
    index: dict[str, dict[str, dict[str, float]]] = {}
    rebuild = False
    isfinite = math.isfinite
    for number, row in enumerate(rows, start=1):
        try:
            system, task, metric, value = row
        except (TypeError, ValueError):  # not iterable, or not four items
            raise InputError(f"score table row {number}: expected (system, task, metric, "
                             f"value), got {row!r}") from None
        # An ASCII str is valid Unicode, and a finite float is kept as it is.
        if not (type(value) is float and isfinite(value) and type(row) is tuple
                and type(system) is str and type(task) is str and type(metric) is str
                and system.isascii() and task.isascii() and metric.isascii()):
            rebuild = rebuild or type(row) is not tuple or type(value) is not float
            for name, label in (("system", system), ("task", task), ("metric", metric)):
                if not isinstance(label, str):
                    raise InputError(
                        f"score table row {number}: {name} must be a string, got {label!r}"
                    )
                try:
                    label.encode("utf-8")
                except UnicodeEncodeError:  # a lone surrogate, such as JSON "\ud800"
                    raise InputError(f"score table row {number}: {name} is not valid "
                                     f"Unicode: {label!r}") from None
            # bool is an int subclass, and float() would also read strings such
            # as " 0.5 ". int and float come first because the ABC check is slow.
            if isinstance(value, bool) or not isinstance(value, (int, float, numbers.Real)):
                raise InputError(
                    f"score table row {number}: value must be a number, got {value!r}"
                )
            try:
                value = float(value)
            except OverflowError:  # an integer beyond the float range
                raise InputError(
                    f"score table row {number}: value is beyond the float range"
                ) from None
            if not isfinite(value):
                raise InputError(f"score table row {number}: value must be finite, got {value}")
        # No dict in the index is ever empty, so a miss is the only falsy get.
        by_metric = index.get(task) or index.setdefault(task, {})
        cell = by_metric.get(metric) or by_metric.setdefault(metric, {})
        if system in cell:
            raise InputError(f"score table row {number}: duplicate score table entry "
                             f"{(system, task, metric)}")
        cell[system] = value
    if rebuild:
        rows = tuple((s, t, m, float(v)) for s, t, m, v in rows)
    return rows, index


class ScoreTable:
    """(system, task, metric, value) rows, checked once on construction:
    string labels, unique (system, task, metric) triples, finite values.
    The same pass indexes them for ``winner_matrix``."""

    __slots__ = ("rows", "_index")

    def __init__(self, rows: Iterable[tuple] = ()) -> None:
        self.rows, self._index = _checked_rows(rows)

    @classmethod
    def from_dict(cls, data: dict) -> "ScoreTable":
        if not isinstance(data, dict) or not isinstance(data.get("rows"), list):
            raise InputError("score table JSON must be an object with a 'rows' array")
        rows = []
        for index, row in enumerate(data["rows"], start=1):
            try:
                rows.append((row["system"], row["task"], row["metric"], row["value"]))
            except (TypeError, KeyError) as exc:
                _checked_rows(rows)  # an earlier bad row is named first
                raise InputError(
                    f"score table row {index} needs system/task/metric/value: {exc}"
                ) from None
        return cls(rows)  # the constructor checks each row


def read_score_table(path) -> ScoreTable:
    """Load a score-table JSON file; a leading byte-order mark is dropped."""
    text = _read_text(path)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    except RecursionError:
        raise InputError(f"{path}: JSON nested too deeply") from None
    except ValueError as exc:  # an integer literal beyond the int-string digit limit
        raise InputError(f"{path}: {exc}") from None
    return ScoreTable.from_dict(data)


class WinnerMatrix(NamedTuple):
    """Per-(task, metric) winner plus pairwise metric agreement over tasks.

    ``winner_matrix`` fills ``winners``, ``agreement`` and ``compared_tasks``
    in sorted key order, and reports print them in that order.
    """

    winners: dict[tuple[str, str], str]
    agreement: dict[tuple[str, str], float]
    compared_tasks: dict[tuple[str, str], int]
    skipped: tuple[tuple[str, str], ...]
    signature: str

    def to_dict(self) -> dict:
        return {
            "winners": [
                {"task": task, "metric": metric, "winner": winner}
                for (task, metric), winner in self.winners.items()
            ],
            "agreement": [
                {
                    "metrics": [a, b],
                    "fraction": fraction,
                    "tasks": self.compared_tasks[(a, b)],
                }
                for (a, b), fraction in self.agreement.items()
            ],
            "skipped": [
                {"task": task, "metric": metric} for task, metric in self.skipped
            ],
            "signature": self.signature,
        }


def winner_matrix(table: ScoreTable, decimals: int | None = None) -> WinnerMatrix:
    """Who wins each (task, metric) cell, and how often metric pairs agree.

    A cell is decided only when every system in the table has a value for
    it; incomplete cells are reported as skipped. Exact equality (after the
    optional half-up rounding to ``decimals``) yields the tie marker. The
    cells come from the table's index; rounded values go into a new one.
    """
    if not table.rows:
        raise InputError("empty score table")
    index = table._index
    if decimals is not None:
        index = {}
        for number, (system, task, metric, value) in enumerate(table.rows, start=1):
            try:
                rounded = round_half_up(value, decimals)
            except ArithmeticError:  # decimal.InvalidOperation: too many digits
                raise InputError(
                    f"score table row {number}: cannot round {value!r} to {decimals} decimals"
                ) from None
            index.setdefault(task, {}).setdefault(metric, {})[system] = rounded
    systems = set().union(*(cell for by_metric in index.values() for cell in by_metric.values()))

    winners: dict[tuple[str, str], str] = {}
    by_task: dict[str, dict[str, str]] = {}  # task -> metric -> winner
    skipped = []
    for task in sorted(index):
        by_metric = index[task]
        decided = by_task[task] = {}
        for metric in sorted(by_metric):
            cell_values = by_metric[metric]
            if len(cell_values) != len(systems):
                skipped.append((task, metric))
                continue
            best = max(cell_values.values())
            leaders = [s for s, v in cell_values.items() if v == best]
            winner = leaders[0] if len(leaders) == 1 else TIE
            winners[task, metric] = decided[metric] = winner

    agreement: dict[tuple[str, str], float] = {}
    compared: dict[tuple[str, str], int] = {}
    for a, b in combinations(sorted(set().union(*index.values())), 2):
        both = [w for w in by_task.values() if a in w and b in w]
        if both:
            agreement[a, b] = sum(w[a] == w[b] for w in both) / len(both)
            compared[a, b] = len(both)
    signature = f"matrix:v{SIGNATURE_VERSION}|decimals:{'none' if decimals is None else decimals}"
    return WinnerMatrix(winners, agreement, compared, tuple(skipped), signature)


def _table_text(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip()]
    for row in rows:
        lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(row)).rstrip())
    return "\n".join(lines)


def _ngram_header(order: int) -> str:
    names = {1: "uni-gram", 2: "bi-gram", 3: "tri-gram"}
    return names.get(order, f"{order}-gram")


def render_report(data, fmt: str = "table") -> str:
    """Render an EvaluationReport, ComparisonReport or WinnerMatrix as an
    aligned text table or JSON; any other type raises TypeError. A
    BleuReport is rendered only as the BLEU block of the EvaluationReport
    that carries it. Output is byte-deterministic for identical inputs.
    """
    if fmt not in ("table", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    if not isinstance(data, (EvaluationReport, ComparisonReport, WinnerMatrix)):
        raise TypeError(f"cannot render {type(data).__name__}")
    if fmt == "json":
        return json.dumps(data.to_dict(), indent=2, ensure_ascii=False)

    if isinstance(data, EvaluationReport):
        rows = [
            [metric_id, f"{result.corpus:.4f}", f"0-{_SCALES[metric_id]}"]
            for metric_id, result in data.metrics.items()
        ]
        text = _table_text(["metric", "corpus", "scale"], rows)
        bleu = data.bleu_report
        if bleu is not None:
            headers = [_ngram_header(n) for n in range(1, len(bleu.precisions) + 1)]
            row = [f"{p:.2f}" for p in bleu.precisions]
            text += "\n\n" + _table_text(
                headers + ["BP", "Overall"], [row + [f"{bleu.bp:.3f}", f"{bleu.score:.2f}"]]
            )
    elif isinstance(data, ComparisonReport):
        rows = []
        for row in data.rows:
            rate = "n/a" if row.rate_percent is None else f"{row.rate_percent:+.2f}%"
            rows.append([row.metric, f"{row.before:.4f}", f"{row.after:.4f}", rate])
        text = _table_text(["metric", "before", "after", "rate"], rows)
    else:
        rows = [[task, metric, winner] for (task, metric), winner in data.winners.items()]
        text = _table_text(["task", "metric", "winner"], rows)
        if data.agreement:
            agree_rows = [
                [f"{a} vs {b}", f"{fraction:.4f}", str(data.compared_tasks[(a, b)])]
                for (a, b), fraction in data.agreement.items()
            ]
            text += "\n\n" + _table_text(["metric pair", "agreement", "tasks"], agree_rows)
        if data.skipped:
            text += "\n\nskipped cells: " + ", ".join(
                f"{task}/{metric}" for task, metric in data.skipped
            )
    return text + f"\nsignature: {data.signature}"
