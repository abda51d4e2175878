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
from dataclasses import asdict, astuple, dataclass, field
from decimal import ROUND_HALF_UP, Context, Decimal
from typing import Iterable, Sequence

from ._version import SIGNATURE_VERSION
from .bleu import BleuConfig, BleuReport, bleu_corpus
from .errors import InputError
from .hlepor import HleporParams, hlepor_sentence
from .lexmetrics import MeteorParams, meteor_exact, rouge_l_f1
from .textnorm import TokenizerConfig, tokenize

METRICS = ("bleu", "hlepor", "meteor", "rouge-l")

#: Marker used in winner matrices when two systems tie exactly.
TIE = "TIE"

_SCALES = {"bleu": "0-100", "hlepor": "0-100", "meteor": "0-1", "rouge-l": "0-1"}

# Non-BLEU segment scorers in run order; they look the metric functions up
# at call time, so perfbench's tracer sees calls through rebound names.
_SEGMENT_SCORERS = {
    "hlepor": lambda hyp, ref, config: hlepor_sentence(hyp, ref, config.hlepor_params).score,
    "meteor": lambda hyp, ref, config: meteor_exact(hyp, ref, config.meteor_params),
    "rouge-l": lambda hyp, ref, config: rouge_l_f1(hyp, ref).f1,
}


def _fmt_num(x: float) -> str:
    return format(x, "g")


@dataclass(frozen=True)
class EvalConfig:
    """Everything that can change a score, bundled so it can be disclosed."""

    tokenizer: TokenizerConfig = TokenizerConfig()
    hlepor_params: HleporParams = HleporParams()
    meteor_params: MeteorParams = MeteorParams()
    max_n: int = 4
    smoothing: str = "none"
    smooth_k: float = 1.0
    segment_bleu: bool = False

    def __post_init__(self) -> None:
        self.bleu_config()  # raises ValueError on bad BLEU settings

    def bleu_config(self) -> BleuConfig:
        return BleuConfig(self.max_n, self.smoothing, self.smooth_k, self.tokenizer)

    def segment_bleu_config(self) -> BleuConfig:
        # Per-segment BLEU forces exponential smoothing; raw per-order
        # precisions collapse to zero on almost every single sentence.
        return BleuConfig(self.max_n, "exp", 1.0, self.tokenizer)

    def to_dict(self) -> dict:
        return {
            "tokenize": self.tokenizer.scheme,
            "lowercase": self.tokenizer.lowercase,
            "max_n": self.max_n,
            "smoothing": self.smoothing,
            "smooth_k": self.smooth_k,
            "hlepor_params": asdict(self.hlepor_params),
            "meteor_params": asdict(self.meteor_params),
            "segment_bleu": self.segment_bleu,
        }


def run_signature(metrics: Sequence[str], config: EvalConfig) -> str:
    """Settings summary sufficient to re-run an evaluation."""
    parts = [
        f"mteval:v{SIGNATURE_VERSION}",
        f"case:{config.tokenizer.case_label}",
        f"tok:{config.tokenizer.scheme_label}",
        "metrics:" + "+".join(metrics),
    ]
    if "bleu" in metrics:
        parts.append(f"smooth:{config.bleu_config().smooth_label}")
        parts.append(f"n:{config.max_n}")
        if config.segment_bleu:
            parts.append("seg-bleu:exp")
    for metric_id, params in (("hlepor", config.hlepor_params),
                              ("meteor", config.meteor_params)):
        if metric_id in metrics:
            parts.append(f"{metric_id}:" + ",".join(_fmt_num(v) for v in astuple(params)))
    return "|".join(parts)


def read_lines(path) -> list[str]:
    """Read a UTF-8 text file, one segment per line.

    A leading byte-order mark is dropped. Undecodable bytes are reported
    with their line number instead of a bare UnicodeDecodeError.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise InputError(str(exc)) from None
    chunks = data.removeprefix(codecs.BOM_UTF8).split(b"\n")
    if chunks and chunks[-1] == b"":
        chunks.pop()
    lines = []
    for number, chunk in enumerate(chunks, start=1):
        try:
            text = chunk.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: line {number}: undecodable bytes ({exc.reason})") from None
        lines.append(text.rstrip("\r"))
    return lines


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


@dataclass(frozen=True)
class MetricResult:
    corpus: float
    segments: tuple[float, ...] | None = None


@dataclass(frozen=True)
class EvaluationReport:
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
                   config: EvalConfig | None = None) -> EvaluationReport:
    """Score in-memory segment pairs. See ``evaluate_corpus`` for files."""
    if config is None:
        config = EvalConfig()
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

    scorers = [(m, score) for m, score in _SEGMENT_SCORERS.items() if m in metric_ids]
    columns: dict[str, list[float]] = {metric_id: [] for metric_id, _ in scorers}
    seg_bleu_config = None
    if "bleu" in metric_ids and config.segment_bleu:
        seg_bleu_config = config.segment_bleu_config()
        columns["bleu"] = []

    for index, (hyp_seq, ref_seq) in enumerate(zip(hyp_seqs, ref_seqs)):
        for metric_id, score in scorers:
            columns[metric_id].append(score(hyp_seq, ref_seq, config))
        if seg_bleu_config is not None:
            if hyp_seq:
                value = bleu_corpus([hyp_list[index]], [ref_list[index]], seg_bleu_config).score
            else:
                # An empty hypothesis has no n-grams: it scores 0, unless the
                # reference is empty too, which is a perfect match.
                value = 0.0 if ref_seq else 100.0
            columns["bleu"].append(value)

    results: dict[str, MetricResult] = {}
    bleu_report = None
    for metric_id in metric_ids:
        values = columns.get(metric_id)
        if metric_id == "bleu":
            bleu_report = bleu_corpus(hyp_list, ref_list, config.bleu_config())
            results["bleu"] = MetricResult(
                bleu_report.score, None if values is None else tuple(values)
            )
        else:
            # hLEPOR is reported on 0-100; multiplying by 1.0 is exact.
            scale = 100.0 if metric_id == "hlepor" else 1.0
            results[metric_id] = MetricResult(
                scale * math.fsum(values) / len(values), tuple(scale * v for v in values)
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
                    config: EvalConfig | None = None) -> EvaluationReport:
    """Score two line-aligned UTF-8 files against each other."""
    hyps = read_lines(hyp_file)
    refs = read_lines(ref_file)
    if len(hyps) != len(refs):
        raise InputError(
            f"line count mismatch: {hyp_file} has {len(hyps)} lines, "
            f"{ref_file} has {len(refs)} lines"
        )
    return evaluate_pairs(hyps, refs, metrics, config)


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

    Negative results are drops. The base must be positive.
    """
    if before <= 0:
        raise InputError(f"improvement rate needs a positive base score, got {before}")
    return round_half_up(100.0 * (after - before) / before, 2)


@dataclass(frozen=True)
class ComparisonRow:
    metric: str
    before: float
    after: float
    rate_percent: float | None


@dataclass(frozen=True)
class ComparisonReport:
    signature: str
    rows: tuple[ComparisonRow, ...]

    def to_dict(self) -> dict:
        return {
            "signature": self.signature,
            "rows": [asdict(row) for row in self.rows],
        }


def compare_files(before_file, after_file, ref_file,
                  metrics: Iterable[str] = METRICS,
                  config: EvalConfig | None = None) -> ComparisonReport:
    """Score two systems against one reference and rate the change."""
    metric_ids = _validated_metrics(metrics)
    before_report = evaluate_corpus(before_file, ref_file, metric_ids, config)
    after_report = evaluate_corpus(after_file, ref_file, metric_ids, config)
    rows = []
    for metric_id in metric_ids:
        before = before_report.metrics[metric_id].corpus
        after = after_report.metrics[metric_id].corpus
        rate = improvement_rate(before, after) if before > 0 else None
        rows.append(ComparisonRow(metric_id, before, after, rate))
    return ComparisonReport(before_report.signature, tuple(rows))


def _checked_rows(rows, keys: set, first: int = 1) -> list[tuple[str, str, str, float]]:
    """Score-table rows numbered from `first`, checked: three string labels
    whose triple is not yet in `keys`, and a finite real number, returned as
    a float. The triples are added to `keys`."""
    checked = []
    for number, (system, task, metric, value) in enumerate(rows, start=first):
        if not (isinstance(system, str) and isinstance(task, str) and isinstance(metric, str)):
            for name, label in (("system", system), ("task", task), ("metric", metric)):
                if not isinstance(label, str):
                    raise InputError(
                        f"score table row {number}: {name} must be a string, got {label!r}"
                    )
        # bool is an int subclass, and float() would also read strings such
        # as " 0.5 ". int and float come first because the ABC check is slow.
        if isinstance(value, bool) or not isinstance(value, (int, float, numbers.Real)):
            raise InputError(f"score table row {number}: value must be a number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:  # an integer beyond the float range
            raise InputError(
                f"score table row {number}: value is beyond the float range"
            ) from None
        if not math.isfinite(value):
            raise InputError(f"score table row {number}: value must be finite, got {value}")
        key = (system, task, metric)
        if key in keys:
            raise InputError(f"duplicate score table entry {key}")
        keys.add(key)
        checked.append((system, task, metric, value))
    return checked


@dataclass
class ScoreTable:
    """(system, task, metric) -> value rows; triples must be unique.

    Rows are checked on construction and by ``add``, the way to extend a
    table: it keeps the set of triples that makes its duplicate check O(1).
    """

    rows: list[tuple[str, str, str, float]] = field(default_factory=list)
    scales: dict[str, str] = field(default_factory=dict)
    _keys: set[tuple[str, str, str]] = field(
        default_factory=set, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.rows = _checked_rows(self.rows, self._keys)

    def add(self, system: str, task: str, metric: str, value: float) -> None:
        self.rows += _checked_rows([(system, task, metric, value)], self._keys,
                                   len(self.rows) + 1)

    def systems(self) -> list[str]:
        return sorted({row[0] for row in self.rows})

    def tasks(self) -> list[str]:
        return sorted({row[1] for row in self.rows})

    def metric_ids(self) -> list[str]:
        return sorted({row[2] for row in self.rows})

    def to_dict(self) -> dict:
        body: dict = {
            "rows": [
                {"system": s, "task": t, "metric": m, "value": v}
                for s, t, m, v in self.rows
            ]
        }
        if self.scales:
            body["scales"] = dict(sorted(self.scales.items()))
        return body

    @classmethod
    def from_dict(cls, data: dict) -> "ScoreTable":
        if not isinstance(data, dict) or not isinstance(data.get("rows"), list):
            raise InputError("score table JSON must be an object with a 'rows' array")
        scales = data.get("scales", {})
        if not isinstance(scales, dict):
            raise InputError("score table 'scales' must be an object")
        rows = []
        for index, row in enumerate(data["rows"], start=1):
            try:
                rows.append((row["system"], row["task"], row["metric"], row["value"]))
            except (TypeError, KeyError) as exc:
                raise InputError(
                    f"score table row {index} needs system/task/metric/value: {exc}"
                ) from None
        return cls(rows, dict(scales))  # the constructor checks each row


@dataclass(frozen=True)
class WinnerMatrix:
    """Per-(task, metric) winner plus pairwise metric agreement over tasks."""

    winners: dict[tuple[str, str], str]
    agreement: dict[tuple[str, str], float]
    compared_tasks: dict[tuple[str, str], int]
    skipped: tuple[tuple[str, str], ...]
    signature: str

    def to_dict(self) -> dict:
        return {
            "winners": [
                {"task": task, "metric": metric, "winner": winner}
                for (task, metric), winner in sorted(self.winners.items())
            ],
            "agreement": [
                {
                    "metrics": [a, b],
                    "fraction": fraction,
                    "tasks": self.compared_tasks[(a, b)],
                }
                for (a, b), fraction in sorted(self.agreement.items())
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
    optional half-up rounding to ``decimals``) yields the tie marker.
    """
    if not table.rows:
        raise InputError("empty score table")
    systems = table.systems()
    values: dict[tuple[str, str], dict[str, float]] = {}
    for index, (system, task, metric, value) in enumerate(table.rows, start=1):
        if decimals is not None:
            try:
                value = round_half_up(value, decimals)
            except ArithmeticError:  # decimal.InvalidOperation: too many digits
                raise InputError(
                    f"score table row {index}: cannot round {value!r} to {decimals} decimals"
                ) from None
        values.setdefault((task, metric), {})[system] = value

    winners: dict[tuple[str, str], str] = {}
    skipped = []
    for cell in sorted(values):
        cell_values = values[cell]
        if len(cell_values) != len(systems):
            skipped.append(cell)
            continue
        best = max(cell_values.values())
        leaders = sorted(s for s, v in cell_values.items() if v == best)
        winners[cell] = leaders[0] if len(leaders) == 1 else TIE

    metrics = table.metric_ids()
    tasks = table.tasks()
    agreement: dict[tuple[str, str], float] = {}
    compared: dict[tuple[str, str], int] = {}
    for i, metric_a in enumerate(metrics):
        for metric_b in metrics[i + 1:]:
            shared = [
                task for task in tasks
                if (task, metric_a) in winners and (task, metric_b) in winners
            ]
            if not shared:
                continue
            agree = sum(
                1 for task in shared
                if winners[(task, metric_a)] == winners[(task, metric_b)]
            )
            agreement[(metric_a, metric_b)] = agree / len(shared)
            compared[(metric_a, metric_b)] = len(shared)
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


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, ensure_ascii=False)


def render_report(data, fmt: str = "table") -> str:
    """Render a report object as an aligned text table or JSON.

    Accepts EvaluationReport, ComparisonReport, WinnerMatrix and ScoreTable;
    a BleuReport is rendered as the BLEU block of the EvaluationReport that
    carries it. Output is byte-deterministic for identical inputs.
    """
    if fmt not in ("table", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    if not isinstance(data, (EvaluationReport, ComparisonReport, WinnerMatrix, ScoreTable)):
        raise TypeError(f"cannot render {type(data).__name__}")
    if fmt == "json":
        return _json_text(data.to_dict())

    if isinstance(data, EvaluationReport):
        rows = [
            [metric_id, f"{result.corpus:.4f}", _SCALES[metric_id]]
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
        return text + f"\nsignature: {data.signature}"

    if isinstance(data, ComparisonReport):
        rows = []
        for row in data.rows:
            rate = "n/a" if row.rate_percent is None else f"{row.rate_percent:+.2f}%"
            rows.append([row.metric, f"{row.before:.4f}", f"{row.after:.4f}", rate])
        text = _table_text(["metric", "before", "after", "rate"], rows)
        return text + f"\nsignature: {data.signature}"

    if isinstance(data, WinnerMatrix):
        rows = [
            [task, metric, winner]
            for (task, metric), winner in sorted(data.winners.items())
        ]
        text = _table_text(["task", "metric", "winner"], rows)
        if data.agreement:
            agree_rows = [
                [f"{a} vs {b}", f"{fraction:.4f}", str(data.compared_tasks[(a, b)])]
                for (a, b), fraction in sorted(data.agreement.items())
            ]
            text += "\n\n" + _table_text(["metric pair", "agreement", "tasks"], agree_rows)
        if data.skipped:
            text += "\n\nskipped cells: " + ", ".join(
                f"{task}/{metric}" for task, metric in data.skipped
            )
        return text + f"\nsignature: {data.signature}"

    rows = [
        [system, task, metric, f"{value:g}"]
        for system, task, metric, value in sorted(data.rows)
    ]
    return _table_text(["system", "task", "metric", "value"], rows)
