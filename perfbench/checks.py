"""Output checks for the benchmark, run outside the timed region.

Each timed command's stdout must

* equal, value for value, what an in-process ``evaluate_pairs`` (or
  ``winner_matrix``) gives for the same inputs (``check_output``);
* repeat byte for byte across repetitions (checked by the runner).

The in-process values are in turn checked against the brute-force oracles in
``tests/oracles.py`` and against formulas written out here independently of
the package (``oracle_problems``), and, for the default seed, against the
corpus scores recorded when the benchmark was created (``recorded_problems``).
Every check returns a list of problems; an empty list means the output is
correct. The value checks tag each problem with the metrics it concerns, so
the runner can fail the commands that print those metrics.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from mtmetrics import __version__
from mtmetrics._version import SIGNATURE_VERSION
from mtmetrics.bleu import bleu_corpus
from mtmetrics.evalharness import (
    METRICS,
    EvalConfig,
    evaluate_pairs,
    improvement_rate,
    run_signature,
)
from mtmetrics.hlepor import align
from mtmetrics.textnorm import tokenize
from oracles import bf_best_matching, bf_clipped_counts, bf_lcs, scaled_matching_cost

# bf_lcs and bf_best_matching enumerate subsets, so only pairs whose longer
# side has at most this many tokens are checked against them.
ORACLE_MAX_TOKENS = 8
# bf_ngram_counts is quadratic in the segment length.
NGRAM_ORACLE_MAX_TOKENS = 400

RECORDED = Path(__file__).resolve().parent / "recorded_scores.json"
DEFAULT_SEED = 1


class Reference:
    """In-process results for one generated corpus, computed once per run."""

    def __init__(self, data: dict):
        self.config = EvalConfig()
        self.lines = {side: data[side] for side in ("ref", "hyp_a", "hyp_b")}
        self.tokens = {
            side: [tokenize(line, self.config.tokenizer).tokens for line in lines]
            for side, lines in self.lines.items()
        }
        self.reports = {
            "A": evaluate_pairs(data["hyp_a"], data["ref"], METRICS, self.config),
            "B": evaluate_pairs(data["hyp_b"], data["ref"], METRICS, self.config),
        }
        self.seg_bleu = evaluate_pairs(
            data["hyp_a"], data["ref"], ("bleu",), EvalConfig(segment_bleu=True)
        )
        self.table = data["table"]

    def pairs(self, system: str) -> list[tuple[tuple[str, ...], tuple[str, ...]]]:
        hyp = self.tokens["hyp_a" if system == "A" else "hyp_b"]
        return list(zip(hyp, self.tokens["ref"]))


def check_output(kind: tuple, stdout: bytes, ref: Reference) -> list[str]:
    """Problems with one command's stdout; `kind` names what it computed.

    ``("version",)``, ``("score", metric, segment_bleu)``, ``("compare",)``
    or ``("matrix",)``.
    """
    if kind[0] == "version":
        want = f"mtmetrics {__version__} (signature format v{SIGNATURE_VERSION})\n"
        return [] if stdout == want.encode() else [f"version line {stdout[:80]!r}"]
    try:
        payload = json.loads(stdout.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        return [f"stdout is not JSON: {exc}"]
    try:
        if kind[0] == "score":
            return _score_problems(payload, kind[1], kind[2], ref)
        if kind[0] == "compare":
            return _compare_problems(payload, ref)
        return _matrix_problems(payload, ref.table)
    except (KeyError, TypeError, IndexError) as exc:
        return [f"{kind[0]} report lacks an expected field: {exc!r}"]


def _score_problems(payload: dict, metric: str, segment_bleu: bool,
                    ref: Reference) -> list[str]:
    report = ref.seg_bleu if segment_bleu else ref.reports["A"]
    config = EvalConfig(segment_bleu=segment_bleu)
    want = report.metrics[metric]
    got = payload["metrics"][metric]
    problems = []
    if payload["signature"] != run_signature((metric,), config):
        problems.append(f"signature {payload['signature']!r}")
    if got["corpus"] != want.corpus:
        problems.append(f"{metric} corpus {got['corpus']!r} != {want.corpus!r}")
    got_segments = got.get("segments")
    want_segments = None if want.segments is None else list(want.segments)
    if got_segments != want_segments:
        bad = [i for i, (g, w) in enumerate(zip(got_segments or [], want_segments or []))
               if g != w]
        problems.append(f"{metric} segments differ (first at index {bad[:1]})")
    if payload["counts"] != report.counts:
        problems.append(f"counts {payload['counts']!r} != {report.counts!r}")
    return problems


def _compare_problems(payload: dict, ref: Reference) -> list[str]:
    problems = []
    if payload["signature"] != run_signature(METRICS, ref.config):
        problems.append(f"signature {payload['signature']!r}")
    rows = payload["rows"]
    if [row["metric"] for row in rows] != list(METRICS):
        return problems + [f"compare rows {[row['metric'] for row in rows]}"]
    for row in rows:
        before = ref.reports["A"].metrics[row["metric"]].corpus
        after = ref.reports["B"].metrics[row["metric"]].corpus
        rate = improvement_rate(before, after) if before > 0 else None
        if (row["before"], row["after"], row["rate_percent"]) != (before, after, rate):
            problems.append(f"compare row {row!r} != {(before, after, rate)!r}")
    return problems


def _matrix_problems(payload: dict, table: dict) -> list[str]:
    # Winners and agreement recomputed here from the generated table.
    cells: dict[tuple[str, str], dict[str, float]] = {}
    for row in table["rows"]:
        cells.setdefault((row["task"], row["metric"]), {})[row["system"]] = row["value"]
    winners = {}
    for cell, values in cells.items():
        best = max(values.values())
        leaders = sorted(s for s, v in values.items() if v == best)
        winners[cell] = leaders[0] if len(leaders) == 1 else "TIE"
    metrics = sorted({metric for _, metric in cells})
    tasks = sorted({task for task, _ in cells})
    agreement = []
    for i, a in enumerate(metrics):
        for b in metrics[i + 1:]:
            same = sum(winners[(t, a)] == winners[(t, b)] for t in tasks)
            agreement.append({"metrics": [a, b], "fraction": same / len(tasks),
                              "tasks": len(tasks)})
    want = {
        "winners": [{"task": t, "metric": m, "winner": w}
                    for (t, m), w in sorted(winners.items())],
        "agreement": agreement,
        "skipped": [],
        "signature": f"matrix:v{SIGNATURE_VERSION}|decimals:none",
    }
    return [] if payload == want else ["matrix report differs from the recomputed winners"]


def _bleu_from_counts(correct, total, hyp_len: int, ref_len: int, smoothing: str) -> float:
    precisions = []
    doubling = 1.0
    for c, t in zip(correct, total):
        if c == 0 and smoothing == "exp":
            doubling *= 2.0
            precisions.append(100.0 / (doubling * max(t, 1)))
        else:
            precisions.append(100.0 * c / t if t else 0.0)
    if min(precisions) == 0.0:
        return 0.0
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return bp * math.exp(sum(math.log(p) for p in precisions) / len(precisions))


def _hlepor_from_alignment(pairs, lh: int, lr: int, hp) -> float:
    if lh == 0 or lr == 0 or not pairs:
        return 0.0
    lp = 1.0 if lh == lr else math.exp(1.0 - max(lh, lr) / min(lh, lr))
    npd = math.fsum(abs((i + 1) / lh - (j + 1) / lr) for i, j in pairs) / lh
    precision, recall = len(pairs) / lh, len(pairs) / lr
    hpr = (hp.alpha + hp.beta) * precision * recall / (hp.alpha * precision + hp.beta * recall)
    weights = hp.w_lp + hp.w_npp + hp.w_hpr
    return weights / (hp.w_lp / lp + hp.w_npp / math.exp(-npd) + hp.w_hpr / hpr)


def _meteor_from_alignment(pairs, lh: int, lr: int, mp) -> float:
    if not pairs:
        return 0.0
    precision, recall = len(pairs) / lh, len(pairs) / lr
    f_mean = precision * recall / (mp.alpha * precision + (1.0 - mp.alpha) * recall)
    chunks = 1 + sum(
        1 for (h0, r0), (h1, r1) in zip(pairs, pairs[1:]) if (h1, r1) != (h0 + 1, r0 + 1)
    )
    return f_mean * (1.0 - mp.gamma * (chunks / len(pairs)) ** mp.beta)


def _rouge_from_lcs(lcs: int, lh: int, lr: int) -> float:
    if lh == 0 and lr == 0:
        return 1.0
    if lcs == 0:
        return 0.0
    precision, recall = lcs / lh, lcs / lr
    return 2.0 * precision * recall / (precision + recall)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


def oracle_problems(ref: Reference) -> tuple[list[tuple[tuple[str, ...], str]], int]:
    """Check the in-process values against the oracles and own formulas.

    Returns the problems as (metrics concerned, text) and the number of
    segment pairs checked exactly.
    """
    problems: list[tuple[tuple[str, ...], str]] = []
    checked = 0
    config = ref.config
    for system in ("A", "B"):
        report = ref.reports[system]
        pairs = ref.pairs(system)
        for metric in ("hlepor", "meteor", "rouge-l"):
            result = report.metrics[metric]
            if not _close(result.corpus, math.fsum(result.segments) / len(pairs)):
                problems.append(((metric,), f"{system} {metric} corpus is not the segment mean"))
        for i, (hyp, gold) in enumerate(pairs):
            lh, lr = len(hyp), len(gold)
            if max(lh, lr) > ORACLE_MAX_TOKENS:
                continue
            checked += 1
            alignment = align(hyp, gold).pairs
            card, cost = bf_best_matching(hyp, gold)
            if (len(alignment), scaled_matching_cost(alignment, lh, lr)) != (card, cost):
                problems.append((("hlepor", "meteor"),
                                 f"{system} segment {i + 1}: alignment is not optimal"))
            want = {
                "hlepor": 100.0 * _hlepor_from_alignment(alignment, lh, lr, config.hlepor_params),
                "meteor": _meteor_from_alignment(alignment, lh, lr, config.meteor_params),
                "rouge-l": _rouge_from_lcs(bf_lcs(hyp, gold), lh, lr),
            }
            for metric, value in want.items():
                if not _close(report.metrics[metric].segments[i], value):
                    problems.append(((metric,),
                                     f"{system} segment {i + 1}: {metric} disagrees with oracle"))
            if system == "A" and lh:
                counts = [bf_clipped_counts([hyp], [gold], n) for n in range(1, config.max_n + 1)]
                seg = _bleu_from_counts([c for c, _ in counts], [t for _, t in counts],
                                        lh, lr, "exp")
                if not _close(ref.seg_bleu.metrics["bleu"].segments[i], seg):
                    problems.append((("bleu",),
                                     f"A segment {i + 1}: segment BLEU disagrees with oracle"))

        bleu = report.bleu_report
        if not _close(report.metrics["bleu"].corpus,
                      _bleu_from_counts(bleu.correct, bleu.total, bleu.hyp_tokens,
                                        bleu.ref_tokens, "none")):
            problems.append((("bleu",), f"{system} corpus BLEU disagrees with its clipped counts"))
        # Clipped counts against the oracle, on every pair short enough for it.
        subset = [i for i, (hyp, gold) in enumerate(pairs)
                  if max(len(hyp), len(gold)) <= NGRAM_ORACLE_MAX_TOKENS]
        if any(pairs[i][0] for i in subset):
            hyp_lines = ref.lines["hyp_a" if system == "A" else "hyp_b"]
            sub = bleu_corpus([hyp_lines[i] for i in subset],
                              [ref.lines["ref"][i] for i in subset], config.bleu_config())
            oracle = [bf_clipped_counts([pairs[i][0] for i in subset],
                                        [pairs[i][1] for i in subset], n)
                      for n in range(1, config.max_n + 1)]
            if (list(sub.correct), list(sub.total)) != ([c for c, _ in oracle],
                                                        [t for _, t in oracle]):
                problems.append((("bleu",), f"{system} clipped n-gram counts disagree with oracle"))
    return problems, checked


def corpus_scores(ref: Reference) -> dict:
    return {system: {m: r.corpus for m, r in ref.reports[system].metrics.items()}
            for system in ("A", "B")}


def recorded_problems(ref: Reference, workload: str,
                      seed: int) -> list[tuple[tuple[str, ...], str]]:
    """For the default seed, corpus scores must equal the recorded ones."""
    if seed != DEFAULT_SEED:
        return []
    recorded = json.loads(RECORDED.read_text(encoding="utf-8"))[workload]
    return [((metric,), f"{system} {metric} corpus {value!r} != recorded {want!r}")
            for system, scores in corpus_scores(ref).items()
            for metric, value in scores.items()
            if value != (want := recorded[system][metric])]


def corrupted_score_caught(kind: tuple, stdout: bytes, ref: Reference) -> bool:
    """Whether check_output rejects `stdout` with one score nudged by 1e-9."""
    payload = json.loads(stdout)
    entry = payload["metrics"][kind[1]]
    if entry.get("segments"):
        entry["segments"][0] += 1e-9
    else:
        entry["corpus"] += 1e-9
    corrupted = json.dumps(payload, indent=2).encode() + b"\n"
    return bool(check_output(kind, corrupted, ref))
