"""Span tracing of the package's public functions, from outside the package.

``Tracer.install`` replaces every binding of each traced function (its home
module, modules that imported it by name, the package namespace) with a
wrapper that records a span: name, start, end and parent. Spans are kept in
memory in flat lists and written out by ``write_spans`` when the run ends;
``layer_metrics`` reduces them to per-function call counts, busy seconds and
self seconds (busy minus the time covered by child spans).

Span names are ``<home module>.<function>``, whichever binding was called,
so ``bleu.tokenize`` and ``evalharness.tokenize`` both count as
``textnorm.tokenize``.
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter
from functools import wraps

from mtmetrics import _kernels, bleu, cli, evalharness, hlepor, lexmetrics, textnorm

# (span name, owner, attribute). The owner is the home module, or the class
# for a classmethod. Metric names may not start with "_", so the spans of
# ``_kernels`` are named ``kernels.*``.
TRACED = (
    ("cli.main", cli, "main"),
    ("evalharness.read_lines", evalharness, "read_lines"),
    ("evalharness.evaluate_pairs", evalharness, "evaluate_pairs"),
    ("evalharness.render_report", evalharness, "render_report"),
    ("evalharness.winner_matrix", evalharness, "winner_matrix"),
    ("evalharness.ScoreTable.from_dict", evalharness.ScoreTable, "from_dict"),
    ("textnorm.tokenize", textnorm, "tokenize"),
    ("textnorm.extract_ngrams", textnorm, "extract_ngrams"),
    ("bleu.bleu_corpus", bleu, "bleu_corpus"),
    ("hlepor.align", hlepor, "align"),
    ("hlepor.hlepor_sentence", hlepor, "hlepor_sentence"),
    ("lexmetrics.meteor_exact", lexmetrics, "meteor_exact"),
    ("lexmetrics.rouge_l_f1", lexmetrics, "rouge_l_f1"),
    ("lexmetrics.lcs_length", lexmetrics, "lcs_length"),
    ("kernels.ordered_selection", _kernels, "ordered_selection"),
    ("kernels.lcs_length_codes", _kernels, "lcs_length_codes"),
)
SPAN_NAMES = tuple(name for name, _, _ in TRACED)
COUNTERS = (
    "evalharness.read_lines.bytes",
    "evalharness.render_report.bytes",
    "textnorm.tokenize.tokens",
    "kernels.ordered_selection.cells",
    "kernels.lcs_length_codes.cells",
)


class Tracer:
    """Records spans while installed; install() and uninstall() pair up."""

    def __init__(self):
        self.name: list[int] = []      # index into SPAN_NAMES
        self.parent: list[int] = []    # span index, -1 for a root span
        self.start: list[float] = []
        self.end: list[float] = []
        self.counters: Counter = Counter(dict.fromkeys(COUNTERS, 0))
        self.tokenized: set[tuple[int, str]] = set()
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name_id: int, fn, hook):
        names, parents, starts, ends, stack = (
            self.name, self.parent, self.start, self.end, self._stack)
        clock = time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def _hooks(self) -> dict:
        counters, stack = self.counters, self._stack

        def tokenize(args, result):
            counters["textnorm.tokenize.tokens"] += len(result)
            self.tokenized.add((stack[1], args[0]))  # (root span, text)

        def read_lines(args, result):
            counters["evalharness.read_lines.bytes"] += os.path.getsize(args[0])

        def render_report(args, result):
            counters["evalharness.render_report.bytes"] += len(result.encode("utf-8"))

        def ordered_selection(args, result):
            counters["kernels.ordered_selection.cells"] += (args[0].size + 1) * (args[1].size + 1)

        def lcs_length_codes(args, result):
            counters["kernels.lcs_length_codes.cells"] += args[0].size * args[1].size

        return {
            "textnorm.tokenize": tokenize,
            "evalharness.read_lines": read_lines,
            "evalharness.render_report": render_report,
            "kernels.ordered_selection": ordered_selection,
            "kernels.lcs_length_codes": lcs_length_codes,
        }

    def install(self) -> None:
        hooks = self._hooks()
        modules = [module for name, module in sys.modules.items()
                   if name == "mtmetrics" or name.startswith("mtmetrics.")]
        for name_id, (name, owner, attr) in enumerate(TRACED):
            if isinstance(owner, type):  # a classmethod: wrap the function inside
                original = owner.__dict__[attr]
                wrapped = classmethod(self._wrap(name_id, original.__func__, hooks.get(name)))
                self._patch(owner, attr, original, wrapped)
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name_id, original, hooks.get(name))
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, binding, original, wrapped)

    def _patch(self, owner, attr, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def roots(self) -> list[int]:
        """Root span of every span (a span is its own root when parentless)."""
        root: list[int] = []
        for index, parent in enumerate(self.parent):
            root.append(index if parent < 0 else root[parent])
        return root

    def calls_by_root(self) -> dict[int, Counter]:
        """Per root span, the number of spans of each name below it."""
        counts: dict[int, Counter] = {}
        for index, root in enumerate(self.roots()):
            counts.setdefault(root, Counter())[SPAN_NAMES[self.name[index]]] += 1
        return counts

    def layer_metrics(self) -> dict[str, float]:
        """``<span>.calls``, ``<span>.s`` and ``<span>.self_s`` for every name."""
        child_time = [0.0] * len(self.start)
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                child_time[parent] += self.end[index] - self.start[index]
        calls = [0] * len(SPAN_NAMES)
        busy = [0.0] * len(SPAN_NAMES)
        own = [0.0] * len(SPAN_NAMES)
        for index, name_id in enumerate(self.name):
            duration = self.end[index] - self.start[index]
            calls[name_id] += 1
            busy[name_id] += duration
            own[name_id] += duration - child_time[index]
        metrics: dict[str, float] = {}
        for name_id, name in enumerate(SPAN_NAMES):
            metrics[f"{name}.calls"] = calls[name_id]
            metrics[f"{name}.s"] = busy[name_id]
            metrics[f"{name}.self_s"] = own[name_id]
        return metrics

    def write_spans(self, path) -> None:
        """One span per line: index, name, parent index, start, end (seconds)."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("index\tname\tparent\tstart\tend\n")
            for index, name_id in enumerate(self.name):
                handle.write(f"{index}\t{SPAN_NAMES[name_id]}\t{self.parent[index]}\t"
                             f"{self.start[index]!r}\t{self.end[index]!r}\n")


def expected_calls(kind: tuple, pairs_a: list, pairs_b: list, max_n: int) -> Counter:
    """Span counts that one command must produce, derived from the code.

    `pairs_*` are (hyp tokens, ref tokens) per segment for systems A and B.
    Keys are span names, plus ``kernels.*.cells`` for the kernel table
    sizes; a missing key means zero.
    """
    want: Counter = Counter({"cli.main": 1, "evalharness.render_report": 1})
    if kind[0] == "matrix":
        want.update({"evalharness.ScoreTable.from_dict": 1, "evalharness.winner_matrix": 1})
        return want
    if kind[0] == "compare":
        systems, metrics, segment_bleu = (pairs_a, pairs_b), ("bleu", "hlepor", "meteor",
                                                              "rouge-l"), False
    else:
        systems, metrics, segment_bleu = (pairs_a,), (kind[1],), kind[2]
    want["evalharness.read_lines"] = 2 * len(systems)
    for pairs in systems:
        want["evalharness.evaluate_pairs"] += 1
        want["textnorm.tokenize"] += 2 * len(pairs)
        if "bleu" in metrics:
            # bleu_corpus tokenizes again and extracts hyp n-grams of each
            # order until one is empty, and ref n-grams of each non-empty one.
            ngrams = sum(2 * min(len(h), max_n) + (len(h) < max_n) for h, _ in pairs)
            want["bleu.bleu_corpus"] += 1
            want["textnorm.tokenize"] += 2 * len(pairs)
            want["textnorm.extract_ngrams"] += ngrams
            if segment_bleu:
                rows = [(h, r) for h, r in pairs if h]
                want["bleu.bleu_corpus"] += len(rows)
                want["textnorm.tokenize"] += 2 * len(rows)
                want["textnorm.extract_ngrams"] += sum(
                    2 * min(len(h), max_n) + (len(h) < max_n) for h, _ in rows)
        for metric in ("hlepor", "meteor"):
            if metric in metrics:
                want["hlepor.hlepor_sentence" if metric == "hlepor"
                     else "lexmetrics.meteor_exact"] += len(pairs)
                want["hlepor.align"] += len(pairs)
                for h, r in pairs:
                    calls, cells = _selection(h, r)
                    want["kernels.ordered_selection"] += calls
                    want["kernels.ordered_selection.cells"] += cells
        if "rouge-l" in metrics:
            want["lexmetrics.rouge_l_f1"] += len(pairs)
            want["lexmetrics.lcs_length"] += sum(1 for h, r in pairs if h or r)
            want["kernels.lcs_length_codes"] += sum(1 for h, r in pairs if h and r)
            want["kernels.lcs_length_codes.cells"] += sum(len(h) * len(r) for h, r in pairs)
    return want


def _selection(hyp, ref) -> tuple[int, int]:
    # align() runs the selection kernel once per form present on both sides
    # with different occurrence counts p < q, over a (p+1) x (q+1) table.
    ref_counts = Counter(ref)
    calls = cells = 0
    for form, n in Counter(hyp).items():
        m = ref_counts.get(form, n)
        if m != n:
            calls += 1
            cells += (min(m, n) + 1) * (max(m, n) + 1)
    return calls, cells
