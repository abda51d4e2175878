#!/usr/bin/env python3
"""Benchmark of the mtmetrics CLI on seeded synthetic corpora.

    python3 perfbench/run.py --workload news --seed 1 --seconds 38 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` (end to end) times the commands users run as fresh processes,
in rounds until ``--seconds`` is spent: ``mtmetrics --version`` (set-up: it
imports every module), ``score`` for each metric, ``score --segment-bleu``,
``compare`` over all metrics and ``matrix``. Each metric is the median wall
time of its command; ``peak_rss_mb`` is the median peak RSS of ``compare``.

``--trace 1`` (per layer) runs the same commands in-process, alternating
untraced and traced passes, and reports per-function spans (see spans.py).

Every output is checked outside the timed region (see checks.py). The last
stdout line is one JSON object with ``correct``, ``attempted``, ``failed``
(commands that exited non-zero or failed a check) and ``metrics``; a table
of the metrics and the corpus properties goes to stderr. Run from a source
checkout: the program is imported from ``src/`` and the oracles from
``tests/``. Generated files go to ``.perfbench-work/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import corpus

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench-work"

# The program comes from src/ and the oracles from tests/ of this checkout.
if not ((ROOT / "src" / "mtmetrics" / "cli.py").is_file()
        and (ROOT / "tests" / "oracles.py").is_file()):
    sys.exit(f"perfbench: no mtmetrics source tree (src/, tests/) under {ROOT}")
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import checks  # noqa: E402
import spans  # noqa: E402
from mtmetrics import _kernels, cli  # noqa: E402
from mtmetrics.evalharness import METRICS, EvalConfig  # noqa: E402
from mtmetrics.textnorm import tokenize  # noqa: E402

# The console script pip generates for ``mtmetrics = "mtmetrics.cli:main"``.
ENTRY = "import sys; from mtmetrics.cli import main; sys.exit(main())"
MIN_ROUNDS = 3
IMPORT_REPS = 5
CHILD_TIMEOUT_S = 120
# Self times must add up to the traced wall time within this share.
SELF_SUM_TOLERANCE = 0.05

END_TO_END_UNITS = {
    "setup_s": "s", "score_bleu_s": "s", "score_bleu_seg_s": "s", "score_hlepor_s": "s",
    "score_meteor_s": "s", "score_rouge-l_s": "s", "compare_s": "s", "matrix_s": "s",
    "peak_rss_mb": "MB",
}


def commands(files: dict[str, str]) -> list[tuple[str, list[str], tuple]]:
    """(metric name, CLI arguments, what checks.check_output expects)."""
    pair = ["--hyp", files["hyp_a"], "--ref", files["ref"]]
    cmds = [("setup_s", ["--version"], ("version",))]
    for metric in ("bleu", "hlepor", "meteor", "rouge-l"):
        cmds.append((f"score_{metric}_s",
                     ["score", "--metric", metric, "--format", "json", *pair],
                     ("score", metric, False)))
    cmds.append(("score_bleu_seg_s",
                 ["score", "--metric", "bleu", "--segment-bleu", "--format", "json", *pair],
                 ("score", "bleu", True)))
    cmds.append(("compare_s",
                 ["compare", "--before", files["hyp_a"], "--after", files["hyp_b"],
                  "--ref", files["ref"], "--metrics", ",".join(METRICS), "--format", "json"],
                 ("compare",)))
    cmds.append(("matrix_s", ["matrix", "--scores", files["table"], "--format", "json"],
                 ("matrix",)))
    return cmds


def write_corpus(data: dict, workdir: Path) -> dict[str, str]:
    workdir.mkdir(parents=True, exist_ok=True)
    files = {}
    for side in ("ref", "hyp_a", "hyp_b"):
        path = workdir / f"{side}.txt"
        path.write_text("".join(line + "\n" for line in data[side]), encoding="utf-8")
        files[side] = str(path.relative_to(ROOT))
    path = workdir / "table.json"
    path.write_text(json.dumps(data["table"]), encoding="utf-8")
    files["table"] = str(path.relative_to(ROOT))
    return files


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def run_child(args: list[str], workdir: Path, env: dict) -> tuple[float, int, float, bytes]:
    """Run one fresh process; return wall seconds, exit code, peak RSS MB, stdout."""
    out_path, err_path = workdir / "stdout", workdir / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err,
                                env=env, cwd=ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        print(f"exit {proc.returncode}: {' '.join(args[2:])}\n"
              f"{err_path.read_text(errors='replace')[-500:]}", file=sys.stderr)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0, out_path.read_bytes()


class Outcomes:
    """Per-command pass/fail bookkeeping and the first stdout of each."""

    def __init__(self):
        self.ok: dict[str, list[bool]] = {}
        self.first: dict[str, bytes] = {}
        self.problems: list[str] = []

    def record(self, name: str, code: int, stdout: bytes) -> None:
        ok = code == 0
        if ok and name not in self.first:
            self.first[name] = stdout
        elif ok and stdout != self.first[name]:
            ok = False
            self.problems.append(f"{name}: stdout differs between repetitions")
        self.ok.setdefault(name, []).append(ok)

    def check(self, cmds, ref, value_problems) -> None:
        """Check each command's first stdout; fail every run of a command
        whose output is wrong or prints a metric with a value problem."""
        wrong = {metric for metrics, _ in value_problems for metric in metrics}
        self.problems += [text for _, text in value_problems]
        for name, _, kind in cmds:
            if name not in self.first:
                self.problems.append(f"{name}: no successful run")
                continue
            printed = (set(METRICS) if kind[0] == "compare"
                       else {kind[1]} if kind[0] == "score" else set())
            problems = checks.check_output(kind, self.first[name], ref)
            if printed & wrong:
                problems.append(f"prints {', '.join(sorted(printed & wrong))}, found wrong")
            if problems:
                self.ok[name] = [False] * len(self.ok[name])
                self.problems += [f"{name}: {p}" for p in problems[:5]]

    @property
    def attempted(self) -> int:
        return sum(len(v) for v in self.ok.values())

    @property
    def failed(self) -> int:
        return sum(v.count(False) for v in self.ok.values())


def end_to_end(cmds, workdir: Path, seconds: float, outcomes: Outcomes) -> dict[str, float]:
    env = child_env()
    run_child(["-c", ENTRY, "--version"], workdir, env)  # writes bytecode caches
    walls: dict[str, list[float]] = {name: [] for name, _, _ in cmds}
    rss: list[float] = []
    start = time.perf_counter()
    rounds, round_s = 0, 0.0
    while rounds < MIN_ROUNDS or time.perf_counter() - start + round_s <= seconds:
        round_start = time.perf_counter()
        for name, argv, _ in cmds:
            wall, code, rss_mb, stdout = run_child(["-c", ENTRY, *argv], workdir, env)
            walls[name].append(wall)
            if name == "compare_s":
                rss.append(rss_mb)
            outcomes.record(name, code, stdout)
        round_s = time.perf_counter() - round_start
        rounds += 1
    metrics = {name: statistics.median(values) for name, values in walls.items()}
    metrics["peak_rss_mb"] = statistics.median(rss)
    return metrics


def import_seconds(workdir: Path) -> float:
    probe = ("import time; t = time.perf_counter(); import mtmetrics.cli; "
             "print(repr(time.perf_counter() - t))")
    env = child_env()
    times = []
    for _ in range(IMPORT_REPS):
        _, code, _, stdout = run_child(["-c", probe], workdir, env)
        if code != 0:
            raise RuntimeError("importing mtmetrics.cli failed")
        times.append(float(stdout))
    return statistics.median(times)


def in_process_pass(cmds, tracer=None) -> tuple[float, dict[str, tuple[int, bytes]]]:
    """Run every command through cli.main in this process, optionally traced."""
    results = {}
    if tracer is not None:
        tracer.install()
    try:
        start = time.perf_counter()
        for name, argv, _ in cmds:
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = cli.main(argv)
            results[name] = (code, buffer.getvalue().encode("utf-8"))
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    return wall, results


def check_span_counts(tracer, cmds, ref, outcomes: Outcomes):
    """Compare every command's span counts, and the kernel cell counts, with
    the formulas in spans.expected_calls. Returns the span counts of
    ``compare`` and its number of distinct tokenize inputs."""
    pairs_a, pairs_b = ref.pairs("A"), ref.pairs("B")
    want_cells: dict[str, int] = {}
    for (name, _, kind), (root, got) in zip(cmds, tracer.calls_by_root().items()):
        want = spans.expected_calls(kind, pairs_a, pairs_b, EvalConfig().max_n)
        for key in [k for k in want if k.endswith(".cells")]:
            want_cells[key] = want_cells.get(key, 0) + want.pop(key)
        if got != want:
            diff = {k: (got[k], want[k]) for k in set(got) | set(want) if got[k] != want[k]}
            outcomes.problems.append(f"{name}: span counts (got, expected) {diff}")
        if name == "compare_s":
            compare_calls = got
            compare_tokenized = sum(1 for r, _ in tracer.tokenized if r == root)
    for key, value in want_cells.items():
        if tracer.counters[key] != value:
            outcomes.problems.append(f"{key}: {tracer.counters[key]} != expected {value}")
    return compare_calls, compare_tokenized


def per_layer(cmds, workdir: Path, seconds: float, ref, outcomes: Outcomes) -> dict[str, float]:
    import_s = import_seconds(workdir)
    untraced_walls, traced_walls, passes = [], [], []
    start = time.perf_counter()
    pair_s = 0.0
    while not passes or time.perf_counter() - start + pair_s <= seconds:
        pair_start = time.perf_counter()
        wall, results = in_process_pass(cmds)
        untraced_walls.append(wall)
        tracer = spans.Tracer()
        traced_wall, traced_results = in_process_pass(cmds, tracer)
        traced_walls.append(traced_wall)
        passes.append((tracer, traced_wall))
        for name, (code, stdout) in [*results.items(), *traced_results.items()]:
            outcomes.record(name, code, stdout)
        pair_s = time.perf_counter() - pair_start

    tracer = passes[-1][0]
    tracer.write_spans(workdir / "spans.tsv")
    compare_calls, compare_tokenized = check_span_counts(tracer, cmds, ref, outcomes)
    layer = [t.layer_metrics() for t, _ in passes]
    metrics = {key: statistics.median(m[key] for m in layer) for key in layer[0]}
    self_sum_share = statistics.median(
        sum(v for k, v in m.items() if k.endswith(".self_s")) / wall
        for m, (_, wall) in zip(layer, passes))
    if abs(self_sum_share - 1.0) > SELF_SUM_TOLERANCE:
        outcomes.problems.append(f"self times add up to {self_sum_share:.3f} of the traced wall")
    segments = len(ref.lines["ref"])
    metrics.update(tracer.counters)
    metrics.update({
        "cli.import_s": import_s,
        "textnorm.tokenize.calls_per_segment": compare_calls["textnorm.tokenize"] / segments,
        "textnorm.tokenize.distinct_share": (compare_tokenized
                                             / compare_calls["textnorm.tokenize"]),
        "hlepor.align.calls_per_segment": compare_calls["hlepor.align"] / segments,
        "trace.wall_s": statistics.median(traced_walls),
        "trace.untraced_wall_s": statistics.median(untraced_walls),
        "trace.overhead_share": (statistics.median(traced_walls)
                                 / statistics.median(untraced_walls) - 1.0),
        "trace.self_sum_share": self_sum_share,
    })
    return metrics


def layer_unit(name: str) -> str:
    if name.endswith((".calls", ".tokens", ".cells")):
        return "count"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("calls_per_segment"):
        return "calls/segment"
    if name.endswith("_share"):
        return "ratio"
    return "s"


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    data = corpus.generate(workload, seed)
    workdir = WORK / workload
    files = write_corpus(data, workdir)
    ref = checks.Reference(data)
    facts = corpus.properties(data, lambda line: tokenize(line).tokens)
    print(f"[{workload} seed {seed}] backend {_kernels.active_backend()}; corpus "
          f"{json.dumps(facts)}", file=sys.stderr)

    outcomes = Outcomes()
    oracle, exact_pairs = checks.oracle_problems(ref)
    value_problems = oracle + checks.recorded_problems(ref, workload, seed)
    cmds = commands(files)
    if traced:
        # --version exits through argparse; its cost is cli.import_s here.
        cmds = [c for c in cmds if c[2] != ("version",)]
        metrics = per_layer(cmds, workdir, seconds, ref, outcomes)
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics = end_to_end(cmds, workdir, seconds, outcomes)
        units = END_TO_END_UNITS
    outcomes.check(cmds, ref, value_problems)
    caught = "score_hlepor_s" in outcomes.first and checks.corrupted_score_caught(
        ("score", "hlepor", False), outcomes.first["score_hlepor_s"], ref)
    if not caught:
        outcomes.problems.append("the output check missed a corrupted score")

    for problem in outcomes.problems:
        print(f"PROBLEM {problem}", file=sys.stderr)
    print(f"{exact_pairs} segment pairs checked against the brute-force oracles; "
          f"corrupted score caught: {caught}; failed_share "
          f"{outcomes.failed / outcomes.attempted} ({outcomes.failed}/{outcomes.attempted})",
          file=sys.stderr)
    for name, value in metrics.items():
        print(f"  {name:44s} {value:>14.6g} {units[name]}", file=sys.stderr)
    return {
        "correct": not outcomes.problems and outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*corpus.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=checks.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Only the default sequential path is measured, in this process and in
    # every child: no thread or backend knobs.
    for knob in ("MTMETRICS_THREADS", "MTMETRICS_BACKEND"):
        os.environ.pop(knob, None)
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    else:
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace))
                   for w in corpus.WORKLOADS}
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": metric for w, r in results.items()
                        for name, metric in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
