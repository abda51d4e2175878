"""Byte-for-byte CLI output on the benchmark corpora, checked by digest.

Seeds 1 and 2 of every ``perfbench`` workload are generated with
``perfbench/corpus.py::generate``; the seven benchmark commands run
in-process through ``cli.main`` in table and JSON format, and the SHA-256
of each stdout must equal its line in ``golden/bench_digests.txt``. When an
output change is intended, rewrite that file with
``PYTHONPATH=src python tests/test_bench_digests.py`` alongside the change
and name the moved digests in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from mtmetrics.cli import main

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = Path(__file__).parent / "golden" / "bench_digests.txt"
sys.path.insert(0, str(ROOT / "perfbench"))

import corpus  # noqa: E402

WORKLOADS = ("news", "long-rep", "short")
SEEDS = (1, 2)
SCORE = ["score", "--hyp", "hyp_a.txt", "--ref", "ref.txt"]
COMMANDS = {
    **{f"score-{metric}": SCORE + ["--metric", metric]
       for metric in ("bleu", "hlepor", "meteor", "rouge-l")},
    "score-segment-bleu": SCORE + ["--metric", "bleu", "--segment-bleu"],
    "compare": ["compare", "--before", "hyp_a.txt", "--after", "hyp_b.txt", "--ref", "ref.txt"],
    "matrix": ["matrix", "--scores", "table.json"],
}


def write_corpus(data: dict, directory: Path) -> None:
    for side in ("ref", "hyp_a", "hyp_b"):
        text = "".join(line + "\n" for line in data[side])
        (directory / f"{side}.txt").write_text(text, encoding="utf-8")
    (directory / "table.json").write_text(json.dumps(data["table"]), encoding="utf-8")


def digest_lines() -> list[str]:
    """One ``<sha256>  <workload>:<seed> <command> <format>`` line per output,
    with every command run in a temporary directory holding the corpus."""
    lines = []
    cwd = os.getcwd()
    for workload in WORKLOADS:
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as directory:
                write_corpus(corpus.generate(workload, seed), Path(directory))
                os.chdir(directory)
                try:
                    for name, command in COMMANDS.items():
                        for fmt in ("table", "json"):
                            out = io.StringIO()
                            with contextlib.redirect_stdout(out):
                                code = main([*command, "--format", fmt])
                            assert code == 0, (workload, seed, name, fmt)
                            digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
                            lines.append(f"{digest}  {workload}:{seed} {name} {fmt}")
                finally:
                    os.chdir(cwd)
    return lines


def test_benchmark_outputs_match_digests():
    expected = EXPECTED.read_text(encoding="utf-8").splitlines()
    actual = digest_lines()
    moved = [line.partition("  ")[2] for line, want in zip(actual, expected) if line != want]
    assert len(actual) == len(expected)
    assert moved == []


if __name__ == "__main__":
    EXPECTED.write_text("".join(line + "\n" for line in digest_lines()), encoding="utf-8")
