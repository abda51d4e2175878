"""Byte-for-byte CLI output on a small corpus.

Every command below runs in-process through ``cli.main``; the stdout of all
of them, each under a ``$ mtmetrics ...`` header line, must equal
``golden/cli_stdout.txt``. When an output change is intended, edit that
file by hand alongside the change.
"""

from pathlib import Path

from test_cli import matrix_fixture_path, write_lines

from mtmetrics.cli import main

EXPECTED = Path(__file__).parent / "golden" / "cli_stdout.txt"

# Line 3 of the hypothesis is empty. Between them the lines fire every 13a
# rule: entity unescaping, split characters, a period or comma next to a
# non-digit on either side, digit-internal periods and commas, a dash after
# a digit, and a second adjacent mark left attached (`..0`).
REF = [
    "The committee approved the $2.5-billion plan on 12-03-2024, officials said.",
    "&quot;It's a good day,&quot; she said &amp; smiled.",
    "Prices rose 3.4% (from 1,200 to 1,241) in Q1.",
    "Dr. Smith arrived at 9:30 a.m. -- late again!",
    "Contact us at <info@example.com> or call 555-0100.",
    "The results were mixed..0 at best; see [1].",
]
HYP_A = [
    "The committee approved a $2.5-billion plan on 12-03-2024, officials say.",
    "&quot;Its a good day&quot;, she said &amp; smiled .",
    "",
    "Dr. Smith came at 9:30 a.m. - late again!",
    "Contact us at <info@example.com> or call 555-0100",
    "The results were mixed at best; see [1].",
]
HYP_B = [
    "The committee approved the $2.5-billion plan on 12-03-2024, officials said.",
    "&quot;It's a good day,&quot; she said &amp; smiled.",
    "Prices rose 3.4% in Q1.",
    "Dr. Smith arrived at 9:30 -- late again!",
    "Call 555-0100 or contact us at <info@example.com>.",
    "The results were mixed..0 at best.",
]

SCORE = ["score", "--hyp", "hyp_a.txt", "--ref", "ref.txt"]
COMPARE = ["compare", "--before", "hyp_a.txt", "--after", "hyp_b.txt", "--ref", "ref.txt"]
COMMANDS = [
    *(SCORE + ["--metric", metric] for metric in ("bleu", "hlepor", "meteor", "rouge-l")),
    SCORE + ["--metric", "bleu", "--segment-bleu"],
    SCORE + ["--metric", "bleu", "--smoothing", "add-k", "--smooth-k", "2"],
    SCORE + ["--metric", "hlepor", "--hlepor-params", "1,9,2.5,1,7"],
    SCORE + ["--metric", "meteor", "--meteor-params", "0.8,2.5,0.25"],
    COMPARE,
    COMPARE + ["--hlepor-params", "1,9,2.5,1,7", "--meteor-params", "0.8,2.5,0.25"],
    ["matrix", "--scores", "scores.json"],
]


def test_cli_stdout_matches_golden_file(tmp_path, monkeypatch, capsys):
    write_lines(tmp_path / "ref.txt", REF)
    write_lines(tmp_path / "hyp_a.txt", HYP_A)
    write_lines(tmp_path / "hyp_b.txt", HYP_B)
    matrix_fixture_path(tmp_path)  # writes scores.json
    monkeypatch.chdir(tmp_path)
    chunks = []
    for command in COMMANDS:
        for fmt in ("table", "json"):
            argv = [*command, "--format", fmt]
            assert main(argv) == 0, argv
            chunks.append("$ mtmetrics " + " ".join(argv) + "\n" + capsys.readouterr().out)
    assert "".join(chunks) == EXPECTED.read_text(encoding="utf-8")
