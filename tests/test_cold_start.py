"""No command loads numpy, and every command runs where numpy cannot load.

Each case runs ``cli.main`` in a fresh interpreter, because numpy stays in
``sys.modules`` once anything in this process has imported it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
# argv[1] is "block" or "allow". A None entry in sys.modules makes every
# `import numpy` raise ImportError, as on an interpreter without numpy.
PROBE = """
import contextlib, io, json, sys
if sys.argv[1] == "block":
    sys.modules["numpy"] = None
from mtmetrics.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(sys.argv[2:])
print(json.dumps({"code": code, "numpy": sys.modules.get("numpy") is not None,
                  "stdout": out.getvalue()}))
"""

COMMANDS = {
    "version": ["--version"],
    **{f"score-{metric}": ["score", "--metric", metric]
       for metric in ("bleu", "hlepor", "meteor", "rouge-l")},
    "score-segment-bleu": ["score", "--metric", "bleu", "--segment-bleu"],
    "compare": ["compare"],
    "matrix": ["matrix"],
}


def run_probe(mode, argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", PROBE, mode, *argv], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture
def files(tmp_path):
    hyp = tmp_path / "hyp.txt"
    ref = tmp_path / "ref.txt"
    table = tmp_path / "table.json"
    # Repeated forms with unequal counts, so the selection kernel runs.
    hyp.write_text("the cat sat on the mat the end\na dog ran\n", encoding="utf-8")
    ref.write_text("the cat sat on a mat\nthe dog ran\n", encoding="utf-8")
    table.write_text(json.dumps({"rows": [
        {"system": "A", "task": "t", "metric": "BLEU", "value": 1.0},
        {"system": "B", "task": "t", "metric": "BLEU", "value": 2.0},
    ]}), encoding="utf-8")
    return {"hyp": str(hyp), "ref": str(ref), "table": str(table)}


def full_command(name, files):
    command = COMMANDS[name]
    if command[0] == "score":
        return [*command, "--hyp", files["hyp"], "--ref", files["ref"]]
    if command[0] == "compare":
        return [*command, "--before", files["hyp"], "--after", files["ref"],
                "--ref", files["ref"]]
    if command[0] == "matrix":
        return [*command, "--scores", files["table"]]
    return command


@pytest.mark.parametrize("name", COMMANDS)
def test_no_command_needs_numpy(name, files):
    command = full_command(name, files)
    allowed = run_probe("allow", command)
    blocked = run_probe("block", command)
    assert (allowed["code"], allowed["numpy"]) == (0, False)
    assert allowed["stdout"]
    assert (blocked["code"], blocked["stdout"]) == (0, allowed["stdout"])
