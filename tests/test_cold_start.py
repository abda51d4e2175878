"""Every command loads nothing beyond the standard library and mtmetrics,
and no command loads ``dataclasses``.

Each case runs ``cli.main`` in a fresh interpreter and compares the modules
it ends with against those the interpreter had loaded before the probe
began, so what site hooks load at startup is not counted against the
program.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
PROBE = """
import sys
baseline = set(sys.modules)
import contextlib, io, json
from mtmetrics.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(sys.argv[1:])
loaded = sorted(set(sys.modules) - baseline)
foreign = [name for name in loaded
           if name.partition(".")[0] not in (*sys.stdlib_module_names, "mtmetrics")]
print(json.dumps({"code": code, "loaded": loaded, "foreign": foreign,
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


def run_probe(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], env=env,
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


# The name predates the general check, which covers numpy among the rest.
@pytest.mark.parametrize("name", COMMANDS)
def test_no_command_needs_numpy(name, files):
    result = run_probe(full_command(name, files))
    assert (result["code"], result["foreign"]) == (0, [])
    assert result["stdout"]


# dataclasses brings inspect, ast, dis and tokenize with it, and each
# decorated class execs generated methods: most of the import time.
@pytest.mark.parametrize("name", COMMANDS)
def test_no_command_imports_dataclasses(name, files):
    result = run_probe(full_command(name, files))
    assert result["code"] == 0
    assert "dataclasses" not in result["loaded"]
