"""numpy is loaded only by the commands that run a kernel.

Each case runs ``cli.main`` in a fresh interpreter, because numpy stays in
``sys.modules`` once any test in this process has imported it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
PROBE = """
import contextlib, io, json, sys
from mtmetrics.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps({"code": code, "numpy": "numpy" in sys.modules}))
"""


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
    hyp.write_text("the cat sat on the mat\na dog ran\n", encoding="utf-8")
    ref.write_text("the cat sat on a mat\nthe dog ran\n", encoding="utf-8")
    table.write_text(json.dumps({"rows": [
        {"system": "A", "task": "t", "metric": "BLEU", "value": 1.0},
        {"system": "B", "task": "t", "metric": "BLEU", "value": 2.0},
    ]}), encoding="utf-8")
    return {"hyp": str(hyp), "ref": str(ref), "table": str(table)}


@pytest.mark.parametrize("command, loads_numpy", [
    (["--version"], False),
    (["score", "--metric", "bleu"], False),
    (["score", "--metric", "bleu", "--segment-bleu"], False),
    (["matrix"], False),
    # The control case: the probe does see numpy once a kernel has run.
    (["score", "--metric", "rouge-l"], True),
])
def test_numpy_loads_only_when_a_kernel_runs(command, loads_numpy, files):
    if command[0] == "score":
        command = [*command, "--hyp", files["hyp"], "--ref", files["ref"]]
    elif command[0] == "matrix":
        command = [*command, "--scores", files["table"]]
    assert run_probe(command) == {"code": 0, "numpy": loads_numpy}
