import codecs
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mtmetrics.cli import main

SCHEMA = {
    "type": "object",
    "required": ["signature", "metrics", "config", "counts"],
    "properties": {
        "signature": {"type": "string"},
        "metrics": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "required": ["corpus"],
                "properties": {
                    "corpus": {"type": "number"},
                    "precisions": {"type": "array", "items": {"type": "number"}},
                    "bp": {"type": "number"},
                    "segments": {"type": "array", "items": {"type": "number"}},
                },
            },
        },
        "config": {"type": "object"},
        "counts": {
            "type": "object",
            "required": ["segments", "hyp_tokens", "ref_tokens"],
            "additionalProperties": {"type": "integer"},
        },
    },
}


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture()
def parallel_files(tmp_path):
    lines = ["The cat sat on the mat.", "A dog ran home."]
    hyp = write_lines(tmp_path / "hyp.txt", lines)
    ref = write_lines(tmp_path / "ref.txt", lines)
    return hyp, ref


def test_score_identical_hlepor(parallel_files, capsys):
    hyp, ref = parallel_files
    code = main(["score", "--metric", "hlepor", "--hyp", hyp, "--ref", ref,
                 "--lang-pair", "en-es"])
    out = capsys.readouterr().out
    assert code == 0
    assert "100.0000" in out
    assert "signature:" in out
    assert "hlepor:9,1,2,1,3" in out


def test_score_line_count_mismatch_exits_2(tmp_path, capsys):
    hyp = write_lines(tmp_path / "hyp.txt", ["a", "b"])
    ref = write_lines(tmp_path / "ref.txt", ["a", "b", "c"])
    code = main(["score", "--metric", "bleu", "--hyp", hyp, "--ref", ref])
    captured = capsys.readouterr()
    assert code == 2
    assert f"line count mismatch: {hyp} has 2 lines, {ref} has 3 lines" in captured.err
    assert captured.out == ""


def test_score_json_validates_against_schema(parallel_files, capsys):
    jsonschema = pytest.importorskip("jsonschema")
    hyp, ref = parallel_files
    for metric, corpus in (("rouge-l", 1.0), ("bleu", 100.0)):
        code = main(["score", "--metric", metric, "--hyp", hyp, "--ref", ref,
                     "--format", "json"])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, SCHEMA)
        assert payload["metrics"][metric]["corpus"] == corpus
    assert payload["metrics"]["bleu"]["precisions"] == [100.0] * 4
    assert payload["metrics"]["bleu"]["bp"] == 1.0


def test_score_missing_file_exits_2(tmp_path, capsys):
    code = main(["score", "--metric", "bleu", "--hyp", str(tmp_path / "no.txt"),
                 "--ref", str(tmp_path / "nope.txt")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "--hyp" in err  # diagnostic names the offending flag


def test_compare_missing_after_file_names_flag(parallel_files, tmp_path, capsys):
    hyp, ref = parallel_files
    code = main(["compare", "--before", hyp, "--after", str(tmp_path / "gone.txt"),
                 "--ref", ref])
    assert code == 2
    assert "--after" in capsys.readouterr().err


def test_score_unknown_metric_exits_2(parallel_files, capsys):
    hyp, ref = parallel_files
    code = main(["score", "--metric", "chrf", "--hyp", hyp, "--ref", ref])
    assert code == 2
    assert "--metric" in capsys.readouterr().err


def test_score_bad_preset_exits_2(parallel_files, capsys):
    hyp, ref = parallel_files
    code = main(["score", "--metric", "hlepor", "--hyp", hyp, "--ref", ref,
                 "--lang-pair", "xx-yy"])
    assert code == 2
    assert "--lang-pair" in capsys.readouterr().err


def test_score_tsv_input(tmp_path, capsys):
    # METEOR weights recall above precision, so swapped columns score differently.
    tsv = tmp_path / "pairs.tsv"
    tsv.write_text("the cat\tthe cat sat down\na b c\tc a\n", encoding="utf-8")
    hyp = write_lines(tmp_path / "hyp.txt", ["the cat", "a b c"])
    ref = write_lines(tmp_path / "ref.txt", ["the cat sat down", "c a"])
    for fmt in ("table", "json"):
        code = main(["score", "--metric", "meteor", "--tsv", str(tsv), "--format", fmt])
        out = capsys.readouterr().out
        assert code == 0
        assert "meteor" in out
        assert main(["score", "--metric", "meteor", "--hyp", hyp, "--ref", ref,
                     "--format", fmt]) == 0
        assert capsys.readouterr().out == out


def test_compare_identical_rates_zero(parallel_files, tmp_path, capsys):
    hyp, ref = parallel_files
    code = main(["compare", "--before", hyp, "--after", hyp, "--ref", ref,
                 "--metrics", "hlepor,rouge-l"])
    out = capsys.readouterr().out
    assert code == 0
    assert "+0.00%" in out
    assert "signature:" in out


def test_compare_missing_ref_exits_2(parallel_files, capsys):
    hyp, _ = parallel_files
    code = main(["compare", "--before", hyp, "--after", hyp])
    assert code == 2
    assert "--ref" in capsys.readouterr().err


def test_compare_unknown_metric_exits_2(parallel_files, capsys):
    hyp, ref = parallel_files
    code = main(["compare", "--before", hyp, "--after", hyp, "--ref", ref,
                 "--metrics", "bleu,wer"])
    assert code == 2
    assert "wer" in capsys.readouterr().err


# HYP and REF stand for the two files of `parallel_files`, MISSING for a
# path that does not exist, EMPTY for an empty file, BLANK for a file of two
# blank lines, and EMPTY_TSV and BLANK_TSV for the same two as TSV files,
# whose two blank lines hold two empty columns each.
@pytest.mark.parametrize("argv, named", [
    (["score", "--metric", "bleu", "--tsv", "HYP", "--hyp", "HYP"], "--tsv cannot be combined"),
    (["score", "--metric", "bleu"], "score needs --hyp and --ref"),
    (["compare", "--before", "HYP", "--after", "HYP", "--ref", "REF", "--metrics", ","],
     "--metrics needs at least one metric"),
    (["compare", "--before", "HYP", "--after", "HYP", "--ref", "REF", "--metrics", "bleu,bleu"],
     "duplicate metrics requested"),
    (["score", "--metric", "bleu", "--tsv", "MISSING"], "--tsv: file not found"),
    (["score", "--metric", "bleu", "--hyp", "HYP", "--ref", "MISSING"], "--ref: file not found"),
    (["compare", "--before", "MISSING", "--after", "HYP", "--ref", "REF"],
     "--before: file not found"),
    (["matrix", "--scores", "MISSING"], "--scores: file not found"),
    (["score", "--metric", "bleu", "--hyp", "HYP"], "score needs --hyp and --ref"),
    (["score", "--metric", "bleu", "--ref", "REF"], "score needs --hyp and --ref"),
    *((["score", "--metric", metric, "--hyp", "EMPTY", "--ref", "EMPTY"], "empty corpus")
      for metric in ("bleu", "hlepor", "meteor", "rouge-l")),
    (["compare", "--before", "HYP", "--after", "BLANK", "--ref", "REF"],
     "blank.txt: all hypothesis segments are empty"),
    (["score", "--metric", "hlepor", "--tsv", "EMPTY_TSV"], "empty.tsv: empty corpus"),
    (["score", "--metric", "bleu", "--tsv", "BLANK_TSV"],
     "blank.tsv: all hypothesis segments are empty"),
])
def test_bad_inputs_exit_2(parallel_files, tmp_path, capsys, argv, named):
    paths = dict(zip(("HYP", "REF"), parallel_files))
    paths["MISSING"] = str(tmp_path / "missing.txt")
    (tmp_path / "empty.txt").write_bytes(b"")
    paths["EMPTY"] = str(tmp_path / "empty.txt")
    (tmp_path / "blank.txt").write_bytes(b"\n\n")
    paths["BLANK"] = str(tmp_path / "blank.txt")
    (tmp_path / "empty.tsv").write_bytes(b"")
    paths["EMPTY_TSV"] = str(tmp_path / "empty.tsv")
    (tmp_path / "blank.tsv").write_bytes(b"\t\n\t\n")
    paths["BLANK_TSV"] = str(tmp_path / "blank.tsv")
    code = main([paths.get(arg, arg) for arg in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert named in captured.err
    assert captured.out == ""


@pytest.fixture()
def pipe():
    """Make a pipe holding a text, its write end closed, and give its /dev/fd path."""
    read_ends = []

    def make(text):
        read_end, write_end = os.pipe()
        os.write(write_end, text.encode("utf-8"))
        os.close(write_end)
        read_ends.append(read_end)
        return f"/dev/fd/{read_end}"

    yield make
    for read_end in read_ends:
        os.close(read_end)


PIPE_INPUTS = {
    "hyp": "The cat sat on the mat.\nA dog ran home.\n",
    "ref": "The cat is on the mat.\nA dog went home.\n",
    "tsv": "the cat sat\tthe cat is\na dog\ta dog\n",
    "scores": json.dumps({"rows": [
        {"system": "A", "task": "t", "metric": "m", "value": 1.0},
        {"system": "B", "task": "t", "metric": "m", "value": 0.5},
    ]}),
}


# "<name>" is a regular file in both runs; "|name" is a pipe in the second.
@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@pytest.mark.parametrize("argv", [
    ["score", "--metric", "hlepor", "--hyp", "|hyp", "--ref", "|ref"],
    ["score", "--metric", "bleu", "--tsv", "|tsv", "--format", "json"],
    ["matrix", "--scores", "|scores"],
    ["compare", "--before", "|hyp", "--after", "|ref", "--ref", "<ref>"],
])
def test_inputs_may_be_pipes(tmp_path, capsys, pipe, argv):
    def resolve(piped):
        args = []
        for arg in argv:
            name = arg.strip("<>|")
            if arg[0] == "|" and piped:
                args.append(pipe(PIPE_INPUTS[name]))
            elif arg[0] in "<|":
                path = tmp_path / name
                path.write_text(PIPE_INPUTS[name], encoding="utf-8")
                args.append(str(path))
            else:
                args.append(arg)
        return args

    assert main(resolve(piped=False)) == 0
    expected = capsys.readouterr().out
    assert main(resolve(piped=True)) == 0
    captured = capsys.readouterr()
    assert captured.out == expected
    assert captured.err == ""


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_compare_ref_must_be_a_regular_file(parallel_files, capsys, pipe):
    hyp, ref = parallel_files
    code = main(["compare", "--before", hyp, "--after", hyp, "--ref", pipe("a b\n")])
    captured = capsys.readouterr()
    assert code == 2
    assert "--ref: compare reads the reference once per system" in captured.err
    assert captured.out == ""
    code = main(["compare", "--before", hyp, "--after", hyp, "--ref", os.path.dirname(ref)])
    assert code == 2
    assert "--ref" in capsys.readouterr().err


def test_internal_error_exits_1(parallel_files, monkeypatch, capsys):
    from mtmetrics import cli

    def broken(args):
        raise RuntimeError("broken command")

    monkeypatch.setitem(cli._COMMANDS, "score", broken)
    hyp, ref = parallel_files
    code = main(["score", "--metric", "bleu", "--hyp", hyp, "--ref", ref])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "internal error: broken command\n"
    assert captured.out == ""


SRC = str(Path(__file__).resolve().parent.parent / "src")


def module_env(changes=None):
    """This process's environment with `changes` applied, where a None value
    unsets a variable, and this checkout's package first on PYTHONPATH."""
    env = {**os.environ, **(changes or {})}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return {name: value for name, value in env.items() if value is not None}


def run_module(args, **kwargs):
    """Run `python -m mtmetrics.cli ARGS` on this checkout's package; an `env`
    keyword changes the environment as `module_env` does."""
    return subprocess.run([sys.executable, "-m", "mtmetrics.cli", *args],
                          env=module_env(kwargs.pop("env", None)), timeout=60, **kwargs)


def test_module_runs_as_a_script(tmp_path):
    # `python -m mtmetrics.cli` exits with the code of main().
    proc = run_module(["matrix", "--scores", str(tmp_path / "missing.json")],
                      capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: --scores: file not found")


def test_reader_that_closed_stdout_exits_141_quietly(parallel_files):
    # 141 is 128 + SIGPIPE, what the shell reports for `cat` in the same place.
    hyp, ref = parallel_files
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run_module(["score", "--metric", "bleu", "--hyp", hyp, "--ref", ref],
                          stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""


@pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
def test_reader_that_exits_after_one_byte_gives_141_quietly(tmp_path, unbuffered):
    # The report is far larger than a pipe buffer, so the reader goes while a
    # write is under way. Under PYTHONUNBUFFERED=1 that write is cut short, and
    # a writer that takes the short count for the whole write drops the rest
    # of the report and exits 0.
    path = tmp_path / "scores.json"
    path.write_text(json.dumps({"rows": [
        {"system": "A", "task": f"t{i}", "metric": "bleu", "value": i} for i in range(30000)
    ]}), encoding="utf-8")
    proc = subprocess.Popen(
        [sys.executable, "-m", "mtmetrics.cli", "matrix", "--scores", str(path),
         "--format", "json"],
        env=module_env({"PYTHONUNBUFFERED": unbuffered}),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert proc.stdout.read(1) == b"{"
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
    finally:
        proc.kill()
        proc.stderr.close()
    assert stderr == b""


# Settings under which every stdout byte must stay that of a run whose
# environment has no PYTHON* or locale variable.
ENVIRONMENTS = ["PYTHONOPTIMIZE=2", "PYTHONWARNINGS=error", "PYTHONUTF8=1",
                "LC_ALL=C PYTHONUTF8=0", "PYTHONIOENCODING=latin-1", "PYTHONHASHSEED=7",
                "PYTHONINTMAXSTRDIGITS=640", "PYTHONUNBUFFERED=1"]
# Runs the CLI on this checkout's package without PYTHONPATH: `SRC ARGS...`.
_RUN_CLI = ("import sys; sys.path.insert(0, sys.argv.pop(1)); "
            "from mtmetrics.cli import main; sys.exit(main())")


def json_reports(commands, cwd, assignments=""):
    """Each command's stdout, in an environment without PYTHON* or locale
    variables, plus the `NAME=VALUE` assignments given."""
    env = {name: value for name, value in os.environ.items()
           if not name.startswith(("PYTHON", "LC_", "LANG"))}
    env.update(item.split("=", 1) for item in assignments.split())
    outputs = []
    for args in commands:
        proc = subprocess.run([sys.executable, "-c", _RUN_CLI, SRC, *args], cwd=cwd,
                              env=env, capture_output=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, b"")
        outputs.append(proc.stdout)
    return outputs


@pytest.fixture(scope="module")
def non_ascii_reports(tmp_path_factory):
    """`compare` and `matrix` JSON commands on non-ASCII inputs, their
    directory, and their stdout in a clean environment."""
    root = tmp_path_factory.mktemp("non_ascii")
    write_lines(root / "ref.txt",
                ["Der Bär aß Crème brûlée.", "Ça coûte 3,50 € — «cher»!", "東京は晴れ。",
                 "Ωmega & ﬁn"])
    write_lines(root / "before.txt",
                ["Der Baer ass Creme brulee.", "Ça coûte 3,50 €!", "東京 は 雨", "omega and fin"])
    write_lines(root / "after.txt",
                ["Der Bär aß crème brûlée .", "ÇA COÛTE 3,50 € «cher» !", "東京は晴れ。",
                 "Ωmega &amp; ﬁn"])
    (root / "scores.json").write_text(json.dumps({"rows": [
        {"system": "Çedille", "task": "tâche-1", "metric": "BLEU", "value": 2.0},
        {"system": "Øst", "task": "tâche-1", "metric": "BLEU", "value": 1.0},
        {"system": "Çedille", "task": "tâche-1", "metric": "ROUGE-L", "value": 0.5},
        {"system": "Øst", "task": "tâche-1", "metric": "ROUGE-L", "value": 0.75},
    ]}, ensure_ascii=False), encoding="utf-8")
    commands = [
        ["compare", "--before", "before.txt", "--after", "after.txt", "--ref", "ref.txt",
         "--format", "json"],
        ["matrix", "--scores", "scores.json", "--format", "json"],
    ]
    clean = json_reports(commands, root)
    assert "Çedille".encode("utf-8") in clean[1]
    return commands, root, clean


@pytest.mark.parametrize("assignments", ENVIRONMENTS)
def test_environment_variables_change_no_output_byte(non_ascii_reports, assignments):
    commands, root, clean = non_ascii_reports
    assert json_reports(commands, root, assignments) == clean


def test_stdout_is_utf8_whatever_the_stdout_encoding(tmp_path):
    path = tmp_path / "scores.json"
    path.write_text(json.dumps({"rows": [
        {"system": "\u00c7", "task": "t", "metric": "m", "value": 2.0},
        {"system": "B", "task": "t", "metric": "m", "value": 1.0},
    ]}), encoding="utf-8")
    outputs = {}
    for encoding in (None, "ascii", "latin-1"):
        env = {} if encoding is None else {"PYTHONIOENCODING": encoding}
        proc = run_module(["matrix", "--scores", str(path)], env=env, capture_output=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == b""
        outputs[encoding] = proc.stdout
    assert "\u00c7".encode("utf-8") in outputs[None]
    assert outputs["ascii"] == outputs["latin-1"] == outputs[None]


def test_segment_bleu_is_a_score_option_only(parallel_files, capsys):
    hyp, ref = parallel_files
    code = main(["compare", "--before", hyp, "--after", hyp, "--ref", ref,
                 "--metrics", "bleu", "--segment-bleu"])
    assert code == 2
    assert "--segment-bleu" in capsys.readouterr().err
    assert main(["score", "--metric", "bleu", "--hyp", hyp, "--ref", ref,
                 "--segment-bleu"]) == 0
    assert "seg-bleu:exp" in capsys.readouterr().out


def matrix_fixture_path(tmp_path):
    rows = []
    fixture = {
        "clinic-Marian": {
            "Task-1": {"SacreBLEU": 38.18, "METEOR": 0.6338, "COMET": 0.4237,
                       "BLEU-HF": 0.3650, "ROUGE-L-F1": 0.6271},
            "Task-2": {"SacreBLEU": 26.87, "METEOR": 0.5885, "COMET": 0.9791,
                       "BLEU-HF": 0.2667, "ROUGE-L-F1": 0.6720},
            "Task-3": {"SacreBLEU": 39.10, "METEOR": 0.6262, "COMET": 0.9495,
                       "BLEU-HF": 0.3675, "ROUGE-L-F1": 0.7688},
        },
        "clinic-NLLB": {
            "Task-1": {"SacreBLEU": 37.74, "METEOR": 0.6273, "COMET": 0.4081,
                       "BLEU-HF": 0.3601, "ROUGE-L-F1": 0.6193},
            "Task-2": {"SacreBLEU": 28.57, "METEOR": 0.5873, "COMET": 1.0290,
                       "BLEU-HF": 0.2844, "ROUGE-L-F1": 0.6710},
            "Task-3": {"SacreBLEU": 41.63, "METEOR": 0.6072, "COMET": 0.9180,
                       "BLEU-HF": 0.3932, "ROUGE-L-F1": 0.7477},
        },
    }
    for system, tasks in fixture.items():
        for task, metrics in tasks.items():
            for metric, value in metrics.items():
                rows.append({"system": system, "task": task,
                             "metric": metric, "value": value})
    path = tmp_path / "scores.json"
    path.write_text(json.dumps({"rows": rows}), encoding="utf-8")
    return str(path)


def test_matrix_clinical_fixture(tmp_path, capsys):
    code = main(["matrix", "--scores", matrix_fixture_path(tmp_path),
                 "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    winners = {(w["task"], w["metric"]): w["winner"] for w in payload["winners"]}
    assert winners[("Task-1", "SacreBLEU")] == "clinic-Marian"
    assert winners[("Task-2", "COMET")] == "clinic-NLLB"
    assert winners[("Task-3", "METEOR")] == "clinic-Marian"
    assert winners[("Task-3", "BLEU-HF")] == "clinic-NLLB"
    agreement = {tuple(a["metrics"]): a["fraction"] for a in payload["agreement"]}
    assert agreement[("BLEU-HF", "SacreBLEU")] == 1.0
    assert agreement[("METEOR", "SacreBLEU")] == pytest.approx(1 / 3)
    assert "signature" in payload


def test_matrix_single_system(tmp_path, capsys):
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"rows": [
        {"system": "s", "task": "t", "metric": "m", "value": 1.0}
    ]}), encoding="utf-8")
    code = main(["matrix", "--scores", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "s" in out


def test_matrix_empty_file_exits_2(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text("", encoding="utf-8")
    code = main(["matrix", "--scores", str(path)])
    assert code == 2
    assert "line 1" in capsys.readouterr().err


def test_matrix_malformed_json_names_location(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"rows": [\n  {"system": }\n]}', encoding="utf-8")
    code = main(["matrix", "--scores", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "line 2" in err


def test_identical_invocations_byte_identical(parallel_files, capsys):
    hyp, ref = parallel_files
    argv = ["score", "--metric", "bleu", "--hyp", hyp, "--ref", ref,
            "--format", "json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second


def test_version_flag(capsys):
    code = main(["--version"])
    out = capsys.readouterr().out
    assert code == 0
    assert "mtmetrics 0.1.0" in out
    assert "signature format v2" in out


def test_output_contains_signature_for_every_command(parallel_files, tmp_path, capsys):
    hyp, ref = parallel_files
    assert main(["score", "--metric", "bleu", "--hyp", hyp, "--ref", ref]) == 0
    assert "signature:" in capsys.readouterr().out
    assert main(["compare", "--before", hyp, "--after", hyp, "--ref", ref]) == 0
    assert "signature:" in capsys.readouterr().out
    assert main(["matrix", "--scores", matrix_fixture_path(tmp_path)]) == 0
    assert "signature:" in capsys.readouterr().out


@pytest.mark.parametrize("flags, named", [
    (["--max-n", "0"], "--max-n"),
    (["--smoothing", "add-k", "--smooth-k", "inf"], "--smooth-k"),
    (["--smoothing", "add-k", "--smooth-k", "nan"], "--smooth-k"),
    (["--smoothing", "add-k", "--smooth-k", "-1"], "--smooth-k"),
    (["--hlepor-params", "inf,1,1,1,1"], "--hlepor-params"),
    (["--meteor-params", "0.9,inf,0.5"], "--meteor-params"),
    (["--hlepor-params", "5e-324,5e-324,5e-324,5e-324,5e-324"], "--hlepor-params"),
    (["--hlepor-params", "1e308,1e308,1e308,1e308,1e308"], "--hlepor-params"),
    (["--hlepor-params", "1,2,3"], "--hlepor-params expects ALPHA,"),
    # The six-value layout of signature format v1, with n after beta.
    (["--hlepor-params", "9,1,2,2,1,3"], "--hlepor-params expects ALPHA,BETA,W_LP,W_NPP,W_HPR"),
    (["--meteor-params", "0.5,1,nan"], "--meteor-params: gamma must be in [0, 1), got nan"),
])
def test_bad_metric_settings_exit_2(parallel_files, capsys, flags, named):
    hyp, ref = parallel_files
    for metric in ("bleu", "hlepor", "meteor"):
        code = main(["score", "--metric", metric, "--hyp", hyp, "--ref", ref, *flags])
        captured = capsys.readouterr()
        assert code == 2
        assert named in captured.err
        for other in {"--max-n", "--smooth-k", "--hlepor-params", "--meteor-params"} - {flags[-2]}:
            assert other not in captured.err
        assert captured.out == ""


@pytest.mark.parametrize("max_n", ["21", "5000"])
def test_max_n_upper_bound_exits_2(parallel_files, capsys, max_n):
    hyp, ref = parallel_files
    code = main(["score", "--metric", "bleu", "--hyp", hyp, "--ref", ref, "--max-n", max_n])
    captured = capsys.readouterr()
    assert code == 2
    assert "error: --max-n: max_n must be between 1 and 20" in captured.err
    assert captured.out == ""
    assert main(["score", "--metric", "bleu", "--hyp", hyp, "--ref", ref, "--max-n", "20"]) == 0


@pytest.mark.parametrize("label", ["null", "5", '["t"]', "true"])
@pytest.mark.parametrize("field", ["system", "task", "metric"])
def test_matrix_non_string_label_exits_2(tmp_path, capsys, field, label):
    row = {"system": "s", "task": "t", "metric": "m", "value": 1}
    bad_row = {**row, field: json.loads(label)}
    path = tmp_path / "scores.json"
    path.write_text(json.dumps({"rows": [row, bad_row]}), encoding="utf-8")
    code = main(["matrix", "--scores", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert f"row 2: {field} must be a string" in captured.err
    assert captured.out == ""


def test_matrix_rounds_huge_values(tmp_path, capsys):
    path = tmp_path / "scores.json"
    path.write_text(json.dumps({"rows": [
        {"system": "a", "task": "t", "metric": "m", "value": 1e30},
        {"system": "b", "task": "t", "metric": "m", "value": 2e30},
    ]}), encoding="utf-8")
    assert main(["matrix", "--scores", str(path), "--decimals", "0", "--format", "json"]) == 0
    winners = json.loads(capsys.readouterr().out)["winners"]
    assert winners == [{"task": "t", "metric": "m", "winner": "b"}]


@pytest.mark.parametrize("body, extra, named", [
    ('{"rows": [{"system": "s", "task": "t", "metric": "m", "value": "abc"}]}', [],
     "row 1"),
    ('{"rows": 5}', [], "'rows' array"),
    ('{"rows": []}', [], "empty score table"),
    ('{"rows": [{"system": "a", "task": "t", "metric": "m", "value": 1},'
     ' {"system": "b", "task": "t", "metric": "m", "value": NaN}]}', [], "row 2"),
    ('{"rows": [{"system": "s", "task": "t", "metric": "m", "value": 38.18}]}',
     ["--decimals", "1000"], "row 1: cannot round 38.18 to 1000 decimals"),
    ('{"rows": [{"system": "s", "task": "t", "metric": "m", "value": true}]}', [],
     "row 1"),
    ('{"rows": [{"system": "s", "task": "t", "metric": "m", "value": " 0.5 "}]}', [],
     "row 1"),
    # An integer literal beyond the float range is a JSON number but no finite score.
    pytest.param('{"rows": [{"system": "s", "task": "t", "metric": "m", "value": 1%s}]}'
                 % ("0" * 400), [], "row 1", id="integer-beyond-float-range"),
    # Bytes that are not UTF-8, at the start (a UTF-16 byte-order mark) or in a label.
    pytest.param(b'\xff\xfe{"rows": []}', [], "scores.json: undecodable bytes",
                 id="utf16-bom"),
    pytest.param(b'{"rows": [{"system": "a\x80", "task": "t", "metric": "m", "value": 1}]}',
                 [], "scores.json: undecodable bytes", id="undecodable-label"),
    pytest.param(b'{"rows": [\n{"system": "a\xc3", "task": "t", "metric": "m", "value": 1}]}',
                 [], "scores.json: undecodable bytes at line 2", id="undecodable-line-2"),
    pytest.param("[" * 100_000 + "]" * 100_000, [], "scores.json: JSON nested too deeply",
                 id="nested-100k-deep"),
    # A lone surrogate is a valid JSON escape but no Unicode text: no report could print it.
    pytest.param(r'{"rows": [{"system": "A\ud800", "task": "t", "metric": "m", "value": 1}]}',
                 [], "row 1: system is not valid Unicode", id="lone-surrogate-system"),
    pytest.param(r'{"rows": [{"system": "A", "task": "t", "metric": "m", "value": 1},'
                 r' {"system": "B", "task": "t\udfff", "metric": "m", "value": 0.5}]}',
                 ["--format", "json"], "row 2: task is not valid Unicode",
                 id="lone-surrogate-task-json"),
    # An integer literal longer than the int-string digit limit (4300 digits on
    # interpreters that have one) fails in json.loads, which names no row; without
    # the limit the row check finds it beyond the float range.
    pytest.param('{"rows": [{"system": "s", "task": "t", "metric": "m", "value": 1%s}]}'
                 % ("0" * 4400), [], ("scores.json", "row 1"), id="integer-beyond-digit-limit"),
    pytest.param('{"rows": [{"system": "s", "task": "t", "metric": "m"}]}', [],
                 "row 1 needs system/task/metric/value", id="row-without-value"),
    pytest.param('{"rows": [5]}', [], "row 1 needs system/task/metric/value",
                 id="row-not-an-object"),
    pytest.param('{"rows": [{"system": "a", "task": "t", "metric": "m", "value": 1},'
                 ' {"system": "a", "task": "t", "metric": "m", "value": 2}]}', [],
                 "row 2: duplicate score table entry ('a', 't', 'm')", id="duplicate-entry"),
    # A bad label in row 1 is named before the missing field of row 3.
    pytest.param('{"rows": [{"system": 5, "task": "t", "metric": "m", "value": 1},'
                 ' {"system": "b", "task": "t", "metric": "m", "value": 2},'
                 ' {"system": "c", "task": "t", "value": 3}]}', [],
                 "row 1: system must be a string", id="bad-row-before-missing-field"),
])
def test_matrix_bad_score_table_exits_2(tmp_path, capsys, body, extra, named):
    path = tmp_path / "scores.json"
    path.write_bytes(body if isinstance(body, bytes) else body.encode("utf-8"))
    code = main(["matrix", "--scores", str(path), *extra])
    captured = capsys.readouterr()
    assert code == 2
    assert any(name in captured.err for name in
               ((named,) if isinstance(named, str) else named))
    assert captured.out == ""


def test_matrix_score_table_with_bom_matches_without(tmp_path, capsys):
    body = json.dumps({"rows": [
        {"system": "a", "task": "t", "metric": "m", "value": 1.5},
        {"system": "b", "task": "t", "metric": "m", "value": 2.5},
    ]}).encode("utf-8")
    plain = tmp_path / "plain.json"
    plain.write_bytes(body)
    with_bom = tmp_path / "bom.json"
    with_bom.write_bytes(codecs.BOM_UTF8 + body)
    assert main(["matrix", "--scores", str(plain)]) == 0
    expected = capsys.readouterr().out
    assert main(["matrix", "--scores", str(with_bom)]) == 0
    captured = capsys.readouterr()
    assert captured.out == expected
    assert captured.err == ""
