"""Fuzz the command line in-process: bad input exits 2, never 1.

Exit 1 means an internal error, so no combination of flags, input file
bytes or score-table JSON may produce it. The argv is built from the real
subcommands and flags. One run in eight uses only valid and boundary
values, so that it gets past the parser and scores something; the others
put garbage at one site: bad values, missing or extra flags, stray
arguments, random bytes as text files, bad rows, random JSON or bytes as
score tables.
"""

import codecs
import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings, strategies as st

from mtmetrics.cli import main
from mtmetrics.evalharness import METRICS

# Per flag: (valid and boundary values, garbage values).
FLAG_VALUES = {
    "--format": (("table", "json"), ("xml", "")),
    "--tokenize": (("13a", "whitespace", "none"), ("moses",)),
    "--lang-pair": (("en-de", "es-en", "fr-en"), ("xx-yy",)),
    "--hlepor-params": (
        ("9,1,2,1,3", "1,9,2,1,7", "1e-300,1e300,1e-300,1e300,1",
         "1e300,1e300,1e300,1e300,1e300", "1e-300,1e-300,1e-300,1e-300,1e-300"),
        ("0,1,2,1,3", "nan,1,2,1,3", "inf,1,2,1,3", "9,1,0,1,3",
         "1e308,1e308,1e308,1e308,1e308", "5e-324,5e-324,5e-324,5e-324,5e-324",
         "9,1,2", "9,1,2,2,1,3", "", ",,,,", "x"),
    ),
    "--meteor-params": (
        ("0.9,3,0.5", "0.5,1e-300,0", "1e-300,1e300,0.999", "0.999999,1e308,0.5",
         "0.5,5e-324,0.5"),
        ("0,3,0.5", "1,3,0.5", "0.9,nan,0.5", "0.9,3,1", "0.9,3", "x"),
    ),
    "--max-n": (("1", "2", "4", "20"), ("0", "21", "-3", "4.5", "99999999999999999999", "x")),
    "--smoothing": (("none", "add-k", "exp"), ("floor",)),
    "--smooth-k": (("1", "0.5", "1e-300", "1e308", "5e-324"), ("0", "-1", "nan", "inf", "x")),
    "--metric": (METRICS, ("bleurt", "")),
    "--metrics": ((",".join(METRICS), "bleu", "rouge-l,meteor", "hlepor"),
                  ("bleu,bleu", ",", "", "ter")),
    "--decimals": (("0", "2", "27", "-5"), ("-400", "1000", "99999999999", "x")),
}
METRIC_FLAGS = ("--format", "--tokenize", "--lang-pair", "--hlepor-params",
                "--meteor-params", "--max-n", "--smoothing", "--smooth-k")
# Per command: (file flags of a valid run, other file flag sets), optional flags.
COMMANDS = {
    "score": (((("--hyp", "--ref"), ("--tsv",)),
               ((), ("--hyp",), ("--ref", "--tsv"), ("--hyp", "--ref", "--tsv"))),
              METRIC_FLAGS + ("--lowercase", "--no-lowercase", "--segment-bleu")),
    "compare": (((("--before", "--after", "--ref"),), ((), ("--before", "--ref"))),
                METRIC_FLAGS + ("--metrics", "--lowercase", "--no-lowercase")),
    "matrix": (((("--scores",),), ((),)), ("--format", "--decimals")),
}

words = st.sampled_from(["the", "cat", "Cat", "sat", "1,5", "a-b", "3-4", "&amp;", "...",
                         "ΟΔΟΣ'Α", "\t", "", "x.y", "é"])
lines = st.lists(words, max_size=6).map(" ".join)
# Random bytes, half of them with the high bit set, so mostly not UTF-8.
junk_bytes = st.binary(max_size=40) | st.binary(min_size=1, max_size=40).map(
    lambda data: bytes(byte | 0x80 for byte in data))

json_leaves = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                        st.text(max_size=4))
json_values = st.recursive(json_leaves,
                           lambda inner: st.lists(inner, max_size=3)
                           | st.dictionaries(st.text(max_size=4), inner, max_size=3),
                           max_leaves=8)
good_row = st.fixed_dictionaries({
    "system": st.sampled_from(["a", "b", "c"]),
    "task": st.sampled_from(["t1", "t2"]),
    "metric": st.sampled_from(["m1", "m2"]),
    "value": st.floats(-1e6, 1e6) | st.integers(-10, 10) | st.sampled_from([1e300, 5e-324]),
})
# A random JSON value, or a good row with one field replaced by one.
bad_row = json_values | st.tuples(good_row, st.sampled_from(["system", "value"]),
                                  json_leaves).map(lambda t: {**t[0], t[1]: t[2]})


# Where a faulty run puts its garbage ("rows": bad score-table rows, or text
# files of unequal line counts); file contents, where most input defects
# were found, twice as often as the rest.
FAULT_SITES = ("command", "file flags", "contents", "contents", "rows", "values", "argv")


@st.composite
def invocations(draw):
    fault = draw(st.sampled_from((None,) + FAULT_SITES))  # None: a valid run

    def pick(site, good, bad):
        """A valid value, or at the run's fault site, one time in two a bad one."""
        if site == fault and draw(st.booleans()):
            return draw(st.sampled_from(bad))
        return draw(st.sampled_from(good))

    command = pick("command", sorted(COMMANDS), ("", "--version", "scores"))
    (file_sets, bad_file_sets), optional = COMMANDS.get(command, COMMANDS["score"])
    argv = [command]
    files = {}
    segments = draw(st.integers(1, 4))
    for flag in pick("file flags", file_sets, bad_file_sets):
        name = flag.lstrip("-")
        kind = pick("file flags", ("file",), ("missing", "directory"))
        argv += [flag, "." if kind == "directory" else name]
        if kind != "file":
            continue
        if command == "matrix":
            rows = draw(st.lists(good_row, max_size=6))
            if fault == "rows":
                rows += draw(st.lists(bad_row, min_size=1, max_size=2))
            data = json.dumps({"rows": rows}).encode("utf-8")
            data = draw(st.sampled_from((data, codecs.BOM_UTF8 + data)))
            junk = (draw(junk_bytes), json.dumps(draw(json_values)).encode("utf-8"),
                    b"[" * 100_000 + b"]" * 100_000)
        else:
            count = draw(st.integers(0, 4)) if fault == "rows" else segments
            text = "\n".join(draw(st.lists(lines, min_size=count, max_size=count)))
            if name == "tsv":
                text = "\n".join(line + "\t" + line[::-1] for line in text.split("\n"))
            data = text.encode("utf-8")
            junk = (draw(junk_bytes),)
        files[name] = pick("contents", (data,), junk)
    if command == "score" and pick("values", (True,), (False,)):
        argv += ["--metric", pick("values", *FLAG_VALUES["--metric"])]
    for flag in draw(st.lists(st.sampled_from(optional), unique=True)):
        argv += [flag, pick("values", *FLAG_VALUES[flag])] if flag in FLAG_VALUES else [flag]
    argv += pick("argv", ([],), ([draw(st.text(max_size=6))],))
    return pick("argv", (argv,), (argv[::-1],)), files


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(invocations())
def test_cli_never_exits_1(tmp_path, monkeypatch, invocation):
    argv, files = invocation
    monkeypatch.chdir(tmp_path)
    for old in tmp_path.iterdir():
        old.unlink()
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert code in (0, 2), (argv, files, stderr.getvalue())
