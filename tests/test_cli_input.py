"""The CLI's input: argv and the files it names.

Canonical argv is parsed in one pass without argparse
(`cli.parse_canonical`), and every other argv by `cli.PARSER`; the
Hypothesis properties here check that the two agree wherever the pass
answers, and that the pass declines wherever argparse would exit.
`--input` and `--partition` are read as raw bytes (`cli.read_text`),
which must give what text mode gives, and at most `cli.INPUT_CAP`
bytes of them.
"""

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from racgk import cli
from racgk.graphs import GraphError

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GRAPH = "s t u; s-t t-u\n"
PARTITION = "s t\nt u\n"

# the values canonical argv gives each kind of option: as str, names of
# the files `test_main_gives_what_the_parser_alone_gives` writes, or no
# file ("all", a subcommand's name, and "")
GOOD = {str: ["g", "part", "a b", "é", "all", "0", ""],
        int: ["0", "1", "4", "7", "007", "123456789012345678901"],
        ("text", "json"): ["text", "json"]}
# values off by a little: signs, underscores, digits that are not ASCII,
# spaces, unknown choices and anything starting with `-`
NEAR_VALUES = ["+7", "1_0", "٣", "²", "-3", " 7", "7 ", "x", "1.5",
               "-", "-x", "--input", "--", "yaml", "JSON", "Text", ""]
# words off by a little: help, abbreviations, `=` forms, strays
NEAR_WORDS = ["--help", "-h", "--inp", "--form", "--seed=3", "--input=g",
              "--format=json", "--json", "--json-input=1", "--", "-",
              "extra", "--kunneth", "--FORMAT", "-s", "all"]


@st.composite
def argvs(draw):
    """(argv, canonical?): canonical argv, with up to three near misses
    made in it."""
    words = [draw(st.sampled_from(cli.SUBCOMMANDS))]
    for name in draw(st.lists(st.sampled_from(list(cli.OPTIONS)),
                              unique=True)):
        kind = cli.OPTIONS[name][0]
        words += [name] if kind is None else [name, draw(
            st.sampled_from(GOOD[kind]))]
    misses = draw(st.integers(0, 3))
    for _ in range(misses):
        at = draw(st.integers(0, len(words)))
        move = draw(st.sampled_from(["word", "value", "repeat", "front",
                                     "equals", "abbreviate", "drop"]))
        options = [i for i, w in enumerate(words) if w in cli.OPTIONS]
        if move == "word":
            words.insert(at, draw(st.sampled_from(NEAR_WORDS)))
        elif move == "value" and len(words) > 1:
            words[draw(st.integers(1, len(words) - 1))] = draw(
                st.sampled_from(NEAR_VALUES))
        elif move == "drop" and words:
            del words[min(at, len(words) - 1)]
        elif options:
            i = draw(st.sampled_from(options))
            flag = cli.OPTIONS[words[i]][0] is None or i + 1 == len(words)
            pair = words[i:i + 1 if flag else i + 2]
            if move == "repeat":
                words += pair
            elif move == "front":
                del words[i:i + len(pair)]
                words[:0] = pair
            elif move == "equals":
                words[i:i + len(pair)] = ["=".join(pair)]
            else:
                words[i] = words[i][:draw(st.integers(3, len(words[i]) - 1))]
    return words, misses == 0


def parse_both(argv):
    """(the one-pass parse, `vars` of the argparse parse or None where
    argparse exits), under the CLI's lifted digit cap."""
    with cli.exact_integers():
        fast = cli.parse_canonical(list(argv))
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                slow = vars(cli.PARSER.parse_args(list(argv)))
        except SystemExit:
            slow = None
    return fast, slow


@settings(max_examples=400, deadline=None, database=None)
@given(argvs())
def test_the_one_pass_parse_is_argparse_or_declines(case):
    argv, canonical = case
    fast, slow = parse_both(argv)
    if fast is not None:
        assert slow is not None and vars(fast) == slow, argv
    # canonical argv never reaches argparse
    assert fast is not None or not canonical, argv


@pytest.mark.parametrize("argv", [
    ["--help"], ["ktheory", "-h"], ["ktheory", "--inp", "g"],
    ["ktheory", "--input=g"], ["ktheory", "--seed", "1", "--seed", "2"],
    ["ktheory", "--input", "-"], ["ktheory", "--seed", "-3"],
    ["ktheory", "--seed", "+7"], ["ktheory", "--seed", "1_0"],
    ["ktheory", "--seed", "٣"], ["ktheory", "--format", "yaml"],
    ["--seed", "3", "ktheory"], ["ktheory", "--json-input", "--json-input"],
    ["ktheory", "--input"], ["ktheory", "g"], []])
def test_every_near_miss_goes_to_argparse(argv):
    assert cli.parse_canonical(argv) is None


def run(argv):
    """(exit code, stdout, stderr) of `cli.main(argv)` in process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_main_gives_what_the_parser_alone_gives(tmp_path, monkeypatch):
    """Every generated argv gives the same exit code, stdout and stderr
    with the one-pass parse as with `PARSER` alone."""
    for name in GOOD[str]:
        if name:
            (tmp_path / name).write_text(
                PARTITION if name == "part" else json.dumps(
                    {"vertices": ["a", "b"], "edges": [["a", "b"]]})
                if name == "é" else GRAPH, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")

    @settings(max_examples=80, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(argvs())
    def check(case):
        argv, _canonical = case
        got = run(argv)
        with mock.patch.object(cli, "parse_canonical", lambda argv: None):
            assert got == run(argv), argv
    check()


@pytest.mark.parametrize("sub", cli.SUBCOMMANDS)
def test_the_benchmark_argv_never_reaches_argparse(monkeypatch, tmp_path,
                                                    sub):
    # the shape of argv each benchmark report passes to `cli.main`
    (tmp_path / "g").write_text(GRAPH)
    (tmp_path / "p").write_text(PARTITION)

    def refuse(*args, **kwargs):
        raise AssertionError("argparse parsed %r" % (args,))
    monkeypatch.setattr(cli.PARSER, "parse_args", refuse)
    for seed in ("0", "1", str((1 << 31) - 1)):
        argv = [sub, "--format", "json", "--seed", seed]
        # `kunneth` and `counterexample` read no graph
        if sub not in ("kunneth", "counterexample"):
            argv += ["--input", str(tmp_path / "g")]
        if sub == "mv-check":
            argv += ["--partition", str(tmp_path / "p")]
        code, out, err = run(argv)
        assert code == 0, err
        assert json.loads(out)["seed"] == int(seed)


def text_mode(path):
    """What `cli.read_text` returned when it read in text mode."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        return GraphError("%r is not UTF-8 text: %s" % (path, e))


@settings(max_examples=300, deadline=None, database=None)
@given(st.binary(max_size=24) | st.lists(st.sampled_from(
    [b"a", b" ", b"\r", b"\n", b"\r\n", b"\n\r", b"\xc3\xa9", b"\xff",
     b"\xe2\x82", b"\xef\xbb\xbf"]), max_size=12).map(b"".join))
def test_the_raw_read_is_text_mode(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g\nh")
        with open(path, "wb") as fh:
            fh.write(data)
        want = text_mode(path)
        try:
            got = cli.read_text(path)
        except GraphError as e:
            got = e
        assert type(got) is type(want) and str(got) == str(want), data


JSON_GRAPH = json.dumps({"vertices": ["s", "t", "u"],
                         "edges": [["s", "t"], ["t", "u"]]}, indent=2)


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv, files", [
    (["all", "--input", "g"], {"g": "s t\nu;\ns-t\nt-u\n"}),
    (["all", "--json-input", "--input", "g"], {"g": JSON_GRAPH + "\n"}),
    (["mv-check", "--input", "g", "--partition", "p"],
     {"g": "s t u;\ns-t t-u\n", "p": "s t\n\nt u\n"})],
    ids=["edge-list", "json", "partition"])
@pytest.mark.parametrize("ending", ["\r\n", "\r"])
def test_crlf_and_cr_files_give_the_lf_report(tmp_path, argv, files, fmt,
                                              ending):
    reports = []
    for name, newline in (("lf", "\n"), ("other", ending)):
        where = tmp_path / name
        where.mkdir()
        for file, text in files.items():
            (where / file).write_bytes(text.replace("\n", newline).encode())
        reports.append(run([str(where / a) if a in files else a
                            for a in argv] + ["--format", fmt]))
    assert reports[0][0] == 0
    assert reports[1] == reports[0]


@pytest.mark.parametrize("data, detail", [
    (b"a \xff; a-\xff\n", "byte 0xff in position 2: invalid start byte"),
    (b"s t u; s-t t-u" + b" " * 70000 + b"\xe2\x82",
     "bytes in position 70014-70015: unexpected end of data")])
@pytest.mark.parametrize("option", ["--input", "--partition"])
def test_a_file_that_is_not_utf8_keeps_its_error_line(tmp_path, data, detail,
                                                      option):
    files = {"--input": tmp_path / "g", "--partition": tmp_path / "p\nq"}
    files["--input"].write_text(GRAPH)
    files["--partition"].write_text(PARTITION)
    files[option].write_bytes(data)
    code, out, err = run(["mv-check", "--input", str(files["--input"]),
                          "--partition", str(files["--partition"])])
    assert (code, out) == (2, "")
    assert err == "error: %r is not UTF-8 text: 'utf-8' codec can't " \
        "decode %s\n" % (str(files[option]), detail)


def run_in_child(argv, stdin=None, limit=None):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    cap = limit and (lambda: resource.setrlimit(resource.RLIMIT_AS,
                                                (limit, limit)))
    return subprocess.run([sys.executable, "-m", "racgk.cli"] + argv,
                          env=env, input=stdin, capture_output=True,
                          timeout=60, preexec_fn=cap)


def test_stdin_from_a_pipe_is_read_whole(tmp_path):
    # the edges come after 200 kB of blanks, past one pipe buffer, so a
    # read that stopped at its first short read would drop them
    text = ("s t u;" + " \r\n" * 70000 + "s-t t-u\n").encode()
    (tmp_path / "g").write_bytes(text)
    argv = ["all", "--format", "json", "--input"]
    piped = run_in_child(argv + ["/dev/stdin"], stdin=text)
    from_file = run_in_child(argv + [str(tmp_path / "g")])
    assert (piped.returncode, piped.stderr) == (0, b"")
    assert piped.stdout == from_file.stdout
    assert json.loads(piped.stdout)["graph"]["edges"] == [["s", "t"],
                                                          ["t", "u"]]


@pytest.mark.parametrize("option", ["--input", "--partition"])
def test_the_input_cap_is_inclusive(monkeypatch, tmp_path, option):
    files = {"--input": (tmp_path / "g", GRAPH),
             "--partition": (tmp_path / "p", PARTITION)}
    for path, text in files.values():
        path.write_text(text)
    argv = ["mv-check", "--input", str(files["--input"][0]),
            "--partition", str(files["--partition"][0])]
    path, text = files[option]
    monkeypatch.setattr(cli, "INPUT_CAP", 32)
    path.write_text(text.ljust(32))
    assert run(argv)[0] == 0
    path.write_text(text.ljust(33))
    assert run(argv) == (2, "", "error: %r holds more than 32 bytes, the "
                         "input cap\n" % str(path))


def test_an_endless_input_is_refused_at_the_cap(monkeypatch):
    monkeypatch.setattr(cli, "INPUT_CAP", 1 << 20)
    assert run(["limit", "--input", "/dev/zero"]) == (
        2, "", "error: '/dev/zero' holds more than 1048576 bytes, the input "
        "cap\n")


def test_an_endless_input_is_refused_under_a_memory_limit():
    # the whole process under an 800 MB address-space limit: the cap
    # refuses /dev/zero, where reading it whole ran out of memory
    proc = run_in_child(["limit", "--input", "/dev/zero"], limit=800 << 20)
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr == ("error: '/dev/zero' holds more than %d bytes, the "
                           "input cap\n" % cli.INPUT_CAP).encode()
