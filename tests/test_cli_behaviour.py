"""The CLI's behaviour rules as a property over generated input.

Hypothesis drives `cli.main` in process with graph texts of at most 8
vertices, edge-list or JSON (wrong types, odd nesting, escapes, cut
short, long integer literals under extra keys), partition files and
option mixes, argparse's own usage errors among them.  `main` returns
0, 1 or 2 for every run, and raises nothing.
Exit 2 comes with exactly one `error:` line on stderr, no traceback and
no report; exit 1 only with a report whose `ok` is false; exit 0 with
a report whose `ok` is not false.  Each example runs under a
`signal.alarm` deadline, so a hang fails as the example that hung
instead of stalling the suite.  Each defect the property found has its
own row in `PINNED`.
"""

import contextlib
import io
import json
import os
import signal
import tempfile
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from racgk.cli import PRECISION_CAP, main
from racgk.graphs import JSON_INT_DIGITS

SUBCOMMANDS = ["ktheory", "bgw", "bredon", "limit", "kunneth",
               "counterexample", "mv-check", "all"]
# examples per subcommand, each under its own deadline
EXAMPLES = 60
DEADLINE_S = 20


class Hang(BaseException):
    """Raised by the alarm; a BaseException, so that no handler of the
    CLI takes it for an error of its own."""


def run(argv):
    """(exit code, stdout, stderr) of `main(argv)` under the deadline.
    Both streams encode UTF-8 strictly, as in a UTF-8 locale, so a
    report that cannot be written fails here as it would there."""
    out, err = (io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
                for _ in range(2))

    def expire(signum, frame):
        raise Hang("%r ran past %d s" % (argv, DEADLINE_S))
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(DEADLINE_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    out.flush()
    err.flush()
    return (code, out.buffer.getvalue().decode("utf-8"),
            err.buffer.getvalue().decode("utf-8"))


def report_ok(out, argv):
    """The top-level `ok` of a report, None where it has none."""
    if "--format" in argv and argv[argv.index("--format") + 1] == "json":
        return json.loads(out).get("ok")
    return {"ok: yes": True, "ok: no": False}.get(
        next((line for line in out.splitlines() if line.startswith("ok: ")),
             None))


def assert_rules(argv):
    code, out, err = run(argv)
    assert code in (0, 1, 2), (code, err)
    assert "Traceback" not in err
    if code == 2:
        # argparse writes its usage first: the `error:` line is the last
        lines = err.splitlines()
        assert out == ""
        assert [line for line in lines if "error:" in line] == lines[-1:], err
    else:
        assert err == ""
        assert (report_ok(out, argv) is False) == (code == 1), out


def write(path, text):
    # lone surrogates are written as they are, so the CLI reads bytes
    # that are not UTF-8
    with open(path, "wb") as fh:
        fh.write(text.encode("utf-8", "surrogatepass"))
    return path


# labels the JSON writer must escape, and a lone surrogate, which a
# file holds only as bytes that are not UTF-8
SPECIAL = ['q"', "\\", "\u00e9", "\ud800", "1", "a", "v0"]
# edge-list labels: no whitespace and no `-` or `;`, its syntax
WORD = st.sampled_from(SPECIAL) | st.text(
    st.characters(blacklist_categories=("Z", "C"),
                  blacklist_characters="-;"), min_size=1, max_size=3)
# JSON labels: any text
LABEL = (WORD | st.sampled_from(["", " ", "a b", "\n", "x-y", "p;q"])
         | st.text(max_size=3))
JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers(-2 ** 70, 2 ** 70)
    | st.floats() | LABEL,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(LABEL, inner, max_size=3),
    max_leaves=8)
# at most one thing wrong with an example, or nothing
FAULTS = ["graph text", "graph value", "cut short", "long literal",
          "not UTF-8", "input path", "input format", "option value",
          "stray option", "partition", "usage"]


def option_values(sub, tmp):
    """{option: (values it takes, values it refuses)} for those `sub`
    reads."""
    cap = str(PRECISION_CAP)
    table = {
        "--format": (["text", "json"], ["yaml"]),
        "--seed": (["0", "5", "-3", str(2 ** 66)], ["x", "", "1.5"]),
        "--precision": (["1", "2", "32", cap],
                        ["-1", "0", str(PRECISION_CAP + 1), "1" * 20,
                         "two"]),
        "--kunneth-max": (["1", "2", "4", "6"], ["0", "7", "x"]),
        "--dump-matrices": ([os.path.join(tmp, "d")],
                            [os.path.join(tmp, "none", "d"), ""]),
    }
    reads = {"--precision": ("bgw", "all"),
             "--kunneth-max": ("kunneth", "all"),
             "--dump-matrices": ("bredon", "all")}
    return {name: values for name, values in table.items()
            if sub in reads.get(name, [sub])}


@st.composite
def graph(draw, fault):
    """(vertices, edges, text, JSON?): at most 8 distinct vertices and
    edges between them, written as an edge list or as JSON, with the
    text or the value off when the fault is theirs."""
    json_input = draw(st.booleans()) or fault in (
        "graph value", "cut short", "long literal")
    vertices = draw(st.lists(LABEL if json_input else WORD, min_size=1,
                             max_size=8, unique=True))
    pairs = [(a, b) for i, a in enumerate(vertices) for b in vertices[i + 1:]]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=12,
                          unique=True)) if pairs else []
    if json_input:
        value = {"vertices": vertices, "edges": [list(e) for e in edges]}
        if fault == "graph value":
            key = draw(st.sampled_from(["vertices", "edges", None]))
            if key:
                value[key] = draw(JSON_VALUE | st.lists(JSON_VALUE,
                                                         max_size=3))
            else:
                value = draw(JSON_VALUE)
        text = json.dumps(value, ensure_ascii=fault != "not UTF-8")
        if fault == "long literal":
            # an integer literal under a key the format does not read, on
            # either side of the digit cap or far past it
            key = draw(LABEL.filter(lambda k: k not in value))
            digits = draw(st.integers(1, 2 * JSON_INT_DIGITS)
                          | st.sampled_from([100_000, 800_000]))
            text = "%s, %s: %s%s}" % (text[:-1], json.dumps(key), draw(
                st.sampled_from(["", "-"])), "7" * digits)
        if fault == "cut short":
            text = text[:draw(st.integers(0, len(text) - 1))]
    else:
        tokens = ["%s-%s" % e for e in edges]
        head, end = vertices, ";"
        if fault == "graph text":
            # a token or label off, or the `;` gone
            where = draw(st.sampled_from(["token", "label", "semicolon"]))
            if where == "token":
                tokens.append(draw(st.sampled_from(
                    ["-", "a-", "-b", "a-b-c", ";", "%s-%s" % (
                        vertices[0], vertices[0]), "zz-" + vertices[0]])))
            elif where == "label":
                head = head + [draw(st.sampled_from(["x-y", vertices[0]]))]
            else:
                end = ""
        sep = draw(st.sampled_from([" ", "\t", "\n", "  "]))
        text = sep.join(head) + end + " " + sep.join(tokens)
        if fault == "not UTF-8":
            text += " \ud800"
    return vertices, edges, text, json_input


def partition(draw, vertices, edges, fault):
    """Two label lines with no edge between the parts' differences, or
    one line of every vertex; off when the fault is theirs."""
    if fault == "partition":
        return "\n".join(" ".join(line) for line in draw(st.lists(
            st.lists(st.sampled_from(vertices) | WORD, max_size=9),
            max_size=4)))
    if draw(st.booleans()):
        return " ".join(vertices)
    only = set(draw(st.lists(st.sampled_from(vertices), unique=True)))
    # the first part is a set and its neighbours, the second the rest
    near = {b if a in only else a for a, b in edges
            if (a in only) != (b in only)}
    first = [v for v in vertices if v in only or v in near]
    return " ".join(first) + "\n" + " ".join(
        v for v in vertices if v not in only)


@st.composite
def argv(draw, sub, tmp):
    """An argument list for `sub`, and the files it reads under `tmp`,
    with at most one fault."""
    fault = draw(st.sampled_from([None] * len(FAULTS) + FAULTS))
    vertices, edges, text, json_input = draw(graph(fault))
    args = [sub]
    # file names that a message must quote to stay on one line
    name = draw(st.sampled_from(["g", "g h", "g\nh", "\u00e9"]))
    if sub not in ("kunneth", "counterexample") or fault == "input path":
        path = write(os.path.join(tmp, name), text)
        if fault == "input path":
            path = draw(st.sampled_from([os.path.join(tmp, "none"), tmp,
                                         "", path]))
        args += ["--input", path]
    if "--input" in args and json_input != (fault == "input format"):
        args += ["--json-input"]
    if sub == "mv-check" and not (fault == "partition"
                                  and draw(st.booleans())):
        part = partition(draw, vertices, edges, fault)
        args += ["--partition", write(os.path.join(tmp, "p" + name), part)]
    options = option_values(sub, tmp)
    bad = (draw(st.sampled_from(sorted(options)))
           if fault == "option value" else None)
    for opt, (good, refused) in sorted(options.items()):
        if opt == bad:
            args += [opt, draw(st.sampled_from(refused))]
        elif draw(st.booleans()):
            args += [opt, draw(st.sampled_from(good))]
    if fault == "stray option":
        stray = [opt for opt in option_values("all", tmp)
                 if opt not in options] + ["--partition"] * (
                     sub != "mv-check")
        if stray:
            args += [draw(st.sampled_from(stray)), "1"]
    if fault == "usage":
        # a word argparse refuses: an unknown option, an extra positional
        # or an abbreviation that matches two options
        args.insert(draw(st.integers(1, len(args))),
                    draw(st.sampled_from(["--bogus", "extra", "--p"])))
    return args


@pytest.mark.parametrize("sub", SUBCOMMANDS)
def test_every_run_keeps_the_behaviour_rules(sub):
    @settings(max_examples=EXAMPLES, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def check(data):
        with tempfile.TemporaryDirectory() as tmp:
            assert_rules(data.draw(argv(sub, tmp)))
    check()


# one row for each defect the property found, as the argument list and
# the files it reads
PINNED = [
    # a path with a newline, in the message of a file that is not UTF-8,
    # gave the error two lines
    (["ktheory", "--input", "g\nh"], {"g\nh": "a b; a-\ud800"}),
    (["mv-check", "--input", "g", "--partition", "p\nq"],
     {"g": "a b; a-b", "p\nq": "a \ud800"}),
    # an 800,000-digit literal under an unread key was converted, in time
    # quadratic in its length, and the run exited 0
    (["bredon", "--json-input", "--input", "g"],
     {"g": '{"vertices": ["a"], "edges": [], "x": %s}' % ("7" * 800_000)}),
]


@pytest.mark.parametrize("args, files", PINNED,
                         ids=["input", "partition", "long literal"])
def test_pinned_examples_keep_the_behaviour_rules(tmp_path, args, files):
    for name, text in files.items():
        write(str(tmp_path / name), text)
    start = time.perf_counter()
    assert_rules([str(tmp_path / a) if a in files else a for a in args])
    # work too large to run is refused before it starts
    assert time.perf_counter() - start < 2
