import contextlib
import glob
import hashlib
import importlib
import json
import os
import re
import subprocess
import sys
import time
import tokenize
from json.encoder import encode_basestring_ascii
from math import comb

import pytest

from racgk import bredon, cli, graphs, intlinalg, kring, writers
from racgk.cli import main
from racgk.graphs import Graph
from racgk.writers import dump_json
from conftest import (complete_graph, cubical_bredon_complex, cycle_graph,
                      dense_differentials, glue64, graph_suite,
                      neighbourhood_split, per_item_render_text,
                      path_graph, perfbench_module, petersen_graph,
                      random_graph)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GRAPH_SUBCOMMANDS = ["ktheory", "bgw", "bredon", "limit", "all"]


@pytest.fixture
def pentagon_file(tmp_path):
    f = tmp_path / "c5.graph"
    f.write_text("a b c d e; a-b b-c c-d d-e e-a\n")
    return str(f)


@pytest.fixture
def path_file(tmp_path):
    f = tmp_path / "p3.graph"
    f.write_text("s t u; s-t t-u\n")
    return str(f)


def run_json(capsys, argv):
    code = main(argv + ["--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_bredon_pentagon(capsys, pentagon_file):
    code, rep = run_json(capsys, ["bredon", "--input", pentagon_file])
    assert code == 0
    assert rep["cohomology"][0]["free_rank"] == 11
    assert all(e["free_rank"] == 0 for e in rep["cohomology"][1:])


def test_ktheory_report(capsys, path_file):
    code, rep = run_json(capsys, ["ktheory", "--input", path_file])
    assert code == 0
    assert rep["rank"] == 6
    assert all(s["bases_agree"] for s in rep["sample_products"])


def test_bgw_report(capsys, path_file):
    code, rep = run_json(capsys, ["bgw", "--input", path_file])
    assert code == 0
    assert rep["relations_ok"]
    assert rep["additive_structure"]["two_adic_components"] == 5


def test_limit_report(capsys, path_file):
    code, rep = run_json(capsys, ["limit", "--input", path_file])
    assert code == 0
    assert rep["limit_rank"] == 6
    assert rep["rho"]["surjective"]


def test_kunneth_no_graph_needed(capsys):
    code, rep = run_json(capsys, ["kunneth", "--kunneth-max", "3"])
    assert code == 0
    assert [c["n"] for c in rep["cases"]] == [1, 2, 3]


def test_counterexample(capsys):
    code, rep = run_json(capsys, ["counterexample"])
    assert code == 0
    assert rep["dihedral8_to_center"]["ok"]
    assert rep["c4_real_to_c2"]["ok"]


# sha256 of the standalone `counterexample` report in each format
COUNTEREXAMPLE_SHA256 = {
    "json": "e76f51b99699f08b78deb7ddd44dd31def5f57f67bee1bd57c214ee0dbe33cc4",
    "text": "b15423bf88fb2d6ce00feda76c164253386ecd261c19d3c0814471f5c466c938",
}


@pytest.mark.parametrize("fmt", sorted(COUNTEREXAMPLE_SHA256))
def test_counterexample_report_is_pinned(capsys, fmt):
    assert main(["counterexample", "--format", fmt]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        COUNTEREXAMPLE_SHA256[fmt])


def test_mv_check(capsys, path_file, tmp_path):
    part = tmp_path / "part.txt"
    part.write_text("s t\nt u\n")
    code, rep = run_json(capsys, ["mv-check", "--input", path_file,
                                  "--partition", str(part)])
    assert code == 0
    assert rep["rank_inclusion_exclusion"]


def test_mv_check_lists_the_cliques_of_the_graph_and_its_parts(
        monkeypatch, capsys, path_file, tmp_path):
    # the intersection's cliques are only counted
    listed = []
    listing = graphs.enumerate_spherical

    def counted(graph):
        listed.append(graph.labels)
        return listing(graph)
    monkeypatch.setattr(graphs, "enumerate_spherical", counted)
    part = tmp_path / "part.txt"
    part.write_text("s t\nt u\n")
    code, rep = run_json(capsys, ["mv-check", "--input", path_file,
                                  "--partition", str(part)])
    assert code == 0 and rep["ranks"]["intersection"] == 2
    assert listed == [("s", "t", "u"), ("s", "t"), ("t", "u")]


def test_mv_check_refuses_a_third_partition_line(capsys, tmp_path):
    graph = tmp_path / "p4.graph"
    graph.write_text("a b c d; a-b b-c c-d\n")
    part = tmp_path / "part.txt"
    part.write_text("a b c\nb c d\nzzz qqq\n")
    assert main(["mv-check", "--input", str(graph),
                 "--partition", str(part)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_all_cross_checks(capsys, path_file):
    code, rep = run_json(capsys, ["all", "--input", path_file])
    assert code == 0
    assert rep["rank_cross_check"]["ok"]


def test_missing_input_is_usage_error(capsys):
    assert main(["bredon"]) == 2


def test_malformed_graph_is_usage_error(tmp_path, capsys):
    f = tmp_path / "bad.graph"
    f.write_text("s; s-s")
    assert main(["bredon", "--input", str(f)]) == 2


def test_vertex_cap_reported(tmp_path, capsys):
    labels = " ".join("v%d" % i for i in range(65))
    f = tmp_path / "big.graph"
    f.write_text(labels + ";\n")
    assert main(["ktheory", "--input", str(f)]) == 2
    assert "caps at 64" in capsys.readouterr().err


def test_reports_are_reproducible(capsys, pentagon_file):
    _, rep1 = run_json(capsys, ["all", "--input", pentagon_file,
                                "--seed", "5"])
    _, rep2 = run_json(capsys, ["all", "--input", pentagon_file,
                                "--seed", "5"])
    assert rep1 == rep2


def test_report_embeds_canonical_graph(capsys, pentagon_file):
    _, rep = run_json(capsys, ["bredon", "--input", pentagon_file])
    assert rep["graph"]["edges"] == sorted(rep["graph"]["edges"])


@pytest.mark.parametrize("text", [
    '{"vertices": ["a", "b"], "edges": [["a"]]}',
    '{"vertices": [["a"], "b"]}',
    '{"vertices": "ab"}',
], ids=["short-edge", "list-vertex", "string-vertices"])
def test_malformed_json_graph_is_usage_error(tmp_path, capsys, text):
    f = tmp_path / "bad.json"
    f.write_text(text)
    assert main(["ktheory", "--json-input", "--input", str(f)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_deeply_nested_json_graph_is_usage_error(tmp_path, capsys):
    # the standard library's decoder recurses once per level
    depth = 100_000
    f = tmp_path / "deep.json"
    f.write_text('{"vertices": %s%s}' % ("[" * depth, "]" * depth))
    assert main(["ktheory", "--json-input", "--input", str(f)]) == 2
    captured = capsys.readouterr()
    assert not captured.out and "Traceback" not in captured.err
    assert captured.err == "error: JSON graph nested too deeply to parse\n"


@pytest.mark.parametrize("name, text, flags", [
    ("empty.graph", "; \n", []),
    ("empty.json", '{"vertices": []}', ["--json-input"]),
], ids=["edge-list", "json"])
@pytest.mark.parametrize("sub", GRAPH_SUBCOMMANDS)
def test_an_empty_vertex_list_is_refused_in_both_formats(
        tmp_path, capsys, name, text, flags, sub):
    f = tmp_path / name
    f.write_text(text)
    assert main([sub, "--input", str(f)] + flags) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err == "error: empty vertex list\n"


def test_non_utf8_input_is_usage_error(tmp_path, capsys):
    f = tmp_path / "bad.graph"
    f.write_bytes(b"a \xff; a-\xff\n")
    assert main(["ktheory", "--input", str(f)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_kunneth_max_above_cap_is_refused(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("tensor power built past the cap")

    monkeypatch.setattr(bredon, "interval_tensor_powers", refuse)
    assert main(["kunneth", "--kunneth-max", "7"]) == 2
    assert "kunneth-max" in capsys.readouterr().err


def test_memory_error_is_usage_error(monkeypatch, capsys, pentagon_file):
    def exhaust(*args):
        raise MemoryError

    monkeypatch.setattr(bredon, "cone_certificate", exhaust)
    assert main(["bredon", "--input", pentagon_file]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bredon ")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("sub", ["bgw", "all"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_huge_precision_is_usage_error(capsys, pentagon_file, sub, fmt):
    # 2^precision is too large to build, and past the cap: one error
    # line, no report
    assert main([sub, "--input", pentagon_file, "--format", fmt,
                 "--precision", "100000000000000000000"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: %s " % sub)
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("sub", ["bgw", "all"])
def test_precision_is_capped_before_any_section_runs(monkeypatch, capsys,
                                                     pentagon_file, sub):
    # at the cap both subcommands report; one past it, the refusal names
    # the cap before the graph is read, so no 2^precision is built
    cap = cli.PRECISION_CAP
    assert cap == 1 << 20
    code, rep = run_json(capsys, [sub, "--input", pentagon_file,
                                  "--precision", str(cap)])
    bgw = rep["bgw"] if sub == "all" else rep
    assert code == 0 and bgw["additive_structure"]["precision"] == cap

    def unread(args):
        raise AssertionError("the graph was read")
    monkeypatch.setattr(cli, "load_graph", unread)
    assert main([sub, "--input", pentagon_file,
                 "--precision", str(cap + 1)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: %s --precision 1048577 would build 2^1048577, "
                   "an integer of 131073 bytes; the cap is 1048576\n"
                   % sub)


@pytest.mark.parametrize("sub", ["all", "ktheory", "limit"])
def test_each_graph_object_is_built_once(monkeypatch, capsys, pentagon_file,
                                         sub):
    calls = {}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(graphs, "enumerate_spherical")
    counted(graphs, "clique_counts")
    counted(bredon, "cone_certificate")
    counted(bredon, "build_bredon_complex")
    counted(bredon, "inverse_limit")
    assert main([sub, "--input", pentagon_file, "--format", "json"]) == 0
    # the complex is built only to dump its matrices, and no report lists
    # the cliques as masks: `ktheory` prints and draws from the label
    # listing alone
    bredon_calls = {} if sub == "ktheory" else {"cone_certificate": 1,
                                                 "inverse_limit": 1}
    assert calls == {"clique_counts": 1, **bredon_calls}


def test_limit_runs_no_elimination(monkeypatch, capsys, pentagon_file):
    # rho and the clique-basis isomorphism read the shape of the d = 11
    # clique families off one limit: no elimination state, so neither
    # invariant factors nor a solver
    calls = {"states": 0, "solvers": 0, "limits": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper
    monkeypatch.setattr(intlinalg._Elimination, "__init__",
                        counted("states", intlinalg._Elimination.__init__))
    monkeypatch.setattr(intlinalg.ColumnSolver, "__init__",
                        counted("solvers", intlinalg.ColumnSolver.__init__))
    monkeypatch.setattr(bredon, "inverse_limit",
                        counted("limits", bredon.inverse_limit))
    assert main(["limit", "--input", pentagon_file, "--format", "json"]) == 0
    assert calls == {"states": 0, "solvers": 0, "limits": 1}


WRONG_SIGN = ("identity (a) restriction is a projection fails in block "
              "K = {} at cube [{}, {s}], degree 1")
DROPPED_FACE = ("identity (b) d o d = 0 fails in block K = {} at cube "
                "[{}, {s, t}], degree 2")


@pytest.mark.parametrize("sub", ["bredon", "limit", "all"])
def test_wrong_restriction_sign_names_its_witness(monkeypatch, capsys,
                                                  path_file, sub):
    monkeypatch.setattr(bredon, "restrict",
                        lambda mono, clique: (mono & clique, -1))
    code, rep = run_json(capsys, [sub, "--input", path_file])
    assert code == 1 and not rep["ok"]
    section = rep["bredon"] if sub == "all" else rep
    assert section["detail"] == WRONG_SIGN
    if sub == "all":
        assert rep["limit"]["detail"] == WRONG_SIGN
        assert not rep["rank_cross_check"]["ok"]


@pytest.mark.parametrize("sub", ["bredon", "limit", "all"])
def test_dropped_face_names_its_witness(monkeypatch, capsys, path_file, sub):
    faces = bredon.faces
    monkeypatch.setattr(bredon, "faces", lambda low, top: (
        faces(low, top)[:-1] if (top ^ low).bit_count() > 1
        else faces(low, top)))
    code, rep = run_json(capsys, [sub, "--input", path_file])
    assert code == 1 and not rep["ok"]
    section = rep["bredon"] if sub == "all" else rep
    assert section["detail"] == DROPPED_FACE
    if sub == "all":
        assert rep["limit"]["detail"] == DROPPED_FACE
    if sub != "limit":
        assert section["cohomology"] is None


@pytest.mark.parametrize("sub", ["bredon", "all"])
def test_a_failed_certificate_dumps_nothing(monkeypatch, capsys, tmp_path,
                                            path_file, sub):
    # the dump's d o d = 0 rests on the certificate: with a face dropped
    # nothing is built or written, and the run names the witness
    faces = bredon.faces
    monkeypatch.setattr(bredon, "faces", lambda low, top: (
        faces(low, top)[:-1] if (top ^ low).bit_count() > 1
        else faces(low, top)))
    prefix = tmp_path / "P"
    code, rep = run_json(capsys, [sub, "--input", path_file,
                                  "--dump-matrices", str(prefix)])
    assert code == 1 and not rep["ok"]
    section = rep["bredon"] if sub == "all" else rep
    assert section["detail"] == DROPPED_FACE
    assert not (tmp_path / "P.0").exists()
    assert not list(tmp_path.glob("P.*"))


# sha256 of each `--dump-matrices` file of the cubical complex
DUMP_SHA256 = {
    "C5": ["188acdb90b4515b6a0965b4bfc8ab70e5f181d5559dda362d20e7b584e663afa",
           "1ebfcb7670bcccf62e89eff06c106832750866a82dd1cd7d2d7c7eb87b92c47d"],
    "K4": ["4172f19e8798561ac41303bb0311455d7870e8c580d9fc7b1282e7d27e67314d",
           "8d86f43bff5fcba4b941896837de60e885f56c19b7562e7db4cf1b8cf292076f",
           "1ef92d16b0447979afe4b01cb31319a16520f3724db3f3300681a365f6091bdf",
           "7624b50c3e460356d36cede2b12d96fa0ecbc7d8c3c9a9dc00a2cee6305c5508"],
}


@pytest.mark.parametrize("sub", ["bredon", "all"])
@pytest.mark.parametrize("name", ["C5", "K4"])
def test_dump_matrices(capsys, tmp_path, name, sub):
    graph = {"C5": cycle_graph(5), "K4": complete_graph(4)}[name]
    f = tmp_path / "g.graph"
    f.write_text("%s; %s\n" % (" ".join(graph.labels), " ".join(
        "%s-%s" % e for e in graph.canonical_edge_list())))
    prefix = tmp_path / "d"
    assert main([sub, "--input", str(f), "--dump-matrices", str(prefix)]) == 0
    cube = cubical_bredon_complex(graph)
    ranks, dense = cube.ranks, dense_differentials(cube)
    for k, d in enumerate(dense):
        data = (tmp_path / ("d.%d" % k)).read_bytes()
        triplets = [tuple(map(int, line.split()))
                    for line in data.decode().splitlines()]
        positions = [(r, c) for r, c, _x in triplets]
        assert positions == sorted(set(positions)), k
        rebuilt = [[0] * ranks[k] for _ in range(ranks[k + 1])]
        for r, c, x in triplets:
            assert x
            rebuilt[r][c] = x
        assert rebuilt == d, k
        assert hashlib.sha256(data).hexdigest() == DUMP_SHA256[name][k], k
    assert not (tmp_path / ("d.%d" % len(dense))).exists()


def test_the_dump_cap_admits_k10_and_refuses_k11():
    # K10's dump peaks at about 660 MB whole process
    cells = [sum(bredon.cone_certificate(complete_graph(n)).ranks)
             for n in (10, 11)]
    assert cells == [4 ** 10, 4 ** 11]
    assert cells[0] <= cli.DUMP_CELL_CAP < cells[1]


@pytest.mark.parametrize("sub", ["bredon", "all"])
def test_a_complex_too_large_to_dump_is_refused(monkeypatch, capsys,
                                                tmp_path, sub):
    # K11's cells are counted and refused before the complex is built
    def refuse(graph):
        raise AssertionError("the complex was built")
    monkeypatch.setattr(bredon, "build_bredon_complex", refuse)
    path = graph_file(tmp_path, "K11", complete_graph(11))
    start = time.perf_counter()
    assert main([sub, "--input", path,
                 "--dump-matrices", str(tmp_path / "d")]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err == ("error: --dump-matrices would build a complex "
                            "of 4194304 cells; the cap is 1048576\n")
    assert not list(tmp_path.glob("d.*"))


@pytest.mark.parametrize("argv", [
    ["limit", "--dump-matrices", "d", "--partition", "/nonexistent",
     "--input", "G"],
    ["ktheory", "--dump-matrices", "d", "--input", "G"],
    ["mv-check", "--dump-matrices", "d", "--input", "G"],
    ["bredon", "--partition", "/nonexistent", "--input", "G"],
    ["all", "--partition", "/nonexistent", "--input", "G"],
    ["counterexample", "--input", "G"],
    ["counterexample", "--json-input"],
    ["kunneth", "--json-input"],
    ["limit", "--input", "G", "--kunneth-max", "2"],
    ["bgw", "--input", "G", "--kunneth-max", "4"],
    ["counterexample", "--precision", "9"],
    ["kunneth", "--precision", "32"],
    ["ktheory", "--input", "G", "--precision", "0"],
], ids=["limit-both", "ktheory-dump", "mv-check-dump", "bredon-partition",
        "all-partition", "counterexample-input", "counterexample-json-input",
        "kunneth-json-input", "limit-kunneth-max", "bgw-kunneth-max",
        "counterexample-precision", "kunneth-precision",
        "ktheory-precision-out-of-range"])
def test_option_a_subcommand_ignores_is_refused(capsys, tmp_path, path_file,
                                                argv):
    argv = [{"d": str(tmp_path / "d"), "G": path_file}.get(a, a)
            for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err.startswith("error: --")
    assert len(captured.err.splitlines()) == 1
    assert not list(tmp_path.glob("d*"))


def test_precision_and_kunneth_max_apply_where_they_are_read(capsys,
                                                             pentagon_file):
    # given or not, each reaches its report; a given default is given
    code, rep = run_json(capsys, ["bgw", "--input", pentagon_file])
    assert code == 0 and rep["additive_structure"]["precision"] == 32
    code, rep = run_json(capsys, ["all", "--input", pentagon_file,
                                  "--precision", "9", "--kunneth-max", "2"])
    assert code == 0 and rep["bgw"]["additive_structure"]["precision"] == 9
    assert len(rep["kunneth"]["cases"]) == 2
    code, rep = run_json(capsys, ["kunneth", "--kunneth-max", "4"])
    assert code == 0 and len(rep["cases"]) == 4
    assert main(["ktheory", "--input", pentagon_file,
                 "--precision", "32"]) == 2
    assert capsys.readouterr().err == (
        "error: --precision applies only to bgw and all\n")


HELP = """\
usage: racgk [-h] [--input INPUT] [--json-input] [--format {text,json}]
             [--precision PRECISION] [--kunneth-max KUNNETH_MAX] [--seed SEED]
             [--partition PARTITION] [--dump-matrices DUMP_MATRICES]
             {ktheory,bgw,bredon,limit,kunneth,counterexample,mv-check,all}

K-theory of right-angled Coxeter groups from a graph

positional arguments:
  {ktheory,bgw,bredon,limit,kunneth,counterexample,mv-check,all}

options:
  -h, --help            show this help message and exit
  --input INPUT         ktheory, bgw, bredon, limit, mv-check and all only:
                        graph file (edge-list, or JSON with --json-input)
  --json-input          ktheory, bgw, bredon, limit, mv-check and all only:
                        parse the input file as JSON
  --format {text,json}
  --precision PRECISION
                        bgw and all only: 2-adic truncation exponent for the
                        completed ring (default 32, at most 2^20)
  --kunneth-max KUNNETH_MAX
                        kunneth and all only: the highest tensor power
                        (default 4)
  --seed SEED           seed for randomized property samples
  --partition PARTITION
                        mv-check only: partition file of two lines of
                        whitespace-separated vertex labels
  --dump-matrices DUMP_MATRICES
                        bredon and all only: write each differential as `row
                        col value` triplet lines to FILE.k
"""


def test_the_help_text_is_pinned(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    # Python 3.10 titles the options section "optional arguments"
    assert out.replace("optional arguments:", "options:") == HELP


READS_GRAPH = "ktheory, bgw, bredon, limit, mv-check and all"
# each option a subcommand would ignore, given alone to a subcommand
# that otherwise runs, and the one line it is refused with
SCOPE_ERRORS = [
    (["--precision", "9"], ["ktheory", "bredon", "limit", "kunneth",
                            "counterexample", "mv-check"],
     "error: --precision applies only to bgw and all\n"),
    (["--kunneth-max", "2"], ["ktheory", "bgw", "bredon", "limit",
                              "counterexample", "mv-check"],
     "error: --kunneth-max applies only to kunneth and all\n"),
    (["--partition", "P"], ["ktheory", "bgw", "bredon", "limit", "kunneth",
                            "counterexample", "all"],
     "error: --partition applies only to mv-check\n"),
    (["--dump-matrices", "d"], ["ktheory", "bgw", "limit", "kunneth",
                                "counterexample", "mv-check"],
     "error: --dump-matrices applies only to bredon and all\n"),
    (["--input", "G"], ["counterexample", "kunneth"],
     "error: --input applies only to %s\n" % READS_GRAPH),
    (["--json-input"], ["counterexample", "kunneth"],
     "error: --json-input applies only to %s\n" % READS_GRAPH),
]


def runnable(sub):
    """The argv on which `sub` runs and reports, with the files it reads
    named G and P."""
    return [sub] + {"kunneth": [], "counterexample": [],
                    "mv-check": ["--input", "G", "--partition", "P"]}.get(
                        sub, ["--input", "G"])


@pytest.mark.parametrize("sub, option, line", [
    (sub, option, line) for option, subs, line in SCOPE_ERRORS
    for sub in subs])
def test_each_option_a_subcommand_ignores_is_named(monkeypatch, capsys,
                                                   tmp_path, sub, option,
                                                   line):
    (tmp_path / "G").write_text("s t u; s-t t-u\n")
    (tmp_path / "P").write_text("s t\nt u\n")
    monkeypatch.chdir(tmp_path)
    argv = runnable(sub)
    assert main(argv + ["--format", "json"]) == 0
    capsys.readouterr()
    assert main(argv + option) == 2
    assert capsys.readouterr() == ("", line)
    assert sorted(os.listdir(tmp_path)) == ["G", "P"]


EMPTY = "error: %s was given an empty path\n"


@pytest.mark.parametrize("argv, line", [
    # the scope is checked first: `kunneth` reads no graph
    (["kunneth", "--input", "", "--json-input"],
     "error: --input applies only to %s\n" % READS_GRAPH),
    (["kunneth", "--input", ""],
     "error: --input applies only to %s\n" % READS_GRAPH),
    (["bredon", "--input", ""], EMPTY % "--input"),
    (["all", "--input", "G", "--input", ""], EMPTY % "--input"),
    (["bredon", "--input", "G", "--dump-matrices", ""],
     EMPTY % "--dump-matrices"),
    (["all", "--input", "G", "--dump-matrices", ""],
     EMPTY % "--dump-matrices"),
    (["mv-check", "--input", "G", "--partition", ""], EMPTY % "--partition"),
], ids=["kunneth-json", "kunneth", "bredon-input", "all-input-repeated",
        "bredon-dump", "all-dump", "mv-check-partition"])
def test_a_given_empty_path_is_refused(monkeypatch, capsys, tmp_path, argv,
                                       line):
    # given, so neither ignored nor taken for a missing option; an empty
    # dump prefix would write `.0`, `.1`, ... into the working directory
    (tmp_path / "G").write_text("s t u; s-t t-u\n")
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr() == ("", line)
    assert os.listdir(tmp_path) == ["G"]


@pytest.mark.parametrize("argv, option", [
    (["mv-check", "--input", "G"], "--partition"),
    (["mv-check", "--partition", "G"], "--input"),
    (["bredon", "--dump-matrices", "d"], "--input"),
    (["all", "--json-input", "--seed", "3"], "--input"),
], ids=["mv-check-partition", "mv-check-input", "bredon-input", "all-input"])
def test_a_required_file_is_named_before_any_file_is_read(
        monkeypatch, capsys, tmp_path, argv, option):
    # the graph is not read only to find the partition missing
    (tmp_path / "G").write_text("s t u; s-t t-u\n")
    monkeypatch.chdir(tmp_path)

    def unread(path):
        raise AssertionError("%r was read" % path)
    monkeypatch.setattr(cli, "read_text", unread)
    assert main(argv) == 2
    assert capsys.readouterr() == (
        "", "error: %s requires %s\n" % (argv[0], option))
    assert os.listdir(tmp_path) == ["G"]


def unsound(name, key):
    """A wrapper of `cli.<name>` whose report has `ok` made false, or
    the number under `key` made one larger."""
    original = getattr(cli, name)

    def wrapper(*args):
        report = original(*args)
        report[key] = False if key == "ok" else report[key] + 1
        return report
    return wrapper


@pytest.mark.parametrize("section, name, key", [
    ("ktheory", "run_ktheory", "ok"),
    ("bgw", "run_bgw", "ok"),
    ("bredon", "bredon_section", "ok"),
    ("limit", "limit_section", "ok"),
    ("kunneth", "run_kunneth", "ok"),
    ("counterexample", "run_counterexample", "ok"),
    # the ktheory section still passes, with a rank H^0 does not have
    ("rank_cross_check", "run_ktheory", "rank"),
])
def test_all_fails_with_any_one_section(monkeypatch, capsys, pentagon_file,
                                        section, name, key):
    monkeypatch.setattr(cli, name, unsound(name, key))
    code, rep = run_json(capsys, ["all", "--input", pentagon_file])
    assert code == 1 and rep["ok"] is False
    assert {k: v["ok"] for k, v in rep.items() if isinstance(v, dict)
            and "ok" in v} == {
        k: k != section for k in ("ktheory", "bgw", "bredon", "limit",
                                  "kunneth", "counterexample",
                                  "rank_cross_check")}


def edge_list(labels, edges):
    return "%s; %s\n" % (" ".join(labels),
                         " ".join("%s-%s" % tuple(e) for e in edges))


def benchmark_graphs():
    """(name, graph text, partition text or None) for the deck and the
    warm-up graph of each of the benchmark's workloads."""
    workloads = perfbench_module("workloads")
    out = []
    for workload in workloads.SUBCOMMANDS:
        for t in workloads.deck(workload) + [
                workloads.warmup_template(workload)]:
            part = t["parts"] and "".join(" ".join(p) + "\n"
                                          for p in t["parts"])
            out.append(("%s/%s" % (workload, t["family"]),
                        edge_list(t["labels"], t["edges"]), part))
    return out


def test_every_span_target_is_a_racgk_attribute():
    # the traced benchmark wraps each target by name, so a deleted or
    # renamed function fails there; this catches it in the tests
    targets = perfbench_module("spans").TARGETS
    for _span, module, path, _counter in targets:
        obj = importlib.import_module("racgk." + module)
        for name in path.split("."):
            assert hasattr(obj, name), (module, path)
            obj = getattr(obj, name)
    assert len(targets) > 20


# the most code tokens one module of `src/racgk` may hold: the benchmark
# worker compiles `src/` at import, and a module past 4096 tokens
# doubles the parser's token buffer, which raised `peak_rss_mb` in 12 of
# 12 paired runs though the program's working set did not grow
MODULE_TOKEN_CAP = 4096


@pytest.mark.parametrize("path", sorted(glob.glob(
    os.path.join(ROOT, "src", "racgk", "*.py"))), ids=os.path.basename)
def test_each_module_stays_under_the_token_cap(path):
    with open(path, encoding="utf-8") as fh:
        tokens = [t for t in tokenize.generate_tokens(fh.readline)
                  if t.type not in (tokenize.COMMENT, tokenize.NL)]
    assert len(tokens) < MODULE_TOKEN_CAP


def suite_graphs():
    """(name, graph text, partition text) for the test-suite graphs,
    split at the closed neighbourhood of their first vertex."""
    return [(name, edge_list(g.labels, g.canonical_edge_list()),
             "".join(" ".join(p) + "\n" for p in neighbourhood_split(g, 1)))
            for name, g, _ in graph_suite()]


def assert_writer_is_json_dumps(monkeypatch, capsys, argv):
    """The JSON report of `argv` is `json.dumps(payload, indent=2,
    sort_keys=True)` of the payload the writer was handed."""
    writer, payloads = cli.dump_json, []

    def recording(value, pad="\n"):
        if pad == "\n":
            payloads.append(value)
        return writer(value, pad)

    monkeypatch.setattr(cli, "dump_json", recording)
    main(argv + ["--format", "json"])
    (payload,) = payloads
    assert capsys.readouterr().out == json.dumps(
        payload, indent=2, sort_keys=True) + "\n", argv


@pytest.mark.parametrize("graph, part", [
    pytest.param(graph, part, id=name)
    for name, graph, part in suite_graphs() + benchmark_graphs()])
def test_json_writer_on_every_subcommand(monkeypatch, capsys, tmp_path,
                                         graph, part):
    path = tmp_path / "g.graph"
    path.write_text(graph)
    for sub in GRAPH_SUBCOMMANDS:
        assert_writer_is_json_dumps(monkeypatch, capsys,
                                    [sub, "--input", str(path)])
    if part:
        split = tmp_path / "g.part"
        split.write_text(part)
        assert_writer_is_json_dumps(monkeypatch, capsys, [
            "mv-check", "--input", str(path), "--partition", str(split)])


@pytest.mark.parametrize("sub", ["ktheory", "bgw", "all"])
@pytest.mark.parametrize("name", ["escapes", "Petersen"])
def test_text_writer_is_the_per_item_writer(monkeypatch, capsys, tmp_path,
                                            name, sub):
    # labels with `"`, a backslash and a non-ASCII letter take the per-item
    # quoting, the Petersen graph's the join
    v = ['a"b', "c\\d", "\u00e9", "x"]
    argv = {"escapes": ["--json-input", "--input", str(tmp_path / "g.json")],
            "Petersen": ["--input", str(tmp_path / "g.graph")]}[name]
    (tmp_path / "g.json").write_text(json.dumps(
        {"vertices": v, "edges": [v[:2], v[1:3], v[2:], [v[0], v[2]]]}))
    g = petersen_graph()
    (tmp_path / "g.graph").write_text(edge_list(g.labels,
                                                g.canonical_edge_list()))
    writer, payloads = cli.render_text, []

    def recording(value, indent=0):
        if not indent:
            payloads.append(value)
        return writer(value, indent)
    monkeypatch.setattr(cli, "render_text", recording)
    assert main([sub] + argv) == 0
    (payload,) = payloads
    assert capsys.readouterr().out == "\n".join(
        per_item_render_text(payload)) + "\n"


@pytest.mark.parametrize("argv", [["counterexample"], ["kunneth"]])
def test_json_writer_without_a_graph(monkeypatch, capsys, argv):
    assert_writer_is_json_dumps(monkeypatch, capsys, argv)


def test_json_writer_on_keys_that_are_not_str():
    # no report has one: the writer hands such a dict to json.dumps,
    # which writes int, float, bool and None keys as strings ...
    value = {"a": {2: [1], 10: {"b": None}}, "c": [{1.5: "x", True: 0}]}
    assert dump_json(value) == json.dumps(value, indent=2, sort_keys=True)
    # ... and refuses keys it cannot sort or write, as json.dumps does
    for bad in ({"a": 1, 2: 3}, {(1, 2): 3}):
        for writer in (dump_json, lambda v: json.dumps(v, indent=2,
                                                       sort_keys=True)):
            with pytest.raises(TypeError):
                writer(bad)


def test_json_writer_on_bool_and_none_lists():
    # a bool is written as a JSON literal, never by `int.__repr__`, in a
    # list of one scalar type and in a mixed one
    for value in ([3, True, 0, False], [None, None], [True, False],
                  {"ok": True, "detail": None, "pairs": [[2, False]]}):
        assert dump_json(value) == json.dumps(value, indent=2,
                                              sort_keys=True), value
    assert dump_json([1, True]) == "[\n  1,\n  true\n]"


def test_json_writer_on_empty_containers():
    # an empty list, tuple or dict is written in place, as a dict value,
    # a list item and at the top
    for value in ({"a": {}, "b": [], "c": (), "d": [{}, [], ()]},
                  [{}, 1], [(), "x"], {}, [], ()):
        assert dump_json(value) == json.dumps(value, indent=2,
                                              sort_keys=True), value


def test_json_writer_on_string_lists_that_need_escaping():
    # a list of str whose text the C quoting would change takes the
    # per-item quoting; a tuple of str and a str subclass are written
    # as json.dumps writes them
    class Label(str):
        pass

    safe = ["a", "", "b c", "~!#$%&'()*+,-./:;<=>?@[]^_`{|}"]
    values = [safe, tuple(safe), [Label("x"), "y"], (Label('q"'),),
              {"labels": safe, "more": [Label("z")]}]
    for bad in ['"', "\\", "\x1f", "\x7f", "\u00e9", "\u2028", 'a"b', "c\\d"]:
        values += [[bad], safe[:2] + [bad] + safe[2:], tuple(safe + [bad])]
    # lists of str lists, empty ones included, take one join; an escaping,
    # mixed or deeper one takes the per-item path
    values += [[[]], [[], safe], (tuple(safe), [], ["c"]), [["a"], ['q"']],
               [["a"], [Label("x")]], [["a"], [1]], [["a"], "b"], [[[]]],
               [[["a"]], ["b"]], [["a"], [None]], [["a"], {}]]
    for value in values:
        assert dump_json(value) == json.dumps(value, indent=2,
                                              sort_keys=True), value


def test_plain_text_is_what_the_quoting_leaves_alone():
    chars = [chr(c) for c in range(0x300)] + ["\u2028", "\U0001f600"]
    for c in chars:
        for text in (c, "ab" + c, c + c + "z"):
            assert writers._plain(text) == (
                encode_basestring_ascii(text) == '"%s"' % text), repr(text)
    assert writers._plain("")


def test_json_writer_joins_the_clique_basis_in_one_call(monkeypatch):
    writer, calls = writers.dump_json, []

    def counting(value, pad="\n"):
        calls.append(value)
        return writer(value, pad)

    monkeypatch.setattr(writers, "dump_json", counting)
    basis = cycle_graph(64).clique_labels
    assert counting(basis) == json.dumps(basis, indent=2)
    assert len(calls) == 1
    escaped = [["a"], ['"']]
    assert counting(escaped) == json.dumps(escaped, indent=2)
    assert len(calls) == 1 + 1 + len(escaped)


# sha256 of each seeded `--format json` report, seeds 0 and 5, on the
# suite graphs split as in `suite_graphs`
REPORT_SHA256 = {
    # (graph, subcommand): [seed 0, seed 5]
    ("K3", "ktheory"): [
        "42587da7bbc39a83aa8d80ad15c24ea33c5631a728b71e5c42d1e97e3ab8b5cb",
        "a595f5b4da7f2d47e8705468701a730de9c0b65f2545841da1798efa8482a068"],
    ("K3", "bgw"): [
        "b0f898dd8b873ac000236e9440b3dc2650564f09cc91eb7fe00728847e4adfc0",
        "0589726621092378c472e0c6f03a66f61ced5a43c6b11157015d5e4a55fad4e7"],
    ("K3", "all"): [
        "21c3731e391651f79ed4f5cb177381891e03f2cdcb4eab036ec6c854eec36565",
        "0d0d13b3138434f554ae8366c51e90574de70af7759d4c166b7b7c0c8c7e99c4"],
    ("E3", "ktheory"): [
        "c650c1ccf21fd2713841dbe2331325abf7b0ed3677c53810a90ed8687c490a2f",
        "c114fde58b9e3c4032fd936d41c4263d3e61768e8b015cef73ae1ff6b008f216"],
    ("E3", "bgw"): [
        "9780c610642fe0bb6024df14f94e517287658a2a391261bfeb0f9793d8890c39",
        "b1127579186fdae82c5d37dbfc25be5a420ca628d2666dda683df9eb7aa88580"],
    ("E3", "all"): [
        "a2c1af15784b056922ed8311f29ac02031fb247d9eae374a00e63b4d6a67cb3b",
        "7abaef03bb9530620795bf846b5d58c6cb8478aaf720905849cbf9883451e7bb"],
    ("P4", "ktheory"): [
        "b8173ef3bba46f0a9c672822a775a2f896df8de2c9a092db3105063ce4375b8e",
        "89beb62881aebbeaac1f0ab7331867817cbaabaeed3812ccdf98e8ec31ee688e"],
    ("P4", "bgw"): [
        "de9471915e445fd94f1c6a1597b73ad0a3a1652fd5905d2744842bdb5bc88a8c",
        "4155f68f80398649b1cc15b3553d169e9dc42cfd28f28fb02ee330fae67d2137"],
    ("P4", "all"): [
        "a00828937e9eab03ea8bf7a9a1a2fbc09f8991d015028e45e9cecf5d3f693dc9",
        "e5b62017c37a80fabe1322fcab15263f2a50d48dfeacd1a3b35ebd5949e9fb38"],
    ("C4", "ktheory"): [
        "36d4cb729d413f57532a274d55de943b2303c910a9271f950a7ad935334033d7",
        "73ce94563ca86ec673c93a622d140c797542343afca056f3aefd2b258c9e0328"],
    ("C4", "bgw"): [
        "a7e988ef613ae0ea4785a317f6932154089f9f6f18904784d2f4ab5e58fe867f",
        "dfb84e5346f2db6553240dc95f6f8649b83612a12d303c0e19d69910def034d8"],
    ("C4", "all"): [
        "02a741fb66092196b7b6636791db43500b29d96caf498225d799ca1d865d9b44",
        "516a4903f65299f5eed07d0f559c6b8860eee373256485ac4eeb89d47870b7d8"],
    ("Petersen", "ktheory"): [
        "ad7d8e209ae394b1e45e9606d0ce21dd6e491e1ba41afbb71efdbe7961f8ac63",
        "089e7ce42e83bce76a80154c3b1686dd7254235fddb7fca0c2d463650808e0c0"],
    ("Petersen", "bgw"): [
        "075548b62053aef25a113675fb4146a9ef9474c9fc1f6a917aeff18da8486d46",
        "12af39bdcb1d3d8e5ec85e4f2c28131227017825d4c4308fd91d2a005d21b16e"],
    ("Petersen", "all"): [
        "454e054d73c879650beb7af3c71f4d288e4b91f79a3babfa8651317e96dcf1ef",
        "04fce960c41c4aa9c87a27d5c96472c8bab7008a91db58f3d59141e5dfd09f18"],
    ("P4", "mv-check"): [
        "1ba6e9bc8e5136e650775a8373de19712ba9dbcfa05eca04736218679092bb9f",
        "74d362a323d13a572b6226bbaa42fa1075617cf8de963160fbfa6eaad38f33bb"],
    ("C4", "mv-check"): [
        "caee5234275e8b1b129c9a303fc24c476dfde333461f307936cc1f1bb21a2bef",
        "04e44d75843a252f57991b6db64c693a35d4aed6cd9ed97235769e65e6da4060"],
}


@pytest.mark.parametrize("name, sub", sorted(REPORT_SHA256),
                         ids=lambda v: v)
def test_seeded_reports_are_pinned(capsys, tmp_path, name, sub):
    graph, part = {n: (g, p) for n, g, p in suite_graphs()}[name]
    path, split = tmp_path / "g.graph", tmp_path / "g.part"
    path.write_text(graph)
    split.write_text(part)
    extra = ["--partition", str(split)] if sub == "mv-check" else []
    for seed, digest in zip((0, 5), REPORT_SHA256[name, sub]):
        assert main([sub, "--input", str(path), "--format", "json",
                     "--seed", str(seed)] + extra) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, seed


def test_kunneth_report_up_to_the_cap_is_pinned(capsys):
    # `all` reaches the Kuenneth section only up to n = 4
    assert main(["kunneth", "--kunneth-max", "6", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "99299b69e2f33f0f2c1b5059ac194f7fbe41a372874f6a07663db980343fd79d")


def graph_file(tmp_path, name, g):
    f = tmp_path / (name + ".graph")
    f.write_text(edge_list(g.labels, g.canonical_edge_list()))
    return str(f)


def test_bredon_limit_and_bgw_list_no_clique(monkeypatch, capsys, tmp_path):
    # the reports come from the f-vector and the adjacency masks alone
    # while every check holds
    files = [graph_file(tmp_path, "K6", complete_graph(6)),
             graph_file(tmp_path, "C10", cycle_graph(10))]
    argvs = [[sub, "--input", f] for sub in ("bredon", "limit", "bgw")
             for f in files]
    expected = []
    for argv in argvs:
        assert main(argv) == 0
        expected.append(capsys.readouterr().out)

    def refuse(self):
        raise AssertionError("the cliques were listed")
    monkeypatch.setattr(graphs.Graph, "cliques", property(refuse))
    for argv, out in zip(argvs, expected):
        assert main(argv) == 0, argv
        assert capsys.readouterr().out == out, argv


def test_a_graph_past_the_count_budget_is_refused(monkeypatch, capsys,
                                                   pentagon_file):
    monkeypatch.setattr(graphs, "CLIQUE_COUNT_STATES", 3)
    assert main(["bredon", "--input", pentagon_file]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert re.fullmatch(r"error: counting the cliques reached \d+ memo "
                        r"states, the budget is 3\n", captured.err)


LONG = 7 ** 6000    # 5071 digits, past CPython's default cap of 4300


def test_integers_past_the_digit_cap_are_written_exactly():
    value = {"index": LONG, "indices": [LONG, 1], "rows": [{"k": -LONG}]}
    with cli.exact_integers():
        text = dump_json(value)
        assert text == json.dumps(value, indent=2, sort_keys=True)
        assert json.loads(text) == value
        lines = writers.render_text(value)
        digits = str(LONG)
    assert len(digits) > 4300
    assert lines == ["index: " + digits, "indices: [%s, 1]" % digits,
                     "rows:", "  -", "    k: -" + digits]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_report_past_the_digit_cap_exits_0(monkeypatch, capsys, path_file,
                                             fmt):
    cap = getattr(sys, "get_int_max_str_digits", lambda: None)()
    monkeypatch.setattr(cli, "run_bgw", lambda graph, args: {
        "index": LONG, "ok": True})
    assert main(["bgw", "--input", path_file, "--format", fmt]) == 0
    out = capsys.readouterr().out
    with cli.exact_integers():
        assert str(LONG) in out
    # the cap is back as it was
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == cap


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no digit cap")
def test_a_report_that_cannot_be_written_exits_2(monkeypatch, capsys,
                                                 path_file):
    monkeypatch.setattr(cli, "exact_integers", contextlib.nullcontext)
    monkeypatch.setattr(cli, "run_bgw", lambda graph, args: {
        "index": LONG, "ok": True})
    for fmt in ("text", "json"):
        assert main(["bgw", "--input", path_file, "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err.startswith("error: cannot write the bgw report")
        assert len(captured.err.splitlines()) == 1


def test_rank_cross_check_fails_on_wrong_ranks(monkeypatch, capsys,
                                               pentagon_file):
    ranks = bredon.bredon_ranks
    monkeypatch.setattr(bredon, "bredon_ranks", lambda counts: [
        r + (k == 1) for k, r in enumerate(ranks(counts))])
    code, rep = run_json(capsys, ["all", "--input", pentagon_file])
    cross = rep["rank_cross_check"]
    assert code == 1 and not rep["ok"] and not cross["ok"]
    assert (cross["euler_characteristic"], cross["h0_rank"]) == (10, 11)
    assert cross["detail"] == "euler_characteristic 10 != h0_rank 11"
    # the listing and the count still agree: only the Euler row fails
    assert cross["h0_rank"] == cross["presentation_rank"]


def test_rank_cross_check_fails_on_a_dropped_clique(monkeypatch, capsys,
                                                    pentagon_file):
    # the printed listing loses its last clique; membership tests still
    # see it
    listing = graphs.Graph.clique_labels.func
    monkeypatch.setattr(graphs.Graph, "clique_labels", property(
        lambda graph: listing(graph)[:-1]))
    code, rep = run_json(capsys, ["all", "--input", pentagon_file])
    cross = rep["rank_cross_check"]
    assert code == 1 and not rep["ok"] and not cross["ok"]
    assert (cross["h0_rank"], cross["presentation_rank"]) == (11, 10)
    assert cross["detail"] == "h0_rank 11 != presentation_rank 10"
    # the ranks are counted, not listed: the Euler row holds
    assert cross["euler_characteristic"] == cross["h0_rank"]


def test_rank_cross_check_keys(capsys, pentagon_file):
    code, rep = run_json(capsys, ["all", "--input", pentagon_file])
    assert code == 0
    assert rep["rank_cross_check"] == {
        "presentation_rank": 11, "h0_rank": 11, "euler_characteristic": 11,
        "ok": True}


def test_k64_bredon_is_counted(capsys, tmp_path):
    path = graph_file(tmp_path, "K64", complete_graph(64))
    code, rep = run_json(capsys, ["bredon", "--input", path])
    assert code == 0 and rep["ok"]
    assert rep["clique_count"] == 2 ** 64 and rep["ranks"][0] == 3 ** 64
    # the one cube of dimension 64 is [{}, V]
    assert len(rep["ranks"]) == 65 and rep["ranks"][64] == 1


def test_k64_bgw_reads_the_f_vector(capsys, tmp_path):
    path = graph_file(tmp_path, "K64", complete_graph(64))
    assert main(["bgw", "--input", path, "--format", "json"]) == 0
    with cli.exact_integers():
        rep = json.loads(capsys.readouterr().out)
    assert rep["ok"]
    assert rep["additive_structure"]["two_adic_components"] == 2 ** 64 - 1
    # [I^k : I^(k+1)] = 2^(f_1 + ... + f_k), f_s = C(64, s)
    assert [row["index"] for row in rep["ideal_power_indices"]] == [
        2 ** sum(comb(64, s) for s in range(1, k + 1)) for k in (1, 2, 3)]


# K24 has d = 2^24, just past the cap of 2^23
@pytest.mark.parametrize("n", [24, 64])
def test_k64_limit_is_refused_before_any_check(monkeypatch, capsys,
                                               tmp_path, n):
    path = graph_file(tmp_path, "K%d" % n, complete_graph(n))

    def refuse(*args):
        raise AssertionError("checked before the refusal")
    monkeypatch.setattr(bredon, "cone_certificate", refuse)
    monkeypatch.setattr(bredon, "_zeta_identities", refuse)
    assert main(["limit", "--input", path]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err == (
        "error: the inverse limit has rank d = %d, and a limit report lists "
        "d invariant factors twice; the cap is d = %d\n"
        % (2 ** n, bredon.LIMIT_RANK_CAP))


# K24 has d = 2^24 and G(64, 0.8) 17,838,688, past the cap of 2^21
@pytest.mark.parametrize("name, d", [("K24", 2 ** 24),
                                     ("G64p08", 17_838_688)])
def test_ktheory_basis_past_the_cap_is_refused_before_listing(
        monkeypatch, capsys, tmp_path, name, d):
    graph = (complete_graph(24) if name == "K24"
             else random_graph(64, 0.8))
    path = graph_file(tmp_path, name, graph)

    def refuse(*args):
        raise AssertionError("the cliques were listed")
    monkeypatch.setattr(graphs, "_forward_pass", refuse)
    assert main(["ktheory", "--input", path]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err == (
        "error: the clique basis has d = %d cliques, and a ktheory report "
        "lists each; the cap is d = %d\n"
        % (d, kring.CLIQUE_BASIS_CAP))


@pytest.mark.parametrize("sub", ["ktheory", "all"])
def test_the_basis_cap_is_inclusive(monkeypatch, capsys, pentagon_file, sub):
    # the pentagon has d = 11: listed at a cap of 11, refused at 10
    monkeypatch.setattr(kring, "CLIQUE_BASIS_CAP", 11)
    assert main([sub, "--input", pentagon_file]) == 0
    capsys.readouterr()
    monkeypatch.setattr(kring, "CLIQUE_BASIS_CAP", 10)
    assert main([sub, "--input", pentagon_file]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err.startswith("error: the clique basis has d = 11 ")


# K24 has d = 2^24 and glue64(0.92) 82,338,648, past the cap of 2^23
@pytest.mark.parametrize("name, d", [("K24", 2 ** 24),
                                     ("glue64-0.92", 82_338_648)])
def test_mv_check_past_the_cap_is_refused_before_listing(
        monkeypatch, capsys, tmp_path, name, d):
    if name == "K24":
        graph = complete_graph(24)
        parts = [graph.labels]
    else:
        graph, parts = glue64(0.92)
    path = graph_file(tmp_path, name, graph)
    split = tmp_path / "split.txt"
    split.write_text("".join(" ".join(part) + "\n" for part in parts))

    def refuse(*args):
        raise AssertionError("the cliques were listed")
    monkeypatch.setattr(graphs, "_forward_pass", refuse)
    assert main(["mv-check", "--input", path, "--partition", str(split)]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err == (
        "error: the graph has d = %d cliques, and mv-check lists them and "
        "each part's; the cap is d = %d\n" % (d, kring.MV_CLIQUE_CAP))


def test_the_mv_check_cap_is_inclusive(monkeypatch, capsys, path_file,
                                       tmp_path):
    # the path s-t-u has d = 6: checked at a cap of 6, refused at 5
    split = tmp_path / "split.txt"
    split.write_text("s t\nt u\n")
    argv = ["mv-check", "--input", path_file, "--partition", str(split)]
    monkeypatch.setattr(kring, "MV_CLIQUE_CAP", 6)
    assert main(argv) == 0
    capsys.readouterr()
    monkeypatch.setattr(kring, "MV_CLIQUE_CAP", 5)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err.startswith("error: the graph has d = 6 ")


@pytest.mark.parametrize("n", [24, 64])
def test_k64_all_is_refused_before_any_section(monkeypatch, capsys,
                                              tmp_path, n):
    path = graph_file(tmp_path, "K%d" % n, complete_graph(n))
    assert main(["limit", "--input", path]) == 2
    limit_err = capsys.readouterr().err

    def refuse(*args):
        raise AssertionError("a section ran before the refusal")
    monkeypatch.setattr(graphs, "enumerate_spherical", refuse)
    monkeypatch.setattr(bredon, "cone_certificate", refuse)
    monkeypatch.setattr(bredon, "_zeta_identities", refuse)
    assert main(["all", "--input", path]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err == limit_err


def test_every_all_report_eliminates_afresh(monkeypatch, capsys,
                                            pentagon_file):
    # no report reuses another's Kuenneth complexes or their reductions:
    # each builds its elimination states again
    calls = {"powers": 0, "states": 0}
    built = [0]
    kunneth = bredon.interval_tensor_kunneth
    powers = bredon.interval_tensor_powers

    class Counted(intlinalg._Elimination):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built[0] += 1

    def counted_kunneth(power):
        # the states built while this power's report is made
        start = built[0]
        report = kunneth(power)
        calls["states"] += built[0] - start
        return report

    def counted_powers(top):
        calls["powers"] += 1
        return powers(top)
    monkeypatch.setattr(intlinalg, "_Elimination", Counted)
    monkeypatch.setattr(bredon, "interval_tensor_kunneth", counted_kunneth)
    monkeypatch.setattr(bredon, "interval_tensor_powers", counted_powers)
    runs = []
    for _ in range(2):
        calls.update(powers=0, states=0)
        assert main(["all", "--input", pentagon_file, "--format", "json"]) == 0
        capsys.readouterr()
        runs.append(dict(calls))
    assert runs[0] == runs[1]
    assert runs[0]["states"] and runs[0]["powers"]


def test_bgw_names_the_first_vertex_whose_relation_fails(monkeypatch, capsys,
                                                         path_file):
    code, rep = run_json(capsys, ["bgw", "--input", path_file])
    assert code == 0 and "detail" not in rep
    multiply = kring.completed_multiply

    def wrong_on_t(a, b):
        # s~^2 comes out as s~ for the middle vertex t of s - t - u only
        if a.coeffs == {a.graph.mask_of(["t"]): 1}:
            return a
        return multiply(a, b)
    monkeypatch.setattr(kring, "completed_multiply", wrong_on_t)
    code, rep = run_json(capsys, ["bgw", "--input", path_file])
    assert code == 1 and not rep["ok"] and not rep["relations_ok"]
    assert rep["detail"] == "s~^2 != -2 s~ in the completed ring for vertex t"


@pytest.mark.parametrize("ring", ["precision", "graph"])
def test_bgw_names_a_square_from_another_ring(monkeypatch, capsys, path_file,
                                              ring):
    multiply = kring.completed_multiply

    def elsewhere_on_t(a, b):
        # the right coefficients for the middle vertex t of s - t - u, but
        # at another precision or over another graph with the same labels
        sq = multiply(a, b)
        if a.coeffs != {a.graph.mask_of(["t"]): 1}:
            return sq
        if ring == "precision":
            return kring.CompletedElement(a.graph, a.precision + 1, sq.coeffs)
        return kring.CompletedElement(Graph(a.graph.labels, []), a.precision,
                                      sq.coeffs)
    monkeypatch.setattr(kring, "completed_multiply", elsewhere_on_t)
    code, rep = run_json(capsys, ["bgw", "--input", path_file])
    assert code == 1 and not rep["relations_ok"]
    assert rep["detail"] == "s~^2 != -2 s~ in the completed ring for vertex t"


@pytest.mark.parametrize("precision", ["1", "2", "3", "64"])
def test_bgw_relations_hold_at_every_precision(capsys, pentagon_file,
                                               precision):
    # -2 is 0 mod 2, so at precision 1 the square s~^2 has no residue
    code, rep = run_json(capsys, ["bgw", "--input", pentagon_file,
                                  "--precision", precision])
    assert code == 0 and rep["relations_ok"] and "detail" not in rep


@pytest.mark.parametrize("sub", ["ktheory", "all"])
def test_a_wrong_star_normal_form_names_its_sample(monkeypatch, capsys,
                                                   pentagon_file, sub):
    normalize = kring._normalize_star

    def shifted(graph, terms):
        # one more at the constant term whenever a support is rewritten
        done = normalize(graph, terms)
        if not all(graph.is_clique(m) for m in terms):
            done[0] = done.get(0, 0) + 1
        return done
    monkeypatch.setattr(kring, "_normalize_star", shifted)
    code, rep = run_json(capsys, [sub, "--input", pentagon_file,
                                  "--seed", "5"])
    assert code == 1 and not rep["ok"]
    section = rep["ktheory"] if sub == "all" else rep
    assert not section["ok"]
    assert [s["bases_agree"] for s in section["sample_products"]] == [
        True, True, True, False, False]
    assert section["detail"] == {"sample": 3, "monomial": [],
                                 "star_product": "31",
                                 "group_ring_product": "30"}


def test_an_unrewritten_star_product_fails_the_group_ring_check(
        monkeypatch, capsys, tmp_path):
    # `multiply_star` trusts its normal form to stop at cliques: one that
    # returns its input is caught by the comparison with the group ring,
    # and named by sample, not raised as a support error
    monkeypatch.setattr(kring, "_normalize_star", lambda graph, terms: terms)
    path = graph_file(tmp_path, "P4", path_graph(4))
    code, rep = run_json(capsys, ["ktheory", "--input", path])
    assert code == 1 and not rep["ok"]
    agree = [s["bases_agree"] for s in rep["sample_products"]]
    assert not all(agree)
    assert rep["detail"]["sample"] == agree.index(False)
    assert rep["detail"]["star_product"] != rep["detail"][
        "group_ring_product"]


def test_the_ktheory_witness_is_first_by_size_then_members(monkeypatch,
                                                           capsys,
                                                           pentagon_file):
    product = kring.group_ring_product

    def off(a, b):
        # off by 7 at {a, b} and at {e}: {e} is smaller, though its mask
        # is the larger number
        p = product(a, b)
        return p + kring.KRingElement(p.graph, kring.BAR,
                                      {0b00011: 7, 0b10000: 7})
    monkeypatch.setattr(kring, "group_ring_product", off)
    code, rep = run_json(capsys, ["ktheory", "--input", pentagon_file])
    assert code == 1
    assert not any(s["bases_agree"] for s in rep["sample_products"])
    detail = rep["detail"]
    assert detail["sample"] == 0 and detail["monomial"] == ["e"]
    assert (int(detail["group_ring_product"])
            - int(detail["star_product"])) == 7


def run_in_process(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_in_child(argv):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               COLUMNS="80")
    proc = subprocess.run([sys.executable, "-m", "racgk.cli"] + argv,
                          env=env, capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("argv", [["ktheory"], ["all", "--format", "json"]])
def test_a_closed_stdout_exits_2_without_a_traceback(path_file, argv):
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "racgk.cli", "--input", path_file] + argv,
            env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
            stdout=write, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write)
    assert proc.returncode == 2
    assert proc.stderr == ("error: standard output was closed before the "
                           "report was written\n")


def test_repeated_calls_match_fresh_processes(monkeypatch, capsys,
                                              pentagon_file, tmp_path):
    # one parser serves every call in a process: no call sees an
    # option, default or error of the one before
    monkeypatch.setenv("COLUMNS", "80")
    argvs = [
        ["ktheory", "--input", pentagon_file, "--format", "json",
         "--seed", "5"],
        ["ktheory", "--input", pentagon_file, "--format", "json"],
        ["limit", "--input", pentagon_file,
         "--dump-matrices", str(tmp_path / "d")],
        ["bgw", "--input", pentagon_file, "--precision", "0"],
        ["bgw", "--input", pentagon_file, "--precision", "two"],
        ["ktheory", "--input", pentagon_file],
    ]
    got = [run_in_process(capsys, argv) for argv in argvs]
    assert [code for code, _out, _err in got] == [0, 0, 2, 2, 2, 0]
    assert json.loads(got[0][1])["seed"] == 5
    assert json.loads(got[1][1])["seed"] == 0
    assert got[0][1] != got[1][1]
    assert got == [run_in_child(argv) for argv in argvs]
    assert not list(tmp_path.glob("d*"))
