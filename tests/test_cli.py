import contextlib
import hashlib
import json
import os
import re
import subprocess
import sys
import time
from math import comb, factorial

import pytest

from racgk import bredon, cli, graphs, intlinalg, kring
from racgk.cli import dump_json, main
from conftest import (complete_graph, cycle_graph, dense_bredon_complex,
                      graph_suite, neighbourhood_split, perfbench_workloads)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GRAPH_SUBCOMMANDS = ["ktheory", "bgw", "bredon", "limit", "kunneth", "all"]


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


def test_non_utf8_input_is_usage_error(tmp_path, capsys):
    f = tmp_path / "bad.graph"
    f.write_bytes(b"a \xff; a-\xff\n")
    assert main(["ktheory", "--input", str(f)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_kunneth_max_above_cap_is_refused(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("tensor power built past the cap")

    monkeypatch.setattr(bredon, "tensor_complex", refuse)
    with pytest.raises(SystemExit) as exc:
        main(["kunneth", "--kunneth-max", "7"])
    assert exc.value.code == 2
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
    # 2^precision has too many digits to build: one error line, no report
    assert main([sub, "--input", pentagon_file, "--format", fmt,
                 "--precision", "100000000000000000000"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: %s " % sub)
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("sub", ["all", "limit"])
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
    # the complex is built only to dump its matrices, and only `all`
    # lists the cliques, for the sections that print them
    listed = {"enumerate_spherical": 1} if sub == "all" else {}
    assert calls == {"clique_counts": 1, "cone_certificate": 1,
                     "inverse_limit": 1, **listed}


def test_limit_runs_no_elimination(monkeypatch, capsys, pentagon_file):
    # rho and the clique-basis isomorphism read the shape of the d = 11
    # clique families off one limit: no invariant factors, no solver
    calls = {"factors": 0, "eliminations": 0, "limits": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper
    for module in (bredon, intlinalg):
        monkeypatch.setattr(module, "invariant_factors",
                            counted("factors", module.invariant_factors))
    monkeypatch.setattr(intlinalg.ColumnSolver, "__init__",
                        counted("eliminations",
                                intlinalg.ColumnSolver.__init__))
    monkeypatch.setattr(bredon, "inverse_limit",
                        counted("limits", bredon.inverse_limit))
    assert main(["limit", "--input", pentagon_file, "--format", "json"]) == 0
    assert calls == {"factors": 0, "eliminations": 0, "limits": 1}


WRONG_SIGN = ("identity (a) restriction is a projection fails in block "
              "K = {} at chain {} < {s}, degree 1")
DROPPED_FACE = ("identity (b) d o d = 0 fails in block K = {} at chain "
                "{} < {s} < {s, t}, degree 2")


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
    monkeypatch.setattr(bredon, "faces", lambda chain: (
        faces(chain)[:-1] if len(chain) > 2 else faces(chain)))
    code, rep = run_json(capsys, [sub, "--input", path_file])
    assert code == 1 and not rep["ok"]
    section = rep["bredon"] if sub == "all" else rep
    assert section["detail"] == DROPPED_FACE
    if sub == "all":
        assert rep["limit"]["detail"] == DROPPED_FACE
    if sub != "limit":
        assert section["cohomology"] is None


# sha256 of each `--dump-matrices` file, as written when the
# differentials were dense matrices
DUMP_SHA256 = {
    "C5": ["c0e47ce85b1aaaa99d1ab285834ff5ed043a7ebd11716773dce8bb0e59102551",
           "aa6184ed91c04d723b34104d9bc339d6ea54409bbed277ec3071327151176993"],
    "K4": ["f8145f3749a1e795f4ea26c7332e1be76e7191272c269e018293e522c4d889ca",
           "11b4ab902072edaae21a8948a637325b6ba849b65fc206454090d17498d9889d",
           "c168fdd00fa393f410631b413022a1aeebccbd37d77a60f6e343a2e32f8e52ea",
           "5b290dc488758ad616be79cd100298b4401d3469e18f740dfec764427023f726"],
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
    ranks, dense = dense_bredon_complex(graph)
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


def test_the_dump_cap_admits_k8_and_refuses_k9():
    cells = [sum(bredon.cone_certificate(complete_graph(n)).ranks)
             for n in (8, 9)]
    assert cells == [4366422, 56697574]
    assert cells[0] <= cli.DUMP_CELL_CAP < cells[1]


@pytest.mark.parametrize("sub", ["bredon", "all"])
def test_a_complex_too_large_to_dump_is_refused(monkeypatch, capsys,
                                                tmp_path, sub):
    # K9's cells are counted and refused before the complex is built
    def refuse(graph):
        raise AssertionError("the complex was built")
    monkeypatch.setattr(bredon, "build_bredon_complex", refuse)
    path = graph_file(tmp_path, "K9", complete_graph(9))
    start = time.perf_counter()
    assert main([sub, "--input", path,
                 "--dump-matrices", str(tmp_path / "d")]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err == ("error: --dump-matrices would build a complex "
                            "of 56697574 cells; the cap is 5000000\n")
    assert not list(tmp_path.glob("d.*"))


@pytest.mark.parametrize("argv", [
    ["limit", "--dump-matrices", "d", "--partition", "/nonexistent"],
    ["ktheory", "--dump-matrices", "d"],
    ["mv-check", "--dump-matrices", "d"],
    ["bredon", "--partition", "/nonexistent"],
    ["all", "--partition", "/nonexistent"],
], ids=["limit-both", "ktheory-dump", "mv-check-dump", "bredon-partition",
        "all-partition"])
def test_option_a_subcommand_ignores_is_refused(capsys, tmp_path, path_file,
                                                argv):
    argv = [str(tmp_path / a) if a == "d" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--input", path_file])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --") and len(err.splitlines()) == 1
    assert not list(tmp_path.glob("d*"))


def edge_list(labels, edges):
    return "%s; %s\n" % (" ".join(labels),
                         " ".join("%s-%s" % tuple(e) for e in edges))


def benchmark_graphs():
    """(name, graph text, partition text or None) for the deck and the
    warm-up graph of each of the benchmark's workloads."""
    workloads = perfbench_workloads()
    out = []
    for workload in workloads.SUBCOMMANDS:
        for t in workloads.deck(workload) + [
                workloads.warmup_template(workload)]:
            part = t["parts"] and "".join(" ".join(p) + "\n"
                                          for p in t["parts"])
            out.append(("%s/%s" % (workload, t["family"]),
                        edge_list(t["labels"], t["edges"]), part))
    return out


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
    for value in values:
        assert dump_json(value) == json.dumps(value, indent=2,
                                              sort_keys=True), value


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
        "1d62cc39e52245ce0956d39e7bac4d9b3717f31b8df240c71d86364e438a84fb",
        "b8c04f642132dc41c7b4ef8e785ce03148ee0b02de439caa596714f295a6dff3"],
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
        "821414d3db11ebb5c000f3557fcd8cdb0d9ee9c2e2deef7087629406c595e1a7",
        "e40048ef787ecb1e6c8aaf8b3f69e20181e507ca5089dab45a11e2dd65c76830"],
    ("C4", "ktheory"): [
        "36d4cb729d413f57532a274d55de943b2303c910a9271f950a7ad935334033d7",
        "73ce94563ca86ec673c93a622d140c797542343afca056f3aefd2b258c9e0328"],
    ("C4", "bgw"): [
        "a7e988ef613ae0ea4785a317f6932154089f9f6f18904784d2f4ab5e58fe867f",
        "dfb84e5346f2db6553240dc95f6f8649b83612a12d303c0e19d69910def034d8"],
    ("C4", "all"): [
        "7d84a601ce8d81ec96ce9310e755fd430e370ec5e42d8031df48b3e7ea42cf23",
        "d8a888359c60ba1a3e02b61050521c12a2a0b2e495632a5face99104b9f4a992"],
    ("Petersen", "ktheory"): [
        "ad7d8e209ae394b1e45e9606d0ce21dd6e491e1ba41afbb71efdbe7961f8ac63",
        "089e7ce42e83bce76a80154c3b1686dd7254235fddb7fca0c2d463650808e0c0"],
    ("Petersen", "bgw"): [
        "075548b62053aef25a113675fb4146a9ef9474c9fc1f6a917aeff18da8486d46",
        "12af39bdcb1d3d8e5ec85e4f2c28131227017825d4c4308fd91d2a005d21b16e"],
    ("Petersen", "all"): [
        "d3050d1e14af70deda5c03f31bb5b1fee4b41fd6bceac3c416447b4781c8d077",
        "64df51837d921327f49072e1f6f112a865776790c574afce7865ff75cb65fc23"],
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
    for name in ("cliques", "clique_set", "supersets"):
        monkeypatch.setattr(graphs.Graph, name, property(refuse))
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
        lines = cli.render_text(value)
        digits = str(LONG)
    assert len(digits) > 4300
    assert lines == ["index: " + digits, "indices: [%s, 1]" % digits,
                     "rows:", "  -", "    k: -" + digits]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_report_past_the_digit_cap_exits_0(monkeypatch, capsys, path_file,
                                             fmt):
    cap = getattr(sys, "get_int_max_str_digits", lambda: None)()
    monkeypatch.setattr(cli, "run_bgw", lambda graph, args, rng: {
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
    monkeypatch.setattr(cli, "run_bgw", lambda graph, args, rng: {
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
    # the listing loses its last clique; membership tests still see it
    listing = graphs.enumerate_spherical
    monkeypatch.setattr(graphs.Graph, "cliques", property(
        lambda graph: tuple(listing(graph)[:-1])))
    monkeypatch.setattr(graphs.Graph, "clique_set", property(
        lambda graph: frozenset(listing(graph))))
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
    # the chains of 65 cliques are the orderings of the 64 vertices
    assert len(rep["ranks"]) == 65 and rep["ranks"][64] == factorial(64)


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
    # no report reuses another's Kuenneth complexes or invariant factors
    calls = {}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args)
        monkeypatch.setattr(module, name, wrapper)
    counted(bredon, "invariant_factors")
    counted(bredon, "tensor_complex")
    runs = []
    for _ in range(2):
        calls.clear()
        assert main(["all", "--input", pentagon_file, "--format", "json"]) == 0
        capsys.readouterr()
        runs.append(dict(calls))
    assert runs[0] == runs[1]
    assert runs[0]["invariant_factors"] and runs[0]["tensor_complex"]


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
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
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
