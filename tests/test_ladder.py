"""The ladder runner: two tiny rungs, a rung past its timeout, and the
schema of the committed ladder files."""

import json
import os
import sys

import pytest

LADDER = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "ladder")
sys.path.insert(0, LADDER)
try:
    import ladder
finally:
    sys.path.remove(LADDER)

TINY = [("k12", "bredon", "text"), ("k64", "bgw", "json")]


def check_schema(record, rungs, runs):
    assert set(record) == {"python", "runs", "timeout_s", "memory_limit_mb",
                           "rungs"}
    assert record["runs"] == runs and record["python"].count(".") == 2
    assert [(r["graph"], r["subcommand"], r["format"])
            for r in record["rungs"]] == list(rungs)
    for r in record["rungs"]:
        assert set(r) == {"graph", "subcommand", "format", "exit", "wall_s",
                          "peak_mb"}
        assert len(r["exit"]) == runs
        assert all(c == "timeout" or isinstance(c, int) for c in r["exit"])
        for values in (r["wall_s"], r["peak_mb"]):
            # each run's value, or, in a file written before each run was
            # recorded, the least and the greatest
            assert len(values) == runs or (
                len(values) == 2 and values[0] <= values[1])
            assert min(values) > 0


def test_two_tiny_rungs_are_recorded():
    (record,) = ladder.run_ladders([os.path.dirname(LADDER)], TINY, runs=2)
    check_schema(record, TINY, 2)
    assert [r["exit"] for r in record["rungs"]] == [[0, 0], [0, 0]]
    assert json.loads(ladder.dump(record)) == record
    assert all(len(r["wall_s"]) == len(r["peak_mb"]) == 2
               for r in record["rungs"])


def test_two_trees_are_measured_in_turn(monkeypatch, tmp_path):
    # each run of a rung takes the trees in turn, the order reversed on
    # every other run, and each tree gets its own record
    calls, once = [], ladder.run_once

    def recording(argv, env, timeout, limit):
        calls.append(env["PYTHONPATH"])
        return once(argv, env, timeout, limit)
    monkeypatch.setattr(ladder, "run_once", recording)
    tree = os.path.dirname(LADDER)
    other = tmp_path / "other"
    other.symlink_to(tree)
    records = ladder.run_ladders([tree, str(other)], TINY[:1], runs=3)
    srcs = [os.path.join(tree, "src"), os.path.join(str(other), "src")]
    assert calls == [srcs[0], srcs[1], srcs[1], srcs[0], srcs[0], srcs[1]]
    for record in records:
        check_schema(record, TINY[:1], 3)
        assert record["rungs"][0]["exit"] == [0, 0, 0]


def test_a_rung_past_its_timeout_is_recorded_as_timeout():
    (record,) = ladder.run_ladders([os.path.dirname(LADDER)], TINY[:1],
                                   runs=1, timeout=0.001)
    check_schema(record, TINY[:1], 1)
    assert record["rungs"][0]["exit"] == ["timeout"]


def committed(name):
    with open(os.path.join(LADDER, name), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", ["BENCH_31.json", "BENCH_32.json",
                                  "BENCH_37.json", "BENCH_38.json",
                                  "BENCH_47.json", "BENCH_48.json",
                                  "BENCH_48_parent.json", "BENCH_50.json"])
def test_committed_ladder_files_follow_the_schema(name):
    # each file against its own rungs, so that a new rung leaves the
    # committed files valid; each rung is one the runner can still run
    record = committed(name)
    rungs = [(r["graph"], r["subcommand"], r["format"])
             for r in record["rungs"]]
    check_schema(record, rungs, ladder.RUNS)
    assert len(set(rungs)) == len(rungs)
    assert all(graph in ladder.GRAPHS for graph, _sub, _fmt in rungs)
    assert record["timeout_s"] == ladder.TIMEOUT_S
    assert record["memory_limit_mb"] == ladder.MEMORY_LIMIT >> 20


def test_compare_flags_exit_codes_and_ranges_apart(capsys):
    old, new = committed("BENCH_31.json"), committed("BENCH_32.json")
    ladder.main(["--compare", os.path.join(LADDER, "BENCH_31.json"),
                 os.path.join(LADDER, "BENCH_32.json")])
    lines = capsys.readouterr().out.splitlines()
    assert lines == ladder.compare(old, new)
    assert len(lines) == len(new["rungs"])
    by_rung = {tuple(line.split()[:3]): line for line in lines}
    # g64-0.9 bredon: wall 0.947-0.969 -> 0.5-0.535 s, the median ratio
    # 0.5175 / 0.958, and peak 129.6-129.7 -> 71.3-71.4 MB
    assert by_rung["g64-0.9", "bredon", "text"] == (
        "g64-0.9          bredon   text wall 0.54x, MB 0.55x  "
        "WALL 0.947-0.969 -> 0.5-0.535  MB 129.6-129.7 -> 71.3-71.4")
    # ranges that overlap are not flagged
    assert by_rung["k16", "all", "text"].endswith("wall 0.87x, MB 1.00x")
    # no exit code changed between the two files; a changed one, a new
    # and a dropped rung are named
    assert "EXIT" not in "".join(lines)
    changed = json.loads(json.dumps(new))
    changed["rungs"][0]["exit"] = [0, 2, 2]
    changed["rungs"].append(dict(changed["rungs"][1], graph="k14"))
    del changed["rungs"][1]
    lines = ladder.compare(old, changed)
    assert "EXIT [0, 0, 0] -> [0, 2, 2]" in lines[0]
    assert lines[-2].split() == ["k14", "bredon", "text", "new", "rung"]
    assert lines[-1].split() == ["c64-complement", "bredon", "text",
                                 "dropped", "rung"]


def test_compare_takes_the_median_of_every_run():
    # one slow run of three moves the median not at all; a file of the
    # least and greatest values is read by their midpoint
    old = committed("BENCH_48.json")
    rung = dict(old["rungs"][0], wall_s=[0.2, 0.2, 1.0],
                peak_mb=[10.0, 10.0, 10.0])
    new = dict(old, rungs=[rung])
    ranged = dict(old, rungs=[dict(rung, wall_s=[0.2, 1.0],
                                   peak_mb=[5.0, 15.0])])
    assert ladder.compare(dict(new, rungs=[dict(
        rung, wall_s=[0.2, 0.3, 0.2])]), new)[0].endswith(
        "wall 1.00x, MB 1.00x")
    assert ladder.compare(ranged, new)[0].endswith("wall 0.33x, MB 1.00x")
    assert ladder.compare(new, ranged)[0].endswith("wall 3.00x, MB 1.00x")
